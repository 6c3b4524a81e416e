//! Figure 4 — bandwidth vs number of compute nodes.
//!
//! 8 processes per node, stripe count 4 (deployed default), 32 GiB total;
//! scenario 1 plateaus around 1.4–1.5 GiB/s within a few nodes, scenario
//! 2 keeps climbing to ~6 GiB/s and needs ~16 nodes (lessons 1 and 2).

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};

/// One node-count point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodePoint {
    /// Compute nodes used.
    pub nodes: usize,
    /// Bandwidth samples (MiB/s).
    pub samples: Vec<f64>,
}

impl NodePoint {
    /// Summary statistics.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.samples)
    }
}

/// The figure's data for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig04 {
    /// Which scenario (4a or 4b).
    pub scenario: Scenario,
    /// Points in increasing node order.
    pub points: Vec<NodePoint>,
    /// Processes per node used (8 for Fig. 4; 16 reused by Fig. 5).
    pub ppn: u32,
}

/// Node counts swept per scenario (scenario 2 needs more).
pub fn node_counts(scenario: Scenario) -> Vec<usize> {
    match scenario {
        Scenario::S1Ethernet => vec![1, 2, 3, 4, 6, 8, 12, 16],
        Scenario::S2Omnipath => vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 32],
    }
}

/// The campaign describing this figure's grid at a given ppn. The name
/// and cell labels match the pre-campaign harness, so results are
/// bit-identical to what the hand-rolled loop produced.
pub fn campaign(ctx: &ExpCtx, scenario: Scenario, ppn: u32) -> Campaign {
    let mut c = Campaign::new("fig04", ctx.seed);
    for nodes in node_counts(scenario) {
        c = c.cell(
            format!("{scenario:?}-n{nodes}-p{ppn}"),
            CellConfig::new(
                scenario,
                4,
                ChooserKind::RoundRobin,
                IorConfig::paper_default(nodes).with_ppn(ppn),
            ),
            ctx.reps,
        );
    }
    c
}

/// Run the experiment at the given processes per node (the paper's
/// Fig. 4 uses 8) on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
    ppn: u32,
) -> Result<Fig04, CampaignError> {
    let outcome = engine.run(&campaign(ctx, scenario, ppn))?;
    let points = node_counts(scenario)
        .into_iter()
        .zip(outcome.cells)
        .map(|(nodes, cell)| NodePoint {
            nodes,
            samples: cell.bandwidths(),
        })
        .collect();
    Ok(Fig04 {
        scenario,
        points,
        ppn,
    })
}

impl Fig04 {
    /// Mean bandwidth at a node count.
    ///
    /// # Panics
    /// Panics if the node count was not swept.
    pub fn mean_at(&self, nodes: usize) -> f64 {
        self.points
            .iter()
            .find(|p| p.nodes == nodes)
            .unwrap_or_else(|| panic!("node count {nodes} not swept"))
            .summary()
            .mean
    }

    /// Smallest node count whose mean is within `tol` of the maximum
    /// mean (the paper's "plateau" point).
    pub fn plateau_nodes(&self, tol: f64) -> usize {
        let peak = self
            .points
            .iter()
            .map(|p| p.summary().mean)
            .fold(0.0, f64::max);
        self.points
            .iter()
            .find(|p| p.summary().mean >= (1.0 - tol) * peak)
            .expect("non-empty sweep")
            .nodes
    }

    /// Relative gain from one node to the plateau (the lesson-1 numbers:
    /// +64% in scenario 1, +270% in scenario 2).
    pub fn gain_to_plateau(&self) -> f64 {
        let first = self.mean_at(self.points[0].nodes);
        let peak = self
            .points
            .iter()
            .map(|p| p.summary().mean)
            .fold(0.0, f64::max);
        (peak - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> Fig04 {
        super::run(&CampaignEngine::in_memory(), ctx, scenario, 8).unwrap()
    }

    #[test]
    fn scenario1_shape() {
        let fig = run(&ExpCtx::quick(10), Scenario::S1Ethernet);
        // ~880 MiB/s at one node.
        let one = fig.mean_at(1);
        assert!((750.0..1000.0).contains(&one), "1-node mean {one}");
        // Plateau early, around 1.4-1.6 GiB/s.
        assert!(fig.plateau_nodes(0.05) <= 4);
        let peak = fig.mean_at(8);
        assert!((1300.0..1650.0).contains(&peak), "plateau {peak}");
        // Lesson 1: ~64% gain.
        assert!(
            fig.gain_to_plateau() > 0.4,
            "gain {}",
            fig.gain_to_plateau()
        );
    }

    #[test]
    fn scenario2_needs_more_nodes_and_gains_more() {
        let ctx = ExpCtx::quick(10);
        let s1 = run(&ctx, Scenario::S1Ethernet);
        let s2 = run(&ctx, Scenario::S2Omnipath);
        assert!(
            s2.plateau_nodes(0.05) > s1.plateau_nodes(0.05),
            "s2 plateau {} vs s1 {}",
            s2.plateau_nodes(0.05),
            s1.plateau_nodes(0.05)
        );
        // Lesson 1: the impact is heavier in scenario 2 (270% vs 64%).
        assert!(s2.gain_to_plateau() > 2.0 * s1.gain_to_plateau());
        // One-node scenario 2 ~1.6 GiB/s.
        let one = s2.mean_at(1);
        assert!((1400.0..1800.0).contains(&one), "1-node mean {one}");
    }
}
