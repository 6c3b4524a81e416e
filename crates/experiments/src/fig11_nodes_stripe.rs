//! Figure 11 — scenario 2 node sweeps at several stripe counts.
//!
//! The justification for using 32 nodes in Fig. 6b: "with more storage
//! targets higher peak performance is available, but that performance
//! can only be achieved with more compute nodes" (lesson 6).

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use serde::{Deserialize, Serialize};

/// One (stripe count, node count) cell: mean bandwidth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Stripe count of the series.
    pub stripe_count: u32,
    /// Node count of the point.
    pub nodes: usize,
    /// Mean bandwidth (MiB/s) over the repetitions.
    pub mean_mib_s: f64,
}

/// The full figure: mean bandwidth per (stripe, nodes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11 {
    /// All cells, series-major.
    pub cells: Vec<Cell>,
    /// The node counts swept.
    pub node_counts: Vec<usize>,
    /// The stripe counts swept.
    pub stripe_counts: Vec<u32>,
}

/// Node counts swept (paper Fig. 11 x-axis).
pub const NODES: [usize; 7] = [1, 2, 4, 8, 16, 24, 32];
/// Stripe counts swept (paper Fig. 11 series).
pub const STRIPES: [u32; 4] = [1, 2, 4, 8];

/// The campaign describing this figure's grid. The name and cell labels
/// match the pre-campaign harness, so results are bit-identical to what
/// the hand-rolled loop produced.
pub fn campaign(ctx: &ExpCtx) -> Campaign {
    let mut c = Campaign::new("fig11", ctx.seed);
    for &stripe_count in &STRIPES {
        for &nodes in &NODES {
            c = c.cell(
                format!("s{stripe_count}-n{nodes}"),
                CellConfig::new(
                    Scenario::S2Omnipath,
                    stripe_count,
                    ChooserKind::RoundRobin,
                    IorConfig::paper_default(nodes),
                ),
                ctx.reps,
            );
        }
    }
    c
}

/// Run the experiment on an engine (scenario 2 only, as in the paper).
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<Fig11, CampaignError> {
    let outcome = engine.run(&campaign(ctx))?;
    let mut results = outcome.cells.into_iter();
    let mut cells = Vec::new();
    for &stripe_count in &STRIPES {
        for &nodes in &NODES {
            let samples = results.next().expect("one result per cell").bandwidths();
            cells.push(Cell {
                stripe_count,
                nodes,
                mean_mib_s: samples.iter().sum::<f64>() / samples.len() as f64,
            });
        }
    }
    Ok(Fig11 {
        cells,
        node_counts: NODES.to_vec(),
        stripe_counts: STRIPES.to_vec(),
    })
}

impl Fig11 {
    /// Mean at a (stripe, nodes) cell.
    ///
    /// # Panics
    /// Panics if the cell was not swept.
    pub fn mean(&self, stripe_count: u32, nodes: usize) -> f64 {
        self.cells
            .iter()
            .find(|c| c.stripe_count == stripe_count && c.nodes == nodes)
            .unwrap_or_else(|| panic!("cell ({stripe_count}, {nodes}) not swept"))
            .mean_mib_s
    }

    /// Smallest node count reaching `1 - tol` of a series' peak.
    pub fn plateau_nodes(&self, stripe_count: u32, tol: f64) -> usize {
        let peak = self
            .node_counts
            .iter()
            .map(|&n| self.mean(stripe_count, n))
            .fold(0.0, f64::max);
        *self
            .node_counts
            .iter()
            .find(|&&n| self.mean(stripe_count, n) >= (1.0 - tol) * peak)
            .expect("non-empty sweep")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_targets_more_peak_more_nodes_needed() {
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(8)).unwrap();
        // Peaks grow with stripe count.
        let peak = |s: u32| NODES.iter().map(|&n| fig.mean(s, n)).fold(0.0f64, f64::max);
        assert!(peak(2) > peak(1));
        assert!(peak(4) > peak(2));
        assert!(peak(8) > peak(4));
        // Plateau node count is non-decreasing with stripe count.
        let p1 = fig.plateau_nodes(1, 0.08);
        let p8 = fig.plateau_nodes(8, 0.08);
        assert!(p8 > p1, "plateau: stripe1 {p1}, stripe8 {p8}");
    }

    #[test]
    fn few_nodes_compress_the_stripe_effect() {
        // Lesson 1/2: with too few nodes, the low bandwidth hides most of
        // the stripe-count effect that 32 nodes reveal — the spread
        // across stripe counts is several times smaller at 1 node.
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(8)).unwrap();
        let spread_at = |n: usize| {
            let v: Vec<f64> = STRIPES.iter().map(|&s| fig.mean(s, n)).collect();
            (v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - v.iter().cloned().fold(f64::INFINITY, f64::min))
                / v[0]
        };
        let s1 = spread_at(1);
        let s32 = spread_at(32);
        assert!(s32 > 3.0, "32-node spread {s32}");
        assert!(s1 < 0.4 * s32, "1-node spread {s1} vs 32-node {s32}");
    }
}
