//! The Chowdhury contrast — why ICPP'19 saw no stripe-count effect.
//!
//! Chowdhury et al. evaluated BeeGFS striping on a Catalyst-class system
//! (12 servers x 2 OSTs) **with a single compute node** and concluded
//! that increasing the stripe count has limited benefit, recommending 4.
//! The paper argues (lesson 1) that one node's injection capacity hides
//! the storage-side effect. This experiment reproduces both sides on the
//! Catalyst-like preset: a single-node sweep (flat) and a many-node
//! sweep (strongly increasing).

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig, CellResult};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use cluster::presets;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};

/// Stripe counts swept (Catalyst has 24 targets).
pub const STRIPES: [u32; 6] = [1, 2, 4, 8, 16, 24];

/// One sweep at a fixed node count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripeSweep {
    /// Compute nodes used.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: u32,
    /// (stripe count, bandwidth samples MiB/s) pairs.
    pub points: Vec<(u32, Vec<f64>)>,
}

impl StripeSweep {
    /// Mean at a stripe count.
    ///
    /// # Panics
    /// Panics if the stripe count was not swept.
    pub fn mean(&self, stripe: u32) -> f64 {
        let (_, samples) = self
            .points
            .iter()
            .find(|(s, _)| *s == stripe)
            .unwrap_or_else(|| panic!("stripe {stripe} not swept"));
        Summary::from_sample(samples).mean
    }

    /// Relative spread of the means across stripe counts:
    /// `(max - min) / min`.
    pub fn relative_spread(&self) -> f64 {
        let means: Vec<f64> = self.points.iter().map(|(s, _)| self.mean(*s)).collect();
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / min
    }
}

/// Both sides of the contrast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Chowdhury {
    /// The single-node evaluation (as ICPP'19 ran it).
    pub single_node: StripeSweep,
    /// The same sweep with enough compute nodes.
    pub many_nodes: StripeSweep,
}

/// One node count's cells, in stripe order, as a sweep.
fn sweep(cells: &[CellResult]) -> StripeSweep {
    StripeSweep {
        nodes: cells[0].config.nodes,
        ppn: cells[0].config.ppn,
        points: cells
            .iter()
            .map(|c| (c.config.stripe_count, c.bandwidths()))
            .collect(),
    }
}

/// Run the contrast experiment on an engine.
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<Chowdhury, CampaignError> {
    let mut campaign = Campaign::new("chowdhury", ctx.seed);
    // ICPP'19's single node, then enough nodes to load 24 targets.
    for (nodes, ppn) in [(1, 16), (32, 8)] {
        for stripe in STRIPES {
            let cfg = IorConfig::paper_default(nodes).with_ppn(ppn);
            // Nominal scenario tag only — the fleet overrides the platform.
            let config =
                CellConfig::new(Scenario::S2Omnipath, stripe, ChooserKind::RoundRobin, cfg)
                    .with_fleet(presets::catalyst_like_spec());
            campaign = campaign.cell(format!("n{nodes}-p{ppn}-s{stripe}"), config, ctx.reps);
        }
    }
    let outcome = engine.run(&campaign)?;
    let (single, many) = outcome.cells.split_at(STRIPES.len());
    Ok(Chowdhury {
        single_node: sweep(single),
        many_nodes: sweep(many),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_hides_the_effect_many_nodes_reveal() {
        let c = run(&CampaignEngine::in_memory(), &ExpCtx::quick(8)).unwrap();
        // ICPP'19's view: basically flat (within ~20%).
        assert!(
            c.single_node.relative_spread() < 0.25,
            "single-node spread {}",
            c.single_node.relative_spread()
        );
        // The paper's view: the effect is large once nodes are plentiful.
        assert!(
            c.many_nodes.relative_spread() > 1.0,
            "many-node spread {}",
            c.many_nodes.relative_spread()
        );
        // And the many-node sweep grows with the stripe count.
        assert!(c.many_nodes.mean(24) > 2.0 * c.many_nodes.mean(2));
    }
}
