//! Beyond the paper: the file-per-process (N-N) projection (§VI future
//! work).
//!
//! With N-N every process creates its own file, so every file gets its
//! own target selection — the allocation story changes completely:
//!
//! * the round-robin cursor marches through the registration order file
//!   by file, so the *union* of targets quickly covers the system even
//!   at small stripe counts;
//! * per-file allocations still matter for each file's drain, but the
//!   law of large numbers balances per-server load;
//! * metadata cost scales with the process count (one create each).
//!
//! The experiment compares N-1 and N-N at each stripe count in both
//! scenarios.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::{FileLayout, IorConfig};
use iostats::Summary;
use serde::{Deserialize, Serialize};

/// One (layout, stripe) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayoutCell {
    /// N-1 or N-N.
    pub layout: FileLayout,
    /// Stripe count.
    pub stripe_count: u32,
    /// Bandwidth samples (MiB/s).
    pub samples: Vec<f64>,
}

impl LayoutCell {
    /// Summary statistics.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.samples)
    }
}

/// The experiment's data for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureNn {
    /// Which scenario.
    pub scenario: Scenario,
    /// All cells.
    pub cells: Vec<LayoutCell>,
}

/// Stripe counts compared.
pub const STRIPES: [u32; 4] = [1, 2, 4, 8];

/// Run the experiment on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
) -> Result<FutureNn, CampaignError> {
    let nodes = scenario.figure6_nodes();
    let mut campaign = Campaign::new("future-nn", ctx.seed);
    for layout in [FileLayout::SharedFile, FileLayout::FilePerProcess] {
        for stripe_count in STRIPES {
            let cfg = IorConfig::paper_default(nodes).with_layout(layout);
            let label = format!("{scenario:?}-{layout:?}-s{stripe_count}");
            let config = CellConfig::new(scenario, stripe_count, ChooserKind::RoundRobin, cfg);
            campaign = campaign.cell(label, config, ctx.reps);
        }
    }
    let cells = engine
        .run(&campaign)?
        .cells
        .into_iter()
        .map(|cell| LayoutCell {
            layout: cell.config.layout,
            stripe_count: cell.config.stripe_count,
            samples: cell.bandwidths(),
        })
        .collect();
    Ok(FutureNn { scenario, cells })
}

impl FutureNn {
    /// The cell for a (layout, stripe) pair.
    ///
    /// # Panics
    /// Panics if the pair was not swept.
    pub fn cell(&self, layout: FileLayout, stripe_count: u32) -> &LayoutCell {
        self.cells
            .iter()
            .find(|c| c.layout == layout && c.stripe_count == stripe_count)
            .unwrap_or_else(|| panic!("cell ({layout:?}, {stripe_count}) not swept"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> FutureNn {
        super::run(&CampaignEngine::in_memory(), ctx, scenario).unwrap()
    }

    #[test]
    fn nn_rescues_small_stripe_counts() {
        // N-N at stripe 1: 256 files land across all 8 targets via the
        // marching cursor, so the run is not stuck on one device like
        // N-1 stripe 1 is.
        let fig = run(&ExpCtx::quick(8), Scenario::S2Omnipath);
        let n1 = fig.cell(FileLayout::SharedFile, 1).summary().mean;
        let nn = fig.cell(FileLayout::FilePerProcess, 1).summary().mean;
        assert!(nn > 2.0 * n1, "N-N {nn} vs N-1 {n1} at stripe 1");
    }

    #[test]
    fn layouts_converge_at_full_striping() {
        // At stripe 8 every file uses every target either way; the
        // difference shrinks to metadata overhead (~per-process creates).
        let fig = run(&ExpCtx::quick(8), Scenario::S2Omnipath);
        let n1 = fig.cell(FileLayout::SharedFile, 8).summary().mean;
        let nn = fig.cell(FileLayout::FilePerProcess, 8).summary().mean;
        let rel = (n1 - nn).abs() / n1;
        assert!(rel < 0.10, "stripe 8: N-1 {n1} vs N-N {nn} ({rel})");
    }

    #[test]
    fn nn_tames_scenario1_allocation_variance() {
        // In scenario 1 the N-1 bi-modal stripe-2 variance comes from a
        // single file's allocation; 64 independent files average it out.
        let fig = run(&ExpCtx::quick(12), Scenario::S1Ethernet);
        let n1 = fig.cell(FileLayout::SharedFile, 2).summary();
        let nn = fig.cell(FileLayout::FilePerProcess, 2).summary();
        assert!(
            nn.sd < 0.5 * n1.sd,
            "N-N sd {} should be far below N-1 sd {}",
            nn.sd,
            n1.sd
        );
    }
}
