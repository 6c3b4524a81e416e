//! Beyond the paper: the read-path projection (§VI future work).
//!
//! The paper measures writes only and conjectures — citing Chowdhury et
//! al. — that reads behave the same. This experiment runs the Fig. 6
//! stripe sweep in read mode with projected device profiles (RAID-6
//! large reads skip the parity penalty, ~15 % above the write rate) and
//! checks the conjecture *within the model*: identical qualitative
//! structure, shifted absolute level.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};
use storage::AccessMode;

/// One (mode, stripe) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModeCell {
    /// Read or write.
    pub mode: AccessMode,
    /// Stripe count.
    pub stripe_count: u32,
    /// Bandwidth samples (MiB/s).
    pub samples: Vec<f64>,
    /// Allocation labels observed.
    pub allocations: Vec<String>,
}

impl ModeCell {
    /// Summary statistics.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.samples)
    }
}

/// The experiment's data for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureReads {
    /// Which scenario.
    pub scenario: Scenario,
    /// All cells (write series then read series).
    pub cells: Vec<ModeCell>,
}

/// Run the experiment on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
) -> Result<FutureReads, CampaignError> {
    let nodes = scenario.figure6_nodes();
    let mut campaign = Campaign::new("future-reads", ctx.seed);
    for mode in [AccessMode::Write, AccessMode::Read] {
        for stripe_count in 1..=8u32 {
            let cfg = IorConfig::paper_default(nodes).with_mode(mode);
            let label = format!("{scenario:?}-{mode:?}-s{stripe_count}");
            let config = CellConfig::new(scenario, stripe_count, ChooserKind::RoundRobin, cfg);
            campaign = campaign.cell(label, config, ctx.reps);
        }
    }
    let cells = engine
        .run(&campaign)?
        .cells
        .into_iter()
        .map(|cell| {
            let mut allocations: Vec<String> = cell
                .reps
                .iter()
                .map(|r| r.apps[0].allocation.clone())
                .collect();
            allocations.sort();
            allocations.dedup();
            ModeCell {
                mode: cell.config.mode,
                stripe_count: cell.config.stripe_count,
                samples: cell.bandwidths(),
                allocations,
            }
        })
        .collect();
    Ok(FutureReads { scenario, cells })
}

impl FutureReads {
    /// The cell for a (mode, stripe) pair.
    ///
    /// # Panics
    /// Panics if the pair was not swept.
    pub fn cell(&self, mode: AccessMode, stripe_count: u32) -> &ModeCell {
        self.cells
            .iter()
            .find(|c| c.mode == mode && c.stripe_count == stripe_count)
            .unwrap_or_else(|| panic!("cell ({mode:?}, {stripe_count}) not swept"))
    }

    /// Pearson correlation between the read and write mean-vs-stripe
    /// series — the "same behaviours" conjecture quantified.
    pub fn mode_correlation(&self) -> f64 {
        let w: Vec<f64> = (1..=8)
            .map(|s| self.cell(AccessMode::Write, s).summary().mean)
            .collect();
        let r: Vec<f64> = (1..=8)
            .map(|s| self.cell(AccessMode::Read, s).summary().mean)
            .collect();
        let mw = w.iter().sum::<f64>() / 8.0;
        let mr = r.iter().sum::<f64>() / 8.0;
        let cov: f64 = w.iter().zip(&r).map(|(a, b)| (a - mw) * (b - mr)).sum();
        let vw: f64 = w.iter().map(|a| (a - mw).powi(2)).sum();
        let vr: f64 = r.iter().map(|b| (b - mr).powi(2)).sum();
        cov / (vw * vr).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> FutureReads {
        super::run(&CampaignEngine::in_memory(), ctx, scenario).unwrap()
    }

    #[test]
    fn reads_mirror_writes_qualitatively() {
        // The paper's conjecture: "we expect the observed behaviors to be
        // the same" for reads.
        let fig = run(&ExpCtx::quick(8), Scenario::S2Omnipath);
        assert!(
            fig.mode_correlation() > 0.98,
            "correlation {}",
            fig.mode_correlation()
        );
        // Reads are at least as fast at every stripe count (scenario 2 is
        // device-bound and the read profile is faster).
        for s in 1..=8u32 {
            let w = fig.cell(AccessMode::Write, s).summary().mean;
            let r = fig.cell(AccessMode::Read, s).summary().mean;
            assert!(r > 0.95 * w, "stripe {s}: read {r} vs write {w}");
        }
    }

    #[test]
    fn scenario1_reads_hit_the_same_network_wall() {
        // Network-bound: the faster read devices change nothing — the
        // link ceiling rules, exactly like for writes.
        let fig = run(&ExpCtx::quick(8), Scenario::S1Ethernet);
        let w8 = fig.cell(AccessMode::Write, 8).summary().mean;
        let r8 = fig.cell(AccessMode::Read, 8).summary().mean;
        assert!(
            (r8 - w8).abs() / w8 < 0.05,
            "read {r8} vs write {w8} at the network ceiling"
        );
        // And the bi-modal allocation structure is identical.
        for s in [2u32, 6] {
            assert_eq!(
                fig.cell(AccessMode::Read, s).allocations,
                fig.cell(AccessMode::Write, s).allocations,
                "stripe {s}"
            );
        }
    }
}
