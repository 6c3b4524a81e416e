//! Figure 2 — impact of the data size on I/O bandwidth.
//!
//! 4 nodes x 8 processes, stripe count 4 (the deployed default), sizes
//! from 256 MiB to 64 GiB, 100 repetitions each; the paper plots the
//! mean with a min–max band and picks 32 GiB as the "large enough" size
//! for every other experiment.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};
use simcore::units::GIB;

/// One data-size point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizePoint {
    /// Total data size in GiB.
    pub gib: f64,
    /// Bandwidth samples (MiB/s), one per repetition.
    pub samples: Vec<f64>,
}

impl SizePoint {
    /// Summary statistics of the samples.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.samples)
    }
}

/// The figure's data for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig02 {
    /// Which scenario (2a or 2b).
    pub scenario: Scenario,
    /// Points in increasing size order.
    pub points: Vec<SizePoint>,
}

/// Sizes swept, in GiB (the paper's x-axis spans sub-GiB to 64 GiB).
pub const SIZES_GIB: [f64; 9] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Run the experiment on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
) -> Result<Fig02, CampaignError> {
    let mut campaign = Campaign::new("fig02", ctx.seed);
    for gib in SIZES_GIB {
        let total = (gib * GIB as f64) as u64;
        // Keep the per-process split exact.
        let total = total - (total % 32);
        let cfg = IorConfig::paper_default(4).with_total_bytes(total);
        let config = CellConfig::new(scenario, 4, ChooserKind::RoundRobin, cfg);
        campaign = campaign.cell(format!("{scenario:?}-{gib}"), config, ctx.reps);
    }
    let points = SIZES_GIB
        .into_iter()
        .zip(engine.run(&campaign)?.cells)
        .map(|(gib, cell)| SizePoint {
            gib,
            samples: cell.bandwidths(),
        })
        .collect();
    Ok(Fig02 { scenario, points })
}

impl Fig02 {
    /// The size (GiB) after which the mean stabilizes: smallest size
    /// whose mean is within `tol` of the 32 GiB mean.
    pub fn stabilization_gib(&self, tol: f64) -> f64 {
        let reference = self
            .points
            .iter()
            .find(|p| (p.gib - 32.0).abs() < 1e-9)
            .expect("32 GiB point present")
            .summary()
            .mean;
        for p in &self.points {
            if (p.summary().mean - reference).abs() / reference <= tol {
                return p.gib;
            }
        }
        64.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> Fig02 {
        super::run(&CampaignEngine::in_memory(), ctx, scenario).unwrap()
    }

    #[test]
    fn small_sizes_are_slower_and_more_variable() {
        let fig = run(&ExpCtx::quick(12), Scenario::S1Ethernet);
        let small = fig.points.first().unwrap().summary();
        let large = fig.points.iter().find(|p| p.gib == 32.0).unwrap().summary();
        assert!(
            small.mean < large.mean,
            "small {} large {}",
            small.mean,
            large.mean
        );
        assert!(
            small.cv() > large.cv(),
            "small cv {} large cv {}",
            small.cv(),
            large.cv()
        );
    }

    #[test]
    fn bandwidth_stabilizes_by_16_to_32_gib() {
        let fig = run(&ExpCtx::quick(12), Scenario::S2Omnipath);
        let knee = fig.stabilization_gib(0.05);
        assert!(knee <= 32.0, "stabilization at {knee} GiB");
    }
}
