//! Figure 5 — node sweeps at 8 vs 16 processes per node.
//!
//! §IV-B's hypothesis test: if only total parallelism mattered, doubling
//! ppn would halve the nodes needed. It does not — the curves at 8 and
//! 16 ppn are very similar (slight degradation in scenario 2), showing
//! node count and process count have independent effects (lesson 3).

use crate::campaign::{CampaignEngine, CampaignError};
use crate::context::{ExpCtx, Scenario};
use crate::fig04_nodes::{self, Fig04};
use serde::{Deserialize, Serialize};

/// The figure's data for one scenario: one node sweep per ppn.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05 {
    /// Which scenario (5a or 5b).
    pub scenario: Scenario,
    /// The 8-ppn sweep.
    pub ppn8: Fig04,
    /// The 16-ppn sweep.
    pub ppn16: Fig04,
}

/// Run the experiment on an engine. The 8-ppn sweep shares its campaign
/// cells with Fig. 4, so a cached Fig. 4 run pays for half of Fig. 5.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
) -> Result<Fig05, CampaignError> {
    Ok(Fig05 {
        scenario,
        ppn8: fig04_nodes::run(engine, ctx, scenario, 8)?,
        ppn16: fig04_nodes::run(engine, ctx, scenario, 16)?,
    })
}

impl Fig05 {
    /// Largest relative difference between the 8- and 16-ppn means over
    /// the common node counts.
    pub fn max_relative_difference(&self) -> f64 {
        self.ppn8
            .points
            .iter()
            .map(|p| {
                let m8 = p.summary().mean;
                let m16 = self.ppn16.mean_at(p.nodes);
                (m16 - m8).abs() / m8
            })
            .fold(0.0, f64::max)
    }

    /// Signed mean difference (16 ppn minus 8 ppn) relative to 8 ppn,
    /// averaged over node counts — negative means 16 ppn degrades.
    pub fn mean_signed_difference(&self) -> f64 {
        let diffs: Vec<f64> = self
            .ppn8
            .points
            .iter()
            .map(|p| {
                let m8 = p.summary().mean;
                (self.ppn16.mean_at(p.nodes) - m8) / m8
            })
            .collect();
        diffs.iter().sum::<f64>() / diffs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario2() -> Fig05 {
        run(
            &CampaignEngine::in_memory(),
            &ExpCtx::quick(8),
            Scenario::S2Omnipath,
        )
        .unwrap()
    }

    #[test]
    fn doubling_ppn_changes_little() {
        let fig = scenario2();
        // "the bandwidth remains very similar"
        assert!(
            fig.max_relative_difference() < 0.15,
            "max diff {}",
            fig.max_relative_difference()
        );
    }

    #[test]
    fn scenario2_shows_slight_degradation() {
        let fig = scenario2();
        let d = fig.mean_signed_difference();
        assert!(d <= 0.01, "expected slight degradation, got {d}");
        assert!(d > -0.15, "degradation should be slight, got {d}");
    }
}
