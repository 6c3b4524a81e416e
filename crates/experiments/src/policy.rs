//! Beyond the paper: target-allocation policy ablation.
//!
//! §VI motivates "future work on storage target allocation and stripe
//! count tuning". This experiment quantifies what a better *chooser*
//! would buy at each stripe count: the deployed round-robin, BeeGFS's
//! default random, and the balanced heuristic lesson 4 recommends. At
//! the maximum stripe count all three coincide — which is exactly why
//! the paper's "use all targets" recommendation is policy-free.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};

/// One (chooser, stripe) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCell {
    /// Chooser name.
    pub chooser: String,
    /// Stripe count.
    pub stripe_count: u32,
    /// Bandwidth samples (MiB/s).
    pub samples: Vec<f64>,
}

impl PolicyCell {
    /// Summary statistics.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.samples)
    }
}

/// The ablation for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    /// The scenario evaluated.
    pub scenario: Scenario,
    /// All cells, chooser-major.
    pub cells: Vec<PolicyCell>,
}

/// The choosers compared.
pub const CHOOSERS: [ChooserKind; 3] = [
    ChooserKind::RoundRobin,
    ChooserKind::Random,
    ChooserKind::Balanced,
];

/// Run the ablation on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
) -> Result<Policy, CampaignError> {
    let cfg = IorConfig::paper_default(scenario.figure6_nodes());
    let mut campaign = Campaign::new("policy", ctx.seed);
    for chooser in CHOOSERS {
        for stripe_count in 1..=8u32 {
            let label = format!("{scenario:?}-{chooser:?}-s{stripe_count}");
            let config = CellConfig::new(scenario, stripe_count, chooser, cfg);
            campaign = campaign.cell(label, config, ctx.reps);
        }
    }
    let cells = engine
        .run(&campaign)?
        .cells
        .into_iter()
        .map(|cell| PolicyCell {
            chooser: format!("{:?}", cell.config.chooser),
            stripe_count: cell.config.stripe_count,
            samples: cell.bandwidths(),
        })
        .collect();
    Ok(Policy { scenario, cells })
}

impl Policy {
    /// The cell for a (chooser, stripe) pair.
    ///
    /// # Panics
    /// Panics if the pair was not swept.
    pub fn cell(&self, chooser: ChooserKind, stripe_count: u32) -> &PolicyCell {
        let name = format!("{chooser:?}");
        self.cells
            .iter()
            .find(|c| c.chooser == name && c.stripe_count == stripe_count)
            .unwrap_or_else(|| panic!("cell ({name}, {stripe_count}) not swept"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> Policy {
        super::run(&CampaignEngine::in_memory(), ctx, scenario).unwrap()
    }

    #[test]
    fn balanced_chooser_wins_at_stripe_4_in_scenario1() {
        // A (2,2) allocation reaches both links; RR is stuck at (1,3).
        let p = run(&ExpCtx::quick(10), Scenario::S1Ethernet);
        let rr = p.cell(ChooserKind::RoundRobin, 4).summary().mean;
        let bal = p.cell(ChooserKind::Balanced, 4).summary().mean;
        assert!(bal > 1.3 * rr, "balanced {bal} vs round-robin {rr}");
    }

    #[test]
    fn all_choosers_tie_at_maximum_stripe_count() {
        // With all 8 targets every chooser picks the same set — the
        // paper's recommendation needs no allocation policy at all.
        let p = run(&ExpCtx::quick(10), Scenario::S1Ethernet);
        let means: Vec<f64> = CHOOSERS
            .iter()
            .map(|&c| p.cell(c, 8).summary().mean)
            .collect();
        let spread = (means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().cloned().fold(f64::INFINITY, f64::min))
            / means[0];
        assert!(spread < 0.05, "spread {spread}: {means:?}");
    }

    #[test]
    fn random_chooser_has_higher_variance_than_balanced() {
        // §IV-C1: random makes the best case as likely as the worst.
        let p = run(&ExpCtx::quick(20), Scenario::S1Ethernet);
        let rnd = p.cell(ChooserKind::Random, 4).summary();
        let bal = p.cell(ChooserKind::Balanced, 4).summary();
        assert!(
            rnd.sd > 2.0 * bal.sd,
            "random sd {} vs balanced sd {}",
            rnd.sd,
            bal.sd
        );
    }
}
