//! Figures 6, 8 and 10 — bandwidth vs stripe count, and its
//! decomposition by `(min, max)` target allocation.
//!
//! Fig. 6 scatters 100 repetitions per stripe count (1..=8) with the
//! round-robin chooser: scenario 1 shows bi-modal clouds for stripe
//! counts 2, 3, 5, 6 and peak bandwidth only at 2, 6 and 8; scenario 2
//! grows almost linearly with high variability. Figs. 8 and 10 regroup
//! the same data by allocation label — which this module does with
//! [`Fig06::by_allocation`].

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use iostats::{BoxPlot, Summary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One simulated run's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripeSample {
    /// Bandwidth in MiB/s.
    pub mib_s: f64,
    /// The `(min,max)` allocation label of the run's file.
    pub allocation: String,
    /// Balance ratio min/max.
    pub balance: f64,
}

/// One stripe-count point: all repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripePoint {
    /// The stripe count.
    pub stripe_count: u32,
    /// All repetitions.
    pub samples: Vec<StripeSample>,
}

impl StripePoint {
    /// Summary over the bandwidths.
    pub fn summary(&self) -> Summary {
        Summary::from_sample(&self.bandwidths())
    }

    /// Just the bandwidth values.
    pub fn bandwidths(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.mib_s).collect()
    }

    /// Distinct allocation labels observed.
    pub fn allocation_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.samples.iter().map(|s| s.allocation.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }
}

/// The full figure for one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig06 {
    /// Which scenario (6a or 6b).
    pub scenario: Scenario,
    /// The chooser used (the paper's deployment uses round-robin).
    pub chooser: String,
    /// Compute nodes used (8 for 6a, 32 for 6b).
    pub nodes: usize,
    /// Points for stripe counts 1..=8.
    pub points: Vec<StripePoint>,
}

/// The campaign describing this figure's grid. The name and cell labels
/// match the pre-campaign harness, so results are bit-identical to what
/// the hand-rolled loop produced.
pub fn campaign(ctx: &ExpCtx, scenario: Scenario, chooser: ChooserKind) -> Campaign {
    let nodes = scenario.figure6_nodes();
    let mut c = Campaign::new("fig06", ctx.seed);
    for stripe_count in 1..=8u32 {
        c = c.cell(
            format!("{scenario:?}-s{stripe_count}-{chooser:?}"),
            CellConfig::new(
                scenario,
                stripe_count,
                chooser,
                IorConfig::paper_default(nodes),
            ),
            ctx.reps,
        );
    }
    c
}

/// Run the experiment with a chooser (the paper's Fig. 6 uses
/// round-robin) on an engine.
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    scenario: Scenario,
    chooser: ChooserKind,
) -> Result<Fig06, CampaignError> {
    let outcome = engine.run(&campaign(ctx, scenario, chooser))?;
    let points = (1..=8u32)
        .zip(outcome.cells)
        .map(|(stripe_count, cell)| StripePoint {
            stripe_count,
            samples: cell
                .reps
                .iter()
                .map(|r| StripeSample {
                    mib_s: r.apps[0].mib_s,
                    allocation: r.apps[0].allocation.clone(),
                    balance: r.apps[0].balance,
                })
                .collect(),
        })
        .collect();
    Ok(Fig06 {
        scenario,
        chooser: format!("{chooser:?}"),
        nodes: scenario.figure6_nodes(),
        points,
    })
}

impl Fig06 {
    /// The point for a stripe count.
    ///
    /// # Panics
    /// Panics if the stripe count was not swept.
    pub fn point(&self, stripe_count: u32) -> &StripePoint {
        self.points
            .iter()
            .find(|p| p.stripe_count == stripe_count)
            .unwrap_or_else(|| panic!("stripe count {stripe_count} not swept"))
    }

    /// Figs. 8/10: the samples of *all* stripe counts regrouped by
    /// allocation label, with box-plot statistics, ordered by balance
    /// then total targets.
    pub fn by_allocation(&self) -> Vec<(String, BoxPlot, Vec<f64>)> {
        let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for p in &self.points {
            for s in &p.samples {
                groups
                    .entry(s.allocation.clone())
                    .or_default()
                    .push(s.mib_s);
            }
        }
        let mut out: Vec<(String, BoxPlot, Vec<f64>)> = groups
            .into_iter()
            .map(|(label, values)| {
                let bp = BoxPlot::from_sample(&values);
                (label, bp, values)
            })
            .collect();
        // Order by (balance, total) parsed from the "(min,max)" label.
        out.sort_by(|a, b| {
            let pa = parse_label(&a.0);
            let pb = parse_label(&b.0);
            let ba = pa.0 as f64 / pa.1.max(1) as f64;
            let bb = pb.0 as f64 / pb.1.max(1) as f64;
            ba.partial_cmp(&bb)
                .unwrap()
                .then((pa.0 + pa.1).cmp(&(pb.0 + pb.1)))
        });
        out
    }

    /// Mean bandwidth per allocation label.
    pub fn allocation_means(&self) -> BTreeMap<String, f64> {
        self.by_allocation()
            .into_iter()
            .map(|(label, _, values)| {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                (label, mean)
            })
            .collect()
    }
}

/// Parse a "(min,max)" label into its counts.
fn parse_label(label: &str) -> (usize, usize) {
    let inner = label.trim_start_matches('(').trim_end_matches(')');
    let mut parts = inner.split(',');
    let min = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let max = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctx: &ExpCtx, scenario: Scenario) -> Fig06 {
        super::run(
            &CampaignEngine::in_memory(),
            ctx,
            scenario,
            ChooserKind::RoundRobin,
        )
        .unwrap()
    }

    #[test]
    fn scenario1_stripe4_underperforms_peak() {
        // "the default striping pattern with 4 OSTs keeps the I/O
        // performance of PlaFRIM" well below the peak reached at 2/6/8.
        let fig = run(&ExpCtx::quick(16), Scenario::S1Ethernet);
        let s4 = fig.point(4).summary().mean;
        let s8 = fig.point(8).summary().mean;
        assert!(s4 < 0.75 * s8, "stripe 4 {s4} vs stripe 8 {s8}");
        // Stripe 4 is always (1,3).
        assert_eq!(fig.point(4).allocation_labels(), vec!["(1,3)"]);
    }

    #[test]
    fn scenario1_bimodal_clouds() {
        let fig = run(&ExpCtx::quick(24), Scenario::S1Ethernet);
        for stripe in [2u32, 6] {
            let labels = fig.point(stripe).allocation_labels();
            assert_eq!(labels.len(), 2, "stripe {stripe}: {labels:?}");
            let bc = fig.point(stripe).summary().bimodality_coefficient();
            assert!(bc > 0.5, "stripe {stripe} bimodality {bc}");
        }
    }

    #[test]
    fn scenario2_grows_with_stripe_count() {
        let fig = run(&ExpCtx::quick(12), Scenario::S2Omnipath);
        let m1 = fig.point(1).summary().mean;
        let m8 = fig.point(8).summary().mean;
        assert!(m8 > 3.5 * m1, "1 OST {m1} vs 8 OSTs {m8}");
        // Means are non-decreasing within tolerance across the sweep.
        let means: Vec<f64> = (1..=8).map(|s| fig.point(s).summary().mean).collect();
        for w in means.windows(2) {
            assert!(w[1] > 0.85 * w[0], "non-monotone: {means:?}");
        }
    }

    #[test]
    fn allocation_grouping_covers_all_samples() {
        let fig = run(&ExpCtx::quick(10), Scenario::S1Ethernet);
        let total: usize = fig.by_allocation().iter().map(|(_, _, v)| v.len()).sum();
        assert_eq!(total, 8 * 10);
    }

    #[test]
    fn parse_label_roundtrip() {
        assert_eq!(parse_label("(1,3)"), (1, 3));
        assert_eq!(parse_label("(0,2)"), (0, 2));
        assert_eq!(parse_label("(4,4)"), (4, 4));
    }
}
