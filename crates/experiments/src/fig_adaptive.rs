//! Adaptive restriping campaign — does mid-flight feedback discover the
//! paper's per-scenario recommendation without being told the scenario?
//!
//! The paper's headline result is that the *right* allocation depends on
//! where the deployment's bottleneck sits: in the network-bound scenario
//! 1 nothing beats a balanced allocation at the requested width, while
//! in the storage-bound scenario 2 striping over *every* target wins
//! (lesson 2). A static policy has to be configured with that knowledge.
//! The [`sched::AdaptiveStriping`] policy instead watches each running
//! application's observed throughput against the storage-side capacity
//! of its current stripe set and restripes mid-flight — widening when
//! the allocation is storage-saturated, repairing imbalance when the
//! allocation underperforms its solo ideal.
//!
//! Four cells under identical arrival streams, both policies
//! scenario-blind (the exact same `AdaptiveStriping` configuration runs
//! in both scenarios):
//!
//! * **s1-fixed / s2-fixed** — [`sched::UtilizationFeedback`]: balanced
//!   placement at the requested stripe width, never restripes.
//! * **s1-adaptive / s2-adaptive** — [`sched::AdaptiveStriping`]: the
//!   same placement rule plus the feedback loop.
//!
//! The claim under test: the adaptive cells *converge* to the paper's
//! recommendation in each scenario — every scenario-2 application ends
//! on all eight targets (`(4,4)`), while scenario-1 applications keep
//! their balanced width-4 allocation (`(2,2)`, balance 1) because the
//! network bottleneck makes widening useless there.

use crate::campaign::{
    Campaign, CampaignEngine, CampaignError, CellConfig, SchedPolicyKind, SchedWorkload,
};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use serde::{Deserialize, Serialize};
use simcore::units::GIB;
use std::collections::BTreeMap;

/// Arrival rate of the stream, applications per second — sparse, so the
/// feedback loop mostly observes applications running solo.
pub const RATE_PER_S: f64 = 0.05;
/// Applications per repetition.
pub const COUNT: usize = 6;
/// Compute nodes per application.
pub const NODES: usize = 4;
/// Bytes written per application — large enough that the hysteresis
/// gate (min samples + cooldown) clears well before the write finishes.
pub const BYTES: u64 = 8 * GIB;
/// Requested storage-target demand (initial stripe width).
pub const STRIPE: u32 = 4;

/// The four cell labels, in campaign order.
pub const LABELS: [&str; 4] = ["s1-fixed", "s1-adaptive", "s2-fixed", "s2-adaptive"];

/// One cell's pooled results across repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// The cell's label (one of [`LABELS`]).
    pub label: String,
    /// Whether the cell ran the adaptive policy.
    pub adaptive: bool,
    /// Final `(min,max)` allocation label per application, pooled over
    /// every repetition: label → application count.
    pub allocations: BTreeMap<String, usize>,
    /// Mean final allocation balance (min/max) over the pool.
    pub mean_balance: f64,
    /// Per-application slowdowns pooled over every repetition.
    pub slowdowns: Vec<f64>,
    /// Equation-1 aggregate bandwidth per repetition, MiB/s.
    pub aggregates: Vec<f64>,
}

impl CellOutcome {
    /// Mean per-application slowdown over the pool.
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
    }

    /// Total applications pooled over every repetition.
    pub fn app_count(&self) -> usize {
        self.allocations.values().sum()
    }

    /// The most common final allocation label and its share of the pool.
    pub fn modal_allocation(&self) -> (String, f64) {
        let (label, n) = self
            .allocations
            .iter()
            .max_by_key(|(_, n)| **n)
            .expect("cells pool at least one application");
        (label.clone(), *n as f64 / self.app_count() as f64)
    }
}

/// The experiment's data: one outcome per cell, in [`LABELS`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigAdaptive {
    /// Per-cell pooled outcomes.
    pub cells: Vec<CellOutcome>,
}

impl FigAdaptive {
    /// Look up one cell's outcome.
    ///
    /// # Panics
    /// Panics if the label was not part of the run.
    pub fn cell(&self, label: &str) -> &CellOutcome {
        self.cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("cell `{label}` not in the run"))
    }
}

fn cell_config(scenario: Scenario, adaptive: bool) -> CellConfig {
    CellConfig::new(
        scenario,
        STRIPE,
        ChooserKind::Random,
        IorConfig::paper_default(NODES).with_total_bytes(BYTES),
    )
    .with_sched(SchedWorkload {
        policy: if adaptive {
            SchedPolicyKind::AdaptiveStriping
        } else {
            SchedPolicyKind::UtilizationFeedback
        },
        rate_per_s: RATE_PER_S,
        count: COUNT,
        stripe: STRIPE,
        hedge: false,
        mode: sched::AdmissionMode::Online,
    })
}

/// The campaign: fixed and adaptive policies in both scenarios. Arrival
/// times draw from a label-independent stream, so at each rep all four
/// cells face the same arrival instants (common random numbers), and
/// the adaptive cells differ *only* by scenario — the policy itself is
/// configured identically in both.
pub fn campaign(ctx: &ExpCtx) -> Campaign {
    let mut c = Campaign::new("fig_adaptive", ctx.seed);
    for label in LABELS {
        let scenario = if label.starts_with("s1") {
            Scenario::S1Ethernet
        } else {
            Scenario::S2Omnipath
        };
        let adaptive = label.ends_with("adaptive");
        c = c.cell(label, cell_config(scenario, adaptive), ctx.reps);
    }
    c
}

/// Run the experiment on an engine (cached when the engine has a store).
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<FigAdaptive, CampaignError> {
    let outcome = engine.run(&campaign(ctx))?;
    let cells = outcome
        .cells
        .into_iter()
        .map(|cell| {
            let mut allocations = BTreeMap::new();
            let mut balance_sum = 0.0;
            let mut apps = 0usize;
            for rep in &cell.reps {
                for a in &rep.apps {
                    *allocations.entry(a.allocation.clone()).or_insert(0) += 1;
                    balance_sum += a.balance;
                    apps += 1;
                }
            }
            CellOutcome {
                adaptive: cell.label.ends_with("adaptive"),
                allocations,
                mean_balance: balance_sum / apps as f64,
                slowdowns: cell
                    .reps
                    .iter()
                    .flat_map(|r| {
                        r.slowdowns
                            .clone()
                            .expect("scheduled cells record slowdowns")
                    })
                    .collect(),
                aggregates: cell.reps.iter().map(|r| r.aggregate_mib_s).collect(),
                label: cell.label,
            }
        })
        .collect();
    Ok(FigAdaptive { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance test of the adaptive campaign: the policy is
    /// scenario-blind, yet it discovers the paper's per-scenario
    /// recommendation — all targets in the storage-bound scenario 2,
    /// the balanced requested width in the network-bound scenario 1.
    #[test]
    fn adaptive_policy_discovers_the_paper_recommendation_blind() {
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(2)).unwrap();
        assert_eq!(fig.cells.len(), 4);
        for c in &fig.cells {
            assert_eq!(c.app_count(), 2 * COUNT, "{}", c.label);
        }

        // Scenario 2 (storage-bound): the adaptive cell converges to
        // striping over every target — `(4,4)` on the 2 x 4 deployment —
        // while the fixed cell stays at the requested width.
        let s2a = fig.cell("s2-adaptive");
        let (modal, share) = s2a.modal_allocation();
        assert_eq!(modal, "(4,4)", "s2-adaptive did not widen to all targets");
        assert!(
            share >= 0.75,
            "only {:.0}% of s2-adaptive apps converged to all targets: {:?}",
            share * 100.0,
            s2a.allocations
        );
        let s2f = fig.cell("s2-fixed");
        assert_eq!(
            s2f.allocations.keys().collect::<Vec<_>>(),
            vec!["(2,2)"],
            "fixed cell restriped somehow"
        );
        // ...and widening pays: the adaptive cell's mean slowdown beats
        // the fixed cell's under the same arrival instants.
        assert!(
            s2a.mean_slowdown() < s2f.mean_slowdown(),
            "widening did not pay: adaptive {} vs fixed {}",
            s2a.mean_slowdown(),
            s2f.mean_slowdown()
        );

        // Scenario 1 (network-bound): widening cannot help, so the
        // adaptive cell leaves every application at the balanced
        // requested width — the balance-maximizing allocation.
        let s1a = fig.cell("s1-adaptive");
        assert_eq!(
            s1a.allocations.keys().collect::<Vec<_>>(),
            vec!["(2,2)"],
            "s1-adaptive restriped away from the balanced width"
        );
        assert!(
            (s1a.mean_balance - 1.0).abs() < 1e-12,
            "s1-adaptive final allocations not balanced: {}",
            s1a.mean_balance
        );
    }
}
