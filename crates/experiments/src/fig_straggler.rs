//! Straggler campaign — hedged vs. plain placement under a slow target.
//!
//! The paper's figures assume every storage target runs at its nominal
//! speed; production systems do not. This experiment injects a
//! transient straggler (one target drops to a fraction of its speed and
//! stays there for the whole session) into the online-scheduling
//! workload and compares two configurations under identical arrival
//! streams:
//!
//! * **plain** — the `Random` baseline policy, no hedging: the stock
//!   BeeGFS behaviour, where roughly half the stripe-4 applications
//!   land on the slow target and ride it to the end.
//! * **hedged** — the `StragglerAware` policy with chunked, hedged
//!   writes: per-chunk completion times expose the slow target, in-run
//!   redirects move the remaining chunks off it, and the scheduler
//!   quarantines it for every later placement.
//!
//! Both run with and without the fault. The claim under test: hedging
//! collapses the p99 slowdown under stragglers while leaving the
//! no-fault baseline essentially untouched.

use crate::campaign::{
    Campaign, CampaignEngine, CampaignError, CellConfig, SchedPolicyKind, SchedWorkload,
    TailMetrics,
};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::{ChooserKind, FaultPlan};
use cluster::TargetId;
use ior::IorConfig;
use serde::{Deserialize, Serialize};
use simcore::units::GIB;

/// Arrival rate of the stream, applications per second.
pub const RATE_PER_S: f64 = 0.35;
/// Applications per repetition.
pub const COUNT: usize = 8;
/// Compute nodes per application.
pub const NODES: usize = 4;
/// Bytes written per application.
pub const BYTES: u64 = 4 * GIB;
/// Storage-target demand (stripe width) per application.
pub const STRIPE: u32 = 4;
/// The target that straggles (flat id).
pub const STRAGGLER_TARGET: u32 = 0;
/// Speed factor the straggler drops to.
pub const STRAGGLER_FACTOR: f64 = 0.15;
/// When the straggler sets in, seconds.
pub const STRAGGLER_ONSET_S: f64 = 0.3;
/// How long it lasts — far past the session makespan, so every
/// repetition sees a persistently slow (but never dead) target.
pub const STRAGGLER_DURATION_S: f64 = 50_000.0;

/// The four cell labels, in campaign order.
pub const LABELS: [&str; 4] = [
    "plain-nofault",
    "hedged-nofault",
    "plain-straggler",
    "hedged-straggler",
];

/// The injected fault timeline: one transient straggler that outlives
/// the session (scenario 2 is storage-bound, so the slow target is the
/// binding constraint of every stripe that includes it).
pub fn straggler_plan() -> FaultPlan {
    FaultPlan::new()
        .target_transient_straggler(
            STRAGGLER_ONSET_S,
            TargetId(STRAGGLER_TARGET),
            STRAGGLER_FACTOR,
            STRAGGLER_DURATION_S,
        )
        .expect("valid straggler parameters")
}

/// One cell's pooled results across repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// The cell's label (one of [`LABELS`]).
    pub label: String,
    /// Whether the cell hedged (detector + redirects + quarantine).
    pub hedged: bool,
    /// Whether the straggler plan was injected.
    pub faulted: bool,
    /// Per-application slowdowns pooled over every repetition.
    pub slowdowns: Vec<f64>,
    /// Equation-1 aggregate bandwidth per repetition, MiB/s.
    pub aggregates: Vec<f64>,
    /// Tail digest of the pooled slowdowns.
    pub tail: TailMetrics,
}

impl CellOutcome {
    /// Mean per-application slowdown over the pool.
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
    }
}

/// The experiment's data: one outcome per cell, in [`LABELS`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigStraggler {
    /// Per-cell pooled outcomes.
    pub cells: Vec<CellOutcome>,
}

impl FigStraggler {
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

fn cell_config(hedged: bool) -> CellConfig {
    CellConfig::new(
        Scenario::S2Omnipath,
        STRIPE,
        ChooserKind::Random,
        IorConfig::paper_default(NODES).with_total_bytes(BYTES),
    )
    .with_sched(SchedWorkload {
        policy: if hedged {
            SchedPolicyKind::StragglerAware
        } else {
            SchedPolicyKind::Random
        },
        rate_per_s: RATE_PER_S,
        count: COUNT,
        stripe: STRIPE,
        hedge: hedged,
        mode: sched::AdmissionMode::FrozenOracle,
    })
}

/// The campaign: plain and hedged configurations, each with and without
/// the injected straggler. Arrival times draw from a label-independent
/// stream, so at each rep all four cells face the same arrival instants
/// (common random numbers).
pub fn campaign(ctx: &ExpCtx) -> Campaign {
    let mut c = Campaign::new("fig_straggler", ctx.seed);
    for label in LABELS {
        let hedged = label.starts_with("hedged");
        let mut config = cell_config(hedged);
        if label.ends_with("straggler") {
            config = config.with_faults(straggler_plan());
        }
        c = c.cell(label, config, ctx.reps);
    }
    c
}

/// Run the experiment on an engine (cached when the engine has a store).
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<FigStraggler, CampaignError> {
    let outcome = engine.run(&campaign(ctx))?;
    let cells = outcome
        .cells
        .into_iter()
        .map(|cell| {
            let slowdowns: Vec<f64> = cell
                .reps
                .iter()
                .flat_map(|r| {
                    r.slowdowns
                        .clone()
                        .expect("scheduled cells record slowdowns")
                })
                .collect();
            let tail =
                TailMetrics::from_slowdowns(&slowdowns).expect("scheduled cells have slowdowns");
            CellOutcome {
                hedged: cell.label.starts_with("hedged"),
                faulted: cell.label.ends_with("straggler"),
                label: cell.label,
                aggregates: cell.reps.iter().map(|r| r.aggregate_mib_s).collect(),
                slowdowns,
                tail,
            }
        })
        .collect();
    Ok(FigStraggler { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedging_collapses_the_straggler_tail() {
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(3)).unwrap();
        assert_eq!(fig.cells.len(), 4);
        for c in &fig.cells {
            assert_eq!(c.slowdowns.len(), 3 * COUNT, "{}", c.label);
            assert!(
                c.tail.p50 <= c.tail.p95 && c.tail.p95 <= c.tail.p99,
                "{}",
                c.label
            );
        }
        let plain_fault = fig.cell("plain-straggler");
        let hedged_fault = fig.cell("hedged-straggler");
        let plain_ok = fig.cell("plain-nofault");
        let hedged_ok = fig.cell("hedged-nofault");
        // The straggler hurts the plain configuration's tail...
        assert!(
            plain_fault.tail.p99 > 1.5 * plain_ok.tail.p99,
            "straggler had no tail effect: {} vs {}",
            plain_fault.tail.p99,
            plain_ok.tail.p99
        );
        // ...and hedging collapses it (the acceptance criterion).
        assert!(
            hedged_fault.tail.p99 < plain_fault.tail.p99,
            "hedged p99 {} not below plain p99 {}",
            hedged_fault.tail.p99,
            plain_fault.tail.p99
        );
        // Without a fault, hedging leaves the baseline untouched: no
        // detector false-positives blow up the mean.
        let (m_plain, m_hedged) = (plain_ok.mean_slowdown(), hedged_ok.mean_slowdown());
        assert!(
            (m_hedged - m_plain).abs() / m_plain < 0.15,
            "no-fault baselines diverged: hedged {m_hedged} vs plain {m_plain}"
        );
    }
}
