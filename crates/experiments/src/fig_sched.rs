//! Scheduler policy comparison — beyond the paper's figures.
//!
//! The paper shows that *which* targets an application lands on decides
//! its bandwidth, but BeeGFS allocates blindly, one file at a time.
//! This experiment serves the same Poisson stream of applications
//! through the online scheduler under each placement policy and
//! compares what the paper's findings predict a load-aware allocator
//! should win: per-application slowdown (mean and p99) and Equation-1
//! aggregate bandwidth.
//!
//! One cell per policy, all on scenario 1 with the stock `Random`
//! chooser as the deferred baseline, so the `Random` policy cell *is*
//! today's BeeGFS behaviour under the identical arrival stream.

use crate::campaign::{
    Campaign, CampaignEngine, CampaignError, CampaignOutcome, CellConfig, SchedPolicyKind,
    SchedWorkload,
};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::IorConfig;
use sched::AdmissionMode;
use serde::{Deserialize, Serialize};
use simcore::units::GIB;

/// Arrival rate of the stream, applications per second.
pub const RATE_PER_S: f64 = 0.35;
/// Applications per repetition.
pub const COUNT: usize = 10;
/// Compute nodes per application.
pub const NODES: usize = 4;
/// Bytes written per application.
pub const BYTES: u64 = 4 * GIB;
/// Storage-target demand (stripe width) per application.
pub const STRIPE: u32 = 4;

/// One policy's pooled results across repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyResult {
    /// The placement policy.
    pub policy: SchedPolicyKind,
    /// Per-application slowdowns pooled over every repetition.
    pub slowdowns: Vec<f64>,
    /// Equation-1 aggregate bandwidth per repetition, MiB/s.
    pub aggregates: Vec<f64>,
}

impl PolicyResult {
    /// Mean per-application slowdown over the pool.
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
    }

    /// Nearest-rank `q`-quantile of the pooled slowdowns.
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let mut s = self.slowdowns.clone();
        s.sort_by(f64::total_cmp);
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// Mean aggregate bandwidth over the repetitions, MiB/s.
    pub fn mean_aggregate(&self) -> f64 {
        self.aggregates.iter().sum::<f64>() / self.aggregates.len() as f64
    }
}

/// The experiment's data: one result per policy, in
/// [`SchedPolicyKind::ALL`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigSched {
    /// Per-policy pooled results.
    pub policies: Vec<PolicyResult>,
    /// Which admission mode priced the slowdowns (the frozen-oracle
    /// reference or the continuous online engine).
    pub mode: AdmissionMode,
}

impl FigSched {
    /// Look up one policy's result.
    ///
    /// # Panics
    /// Panics if the policy was not part of the run.
    pub fn policy(&self, kind: SchedPolicyKind) -> &PolicyResult {
        self.policies
            .iter()
            .find(|p| p.policy == kind)
            .unwrap_or_else(|| panic!("policy {} not in the run", kind.label()))
    }
}

/// The campaign: one scenario-1 cell per placement policy, priced by
/// an admission mode. Arrival times draw from a label-independent
/// stream, so at each rep every policy faces the *same* arrival
/// instants — the classic paired (common-random-numbers) comparison.
/// Cell labels (and therefore arrival streams and placement draws) are
/// identical across modes, so an online run is directly comparable to
/// its frozen-oracle twin; the cache keys differ through the workload's
/// serialized `mode`.
pub fn campaign(ctx: &ExpCtx, mode: AdmissionMode) -> Campaign {
    let mut c = Campaign::new("fig_sched", ctx.seed);
    for kind in SchedPolicyKind::ALL {
        c = c.cell(
            format!("S1Ethernet-{}", kind.label()),
            CellConfig::new(
                Scenario::S1Ethernet,
                STRIPE,
                ChooserKind::Random,
                IorConfig::paper_default(NODES).with_total_bytes(BYTES),
            )
            .with_sched(SchedWorkload {
                policy: kind,
                rate_per_s: RATE_PER_S,
                count: COUNT,
                stripe: STRIPE,
                hedge: false,
                mode,
            }),
            ctx.reps,
        );
    }
    c
}

/// Run the experiment under an admission mode on an engine (cached
/// when the engine has a store) and return the figure plus the raw
/// campaign outcome (for wait tails and run stats) and the merged
/// metrics registry (for admission counters).
pub fn run(
    engine: &CampaignEngine,
    ctx: &ExpCtx,
    mode: AdmissionMode,
) -> Result<(FigSched, CampaignOutcome, obs::metrics::MetricsRegistry), CampaignError> {
    let (outcome, registry) = engine.run_with_metrics(&campaign(ctx, mode))?;
    let policies = SchedPolicyKind::ALL
        .into_iter()
        .zip(&outcome.cells)
        .map(|(policy, cell)| PolicyResult {
            policy,
            slowdowns: cell
                .reps
                .iter()
                .flat_map(|r| {
                    r.slowdowns
                        .clone()
                        .expect("scheduled cells record slowdowns")
                })
                .collect(),
            aggregates: cell.aggregate_bandwidths(),
        })
        .collect();
    Ok((FigSched { policies, mode }, outcome, registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_aware_placement_beats_blind_random() {
        let engine = CampaignEngine::in_memory();
        let (fig, _, _) = run(&engine, &ExpCtx::quick(4), AdmissionMode::FrozenOracle).unwrap();
        assert_eq!(fig.policies.len(), 4);
        for p in &fig.policies {
            assert_eq!(p.slowdowns.len(), 4 * COUNT, "{}", p.policy.label());
            // Solo baselines draw their own run-to-run noise, so an
            // uncontended app can land a few percent under 1.0.
            assert!(p.slowdowns.iter().all(|&s| s > 0.8), "{}", p.policy.label());
            assert!(p.mean_aggregate() > 0.0);
            assert!(p.mean_slowdown() <= p.slowdown_quantile(0.99) + 1e-12);
        }
        // The acceptance criterion: feedback-driven placement is at
        // least as good as blind random allocation on aggregate
        // bandwidth under the same arrival stream.
        let random = fig.policy(SchedPolicyKind::Random);
        let feedback = fig.policy(SchedPolicyKind::UtilizationFeedback);
        assert!(
            feedback.mean_aggregate() >= random.mean_aggregate(),
            "UtilizationFeedback {} < Random {}",
            feedback.mean_aggregate(),
            random.mean_aggregate()
        );
    }
}
