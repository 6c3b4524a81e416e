//! Figure 12 — concurrent applications sharing the storage targets.
//!
//! Scenario 2 (the interesting one for target sharing), 2–4 concurrent
//! applications on disjoint 8-node sets, stripe counts 2, 4 and 8 per
//! application. Compared against two single-application baselines:
//!
//! * **solo** — the same application running alone (for the individual
//!   bars);
//! * **scaled** — one application with `k x 8` nodes and `min(8, k x s)`
//!   targets (for the aggregate bars: "a single application with twice
//!   the number of nodes and targets").

use crate::context::{deploy, repeat, single_run, ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::{AppSpec, IorConfig, Run};
use serde::{Deserialize, Serialize};

/// Nodes per application (the paper uses eight).
pub const NODES_PER_APP: usize = 8;

/// One (app count, stripe count) configuration's averaged outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrentCell {
    /// Number of concurrent applications.
    pub n_apps: usize,
    /// Stripe count per application.
    pub stripe_count: u32,
    /// Mean individual bandwidth of each application (MiB/s), app-major.
    pub individual_mean: Vec<f64>,
    /// Mean Equation-1 aggregate (MiB/s).
    pub aggregate_mean: f64,
    /// Mean bandwidth of the solo baseline (same app alone).
    pub solo_mean: f64,
    /// Mean bandwidth of the scaled single-app baseline.
    pub scaled_mean: f64,
    /// Stripe count used by the scaled baseline.
    pub scaled_stripe: u32,
    /// Fraction of runs in which *all* applications used pairwise
    /// disjoint target sets.
    pub disjoint_fraction: f64,
}

impl ConcurrentCell {
    /// Mean slow-down of an individual application vs running alone
    /// (positive = slower when concurrent).
    pub fn individual_slowdown(&self) -> f64 {
        let mean_ind = self.individual_mean.iter().sum::<f64>() / self.individual_mean.len() as f64;
        1.0 - mean_ind / self.solo_mean
    }

    /// Aggregate degradation vs the scaled single-app baseline
    /// (positive = concurrency hurt the total).
    pub fn aggregate_degradation(&self) -> f64 {
        1.0 - self.aggregate_mean / self.scaled_mean
    }
}

/// The full figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12 {
    /// All cells (app counts 2..=4 x stripe counts {2,4,8}).
    pub cells: Vec<ConcurrentCell>,
}

/// Stripe counts per application.
const STRIPES: [u32; 3] = [2, 4, 8];

/// Run the experiment.
pub fn run(ctx: &ExpCtx) -> Fig12 {
    let factory = ctx.rng_factory("fig12");
    let cfg = IorConfig::paper_default(NODES_PER_APP);
    // The solo baseline depends on the stripe count alone.
    let solo_means = STRIPES.map(|stripe_count| {
        let label = format!("solo-s{stripe_count}");
        let solo = repeat(&factory, &label, ctx.reps, |rng, _| {
            let mut fs = deploy(Scenario::S2Omnipath, stripe_count, ChooserKind::RoundRobin);
            single_run(&mut fs, &cfg, rng).bandwidth.mib_per_sec()
        });
        solo.iter().sum::<f64>() / solo.len() as f64
    });
    let mut cells = Vec::new();
    for n_apps in 2..=4usize {
        for (stripe_count, solo_mean) in STRIPES.into_iter().zip(solo_means) {
            // --- concurrent runs ---------------------------------------
            let label = format!("k{n_apps}-s{stripe_count}");
            let runs = repeat(&factory, &label, ctx.reps, |rng, _| {
                let mut fs = deploy(Scenario::S2Omnipath, stripe_count, ChooserKind::RoundRobin);
                let (out, _) = Run::new(&mut fs)
                    .apps((0..n_apps).map(|_| AppSpec::new(cfg)))
                    .execute(rng)
                    .expect("experiment run failed");
                let individual: Vec<f64> =
                    out.apps.iter().map(|a| a.bandwidth.mib_per_sec()).collect();
                let disjoint = all_disjoint(
                    &out.apps
                        .iter()
                        .map(|a| a.file_targets[0].clone())
                        .collect::<Vec<_>>(),
                );
                (individual, out.aggregate.mib_per_sec(), disjoint)
            });
            let mut individual_mean = vec![0.0; n_apps];
            let mut aggregate_mean = 0.0;
            let mut disjoint_count = 0usize;
            for (ind, agg, disjoint) in &runs {
                for (i, v) in ind.iter().enumerate() {
                    individual_mean[i] += v;
                }
                aggregate_mean += agg;
                disjoint_count += usize::from(*disjoint);
            }
            for v in &mut individual_mean {
                *v /= runs.len() as f64;
            }
            aggregate_mean /= runs.len() as f64;

            // --- scaled baseline ----------------------------------------
            let scaled_stripe = (stripe_count * n_apps as u32).min(8);
            let scaled_cfg = IorConfig::paper_default(NODES_PER_APP * n_apps);
            let scaled_label = format!("scaled-k{n_apps}-s{stripe_count}");
            let scaled = repeat(&factory, &scaled_label, ctx.reps, |rng, _| {
                let mut fs = deploy(Scenario::S2Omnipath, scaled_stripe, ChooserKind::RoundRobin);
                single_run(&mut fs, &scaled_cfg, rng)
                    .bandwidth
                    .mib_per_sec()
            });
            let scaled_mean = scaled.iter().sum::<f64>() / scaled.len() as f64;

            cells.push(ConcurrentCell {
                n_apps,
                stripe_count,
                individual_mean,
                aggregate_mean,
                solo_mean,
                scaled_mean,
                scaled_stripe,
                disjoint_fraction: disjoint_count as f64 / runs.len() as f64,
            });
        }
    }
    Fig12 { cells }
}

/// True when all target lists are pairwise disjoint.
fn all_disjoint(sets: &[Vec<cluster::TargetId>]) -> bool {
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            if sets[i].iter().any(|t| sets[j].contains(t)) {
                return false;
            }
        }
    }
    true
}

impl Fig12 {
    /// The cell for an (app count, stripe count) pair.
    ///
    /// # Panics
    /// Panics if the pair was not swept.
    pub fn cell(&self, n_apps: usize, stripe_count: u32) -> &ConcurrentCell {
        self.cells
            .iter()
            .find(|c| c.n_apps == n_apps && c.stripe_count == stripe_count)
            .unwrap_or_else(|| panic!("cell ({n_apps}, {stripe_count}) not swept"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::TargetId;

    #[test]
    fn disjointness_predicate() {
        let a = vec![TargetId(0), TargetId(1)];
        let b = vec![TargetId(2), TargetId(3)];
        let c = vec![TargetId(1), TargetId(4)];
        assert!(all_disjoint(&[a.clone(), b.clone()]));
        assert!(!all_disjoint(&[a, b, c]));
    }

    #[test]
    fn aggregate_not_degraded_by_sharing() {
        // Lesson 7: even when all targets are shared (stripe 8), the
        // aggregate stays comparable to the scaled single application.
        let fig = run(&ExpCtx::quick(10));
        for n_apps in 2..=4usize {
            let cell = fig.cell(n_apps, 8);
            assert_eq!(cell.disjoint_fraction, 0.0, "stripe 8 always shares");
            let deg = cell.aggregate_degradation();
            assert!(
                deg < 0.15,
                "k={n_apps}: aggregate degraded by {:.1}% (agg {} vs scaled {})",
                deg * 100.0,
                cell.aggregate_mean,
                cell.scaled_mean
            );
        }
    }

    #[test]
    fn stripe2_apps_never_share_and_match_combined_baseline() {
        // §IV-D: with stripe count 2 the applications never shared
        // targets in 100 repetitions, and the aggregate matches a single
        // 16-node 4-target run.
        let fig = run(&ExpCtx::quick(10));
        let cell = fig.cell(2, 2);
        assert!(
            cell.disjoint_fraction > 0.5,
            "disjoint fraction {}",
            cell.disjoint_fraction
        );
        let deg = cell.aggregate_degradation().abs();
        assert!(deg < 0.15, "aggregate vs scaled baseline differs by {deg}");
    }

    #[test]
    fn individual_slowdown_grows_with_apps() {
        let fig = run(&ExpCtx::quick(10));
        let s2 = fig.cell(2, 8).individual_slowdown();
        let s4 = fig.cell(4, 8).individual_slowdown();
        assert!(s4 > s2, "slowdown k=2 {s2} vs k=4 {s4}");
        assert!(s2 > 0.0, "sharing the bandwidth must slow individuals");
    }
}
