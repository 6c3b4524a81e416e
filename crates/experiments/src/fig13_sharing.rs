//! Figure 13 — do applications suffer from sharing the *same* targets?
//!
//! Two concurrent applications, stripe count 4, scenario 2. On PlaFRIM
//! the round-robin chooser admits only two stripe-4 allocations (both
//! `(1,3)`), so two applications either share *all four* targets or
//! share *none*. The paper separates the individual bandwidths into
//! those two groups, checks normality (KS), and runs Welch's t-test:
//! p = 0.9031 — the means cannot be distinguished, i.e. the slow-down
//! comes from sharing the platform's bandwidth, not from target
//! contention (lesson 7).
//!
//! **Known deviation** (see EXPERIMENTS.md): the simulator reproduces
//! the *setup* faithfully — both groups occur, at roughly the paper's
//! 1/3-shared : 2/3-disjoint frequencies — but finds the disjoint group
//! *faster* (all eight targets active instead of four). The paper's null
//! result requires PlaFRIM to gain essentially nothing from 4 -> 8
//! active OSTs at 16 client nodes, which is incompatible with any
//! monotone device-concurrency curve that also reproduces the paper's
//! own single-node measurement (Fig. 4b, N=1: ~1631 MiB/s): an
//! un-instrumented server-side ceiling on their testbed is the likely
//! cause. The lesson itself ("sharing targets does not degrade the
//! aggregate") is still confirmed by the all-shared stripe-8 cells of
//! Fig. 12, where this model shows no degradation either.

use crate::context::{deploy, repeat, ExpCtx, Scenario};
use crate::fig12_concurrent::NODES_PER_APP;
use beegfs_core::ChooserKind;
use ior::{AppSpec, IorConfig, Run};
use iostats::{ks_normality_test, welch_t_test, KsResult, WelchResult};
use serde::{Deserialize, Serialize};

/// The experiment's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13 {
    /// Individual bandwidths (MiB/s) when the two apps used the *same*
    /// four targets.
    pub shared_same: Vec<f64>,
    /// Individual bandwidths when they used disjoint target sets.
    pub all_different: Vec<f64>,
    /// KS normality gate on the shared group. This and the two tests
    /// below are `None` when either group has fewer than four
    /// observations.
    pub ks_same: Option<KsResult>,
    /// KS normality gate on the disjoint group.
    pub ks_different: Option<KsResult>,
    /// Welch's t-test between the groups.
    pub welch: Option<WelchResult>,
}

/// The fewest observations per group the tests run on.
const MIN_GROUP: usize = 4;

/// Run the experiment.
pub fn run(ctx: &ExpCtx) -> Fig13 {
    let factory = ctx.rng_factory("fig13");
    let cfg = IorConfig::paper_default(NODES_PER_APP);
    // Collect (targets_equal, [bw_app1, bw_app2]) per run.
    let runs = repeat(&factory, "two-apps-s4", ctx.reps, |rng, _| {
        let mut fs = deploy(Scenario::S2Omnipath, 4, ChooserKind::RoundRobin);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::new(cfg))
            .app(AppSpec::new(cfg))
            .execute(rng)
            .expect("experiment run failed");
        let mut a = out.apps[0].file_targets[0].clone();
        let mut b = out.apps[1].file_targets[0].clone();
        a.sort();
        b.sort();
        let same = a == b;
        (
            same,
            [
                out.apps[0].bandwidth.mib_per_sec(),
                out.apps[1].bandwidth.mib_per_sec(),
            ],
        )
    });

    let mut shared_same = Vec::new();
    let mut all_different = Vec::new();
    for (same, bws) in runs {
        let bucket = if same {
            &mut shared_same
        } else {
            &mut all_different
        };
        bucket.extend_from_slice(&bws);
    }
    // A small run may leave a group nearly empty: it still reports both
    // groups, without the tests.
    let tested = shared_same.len() >= MIN_GROUP && all_different.len() >= MIN_GROUP;
    Fig13 {
        ks_same: tested.then(|| ks_normality_test(&shared_same)),
        ks_different: tested.then(|| ks_normality_test(&all_different)),
        welch: tested.then(|| welch_t_test(&shared_same, &all_different)),
        shared_same,
        all_different,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_groups_occur_at_paper_frequencies() {
        // The paper observes roughly 1/3 shared, 2/3 disjoint — driven by
        // the tenant-churn parity of the round-robin cursor.
        let fig = run(&ExpCtx::quick(60));
        let n_same = fig.shared_same.len();
        let n_diff = fig.all_different.len();
        assert!(n_same > 0 && n_diff > 0);
        let frac_same = n_same as f64 / (n_same + n_diff) as f64;
        assert!(
            (0.15..0.60).contains(&frac_same),
            "shared-fraction {frac_same} (paper: ~1/3)"
        );
    }

    #[test]
    fn groups_pass_normality_gate() {
        let fig = run(&ExpCtx::quick(60));
        let ks_same = fig.ks_same.expect("60 reps fill both groups");
        let ks_different = fig.ks_different.expect("60 reps fill both groups");
        assert!(ks_same.p > 0.01, "shared group non-normal: {}", ks_same.p);
        assert!(
            ks_different.p > 0.01,
            "disjoint group non-normal: {}",
            ks_different.p
        );
    }

    #[test]
    fn a_small_run_keeps_both_groups_without_the_tests() {
        // Two reps of two applications: four observations, so at least
        // one group is below the tests' minimum.
        let fig = run(&ExpCtx { seed: 7, reps: 2 });
        assert_eq!(fig.shared_same.len() + fig.all_different.len(), 4);
        assert!(fig.ks_same.is_none() && fig.ks_different.is_none() && fig.welch.is_none());
    }

    #[test]
    fn known_deviation_disjoint_is_faster_in_the_model() {
        // Documented deviation from the paper (p = 0.9031, no difference):
        // the simulator's device-concurrency curve rewards activating all
        // eight targets, so the disjoint group is faster. If a model
        // change ever flips this, EXPERIMENTS.md's deviation entry must
        // be revisited.
        let welch = run(&ExpCtx::quick(60))
            .welch
            .expect("60 reps fill both groups");
        assert!(
            welch.mean_b > welch.mean_a,
            "disjoint (mean_b {}) expected above shared (mean_a {})",
            welch.mean_b,
            welch.mean_a
        );
    }
}
