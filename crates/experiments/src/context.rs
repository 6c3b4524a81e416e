//! Shared experiment context: scenarios, repetition harness, defaults.

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use cluster::{presets, Platform, TargetId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use simcore::rng::RngFactory;

/// The two PlaFRIM network scenarios of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// 10 GbE: the network is slower than the storage.
    S1Ethernet,
    /// 100 Gbit/s Omni-Path: the storage is slower than the network.
    S2Omnipath,
}

impl Scenario {
    /// The platform preset for this scenario.
    pub fn platform(self) -> Platform {
        match self {
            Scenario::S1Ethernet => presets::plafrim_ethernet(),
            Scenario::S2Omnipath => presets::plafrim_omnipath(),
        }
    }

    /// The node count the paper settled on for stripe-count experiments
    /// (8 for scenario 1, 32 for scenario 2 — Fig. 6's captions).
    pub fn figure6_nodes(self) -> usize {
        match self {
            Scenario::S1Ethernet => 8,
            Scenario::S2Omnipath => 32,
        }
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::S1Ethernet => "scenario 1 (10GbE)",
            Scenario::S2Omnipath => "scenario 2 (Omni-Path)",
        }
    }
}

/// Experiment-wide context: master seed and repetition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpCtx {
    /// Master seed; every figure derives its streams from it.
    pub seed: u64,
    /// Repetitions per configuration (the paper uses 100).
    pub reps: usize,
}

impl Default for ExpCtx {
    fn default() -> Self {
        // 2022-09-13: the calibration seed; chosen once and fixed.
        ExpCtx {
            seed: 20_220_913,
            reps: 100,
        }
    }
}

impl ExpCtx {
    /// A reduced-fidelity context for tests and benches.
    pub fn quick(reps: usize) -> Self {
        ExpCtx {
            reps,
            ..ExpCtx::default()
        }
    }

    /// The RNG factory for a named experiment.
    pub fn rng_factory(&self, experiment: &str) -> RngFactory {
        RngFactory::new(self.seed).derive(experiment, 0)
    }
}

/// Deploy a BeeGFS over a scenario's platform with the given stripe count
/// and chooser, using PlaFRIM's registration order.
pub fn deploy(scenario: Scenario, stripe_count: u32, chooser: ChooserKind) -> BeeGfs {
    BeeGfs::new(
        scenario.platform(),
        DirConfig {
            pattern: StripePattern::new(stripe_count, StripePattern::PLAFRIM_DEFAULT.chunk_size),
            chooser,
        },
        plafrim_registration_order(),
    )
}

/// Deploy a BeeGFS over an arbitrary platform (typically one built by
/// [`cluster::FleetSpec`]) with natural server-major registration order —
/// the path datacenter-scale cells take, where no measured registration
/// sequence exists.
pub fn deploy_on(platform: Platform, stripe_count: u32, chooser: ChooserKind) -> BeeGfs {
    let order = platform.all_targets();
    BeeGfs::new(
        platform,
        DirConfig {
            pattern: StripePattern::new(stripe_count, StripePattern::PLAFRIM_DEFAULT.chunk_size),
            chooser,
        },
        order,
    )
}

/// One single-application run on the [`ior::Run`] builder, unwrapped —
/// the shape almost every experiment repetition has. Panics on a failed
/// run, which for the in-repo experiment grids means a bug, not input.
pub fn single_run(
    fs: &mut BeeGfs,
    cfg: &ior::IorConfig,
    rng: &mut simcore::rng::StreamRng,
) -> ior::AppResult {
    let (out, _telemetry) = ior::Run::new(fs)
        .app(*cfg)
        .execute(rng)
        .expect("experiment run failed");
    out.try_single().expect("single-application run").clone()
}

/// The traced outage run behind `repro --trace` and `repro --metrics`:
/// scenario 1 at stripe 4 under round robin, one 8-node application
/// pinned to targets 0, 1, 4 and 5, target 1 offline from 2 s to 9 s
/// (long enough past the 3 s heartbeat that clients observe the stall
/// and retry) and the default retry policy. `instrument` attaches a
/// recorder or a registry, asks for the utilization report, or does
/// nothing, before the run executes on `rng` (`repro` draws the seed's
/// `"trace"` stream).
pub fn outage_run<'r>(
    rng: &mut simcore::rng::StreamRng,
    instrument: impl for<'fs> FnOnce(ior::Run<'fs, 'r>) -> ior::Run<'fs, 'r>,
) -> Result<(ior::RunOutcome, Option<ior::UtilizationReport>), ior::RunError> {
    let mut fs = deploy(Scenario::S1Ethernet, 4, ChooserKind::RoundRobin);
    let plan = FaultPlan::new()
        .target_offline(2.0, TargetId(1))
        .and_then(|plan| plan.target_recovers(9.0, TargetId(1)))
        .expect("valid outage times");
    let run = ior::Run::new(&mut fs)
        .faults(plan)
        .app(ior::AppSpec::pinned(
            ior::IorConfig::paper_default(8),
            vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
        ));
    instrument(run).execute(rng)
}

/// Run `reps` independent repetitions of a run closure in parallel.
///
/// Each repetition gets its own RNG stream (`stream(label, rep)`), so the
/// result is independent of thread scheduling and of `reps` ordering —
/// rep `k` of a 10-rep run equals rep `k` of a 100-rep run.
///
/// Every figure sweep whose cells a [`crate::campaign::CellConfig`]
/// describes runs on the [`crate::campaign::CampaignEngine`] instead,
/// which draws the same streams and caches the results. Four sweeps stay
/// here:
/// * `fig12_concurrent` and `fig13_sharing` classify each repetition by
///   its applications' target sets, which a
///   [`crate::campaign::RepRecord`] does not hold;
/// * `fig_interference`'s pinned cells pin each application's targets,
///   and `sensitivity` deploys perturbed PlaFRIM platforms in
///   registration order: each would need a cell field `CellConfig` does
///   not have.
pub fn repeat<T: Send>(
    factory: &RngFactory,
    label: &str,
    reps: usize,
    run: impl Fn(&mut simcore::rng::StreamRng, usize) -> T + Sync,
) -> Vec<T> {
    (0..reps)
        .into_par_iter()
        .map(|rep| {
            let mut rng = factory.stream(label, rep as u64);
            run(&mut rng, rep)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_metadata() {
        assert_eq!(Scenario::S1Ethernet.figure6_nodes(), 8);
        assert_eq!(Scenario::S2Omnipath.figure6_nodes(), 32);
        assert!(Scenario::S1Ethernet.label().contains("10GbE"));
        assert_eq!(
            Scenario::S1Ethernet.platform().name,
            presets::plafrim_ethernet().name
        );
    }

    #[test]
    fn repeat_is_deterministic_and_prefix_stable() {
        let ctx = ExpCtx::quick(10);
        let f = ctx.rng_factory("determinism");
        let a = repeat(&f, "x", 10, |rng, _| rand::Rng::gen::<u64>(rng));
        let b = repeat(&f, "x", 10, |rng, _| rand::Rng::gen::<u64>(rng));
        assert_eq!(a, b);
        let prefix = repeat(&f, "x", 4, |rng, _| rand::Rng::gen::<u64>(rng));
        assert_eq!(&a[..4], &prefix[..]);
    }

    #[test]
    fn deploy_builds_requested_config() {
        let fs = deploy(Scenario::S1Ethernet, 6, ChooserKind::Random);
        assert_eq!(fs.dir_config().pattern.stripe_count, 6);
        assert_eq!(fs.dir_config().chooser, ChooserKind::Random);
    }
}
