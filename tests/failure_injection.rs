//! Failure injection through the full stack: degraded and offline
//! targets, straggler devices, asymmetric link damage, and mid-run
//! fault timelines with client retry/backoff.

use beegfs_repro::cluster::{presets, TargetId};
use beegfs_repro::core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripeError,
    StripePattern, TargetState,
};
use beegfs_repro::ior::{AppSpec, ConfigError, IorConfig, RetryPolicy, Run, RunError};
use beegfs_repro::sched::{
    AdmissionMode, AppRequest, ArrivalStream, LeastLoadedServer, SchedError, Scheduler,
};
use beegfs_repro::simcore::rng::RngFactory;
use beegfs_repro::simcore::units::GIB;
use proptest::prelude::*;

fn deploy(stripe: u32) -> BeeGfs {
    BeeGfs::new(
        presets::plafrim_omnipath(),
        DirConfig {
            pattern: StripePattern::new(stripe, 512 * 1024),
            chooser: ChooserKind::RoundRobin,
        },
        plafrim_registration_order(),
    )
}

fn mean_bw(mut mk: impl FnMut() -> BeeGfs, nodes: usize, tag: &str, reps: u64) -> f64 {
    let factory = RngFactory::new(31337);
    let sum: f64 = (0..reps)
        .map(|rep| {
            let mut fs = mk();
            let mut rng = factory.stream(tag, rep);
            let (out, _) = Run::new(&mut fs)
                .app(IorConfig::paper_default(nodes))
                .execute(&mut rng)
                .unwrap();
            out.try_single().unwrap().bandwidth.mib_per_sec()
        })
        .sum();
    sum / reps as f64
}

#[test]
fn offline_target_is_never_written() {
    let mut fs = deploy(4);
    fs.set_target_state(TargetId(2), TargetState::Offline)
        .unwrap();
    let factory = RngFactory::new(1);
    for rep in 0..20 {
        let mut rng = factory.stream("offline", rep);
        let (out, _) = Run::new(&mut fs)
            .app(IorConfig::paper_default(4))
            .execute(&mut rng)
            .unwrap();
        for targets in &out.try_single().unwrap().file_targets {
            assert!(!targets.contains(&TargetId(2)));
        }
    }
}

#[test]
fn degraded_target_drags_wide_stripes_harder() {
    // A 40%-speed target hurts stripe-8 files (which always touch it)
    // more than stripe-2 files (which touch it only 1/4 of the time).
    let healthy8 = mean_bw(|| deploy(8), 16, "h8", 12);
    let degraded8 = mean_bw(
        || {
            let mut fs = deploy(8);
            fs.set_target_state(TargetId(5), TargetState::Degraded(0.4))
                .unwrap();
            fs
        },
        16,
        "d8",
        12,
    );
    let loss8 = 1.0 - degraded8 / healthy8;
    assert!(loss8 > 0.3, "stripe-8 loss {loss8}");

    let healthy2 = mean_bw(|| deploy(2), 16, "h2", 12);
    let degraded2 = mean_bw(
        || {
            let mut fs = deploy(2);
            fs.set_target_state(TargetId(5), TargetState::Degraded(0.4))
                .unwrap();
            fs
        },
        16,
        "d2",
        12,
    );
    let loss2 = 1.0 - degraded2 / healthy2;
    assert!(
        loss8 > loss2 + 0.1,
        "stripe-8 loss {loss8} should exceed stripe-2 loss {loss2}"
    );
}

#[test]
fn offline_target_shrinks_but_does_not_break_the_system() {
    // Healthy system at full striping (8 targets) vs the degraded system
    // at its new maximum (7 targets, one OST lost).
    let healthy = mean_bw(|| deploy(8), 32, "off-h", 10);
    let offline = mean_bw(
        || {
            let mut fs = deploy(7);
            fs.set_target_state(TargetId(0), TargetState::Offline)
                .unwrap();
            fs
        },
        32,
        "off-d",
        10,
    );
    // Losing 1 of 8 devices costs roughly its share, not the system.
    assert!(
        offline > 0.70 * healthy,
        "offline {offline} vs healthy {healthy}"
    );
    assert!(offline < healthy, "losing a device cannot help");
}

#[test]
fn recovery_restores_selection() {
    let mut fs = deploy(8);
    fs.set_target_state(TargetId(3), TargetState::Offline)
        .unwrap();
    // Stripe 8 over 7 online targets is a typed error, not a panic.
    let mut rng = RngFactory::new(2).stream("rec", 0);
    assert_eq!(
        fs.create_file(&mut rng).unwrap_err(),
        StripeError::NotEnoughTargets {
            wanted: 8,
            online: 7
        }
    );

    // Bring it back: creation works again and uses all 8.
    fs.set_target_state(TargetId(3), TargetState::Online)
        .unwrap();
    let mut rng = RngFactory::new(2).stream("rec", 1);
    let (file, _) = fs.create_file(&mut rng).unwrap();
    assert_eq!(file.targets.len(), 8);
    assert!(file.targets.contains(&TargetId(3)));
}

#[test]
fn invalid_degraded_factors_are_rejected_end_to_end() {
    let mut fs = deploy(4);
    for bad in [0.0, -0.5, 1.5, f64::NAN] {
        assert!(
            fs.set_target_state(TargetId(0), TargetState::Degraded(bad))
                .is_err(),
            "Degraded({bad}) must be rejected"
        );
    }
    // The rejected transitions left the deployment fully usable.
    let mut rng = RngFactory::new(9).stream("still-usable", 0);
    Run::new(&mut fs)
        .app(IorConfig::paper_default(4))
        .execute(&mut rng)
        .unwrap();
}

#[test]
fn straggler_device_caps_concurrent_apps_sharing_it() {
    // Two apps pinned to the same four targets, one of which crawls:
    // both apps feel it equally (shared fate).
    let factory = RngFactory::new(77);
    let pinned: Vec<TargetId> = [0u32, 4, 5, 6].iter().map(|&i| TargetId(i)).collect();
    let cfg = IorConfig::paper_default(8);
    let mut with_straggler = Vec::new();
    for rep in 0..8 {
        let mut fs = deploy(4);
        fs.set_target_state(TargetId(4), TargetState::Degraded(0.25))
            .unwrap();
        let mut rng = factory.stream("straggler", rep);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .execute(&mut rng)
            .unwrap();
        let a = out.apps[0].bandwidth.mib_per_sec();
        let b = out.apps[1].bandwidth.mib_per_sec();
        assert!((a - b).abs() / a < 0.05, "apps diverge: {a} vs {b}");
        with_straggler.push(out.aggregate.mib_per_sec());
    }
    let mut healthy = Vec::new();
    for rep in 0..8 {
        let mut fs = deploy(4);
        let mut rng = factory.stream("straggler-h", rep);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .execute(&mut rng)
            .unwrap();
        healthy.push(out.aggregate.mib_per_sec());
    }
    let s = with_straggler.iter().sum::<f64>() / 8.0;
    let h = healthy.iter().sum::<f64>() / 8.0;
    assert!(s < 0.75 * h, "straggler aggregate {s} vs healthy {h}");
}

// --- mid-run fault timelines -------------------------------------------

/// A policy whose deadline comfortably covers the outages these tests
/// schedule, so recovery paths are exercised rather than give-ups.
fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        deadline_s: 300.0,
        ..RetryPolicy::default()
    }
}

/// Run one pinned-allocation application under `plan` so the faulted
/// target is guaranteed to be written.
fn faulted_pinned(
    plan: &FaultPlan,
    policy: &RetryPolicy,
    tag: &str,
    rep: u64,
) -> Result<f64, RunError> {
    let mut fs = deploy(4);
    let mut rng = RngFactory::new(4711).stream(tag, rep);
    let pinned: Vec<TargetId> = [0u32, 1, 4, 5].iter().map(|&i| TargetId(i)).collect();
    Run::new(&mut fs)
        .app(AppSpec::pinned(IorConfig::paper_default(8), pinned))
        .faults(plan.clone())
        .policy(*policy)
        .execute(&mut rng)
        .map(|(out, _)| out.try_single().unwrap().bandwidth.mib_per_sec())
}

#[test]
fn mid_run_outage_with_recovery_lands_between_the_baselines() {
    // Same seed, three timelines: all-healthy, a 20 s outage with
    // recovery, and a permanent outage... the permanent one would fail,
    // so the lower baseline is a permanent heavy degradation instead.
    let policy = patient_policy();
    for rep in 0..6 {
        let healthy = faulted_pinned(&FaultPlan::new(), &policy, "mid", rep).unwrap();
        let outage = FaultPlan::new()
            .target_offline(5.0, TargetId(0))
            .unwrap()
            .target_recovers(25.0, TargetId(0))
            .unwrap();
        let recovered = faulted_pinned(&outage, &policy, "mid", rep).unwrap();
        let crippled = FaultPlan::new()
            .target_degraded(5.0, TargetId(0), 0.01)
            .unwrap();
        let degraded = faulted_pinned(&crippled, &policy, "mid", rep).unwrap();
        assert!(
            recovered < healthy,
            "rep {rep}: outage cannot help ({recovered} vs healthy {healthy})"
        );
        assert!(
            recovered > degraded,
            "rep {rep}: recovery must beat a permanent crawl \
             ({recovered} vs degraded {degraded})"
        );
    }
}

#[test]
fn faulted_runs_are_bit_reproducible() {
    let plan = FaultPlan::new()
        .target_offline(3.0, TargetId(2))
        .unwrap()
        .target_recovers(18.0, TargetId(2))
        .unwrap()
        .link_degraded(10.0, 1, 0.5)
        .unwrap()
        .link_restored(30.0, 1)
        .unwrap();
    let policy = patient_policy();
    let run = |_: u32| {
        let mut fs = deploy(4);
        let mut rng = RngFactory::new(99).stream("repro", 0);
        let (out, _) = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .faults(plan.clone())
            .policy(policy)
            .execute(&mut rng)
            .unwrap();
        let app = out.try_single().unwrap();
        (
            app.bandwidth.bytes_per_sec().to_bits(),
            app.duration_s.to_bits(),
            app.file_targets.clone(),
        )
    };
    assert_eq!(
        run(0),
        run(1),
        "same seed + same plan must be bit-identical"
    );
}

#[test]
fn unrecovered_outage_fails_with_a_typed_error() {
    // Target 0 dies at t = 2 s and never comes back; the stalled writes
    // must surface as TargetUnavailable, not hang or panic.
    let plan = FaultPlan::new().target_offline(2.0, TargetId(0)).unwrap();
    let err = faulted_pinned(&plan, &RetryPolicy::default(), "dead", 0).unwrap_err();
    match err {
        RunError::TargetUnavailable {
            target,
            outage_start_s,
            stalled_at_s,
        } => {
            assert_eq!(target, TargetId(0));
            assert_eq!(outage_start_s, 2.0);
            assert!(stalled_at_s >= outage_start_s);
        }
        other => panic!("expected TargetUnavailable, got {other:?}"),
    }
}

#[test]
fn reoffline_before_the_resume_probe_keeps_the_target_dead() {
    // offline@1, recover@5, offline@5.2 forever. With the default
    // 3 s heartbeat and 0.5 s/×2 backoff, probes land at 4.5, 5.5, ...:
    // the recovery window [5.0, 5.2) contains no probe, so the client
    // never resumes and the run must fail with the *original* outage on
    // record — not complete at healthy bandwidth.
    let plan = FaultPlan::new()
        .target_offline(1.0, TargetId(0))
        .unwrap()
        .target_recovers(5.0, TargetId(0))
        .unwrap()
        .target_offline(5.2, TargetId(0))
        .unwrap();
    let err = faulted_pinned(&plan, &patient_policy(), "flap-dead", 0).unwrap_err();
    match err {
        RunError::TargetUnavailable {
            target,
            outage_start_s,
            stalled_at_s,
        } => {
            assert_eq!(target, TargetId(0));
            assert_eq!(outage_start_s, 1.0);
            assert!(stalled_at_s >= outage_start_s);
        }
        other => panic!("expected TargetUnavailable, got {other:?}"),
    }
}

#[test]
fn flapping_target_resumes_only_when_a_probe_finds_it_up() {
    // The second outage swallows the first recovery's probe, but a later
    // recovery holds long enough for a probe to land: the run completes,
    // slower than the all-healthy baseline.
    let policy = patient_policy();
    let healthy = faulted_pinned(&FaultPlan::new(), &policy, "flap", 0).unwrap();
    let plan = FaultPlan::new()
        .target_offline(1.0, TargetId(0))
        .unwrap()
        .target_recovers(5.0, TargetId(0))
        .unwrap()
        .target_offline(5.2, TargetId(0))
        .unwrap()
        .target_recovers(20.0, TargetId(0))
        .unwrap();
    let flapped = faulted_pinned(&plan, &policy, "flap", 0).unwrap();
    assert!(
        flapped < healthy,
        "flapping target cannot help ({flapped} vs healthy {healthy})"
    );
}

#[test]
fn recovery_past_the_deadline_also_fails() {
    // The plan brings the target back, but only after the client's
    // retry deadline has expired: the writes were already abandoned.
    let impatient = RetryPolicy {
        deadline_s: 10.0,
        ..RetryPolicy::default()
    };
    let plan = FaultPlan::new()
        .target_offline(2.0, TargetId(0))
        .unwrap()
        .target_recovers(50.0, TargetId(0))
        .unwrap();
    let err = faulted_pinned(&plan, &impatient, "late", 0).unwrap_err();
    assert!(
        matches!(err, RunError::TargetUnavailable { target, .. } if target == TargetId(0)),
        "got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any timeline of outages that all recover conserves every byte:
    /// the run completes and reports exactly the configured volume.
    #[test]
    fn recovering_plans_conserve_bytes(
        seed in 0u64..100,
        outages in prop::collection::vec(
            (0u32..4, 1.0f64..20.0, 1.0f64..30.0), 0..3),
    ) {
        let mut plan = FaultPlan::new();
        for &(t, start, dur) in &outages {
            plan = plan
                .target_offline(start, TargetId(t)).unwrap()
                .target_recovers(start + dur, TargetId(t)).unwrap();
        }
        let cfg = IorConfig::paper_default(4);
        let mut fs = deploy(4);
        let mut rng = RngFactory::new(seed).stream("conserve", 0);
        let (out, _) = Run::new(&mut fs)
            .app(cfg)
            .faults(plan)
            .policy(patient_policy())
            .execute(&mut rng)
            .unwrap();
        let app = out.try_single().unwrap();
        prop_assert_eq!(app.bytes, cfg.effective_total_bytes());
        prop_assert!(app.duration_s.is_finite());
        prop_assert!(app.bandwidth.bytes_per_sec() > 0.0);
    }
}

/// N targets die at the same instant under the continuous online
/// engine. Regression pin for two bugs this exact shape exposed:
///
/// * a second same-instant eviction saw the first one's replacement
///   flows as *pending start events* (not yet active) and either
///   panicked cancelling them or stranded them on the newly dead
///   target, stalling the session;
/// * a fault plan naming a target the platform does not have panicked
///   in the online timeline compiler instead of returning the typed
///   error the per-run engine gives.
///
/// Per (seed, dead-count) the behaviour is pinned exactly: every
/// survivable count completes with the dead set avoided, killing the
/// whole pool is a typed placement error, and an unknown target is a
/// typed plan error.
#[test]
fn simultaneous_same_instant_evictions_survive_or_fail_typed() {
    let total = presets::plafrim_ethernet().total_targets() as u32;
    for seed in 0..20u64 {
        for dead in 2..=total + 1 {
            let stream = ArrivalStream::from_trace(vec![AppRequest {
                arrival_s: 0.0,
                config: IorConfig::paper_default(4).with_total_bytes(4 * GIB),
                stripe: 4,
            }])
            .unwrap();
            let factory = RngFactory::new(seed);
            let mut fs = BeeGfs::new(
                presets::plafrim_ethernet(),
                DirConfig::plafrim_default(),
                plafrim_registration_order(),
            );
            let mut plan = FaultPlan::new();
            for t in 0..dead {
                plan = plan.target_offline(0.5, TargetId(t)).unwrap();
            }
            let result = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
                .mode(AdmissionMode::Online)
                .faults(plan)
                .retry(RetryPolicy {
                    deadline_s: 5.0,
                    ..RetryPolicy::default()
                })
                .serve(&stream, &factory);
            if dead > total {
                // TargetId(total) does not exist on the platform.
                assert!(
                    matches!(
                        result,
                        Err(SchedError::Run(RunError::UnknownFaultTarget(t)))
                            if t == TargetId(total)
                    ),
                    "seed {seed} dead {dead}: expected unknown-target error, got {result:?}"
                );
            } else if dead == total {
                // Every target is gone: re-placement has nowhere to go.
                assert!(
                    matches!(result, Err(SchedError::Policy(_))),
                    "seed {seed} dead {dead}: expected placement failure, got {result:?}"
                );
            } else {
                let out = result.unwrap_or_else(|e| {
                    panic!("seed {seed} dead {dead}: survivable outage failed: {e}")
                });
                let app = &out.apps[0];
                assert!(
                    app.targets.iter().all(|t| t.0 >= dead),
                    "seed {seed} dead {dead}: final allocation {:?} includes a dead target",
                    app.targets
                );
                assert!(
                    out.restripes.iter().any(|r| r.kind == "evict"),
                    "seed {seed} dead {dead}: no eviction re-placement was recorded"
                );
                assert!(
                    app.duration_s.is_finite() && app.slowdown >= 1.0,
                    "seed {seed} dead {dead}: implausible outcome"
                );
            }
        }
    }
}

/// A retry policy the timeline compiler cannot run — a zero first
/// backoff never advances the probe clock, a NaN deadline has no
/// instant — is the same typed error in both admission modes, returned
/// before the session touches the deployment. (The online engine once
/// compiled faults without validating the policy: the zero backoff
/// spun forever and the NaN deadline panicked.)
#[test]
fn invalid_retry_policies_fail_typed_in_both_admission_modes() {
    let plan = FaultPlan::new()
        .target_offline(0.5, TargetId(0))
        .unwrap()
        .target_recovers(4.0, TargetId(0))
        .unwrap();
    let stream = ArrivalStream::from_trace(vec![AppRequest {
        arrival_s: 0.0,
        config: IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        stripe: 4,
    }])
    .unwrap();
    let states = |fs: &BeeGfs| -> Vec<TargetState> {
        fs.platform()
            .all_targets()
            .into_iter()
            .map(|t| fs.mgmt().state(t))
            .collect()
    };
    let bad = [
        RetryPolicy {
            initial_backoff_s: 0.0,
            ..RetryPolicy::default()
        },
        RetryPolicy {
            deadline_s: f64::NAN,
            ..RetryPolicy::default()
        },
        // Validates range by range, but its probes never reach the
        // deadline.
        RetryPolicy {
            initial_backoff_s: 1e-20,
            backoff_multiplier: 1.0,
            ..RetryPolicy::default()
        },
    ];
    for retry in bad {
        for mode in [AdmissionMode::FrozenOracle, AdmissionMode::Online] {
            let mut fs = deploy(4);
            fs.set_target_state(TargetId(3), TargetState::Degraded(0.5))
                .unwrap();
            let before = states(&fs);
            let result = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
                .mode(mode)
                .faults(plan.clone())
                .retry(retry)
                .serve(&stream, &RngFactory::new(3));
            assert!(
                matches!(result, Err(SchedError::Run(RunError::Policy(_)))),
                "{mode:?} with {retry:?}: got {result:?}"
            );
            assert_eq!(states(&fs), before, "{mode:?} with {retry:?}");
        }
    }
}

/// A request the run engine would reject — no nodes, no processes per
/// node, no bytes — is the same typed error in both admission modes,
/// returned before the session touches the deployment. (The online
/// engine once skipped the check: it panicked on zero nodes or ppn and
/// served the zero-byte request.)
#[test]
fn invalid_requests_fail_typed_in_both_admission_modes() {
    let base = IorConfig::paper_default(4).with_total_bytes(4 * GIB);
    let bad = [
        (base.with_nodes(0), ConfigError::ZeroNodes),
        (base.with_ppn(0), ConfigError::ZeroPpn),
        (base.with_total_bytes(0), ConfigError::ZeroBytes),
    ];
    for (config, expected) in bad {
        let stream = ArrivalStream::from_trace(vec![AppRequest {
            arrival_s: 0.0,
            config,
            stripe: 4,
        }])
        .unwrap();
        for mode in [AdmissionMode::FrozenOracle, AdmissionMode::Online] {
            let mut fs = deploy(4);
            let result = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
                .mode(mode)
                .serve(&stream, &RngFactory::new(3));
            assert!(
                matches!(&result, Err(SchedError::Run(RunError::Config(e))) if *e == expected),
                "{mode:?} with {config:?}: got {result:?}"
            );
        }
    }
}

/// A generated stream whose arrivals lie past the simulated clock fails
/// typed in both admission modes, as a trace with such arrivals fails
/// in `from_trace`. (Both engines once panicked with "SimTime
/// overflow" on it.)
#[test]
fn generated_arrivals_past_the_clock_fail_typed_in_both_admission_modes() {
    let config = IorConfig::paper_default(4).with_total_bytes(4 * GIB);
    let mut rng = RngFactory::new(3).stream("late-arrivals", 0);
    let stream = ArrivalStream::poisson(1e-12, 2, config, 4, &mut rng);
    let first = stream.requests()[0].arrival_s;
    assert!(
        first > 2e10,
        "the first arrival, {first} s, is within the clock"
    );
    for mode in [AdmissionMode::FrozenOracle, AdmissionMode::Online] {
        let mut fs = deploy(4);
        let result = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(mode)
            .serve(&stream, &RngFactory::new(3));
        assert!(
            matches!(&result, Err(SchedError::ArrivalBeyondClock { app: 0, arrival_s }) if *arrival_s == first),
            "{mode:?}: got {result:?}"
        );
    }
}

/// A target degraded to a millionth of a millionth of its speed passes
/// validation, but the run's writes to it would finish past the end of
/// the simulated clock (~1.8e10 s): the run fails with the typed stall
/// naming them. (It once panicked with "SimTime overflow".)
#[test]
fn a_run_finishing_past_the_clock_fails_typed() {
    let mut fs = deploy(4);
    fs.set_target_state(TargetId(0), TargetState::Degraded(1e-12))
        .unwrap();
    let pinned = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
    let result = Run::new(&mut fs)
        .app(AppSpec::pinned(IorConfig::paper_default(4), pinned))
        .execute(&mut RngFactory::new(5).stream("past-the-clock", 0));
    match result {
        Err(RunError::Stalled(stall)) => {
            assert!(!stall.flows.is_empty());
            assert!(stall.at.as_secs_f64() < 1e10, "stalled at {}", stall.at);
        }
        other => panic!("expected a typed stall, got {other:?}"),
    }
}

/// A fault plan nested 100,000 levels deep is a parse error, not a
/// stack overflow that ends the process.
#[test]
fn a_deeply_nested_fault_plan_fails_typed() {
    let text = format!("{{\"events\":{}", "[".repeat(100_000));
    let err = serde_json::from_str::<FaultPlan>(&text).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
}

#[test]
fn a_late_outage_with_a_fine_backoff_returns_in_both_admission_modes() {
    // At 1.5e10 s one ulp of the probe clock (~1.9e-6 s) exceeds twice
    // the validated 5e-7 s backoff step, so the ladder could not move
    // and compiling this plan never returned. The outage lies far past
    // the run, so the runs complete as if healthy.
    let fine = RetryPolicy {
        initial_backoff_s: 5e-7,
        backoff_multiplier: 1.0,
        max_backoff_s: 5e-7,
        deadline_s: 0.03,
    };
    let plan = FaultPlan::new()
        .target_offline(1.5e10, TargetId(0))
        .unwrap()
        .target_recovers(1.5e10 + 0.015, TargetId(0))
        .unwrap();
    let late_deploy = || {
        let mut fs = deploy(4);
        fs.set_heartbeat_interval_s(0.0);
        fs
    };
    let mut fs = late_deploy();
    let (out, _) = Run::new(&mut fs)
        .app(IorConfig::paper_default(4))
        .faults(plan.clone())
        .policy(fine)
        .execute(&mut RngFactory::new(5).stream("late-outage", 0))
        .unwrap();
    assert!(out.try_single().is_ok());
    let stream = ArrivalStream::from_trace(vec![AppRequest {
        arrival_s: 0.0,
        config: IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        stripe: 4,
    }])
    .unwrap();
    for mode in [AdmissionMode::FrozenOracle, AdmissionMode::Online] {
        let mut fs = late_deploy();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(mode)
            .faults(plan.clone())
            .retry(fine)
            .serve(&stream, &RngFactory::new(5))
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(out.apps.len(), 1, "{mode:?}");
    }
}
