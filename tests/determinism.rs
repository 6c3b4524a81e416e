//! Reproducibility guarantees: identical seeds give bit-identical
//! results regardless of parallelism, and results serialize round-trip.

use beegfs_repro::cluster::presets;
use beegfs_repro::core::{plafrim_registration_order, BeeGfs, ChooserKind, DirConfig};
use beegfs_repro::experiments::campaign::{CampaignEngine, CampaignError};
use beegfs_repro::experiments::{fig06_stripe, ExpCtx, Scenario};
use beegfs_repro::ior::{IorConfig, Run};
use beegfs_repro::sched::{ArrivalStream, LeastLoadedServer, Scheduler};
use beegfs_repro::simcore::rng::RngFactory;
use beegfs_repro::simcore::units::GIB;

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| {
        let mut fs = BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        );
        let mut rng = RngFactory::new(seed).stream("det", 0);
        let (out, _) = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .execute(&mut rng)
            .unwrap();
        let app = out.try_single().unwrap();
        (
            app.bandwidth.bytes_per_sec(),
            app.file_targets.clone(),
            app.duration_s,
        )
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1).0, run(2).0);
}

/// Fig. 6 with the paper's round-robin chooser, computed in memory.
fn fig06(ctx: &ExpCtx, scenario: Scenario) -> fig06_stripe::Fig06 {
    let engine = CampaignEngine::in_memory();
    fig06_stripe::run(&engine, ctx, scenario, ChooserKind::RoundRobin).unwrap()
}

#[test]
fn experiments_are_reproducible_across_invocations() {
    // The rayon-parallel harness must not introduce scheduling
    // dependence: two full executions of a figure agree exactly.
    let ctx = ExpCtx::quick(6);
    let a = fig06(&ctx, Scenario::S1Ethernet);
    let b = fig06(&ctx, Scenario::S1Ethernet);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.stripe_count, pb.stripe_count);
        for (sa, sb) in pa.samples.iter().zip(&pb.samples) {
            assert_eq!(sa.mib_s, sb.mib_s);
            assert_eq!(sa.allocation, sb.allocation);
        }
    }
}

#[test]
fn rep_prefix_is_stable() {
    // Rep k of a 12-rep experiment equals rep k of a 4-rep experiment:
    // extending a study never invalidates already-recorded repetitions.
    let a = fig06(&ExpCtx::quick(12), Scenario::S2Omnipath);
    let b = fig06(&ExpCtx::quick(4), Scenario::S2Omnipath);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (sa, sb) in pa.samples.iter().take(4).zip(&pb.samples) {
            assert_eq!(sa.mib_s, sb.mib_s);
        }
    }
}

#[test]
fn figure_results_serialize_round_trip() {
    let fig = fig06(&ExpCtx::quick(3), Scenario::S1Ethernet);
    let json = serde_json::to_string(&fig).expect("serialize");
    let back: fig06_stripe::Fig06 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.nodes, fig.nodes);
    assert_eq!(back.points.len(), fig.points.len());
    // JSON round-trips floats to within one ulp of the decimal repr.
    let a = back.points[0].samples[0].mib_s;
    let b = fig.points[0].samples[0].mib_s;
    assert!((a - b).abs() <= f64::EPSILON * b.abs(), "{a} vs {b}");
    assert_eq!(
        back.points[0].samples[0].allocation,
        fig.points[0].samples[0].allocation
    );
}

#[test]
fn scheduler_decision_logs_are_byte_identical() {
    // The online scheduler's determinism guarantee: the same seed and
    // the same arrival stream serve to byte-identical decision logs,
    // outcomes included.
    let serve = || {
        let factory = RngFactory::new(31);
        let stream = ArrivalStream::poisson(
            0.3,
            6,
            IorConfig::paper_default(4).with_total_bytes(4 * GIB),
            4,
            &mut factory.stream("arrivals", 0),
        );
        let mut fs = BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        );
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        let ends: Vec<u64> = out.apps.iter().map(|a| a.end_s.to_bits()).collect();
        (out.decision_log_json(), ends)
    };
    let (log_a, ends_a) = serve();
    let (log_b, ends_b) = serve();
    assert_eq!(log_a, log_b, "decision logs diverged across invocations");
    assert_eq!(ends_a, ends_b, "completion times diverged");
}

/// Compare `actual` against a committed golden file, or regenerate the
/// golden when `GOLDEN_REGEN=1` is set. Goldens were captured before the
/// incremental solver / indexed event heap landed, so these tests pin
/// that rework to the byte.
fn check_golden(rel_path: &str, actual: &[u8]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{rel_path} diverged from the committed golden ({} vs {} bytes)",
        expected.len(),
        actual.len()
    );
}

#[test]
fn sched_decision_log_is_byte_identical_to_the_pre_rework_golden() {
    // Same scenario as `scheduler_decision_logs_are_byte_identical`, but
    // pinned against a committed pre-change golden: the solver and event
    // queue rework must not move a single admission or byte.
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.3,
        6,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut fs = BeeGfs::new(
        presets::plafrim_ethernet(),
        DirConfig::plafrim_default(),
        plafrim_registration_order(),
    );
    let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
        .serve(&stream, &factory)
        .unwrap();
    check_golden(
        "tests/golden/sched_decisions_seed31.json",
        out.decision_log_json().as_bytes(),
    );
    // Completion instants, bit-for-bit.
    let ends = out
        .apps
        .iter()
        .map(|a| format!("{:016x}", a.end_s.to_bits()))
        .collect::<Vec<_>>()
        .join("\n");
    check_golden("tests/golden/sched_ends_seed31.txt", ends.as_bytes());
}

#[test]
fn online_decision_log_is_byte_identical_to_the_committed_golden() {
    // The continuous-engine counterpart of the pin above: the same
    // seed-31 stream served in online admission mode. One long-running
    // simulation prices every admission, so this golden pins the
    // engine's whole event loop — calendar ordering, live injection,
    // completion draining and slowdown accounting — to the byte.
    use beegfs_repro::sched::AdmissionMode;
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.3,
        6,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut fs = BeeGfs::new(
        presets::plafrim_ethernet(),
        DirConfig::plafrim_default(),
        plafrim_registration_order(),
    );
    let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
        .mode(AdmissionMode::Online)
        .serve(&stream, &factory)
        .unwrap();
    check_golden(
        "tests/golden/online_decisions_seed31.json",
        out.decision_log_json().as_bytes(),
    );
    let ends = out
        .apps
        .iter()
        .map(|a| format!("{:016x}", a.end_s.to_bits()))
        .collect::<Vec<_>>()
        .join("\n");
    check_golden("tests/golden/online_ends_seed31.txt", ends.as_bytes());
}

#[test]
fn hedged_decision_log_is_byte_identical_to_the_committed_golden() {
    // The hedging counterpart of the pin above: a straggler-aware
    // session on scenario 2, with a persistent transient straggler and
    // hedged measurement runs. Detection consumes no randomness and
    // flag refreshes are event-ordered, so the committed decision log
    // pins the whole detect/redirect/quarantine path to the byte.
    use beegfs_repro::cluster::TargetId;
    use beegfs_repro::core::FaultPlan;
    use beegfs_repro::sched::StragglerAware;
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.3,
        6,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let plan = FaultPlan::new()
        .target_transient_straggler(0.3, TargetId(0), 0.15, 50_000.0)
        .unwrap();
    let mut fs = BeeGfs::new(
        presets::plafrim_omnipath(),
        DirConfig::plafrim_default(),
        plafrim_registration_order(),
    );
    let out = Scheduler::new(&mut fs, Box::new(StragglerAware))
        .faults(plan)
        .hedge()
        .serve(&stream, &factory)
        .unwrap();
    check_golden(
        "tests/golden/sched_hedged_decisions_seed31.json",
        out.decision_log_json().as_bytes(),
    );
}

#[test]
fn hedged_and_file_per_process_runs_are_byte_identical_to_the_committed_golden() {
    // Three scenario-2 runs under the transient straggler the
    // `straggler_overhead` bench injects: a hedged N-1 write, a hedged
    // file-per-process write and a plain file-per-process write. Each
    // pins its per-app duration and bandwidth bits, its hedge report and
    // its metrics snapshot; the hedged N-1 run also pins its Perfetto
    // trace, which carries the detector's flag and redirect events and
    // the flows issued mid-drain. Together they pin flow emission for
    // both layouts and the whole chunked detect-and-redirect drain.
    use beegfs_repro::cluster::TargetId;
    use beegfs_repro::core::FaultPlan;
    use beegfs_repro::experiments::context::deploy;
    use beegfs_repro::ior::FileLayout;
    use beegfs_repro::obs::metrics::MetricsRegistry;
    use beegfs_repro::obs::{Event, Timeline};
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .unwrap();
    let n1 = IorConfig::paper_default(8);
    let fpp = n1.with_layout(FileLayout::FilePerProcess);
    let mut pins = String::new();
    for (k, (name, cfg, hedged)) in [
        ("hedged-n1", n1, true),
        ("hedged-fpp", fpp, true),
        ("plain-fpp", fpp, false),
    ]
    .into_iter()
    .enumerate()
    {
        let mut fs = deploy(Scenario::S2Omnipath, 4, ChooserKind::RoundRobin);
        let mut rng = RngFactory::new(7).stream("hedge-golden", k as u64);
        let mut reg = MetricsRegistry::new();
        let mut timeline = Timeline::new();
        let mut run = Run::new(&mut fs)
            .app(cfg)
            .faults(plan.clone())
            .metrics(&mut reg);
        if hedged {
            run = run.hedge();
        }
        if name == "hedged-n1" {
            run = run.trace(&mut timeline);
        }
        let (out, _) = run.execute(&mut rng).unwrap();
        pins.push_str(&format!("{name}\n"));
        for (i, app) in out.apps.iter().enumerate() {
            pins.push_str(&format!(
                "app {i} duration_s {:016x} bandwidth {:016x}\n",
                app.duration_s.to_bits(),
                app.bandwidth.bytes_per_sec().to_bits()
            ));
        }
        match &out.hedge {
            Some(h) => {
                let flagged: Vec<u32> = h.flagged.iter().map(|t| t.0).collect();
                pins.push_str(&format!(
                    "hedge flagged {flagged:?} redirects {} samples {}\n",
                    h.redirects, h.samples
                ));
            }
            None => pins.push_str("hedge none\n"),
        }
        pins.push_str(&reg.to_json());
        for event in timeline.events() {
            if let Event::HedgeFlagged {
                at,
                target,
                mean_bps,
            } = event
            {
                pins.push_str(&format!(
                    "flagged t{target} at {at} mean_bps {:016x}\n",
                    mean_bps.to_bits()
                ));
            }
        }
        if name == "hedged-n1" {
            let h = out.hedge.as_ref().unwrap();
            assert!(!h.flagged.is_empty(), "the straggler run flags no target");
            assert!(h.redirects > 0, "the straggler run redirects no stream");
            check_golden(
                "tests/golden/hedge_n1_trace_seed7.json",
                timeline.to_chrome_trace().as_bytes(),
            );
        }
    }
    check_golden("tests/golden/hedge_runs_seed7.txt", pins.as_bytes());
}

#[test]
fn adaptive_logs_are_byte_identical_to_the_committed_golden() {
    // The adaptive-restriping counterpart: the seed-31 stream on the
    // storage-bound deployment, served online under `AdaptiveStriping`.
    // The feedback loop widens running applications mid-flight, and
    // every rule it fires is pure arithmetic over the observation — no
    // clock, no RNG — so both the decision log and the restripe log pin
    // the whole observe/decide/drain/redirect path to the byte.
    use beegfs_repro::sched::{AdaptiveStriping, AdmissionMode};
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.05,
        6,
        IorConfig::paper_default(4).with_total_bytes(8 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut fs = BeeGfs::new(
        presets::plafrim_omnipath(),
        DirConfig::plafrim_default(),
        plafrim_registration_order(),
    );
    let out = Scheduler::new(&mut fs, Box::<AdaptiveStriping>::default())
        .mode(AdmissionMode::Online)
        .serve(&stream, &factory)
        .unwrap();
    // The golden is only meaningful if the feedback loop actually acted.
    assert!(
        out.restripes.iter().any(|r| r.kind == "widen"),
        "the storage-bound stream must trigger widens"
    );
    check_golden(
        "tests/golden/adaptive_decisions_seed31.json",
        out.decision_log_json().as_bytes(),
    );
    check_golden(
        "tests/golden/adaptive_restripes_seed31.json",
        out.restripe_log_json().as_bytes(),
    );
    let ends = out
        .apps
        .iter()
        .map(|a| format!("{:016x}", a.end_s.to_bits()))
        .collect::<Vec<_>>()
        .join("\n");
    check_golden("tests/golden/adaptive_ends_seed31.txt", ends.as_bytes());
}

#[test]
fn faulted_online_logs_are_byte_identical_to_the_committed_golden() {
    // The online engine under a fault plan: the seed-31 stream on the
    // storage-bound deployment with a link degrade and restore, an
    // outage the client's retry probes survive (t1: down at 3.3 s,
    // back at 7.0 s, resumed by the 7.8 s probe), one that never ends
    // (t4: down at 4.0 s, evicted at the 9.0 s deadline), and a
    // transient straggler. Pins the timeline compiler's capacity
    // changes and evictions through both a feedback-free and a
    // feedback-driven policy.
    use beegfs_repro::cluster::TargetId;
    use beegfs_repro::core::FaultPlan;
    use beegfs_repro::ior::RetryPolicy;
    use beegfs_repro::sched::{AdaptiveStriping, AdmissionMode, PlacementPolicy};
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.3,
        6,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let plan = FaultPlan::new()
        .link_degraded(0.5, 0, 0.5)
        .unwrap()
        .link_restored(1.0, 0)
        .unwrap()
        .target_offline(3.3, TargetId(1))
        .unwrap()
        .target_recovers(7.0, TargetId(1))
        .unwrap()
        .target_offline(4.0, TargetId(4))
        .unwrap()
        .target_transient_straggler(18.8, TargetId(0), 0.2, 1.0)
        .unwrap();
    let policies: [(&str, Box<dyn PlacementPolicy>); 2] = [
        ("lls", Box::new(LeastLoadedServer)),
        ("adaptive", Box::<AdaptiveStriping>::default()),
    ];
    for (name, policy) in policies {
        let mut fs = BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        );
        let out = Scheduler::new(&mut fs, policy)
            .mode(AdmissionMode::Online)
            .faults(plan.clone())
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .serve(&stream, &factory)
            .unwrap();
        // The pin is only meaningful if the dead target forced a move.
        assert!(
            out.restripes.iter().any(|r| r.kind == "evict"),
            "{name}: the unrecovered outage must evict"
        );
        assert!(
            out.decisions.iter().any(|d| d.replaced),
            "{name}: the eviction must commit a replaced decision"
        );
        check_golden(
            &format!("tests/golden/online_faulted_{name}_decisions_seed31.json"),
            out.decision_log_json().as_bytes(),
        );
        check_golden(
            &format!("tests/golden/online_faulted_{name}_restripes_seed31.json"),
            out.restripe_log_json().as_bytes(),
        );
        let ends = out
            .apps
            .iter()
            .map(|a| format!("{:016x}", a.end_s.to_bits()))
            .collect::<Vec<_>>()
            .join("\n");
        check_golden(
            &format!("tests/golden/online_faulted_{name}_ends_seed31.txt"),
            ends.as_bytes(),
        );
    }
}

#[test]
fn fleet_scale_placement_logs_are_byte_identical_to_the_committed_golden() {
    // Every other scheduler golden runs on PlaFRIM's two servers, where
    // a wrong target→server mapping for servers ≥ 2 cannot show. This
    // one serves the seed-31 stream on the 100-server × 10-target
    // interference fleet through the online engine, under the first
    // fault episode of the `fleet_online` benchmark: server 0's ten
    // targets go offline at 1 s and recover at 6 s, past the 2 s retry
    // deadline (evictions and re-placements), and target 10 straggles
    // at 0.2× from 2 s to 6 s. One session per load-aware policy.
    use beegfs_repro::cluster::TargetId;
    use beegfs_repro::core::FaultPlan;
    use beegfs_repro::experiments::context::deploy_on;
    use beegfs_repro::experiments::fig_interference;
    use beegfs_repro::ior::RetryPolicy;
    use beegfs_repro::sched::{
        AdaptiveStriping, AdmissionMode, PlacementPolicy, RoundRobinServer, StragglerAware,
        UtilizationFeedback,
    };
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        20.0,
        60,
        IorConfig::paper_default(2)
            .with_ppn(4)
            .with_total_bytes(GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut plan = Ok(FaultPlan::new());
    for t in 0..10 {
        plan = plan
            .and_then(|p| p.target_offline(1.0, TargetId(t)))
            .and_then(|p| p.target_recovers(6.0, TargetId(t)));
    }
    let plan = plan
        .and_then(|p| p.target_transient_straggler(2.0, TargetId(10), 0.2, 4.0))
        .unwrap();
    let policies: [(&str, Box<dyn PlacementPolicy>); 5] = [
        ("rr", Box::<RoundRobinServer>::default()),
        ("lls", Box::new(LeastLoadedServer)),
        ("util", Box::new(UtilizationFeedback)),
        ("straggler", Box::new(StragglerAware)),
        ("adaptive", Box::<AdaptiveStriping>::default()),
    ];
    for (name, policy) in policies {
        let platform = fig_interference::fleet_spec().build().unwrap();
        let mut fs = deploy_on(platform, 4, ChooserKind::Random);
        let out = Scheduler::new(&mut fs, policy)
            .mode(AdmissionMode::Online)
            .faults(plan.clone())
            .max_concurrent(25)
            .retry(RetryPolicy {
                deadline_s: 2.0,
                ..RetryPolicy::default()
            })
            .serve(&stream, &factory)
            .unwrap();
        // The pin is only meaningful if the outage forced re-placements.
        assert!(
            out.decisions.iter().any(|d| d.replaced),
            "{name}: the outage must commit a replaced decision"
        );
        check_golden(
            &format!("tests/golden/fleet_faulted_{name}_decisions_seed31.json"),
            out.decision_log_json().as_bytes(),
        );
        check_golden(
            &format!("tests/golden/fleet_faulted_{name}_restripes_seed31.json"),
            out.restripe_log_json().as_bytes(),
        );
        let ends = out
            .apps
            .iter()
            .map(|a| format!("{:016x}", a.end_s.to_bits()))
            .collect::<Vec<_>>()
            .join("\n");
        check_golden(
            &format!("tests/golden/fleet_faulted_{name}_ends_seed31.txt"),
            ends.as_bytes(),
        );
    }
}

#[test]
fn scheduler_lifecycle_traces_and_metrics_are_byte_identical_to_the_committed_golden() {
    // The admission lifecycle itself — arrival, queueing, admission,
    // placement, re-placement, restripe and release events, and the
    // `sched.*` metrics — pinned in both admission modes. The stream is
    // the faulted pin's plan under a concurrency cap of two, so every
    // session queues, evicts and re-places; the adaptive one restripes.
    use beegfs_repro::cluster::TargetId;
    use beegfs_repro::core::FaultPlan;
    use beegfs_repro::ior::RetryPolicy;
    use beegfs_repro::obs::metrics::MetricsRegistry;
    use beegfs_repro::obs::{EventKind, Timeline};
    use beegfs_repro::sched::{AdaptiveStriping, AdmissionMode, StragglerAware};
    let factory = RngFactory::new(31);
    let stream = ArrivalStream::poisson(
        0.3,
        8,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let plan = FaultPlan::new()
        .link_degraded(0.5, 0, 0.5)
        .unwrap()
        .link_restored(1.0, 0)
        .unwrap()
        .target_offline(3.3, TargetId(1))
        .unwrap()
        .target_recovers(7.0, TargetId(1))
        .unwrap()
        .target_offline(4.0, TargetId(4))
        .unwrap()
        .target_transient_straggler(18.8, TargetId(0), 0.2, 1.0)
        .unwrap();
    for name in [
        "frozen_lls",
        "frozen_hedged",
        "online_lls",
        "online_adaptive",
    ] {
        let mut fs = BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        );
        let mut timeline = Timeline::new();
        let mut reg = MetricsRegistry::new();
        let sched = match name {
            "frozen_lls" => Scheduler::new(&mut fs, Box::new(LeastLoadedServer)),
            "frozen_hedged" => Scheduler::new(&mut fs, Box::new(StragglerAware)).hedge(),
            "online_lls" => {
                Scheduler::new(&mut fs, Box::new(LeastLoadedServer)).mode(AdmissionMode::Online)
            }
            _ => Scheduler::new(&mut fs, Box::<AdaptiveStriping>::default())
                .mode(AdmissionMode::Online),
        };
        let out = sched
            .max_concurrent(2)
            .faults(plan.clone())
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .trace(&mut timeline)
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        // The pin is only meaningful if the session exercised the queue,
        // a fault re-placement and, adaptively, a restripe.
        assert!(
            timeline.count(EventKind::SchedQueued) >= 1,
            "{name}: no arrival queued"
        );
        assert!(
            out.decisions.iter().any(|d| d.replaced),
            "{name}: no replaced decision"
        );
        if name == "online_adaptive" {
            assert!(
                timeline.count(EventKind::SchedRestriped) >= 1,
                "{name}: no restripe"
            );
        }
        let events = serde_json::to_string(timeline.events()).unwrap();
        check_golden(
            &format!("tests/golden/lifecycle_{name}_trace_seed31.json"),
            events.as_bytes(),
        );
        check_golden(
            &format!("tests/golden/lifecycle_{name}_metrics_seed31.json"),
            reg.to_json().as_bytes(),
        );
        check_golden(
            &format!("tests/golden/lifecycle_{name}_decisions_seed31.json"),
            out.decision_log_json().as_bytes(),
        );
        check_golden(
            &format!("tests/golden/lifecycle_{name}_restripes_seed31.json"),
            out.restripe_log_json().as_bytes(),
        );
        let apps = out
            .apps
            .iter()
            .map(|a| {
                format!(
                    "{:016x} {:016x} {:016x} {:016x}",
                    a.end_s.to_bits(),
                    a.admit_s.to_bits(),
                    a.slowdown.to_bits(),
                    a.duration_s.to_bits()
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        check_golden(
            &format!("tests/golden/lifecycle_{name}_apps_seed31.txt"),
            apps.as_bytes(),
        );
    }
}

#[test]
fn campaign_cache_record_is_byte_identical_to_the_pre_rework_golden() {
    // One small campaign persisted through the content-addressed store:
    // both the cell key (cache identity) and the serialized record bytes
    // (simulated bandwidths included) must match the pre-change capture.
    use beegfs_repro::experiments::campaign::{cell_key, Campaign, CampaignEngine, CellConfig};
    let campaign = Campaign::new("golden-pin", 42).cell(
        "S1Ethernet-n2-p8",
        CellConfig::new(
            Scenario::S1Ethernet,
            4,
            ChooserKind::RoundRobin,
            IorConfig::paper_default(2),
        ),
        3,
    );
    let key = cell_key(&campaign.name, campaign.seed, &campaign.cells[0]);
    check_golden("tests/golden/campaign_cell_key.txt", key.as_bytes());

    let root = std::env::temp_dir().join(format!("beegfs-golden-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = CampaignEngine::with_store(&root).unwrap();
    engine.run(&campaign).unwrap();
    let record_path = root.join(&key[..2]).join(format!("{key}.json"));
    let bytes = std::fs::read(&record_path)
        .unwrap_or_else(|e| panic!("stored cell record {} missing: {e}", record_path.display()));
    check_golden("tests/golden/campaign_cell_record.json", &bytes);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn paper_grid_reps_are_byte_identical_to_the_committed_golden() {
    // Every Fig 4/6/11 cell the campaign path serves, two reps each,
    // one line per (cell, rep): bandwidth and simulated-time bits, the
    // allocation label and the cell's event count, so a moved bit
    // names its cell.
    use beegfs_repro::experiments::{fig04_nodes, fig11_nodes_stripe};
    let ctx = ExpCtx::quick(2);
    let campaigns = [
        fig04_nodes::campaign(&ctx, Scenario::S1Ethernet, 8),
        fig04_nodes::campaign(&ctx, Scenario::S2Omnipath, 8),
        fig06_stripe::campaign(&ctx, Scenario::S1Ethernet, ChooserKind::RoundRobin),
        fig06_stripe::campaign(&ctx, Scenario::S2Omnipath, ChooserKind::RoundRobin),
        fig11_nodes_stripe::campaign(&ctx),
    ];
    let engine = CampaignEngine::in_memory();
    let mut out = String::new();
    for campaign in &campaigns {
        let outcome = engine.run(campaign).unwrap();
        for (cell, metrics) in outcome.cells.iter().zip(&outcome.cell_metrics) {
            for (k, rep) in cell.reps.iter().enumerate() {
                let apps: Vec<String> = rep
                    .apps
                    .iter()
                    .map(|a| format!("{:016x} {}", a.mib_s.to_bits(), a.allocation))
                    .collect();
                out.push_str(&format!(
                    "{}/{} rep{k} {} {:016x} events={}\n",
                    campaign.name,
                    cell.label,
                    apps.join(" "),
                    rep.sim_secs.to_bits(),
                    metrics.sim_events
                ));
            }
        }
    }
    assert_eq!(out.lines().count(), 62 * 2, "one line per cell and rep");
    check_golden("tests/golden/paper_grid_reps.txt", out.as_bytes());
}

#[test]
fn figure_outputs_are_byte_identical_to_the_committed_golden() -> Result<(), CampaignError> {
    // The figures outside the paper grid, two reps each: one line per
    // figure, its name and its serialized output, so a moved bit names
    // its figure.
    use beegfs_repro::experiments::{
        chowdhury, fig02_datasize, fig12_concurrent, future_nn, future_reads, lessons,
        metadata_motivation, policy,
    };
    let ctx = ExpCtx::quick(2);
    let engine = CampaignEngine::in_memory();
    let mut out = String::new();
    macro_rules! line {
        ($name:expr, $fig:expr) => {
            out.push_str(&format!(
                "{} {}\n",
                $name,
                serde_json::to_string(&$fig).unwrap()
            ))
        };
    }
    for s in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        line!(
            format!("fig02/{s:?}"),
            fig02_datasize::run(&engine, &ctx, s)?
        );
        line!(format!("policy/{s:?}"), policy::run(&engine, &ctx, s)?);
        line!(format!("reads/{s:?}"), future_reads::run(&engine, &ctx, s)?);
        line!(format!("nn/{s:?}"), future_nn::run(&engine, &ctx, s)?);
    }
    line!("metadata", metadata_motivation::run(&engine, &ctx)?);
    line!("chowdhury", chowdhury::run(&engine, &ctx)?);
    line!("fig12", fig12_concurrent::run(&ctx));
    line!("lessons", lessons::run(&engine, &ctx)?);
    check_golden("tests/golden/figures_quick2.txt", out.as_bytes());
    Ok(())
}

/// Append `<name> <json>` to a pin file, after checking that the JSON
/// reads back as `$ty` and re-serializes to the same bytes.
macro_rules! pin {
    ($out:expr, $name:expr, $ty:ty, $value:expr) => {{
        let name: &str = $name;
        let json = serde_json::to_string(&$value).expect("pinned values serialize");
        let back: $ty = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{name} does not read back: {e}\n{json}"));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "{name} does not read back into the same bytes"
        );
        $out.push_str(&format!("{name} {json}\n"));
        json
    }};
}

#[test]
fn serialized_shapes_are_byte_identical_to_the_committed_golden() {
    // Every serialized type behind a cache key or a stored record, in
    // each shape it takes: each campaign builder and its cell keys,
    // fleet specs, a non-blocking platform, and records with and without
    // their optional fields. A shape without an optional key reads back,
    // so payloads written before that key existed still load.
    use beegfs_repro::cluster::{FleetSpec, NetworkSpec, Platform};
    use beegfs_repro::experiments::campaign::{
        cell_key, AppRecord, Campaign, CellConfig, CellMetrics, RepRecord, SchedPolicyKind,
        SchedWorkload, TailMetrics,
    };
    use beegfs_repro::experiments::{
        fig04_nodes, fig11_nodes_stripe, fig_adaptive, fig_interference, fig_sched, fig_straggler,
    };
    use beegfs_repro::ior::RetryPolicy;
    use beegfs_repro::sched::AdmissionMode;

    let ctx = ExpCtx::quick(2);
    let hedged_online = Campaign::new("hedged-online", 7).cell(
        "hedged",
        CellConfig::new(
            Scenario::S1Ethernet,
            4,
            ChooserKind::Random,
            IorConfig::paper_default(2),
        )
        .with_policy(RetryPolicy::default())
        .with_sched(SchedWorkload {
            policy: SchedPolicyKind::StragglerAware,
            rate_per_s: 0.5,
            count: 8,
            stripe: 4,
            hedge: true,
            mode: AdmissionMode::Online,
        }),
        2,
    );
    let campaigns = [
        fig04_nodes::campaign(&ctx, Scenario::S1Ethernet, 8),
        fig06_stripe::campaign(&ctx, Scenario::S2Omnipath, ChooserKind::RoundRobin),
        fig11_nodes_stripe::campaign(&ctx),
        fig_adaptive::campaign(&ctx),
        fig_interference::campaign(&ctx),
        fig_sched::campaign(&ctx, AdmissionMode::FrozenOracle),
        fig_sched::campaign(&ctx, AdmissionMode::Online),
        fig_straggler::campaign(&ctx),
        hedged_online,
    ];
    let mut out = String::new();
    for (i, c) in campaigns.iter().enumerate() {
        let name = format!("campaign/{i}/{}", c.name);
        pin!(out, &name, Campaign, c);
        for cell in &c.cells {
            let key = cell_key(&c.name, c.seed, cell);
            out.push_str(&format!("key/{i}/{}/{} {key}\n", c.name, cell.label));
        }
    }

    let fleet = pin!(
        out,
        "fleet/interference",
        FleetSpec,
        fig_interference::fleet_spec()
    );
    pin!(out, "fleet/bare", FleetSpec, FleetSpec::new("bare"));
    // The fleet's 100 servers are identical, so the first one stands for
    // all of them.
    let mut platform = fig_interference::fleet_spec().build().unwrap();
    assert!(platform.servers.iter().all(|s| *s == platform.servers[0]));
    platform.servers.truncate(1);
    pin!(
        out,
        "platform/interference-first-server",
        Platform,
        platform
    );
    pin!(
        out,
        "network/plafrim-ethernet",
        NetworkSpec,
        presets::plafrim_ethernet().network
    );

    let plain = RepRecord {
        apps: vec![AppRecord {
            mib_s: 1457.25,
            allocation: "(1,3)".to_string(),
            balance: 1.0 / 3.0,
        }],
        aggregate_mib_s: 1457.25,
        sim_secs: 7.5,
        slowdowns: None,
        waits: None,
    };
    let rep = pin!(out, "rep/plain", RepRecord, plain);
    pin!(
        out,
        "rep/scheduled",
        RepRecord,
        RepRecord {
            slowdowns: Some(vec![1.0, 1.75]),
            waits: Some(vec![0.0, 0.5]),
            ..plain.clone()
        }
    );
    let metrics = CellMetrics {
        label: "cell".to_string(),
        key: "d3d1023878499753f66b08ffbc4f4bd9".to_string(),
        reps_requested: 4,
        reps_cached: 1,
        reps_computed: 3,
        compute_secs: 0.5,
        sim_secs: 21.0,
        sim_events: 1234,
        failed: false,
        tail: None,
        wait_tail: None,
    };
    pin!(out, "metrics/plain", CellMetrics, metrics);
    pin!(
        out,
        "metrics/scheduled",
        CellMetrics,
        CellMetrics {
            tail: TailMetrics::from_slowdowns(&[1.0, 1.5, 2.0, 4.0]),
            wait_tail: TailMetrics::from_sample(&[0.0, 0.25, 0.5, 3.0]),
            ..metrics.clone()
        }
    );
    check_golden("tests/golden/serde_shapes.txt", out.as_bytes());

    // Required keys stay required.
    let without = |json: &str, entry: &str| {
        let cut = json.replace(entry, "");
        assert_ne!(cut, json, "`{entry}` is not in the pinned payload");
        cut
    };
    let cell = serde_json::to_string(&campaigns[0].cells[0].config).unwrap();
    let cell = without(&cell, ",\"faults\":null");
    assert!(serde_json::from_str::<CellConfig>(&cell).is_err());
    let rep = without(&rep, ",\"sim_secs\":7.5");
    assert!(serde_json::from_str::<RepRecord>(&rep).is_err());
    let fleet = without(&fleet, "\"racks\":10,");
    assert!(serde_json::from_str::<FleetSpec>(&fleet).is_err());
}

#[test]
fn chooser_state_isolated_between_deployments() {
    // Two fresh deployments with the same seed make the same choices;
    // consuming randomness in one never affects the other.
    let mk = || {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig {
                pattern: beegfs_repro::core::StripePattern::new(4, 512 * 1024),
                chooser: ChooserKind::Random,
            },
            plafrim_registration_order(),
        )
    };
    let mut fs1 = mk();
    let mut fs2 = mk();
    let mut r1 = RngFactory::new(5).stream("iso", 0);
    let mut r2 = RngFactory::new(5).stream("iso", 0);
    for _ in 0..10 {
        let (f1, _) = fs1.create_file(&mut r1).unwrap();
        let (f2, _) = fs2.create_file(&mut r2).unwrap();
        assert_eq!(f1.targets, f2.targets);
    }
}
