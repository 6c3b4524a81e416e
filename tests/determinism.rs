//! Reproducibility guarantees: identical seeds give bit-identical
//! results regardless of parallelism, and results serialize round-trip.

use beegfs_repro::cluster::presets;
use beegfs_repro::core::{plafrim_registration_order, BeeGfs, ChooserKind, DirConfig};
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

#[test]
fn experiments_are_reproducible_across_invocations() {
    // The rayon-parallel harness must not introduce scheduling
    // dependence: two full executions of a figure agree exactly.
    let ctx = ExpCtx::quick(6);
    let a = fig06_stripe::run(&ctx, Scenario::S1Ethernet);
    let b = fig06_stripe::run(&ctx, Scenario::S1Ethernet);
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
    let a = fig06_stripe::run(&ExpCtx::quick(12), Scenario::S2Omnipath);
    let b = fig06_stripe::run(&ExpCtx::quick(4), Scenario::S2Omnipath);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (sa, sb) in pa.samples.iter().take(4).zip(&pb.samples) {
            assert_eq!(sa.mib_s, sb.mib_s);
        }
    }
}

#[test]
fn figure_results_serialize_round_trip() {
    let fig = fig06_stripe::run(&ExpCtx::quick(3), Scenario::S1Ethernet);
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
    use beegfs_repro::ior::HedgeConfig;
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
        .hedge(HedgeConfig::default())
        .serve(&stream, &factory)
        .unwrap();
    check_golden(
        "tests/golden/sched_hedged_decisions_seed31.json",
        out.decision_log_json().as_bytes(),
    );
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
