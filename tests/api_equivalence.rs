//! The `Run` builder is pinned against recorded goldens: fingerprints
//! captured from the (now removed) free-function entry points before
//! their deletion. Any drift in the builder's RNG discipline, flow
//! emission order, or accounting shows up as a bit-level mismatch here.
//! The panicking accessors' replacements must return typed errors
//! instead of aborting.

use beegfs_repro::cluster::{presets, TargetId};
use beegfs_repro::core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use beegfs_repro::ior::{AppSpec, IorConfig, Placement, RetryPolicy, Run, RunError, RunOutcome};
use beegfs_repro::simcore::rng::RngFactory;

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

/// Bit-exact fingerprint of one application's result:
/// `(bandwidth bits, duration bits, bytes, file target ids)`.
type AppFingerprint = (u64, u64, u64, Vec<Vec<u32>>);

/// Bit-exact fingerprint of a whole outcome.
fn fingerprint(out: &RunOutcome) -> (u64, Vec<AppFingerprint>) {
    (
        out.aggregate.bytes_per_sec().to_bits(),
        out.apps
            .iter()
            .map(|a| {
                (
                    a.bandwidth.bytes_per_sec().to_bits(),
                    a.duration_s.to_bits(),
                    a.bytes,
                    a.file_targets
                        .iter()
                        .map(|f| f.iter().map(|t| t.0).collect())
                        .collect(),
                )
            })
            .collect(),
    )
}

const GIB32: u64 = 34_359_738_368;

#[test]
fn builder_matches_recorded_single_run_goldens_bit_for_bit() {
    // Captured from `run_single(&mut deploy(4), &paper_default(8), rng)`
    // with `RngFactory::new(7).stream("eq-single", rep)`.
    let golden: [(u64, u64); 4] = [
        (0x41f1e0c146fc474f, 0x401ca37d5c0f3d4d),
        (0x41f2d61c24b775d6, 0x401b2e74524020fd),
        (0x41f0af3b213a89b4, 0x401eafea829f74cb),
        (0x41f289efc431bf6f, 0x401b9e239e5d39e3),
    ];
    let cfg = IorConfig::paper_default(8);
    for (rep, &(bw, dur)) in golden.iter().enumerate() {
        let mut rng = RngFactory::new(7).stream("eq-single", rep as u64);
        let (out, _) = Run::new(&mut deploy(4)).app(cfg).execute(&mut rng).unwrap();
        assert_eq!(
            fingerprint(&out),
            (bw, vec![(bw, dur, GIB32, vec![vec![0, 4, 5, 6]])]),
            "single-app golden drifted at rep {rep}"
        );
    }
}

#[test]
fn builder_matches_recorded_concurrent_goldens_bit_for_bit() {
    // Captured from `run_concurrent` over two Deferred apps with
    // `RngFactory::new(8).stream("eq-conc", rep)`.
    #[allow(clippy::type_complexity)]
    let golden: [(u64, [(u64, u64, [u32; 4]); 2]); 4] = [
        (
            0x42017533b11c2914,
            [
                (0x41f1bdd01ee29168, 0x401cdbe4d1a597be, [0, 4, 5, 6]),
                (0x41f17533b11c2914, 0x401d53ecc0902fa1, [7, 1, 2, 3]),
            ],
        ),
        (
            0x41f14614f1c001f8,
            [
                (0x41e162a2b621a991, 0x402d733eb664b5e4, [0, 4, 5, 6]),
                (0x41e14614f1c001f8, 0x402da3ed325c8be0, [0, 4, 5, 6]),
            ],
        ),
        (
            0x420080a396c70b53,
            [
                (0x41f088308c89ef6b, 0x401ef862bf740911, [7, 1, 2, 3]),
                (0x41f080a396c70b53, 0x401f068e562559ae, [0, 4, 5, 6]),
            ],
        ),
        (
            0x420189e257a4b05e,
            [
                (0x41f1e558e04b763a, 0x401c9c240f1e7900, [7, 1, 2, 3]),
                (0x41f189e257a4b05e, 0x401d31571b937e7c, [0, 4, 5, 6]),
            ],
        ),
    ];
    let cfg = IorConfig::paper_default(8);
    for (rep, (agg, apps)) in golden.iter().enumerate() {
        let mut rng = RngFactory::new(8).stream("eq-conc", rep as u64);
        let (out, _) = Run::new(&mut deploy(4))
            .app(AppSpec::new(cfg))
            .app(AppSpec::new(cfg))
            .execute(&mut rng)
            .unwrap();
        let expect = (
            *agg,
            apps.iter()
                .map(|&(bw, dur, t)| (bw, dur, GIB32, vec![t.to_vec()]))
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            fingerprint(&out),
            expect,
            "concurrent golden drifted at rep {rep}"
        );
    }
}

#[test]
fn builder_matches_recorded_faulted_goldens_bit_for_bit() {
    // Captured from `run_single_faulted` / `run_concurrent_faulted` with
    // a t2 outage at 3s recovering at 18s, deadline 300s.
    let cfg = IorConfig::paper_default(8);
    let plan = FaultPlan::new()
        .target_offline(3.0, TargetId(2))
        .unwrap()
        .target_recovers(18.0, TargetId(2))
        .unwrap();
    let policy = RetryPolicy {
        deadline_s: 300.0,
        ..RetryPolicy::default()
    };

    let mut rng = RngFactory::new(9).stream("eq-fault", 0);
    let (out, _) = Run::new(&mut deploy(4))
        .app(cfg)
        .faults(plan.clone())
        .policy(policy)
        .execute(&mut rng)
        .unwrap();
    assert_eq!(
        fingerprint(&out),
        (
            0x41f0a3991a7e02f7,
            vec![(
                0x41f0a3991a7e02f7,
                0x401ec55ed77ea6f3,
                GIB32,
                vec![vec![0, 4, 5, 6]]
            )]
        ),
        "single faulted golden drifted"
    );

    let apps = [(cfg, Placement::Deferred), (cfg, Placement::Deferred)];
    let mut rng = RngFactory::new(9).stream("eq-fault-conc", 0);
    let (out, telemetry) = Run::new(&mut deploy(4))
        .apps(apps.iter().cloned())
        .faults(plan)
        .policy(policy)
        .utilization()
        .execute(&mut rng)
        .unwrap();
    let telemetry = telemetry.expect("the run asked for its utilization");
    assert_eq!(
        fingerprint(&out),
        (
            0x41e46170c444dd87,
            vec![
                (
                    0x41d46170c444dd87,
                    0x40391f349b91c51d,
                    GIB32,
                    vec![vec![7, 1, 2, 3]]
                ),
                (
                    0x41f1f4de9b8b0925,
                    0x401c8368c1d81187,
                    GIB32,
                    vec![vec![0, 4, 5, 6]]
                ),
            ]
        ),
        "concurrent faulted golden drifted"
    );
    assert_eq!(telemetry.io_secs.to_bits(), 0x4038fe6cec4515bc);
}

#[test]
fn zero_start_time_is_the_identity_of_the_staggered_path() {
    // `AppSpec::starting_at(0.0)` must be bit-identical to the default:
    // the staggered-start accounting degenerates exactly to the old math.
    let cfg = IorConfig::paper_default(8);
    let mut rng = RngFactory::new(7).stream("eq-single", 0);
    let (out, _) = Run::new(&mut deploy(4))
        .app(AppSpec::new(cfg).starting_at(0.0))
        .execute(&mut rng)
        .unwrap();
    assert_eq!(
        out.try_single()
            .unwrap()
            .bandwidth
            .bytes_per_sec()
            .to_bits(),
        0x41f1e0c146fc474f
    );
}

#[test]
fn try_single_reports_the_app_count_instead_of_panicking() {
    let cfg = IorConfig::paper_default(8);
    let mut fs = deploy(4);
    let mut rng = RngFactory::new(10).stream("eq-try", 0);
    let (out, telemetry) = Run::new(&mut fs)
        .app(cfg)
        .app(cfg)
        .utilization()
        .execute(&mut rng)
        .unwrap();
    let telemetry = telemetry.expect("the run asked for its utilization");
    match out.try_single() {
        Err(RunError::NotSingleApp { apps }) => assert_eq!(apps, 2),
        other => panic!("expected NotSingleApp, got {other:?}"),
    }
    // The happy path of the telemetry accessor still works.
    assert!(telemetry.try_busiest().unwrap().bytes > 0.0);
}

#[test]
fn try_busiest_reports_an_empty_report_as_a_typed_error() {
    let empty = beegfs_repro::ior::UtilizationReport {
        resources: Vec::new(),
        io_secs: 0.0,
    };
    assert!(matches!(empty.try_busiest(), Err(RunError::EmptyReport)));
}
