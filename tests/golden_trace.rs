//! The tracing contract, end to end: the event stream is a pure function
//! of the seed (golden-trace determinism), its per-resource byte
//! integrals agree with the aggregate `UtilizationReport`, and a faulty
//! run surfaces the full fault/retry/flow vocabulary.

use beegfs_repro::experiments::context::outage_run;
use beegfs_repro::ior::UtilizationReport;
use beegfs_repro::obs::{EventKind, Timeline};
use beegfs_repro::simcore::rng::RngFactory;

/// The `repro --trace` run: scenario 1, stripe 4, a pinned (2,2)
/// allocation, one target dark from t=2s to t=9s, default retry policy.
fn traced_run(seed: u64) -> (Timeline, UtilizationReport) {
    let mut timeline = Timeline::new();
    let mut rng = RngFactory::new(seed).stream("trace", 0);
    let (_, report) = outage_run(&mut rng, |run| run.trace(&mut timeline).utilization()).unwrap();
    (timeline, report.expect("the run asked for its utilization"))
}

#[test]
fn same_seed_produces_a_byte_identical_trace() {
    let (a, _) = traced_run(7);
    let (b, _) = traced_run(7);
    assert_eq!(a.events(), b.events(), "event streams diverged");
    assert_eq!(
        a.to_chrome_trace(),
        b.to_chrome_trace(),
        "rendered traces diverged"
    );
    // A different seed produces a different stream (noise draws differ).
    let (c, _) = traced_run(8);
    assert_ne!(a.events(), c.events());
}

#[test]
fn trace_byte_integrals_match_the_utilization_report() {
    let (timeline, report) = traced_run(7);
    assert!(timeline.label(0).is_some(), "resource metadata recorded");
    for (i, usage) in report.resources.iter().enumerate() {
        let integral = timeline.bytes_through(i as u32);
        assert_eq!(timeline.label(i as u32), Some(usage.label.as_str()));
        if usage.bytes < 1.0 {
            assert!(
                integral < 1.0,
                "{}: trace saw {integral} B, report ~0",
                usage.label
            );
            continue;
        }
        let rel = (integral - usage.bytes).abs() / usage.bytes;
        assert!(
            rel < 1e-6,
            "{}: trace integral {integral} vs report {} ({rel} relative)",
            usage.label,
            usage.bytes
        );
    }
}

#[test]
fn a_faulty_run_emits_the_full_event_vocabulary() {
    let (timeline, _) = traced_run(7);
    assert!(timeline.count(EventKind::TargetOffline) >= 1);
    assert!(timeline.count(EventKind::TargetOnline) >= 1);
    assert!(timeline.count(EventKind::StallObserved) >= 1);
    assert!(timeline.count(EventKind::RetryProbe) >= 1);
    assert!(timeline.count(EventKind::RetryResumed) >= 1);
    let starts = timeline.count(EventKind::FlowStart);
    assert!(starts > 0);
    assert_eq!(starts, timeline.count(EventKind::FlowEnd));
    assert!(timeline.count(EventKind::RateChange) > 0);
    assert!(timeline.spans().iter().any(|(name, _, _)| *name == "io"));
    assert!(!timeline.completions().is_empty());
    assert!(timeline.io_end() > 0 && timeline.end() >= timeline.io_end());
}

/// Compare `actual` against a committed golden file, or regenerate the
/// golden when `GOLDEN_REGEN=1` is set in the environment. Goldens were
/// captured before the incremental solver / indexed event heap landed,
/// so this pins the rework to the byte.
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
        "{rel_path} diverged from the committed golden ({} vs {} bytes); \
         the solver/event-queue rework must leave traces byte-identical",
        expected.len(),
        actual.len()
    );
}

#[test]
fn utilization_report_is_byte_identical_to_the_committed_golden() {
    // The aggregate side of the same scenario: every resource's label
    // and the bits of its bytes, busy seconds and mean busy rate, in
    // fabric order, then the I/O phase length.
    let (_, report) = traced_run(7);
    let mut out = String::new();
    for r in &report.resources {
        out.push_str(&format!(
            "{} {:016x} {:016x} {:016x}\n",
            r.label,
            r.bytes.to_bits(),
            r.busy_secs.to_bits(),
            r.mean_busy_bps.to_bits()
        ));
    }
    out.push_str(&format!("io_secs {:016x}\n", report.io_secs.to_bits()));
    check_golden(
        "tests/golden/utilization_scenario1_seed7.txt",
        out.as_bytes(),
    );
}

#[test]
fn chrome_trace_is_byte_identical_to_the_pre_rework_golden() {
    // The full Perfetto rendering of the pinned fault/retry scenario:
    // every timestamp, rate sample, and retry event must match the bytes
    // captured before the allocation-free incremental solver existed.
    let (timeline, _) = traced_run(7);
    check_golden(
        "tests/golden/trace_scenario1_seed7.json",
        timeline.to_chrome_trace().as_bytes(),
    );
}
