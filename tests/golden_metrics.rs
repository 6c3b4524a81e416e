//! The metrics contract, end to end: a run's registry snapshot is a
//! pure function of the seed, the JSON export is byte-stable, and the
//! committed golden pins the `repro --metrics` output so instrumentation
//! regressions (renamed metrics, bucket-layout drift, counter changes)
//! fail loudly instead of silently rewriting dashboards.

use beegfs_repro::experiments::context::outage_run;
use beegfs_repro::obs::metrics::MetricsRegistry;
use beegfs_repro::simcore::rng::RngFactory;

/// The `repro --metrics` run: the same pinned scenario-1 stripe-4
/// fault/retry run as `repro --trace`, with a registry attached.
fn metered_run(seed: u64) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let mut rng = RngFactory::new(seed).stream("trace", 0);
    outage_run(&mut rng, |run| run.metrics(&mut registry)).unwrap();
    registry
}

#[test]
fn same_seed_produces_a_byte_identical_snapshot() {
    let a = metered_run(7);
    let b = metered_run(7);
    assert_eq!(a.to_json(), b.to_json(), "JSON snapshots diverged");
    assert_eq!(
        a.to_prometheus(),
        b.to_prometheus(),
        "Prometheus expositions diverged"
    );
    // No different-seed inequality check: log-bucketed histograms absorb
    // the per-seed noise on purpose (nearby seeds usually snapshot
    // identically), which is what makes the export golden-pinnable at
    // all without freezing the noise model.
}

/// Compare `actual` against a committed golden file, or regenerate the
/// golden when `GOLDEN_REGEN=1` is set in the environment.
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
         metric names, bucket layout and counters are a pinned interface",
        expected.len(),
        actual.len()
    );
}

#[test]
fn metrics_snapshot_is_byte_identical_to_the_committed_golden() {
    let registry = metered_run(7);
    check_golden(
        "tests/golden/metrics_scenario1_seed7.json",
        registry.to_json().as_bytes(),
    );
}

#[test]
fn prometheus_exposition_is_byte_identical_to_the_committed_golden() {
    let registry = metered_run(7);
    check_golden(
        "tests/golden/metrics_scenario1_seed7.prom",
        registry.to_prometheus().as_bytes(),
    );
}
