//! Tracing overhead check: the same scenario-1 stripe-4 run with no
//! recorder attached vs. recording into an [`obs::Timeline`].
//!
//! It runs a fixed number of seeded runs per
//! mode and writes `BENCH_trace_overhead.json` at the repository root.
//! The run fails (exit 1) when the traced overhead exceeds the
//! `max_overhead_frac` threshold committed in that file, so emission-path
//! regressions fail CI instead of silently accumulating. (The recorded
//! overhead sat near 3% when tracing landed, then crept to ~23% as later
//! PRs made the *untraced* solve ~10x faster around a sampler that still
//! scanned every resource; the sampler now walks only the touched set
//! and the measured overhead is back to a few percent.)

use beegfs_core::FaultPlan;
use bench::{extract_f64, median};
use cluster::TargetId;
use ior::{AppSpec, IorConfig, RetryPolicy, Run};
use simcore::rng::RngFactory;
use std::time::Instant;

const RUNS: usize = 9;

fn scenario() -> beegfs_core::BeeGfs {
    experiments::context::deploy(
        experiments::Scenario::S1Ethernet,
        4,
        beegfs_core::ChooserKind::RoundRobin,
    )
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        .target_offline(2.0, TargetId(1))
        .expect("valid fault time")
        .target_recovers(9.0, TargetId(1))
        .expect("valid recovery time")
}

fn one_run(seed: u64, timeline: Option<&mut obs::Timeline>) -> f64 {
    let mut fs = scenario();
    let mut rng = RngFactory::new(seed).stream("trace-overhead", 0);
    let run = Run::new(&mut fs)
        .app(AppSpec::pinned(
            IorConfig::paper_default(8),
            vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
        ))
        .faults(plan())
        .policy(RetryPolicy::default());
    let run = match timeline {
        Some(t) => run.trace(t),
        None => run,
    };
    let start = Instant::now();
    let (out, _) = run.execute(&mut rng).expect("bench run");
    assert!(out.sim_events > 0);
    start.elapsed().as_secs_f64()
}

fn main() {
    // Warm up caches/allocator before timing anything.
    for seed in 0..2 {
        one_run(seed, None);
        one_run(seed, Some(&mut obs::Timeline::new()));
    }
    let mut untraced_a = Vec::with_capacity(RUNS);
    let mut untraced_b = Vec::with_capacity(RUNS);
    let mut traced = Vec::with_capacity(RUNS);
    // Interleave the modes so drift (thermal, scheduler) hits all of
    // them. Two untraced series bound the measurement noise: the real
    // no-recorder overhead (an `Option` check plus a counter increment
    // per event) cannot be resolved below that spread.
    for seed in 0..RUNS as u64 {
        untraced_a.push(one_run(seed, None));
        let mut timeline = obs::Timeline::new();
        traced.push(one_run(seed, Some(&mut timeline)));
        assert!(!timeline.is_empty(), "traced run recorded nothing");
        untraced_b.push(one_run(seed, None));
    }
    let untraced_ms = median(untraced_a) * 1e3;
    let untraced_b_ms = median(untraced_b) * 1e3;
    let noise = (untraced_b_ms / untraced_ms - 1.0).abs();
    let traced_ms = median(traced) * 1e3;
    let overhead = traced_ms / untraced_ms - 1.0;
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace_overhead.json"
    );
    // Gate against the threshold committed with the previous numbers
    // (generous vs. the measured few percent: single-digit-millisecond
    // medians jitter, and the gate is for drift, not noise).
    let max_overhead = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "max_overhead_frac"))
        .unwrap_or(0.15);
    let json = format!(
        "{{\n  \"runs\": {RUNS},\n  \"untraced_ms\": {untraced_ms:.3},\n  \
         \"untraced_ab_spread_frac\": {noise:.4},\n  \
         \"traced_ms\": {traced_ms:.3},\n  \"traced_overhead_frac\": {overhead:.4},\n  \
         \"max_overhead_frac\": {max_overhead}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!("untraced median {untraced_ms:.2} ms, traced median {traced_ms:.2} ms ({:+.1}% with a recorder attached)", overhead * 100.0);
    println!("wrote {out}");
    if overhead > max_overhead {
        eprintln!(
            "FAIL: traced overhead {:.1}% exceeds the committed {:.1}% threshold",
            overhead * 100.0,
            max_overhead * 100.0
        );
        std::process::exit(1);
    }
}
