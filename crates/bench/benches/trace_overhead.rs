//! Tracing overhead check: the same scenario-1 stripe-4 run with no
//! recorder attached vs. recording into an [`obs::Timeline`].
//!
//! Each round times a batch of untraced repetitions and a batch of
//! traced ones over the same seeds, back to back on the process CPU
//! clock (which leg goes first alternates), so both legs see the same
//! host phase and each lasts long enough for the clock to resolve. It writes `BENCH_trace_overhead.json` at the
//! repository root and fails (exit 1) when the median over rounds of a
//! traced leg's time over its untraced leg's, less one, exceeds the
//! `max_overhead_frac` bound committed in that file, so emission-path
//! regressions fail CI instead of silently accumulating.

use beegfs_core::{BeeGfs, FaultPlan};
use bench::{cpu_seconds, extract_f64, median, quartiles};
use cluster::TargetId;
use ior::{AppSpec, IorConfig, RetryPolicy, Run};
use simcore::rng::RngFactory;
use std::time::Instant;

/// Timed rounds.
const ROUNDS: usize = 31;
/// Repetitions per leg, one per seed: about 50 ms of CPU on a 2-vCPU
/// x86-64 VM, where one untraced repetition takes about 0.12 ms.
const RUNS: usize = 400;

fn scenario() -> BeeGfs {
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

/// One leg: a repetition per seed, as a campaign runs them — a fresh
/// deployment and its run, traced into a fresh timeline or not.
/// Returns CPU seconds per repetition.
fn leg(traced: bool, anchor: Instant) -> f64 {
    let plan = plan();
    let t0 = cpu_seconds(anchor);
    for seed in 0..RUNS as u64 {
        let mut fs = scenario();
        let mut rng = RngFactory::new(seed).stream("trace-overhead", 0);
        let mut timeline = obs::Timeline::new();
        let mut run = Run::new(&mut fs)
            .app(AppSpec::pinned(
                IorConfig::paper_default(8),
                vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
            ))
            .faults(plan.clone())
            .policy(RetryPolicy::default());
        if traced {
            run = run.trace(&mut timeline);
        }
        let (out, _) = run.execute(&mut rng).expect("bench run");
        assert!(out.sim_events > 0);
        assert_eq!(timeline.is_empty(), !traced, "traced runs record events");
    }
    (cpu_seconds(anchor) - t0) / RUNS as f64
}

fn main() {
    // As the `repro` CLI does before a traced run. Without it, glibc
    // trims the heap top as each traced run frees its timeline, and the
    // next run's page faults add about 20 points to the traced leg.
    simcore::alloc_tuning::tune_for_long_sessions();
    let anchor = Instant::now();
    // Warm up caches and the allocator before timing anything.
    leg(false, anchor);
    leg(true, anchor);
    let (mut untraced, mut traced, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Alternate which leg goes first.
        let (u, t) = if round % 2 == 0 {
            let u = leg(false, anchor);
            (u, leg(true, anchor))
        } else {
            let t = leg(true, anchor);
            (leg(false, anchor), t)
        };
        untraced.push(u);
        traced.push(t);
        ratios.push(t / u);
    }
    let untraced_ms = median(untraced) * 1e3;
    let traced_ms = median(traced) * 1e3;
    let [q1, ratio, q3] = quartiles(ratios);
    let overhead = ratio - 1.0;
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace_overhead.json"
    );
    // Gate against the bound committed with the previous numbers.
    let max_overhead = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "max_overhead_frac"))
        .unwrap_or(0.25);
    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"runs_per_leg\": {RUNS},\n  \
         \"untraced_ms\": {untraced_ms:.3},\n  \"traced_ms\": {traced_ms:.3},\n  \
         \"traced_overhead_frac\": {overhead:.4},\n  \
         \"traced_overhead_frac_iqr\": [{:.4}, {:.4}],\n  \
         \"max_overhead_frac\": {max_overhead}\n}}\n",
        q1 - 1.0,
        q3 - 1.0
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "untraced {untraced_ms:.3} ms/run, traced {traced_ms:.3} ms/run on the CPU clock \
         ({:+.1}% with a recorder attached, median of {ROUNDS} rounds; IQR {:+.1}% to {:+.1}%)",
        overhead * 100.0,
        (q1 - 1.0) * 100.0,
        (q3 - 1.0) * 100.0
    );
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
