//! Straggler-machinery overhead: the fault curves and hedging layer
//! added for straggler mitigation must be free when disabled and cheap
//! when enabled.
//!
//! It times two legs, writes
//! `BENCH_straggler_overhead.json` at the repository root, and gates the
//! detector-off leg so CI catches the straggler machinery taxing the
//! solver hot path:
//!
//! * **detector-off** replays the exact `flow_hotpath` incremental
//!   workload (no fault curves, no hedging compiled in) and must stay
//!   within noise — at least 70% — of the committed
//!   `BENCH_flow_hotpath.json` incremental baseline;
//! * **detector-on** runs a full hedged IOR write (chunked drain,
//!   online detection, redirects) against a transient straggler, next
//!   to the same run unhedged, and reports the runs/sec ratio as
//!   `hedging_overhead` (informational — hedging splits each transfer
//!   into chunks, so some solver-side cost is expected and bought back
//!   many times over in simulated tail latency).

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use bench::{extract_f64, hotpath_rep, median, HOTPATH_FLOWS};
use cluster::{presets, TargetId};
use ior::{HedgeConfig, IorConfig, Run};
use simcore::flow::SimArena;
use simcore::rng::RngFactory;
use std::time::Instant;

/// Timed repetitions per leg (interleaved; the median is reported).
const REPS: usize = 15;
/// IOR runs per detector-on rep.
const RUNS_PER_REP: usize = 8;

/// The `flow_hotpath` workload, incremental solver only. No fault
/// plan, no hedging — this is the path every healthy simulation takes,
/// and it must not have slowed down.
fn detector_off_rep(arena: &mut SimArena) -> f64 {
    hotpath_rep(arena, false, |_| {}, |_| {})
}

fn deploy() -> BeeGfs {
    BeeGfs::new(
        presets::plafrim_omnipath(),
        DirConfig {
            pattern: StripePattern::new(4, 512 * 1024),
            chooser: ChooserKind::RoundRobin,
        },
        plafrim_registration_order(),
    )
}

/// One detector-on rep: `RUNS_PER_REP` IOR writes on the storage-bound
/// scenario-2 platform with a transient straggler in the capacity
/// curves, either hedged (chunked drain + detection + redirects) or
/// plain. Returns elapsed wall seconds.
fn detector_on_rep(hedged: bool, factory: &RngFactory) -> f64 {
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .expect("valid straggler parameters");
    let label = if hedged { "on-hedged" } else { "on-plain" };
    let t0 = Instant::now();
    for rep in 0..RUNS_PER_REP {
        let mut fs = deploy();
        let mut rng = factory.stream(label, rep as u64);
        let mut run = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .faults(plan.clone());
        if hedged {
            run = run.hedge(HedgeConfig::default());
        }
        let (out, _) = run.execute(&mut rng).expect("straggler run");
        assert!(out.try_single().expect("one app").duration_s > 0.0);
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let factory = RngFactory::new(4242);
    let mut arena = SimArena::new();
    // Warm caches, allocator, and the arena before timing anything.
    detector_off_rep(&mut arena);
    detector_on_rep(false, &factory);
    detector_on_rep(true, &factory);

    // Interleave the legs so environmental drift hits all of them.
    let mut off = Vec::with_capacity(REPS);
    let mut on_plain = Vec::with_capacity(REPS);
    let mut on_hedged = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        off.push(detector_off_rep(&mut arena));
        on_plain.push(detector_on_rep(false, &factory));
        on_hedged.push(detector_on_rep(true, &factory));
    }

    let off_rps = 1.0 / median(off);
    let plain_rps = RUNS_PER_REP as f64 / median(on_plain);
    let hedged_rps = RUNS_PER_REP as f64 / median(on_hedged);
    let overhead = plain_rps / hedged_rps;

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow_hotpath.json");
    let baseline_rps = std::fs::read_to_string(baseline_path)
        .ok()
        .and_then(|s| extract_f64(&s, "incremental_reps_per_sec"));

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_straggler_overhead.json"
    );
    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"runs_per_rep\": {RUNS_PER_REP},\n  \
         \"detector_off_reps_per_sec\": {off_rps:.2},\n  \
         \"plain_runs_per_sec\": {plain_rps:.2},\n  \
         \"hedged_runs_per_sec\": {hedged_rps:.2},\n  \
         \"hedging_overhead\": {overhead:.2}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "detector off: {off_rps:.1} reps/s; straggler runs: plain {plain_rps:.1}/s, \
         hedged {hedged_rps:.1}/s ({overhead:.2}x overhead)"
    );
    println!("wrote {out}");

    match baseline_rps {
        Some(base) if off_rps < 0.7 * base => {
            eprintln!(
                "FAIL: detector-off hot path regressed: {off_rps:.1} reps/s is below 70% \
                 of the committed flow_hotpath baseline {base:.1}"
            );
            std::process::exit(1);
        }
        Some(base) => {
            println!(
                "baseline check passed ({off_rps:.1} vs committed flow_hotpath {base:.1} reps/s)"
            );
        }
        None => println!("no committed flow_hotpath baseline found; detector-off gate skipped"),
    }
}
