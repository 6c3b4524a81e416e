//! Solver hot-path benchmark: many small flows through the fluid loop,
//! incremental allocation-free solver vs. the retained reference solver.
//!
//! Not a Criterion target: it times a fixed rep workload in both modes,
//! writes `BENCH_flow_hotpath.json` at the repository root, and enforces
//! two gates so CI catches hot-path regressions:
//!
//! * the incremental solver must be at least 2x the reference solver's
//!   reps/sec on this workload (the speedup the rework claims);
//! * the incremental reps/sec must not drop below 70% of the committed
//!   `BENCH_flow_hotpath.json` baseline.
//!
//! The workload is solver-bound by design: hundreds of registered flows
//! arriving in small staggered batches over a few resources, so every
//! completion re-solves while the *active* set stays small. The
//! reference solver rescans every registered flow and reallocates its
//! work vectors per solve; the incremental solver walks the active list
//! with warm scratch buffers and skips no-op solves outright.

use bench::{extract_f64, hotpath_rep, median, HOTPATH_FLOWS};
use simcore::flow::SimArena;

const REPS: usize = 15;

fn one_rep(reference: bool, arena: &mut SimArena) -> f64 {
    hotpath_rep(arena, |sim| sim.set_reference_solver(reference), |_| {})
}

fn main() {
    let mut arena = SimArena::new();
    // Warm caches, allocator, and the arena before timing anything.
    one_rep(false, &mut arena);
    one_rep(true, &mut arena);

    // Interleave the modes so environmental drift hits both equally.
    let mut incremental = Vec::with_capacity(REPS);
    let mut reference = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        incremental.push(one_rep(false, &mut arena));
        reference.push(one_rep(true, &mut arena));
    }

    let inc_rps = 1.0 / median(incremental);
    let ref_rps = 1.0 / median(reference);
    let speedup = inc_rps / ref_rps;

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow_hotpath.json");
    let baseline_rps = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "incremental_reps_per_sec"));

    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"incremental_reps_per_sec\": {inc_rps:.2},\n  \
         \"reference_reps_per_sec\": {ref_rps:.2},\n  \"speedup\": {speedup:.2}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "incremental {inc_rps:.1} reps/s, reference {ref_rps:.1} reps/s ({speedup:.2}x speedup)"
    );
    println!("wrote {out}");

    if speedup < 2.0 {
        eprintln!("FAIL: incremental solver speedup {speedup:.2}x is below the required 2x");
        std::process::exit(1);
    }
    if let Some(base) = baseline_rps {
        if inc_rps < 0.7 * base {
            eprintln!(
                "FAIL: incremental reps/sec regressed: {inc_rps:.1} < 70% of committed baseline {base:.1}"
            );
            std::process::exit(1);
        }
        println!("baseline check passed ({inc_rps:.1} vs committed {base:.1} reps/s)");
    } else {
        println!("no committed baseline found; wrote a fresh one");
    }
}
