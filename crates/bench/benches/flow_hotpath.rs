//! Solver hot-path benchmark: many small flows through the fluid loop,
//! incremental allocation-free solver vs. the retained reference solver.
//!
//! It times a fixed rep workload in both modes,
//! writes `BENCH_flow_hotpath.json` at the repository root, and enforces
//! three gates so CI catches hot-path regressions:
//!
//! * the incremental solver must be at least 2x the reference solver's
//!   reps/sec on this workload (the speedup the rework claims);
//! * the incremental reps/sec must not drop below 70% of the committed
//!   `BENCH_flow_hotpath.json` baseline;
//! * on the dense leg every solve must be a whole-set solve (a
//!   deterministic count, so this gate is exact).
//!
//! The workload is solver-bound by design: hundreds of registered flows
//! arriving in small staggered batches over a few resources, so every
//! completion re-solves while the *active* set stays small. The
//! reference solver rescans every registered flow and reallocates its
//! work vectors per solve; the incremental solver walks the active list
//! with warm scratch buffers and skips no-op solves outright.
//!
//! The dense leg runs the same flows, each also crossing one shared
//! switch, as every write on the paper's platforms crosses its switch.
//! Every solve there covers the whole active set, which the incremental
//! solver takes off its active and loaded lists without the
//! dirty-component walk. Its reps/s are reported with their quartiles,
//! beside its solve and whole-set-solve counts.

use bench::{extract_f64, hotpath_rep, quartiles, HOTPATH_FLOWS};
use simcore::flow::SimArena;

const REPS: usize = 15;

/// One rep of either leg under either solver. Returns the timed seconds
/// and the rep's (solves, whole-set solves).
fn one_rep(dense: bool, reference: bool, arena: &mut SimArena) -> (f64, [u64; 2]) {
    let mut counts = [0; 2];
    let secs = hotpath_rep(
        arena,
        dense,
        |sim| sim.set_reference_solver(reference),
        |sim| {
            let net = sim.network();
            counts = [net.solve_count(), net.whole_set_solve_count()];
        },
    );
    (secs, counts)
}

/// Reps/s quartiles of a leg's timed seconds.
fn rps_quartiles(secs: &[f64]) -> [f64; 3] {
    quartiles(secs.iter().map(|s| 1.0 / s).collect())
}

fn main() {
    let mut arena = SimArena::new();
    // Warm caches, allocator, and the arena before timing anything.
    for (dense, reference) in [(false, false), (false, true), (true, false), (true, true)] {
        one_rep(dense, reference, &mut arena);
    }

    // Interleave the legs and modes so environmental drift hits all
    // equally.
    let mut incremental = Vec::with_capacity(REPS);
    let mut reference = Vec::with_capacity(REPS);
    let mut dense_incremental = Vec::with_capacity(REPS);
    let mut dense_reference = Vec::with_capacity(REPS);
    let mut dense_counts = None;
    for _ in 0..REPS {
        incremental.push(one_rep(false, false, &mut arena).0);
        reference.push(one_rep(false, true, &mut arena).0);
        let (secs, counts) = one_rep(true, false, &mut arena);
        assert!(
            dense_counts.is_none_or(|c| c == counts),
            "dense solve counts differ between reps"
        );
        dense_counts = Some(counts);
        dense_incremental.push(secs);
        dense_reference.push(one_rep(true, true, &mut arena).0);
    }
    let [dense_solves, dense_whole_set_solves] = dense_counts.expect("at least one rep");

    let inc_rps = rps_quartiles(&incremental)[1];
    let ref_rps = rps_quartiles(&reference)[1];
    let speedup = inc_rps / ref_rps;
    let [dinc_q1, dinc_rps, dinc_q3] = rps_quartiles(&dense_incremental);
    let [dref_q1, dref_rps, dref_q3] = rps_quartiles(&dense_reference);
    let dense_speedup = dinc_rps / dref_rps;

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow_hotpath.json");
    let baseline_rps = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "incremental_reps_per_sec"));

    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"incremental_reps_per_sec\": {inc_rps:.2},\n  \
         \"reference_reps_per_sec\": {ref_rps:.2},\n  \"speedup\": {speedup:.2},\n  \
         \"dense_incremental_reps_per_sec\": {dinc_rps:.2},\n  \
         \"dense_incremental_reps_per_sec_q1\": {dinc_q1:.2},\n  \
         \"dense_incremental_reps_per_sec_q3\": {dinc_q3:.2},\n  \
         \"dense_reference_reps_per_sec\": {dref_rps:.2},\n  \
         \"dense_reference_reps_per_sec_q1\": {dref_q1:.2},\n  \
         \"dense_reference_reps_per_sec_q3\": {dref_q3:.2},\n  \
         \"dense_speedup\": {dense_speedup:.2},\n  \
         \"dense_solves_per_rep\": {dense_solves},\n  \
         \"dense_whole_set_solves_per_rep\": {dense_whole_set_solves}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "incremental {inc_rps:.1} reps/s, reference {ref_rps:.1} reps/s ({speedup:.2}x speedup)"
    );
    println!(
        "dense: incremental {dinc_rps:.1} reps/s [{dinc_q1:.1}-{dinc_q3:.1}], reference \
         {dref_rps:.1} reps/s [{dref_q1:.1}-{dref_q3:.1}] ({dense_speedup:.2}x speedup); \
         {dense_whole_set_solves} of {dense_solves} solves whole-set"
    );
    println!("wrote {out}");

    if speedup < 2.0 {
        eprintln!("FAIL: incremental solver speedup {speedup:.2}x is below the required 2x");
        std::process::exit(1);
    }
    if dense_whole_set_solves != dense_solves {
        eprintln!(
            "FAIL: only {dense_whole_set_solves} of the dense leg's {dense_solves} solves \
             took the whole active set"
        );
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
