//! Straggler-machinery overhead: what hedging costs the simulator.
//!
//! It times full IOR writes on the storage-bound scenario-2 platform
//! with a transient straggler in the capacity curves, plain and hedged
//! (chunked drain, online detection, redirects), and writes
//! `BENCH_straggler_overhead.json` at the repository root. Each round
//! times a plain leg and then a hedged leg of about the same length back
//! to back, so both see the same host phase, and the gate holds the
//! median of the per-round ratios of a hedged run's time to a plain
//! run's to [`MAX_HEDGING_OVERHEAD`]. Hedging splits every transfer into
//! four chunks and re-solves at each chunk boundary, so some solver-side
//! cost is expected and bought back many times over in simulated tail
//! latency; the gate catches the hedged drain growing costlier than
//! that.

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use bench::median;
use cluster::{presets, TargetId};
use ior::{IorConfig, Run};
use simcore::rng::RngFactory;
use std::time::Instant;

/// Timed rounds.
const ROUNDS: usize = 21;
/// IOR runs of a hedged leg, one per seed.
const RUNS: usize = 24;
/// Passes of a plain leg over the same seeds: a plain run costs about a
/// quarter of a hedged one, so the two legs last about as long.
const PLAIN_PASSES: usize = 4;
/// Largest allowed median ratio of a hedged run's time to a plain
/// run's. Sixteen runs on a 2-vCPU x86-64 VM read 4.4–4.9×; a hedged
/// leg made a third slower read 6.0–6.1× and fails.
const MAX_HEDGING_OVERHEAD: f64 = 5.4;

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

/// One leg of a round: `passes` passes of `RUNS` IOR writes against a
/// transient straggler on target 0, hedged or plain. Returns wall
/// seconds per run.
fn leg(hedged: bool, passes: usize, factory: &RngFactory) -> f64 {
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .expect("valid straggler parameters");
    let label = if hedged { "on-hedged" } else { "on-plain" };
    let t0 = Instant::now();
    for i in 0..passes * RUNS {
        let mut fs = deploy();
        let mut rng = factory.stream(label, (i % RUNS) as u64);
        let mut run = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .faults(plan.clone());
        if hedged {
            run = run.hedge();
        }
        let (out, _) = run.execute(&mut rng).expect("straggler run");
        assert!(out.try_single().expect("one app").duration_s > 0.0);
    }
    t0.elapsed().as_secs_f64() / (passes * RUNS) as f64
}

fn main() {
    let factory = RngFactory::new(4242);
    // Warm caches and the allocator before timing anything.
    leg(false, 1, &factory);
    leg(true, 1, &factory);

    let (mut plain, mut hedged, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let p = leg(false, PLAIN_PASSES, &factory);
        let h = leg(true, 1, &factory);
        plain.push(p);
        hedged.push(h);
        ratios.push(h / p);
    }
    let plain_rps = 1.0 / median(plain);
    let hedged_rps = 1.0 / median(hedged);
    let overhead = median(ratios);

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_straggler_overhead.json"
    );
    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"hedged_runs_per_round\": {RUNS},\n  \
         \"plain_runs_per_round\": {},\n  \
         \"plain_runs_per_sec\": {plain_rps:.2},\n  \
         \"hedged_runs_per_sec\": {hedged_rps:.2},\n  \
         \"hedging_overhead\": {overhead:.2},\n  \
         \"max_hedging_overhead\": {MAX_HEDGING_OVERHEAD:.1}\n}}\n",
        PLAIN_PASSES * RUNS
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "straggler runs: plain {plain_rps:.1}/s, hedged {hedged_rps:.1}/s \
         ({overhead:.2}x overhead, median of {ROUNDS} rounds)"
    );
    println!("wrote {out}");
    assert!(
        overhead <= MAX_HEDGING_OVERHEAD,
        "hedged drain regressed: a hedged run costs {overhead:.2}x a plain one \
         (> {MAX_HEDGING_OVERHEAD:.1}x)"
    );
}
