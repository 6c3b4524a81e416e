//! Online-engine scaling benchmark: Poisson streams served by the
//! continuous online admission engine, against the frozen-oracle
//! reference at the scale where the oracle stops being usable.
//!
//! It times fixed workloads in both admission
//! modes, writes `BENCH_sched_scale.json` at the repository root, and
//! enforces gates so CI catches scaling regressions. Two regimes,
//! because the engines differ in *what* their per-admission cost scales
//! with:
//!
//! * **Stationary sweep** (1-node 256 MiB applications at 2/s, a couple
//!   of applications in flight): arrivals ∈ {10^3..10^6} under the
//!   online engine. Admission cost is amortized O(1), so work per
//!   admission must stay near-flat. The primary near-linearity gate is
//!   *deterministic*: simulation events per admission at 10^6 must stay
//!   within 2x of the 10^4 rung — the workload is bit-reproducible, so
//!   this ratio is exactly 1.0x until an event-storm regression lands,
//!   and it cannot flake. Timing gates back it up as loose collapse
//!   detectors: throughput is measured in process CPU time (wall time
//!   swings 2-3x with neighbour load on shared hosts; CPU time still
//!   drifts with memory-subsystem contention, just less), the 10^4 rung
//!   is re-measured right after the 10^6 rung, and the floors sit far
//!   below any honest measurement — a superlinear solver regression
//!   lands orders of magnitude under them. A memory gate bounds the
//!   process's peak resident set after the 10^6 rung: the engine
//!   retires finished flows, so its storage follows the live flows,
//!   and a session that kept every flow it ever started would blow
//!   through the bound several times over.
//! * **Contended burst** (1-node 2 GiB applications at 3/s, offered
//!   load past capacity so the node-limit gate keeps the maximum
//!   allowed population in flight): 10^4 arrivals in both modes. This
//!   is the regime that caps frozen-oracle traces at ~10^4 arrivals:
//!   the oracle re-simulates every running application per admission —
//!   O(in-flight) full re-simulations plus two fresh fabric builds,
//!   against the online engine's single live injection. The gate
//!   requires the online engine to admit at least 10x faster.
//!
//! Slowdowns in the burst regime are wait-dominated and the two modes
//! price retroactive interference differently; the gate compares
//! admission *throughput* only. Mode agreement is pinned separately, on
//! small traces, by `tests/online_oracle.rs`.

use bench::{cpu_seconds, extract_f64, rusage};
use experiments::campaign::SchedPolicyKind;
use experiments::context::{deploy, Scenario};
use sched::{AdmissionMode, ArrivalStream, Scheduler};
use simcore::rng::RngFactory;
use simcore::units::MIB;
use std::time::Instant;

/// Stationary sweep: light applications, a couple in flight at a time.
const RATE_PER_S: f64 = 2.0;
const APP_MIB: u64 = 256;
const ONLINE_SWEEP: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Peak resident set allowed after the 10^6 rung, in MiB.
const MAX_PEAK_RSS_MIB: f64 = 1024.0;

/// Contended burst: offered load past capacity, population pinned at
/// the scheduler's node-limit gate — the frozen oracle's worst regime.
const BURST_RATE_PER_S: f64 = 3.0;
const BURST_MIB: u64 = 2048;
const SPEEDUP_ARRIVALS: usize = 10_000;

/// Admission throughput (admissions per CPU-second) and simulation
/// events per admission for one served stream. The first is a timing
/// measurement; the second is deterministic.
fn serve(arrivals: usize, rate_per_s: f64, app_mib: u64, mode: AdmissionMode) -> (f64, f64) {
    serve_policy(
        arrivals,
        rate_per_s,
        app_mib,
        mode,
        SchedPolicyKind::LeastLoadedServer,
    )
}

/// [`serve`] with an explicit placement policy — the adaptive-overhead
/// gate serves the same stream under `AdaptiveStriping`, whose feedback
/// loop adds periodic evaluation events to the session calendar.
fn serve_policy(
    arrivals: usize,
    rate_per_s: f64,
    app_mib: u64,
    mode: AdmissionMode,
    policy: SchedPolicyKind,
) -> (f64, f64) {
    let factory = RngFactory::new(7).derive("sched_scale", 0);
    let cfg = ior::IorConfig::paper_default(1)
        .with_ppn(4)
        .with_total_bytes(app_mib * MIB);
    let stream = ArrivalStream::poisson(
        rate_per_s,
        arrivals,
        cfg,
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut fs = deploy(Scenario::S1Ethernet, 4, beegfs_core::ChooserKind::Random);
    let t0 = Instant::now();
    let cpu0 = cpu_seconds(t0);
    let out = Scheduler::new(&mut fs, policy.build())
        .mode(mode)
        .serve(&stream, &factory)
        .expect("bench stream is schedulable");
    let elapsed = cpu_seconds(t0) - cpu0;
    assert_eq!(out.apps.len(), arrivals, "every arrival must complete");
    (
        arrivals as f64 / elapsed,
        out.sim_events as f64 / arrivals as f64,
    )
}

fn main() {
    // Large sessions grow per-arrival records through hundreds of MB;
    // under default glibc tuning every growth step churns mappings in
    // the kernel (see `simcore::alloc_tuning`).
    simcore::alloc_tuning::tune_for_long_sessions();
    // Warm caches and the allocator before timing anything.
    serve(1_000, RATE_PER_S, APP_MIB, AdmissionMode::Online);

    let mut online_aps = Vec::with_capacity(ONLINE_SWEEP.len());
    let mut online_epa = Vec::with_capacity(ONLINE_SWEEP.len());
    for &n in &ONLINE_SWEEP {
        let (aps, epa) = serve(n, RATE_PER_S, APP_MIB, AdmissionMode::Online);
        println!(
            "online  {n:>9} arrivals: {aps:.0} admissions/cpu-s, {epa:.1} sim events/admission"
        );
        online_aps.push(aps);
        online_epa.push(epa);
    }
    // The 10^6 rung is the largest session the process runs, so the
    // high-water mark read here is its peak.
    let peak_rss_mib = rusage().map(|(_, kib)| kib as f64 / 1024.0);
    if let Some(mib) = peak_rss_mib {
        println!("peak resident set after the 1e6 rung: {mib:.0} MiB");
    }
    // Re-measure the 1e4 rung immediately after the 1e6 rung: the
    // scaling ratio must compare measurements taken under the same host
    // conditions, and minutes pass between the sweep's 1e4 rung and the
    // 1e6 rung on CI hardware.
    let (online_1e4_post, _) = serve(ONLINE_SWEEP[1], RATE_PER_S, APP_MIB, AdmissionMode::Online);
    println!(
        "online  {:>9} arrivals: {online_1e4_post:.0} admissions/cpu-s (post-sweep re-measure)",
        ONLINE_SWEEP[1]
    );
    // Adaptive-overhead rung, adjacent to the post-sweep re-measure so
    // the ratio compares measurements under the same host conditions:
    // the same 1e4 stream served under `AdaptiveStriping`, whose
    // feedback loop schedules periodic evaluation events and walks every
    // running application at each one.
    let (adaptive_1e4, adaptive_epa) = serve_policy(
        ONLINE_SWEEP[1],
        RATE_PER_S,
        APP_MIB,
        AdmissionMode::Online,
        SchedPolicyKind::AdaptiveStriping,
    );
    println!(
        "adaptive {:>8} arrivals: {adaptive_1e4:.0} admissions/cpu-s, \
         {adaptive_epa:.1} sim events/admission",
        ONLINE_SWEEP[1]
    );
    let (burst_online, _) = serve(
        SPEEDUP_ARRIVALS,
        BURST_RATE_PER_S,
        BURST_MIB,
        AdmissionMode::Online,
    );
    println!("burst online {SPEEDUP_ARRIVALS:>6} arrivals: {burst_online:.0} admissions/cpu-s");
    let (burst_frozen, _) = serve(
        SPEEDUP_ARRIVALS,
        BURST_RATE_PER_S,
        BURST_MIB,
        AdmissionMode::FrozenOracle,
    );
    println!("burst frozen {SPEEDUP_ARRIVALS:>6} arrivals: {burst_frozen:.0} admissions/cpu-s");

    let online_1e4 = online_aps[1].max(online_1e4_post);
    let online_1e6 = online_aps[3];
    let speedup = burst_online / burst_frozen;
    let scaling = online_1e6 / online_1e4_post;
    let work_ratio = online_epa[3] / online_epa[1];
    let adaptive_overhead = online_1e4_post / adaptive_1e4;
    let adaptive_work = adaptive_epa / online_epa[1];

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched_scale.json");
    let baseline = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "online_aps_1e4"));

    let json = format!(
        "{{\n  \"rate_per_s\": {RATE_PER_S},\n  \
         \"online_aps_1e3\": {:.0},\n  \"online_aps_1e4\": {:.0},\n  \
         \"online_aps_1e5\": {:.0},\n  \"online_aps_1e6\": {:.0},\n  \
         \"online_aps_1e4_post\": {online_1e4_post:.0},\n  \
         \"adaptive_aps_1e4\": {adaptive_1e4:.0},\n  \
         \"adaptive_overhead_1e4\": {adaptive_overhead:.2},\n  \
         \"adaptive_events_per_admission_1e4\": {adaptive_epa:.1},\n  \
         \"burst_online_aps_1e4\": {burst_online:.0},\n  \
         \"burst_frozen_aps_1e4\": {burst_frozen:.0},\n  \
         \"speedup_1e4\": {speedup:.2},\n  \"scaling_1e6_vs_1e4\": {scaling:.2},\n  \
         \"events_per_admission_1e4\": {:.1},\n  \
         \"events_per_admission_1e6\": {:.1},\n  \
         \"work_ratio_1e6_vs_1e4\": {work_ratio:.3},\n  \
         \"peak_rss_mib\": {}\n}}\n",
        online_aps[0],
        online_aps[1],
        online_aps[2],
        online_aps[3],
        online_epa[1],
        online_epa[3],
        peak_rss_mib.map_or_else(|| "null".to_string(), |m| format!("{m:.0}")),
    );
    std::fs::write(out, &json).expect("write bench json");
    println!("online vs frozen on the contended burst at 1e4: {speedup:.1}x");
    println!(
        "adaptive feedback overhead at 1e4: {adaptive_overhead:.2}x time, \
         {adaptive_work:.2}x sim events"
    );
    println!("online 1e6/1e4 work per admission ratio: {work_ratio:.3}");
    println!("online 1e6/1e4 throughput ratio: {scaling:.2}");
    println!("wrote {out}");

    if speedup < 10.0 {
        eprintln!(
            "FAIL: online engine speedup {speedup:.2}x over the frozen oracle \
             on the contended 1e4 burst is below the required 10x"
        );
        std::process::exit(1);
    }
    // Deterministic near-linearity gate: events per admission is exactly
    // reproducible run to run, so any drift here is a real regression.
    if work_ratio > 2.0 {
        eprintln!(
            "FAIL: simulation work per admission grew {work_ratio:.2}x from 1e4 \
             to 1e6 arrivals (amortized-O(1) admission requires <= 2x)"
        );
        std::process::exit(1);
    }
    // Collapse detector, not a percentage certification: host
    // memory-subsystem contention moves even CPU time 2-3x on minute
    // scales, while a superlinear admission regression at 100x the
    // stream length lands near 0.01.
    if scaling < 0.1 {
        eprintln!(
            "FAIL: admission throughput collapsed with stream length: \
             1e6 throughput is {:.0}% of the adjacent 1e4 re-measure \
             (floor 10%)",
            scaling * 100.0
        );
        std::process::exit(1);
    }
    // Adaptive sessions must stay within 1.5x of the plain online
    // engine on the same stream: the feedback loop is periodic O(running
    // apps) arithmetic over solver state the engine already maintains,
    // not a re-simulation. Measured back-to-back in CPU time, so the
    // ratio cancels host speed; the deterministic event-count ratio
    // backs it up against calendar-storm regressions.
    if adaptive_overhead > 1.5 {
        eprintln!(
            "FAIL: AdaptiveStriping session is {adaptive_overhead:.2}x slower than \
             the plain online engine at 1e4 arrivals (bound 1.5x): \
             {adaptive_1e4:.0}/s vs {online_1e4_post:.0}/s"
        );
        std::process::exit(1);
    }
    if adaptive_work > 2.0 {
        eprintln!(
            "FAIL: AdaptiveStriping adds {adaptive_work:.2}x simulation events per \
             admission over the plain online engine (bound 2x: evaluation \
             events must stay proportional to the calendar, not explode it)"
        );
        std::process::exit(1);
    }
    match peak_rss_mib {
        Some(mib) if mib > MAX_PEAK_RSS_MIB => {
            eprintln!(
                "FAIL: peak resident set {mib:.0} MiB after the 1e6 rung exceeds \
                 {MAX_PEAK_RSS_MIB:.0} MiB: session storage must follow the live \
                 flows, not every flow the session started"
            );
            std::process::exit(1);
        }
        Some(_) => {}
        None => println!("note: peak RSS unavailable on this platform; memory gate skipped"),
    }
    if let Some(base) = baseline {
        if online_1e4 < 0.25 * base {
            eprintln!(
                "FAIL: online admission throughput at 1e4 arrivals regressed: \
                 {online_1e4:.0}/s vs committed baseline {base:.0}/s (floor 25%)"
            );
            std::process::exit(1);
        }
    } else {
        println!("note: no committed baseline found; regression gate skipped");
    }
    println!("PASS");
}
