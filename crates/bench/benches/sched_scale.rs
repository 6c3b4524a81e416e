//! Online-engine scaling benchmark: Poisson streams served by the
//! continuous online admission engine, against the frozen-oracle
//! reference at the scale where the oracle stops being usable.
//!
//! It serves fixed workloads in both admission modes and gates how
//! their cost scales. Two regimes, because the engines differ in *what*
//! their per-admission cost scales with:
//!
//! * **Stationary sweep** (1-node 256 MiB applications at 2/s, a couple
//!   of applications in flight): arrivals ∈ {10^3..10^6} under the
//!   online engine. Admission cost is amortized O(1), so work per
//!   admission must stay near-flat. The primary near-linearity gate is
//!   *deterministic*: simulation events per admission at 10^6 must stay
//!   within [`MAX_WORK_RATIO`] of the 10^4 rung — the workload is
//!   bit-reproducible, so this ratio is exactly 1.0 until an
//!   event-storm regression lands, and it cannot flake. A timing gate
//!   backs it up as a loose collapse detector: throughput is measured
//!   in process CPU time, the 10^4 rung is re-measured right after the
//!   10^6 rung, and [`MIN_SCALING`] sits far below any honest reading —
//!   a superlinear solver regression lands orders of magnitude under
//!   it. A memory gate bounds the process's peak resident set after the
//!   10^6 rung: the engine retires finished flows, so its storage
//!   follows the live flows, and a session that kept every flow it ever
//!   started would blow through the bound several times over. The
//!   stream's absolute throughput is not gated here: perfbench's
//!   `online_long` workload serves the same stream and gates its
//!   admissions per CPU-second.
//! * **Contended burst** (1-node 2 GiB applications at 3/s, offered
//!   load past capacity so the node-limit gate keeps the maximum
//!   allowed population in flight): 10^4 arrivals in both modes. This
//!   is the regime that caps frozen-oracle traces at ~10^4 arrivals:
//!   the oracle re-simulates every running application per admission —
//!   O(in-flight) full re-simulations plus two fresh fabric builds,
//!   against the online engine's single live injection. The gate
//!   requires the online engine to admit at least [`MIN_SPEEDUP`] times
//!   faster.
//!
//! Each rung is served once, not in rounds: rounds of a 10^6-arrival
//! session would multiply the bench's run time, so each timing gate
//! compares two rungs served one right after the other.
//!
//! Slowdowns in the burst regime are wait-dominated and the two modes
//! price retroactive interference differently; the gate compares
//! admission *throughput* only. Mode agreement is pinned separately, on
//! small traces, by `tests/online_oracle.rs`.

use bench::{cpu_seconds, rusage, Report};
use experiments::campaign::SchedPolicyKind;
use experiments::context::{deploy, Scenario};
use sched::{AdmissionMode, ArrivalStream, Scheduler};
use simcore::rng::RngFactory;
use simcore::units::MIB;

/// Stationary sweep: light applications, a couple in flight at a time.
const RATE_PER_S: f64 = 2.0;
const APP_MIB: u64 = 256;
const ONLINE_SWEEP: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Largest allowed peak resident set after the 10^6 rung, in MiB. Ten
/// runs on a 2-vCPU x86-64 VM read 331 MiB; an engine that kept every
/// flow it started read 4,658 MiB when this gate landed.
const MAX_PEAK_RSS_MIB: f64 = 1024.0;
/// Smallest allowed ratio of the online engine's admission throughput
/// to the frozen oracle's on the contended 10^4 burst. Ten runs read
/// 21.2–31.3; an online admission that spins 10 µs per running
/// application, the oracle's cost shape, read 3.65 and fails.
const MIN_SPEEDUP: f64 = 10.0;
/// Largest allowed ratio of simulation events per admission at 10^6
/// arrivals to those at 10^4. It reads exactly 1.000; a shadow that
/// replays each admission's flows once more per 150,000 earlier
/// arrivals read 2.425 and fails.
const MAX_WORK_RATIO: f64 = 2.0;
/// Smallest allowed ratio of admission throughput at 10^6 arrivals to
/// the 10^4 re-measure served right after it. Ten runs read
/// 0.65–1.19; an admission that spins 0.25 ns per earlier arrival read
/// 0.079 and fails.
const MIN_SCALING: f64 = 0.1;
/// Largest allowed ratio of the plain online engine's admission
/// throughput on the 10^4 stream to `AdaptiveStriping`'s on the same
/// stream, served right after it. Ten runs read 1.07–1.26; a feedback
/// evaluation that spins 3 µs read 2.09 and fails.
const MAX_ADAPTIVE_OVERHEAD: f64 = 1.5;
/// Largest allowed ratio of `AdaptiveStriping`'s simulation events per
/// admission on the 10^4 stream to the plain online engine's. It reads
/// exactly 1.000; an evaluation that replays a running application's
/// flows six times on the shadow read 4.594 and fails.
const MAX_ADAPTIVE_WORK: f64 = 2.0;

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
    let cpu0 = cpu_seconds();
    let out = Scheduler::new(&mut fs, policy.build())
        .mode(mode)
        .serve(&stream, &factory)
        .expect("bench stream is schedulable");
    let elapsed = cpu_seconds() - cpu0;
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

    let mut report = Report::new("sched_scale");
    report.field("rate_per_s", RATE_PER_S);
    for (n, aps) in ["1e3", "1e4", "1e5", "1e6"].iter().zip(&online_aps) {
        report.field(format_args!("online_aps_{n}"), format_args!("{aps:.0}"));
    }
    report.field("online_aps_1e4_post", format_args!("{online_1e4_post:.0}"));
    report.field("adaptive_aps_1e4", format_args!("{adaptive_1e4:.0}"));
    report.field(
        "adaptive_events_per_admission_1e4",
        format_args!("{adaptive_epa:.1}"),
    );
    report.field("burst_online_aps_1e4", format_args!("{burst_online:.0}"));
    report.field("burst_frozen_aps_1e4", format_args!("{burst_frozen:.0}"));
    report.field(
        "events_per_admission_1e4",
        format_args!("{:.1}", online_epa[1]),
    );
    report.field(
        "events_per_admission_1e6",
        format_args!("{:.1}", online_epa[3]),
    );
    report.at_least("speedup_1e4", burst_online / burst_frozen, MIN_SPEEDUP);
    // Deterministic near-linearity gate: events per admission is exactly
    // reproducible run to run, so any drift here is a real regression.
    report.at_most(
        "work_ratio_1e6_vs_1e4",
        online_epa[3] / online_epa[1],
        MAX_WORK_RATIO,
    );
    // Collapse detector, not a percentage certification: host
    // memory-subsystem contention moves even CPU time 2-3x on minute
    // scales, while a superlinear admission regression at 100x the
    // stream length lands near 0.01.
    report.at_least(
        "scaling_1e6_vs_1e4",
        online_aps[3] / online_1e4_post,
        MIN_SCALING,
    );
    // The feedback loop is periodic O(running apps) arithmetic over
    // solver state the engine already maintains, not a re-simulation;
    // the event-count ratio backs the timing up against calendar storms.
    report.at_most(
        "adaptive_overhead_1e4",
        online_1e4_post / adaptive_1e4,
        MAX_ADAPTIVE_OVERHEAD,
    );
    report.at_most(
        "adaptive_work_1e4",
        adaptive_epa / online_epa[1],
        MAX_ADAPTIVE_WORK,
    );
    match peak_rss_mib {
        Some(mib) => report.at_most("peak_rss_mib", mib, MAX_PEAK_RSS_MIB),
        None => println!("note: peak RSS unavailable on this platform; memory gate skipped"),
    }
    report.finish();
}
