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
//!   in process CPU time, the 10^4 stream is re-served in rounds right
//!   after the 10^6 rung, and [`MIN_SCALING`] sits far below any honest
//!   reading — a superlinear solver regression lands orders of
//!   magnitude under it. Those rounds also serve the 10^4 stream under
//!   `AdaptiveStriping`, whose feedback loop the [`MAX_ADAPTIVE_OVERHEAD`]
//!   and [`MAX_ADAPTIVE_WORK`] gates price against the plain engine. A
//!   memory gate bounds the process's peak resident set after the
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
//! The sweep's rungs and the burst are served once, not in rounds:
//! rounds of a 10^6-arrival session would multiply the bench's run
//! time, so the scaling and speedup gates compare single sessions
//! served close together. The two 10^4 legs after the sweep, plain and
//! adaptive, are cheap enough for [`bench::rounds`]: the adaptive gate
//! is the median of their in-round ratios, and the scaling gate reads
//! the plain leg's median.
//!
//! Slowdowns in the burst regime are wait-dominated and the two modes
//! price retroactive interference differently; the gate compares
//! admission *throughput* only. Mode agreement is pinned separately, on
//! small traces, by `tests/online_oracle.rs`.

use bench::{cpu_seconds, rounds, rusage, Report};
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
/// the plain 10^4 leg's median over the rounds served right after it.
/// Five runs on a 2-vCPU x86-64 VM read 0.74–1.17 (against a
/// single-shot re-measure, ten read 0.65–1.19); an admission that
/// spins 0.25 ns per earlier arrival read 0.079 and fails.
const MIN_SCALING: f64 = 0.1;
/// Rounds of the plain and adaptive 10^4 legs.
const ROUNDS_1E4: usize = 11;
/// Largest allowed median over rounds of `AdaptiveStriping`'s CPU time
/// on the 10^4 stream over the plain online engine's in the same
/// round. Five runs read 1.18–1.36 (single-shot ratios read 1.07–1.26,
/// and once 1.545); a feedback evaluation that spins 3 µs read
/// 1.68–2.00 in four runs and fails.
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

/// A bench stream of `arrivals` Poisson arrivals of 1-node 4-ppn
/// `app_mib`-MiB applications at stripe 4, and the factory its session
/// draws from.
fn stream(arrivals: usize, rate_per_s: f64, app_mib: u64) -> (RngFactory, ArrivalStream) {
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
    (factory, stream)
}

/// Serve `stream` once on a fresh deployment; returns the session's
/// simulation events.
fn session(
    factory: &RngFactory,
    stream: &ArrivalStream,
    mode: AdmissionMode,
    policy: SchedPolicyKind,
) -> u64 {
    let mut fs = deploy(Scenario::S1Ethernet, 4, beegfs_core::ChooserKind::Random);
    let out = Scheduler::new(&mut fs, policy.build())
        .mode(mode)
        .serve(stream, factory)
        .expect("bench stream is schedulable");
    assert_eq!(out.apps.len(), stream.len(), "every arrival must complete");
    out.sim_events
}

/// Admission throughput (admissions per CPU-second) and simulation
/// events per admission for one `LeastLoadedServer` session. The first
/// is a timing measurement; the second is deterministic.
fn serve(arrivals: usize, rate_per_s: f64, app_mib: u64, mode: AdmissionMode) -> (f64, f64) {
    let (factory, stream) = stream(arrivals, rate_per_s, app_mib);
    let cpu0 = cpu_seconds();
    let events = session(&factory, &stream, mode, SchedPolicyKind::LeastLoadedServer);
    let elapsed = cpu_seconds() - cpu0;
    (arrivals as f64 / elapsed, events as f64 / arrivals as f64)
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
    // Re-serve the 1e4 stream in rounds right after the 1e6 rung, plain
    // and under `AdaptiveStriping`, whose feedback loop schedules
    // periodic evaluation events and walks every running application at
    // each one: the scaling ratio must compare measurements taken under
    // the same host conditions, and minutes pass between the sweep's 1e4
    // rung and the 1e6 rung on CI hardware.
    let (factory, stream_1e4) = stream(ONLINE_SWEEP[1], RATE_PER_S, APP_MIB);
    let serve_1e4 = |policy| session(&factory, &stream_1e4, AdmissionMode::Online, policy);
    let r = rounds(
        ROUNDS_1E4,
        &mut [
            ("online_1e4", &mut || {
                serve_1e4(SchedPolicyKind::LeastLoadedServer)
            }),
            ("adaptive_1e4", &mut || {
                serve_1e4(SchedPolicyKind::AdaptiveStriping)
            }),
        ],
    );
    let online_1e4_post = ONLINE_SWEEP[1] as f64 / r.median("online_1e4").0;
    let adaptive_epa = r.median("adaptive_1e4").1 as f64 / ONLINE_SWEEP[1] as f64;
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
    report.rounds(&r);
    report.field("online_aps_1e4_post", format_args!("{online_1e4_post:.0}"));
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
        r.ratio("adaptive_1e4", "online_1e4")[1],
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
