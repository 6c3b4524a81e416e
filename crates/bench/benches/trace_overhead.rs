//! Tracing overhead check: the `repro --trace` outage run
//! ([`experiments::context::outage_run`]) with no recorder attached vs.
//! recording into an [`obs::Timeline`].
//!
//! Each round times a batch of untraced repetitions, a batch of traced
//! ones over the same seeds, a batch of grouped ones and a reference
//! computation, back to back on the process CPU clock (which leg goes
//! first rotates), so all four see the same host phase and each lasts
//! long enough for the clock to resolve. The untraced and traced legs
//! both ask for the run's utilization report, as `repro --trace` does,
//! so both simulate one flow per record and differ only in emission. The
//! bench fails when the median over rounds of what the traced leg adds
//! to the untraced one, measured in reference legs, exceeds
//! [`MAX_EXCESS`], so emission-path regressions fail CI instead of
//! silently accumulating. The reference ([`bench::reference`]) calls
//! nothing of the simulator, so a cheaper untraced run leaves that
//! reading alone, where it raises the traced-over-untraced ratio the
//! report still carries.
//!
//! The grouped leg is the plain run, which observes nothing per flow
//! and so starts each node's identical flows as one record. What a
//! trace costs a user over that run is the traced-over-grouped ratio,
//! reported ungated beside it.

use bench::{reference, rounds, Report};
use experiments::context::outage_run;
use simcore::rng::RngFactory;

/// Timed rounds.
const ROUNDS: usize = 31;
/// Repetitions per leg, one per seed: about 30 ms of CPU on a 2-vCPU
/// x86-64 VM, where one untraced repetition takes about 0.07 ms.
const RUNS: usize = 400;
/// Largest allowed median over rounds of the traced leg's CPU time less
/// the untraced leg's, over the reference leg's. On a 2-vCPU x86-64 VM,
/// which runs a process in one of two speeds, with both legs one flow
/// per record 28 clean runs read 0.86–1.10 (four of them in the slow
/// speed), and 14 runs of a traced leg made 10% slower 1.40–1.81 (four
/// slow) and fail.
const MAX_EXCESS: f64 = 1.15;

/// How a leg instruments its runs.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    /// The utilization report only: one flow per record.
    Untraced,
    /// A recorder and the utilization report, as `repro --trace` runs.
    Traced,
    /// Nothing: identical flows share a record.
    Grouped,
}

/// One leg: the `repro --trace` outage run once per seed, as a
/// campaign runs repetitions — a fresh deployment and its run,
/// instrumented as `leg` says. Returns the simulation events of all
/// repetitions.
fn leg(leg: Leg) -> u64 {
    let mut events = 0;
    for seed in 0..RUNS as u64 {
        let mut timeline = obs::Timeline::new();
        let mut rng = RngFactory::new(seed).stream("trace-overhead", 0);
        let (out, report) = outage_run(&mut rng, |run| match leg {
            Leg::Untraced => run.utilization(),
            Leg::Traced => run.trace(&mut timeline).utilization(),
            Leg::Grouped => run,
        })
        .expect("bench run");
        let traced = leg == Leg::Traced;
        assert_eq!(timeline.is_empty(), !traced, "traced runs record events");
        assert_eq!(report.is_some(), leg != Leg::Grouped);
        events += out.sim_events;
    }
    events
}

fn main() {
    // As the `repro` CLI does before a traced run. Without it, glibc
    // trims the heap top as each traced run frees its timeline, and the
    // next run's page faults add about 20 points to the traced leg.
    simcore::alloc_tuning::tune_for_long_sessions();
    let r = rounds(
        ROUNDS,
        &mut [
            ("untraced", &mut || leg(Leg::Untraced)),
            ("traced", &mut || leg(Leg::Traced)),
            ("grouped", &mut || leg(Leg::Grouped)),
            ("reference", &mut reference),
        ],
    );
    let mut report = Report::new("trace_overhead");
    report.field("runs_per_leg", RUNS);
    report.field("rounds", ROUNDS);
    report.rounds(&r);
    let [q1, ratio, q3] = r.ratio("traced", "untraced");
    println!(
        "traced over untraced: median {:+.1}%, IQR {:+.1}% to {:+.1}% (not gated)",
        (ratio - 1.0) * 100.0,
        (q1 - 1.0) * 100.0,
        (q3 - 1.0) * 100.0
    );
    report.field("traced_overhead_frac", format_args!("{:.4}", ratio - 1.0));
    report.field(
        "traced_overhead_frac_iqr",
        format_args!("[{:.4}, {:.4}]", q1 - 1.0, q3 - 1.0),
    );
    let [q1, ratio, q3] = r.ratio("traced", "grouped");
    println!("traced over grouped: median {ratio:.2}x, IQR {q1:.2}x to {q3:.2}x (not gated)");
    report.field("traced_over_grouped", format_args!("{ratio:.4}"));
    report.field(
        "traced_over_grouped_iqr",
        format_args!("[{q1:.4}, {q3:.4}]"),
    );
    let [q1, excess, q3] = r.excess("traced", "untraced", "reference");
    report.field(
        "traced_excess_over_reference_iqr",
        format_args!("[{q1:.4}, {q3:.4}]"),
    );
    report.at_most("traced_excess_over_reference", excess, MAX_EXCESS);
    report.finish();
}
