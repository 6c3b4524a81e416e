//! Tracing overhead check: the `repro --trace` outage run
//! ([`experiments::context::outage_run`]) with no recorder attached vs.
//! recording into an [`obs::Timeline`].
//!
//! Each round times a batch of untraced repetitions and a batch of
//! traced ones over the same seeds, back to back on the process CPU
//! clock (which leg goes first alternates), so both legs see the same
//! host phase and each lasts long enough for the clock to resolve. The
//! bench fails when the median over rounds of a traced leg's time over
//! its untraced leg's, less one, exceeds [`MAX_OVERHEAD`], so
//! emission-path regressions fail CI instead of silently accumulating.

use bench::{rounds, Report};
use experiments::context::outage_run;
use simcore::rng::RngFactory;

/// Timed rounds.
const ROUNDS: usize = 31;
/// Repetitions per leg, one per seed: about 50 ms of CPU on a 2-vCPU
/// x86-64 VM, where one untraced repetition takes about 0.12 ms.
const RUNS: usize = 400;
/// Largest allowed median ratio of a traced leg's CPU time to an
/// untraced leg's, less one. Ten runs on a 2-vCPU x86-64 VM read
/// 0.188–0.246, and twice 0.259–0.279; a traced leg made 10% slower
/// read 0.324 and fails.
const MAX_OVERHEAD: f64 = 0.25;

/// One leg: the `repro --trace` outage run once per seed, as a
/// campaign runs repetitions — a fresh deployment and its run, traced
/// into a fresh timeline or not. Returns the simulation events of all
/// repetitions.
fn leg(traced: bool) -> u64 {
    let mut events = 0;
    for seed in 0..RUNS as u64 {
        let mut timeline = obs::Timeline::new();
        let mut rng = RngFactory::new(seed).stream("trace-overhead", 0);
        let (out, _) = outage_run(&mut rng, |run| {
            if traced {
                run.trace(&mut timeline)
            } else {
                run
            }
        })
        .expect("bench run");
        assert_eq!(timeline.is_empty(), !traced, "traced runs record events");
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
            ("untraced", &mut || leg(false)),
            ("traced", &mut || leg(true)),
        ],
    );
    let mut report = Report::new("trace_overhead");
    report.field("runs_per_leg", RUNS);
    report.field("rounds", ROUNDS);
    report.rounds(&r);
    let [q1, ratio, q3] = r.ratio("traced", "untraced");
    println!(
        "traced over untraced: IQR {:+.1}% to {:+.1}%",
        (q1 - 1.0) * 100.0,
        (q3 - 1.0) * 100.0
    );
    report.field(
        "traced_overhead_frac_iqr",
        format_args!("[{:.4}, {:.4}]", q1 - 1.0, q3 - 1.0),
    );
    report.at_most("traced_overhead_frac", ratio - 1.0, MAX_OVERHEAD);
    report.finish();
}
