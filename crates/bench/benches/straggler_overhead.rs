//! Straggler-machinery overhead: what hedging costs the simulator.
//!
//! It times full IOR writes on the storage-bound scenario-2 platform
//! with a transient straggler in the capacity curves, plain and hedged
//! (chunked drain, online detection, redirects). Each round times a
//! plain leg, a hedged leg and a per-flow plain leg over the same seeds
//! back to back on the process CPU clock, so all three see the same host
//! phase. Hedging splits every transfer into four chunks and re-solves
//! at each chunk boundary, so some solver-side cost is expected and
//! bought back many times over in simulated tail latency; the gates
//! catch the hedged drain growing costlier than that. Both are medians
//! over rounds of an in-round quantity:
//!
//! * a hedged run costs at most [`MAX_HEDGING_OVERHEAD`] plain runs.
//!   Both legs are simulator code, so a slow host phase slows both, but
//!   the ratio also rises when the plain run alone gets cheaper;
//! * what the hedged leg adds to the plain one costs at most
//!   [`MAX_HEDGING_EXCESS`] per-flow plain runs, which a cheaper plain
//!   run moves only by what the plain run saved.
//!
//! The plain run observes nothing per flow, so it starts each node's
//! identical flows as one record; the hedged run writes each stream in
//! chunks the detector observes one by one, so it keeps one flow per
//! record. The per-flow leg is the plain run forced to one flow per
//! record by asking for its utilization report: the simulation a hedged
//! run does without its machinery. It runs the hedged leg's kind of
//! code, so the VM's slow host speed, which stretches simulator legs
//! about 1.5–1.8 times and [`bench::reference`] about 1.25 times,
//! stretches it as it does the hedged leg, and the excess reads alike in
//! either speed; over the reference it did not.

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use bench::{rounds, Report};
use cluster::{presets, TargetId};
use ior::{IorConfig, Run};
use simcore::rng::RngFactory;

/// Timed rounds.
const ROUNDS: usize = 21;
/// IOR runs of a leg, one per seed.
const RUNS: usize = 24;
/// Largest allowed median ratio of the hedged leg's CPU time to the
/// plain leg's. On a 2-vCPU x86-64 VM, which runs a process in one of
/// two speeds, 64 clean runs read 12.34–13.33 fast (20 runs) and
/// 12.44–13.97 slow (44): the hedged leg slows more than the grouped
/// plain one. A scratch build that slows the hedged leg by spinning on
/// the CPU clock for a share of its own time read 12.61–14.00 with the
/// spin off (20 runs), 16.69–18.01 with the leg a third slower (20 runs,
/// 11 slow), which fails in either speed, and 13.78–15.23 with it 10%
/// slower (20 runs, 16 slow), which passes in 19 of them.
const MAX_HEDGING_OVERHEAD: f64 = 15.0;
/// Largest allowed median over rounds of the hedged leg's CPU time less
/// the plain leg's, over the per-flow leg's. The runs above read
/// 3.81–4.30 clean (3.81–4.20 fast, 3.95–4.30 slow) and 3.92–4.34 with
/// the spin off; the leg a third slower read 5.26–5.58 fast and
/// 5.44–5.65 slow and fails in either speed, 10% slower 4.34–4.58 and
/// passes.
const MAX_HEDGING_EXCESS: f64 = 4.7;

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

/// How a leg runs its writes.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    /// Nothing observed per flow: a node's identical flows share a
    /// record.
    Plain,
    /// The plain runs with their utilization report: one flow per
    /// record.
    PerFlow,
    /// Hedged: chunked drain, detection and redirects, one flow per
    /// record.
    Hedged,
}

/// One leg of a round: `RUNS` IOR writes against a transient straggler
/// on target 0, one per seed, run as `leg` says. Returns the simulation
/// events of all runs.
fn leg(leg: Leg, factory: &RngFactory) -> u64 {
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .expect("valid straggler parameters");
    let label = if leg == Leg::Hedged {
        "on-hedged"
    } else {
        "on-plain"
    };
    let mut events = 0;
    for i in 0..RUNS {
        let mut fs = deploy();
        let mut rng = factory.stream(label, i as u64);
        let run = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .faults(plan.clone());
        let run = match leg {
            Leg::Plain => run,
            Leg::PerFlow => run.utilization(),
            Leg::Hedged => run.hedge(),
        };
        let (out, _) = run.execute(&mut rng).expect("straggler run");
        assert!(out.try_single().expect("one app").duration_s > 0.0);
        events += out.sim_events;
    }
    events
}

fn main() {
    let factory = RngFactory::new(4242);
    let r = rounds(
        ROUNDS,
        &mut [
            ("plain", &mut || leg(Leg::Plain, &factory)),
            ("hedged", &mut || leg(Leg::Hedged, &factory)),
            ("per_flow", &mut || leg(Leg::PerFlow, &factory)),
        ],
    );
    let mut report = Report::new("straggler_overhead");
    report.field("runs_per_leg", RUNS);
    report.field("rounds", ROUNDS);
    report.rounds(&r);
    report.at_most(
        "hedging_overhead",
        r.ratio("hedged", "plain")[1],
        MAX_HEDGING_OVERHEAD,
    );
    let [q1, excess, q3] = r.excess("hedged", "plain", "per_flow");
    report.field(
        "hedging_excess_over_per_flow_iqr",
        format_args!("[{q1:.4}, {q3:.4}]"),
    );
    report.at_most("hedging_excess_over_per_flow", excess, MAX_HEDGING_EXCESS);
    report.finish();
}
