//! Straggler-machinery overhead: what hedging costs the simulator.
//!
//! It times full IOR writes on the storage-bound scenario-2 platform
//! with a transient straggler in the capacity curves, plain and hedged
//! (chunked drain, online detection, redirects). Each round times a
//! plain leg and a hedged leg over the same seeds and the shared
//! reference computation ([`bench::reference`]) back to back on the
//! process CPU clock, so all three see the same host phase. Hedging
//! splits every transfer into four chunks and re-solves at each chunk
//! boundary, so some solver-side cost is expected and bought back many
//! times over in simulated tail latency; the gates catch the hedged
//! drain growing costlier than that. Both are medians over rounds of an
//! in-round quantity:
//!
//! * a hedged run costs at most [`MAX_HEDGING_OVERHEAD`] plain runs.
//!   Both legs are simulator code, so a slow host phase slows both, but
//!   the ratio also rises when the plain run alone gets cheaper;
//! * what the hedged leg adds to the plain one costs at most
//!   [`MAX_HEDGING_EXCESS`] reference legs, which a cheaper plain run
//!   leaves alone.

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use bench::{reference, rounds, Report};
use cluster::{presets, TargetId};
use ior::{IorConfig, Run};
use simcore::rng::RngFactory;

/// Timed rounds.
const ROUNDS: usize = 21;
/// IOR runs of a leg, one per seed.
const RUNS: usize = 24;
/// Largest allowed median ratio of the hedged leg's CPU time to the
/// plain leg's. On a 2-vCPU x86-64 VM, which runs a process in one of
/// two speeds, 30 clean runs read 4.48–4.80 in either speed; a hedged
/// leg made a third slower read 6.10–6.31 in eight (one in the slow
/// speed) and fails, one made 10% slower 4.98–5.22 in 13 and passes.
const MAX_HEDGING_OVERHEAD: f64 = 5.4;
/// Largest allowed median over rounds of the hedged leg's CPU time less
/// the plain leg's, over the reference leg's. In the VM's slow speed the
/// simulator legs take about 1.5 times as long, the reference leg about
/// 1.25 times, so this reading moves with the speed: 58 clean runs read
/// 0.77–0.94 fast and 1.00–1.12 slow, a hedged leg made 10% slower
/// 0.88–0.97 fast and 1.05–1.20 slow or mixed (24 runs), and one made a
/// third slower 1.13–1.25 fast (eleven runs) and 1.49 slow (one). The bound
/// passes every clean run, so it fails the 10% slowdown only in the
/// slow speed; [`MAX_HEDGING_OVERHEAD`] fails the larger one in both.
const MAX_HEDGING_EXCESS: f64 = 1.15;

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

/// One leg of a round: `RUNS` IOR writes against a transient straggler
/// on target 0, one per seed, hedged or plain. Returns the simulation
/// events of all runs.
fn leg(hedged: bool, factory: &RngFactory) -> u64 {
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .expect("valid straggler parameters");
    let label = if hedged { "on-hedged" } else { "on-plain" };
    let mut events = 0;
    for i in 0..RUNS {
        let mut fs = deploy();
        let mut rng = factory.stream(label, i as u64);
        let mut run = Run::new(&mut fs)
            .app(IorConfig::paper_default(8))
            .faults(plan.clone());
        if hedged {
            run = run.hedge();
        }
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
            ("plain", &mut || leg(false, &factory)),
            ("hedged", &mut || leg(true, &factory)),
            ("reference", &mut reference),
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
    let [q1, excess, q3] = r.excess("hedged", "plain", "reference");
    report.field(
        "hedging_excess_over_reference_iqr",
        format_args!("[{q1:.4}, {q3:.4}]"),
    );
    report.at_most("hedging_excess_over_reference", excess, MAX_HEDGING_EXCESS);
    report.finish();
}
