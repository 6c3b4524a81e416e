//! Straggler-machinery overhead: what hedging costs the simulator.
//!
//! It times full IOR writes on the storage-bound scenario-2 platform
//! with a transient straggler in the capacity curves, plain and hedged
//! (chunked drain, online detection, redirects). Each round times a
//! plain leg and a hedged leg of about the same length back to back on
//! the process CPU clock, so both see the same host phase, and the gate
//! holds the median of the per-round ratios of a hedged run's time to a
//! plain run's to [`MAX_HEDGING_OVERHEAD`]. Hedging splits every
//! transfer into four chunks and re-solves at each chunk boundary, so
//! some solver-side cost is expected and bought back many times over in
//! simulated tail latency; the gate catches the hedged drain growing
//! costlier than that.

use beegfs_core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
};
use bench::{rounds, Report};
use cluster::{presets, TargetId};
use ior::{IorConfig, Run};
use simcore::rng::RngFactory;

/// Timed rounds.
const ROUNDS: usize = 21;
/// IOR runs of a hedged leg, one per seed.
const RUNS: usize = 24;
/// Passes of a plain leg over the same seeds: a plain run costs about a
/// quarter of a hedged one, so the two legs last about as long.
const PLAIN_PASSES: usize = 4;
/// Largest allowed median ratio of a hedged run's CPU time to a plain
/// run's. Ten runs on a 2-vCPU x86-64 VM read 4.59–5.08×; a hedged leg
/// made a third slower read 6.31× and fails.
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
/// transient straggler on target 0, hedged or plain. Returns the
/// simulation events of all runs.
fn leg(hedged: bool, passes: usize, factory: &RngFactory) -> u64 {
    let plan = FaultPlan::new()
        .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
        .expect("valid straggler parameters");
    let label = if hedged { "on-hedged" } else { "on-plain" };
    let mut events = 0;
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
        events += out.sim_events;
    }
    events
}

fn main() {
    let factory = RngFactory::new(4242);
    let r = rounds(
        ROUNDS,
        &mut [
            ("plain", &mut || leg(false, PLAIN_PASSES, &factory)),
            ("hedged", &mut || leg(true, 1, &factory)),
        ],
    );
    let mut report = Report::new("straggler_overhead");
    report.field("hedged_runs_per_round", RUNS);
    report.field("plain_runs_per_round", PLAIN_PASSES * RUNS);
    report.field("rounds", ROUNDS);
    report.rounds(&r);
    // Per run: a plain leg runs `PLAIN_PASSES` times the hedged leg's runs.
    let overhead = r.ratio("hedged", "plain")[1] * PLAIN_PASSES as f64;
    report.at_most("hedging_overhead", overhead, MAX_HEDGING_OVERHEAD);
    report.finish();
}
