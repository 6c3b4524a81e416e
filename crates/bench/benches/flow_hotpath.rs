//! Solver hot-path benchmark: many small flows through the fluid loop,
//! under the incremental allocation-free solver, under the retained
//! reference solver, and under the incremental solver with metrics
//! collected and harvested into an [`obs::metrics::MetricsRegistry`].
//!
//! The workload is solver-bound by design: hundreds of registered flows
//! arriving in small staggered batches over a few resources, so every
//! completion re-solves while the *active* set stays small. The
//! incremental solver walks the active list with warm scratch buffers
//! and skips no-op solves outright. The reference leg replays the same
//! flows on a bare network and solves each instant with
//! [`FlowNetwork::reference_recompute_rates`], which rescans every
//! registered flow and allocates its work vectors afresh; the bench
//! keeps that leg's fluid clock itself, so no switch in the simulator
//! serves it.
//!
//! The dense leg runs the same flows, each also crossing one shared
//! switch, as every write on the paper's platforms crosses its switch.
//! Every solve there covers the whole active set, which the solver takes
//! off its active and loaded lists without the dirty-component walk.
//!
//! Three gates, the first two the median over rounds of an in-round
//! ratio of two legs' CPU times:
//!
//! * the reference leg takes at least [`MIN_SPEEDUP`] times the
//!   incremental leg, which also catches cost leaking into the
//!   metrics-off path the incremental leg runs. Both legs are simulator
//!   code, so a slow host phase slows both;
//! * the metrics leg costs at most [`MAX_METRICS_OVERHEAD`] more than
//!   a metrics-off leg, the same rep with no registry. The two run in
//!   rounds of their own, alternating which goes first, so each always
//!   follows the other rather than a leg of different code;
//! * every solve of the dense leg takes the whole active set (a
//!   deterministic count, so this gate is exact).

use bench::{rounds, Report};
use obs::metrics::MetricsRegistry;
use simcore::flow::{CapacityModel, FlowId, FlowNetwork, FluidSim, ResourceId, SimArena};
use simcore::SimTime;
use std::cell::RefCell;

/// Timed rounds of the incremental, reference and dense legs.
const ROUNDS: usize = 25;
/// Timed rounds of the metrics-off and metrics legs, which last under a
/// millisecond each.
const METRICS_ROUNDS: usize = 301;
/// Flows per rep.
const FLOWS: u64 = 2000;
/// Smallest allowed median ratio of the reference leg's CPU time to the
/// incremental leg's. A 2-vCPU x86-64 VM runs a process in one of two
/// speeds, in which both legs take about 1.7 times as long; 24 clean
/// runs read 11.00–11.84 (four of them in the slow speed), and 14 runs
/// of an incremental leg made 30% slower 8.11–9.58 (three slow): the
/// bound fails that slowdown in either speed. With flow records, 50
/// clean runs read 12.07–13.51 (two slow), while a build that differed
/// only by the mutation's hook read 10.65–11.43 clean and 8.44–8.75
/// with the 30% slower leg (16 runs each): the hook moved the
/// reference leg's time by about a sixth, with the same solver source,
/// so layout alone moves this reading by that much.
const MIN_SPEEDUP: f64 = 10.3;
/// Largest allowed median ratio of the metrics leg's CPU time to the
/// metrics-off leg's, less one. 50 clean runs read 0.012–0.111, median
/// 0.041, one above the bound: a spread between whole processes that
/// more rounds do not cut (interleaved with the other legs, 301 rounds
/// read 0.046–0.106, one of 56 above). A metrics leg made 15% slower
/// read 0.196–0.294 in 12 and fails.
const MAX_METRICS_OVERHEAD: f64 = 0.10;
/// Smallest allowed share of the dense incremental rep's solves that
/// take the whole active set: a deterministic count, 2,003 of 2,003. A
/// walk that never takes that shortcut read 0 of 2,003 and fails.
const MIN_WHOLE_SET_SHARE: f64 = 1.0;
/// The index of the target that flaps mid-stream.
const FLAP: usize = 5;
/// Its factor changes: (instant in seconds, speed factor).
const FLAPS: [(f64, f64); 2] = [(0.4, 0.2), (1.2, 1.0)];

/// A rep's network: two links, eight targets and, with `dense` set, one
/// shared switch. Returns it with the path of each of the [`FLOWS`]
/// flows: alternate links, each target in turn, then the switch.
fn network(dense: bool) -> (FlowNetwork, Vec<Vec<ResourceId>>) {
    let mut net = FlowNetwork::new();
    net.add_resource("link0", CapacityModel::Fixed(4000.0));
    net.add_resource("link1", CapacityModel::Fixed(5000.0));
    for i in 0..8 {
        net.add_resource(
            format_args!("ost{i}"),
            CapacityModel::Saturating {
                peak: 900.0,
                q_half: 1.5,
            },
        );
    }
    let switch = dense.then(|| net.add_resource("switch", CapacityModel::Fixed(6000.0)));
    let paths = (0..FLOWS as usize)
        .map(|i| {
            let mut path = vec![
                ResourceId::from_index(i % 2),
                ResourceId::from_index(2 + i % 8),
            ];
            path.extend(switch);
            path
        })
        .collect();
    (net, paths)
}

/// Flow `i`'s start instant in seconds (batches of eight a quarter
/// second apart, arriving slower than they drain) and its bytes.
fn flow(i: u64) -> (f64, f64) {
    ((i / 8) as f64 * 0.25, 10.0 + (i * 13 % 17) as f64)
}

/// One rep: [`FLOWS`] small flows over [`network`], with [`FLAP`]
/// flapping mid-stream. With a `registry`, the sim collects its
/// introspection histograms and harvests everything into it after the
/// last completion, as a campaign rep does. Returns the sim's events,
/// solves and whole-set solves.
fn rep(arena: &mut SimArena, dense: bool, registry: Option<&mut MetricsRegistry>) -> [u64; 3] {
    let (net, paths) = network(dense);
    let mut sim = FluidSim::with_arena(net, arena);
    if registry.is_some() {
        sim.enable_metrics();
    }
    for (i, path) in (0..).zip(paths) {
        let (start_s, bytes) = flow(i);
        sim.start_flow_at(SimTime::from_secs_f64(start_s), path, bytes, i);
    }
    for (at_s, factor) in FLAPS {
        sim.schedule_factor_change(
            SimTime::from_secs_f64(at_s),
            ResourceId::from_index(FLAP),
            factor,
        );
    }

    let mut done = 0u64;
    while sim.next_completion().is_some() {
        done += 1;
    }
    assert_eq!(done, FLOWS, "every flow must complete");
    if let Some(reg) = registry {
        sim.metrics_into(reg);
    }
    let net = sim.network();
    let counts = [
        sim.events_processed(),
        net.solve_count(),
        net.whole_set_solve_count(),
    ];
    sim.recycle_into(arena);
    counts
}

/// The reference leg: the incremental leg's rep on a bare network that
/// never retires a flow, solved with
/// [`FlowNetwork::reference_recompute_rates`] at every instant where
/// something changes. The bench keeps the fluid clock: it starts the
/// flows and applies the factor changes due, solves, moves to the
/// earliest next start, factor change or completion, and drains every
/// active flow on the way, finishing those within a nanosecond of their
/// bytes. Returns the solves.
fn reference_rep() -> u64 {
    let (mut net, paths) = network(false);
    let ids: Vec<FlowId> = (0..)
        .zip(&paths)
        .map(|(i, path)| net.add_flow(path, flow(i).1, i))
        .collect();
    let mut remaining: Vec<f64> = (0..FLOWS).map(|i| flow(i).1).collect();
    let mut active: Vec<usize> = Vec::new();
    let (mut now, mut next, mut flaps, mut solves) = (0.0, 0, 0, 0);
    loop {
        while next < ids.len() && flow(next as u64).0 <= now {
            net.activate(ids[next]);
            active.push(next);
            next += 1;
        }
        while let Some(&(_, factor)) = FLAPS.get(flaps).filter(|(at_s, _)| *at_s <= now) {
            net.set_factor(ResourceId::from_index(FLAP), factor);
            flaps += 1;
        }
        if active.is_empty() && next == ids.len() {
            return solves;
        }
        net.reference_recompute_rates();
        solves += 1;
        let mut until = if next < ids.len() {
            flow(next as u64).0
        } else {
            f64::INFINITY
        };
        if let Some(&(at_s, _)) = FLAPS.get(flaps) {
            until = until.min(at_s);
        }
        for &k in &active {
            let rate = net.rate(ids[k]);
            if rate > 0.0 {
                until = until.min(now + remaining[k] / rate);
            }
        }
        let dt = until - now;
        active.retain(|&k| {
            let rate = net.rate(ids[k]);
            remaining[k] -= rate * dt;
            let live = remaining[k] > rate * 1e-9;
            if !live {
                net.deactivate(ids[k]);
            }
            live
        });
        now = until;
    }
}

/// A leg of one rep in the shared `arena`, metered with a `registry`.
/// Returns the rep's events.
fn leg<'a>(
    arena: &'a RefCell<SimArena>,
    dense: bool,
    mut registry: Option<&'a mut MetricsRegistry>,
) -> impl FnMut() -> u64 + 'a {
    move || rep(&mut arena.borrow_mut(), dense, registry.as_deref_mut())[0]
}

fn main() {
    let mut registry = MetricsRegistry::new();
    let arena = RefCell::new(SimArena::new());
    let r = rounds(
        ROUNDS,
        &mut [
            ("incremental", &mut leg(&arena, false, None)),
            ("reference_solver", &mut reference_rep),
            ("dense_incremental", &mut leg(&arena, true, None)),
        ],
    );
    let m = rounds(
        METRICS_ROUNDS,
        &mut [
            ("metrics_off", &mut leg(&arena, false, None)),
            ("metrics", &mut leg(&arena, false, Some(&mut registry))),
        ],
    );
    assert!(
        registry.counter("sim.events_processed") > 0
            && registry.histogram("sim.dirty_component_size").is_some(),
        "metered reps recorded nothing"
    );

    let mut report = Report::new("flow_hotpath");
    report.field("flows_per_rep", FLOWS);
    report.field("rounds", ROUNDS);
    report.field("metrics_rounds", METRICS_ROUNDS);
    report.rounds(&r);
    report.rounds(&m);
    let [_, dense_solves, dense_whole_set] = rep(&mut arena.borrow_mut(), true, None);
    report.field("dense_solves_per_rep", dense_solves);
    report.field("dense_whole_set_solves_per_rep", dense_whole_set);
    report.at_least(
        "speedup",
        r.ratio("reference_solver", "incremental")[1],
        MIN_SPEEDUP,
    );
    report.at_most(
        "metrics_overhead_frac",
        m.ratio("metrics", "metrics_off")[1] - 1.0,
        MAX_METRICS_OVERHEAD,
    );
    report.at_least(
        "dense_whole_set_share",
        dense_whole_set as f64 / dense_solves as f64,
        MIN_WHOLE_SET_SHARE,
    );
    report.finish();
}
