//! Shared helpers for the gated benchmark targets under `benches/`.
//!
//! Each target times one layer or workload, writes its
//! `BENCH_*.json` at the repository root and fails past its committed
//! bound. Full-fidelity figure regeneration lives in the `experiments`
//! crate's `repro` binary, and perfbench's `paper_grid` workload times
//! every Fig 4/6/11 cell.

use simcore::flow::{CapacityModel, FlowNetwork, FluidSim, ResourceId, SimArena};
use simcore::SimTime;
use std::time::Instant;

/// The median of a non-empty sample (the upper middle for an even
/// count).
pub fn median(xs: Vec<f64>) -> f64 {
    quartiles(xs)[1]
}

/// The lower quartile, median and upper quartile of a non-empty sample,
/// each the sorted sample's entry at a quarter, a half and three
/// quarters of its length.
pub fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [xs[n / 4], xs[n / 2], xs[3 * n / 4]]
}

/// Pull `"key": <float>` out of a committed `BENCH_*.json` without a
/// JSON dependency; returns `None` when the key is absent or malformed.
pub fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// `getrusage(RUSAGE_SELF)`: process CPU seconds (user + system) and
/// peak resident set size in KiB (`ru_maxrss`). `None` off Linux or on
/// failure.
pub fn rusage() -> Option<(f64, i64)> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            // ru_maxrss .. ru_nivcsw: 14 more longs on Linux.
            rest: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        let mut r = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: RUSAGE_SELF (0) with a properly sized, writable struct.
        if unsafe { getrusage(0, &mut r) } == 0 {
            let cpu =
                (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6;
            return Some((cpu, r.rest[0]));
        }
    }
    None
}

/// Process CPU seconds, the benches' one CPU clock, falling back to wall
/// time since `wall_anchor` off Linux. The timed workloads are
/// deterministic and single-threaded, so their CPU time is a stable
/// quantity on shared CI hosts where wall-clock throughput swings by
/// 2-3x with neighbour load — gating on it measures the engine, not the
/// host.
pub fn cpu_seconds(wall_anchor: Instant) -> f64 {
    rusage().map_or_else(|| wall_anchor.elapsed().as_secs_f64(), |(cpu, _)| cpu)
}

/// Flows per [`hotpath_rep`].
pub const HOTPATH_FLOWS: u64 = 2000;

/// One rep of the `flow_hotpath` workload: [`HOTPATH_FLOWS`] small flows
/// in staggered batches over two links and eight targets, arriving
/// slower than they drain, with one target flapping mid-stream. With
/// `dense` set, every flow also crosses one shared `switch`, so every
/// solve covers the whole active set. `setup` configures the fresh
/// simulation before any flow is scheduled; `harvest` runs inside the
/// timed region after the last completion. Returns the timed seconds.
pub fn hotpath_rep(
    arena: &mut SimArena,
    dense: bool,
    setup: impl FnOnce(&mut FluidSim<'_>),
    harvest: impl FnOnce(&FluidSim<'_>),
) -> f64 {
    let mut net = FlowNetwork::new();
    net.add_resource("link0", CapacityModel::Fixed(4000.0));
    net.add_resource("link1", CapacityModel::Fixed(5000.0));
    for i in 0..8 {
        net.add_resource(
            format!("ost{i}"),
            CapacityModel::Saturating {
                peak: 900.0,
                q_half: 1.5,
            },
        );
    }
    let links: Vec<_> = (0..2).map(ResourceId::from_index).collect();
    let targets: Vec<_> = (2..10).map(ResourceId::from_index).collect();
    let switch = dense.then(|| net.add_resource("switch", CapacityModel::Fixed(6000.0)));

    let mut sim = FluidSim::with_arena(net, arena);
    setup(&mut sim);
    for i in 0..HOTPATH_FLOWS {
        let mut path = vec![
            links[(i % 2) as usize],
            targets[(i % targets.len() as u64) as usize],
        ];
        path.extend(switch);
        let start = SimTime::from_secs_f64((i / 8) as f64 * 0.25);
        sim.start_flow_at(start, path, 10.0 + (i * 13 % 17) as f64, i);
    }
    let flap = targets[3];
    sim.schedule_factor_change(SimTime::from_secs_f64(0.4), flap, 0.2);
    sim.schedule_factor_change(SimTime::from_secs_f64(1.2), flap, 1.0);

    let t0 = Instant::now();
    let mut done = 0u64;
    while sim.next_completion().is_some() {
        done += 1;
    }
    harvest(&sim);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(done, HOTPATH_FLOWS, "every flow must complete");
    sim.recycle_into(arena);
    elapsed
}
