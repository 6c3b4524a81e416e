//! Steady-state allocation audit of the fluid-simulation hot path.
//!
//! A counting global allocator wraps the system allocator; the test runs
//! the same flow workload twice through [`FluidSim`] with a shared
//! [`SimArena`]. The first wave warms every buffer (event calendar, flow
//! records and path arenas, solver scratch, active list, dirty set,
//! incidence lists, completion queue); the second wave — flow
//! registration with fixed-size paths, scheduled factor changes, and the
//! whole event loop of solves, drains, activations, completions and the
//! compaction that reclaims retired flow records — must perform **zero**
//! heap allocations.
//!
//! Building the resources (labels, per-resource vectors) allocates by
//! design and sits outside the measured window; the claim is about
//! everything a rep loop does per flow and per event once its arena is
//! warm.
//!
//! The counter is per-thread: the libtest harness waits on another
//! thread while the test body runs, and its occasional allocations must
//! not leak into the measured window.

use simcore::flow::{CapacityModel, FlowNetwork, FluidSim, SimArena};
use simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter so background allocations (the libtest harness
// thread waiting on the result channel) can never pollute the measured
// window. `const`-initialized: accessing it from inside the allocator is
// safe because it needs no lazy initialization and `Cell<u64>` has no
// destructor to register (either would recurse into the allocator).
thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every operation to `System`; only adds a thread-local
// counter bump on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Build a workload of `flows` flows, then register them and run its
/// event loop to completion, returning the number of heap allocations
/// performed by registration and the loop (resource setup excluded).
fn run_wave(arena: &mut SimArena, flows: u64) -> u64 {
    // A small cluster: two shared links feeding four saturating targets,
    // with staggered flow arrivals and a mid-run factor dip + restore so
    // the measured window covers every steady-state code path — solver,
    // dirty-set skip, drain, heap pops, activation, completion, scheduled
    // factor events.
    let mut net = FlowNetwork::new();
    let links = [
        net.add_resource("link0", CapacityModel::Fixed(2000.0)),
        net.add_resource("link1", CapacityModel::Fixed(2500.0)),
    ];
    let targets: Vec<_> = (0..4)
        .map(|i| {
            net.add_resource(
                format!("ost{i}"),
                CapacityModel::Saturating {
                    peak: 900.0,
                    q_half: 1.5,
                },
            )
        })
        .collect();

    let before = allocations();
    let mut sim = FluidSim::with_arena(net, arena);
    for i in 0..flows {
        let path = [links[(i % 2) as usize], targets[(i % 4) as usize]];
        let start = SimTime::from_secs_f64((i % 7) as f64 * 0.25);
        sim.start_flow_at(start, path, 500.0 + (i * 37 % 211) as f64, i);
    }
    let flap = targets[1];
    sim.schedule_factor_change(SimTime::from_secs_f64(0.5), flap, 0.1);
    sim.schedule_factor_change(SimTime::from_secs_f64(1.5), flap, 1.0);
    while sim.next_completion().is_some() {}
    let during = allocations() - before;

    sim.recycle_into(arena);
    during
}

#[test]
fn second_wave_registration_and_event_loop_are_allocation_free() {
    let mut arena = SimArena::new();

    let cold = run_wave(&mut arena, 64);
    let warm = run_wave(&mut arena, 64);

    assert!(
        cold > 0,
        "cold wave should allocate while warming buffers (counter broken?)"
    );
    assert_eq!(
        warm, 0,
        "registration and event loop allocated {warm} times with warm buffers"
    );
}

#[test]
fn compaction_inside_the_event_loop_is_allocation_free() {
    // 2,560 flows, all registered before the first completion, finishing
    // in small batches: retired records outnumber the unretired ones
    // (and the 1,024-record compaction floor) once about 1,281 have
    // finished, so the network compacts its flow records and path
    // arena inside the window — by moving records down in place.
    let mut arena = SimArena::new();
    run_wave(&mut arena, 2560);
    let warm = run_wave(&mut arena, 2560);
    assert_eq!(
        warm, 0,
        "event loop with retired-flow compaction allocated {warm} times"
    );
}

#[test]
fn effective_capacity_of_an_ascending_list_is_allocation_free() {
    // Mixed weights started in slot order: the depth sum adds them as
    // listed, with no copy to sort.
    let sat = CapacityModel::Saturating {
        peak: 900.0,
        q_half: 1.5,
    };
    let mut net = FlowNetwork::new();
    let ost = net.add_resource("ost", sat);
    for i in 0..8 {
        let f = net.add_flow_weighted([ost], 1.0, i, 0.1 * (i + 1) as f64);
        net.activate(f);
    }
    let warm = net.effective_capacity(ost);
    let before = allocations();
    let cap = net.effective_capacity(ost);
    let during = allocations() - before;
    assert_eq!(during, 0, "effective_capacity allocated {during} times");
    assert_eq!(cap.to_bits(), warm.to_bits());
    assert!(cap > 0.0 && cap < 900.0);
}
