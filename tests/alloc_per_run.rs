//! Allocation contract of a warm repetition.
//!
//! A counting global allocator wraps the system allocator. With a
//! [`SimArena`] warmed by earlier runs and no metrics registry attached,
//! one `Run::execute` must allocate a number of times that does not grow
//! with the cell's nodes, processes, stripe count or resources: the
//! 1-node stripe-1 scenario-1 cell and the 32-node stripe-8 scenario-2
//! cell (15 and 77 resources, 8 and 256 processes) allocate exactly as
//! often. That holds with one arena per cell (steady state) and with one
//! arena shared by the two cells in alternation, as a campaign sweep
//! runs them, for plain runs and for hedged ones (whose chunk streams
//! and straggler detector take a few more, fixed, allocations).
//!
//! Each measured repetition replays the RNG stream of a warm-up
//! repetition, so it writes to targets the arena has already carried:
//! a warm arena keeps every incidence list's capacity, and a list that
//! was never loaded still grows once on first use.
//!
//! The counter is per-thread: the libtest harness waits on another
//! thread while the test body runs, and its occasional allocations must
//! not leak into the measured window. The binary holds this one test.

use beegfs_repro::core::ChooserKind;
use beegfs_repro::experiments::context::deploy;
use beegfs_repro::experiments::Scenario;
use beegfs_repro::ior::{IorConfig, Run, SimArena};
use beegfs_repro::simcore::rng::RngFactory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread and `const`-initialized, so the allocator can bump it
// without recursing into itself.
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

/// A plain single-application campaign cell.
#[derive(Clone, Copy)]
struct Case {
    scenario: Scenario,
    stripe: u32,
    nodes: usize,
}

const SMALL: Case = Case {
    scenario: Scenario::S1Ethernet,
    stripe: 1,
    nodes: 1,
};

const LARGE: Case = Case {
    scenario: Scenario::S2Omnipath,
    stripe: 8,
    nodes: 32,
};

/// Repetitions per pass.
const REPS: u64 = 4;

/// One repetition of `cell` on RNG stream `rep`, as the campaign engine
/// runs it: a fresh deployment (outside the count), then `Run::execute`
/// with the arena, hedged or not. Returns the allocations the run made.
fn rep(cell: Case, hedge: bool, rep: u64, arena: &mut SimArena) -> u64 {
    let mut fs = deploy(cell.scenario, cell.stripe, ChooserKind::RoundRobin);
    let cfg = IorConfig::paper_default(cell.nodes);
    let mut rng = RngFactory::new(11).stream("alloc-per-run", rep);
    let before = allocations();
    let mut run = Run::new(&mut fs).arena(arena).app(cfg);
    if hedge {
        run = run.hedge();
    }
    let result = run.execute(&mut rng);
    let during = allocations() - before;
    let (out, _) = result.expect("the cell runs");
    assert!(out.try_single().expect("one app").bytes > 0);
    during
}

/// Every warm run of both cells, hedged or not, with an arena per cell
/// and with one arena in alternation, allocates the same number of
/// times.
fn assert_one_count(hedge: bool) {
    // Steady state: one arena per cell, warmed by a pass over the
    // repetitions that the measured pass replays.
    let mut steady = Vec::new();
    for cell in [SMALL, LARGE] {
        let mut arena = SimArena::new();
        let cold = rep(cell, hedge, 0, &mut arena);
        for r in 1..REPS {
            rep(cell, hedge, r, &mut arena);
        }
        let warm: Vec<u64> = (0..REPS).map(|r| rep(cell, hedge, r, &mut arena)).collect();
        assert!(
            cold > warm[0],
            "a cold arena should allocate more (counter broken?)"
        );
        steady.push(warm);
    }
    // Alternation: one arena for both cells, small and large in turn.
    let mut arena = SimArena::new();
    for r in 0..REPS {
        rep(SMALL, hedge, r, &mut arena);
        rep(LARGE, hedge, r, &mut arena);
    }
    let (mut small, mut large) = (Vec::new(), Vec::new());
    for r in 0..REPS {
        small.push(rep(SMALL, hedge, r, &mut arena));
        large.push(rep(LARGE, hedge, r, &mut arena));
    }
    let per_run = steady[0][0];
    for (case, counts) in [
        ("steady small", &steady[0]),
        ("steady large", &steady[1]),
        ("alternating small", &small),
        ("alternating large", &large),
    ] {
        assert!(
            counts.iter().all(|&n| n == per_run),
            "{case}, hedged {hedge}: warm runs allocated {counts:?} times, not {per_run} each"
        );
    }
}

#[test]
fn a_warm_run_allocates_the_same_for_a_small_and_a_large_cell() {
    assert_one_count(false);
    assert_one_count(true);
}
