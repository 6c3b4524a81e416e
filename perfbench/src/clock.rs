//! The benchmark's clock: process CPU time rescaled to a fixed host speed.
//!
//! On a shared VM the same work can take 1.6× more CPU time when a
//! neighbour loads the hardware under this vCPU (a busy hyperthread
//! sibling, contended caches), in phases of seconds to minutes. CPU time
//! alone does not hide that. So the run keeps probing the host's speed:
//! every [`PROBE_EVERY_S`] of work it runs a [`Reference`] computation
//! that lives here, where no change to the simulator can make it faster
//! or slower, and times it. The clock then advances at `nominal / (median
//! of the last probes)` per CPU second, so a slow phase of the host slows
//! the work and the reference alike and the clock's reading stays put,
//! while a slower simulator still reads slower. Probe time is left out.
//!
//! A neighbour slows code with a large working set more than code with a
//! small one, so each workload probes with a reference sized like its own
//! solves: [`SMALL`] for single applications, [`LARGE`] for online
//! sessions with thousands of live flows.
//!
//! The benchmark is single-threaded, so the clock is thread-local.

use crate::host::cpu_s;
use std::cell::RefCell;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

/// A reference computation shaped like the simulator's work: up to
/// `rounds` rounds of a max–min progressive filling of `flows` random
/// flows over `resources` resources, an event heap over the flows with
/// `events` follow-up events, and a sorted map of short-lived buffers of
/// mixed sizes. Its inputs come from a fixed seed.
pub struct Reference {
    flows: usize,
    resources: usize,
    rounds: usize,
    events: usize,
    /// CPU seconds one call takes on the host this benchmark was tuned on
    /// (a 2-vCPU x86-64 cloud VM, when its neighbours are idle): a
    /// reading of the clock is in CPU seconds of that host.
    nominal_s: f64,
}

/// Sized like one application's solve of at most 32 nodes (`paper_grid`).
pub const SMALL: Reference = Reference {
    flows: 384,
    resources: 48,
    rounds: 48,
    events: 2_304,
    nominal_s: 0.5e-3,
};

/// Sized like the live flows of a contended 1,000-target session.
pub const LARGE: Reference = Reference {
    flows: 4_096,
    resources: 1_024,
    rounds: 6,
    events: 4_096,
    nominal_s: 0.9e-3,
};

/// Seconds of work (on this clock) between two probes.
const PROBE_EVERY_S: f64 = 0.02;

/// Probes the speed estimate is the median of.
const PROBE_WINDOW: usize = 15;

struct State {
    reference: &'static Reference,
    /// Clock reading at `base_cpu_s`.
    base: f64,
    base_cpu_s: f64,
    /// Clock seconds per CPU second.
    factor: f64,
    last_probe: f64,
    /// The latest probes' CPU seconds, oldest first.
    window: Vec<f64>,
    /// Every probe's CPU seconds.
    probes: Vec<f64>,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Start the clock at 0, probing with `reference`. Call it once, before
/// any other function of this module.
pub fn start(reference: &'static Reference) {
    let mut st = State {
        reference,
        base: 0.0,
        base_cpu_s: cpu_s(),
        factor: 1.0,
        last_probe: 0.0,
        window: Vec::new(),
        probes: Vec::new(),
    };
    // A first estimate from a full window, so the first readings are
    // already rescaled.
    for _ in 0..PROBE_WINDOW {
        st.probe();
    }
    STATE.with(|s| *s.borrow_mut() = Some(st));
}

fn with<T>(f: impl FnOnce(&mut State) -> T) -> T {
    STATE.with(|s| f(s.borrow_mut().as_mut().expect("clock::start was called")))
}

impl State {
    fn now(&self) -> f64 {
        self.base + (cpu_s() - self.base_cpu_s) * self.factor
    }

    fn probe(&mut self) {
        let t0 = cpu_s();
        self.base += (t0 - self.base_cpu_s) * self.factor;
        black_box(self.reference.run());
        let t1 = cpu_s();
        let took = t1 - t0;
        self.probes.push(took);
        self.window.push(took);
        if self.window.len() > PROBE_WINDOW {
            self.window.remove(0);
        }
        let mut w = self.window.clone();
        w.sort_by(f64::total_cmp);
        self.factor = self.reference.nominal_s / w[w.len() / 2];
        self.base_cpu_s = t1;
        self.last_probe = self.base;
    }
}

/// Seconds of work so far on the rescaled clock.
pub fn now() -> f64 {
    with(|s| s.now())
}

/// Probe the host's speed if [`PROBE_EVERY_S`] of work has passed since
/// the last probe, then read the clock. Call it between ops: a probe is
/// never inside one.
pub fn tick() -> f64 {
    with(|s| {
        let now = s.now();
        if now - s.last_probe < PROBE_EVERY_S {
            return now;
        }
        s.probe();
        s.now()
    })
}

/// The median probe over the reference's nominal time: how much slower
/// than the tuning host this run's host was (1 = as fast).
pub fn host_slowdown() -> f64 {
    with(|s| {
        let mut p = s.probes.clone();
        p.sort_by(f64::total_cmp);
        p[p.len() / 2] / s.reference.nominal_s
    })
}

/// The xorshift64 generator every input of the reference comes from.
fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

impl Reference {
    /// Run the computation once; returns a checksum of its results.
    fn run(&self) -> u64 {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let (flows, resources) = (self.flows, self.resources);
        // Progressive filling: each flow crosses three resources.
        let capacity: Vec<f64> = (0..resources)
            .map(|_| 100.0 + (next() % 900) as f64)
            .collect();
        let paths: Vec<[usize; 3]> = (0..flows)
            .map(|_| {
                [
                    next() as usize % resources,
                    next() as usize % resources,
                    next() as usize % resources,
                ]
            })
            .collect();
        let mut rate = vec![0.0f64; flows];
        let mut frozen = vec![false; flows];
        let mut left = capacity.clone();
        for _ in 0..self.rounds {
            let mut users = vec![0usize; resources];
            for (f, p) in paths.iter().enumerate() {
                if !frozen[f] {
                    for &r in p {
                        users[r] += 1;
                    }
                }
            }
            let Some((bottleneck, share)) = (0..resources)
                .filter(|&r| users[r] > 0)
                .map(|r| (r, left[r] / users[r] as f64))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break;
            };
            for (f, p) in paths.iter().enumerate() {
                if !frozen[f] {
                    rate[f] += share;
                    for &r in p {
                        left[r] -= share;
                    }
                    frozen[f] |= p.contains(&bottleneck);
                }
            }
        }
        // An event calendar: completion instants of the flows, popped in
        // order, each pop scheduling a follow-up until a budget runs out.
        let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, u32)> = rate
            .iter()
            .enumerate()
            .map(|(f, r)| (std::cmp::Reverse((1e9 / r.max(1e-9)) as u64), f as u32))
            .collect();
        let mut budget = self.events;
        let mut order = 0u64;
        while let Some((std::cmp::Reverse(t), f)) = heap.pop() {
            order = order.wrapping_mul(31).wrapping_add(t ^ u64::from(f));
            if budget > 0 {
                budget -= 1;
                heap.push((std::cmp::Reverse(t + 1 + next() % 1_000_000), f));
            }
        }
        // A sorted map of records with short-lived buffers of mixed sizes.
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for i in 0..1_024u64 {
            let len = 1 + (next() % 96) as usize;
            let buf: Vec<u64> = (0..len as u64).map(|j| i ^ j).collect();
            map.insert(next() % 4_096, buf);
            if i % 3 == 0 {
                let key = next() % 4_096;
                if let Some((&k, _)) = map.range(key..).next() {
                    map.remove(&k);
                }
            }
        }
        let sum = map
            .values()
            .fold(0u64, |a, v| a.wrapping_add(v.iter().sum::<u64>()));
        let rates = rate.iter().fold(0u64, |a, r| a ^ r.to_bits());
        order ^ sum ^ rates
    }
}
