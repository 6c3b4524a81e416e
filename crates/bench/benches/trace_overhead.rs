//! Tracing overhead check: the `repro --trace` outage run
//! ([`experiments::context::outage_run`]) with no recorder attached vs.
//! recording into an [`obs::Timeline`].
//!
//! Each round times a batch of untraced repetitions, a batch of traced
//! ones over the same seeds and a reference computation, back to back
//! on the process CPU clock (which leg goes first rotates), so all three
//! see the same host phase and each lasts long enough for the clock to
//! resolve. The bench fails when the median over rounds of what the
//! traced leg adds to the untraced one, measured in reference legs,
//! exceeds [`MAX_EXCESS`], so emission-path regressions fail CI instead
//! of silently accumulating. The reference calls nothing of the
//! simulator, so a cheaper untraced run leaves that reading alone, where
//! it raises the traced-over-untraced ratio the report still carries.

use bench::{rounds, Report};
use experiments::context::outage_run;
use simcore::rng::RngFactory;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

/// Timed rounds.
const ROUNDS: usize = 31;
/// Repetitions per leg, one per seed: about 50 ms of CPU on a 2-vCPU
/// x86-64 VM, where one untraced repetition takes about 0.12 ms.
const RUNS: usize = 400;
/// Largest allowed median over rounds of the traced leg's CPU time less
/// the untraced leg's, over the reference leg's. On a 2-vCPU x86-64 VM
/// twelve runs read 0.98–1.11, and a traced leg made 10% slower read
/// 1.53–1.61 in four runs and fails. While the `ior` runner accounted
/// utilization bytes in both legs, 24 runs read 1.02–1.35 and that
/// mutation 1.64–1.87.
const MAX_EXCESS: f64 = 1.4;

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

/// The reference leg: a fixed computation of the kinds a traced run
/// adds — a small max–min filling, a binary-heap calendar and a
/// `BTreeMap` under churn — that calls nothing of the simulator, so no
/// change to it moves this leg's time. About 6 ms on a 2-vCPU x86-64
/// VM. Returns the operations it did.
fn reference() -> u64 {
    const PASSES: u64 = 76;
    const RESOURCES: usize = 32;
    const FLOWS: usize = 192;
    // Two distinct resources a flow: 6f + 3 is never a multiple of 32.
    let paths: Vec<[usize; 2]> = (0..FLOWS)
        .map(|f| [f % RESOURCES, (f * 7 + 3) % RESOURCES])
        .collect();
    let mut ops = 0u64;
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    for pass in 0..PASSES {
        // Progressive filling: freeze the flows of the smallest share.
        let mut cap: Vec<f64> = (0..RESOURCES)
            .map(|r| 100.0 + ((r as u64 * 37 + pass) % 91) as f64)
            .collect();
        let mut count = [0u32; RESOURCES];
        for &r in paths.iter().flatten() {
            count[r] += 1;
        }
        let mut frozen = [false; FLOWS];
        while let Some((b, share)) = (0..RESOURCES)
            .filter(|&r| count[r] > 0)
            .map(|r| (r, cap[r] / f64::from(count[r])))
            .min_by(|x, y| x.1.total_cmp(&y.1))
        {
            for (f, p) in paths.iter().enumerate() {
                if !frozen[f] && p.contains(&b) {
                    frozen[f] = true;
                    for &r in p {
                        cap[r] -= share;
                        count[r] -= 1;
                    }
                    ops += 1;
                }
            }
        }
        black_box(&cap);
        // A calendar: pop the earliest instant, push a later one.
        for i in 0..FLOWS as u64 {
            heap.push(std::cmp::Reverse((i * 7919 + pass) % 1009));
        }
        while let Some(std::cmp::Reverse(t)) = heap.pop() {
            if t % 5 == 0 && t < 1000 {
                heap.push(std::cmp::Reverse(t + 13));
            }
            ops += 1;
        }
        // Churn: insert, look up and remove keys of a sliding window.
        for i in 0..4 * FLOWS as u64 {
            let k = (i * 2654435761 + pass) % 4096;
            *map.entry(k).or_insert(0u64) += i;
            if let Some((&first, _)) = map.first_key_value() {
                if map.len() > 256 {
                    map.remove(&first);
                }
            }
            ops += 1;
        }
        black_box(&map);
    }
    black_box(ops)
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
    let [q1, excess, q3] = r.excess("traced", "untraced", "reference");
    report.field(
        "traced_excess_over_reference_iqr",
        format_args!("[{q1:.4}, {q3:.4}]"),
    );
    report.at_most("traced_excess_over_reference", excess, MAX_EXCESS);
    report.finish();
}
