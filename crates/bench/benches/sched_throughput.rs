//! Scheduler placement throughput: how many placement decisions per
//! second each policy sustains on the scenario-1 platform.
//!
//! Not a Criterion target: it times the pure decision loop (no fluid
//! simulation — the cluster view is synthesized and perturbed between
//! calls) over a fixed number of arrivals per round, and writes
//! `BENCH_sched_throughput.json` at the repository root so CI can keep
//! an eye on placement staying microseconds-cheap.

use bench::median;
use cluster::presets;
use sched::{
    ClusterView, LeastLoadedServer, PlacementPolicy, Random, RoundRobinServer, StragglerAware,
    UtilizationFeedback,
};
use simcore::rng::RngFactory;
use std::time::Instant;

/// Placement decisions per timed round.
const ARRIVALS: usize = 10_000;
/// Timed rounds per policy (interleaved; the median is reported).
const ROUNDS: usize = 5;

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    vec![
        Box::new(Random),
        Box::<RoundRobinServer>::default(),
        Box::new(LeastLoadedServer),
        Box::new(UtilizationFeedback),
        Box::new(StragglerAware),
    ]
}

/// One timed round: `ARRIVALS` decisions with the view perturbed
/// deterministically between calls, so load-sensitive policies cannot
/// shortcut on a constant input.
fn one_round(policy: &mut dyn PlacementPolicy) -> f64 {
    let platform = presets::plafrim_ethernet();
    let online = vec![true; platform.total_targets()];
    let mut outstanding = vec![0.0f64; platform.server_count()];
    let mut busy = vec![0.0f64; platform.total_targets()];
    let mut suspected = vec![false; platform.total_targets()];
    let mut rng = RngFactory::new(7).stream("sched-throughput", 0);
    let mut picked = 0usize;
    let start = Instant::now();
    for i in 0..ARRIVALS {
        let servers = outstanding.len();
        let targets = busy.len();
        outstanding[i % servers] = (i % 97) as f64 * 1e9;
        busy[i % targets] = (i % 89) as f64 / 89.0;
        suspected[i % targets] = i % 13 == 0;
        let view = ClusterView {
            platform: &platform,
            online: &online,
            outstanding_bytes: &outstanding,
            busy_fraction: &busy,
            suspected: &suspected,
        };
        let placement = policy
            .place(&view, 4, 4 << 30, &mut rng)
            .expect("placement on a healthy pool");
        picked += match placement {
            sched::Placement::Pinned(ts) => ts.len(),
            sched::Placement::Deferred => 1,
        };
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(picked >= ARRIVALS, "decisions went missing");
    ARRIVALS as f64 / secs
}

fn main() {
    // Warm-up round per policy before timing anything.
    for p in policies().iter_mut() {
        one_round(p.as_mut());
    }
    // Interleave rounds across policies so drift hits all of them.
    let mut series: Vec<Vec<f64>> = policies().iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (i, p) in policies().iter_mut().enumerate() {
            series[i].push(one_round(p.as_mut()));
        }
    }
    let names: Vec<&'static str> = policies().iter().map(|p| p.name()).collect();
    let entries: Vec<String> = names
        .iter()
        .zip(&series)
        .map(|(name, s)| format!("  \"{name}_decisions_per_sec\": {:.0}", median(s.clone())))
        .collect();
    let json = format!(
        "{{\n  \"arrivals_per_round\": {ARRIVALS},\n  \"rounds\": {ROUNDS},\n{}\n}}\n",
        entries.join(",\n")
    );
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sched_throughput.json"
    );
    std::fs::write(out, &json).expect("write bench json");
    for (name, s) in names.iter().zip(&series) {
        println!(
            "{name}: {:.0} decisions/sec (median of {ROUNDS})",
            median(s.clone())
        );
    }
    println!("wrote {out}");
}
