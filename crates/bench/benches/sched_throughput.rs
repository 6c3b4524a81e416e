//! Scheduler placement throughput: how many placement decisions per
//! second each policy sustains, on the scenario-1 platform (2 servers ×
//! 4 targets) and on the `fig_interference` fleet (100 servers × 10
//! targets).
//!
//! It times the pure decision loop (no fluid simulation — the cluster
//! view is synthesized and perturbed between calls) over a fixed number
//! of arrivals per round, and writes `BENCH_sched_throughput.json` at
//! the repository root. The two legs run interleaved round by round in
//! this one process, and the gate compares them: a policy whose
//! per-decision time grows more than [`MAX_FLEET_OVER_PLAFRIM`]× from
//! the 8-target platform to the 1,000-target fleet (125× the targets)
//! fails the bench. Every load-aware policy picks through one
//! per-server kernel that re-scores one server per pick, and
//! `RoundRobinServer` walks one server's targets per pick, so every
//! policy is held to the same bound.

use bench::median;
use cluster::{presets, Platform};
use experiments::fig_interference;
use sched::{
    ClusterView, LeastLoadedServer, PlacementPolicy, Random, RoundRobinServer, StragglerAware,
    UtilizationFeedback,
};
use simcore::rng::RngFactory;
use std::time::Instant;

/// Placement decisions per timed round on the scenario-1 platform.
const ARRIVALS: usize = 10_000;
/// Placement decisions per timed round on the fleet.
const FLEET_ARRIVALS: usize = 1_000;
/// Timed rounds per policy and leg (interleaved; the median is
/// reported).
const ROUNDS: usize = 5;
/// Largest allowed ratio of a policy's per-decision time on the fleet
/// to its time on the scenario-1 platform. The per-server pick costs
/// O(targets + picks × servers) a decision; six runs on a 2-vCPU x86-64
/// VM read 18–26× for its three policies here and 2.4–2.6× for
/// `RoundRobinServer`, and this is more than twice the highest. A pick
/// that rescans every target for each of a decision's four picks read
/// 65–76×, and a `RoundRobinServer` that listed every server's online
/// targets for each decision read 68–111×; both fail it.
const MAX_FLEET_OVER_PLAFRIM: f64 = 55.0;

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    vec![
        Box::new(Random),
        Box::<RoundRobinServer>::default(),
        Box::new(LeastLoadedServer),
        Box::new(UtilizationFeedback),
        Box::new(StragglerAware),
    ]
}

/// One timed round: `arrivals` decisions on `platform` with the view
/// perturbed deterministically between calls, so load-sensitive
/// policies cannot shortcut on a constant input. Returns decisions per
/// second.
fn one_round(policy: &mut dyn PlacementPolicy, platform: &Platform, arrivals: usize) -> f64 {
    let online = vec![true; platform.total_targets()];
    let mut outstanding = vec![0.0f64; platform.server_count()];
    let mut busy = vec![0.0f64; platform.total_targets()];
    let mut suspected = vec![false; platform.total_targets()];
    let mut rng = RngFactory::new(7).stream("sched-throughput", 0);
    let mut picked = 0usize;
    let start = Instant::now();
    for i in 0..arrivals {
        let servers = outstanding.len();
        let targets = busy.len();
        outstanding[i % servers] = (i % 97) as f64 * 1e9;
        busy[i % targets] = (i % 89) as f64 / 89.0;
        suspected[i % targets] = i % 13 == 0;
        let view = ClusterView {
            platform,
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
    assert!(picked >= arrivals, "decisions went missing");
    arrivals as f64 / secs
}

fn main() {
    let plafrim = presets::plafrim_ethernet();
    let fleet = fig_interference::fleet_spec()
        .build()
        .expect("the interference fleet is valid");
    let legs = [(&plafrim, ARRIVALS), (&fleet, FLEET_ARRIVALS)];
    // Warm-up round per policy and leg before timing anything.
    for &(platform, arrivals) in &legs {
        for p in policies().iter_mut() {
            one_round(p.as_mut(), platform, arrivals);
        }
    }
    // Interleave rounds across legs and policies so drift hits all of
    // them alike.
    let names: Vec<&'static str> = policies().iter().map(|p| p.name()).collect();
    let mut series: [Vec<Vec<f64>>; 2] = std::array::from_fn(|_| vec![Vec::new(); names.len()]);
    for _ in 0..ROUNDS {
        for (leg, &(platform, arrivals)) in legs.iter().enumerate() {
            for (i, p) in policies().iter_mut().enumerate() {
                series[leg][i].push(one_round(p.as_mut(), platform, arrivals));
            }
        }
    }
    let mut entries = vec![
        format!("  \"arrivals_per_round\": {ARRIVALS}"),
        format!("  \"fleet_arrivals_per_round\": {FLEET_ARRIVALS}"),
        format!("  \"rounds\": {ROUNDS}"),
        format!("  \"plafrim_targets\": {}", plafrim.total_targets()),
        format!("  \"fleet_targets\": {}", fleet.total_targets()),
        format!("  \"max_fleet_over_plafrim\": {MAX_FLEET_OVER_PLAFRIM:.0}"),
    ];
    let mut failures = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let small = median(series[0][i].clone());
        let large = median(series[1][i].clone());
        // Per-decision time ratio: decisions/s on PlaFRIM over the fleet.
        let ratio = small / large;
        entries.push(format!("  \"{name}_decisions_per_sec\": {small:.0}"));
        entries.push(format!("  \"{name}_fleet_decisions_per_sec\": {large:.0}"));
        entries.push(format!("  \"{name}_fleet_over_plafrim\": {ratio:.1}"));
        println!(
            "{name}: {small:.0} decisions/sec on {} targets, {large:.0} on {} \
             (per decision {ratio:.1}x, median of {ROUNDS})",
            plafrim.total_targets(),
            fleet.total_targets()
        );
        if ratio > MAX_FLEET_OVER_PLAFRIM {
            failures.push(format!(
                "{name}: a fleet decision costs {ratio:.1}x a PlaFRIM one \
                 (> {MAX_FLEET_OVER_PLAFRIM:.0}x)"
            ));
        }
    }
    let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sched_throughput.json"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
    assert!(
        failures.is_empty(),
        "placement cost grows faster than linearly in targets:\n{}",
        failures.join("\n")
    );
}
