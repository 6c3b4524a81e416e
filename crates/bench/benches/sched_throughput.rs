//! Scheduler placement throughput: how many placement decisions per
//! second each policy sustains, on the scenario-1 platform (2 servers ×
//! 4 targets) and on the `fig_interference` fleet (100 servers × 10
//! targets).
//!
//! It times the pure decision loop (no fluid simulation — the cluster
//! view is synthesized and perturbed between calls) and writes
//! `BENCH_sched_throughput.json` at the repository root. Each round
//! times every policy's PlaFRIM leg and then its fleet leg back to back,
//! so both see the same host phase, and the PlaFRIM leg makes twenty
//! times the fleet leg's decisions so that, for the load-aware policies,
//! the two last about as long. The gate takes each policy's median over
//! the rounds of its per-decision time ratio, fleet over PlaFRIM: a
//! policy whose decisions grow more than [`MAX_FLEET_OVER_PLAFRIM`]×
//! from the 8-target platform to the 1,000-target fleet (125× the
//! targets) fails the bench. Every load-aware policy picks through one
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

/// Placement decisions per round on the scenario-1 platform.
const ARRIVALS: usize = 40_000;
/// Placement decisions per round on the fleet.
const FLEET_ARRIVALS: usize = 2_000;
/// Timed rounds per policy (interleaved; medians are reported).
const ROUNDS: usize = 9;
/// Largest allowed median ratio of a policy's per-decision time on the
/// fleet to its time on the scenario-1 platform. The per-server pick
/// costs O(targets + picks × servers) a decision; six runs on a 2-vCPU
/// x86-64 VM read 19–29× for its three policies and 2.1–2.6× for
/// `RoundRobinServer`. A `RoundRobinServer` that lists every server's
/// online targets for each decision read 66–74× in six runs and fails
/// it; so did a pick that rescans every target for each of a decision's
/// four picks (65–76× when each leg's median was compared).
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
    // Per policy: decisions/s on PlaFRIM and on the fleet, and their
    // ratio, one entry per round. Every leg starts a fresh policy; the
    // first round only warms up.
    let names: Vec<&'static str> = policies().iter().map(|p| p.name()).collect();
    let mut series = vec![(Vec::new(), Vec::new(), Vec::new()); names.len()];
    for round in 0..=ROUNDS {
        for (i, (small, large, ratios)) in series.iter_mut().enumerate() {
            let s = one_round(policies()[i].as_mut(), &plafrim, ARRIVALS);
            let l = one_round(policies()[i].as_mut(), &fleet, FLEET_ARRIVALS);
            if round > 0 {
                small.push(s);
                large.push(l);
                ratios.push(s / l);
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
    for (name, (small, large, ratios)) in names.iter().zip(series) {
        let (small, large) = (median(small), median(large));
        // Per-decision time ratio, fleet over PlaFRIM, within a round.
        let ratio = median(ratios);
        entries.push(format!("  \"{name}_decisions_per_sec\": {small:.0}"));
        entries.push(format!("  \"{name}_fleet_decisions_per_sec\": {large:.0}"));
        entries.push(format!("  \"{name}_fleet_over_plafrim\": {ratio:.1}"));
        println!(
            "{name}: {small:.0} decisions/sec on {} targets, {large:.0} on {} \
             (per decision {ratio:.1}x, median of {ROUNDS} rounds)",
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
