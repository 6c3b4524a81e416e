//! Fleet-scale solver benchmark: the sharded connected-component solver
//! vs. the reference full solve on a datacenter fleet.
//!
//! Not a Criterion target: it drains staggered flow waves over a
//! 100-server × 10-target [`cluster::FleetSpec`] fleet (non-blocking
//! switch, so each server group is its own connected component) at
//! 2 000, 20 000 and 200 000 total flows, with both solvers, writes
//! `BENCH_flow_scale.json` at the repository root, and enforces two
//! gates so CI catches scaling regressions:
//!
//! * sharded must be at least 5x the reference events/sec at 200 000
//!   flows (the speedup the sharding claims at datacenter scale);
//! * the sharded 200 000-flow events/sec must not drop below 70% of the
//!   committed `BENCH_flow_scale.json` baseline.
//!
//! Flows arrive in waves of 8 per component across all 100 components,
//! with heterogeneous depth weights so every component saturates at its
//! own bottleneck level. Each completion dirties one component: the
//! sharded solver re-solves that ~8-flow component in a handful of
//! progressive-filling rounds, while the reference
//! ([`simcore::flow::FlowNetwork::reference_recompute_rates`]) scans
//! every stored flow and re-freezes the whole ~800-flow active set
//! across ~100 distinct bottleneck levels — a full resource scan per
//! level. The reference is timed over a truncated completion prefix at
//! the larger scales (draining 200 000 completions through full solves
//! would dominate the whole bench suite); events/sec over the drained
//! prefix is the common currency.

use cluster::{Fabric, FabricNoise, FleetSpec, SwitchPolicy, TargetId};
use simcore::flow::{FluidSim, SimArena};
use simcore::units::Bandwidth;
use simcore::SimTime;
use std::time::Instant;

const SERVERS: u32 = 100;
const TARGETS_PER_SERVER: u32 = 10;
const NODES: usize = 100;
const SCALES: [u64; 3] = [2_000, 20_000, 200_000];
/// Completion-prefix cap for the reference solver (full drain at or
/// below, truncated above).
const REFERENCE_CAP: u64 = 20_000;

fn fleet() -> cluster::Platform {
    FleetSpec::new("bench-100x10")
        .servers(SERVERS)
        .targets_per_server(TARGETS_PER_SERVER)
        .max_nodes(NODES as u32)
        .server_link(Bandwidth::from_mib_per_sec(2400.0))
        .backend(Bandwidth::from_mib_per_sec(4700.0))
        // Low enough that heavy-weight flows freeze at their own target
        // rather than the shared link: hundreds of distinct bottleneck
        // levels fleet-wide instead of one per server.
        .target_bw(Bandwidth::from_mib_per_sec(300.0))
        .switch_policy(SwitchPolicy::NonBlocking)
        .build()
        .expect("bench fleet is valid")
}

/// Drain up to `cap` completions of an `n_flows` workload; returns
/// events/sec over the drained prefix.
///
/// Flow `i` belongs to component `i % 100` (node `k` only ever writes to
/// server `k`, and the non-blocking switch stays out of every path), so
/// the fleet is 100 disjoint components of ~8 active flows each while
/// waves arrive slower than they drain. Depth weights vary per flow, so
/// no two components share a fair-share level and the reference solver
/// cannot collapse the fleet into one freeze round.
fn one_rep(n_flows: u64, cap: u64, reference: bool, arena: &mut SimArena) -> f64 {
    let platform = fleet();
    let fabric = Fabric::build(&platform, NODES, 8, &FabricNoise::none(&platform));
    let (net, paths) = fabric.into_parts();

    let mut sim = FluidSim::with_arena(net, arena);
    sim.set_reference_solver(reference);
    // 8 flows per component per wave, all 100 components in parallel.
    const WAVE: u64 = 800;
    for i in 0..n_flows {
        let comp = (i % 100) as usize;
        let slot = ((i / 100) % u64::from(TARGETS_PER_SERVER)) as u32;
        let target = TargetId(comp as u32 * TARGETS_PER_SERVER + slot);
        let path = paths.write_path(comp, target);
        let start = SimTime::from_secs_f64((i / WAVE) as f64 * 0.25);
        // Pseudo-diverse weights: distinct fair-share levels everywhere,
        // so the global solve freezes roughly one resource per round.
        let weight = 1.0 + ((i * 7919) % 97) as f64 / 16.0;
        sim.start_weighted_flow_at(start, path, 10.0 + (i * 13 % 17) as f64, i, weight);
    }

    let t0 = Instant::now();
    let mut done = 0u64;
    while done < cap && sim.next_completion().is_some() {
        done += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(done, cap, "drained fewer completions than requested");
    sim.recycle_into(arena);
    done as f64 / elapsed
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Pull `"key": <float>` out of the committed baseline without a JSON
/// dependency; returns `None` when the key is absent or malformed.
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let mut arena = SimArena::new();
    // Warm caches, allocator, and the arena before timing anything.
    one_rep(SCALES[0], SCALES[0], false, &mut arena);
    one_rep(SCALES[0], SCALES[0], true, &mut arena);

    let mut rows = String::new();
    let mut speedup_200k = 0.0;
    let mut sharded_200k = 0.0;
    for &n in &SCALES {
        let cap = n.min(REFERENCE_CAP);
        let reps = if n >= 200_000 { 3 } else { 5 };
        // Interleave the solvers so environmental drift hits both equally.
        let mut sharded = Vec::with_capacity(reps);
        let mut reference = Vec::with_capacity(reps);
        for _ in 0..reps {
            sharded.push(one_rep(n, n, false, &mut arena));
            reference.push(one_rep(n, cap, true, &mut arena));
        }
        let s_eps = median(sharded);
        let r_eps = median(reference);
        let speedup = s_eps / r_eps;
        println!(
            "{n:>7} flows: sharded {s_eps:>10.0} ev/s, reference {r_eps:>10.0} ev/s \
             ({speedup:.1}x, reference prefix {cap})"
        );
        rows.push_str(&format!(
            "  \"sharded_{n}_events_per_sec\": {s_eps:.0},\n  \
             \"reference_{n}_events_per_sec\": {r_eps:.0},\n  \
             \"speedup_{n}\": {speedup:.2},\n"
        ));
        if n == 200_000 {
            speedup_200k = speedup;
            sharded_200k = s_eps;
        }
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow_scale.json");
    let baseline = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "sharded_200000_events_per_sec"));

    let json = format!(
        "{{\n  \"servers\": {SERVERS},\n  \"targets_per_server\": {TARGETS_PER_SERVER},\n\
         {rows}  \"reference_prefix_cap\": {REFERENCE_CAP}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");

    if speedup_200k < 5.0 {
        eprintln!(
            "FAIL: sharded solver speedup {speedup_200k:.2}x at 200k flows is below the \
             required 5x"
        );
        std::process::exit(1);
    }
    if let Some(base) = baseline {
        if sharded_200k < 0.7 * base {
            eprintln!(
                "FAIL: sharded events/sec regressed: {sharded_200k:.0} < 70% of committed \
                 baseline {base:.0}"
            );
            std::process::exit(1);
        }
        println!("baseline check passed ({sharded_200k:.0} vs committed {base:.0} ev/s)");
    } else {
        println!("no committed baseline found; wrote a fresh one");
    }
}
