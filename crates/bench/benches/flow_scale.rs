//! Fleet-scale solver benchmark: the sharded connected-component solver
//! vs. the reference full solve on a datacenter fleet.
//!
//! It drains staggered flow waves over a
//! 100-server × 10-target [`cluster::FleetSpec`] fleet (non-blocking
//! switch, so each server group is its own connected component) at
//! 2 000, 20 000 and 200 000 total flows, with both solvers, each scale
//! and solver one leg of every round. Its gate is the speedup the
//! sharding claims at datacenter scale: the median over rounds of the
//! in-round ratio of the reference solver's CPU time per event to the
//! sharded solver's at 200 000 flows must reach [`MIN_SPEEDUP_200K`].
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
//! would dominate the whole bench suite); CPU time per drained
//! completion is the common currency.

use bench::{rounds, Report};
use cluster::{Fabric, FabricNoise, FleetSpec, SwitchPolicy, TargetId};
use simcore::flow::{FluidSim, SimArena};
use simcore::units::Bandwidth;
use simcore::SimTime;

const SERVERS: u32 = 100;
const TARGETS_PER_SERVER: u32 = 10;
const NODES: usize = 100;
const SCALES: [u64; 3] = [2_000, 20_000, 200_000];
/// Completion-prefix cap for the reference solver (full drain at or
/// below, truncated above).
const REFERENCE_CAP: u64 = 2_000;
/// Timed rounds.
const ROUNDS: usize = 16;
/// Smallest allowed median ratio of the reference solver's CPU time per
/// completion to the sharded solver's at 200 000 flows. On a 2-vCPU
/// x86-64 VM five runs read 129.0–133.4; a 200 000-flow sharded leg made
/// 30% slower read 98.9 and 101.4 and fails.
const MIN_SPEEDUP_200K: f64 = 115.0;

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

/// Drain the first `cap` completions of an `n_flows` workload; returns
/// the events the sim processed.
///
/// Flow `i` belongs to component `i % 100` (node `k` only ever writes to
/// server `k`, and the non-blocking switch stays out of every path), so
/// the fleet is 100 disjoint components of ~8 active flows each while
/// waves arrive slower than they drain. Depth weights vary per flow, so
/// no two components share a fair-share level and the reference solver
/// cannot collapse the fleet into one freeze round.
fn one_rep(n_flows: u64, cap: u64, reference: bool, arena: &mut SimArena) -> u64 {
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

    let mut done = 0u64;
    while done < cap && sim.next_completion().is_some() {
        done += 1;
    }
    assert_eq!(done, cap, "drained fewer completions than requested");
    let events = sim.events_processed();
    sim.recycle_into(arena);
    events
}

/// The leg draining an `n_flows` workload, only its first
/// [`REFERENCE_CAP`] completions under the reference solver, in an arena
/// of its own.
fn leg(n_flows: u64, reference: bool) -> impl FnMut() -> u64 {
    let cap = if reference {
        n_flows.min(REFERENCE_CAP)
    } else {
        n_flows
    };
    let mut arena = SimArena::new();
    move || one_rep(n_flows, cap, reference, &mut arena)
}

fn main() {
    let r = rounds(
        ROUNDS,
        &mut [
            ("sharded_2000", &mut leg(2_000, false)),
            ("reference_2000", &mut leg(2_000, true)),
            ("sharded_20000", &mut leg(20_000, false)),
            ("reference_20000", &mut leg(20_000, true)),
            ("sharded_200000", &mut leg(200_000, false)),
            ("reference_200000", &mut leg(200_000, true)),
        ],
    );

    let mut report = Report::new("flow_scale");
    report.field("servers", SERVERS);
    report.field("targets_per_server", TARGETS_PER_SERVER);
    report.field("reference_prefix_cap", REFERENCE_CAP);
    report.field("rounds", ROUNDS);
    report.rounds(&r);
    for n in SCALES {
        // CPU time per completion, reference over sharded.
        let ratio = r.ratio(&format!("reference_{n}"), &format!("sharded_{n}"))[1];
        let speedup = ratio * n as f64 / n.min(REFERENCE_CAP) as f64;
        if n == 200_000 {
            report.at_least("speedup_200000", speedup, MIN_SPEEDUP_200K);
        } else {
            println!("{n:>7} flows: the sharded solver is {speedup:.1}x faster per completion");
            report.field(format_args!("speedup_{n}"), format_args!("{speedup:.2}"));
        }
    }
    report.finish();
}
