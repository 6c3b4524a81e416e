//! Property-based verification of the incremental max–min solver.
//!
//! Two layers of evidence that the allocation-free incremental solver in
//! `simcore::flow` computes the same allocation the textbook algorithm
//! does:
//!
//! 1. **Axioms** — on randomized networks (mixed `Fixed`/`Saturating`
//!    resources, random speed factors, random depth weights) the solved
//!    rates satisfy the defining properties of a weighted max–min fair
//!    allocation: feasibility, bottleneck characterization, equal shares
//!    on a shared bottleneck, and monotonicity (adding a flow never
//!    raises anyone else's rate).
//! 2. **Differential** — randomized event sequences (activate,
//!    deactivate, factor changes including hard-zero and flapping
//!    restore) drive two identical networks, one through the incremental
//!    [`recompute_rates`](FlowNetwork::recompute_rates) and one through
//!    the retained
//!    [`reference_recompute_rates`](FlowNetwork::reference_recompute_rates)
//!    specification; every flow's rate must agree after every step.
//!
//! The differential harness asserts *bit-for-bit* equality, not just a
//! 1e-9 tolerance: the incremental solver reuses scratch buffers and
//! skips no-op solves, but when it does solve it performs the identical
//! floating-point operations in the identical order, and the dirty-set
//! skip is only taken when a re-solve would be an identity. The golden
//! trace tests rely on this being exact.

use beegfs_repro::simcore::flow::{
    CapacityModel, Completion, FlowId, FlowNetwork, FluidSim, ResourceId,
};
use beegfs_repro::simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

const TOL: f64 = 1e-9;

/// A randomized solver scenario: resources (capacity model + speed
/// factor) and weighted flows over them.
#[derive(Debug, Clone)]
struct Scenario {
    /// (capacity, q_half: Some => Saturating, None => Fixed, factor)
    resources: Vec<(f64, Option<f64>, f64)>,
    /// (path indices, bytes, depth weight)
    flows: Vec<(Vec<usize>, f64, f64)>,
}

fn resource_strategy() -> impl Strategy<Value = (f64, Option<f64>, f64)> {
    (
        1.0f64..1000.0,
        prop_oneof![Just(None), (0.5f64..16.0).prop_map(Some)],
        prop_oneof![Just(1.0f64), 0.1f64..2.0],
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop::collection::vec(resource_strategy(), 1..8).prop_flat_map(|resources| {
        let n = resources.len();
        let flow = (
            prop::collection::btree_set(0..n, 1..=n.min(4)),
            1.0f64..10_000.0,
            prop_oneof![Just(1.0f64), 0.25f64..4.0],
        )
            .prop_map(|(path, bytes, w)| (path.into_iter().collect::<Vec<_>>(), bytes, w));
        prop::collection::vec(flow, 1..24).prop_map(move |flows| Scenario {
            resources: resources.clone(),
            flows,
        })
    })
}

fn model_of(&(cap, q_half, _): &(f64, Option<f64>, f64)) -> CapacityModel {
    match q_half {
        None => CapacityModel::Fixed(cap),
        Some(q_half) => CapacityModel::Saturating { peak: cap, q_half },
    }
}

fn build(scn: &Scenario) -> (FlowNetwork, Vec<ResourceId>) {
    let mut net = FlowNetwork::new();
    let rids: Vec<ResourceId> = scn
        .resources
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let r = net.add_resource(format!("r{i}"), model_of(spec));
            net.set_factor(r, spec.2);
            r
        })
        .collect();
    (net, rids)
}

/// Build the network and activate every flow; returns the flow ids.
fn build_active(
    scn: &Scenario,
) -> (
    FlowNetwork,
    Vec<ResourceId>,
    Vec<beegfs_repro::simcore::flow::FlowId>,
) {
    let (mut net, rids) = build(scn);
    let mut flows = Vec::new();
    for (i, (path, bytes, w)) in scn.flows.iter().enumerate() {
        let p: Vec<ResourceId> = path.iter().map(|&r| rids[r]).collect();
        let f = net.add_flow_weighted(p, *bytes, i as u64, *w);
        net.activate(f);
        flows.push(f);
    }
    (net, rids, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property 1 — feasibility: no resource carries more than
    /// `capacity_at_depth(q) × factor`, within 1e-9 (relative).
    #[test]
    fn solved_rates_never_exceed_effective_capacity(scn in scenario_strategy()) {
        let (mut net, rids, _) = build_active(&scn);
        net.recompute_rates();
        for &r in &rids {
            let load = net.resource_load(r);
            let cap = net.effective_capacity(r);
            prop_assert!(
                load <= cap + TOL * cap.max(1.0),
                "resource {} overloaded: load {load} > cap {cap}",
                net.label(r)
            );
        }
    }

    /// Property 2 — bottleneck characterization: every active flow
    /// crosses at least one *saturated* resource (load within tolerance
    /// of effective capacity). This is the necessary condition for
    /// max–min fairness: a flow whose every resource has slack could be
    /// sped up.
    #[test]
    fn every_active_flow_is_bottlenecked(scn in scenario_strategy()) {
        let (mut net, rids, flows) = build_active(&scn);
        net.recompute_rates();
        for (i, &f) in flows.iter().enumerate() {
            let bottlenecked = scn.flows[i].0.iter().any(|&ri| {
                let r = rids[ri];
                let cap = net.effective_capacity(r);
                net.resource_load(r) >= cap - TOL * cap.max(1.0)
            });
            prop_assert!(
                bottlenecked,
                "flow {i} (rate {}) has slack on every resource of its path",
                net.rate(f)
            );
        }
    }

    /// Property 3 — fair shares on a shared bottleneck: flows whose whole
    /// path is one common resource split that resource's effective
    /// capacity equally (the solver's max–min shares are per-flow;
    /// `depth_weight` shapes a `Saturating` resource's capacity, not the
    /// split). The aggregate equals the effective capacity at the summed
    /// depth weight.
    #[test]
    fn single_shared_bottleneck_splits_equally(
        resource in resource_strategy(),
        weights in prop::collection::vec(prop_oneof![Just(1.0f64), 0.25f64..4.0], 2..12),
    ) {
        let scn = Scenario {
            resources: vec![resource],
            flows: weights.iter().map(|&w| (vec![0], 1000.0, w)).collect(),
        };
        let (mut net, rids, flows) = build_active(&scn);
        net.recompute_rates();
        let cap_eff = net.effective_capacity(rids[0]);
        let fair = cap_eff / flows.len() as f64;
        for &f in &flows {
            let rate = net.rate(f);
            prop_assert!(
                (rate - fair).abs() <= TOL * fair.max(1.0),
                "share {rate} differs from fair share {fair} (cap {cap_eff})"
            );
        }
    }

    /// Property 4 — monotonicity: activating one more flow never
    /// *increases* any existing flow's rate.
    #[test]
    fn adding_a_flow_never_raises_another_rate(
        scn in scenario_strategy(),
        extra_path in prop::collection::btree_set(0usize..7, 1..4),
    ) {
        let (mut net, rids, flows) = build_active(&scn);
        net.recompute_rates();
        let before: Vec<f64> = flows.iter().map(|&f| net.rate(f)).collect();

        let p: Vec<ResourceId> = extra_path
            .iter()
            .filter(|&&r| r < rids.len())
            .map(|&r| rids[r])
            .collect();
        if p.is_empty() {
            return;
        }
        let extra = net.add_flow(p, 500.0, u64::MAX);
        net.activate(extra);
        net.recompute_rates();

        for (i, &f) in flows.iter().enumerate() {
            let after = net.rate(f);
            prop_assert!(
                after <= before[i] + TOL * before[i].max(1.0),
                "flow {i} sped up from {} to {after} when a competitor arrived",
                before[i]
            );
        }
    }
}

/// One step of a randomized solver-driving event sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Activate flow `i` (no-op if already active).
    Activate(usize),
    /// Deactivate flow `i` (no-op if inactive).
    Deactivate(usize),
    /// Set resource `r`'s speed factor — includes hard 0.0 (dead target)
    /// and a flapping restore back to 1.0.
    SetFactor(usize, f64),
}

fn op_strategy(n_res: usize, n_flows: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_flows).prop_map(Op::Activate),
        (0..n_flows).prop_map(Op::Deactivate),
        (
            0..n_res,
            prop_oneof![Just(0.0f64), Just(1.0f64), 0.05f64..2.0]
        )
            .prop_map(|(r, f)| Op::SetFactor(r, f)),
    ]
}

fn sequence_strategy() -> impl Strategy<Value = (Scenario, Vec<Vec<Op>>)> {
    scenario_strategy().prop_flat_map(|scn| {
        let n_res = scn.resources.len();
        let n_flows = scn.flows.len();
        // Batches of 1–3 ops between solves: exercises dirty-set
        // accumulation across several mutations, not just one.
        let batch = prop::collection::vec(op_strategy(n_res, n_flows), 1..4);
        prop::collection::vec(batch, 1..32).prop_map(move |ops| (scn.clone(), ops))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Differential test: the incremental solver and the retained
    /// reference solver agree — bit-for-bit — on every flow's rate after
    /// every solve of a randomized event sequence, including factor
    /// changes to 0.0 and flapping (dead-then-restored) timelines.
    #[test]
    fn incremental_solver_matches_reference_on_event_sequences(
        seq in sequence_strategy()
    ) {
        let (scn, batches) = seq;
        let (mut inc, rids) = build(&scn);
        let mut flows = Vec::new();
        for (i, (path, bytes, w)) in scn.flows.iter().enumerate() {
            let p: Vec<ResourceId> = path.iter().map(|&r| rids[r]).collect();
            flows.push(inc.add_flow_weighted(p, *bytes, i as u64, *w));
        }
        // The reference network is an identical clone driven only by the
        // always-full reference solver.
        let mut reference = inc.clone();

        for (step, batch) in batches.iter().enumerate() {
            for op in batch {
                match *op {
                    Op::Activate(i) => {
                        let f = flows[i];
                        if !inc.is_active(f) && inc.remaining(f) > 0.0 {
                            inc.activate(f);
                            reference.activate(f);
                        }
                    }
                    Op::Deactivate(i) => {
                        inc.deactivate(flows[i]);
                        reference.deactivate(flows[i]);
                    }
                    Op::SetFactor(r, factor) => {
                        inc.set_factor(rids[r], factor);
                        reference.set_factor(rids[r], factor);
                    }
                }
            }
            inc.recompute_rates();
            reference.reference_recompute_rates();

            for (i, &f) in flows.iter().enumerate() {
                let a = inc.rate(f);
                let b = reference.rate(f);
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "step {step}: flow {i} diverged: incremental {a} vs reference {b} \
                     (delta {})",
                    (a - b).abs()
                );
            }
        }
    }

    /// Flapping timeline, concentrated: one resource repeatedly killed
    /// (factor 0.0) and restored while flows come and go — the scenario
    /// from the fault-injection campaigns where the dirty-set skip must
    /// never suppress a real rate change.
    #[test]
    fn flapping_target_timeline_matches_reference(
        caps in prop::collection::vec(10.0f64..500.0, 2..5),
        cycles in 1usize..6,
    ) {
        let scn = Scenario {
            resources: caps.iter().map(|&c| (c, None, 1.0)).collect(),
            flows: (0..caps.len())
                .map(|i| (vec![i, (i + 1) % caps.len()], 5000.0, 1.0))
                .collect(),
        };
        let (mut inc, rids) = build(&scn);
        let mut flows = Vec::new();
        for (i, (path, bytes, w)) in scn.flows.iter().enumerate() {
            let p: Vec<ResourceId> = path.iter().map(|&r| rids[r]).collect();
            flows.push(inc.add_flow_weighted(p, *bytes, i as u64, *w));
        }
        let mut reference = inc.clone();
        for &f in &flows {
            inc.activate(f);
            reference.activate(f);
        }

        let flap = rids[0];
        for _ in 0..cycles {
            for &factor in &[0.0, 1.0] {
                inc.set_factor(flap, factor);
                reference.set_factor(flap, factor);
                inc.recompute_rates();
                reference.reference_recompute_rates();
                for &f in &flows {
                    prop_assert!(
                        inc.rate(f).to_bits() == reference.rate(f).to_bits(),
                        "flap(factor={factor}): {} vs {}",
                        inc.rate(f),
                        reference.rate(f)
                    );
                }
            }
        }
    }
}

/// One step of a fleet-level event sequence (indices are into the
/// fleet scenario's flow/target/server tables, taken modulo the actual
/// counts at drive time).
#[derive(Debug, Clone)]
enum FleetOp {
    /// Activate flow `i` (no-op if already active).
    Activate(usize),
    /// Deactivate flow `i` (no-op if inactive).
    Deactivate(usize),
    /// Set target `t`'s OST speed factor — 0.0 kills it, 1.0 restores.
    OstFactor(usize, f64),
    /// Set server `s`'s link speed factor.
    LinkFactor(usize, f64),
}

/// A randomized datacenter fleet plus flows over it: `servers` storage
/// servers of `per_server` targets behind a constraining or non-blocking
/// switch (the latter is what shards the network into per-server-group
/// components), and `flows` as (node, target, weight) triples.
#[derive(Debug, Clone)]
struct FleetScenario {
    servers: u32,
    per_server: u32,
    non_blocking: bool,
    nodes: usize,
    flows: Vec<(usize, usize, f64)>,
    batches: Vec<Vec<FleetOp>>,
}

fn fleet_factor_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(1.0f64), 0.05f64..2.0]
}

fn fleet_op_strategy() -> impl Strategy<Value = FleetOp> {
    prop_oneof![
        (0usize..10_000).prop_map(FleetOp::Activate),
        (0usize..10_000).prop_map(FleetOp::Deactivate),
        ((0usize..10_000), fleet_factor_strategy()).prop_map(|(t, f)| FleetOp::OstFactor(t, f)),
        ((0usize..10_000), fleet_factor_strategy()).prop_map(|(s, f)| FleetOp::LinkFactor(s, f)),
    ]
}

fn fleet_strategy() -> impl Strategy<Value = FleetScenario> {
    (
        1u32..=100,
        1u32..=4,
        any::<bool>(),
        1usize..=8,
        prop::collection::vec(
            (
                (0usize..10_000),
                (0usize..10_000),
                prop_oneof![Just(1.0f64), 0.25f64..4.0],
            ),
            1..48,
        ),
        prop::collection::vec(prop::collection::vec(fleet_op_strategy(), 1..4), 1..24),
    )
        .prop_map(
            |(servers, per_server, non_blocking, nodes, flows, batches)| FleetScenario {
                servers,
                per_server,
                non_blocking,
                nodes,
                flows,
                batches,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test at fleet scale: a randomized [`FleetSpec`]
    /// platform (1–100 servers, constraining or non-blocking switch) is
    /// instantiated as a fabric, flows are driven through activation,
    /// deactivation, dead-then-restored OST factors and link factors,
    /// and the sharded component solver must agree bit-for-bit with the
    /// full reference solve after every batch.
    #[test]
    fn sharded_solver_matches_reference_on_fleet_spec_fleets(
        scn in fleet_strategy()
    ) {
        use beegfs_repro::cluster::{Fabric, FabricNoise, FleetSpec, SwitchPolicy, TargetId};
        use beegfs_repro::simcore::units::Bandwidth;

        let mut spec = FleetSpec::new("prop-fleet")
            .servers(scn.servers)
            .targets_per_server(scn.per_server)
            .max_nodes(scn.nodes as u32)
            .server_link(Bandwidth::from_mib_per_sec(1100.0))
            .backend(Bandwidth::from_mib_per_sec(4700.0))
            .target_bw(Bandwidth::from_mib_per_sec(1700.0));
        spec = if scn.non_blocking {
            // Auto-sized non-blocking fabric: flows to different server
            // groups share nothing, the case sharding actually splits.
            spec.switch_policy(SwitchPolicy::NonBlocking)
        } else {
            // An *undersized* constraining fabric (~60% of the summed
            // links), so the shared switch really binds sometimes.
            spec.switch_capacity(Bandwidth::from_mib_per_sec(
                660.0 * f64::from(scn.servers),
            ))
        };
        let platform = spec.build().expect("randomized fleet spec is valid");
        let n_targets = platform.total_targets();
        let fabric = Fabric::build(&platform, scn.nodes, 8, &FabricNoise::none(&platform));
        let (mut inc, paths) = fabric.into_parts();

        let mut flows = Vec::new();
        for (i, &(node, target, w)) in scn.flows.iter().enumerate() {
            let path = paths.write_path(node % scn.nodes, TargetId((target % n_targets) as u32));
            flows.push(inc.add_flow_weighted(path, 1e12, i as u64, w));
        }
        let mut reference = inc.clone();

        for (step, batch) in scn.batches.iter().enumerate() {
            for op in batch {
                match *op {
                    FleetOp::Activate(i) => {
                        let f = flows[i % flows.len()];
                        if !inc.is_active(f) {
                            inc.activate(f);
                            reference.activate(f);
                        }
                    }
                    FleetOp::Deactivate(i) => {
                        inc.deactivate(flows[i % flows.len()]);
                        reference.deactivate(flows[i % flows.len()]);
                    }
                    FleetOp::OstFactor(t, factor) => {
                        let r = paths.ost_resource(TargetId((t % n_targets) as u32));
                        inc.set_factor(r, factor);
                        reference.set_factor(r, factor);
                    }
                    FleetOp::LinkFactor(s, factor) => {
                        let r = paths.server_link_resource(s % platform.server_count());
                        inc.set_factor(r, factor);
                        reference.set_factor(r, factor);
                    }
                }
            }
            inc.recompute_rates();
            reference.reference_recompute_rates();

            for (i, &f) in flows.iter().enumerate() {
                let a = inc.rate(f);
                let b = reference.rate(f);
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "step {step}: flow {i} diverged on {} ({} servers, non_blocking={}): \
                     sharded {a} vs reference {b}",
                    platform.name,
                    scn.servers,
                    scn.non_blocking,
                );
            }
        }
    }
}

/// One step of a [`FluidSim`]-level session (resource indices and the
/// cancel pick are taken modulo the actual counts at drive time).
#[derive(Debug, Clone)]
enum SimOp {
    /// Register a flow over `path`, starting `delay_s` from now.
    Start {
        delay_s: f64,
        path: Vec<usize>,
        bytes: f64,
        weight: f64,
    },
    /// Schedule a speed-factor change `delay_s` from now — 0.0 kills
    /// the resource until a later change restores it.
    Factor { delay_s: f64, r: usize, factor: f64 },
    /// Cancel the `k`-th active flow (no-op when none is active).
    Cancel(usize),
    /// Run `dt_s` past now, collecting every completion on the way.
    Advance(f64),
}

fn sim_start_strategy() -> impl Strategy<Value = SimOp> {
    (
        prop_oneof![Just(0.0f64), Just(0.0f64), Just(0.0f64), 0.0f64..2.0],
        prop::collection::vec(0usize..8, 1..4),
        // Mostly short flows, some long-lived ones that stay active
        // while the short ones around them retire.
        prop_oneof![
            1.0f64..500.0,
            1.0f64..500.0,
            1.0f64..500.0,
            1.0f64..500.0,
            1e5f64..1e6
        ],
        prop_oneof![Just(1.0f64), 0.25f64..4.0],
    )
        .prop_map(|(delay_s, path, bytes, weight)| SimOp::Start {
            delay_s,
            path,
            bytes,
            weight,
        })
}

fn sim_advance_strategy() -> impl Strategy<Value = SimOp> {
    (0.0f64..30.0).prop_map(SimOp::Advance)
}

/// Starts, advances, factor changes and cancels in a 6:3:1:1 mix (the
/// vendored `prop_oneof!` is uniform, so weights are repetitions).
fn sim_op_strategy() -> impl Strategy<Value = SimOp> {
    prop_oneof![
        sim_start_strategy(),
        sim_start_strategy(),
        sim_start_strategy(),
        sim_start_strategy(),
        sim_start_strategy(),
        sim_start_strategy(),
        sim_advance_strategy(),
        sim_advance_strategy(),
        sim_advance_strategy(),
        (
            0.0f64..3.0,
            0usize..8,
            prop_oneof![Just(0.0f64), Just(1.0f64), 0.05f64..2.0]
        )
            .prop_map(|(delay_s, r, factor)| SimOp::Factor { delay_s, r, factor }),
        (0usize..64).prop_map(SimOp::Cancel),
    ]
}

/// A [`FluidSim`] whose every solve is compared with the reference
/// solve of a clone of its network, bit for bit on every active flow's
/// rate. [`CheckedSim::step`] stops the sim at each calendar instant
/// scheduled through it, where `run_until` has just solved, and at each
/// completion, where [`CheckedSim::check`] forces the pending solve; at
/// most one solve may have run since the last comparison, so none goes
/// unchecked.
struct CheckedSim<'s> {
    sim: FluidSim<'s>,
    /// Calendar instants scheduled and not yet stopped at.
    scheduled: BTreeSet<SimTime>,
    /// The solve count at the last comparison.
    checked: u64,
}

impl CheckedSim<'_> {
    fn new(net: FlowNetwork) -> Self {
        CheckedSim {
            sim: FluidSim::new(net),
            scheduled: BTreeSet::new(),
            checked: 0,
        }
    }

    fn start(&mut self, at: SimTime, path: Vec<ResourceId>, bytes: f64, tag: u64, weight: f64) {
        self.start_flows(at, path, bytes, tag, weight, 1);
    }

    /// Start a record of `count` identical flows.
    fn start_flows(
        &mut self,
        at: SimTime,
        path: Vec<ResourceId>,
        bytes: f64,
        tag: u64,
        weight: f64,
        count: u32,
    ) -> FlowId {
        self.scheduled.insert(at);
        self.sim.start_flows_at(at, path, bytes, tag, weight, count)
    }

    fn factor_change(&mut self, at: SimTime, r: ResourceId, factor: f64) {
        self.scheduled.insert(at);
        self.sim.schedule_factor_change(at, r, factor);
    }

    /// Run the solve a topology change left pending, as the step loop
    /// does before the clock moves (`flow_rate` of any active flow), and
    /// compare the sim's last solve with the reference.
    fn check(&mut self) {
        let first = self.sim.network().active_flows().next();
        if let Some(f) = first {
            self.sim.flow_rate(f);
        }
        let net = self.sim.network();
        let solves = net.solve_count();
        prop_assert!(
            solves <= self.checked + 1,
            "{} solves since the last comparison",
            solves - self.checked
        );
        self.checked = solves;
        let mut reference = net.clone();
        reference.reference_recompute_rates();
        for f in net.active_flows() {
            let (got, want) = (net.rate(f), reference.rate(f));
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "at {}: {f:?} solved {got} vs reference {want}",
                self.sim.now()
            );
        }
    }

    /// Run to the first scheduled instant or completion by `horizon`,
    /// check the solve there, and return the completions (none at a
    /// scheduled instant); `None` once the clock reached `horizon` with
    /// neither.
    fn step(&mut self, horizon: SimTime) -> Option<Vec<Completion>> {
        let due = self.scheduled.range(..=horizon).next().copied();
        let done = if self.sim.run_until(due.unwrap_or(horizon)) {
            std::iter::from_fn(|| self.sim.pop_ready()).collect()
        } else if let Some(t) = due {
            self.scheduled.remove(&t);
            Vec::new()
        } else {
            return None;
        };
        self.check();
        Some(done)
    }

    /// Check the pending solve, then step to `horizon`; returns the
    /// completions on the way.
    fn run_to(&mut self, horizon: SimTime) -> usize {
        self.check();
        std::iter::from_fn(|| self.step(horizon))
            .map(|d| d.len())
            .sum()
    }
}

/// Run `ops` through a [`CheckedSim`] on `resources`, so every solve
/// the sim makes is compared with the reference; an advance or the
/// final drain first checks the solve a cancel left pending. Returns
/// the completions and the solves.
fn drive_sim(resources: &[(f64, Option<f64>, f64)], ops: &[SimOp]) -> (usize, u64) {
    let scn = Scenario {
        resources: resources.to_vec(),
        flows: Vec::new(),
    };
    let (net, rids) = build(&scn);
    let mut run = CheckedSim::new(net);
    let mut done = 0;
    for (i, op) in ops.iter().enumerate() {
        let now = run.sim.now();
        match op {
            SimOp::Start {
                delay_s,
                path,
                bytes: size,
                weight,
            } => {
                let distinct: BTreeSet<usize> = path.iter().map(|&r| r % rids.len()).collect();
                let path = distinct.into_iter().map(|r| rids[r]).collect();
                let at = now + SimDuration::from_secs_f64(*delay_s);
                run.start(at, path, *size, i as u64, *weight);
            }
            SimOp::Factor { delay_s, r, factor } => {
                let at = now + SimDuration::from_secs_f64(*delay_s);
                run.factor_change(at, rids[r % rids.len()], *factor);
            }
            SimOp::Cancel(k) => {
                let active: Vec<_> = run.sim.network().active_flows().collect();
                if !active.is_empty() {
                    run.sim.cancel_flow(active[k % active.len()]);
                }
            }
            SimOp::Advance(dt_s) => {
                done += run.run_to(now + SimDuration::from_secs_f64(*dt_s));
            }
        }
    }
    // Drain: every flow not held by a dead resource finishes.
    done += run.run_to(run.sim.now() + SimDuration::from_secs_f64(1e7));
    (done, run.sim.network().solve_count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential test through the event loop: random flow starts,
    /// scheduled factor changes (including dead-then-restored
    /// resources) and mid-flight cancels, driven with `run_until` and
    /// `pop_ready`; every solve the sim makes must give every active
    /// flow the reference solver's rate, bit for bit. Sessions start
    /// 1,400–1,900 flows and retire most of them while long-lived flows
    /// stay active, so retired-record compaction (once more than 1,024
    /// retired records outnumber the rest) runs mid-session, moving
    /// live flows to new slots between solves.
    #[test]
    fn fluid_sim_matches_reference_through_completions_and_cancels(
        resources in prop::collection::vec(resource_strategy(), 1..6),
        ops in prop::collection::vec(sim_op_strategy(), 2600..3400),
    ) {
        let (done, solves) = drive_sim(&resources, &ops);
        prop_assert!(done > 1000 && solves > 1000, "{done} completions, {solves} solves");
    }
}

/// A [`CheckedSim`] whose starts are records of several flows, beside a
/// twin that starts each record as that many single flows in a row and
/// cancels each of them where the record is cancelled.
struct RecordTwins<'s> {
    grouped: CheckedSim<'s>,
    twin: CheckedSim<'s>,
    /// Each record's flows in the twin.
    members: std::collections::BTreeMap<FlowId, Vec<FlowId>>,
}

impl RecordTwins<'_> {
    fn start(&mut self, at: SimTime, path: Vec<ResourceId>, bytes: f64, tag: u64, w: f64, n: u32) {
        let record = self.grouped.start_flows(at, path.clone(), bytes, tag, w, n);
        let flows = (0..n)
            .map(|_| self.twin.start_flows(at, path.clone(), bytes, tag, w, 1))
            .collect();
        self.members.insert(record, flows);
    }

    fn factor_change(&mut self, at: SimTime, r: ResourceId, factor: f64) {
        self.grouped.factor_change(at, r, factor);
        self.twin.factor_change(at, r, factor);
    }

    /// Cancel the `k`-th active record, and each of its flows in the
    /// twin, at the current instant.
    fn cancel(&mut self, k: usize) {
        let active: Vec<FlowId> = self.grouped.sim.network().active_flows().collect();
        if active.is_empty() {
            return;
        }
        let record = active[k % active.len()];
        let left = self.grouped.sim.cancel_flow(record);
        for &f in &self.members[&record] {
            let twin_left = self.twin.sim.cancel_flow(f);
            prop_assert!(left.to_bits() == twin_left.to_bits());
        }
    }

    /// Step both sims to their next stop by `horizon` and require the
    /// same stop: the record's completions expanded into its flows, the
    /// clock, each record's rate on each of its flows, the solve and
    /// event counters and the last solve's component sizes. Returns the
    /// flows that finished, `None` once both reached `horizon`.
    fn step(&mut self, horizon: SimTime) -> Option<usize> {
        let (grouped, twin) = match (self.grouped.step(horizon), self.twin.step(horizon)) {
            (Some(grouped), Some(twin)) => (grouped, twin),
            (None, None) => return None,
            _ => panic!("only one sim stopped before {horizon}"),
        };
        let expanded: Vec<(SimTime, u64)> = grouped
            .iter()
            .flat_map(|c| std::iter::repeat_n((c.time, c.tag), c.count as usize))
            .collect();
        let singles: Vec<(SimTime, u64)> = twin.iter().map(|c| (c.time, c.tag)).collect();
        prop_assert!(
            expanded == singles,
            "completions differ at {}",
            self.twin.sim.now()
        );
        for c in &grouped {
            prop_assert!(c.count as usize == self.members[&c.flow].len());
        }
        prop_assert!(self.grouped.sim.now() == self.twin.sim.now());
        self.compare();
        Some(singles.len())
    }

    fn compare(&self) {
        let (g, t) = (&self.grouped.sim, &self.twin.sim);
        let (gn, tn) = (g.network(), t.network());
        for record in gn.active_flows() {
            let rate = gn.rate(record);
            for &f in &self.members[&record] {
                prop_assert!(
                    rate.to_bits() == tn.rate(f).to_bits(),
                    "at {}: record {record:?} at {rate}, its flow {f:?} at {}",
                    g.now(),
                    tn.rate(f)
                );
            }
        }
        let active = |n: &FlowNetwork| n.active_flows().count();
        let grouped_flows: usize = gn.active_flows().map(|r| self.members[&r].len()).sum();
        prop_assert!(grouped_flows == active(tn));
        prop_assert!(g.events_processed() == t.events_processed());
        prop_assert!(gn.solve_count() == tn.solve_count());
        prop_assert!(gn.skip_count() == tn.skip_count());
        prop_assert!(gn.flows_solved() == tn.flows_solved());
        prop_assert!(gn.last_component_sizes() == tn.last_component_sizes());
    }
}

/// A start's record size: one flow or a record of two to eight.
fn record_count_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), 2u32..=8, 2u32..=8]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Records against their flows one by one, through the event loop:
    /// random starts of records of one to eight flows (mixed depth
    /// weights, `Saturating` and `Fixed` resources), scheduled factor
    /// changes including dead-then-restored resources, and cancels of
    /// whole records. Both sims check every solve against the
    /// reference, which expands records itself, and they must agree bit
    /// for bit at every stop.
    #[test]
    fn a_record_simulates_as_its_flows_started_one_by_one(
        resources in prop::collection::vec(resource_strategy(), 1..6),
        ops in prop::collection::vec((sim_op_strategy(), record_count_strategy()), 150..300),
    ) {
        let scn = Scenario {
            resources: resources.clone(),
            flows: Vec::new(),
        };
        let (net, rids) = build(&scn);
        let mut run = RecordTwins {
            grouped: CheckedSim::new(net.clone()),
            twin: CheckedSim::new(net),
            members: Default::default(),
        };
        let mut done = 0;
        for (i, (op, count)) in ops.iter().enumerate() {
            let now = run.twin.sim.now();
            match op {
                SimOp::Start { delay_s, path, bytes, weight } => {
                    let distinct: BTreeSet<usize> = path.iter().map(|&r| r % rids.len()).collect();
                    let path = distinct.into_iter().map(|r| rids[r]).collect();
                    let at = now + SimDuration::from_secs_f64(*delay_s);
                    run.start(at, path, *bytes, i as u64, *weight, *count);
                }
                SimOp::Factor { delay_s, r, factor } => {
                    let at = now + SimDuration::from_secs_f64(*delay_s);
                    run.factor_change(at, rids[r % rids.len()], *factor);
                }
                SimOp::Cancel(k) => run.cancel(*k),
                SimOp::Advance(dt_s) => {
                    run.grouped.check();
                    run.twin.check();
                    run.compare();
                    let horizon = now + SimDuration::from_secs_f64(*dt_s);
                    done += std::iter::from_fn(|| run.step(horizon)).sum::<usize>();
                }
            }
        }
        run.grouped.check();
        run.twin.check();
        let horizon = run.twin.sim.now() + SimDuration::from_secs_f64(1e7);
        done += std::iter::from_fn(|| run.step(horizon)).sum::<usize>();
        let grouped_records = run.members.len();
        let twin_flows: usize = run.members.values().map(Vec::len).sum();
        prop_assert!(twin_flows > grouped_records, "no record held several flows");
        prop_assert!(done > 0, "nothing finished");
    }
}

/// Depth weights whose sum depends on the summation order: `0.1 + 0.2 +
/// 0.3 + 0.4` is `1.0`, the reverse sum is not. A saturating resource
/// that adds its flows' weights in any order but ascending slot order
/// moves a bit of the rates.
const WEIGHTS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

fn saturating(peak: f64) -> CapacityModel {
    CapacityModel::Saturating { peak, q_half: 0.5 }
}

#[test]
fn a_large_batch_retired_at_one_instant_then_compacted() {
    // 1,500 equal flows share a link that bottlenecks them all, so they
    // finish at one instant: one batch retirement, large enough to
    // compact the network. Twenty long flows run on past it. Every
    // solve, after each completion included, must match the reference.
    let mut net = FlowNetwork::new();
    let link = net.add_resource("link", CapacityModel::Fixed(1e6));
    let targets: Vec<ResourceId> = (0..4)
        .map(|t| net.add_resource(format!("ost{t}"), saturating(4e5)))
        .collect();
    let mut run = CheckedSim::new(net);
    for i in 0..1520usize {
        let bytes = if i % 76 == 0 { 2e5 } else { 100.0 };
        let path = vec![link, targets[i / 4 % 4]];
        run.start(SimTime::ZERO, path, bytes, i as u64, WEIGHTS[i % 4]);
    }
    let mut done = Vec::new();
    while let Some(batch) = run.step(SimTime::MAX) {
        done.extend(batch);
    }
    assert_eq!(done.len(), 1520);
    let batch = done.iter().filter(|c| c.time == done[0].time).count();
    assert!(batch >= 1500, "only {batch} flows finished together");
}

#[test]
fn whole_set_retirement_a_mid_walk_switch_and_disjoint_components() {
    // Phase 0: 24 flows share a switch over four targets that carry
    // equal weights, so all of them finish at one instant, a batch of
    // the whole active set. Phase 1 starts at that instant on the same
    // resources. A factor change on one target dirties only it, so the
    // walk meets the switch mid-walk. Phase 2 runs when phase 1 has
    // finished: three disjoint link/target pairs, one target slowed
    // while all three carry flows, so the walk collects one small
    // component among several.
    let mut net = FlowNetwork::new();
    let switch = net.add_resource("switch", CapacityModel::Fixed(1e9));
    let targets: Vec<ResourceId> = (0..4)
        .map(|t| net.add_resource(format!("ost{t}"), saturating(400.0)))
        .collect();
    let pairs: Vec<[ResourceId; 2]> = (0..3)
        .map(|c| {
            let link = net.add_resource(format!("link{c}"), CapacityModel::Fixed(300.0));
            let target = net.add_resource(format!("pair{c}"), saturating(500.0 + c as f64));
            [link, target]
        })
        .collect();
    let mut run = CheckedSim::new(net);
    for i in 0..24usize {
        let path = vec![switch, targets[i % 4]];
        run.start(SimTime::ZERO, path, 100.0, i as u64, WEIGHTS[i / 4 % 4]);
    }
    let mut done: Vec<Completion> = Vec::new();
    let mut phase = 0;
    while let Some(batch) = run.step(SimTime::MAX) {
        let finished = !batch.is_empty();
        done.extend(batch);
        if !finished || run.sim.network().active_flows().next().is_some() {
            continue;
        }
        let now = run.sim.now();
        phase += 1;
        if phase == 1 {
            for i in 0..12usize {
                let path = vec![targets[i % 4], switch];
                let bytes = 60.0 + 7.0 * i as f64;
                run.start(now, path, bytes, 100 + i as u64, WEIGHTS[i % 4]);
            }
            run.factor_change(now + SimDuration::from_millis(50), targets[2], 0.5);
        } else if phase == 2 {
            for i in 0..12usize {
                let path = pairs[i % 3].to_vec();
                let bytes = 80.0 + 5.0 * i as f64;
                run.start(now, path, bytes, 200 + i as u64, WEIGHTS[i / 3]);
            }
            run.factor_change(now + SimDuration::from_millis(20), pairs[1][1], 0.25);
        }
    }
    assert_eq!(done.len(), 48);
    assert_eq!(phase, 3);
    let first_batch = done.iter().filter(|c| c.time == done[0].time).count();
    assert_eq!(first_batch, 24, "phase 0 did not finish as one batch");
    let net = run.sim.network();
    let (solves, whole_set_solves) = (net.solve_count(), net.whole_set_solve_count());
    assert!(
        0 < whole_set_solves && whole_set_solves < solves,
        "{whole_set_solves} of {solves} solves took the whole set"
    );
}

/// Each registered flow's path and depth weight.
type FlowPaths = std::collections::BTreeMap<FlowId, (Vec<ResourceId>, f64)>;

/// `effective_capacity(r)` recomputed the way the full scan defines it:
/// the depth weights of the active flows crossing `r`, summed in
/// ascending id order, through `r`'s capacity model and speed factor.
fn ascending_id_capacity(
    net: &FlowNetwork,
    r: ResourceId,
    model: CapacityModel,
    flows: &FlowPaths,
) -> f64 {
    let q: f64 = net
        .active_flows()
        .filter(|f| flows[f].0.contains(&r))
        .map(|f| flows[&f].1)
        .sum();
    model.capacity_at_depth(q) * net.factor(r)
}

/// Assert `effective_capacity` matches `ascending_id_capacity` bit for
/// bit on every resource.
fn check_capacities(
    net: &FlowNetwork,
    rids: &[ResourceId],
    resources: &[(f64, Option<f64>, f64)],
    flows: &FlowPaths,
    step: usize,
) {
    for (&r, spec) in rids.iter().zip(resources) {
        let got = net.effective_capacity(r);
        let want = ascending_id_capacity(net, r, model_of(spec), flows);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "step {step}: resource {} capacity {got} vs ascending-id sum {want}",
            r.index()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `effective_capacity` reads the resource's incidence list, whose
    /// order deactivation (swap-remove) and re-activation (append)
    /// scramble. With mixed depth weights the float sum depends on
    /// order, so this pins that it still sums in ascending id order:
    /// bit-identical to a scan of the active flows.
    #[test]
    fn effective_capacity_is_the_ascending_id_depth_sum_under_toggling(
        seq in sequence_strategy()
    ) {
        let (scn, batches) = seq;
        let (mut net, rids) = build(&scn);
        let mut flows = FlowPaths::new();
        let mut ids = Vec::new();
        for (i, (path, bytes, w)) in scn.flows.iter().enumerate() {
            let p: Vec<ResourceId> = path.iter().map(|&r| rids[r]).collect();
            let f = net.add_flow_weighted(p.clone(), *bytes, i as u64, *w);
            flows.insert(f, (p, *w));
            ids.push(f);
        }
        for (step, batch) in batches.iter().enumerate() {
            for op in batch {
                match *op {
                    Op::Activate(i) => {
                        if !net.is_active(ids[i]) && net.remaining(ids[i]) > 0.0 {
                            net.activate(ids[i]);
                        }
                    }
                    Op::Deactivate(i) => net.deactivate(ids[i]),
                    Op::SetFactor(r, factor) => net.set_factor(rids[r], factor),
                }
            }
            check_capacities(&net, &rids, &scn.resources, &flows, step);
            net.recompute_rates();
            check_capacities(&net, &rids, &scn.resources, &flows, step);
        }
    }

    /// The same through the event loop, where flows also retire: starts
    /// with mixed depth weights, cancels, and advances during which
    /// flows finish, checked after every step.
    #[test]
    fn effective_capacity_is_the_ascending_id_depth_sum_through_retirement(
        resources in prop::collection::vec(resource_strategy(), 1..6),
        ops in prop::collection::vec(sim_op_strategy(), 20..200),
    ) {
        let scn = Scenario {
            resources: resources.clone(),
            flows: Vec::new(),
        };
        let (net, rids) = build(&scn);
        let mut sim = FluidSim::new(net);
        let mut flows = FlowPaths::new();
        for (step, op) in ops.iter().enumerate() {
            let now = sim.now();
            match op {
                SimOp::Start { delay_s, path, bytes, weight } => {
                    let distinct: BTreeSet<usize> =
                        path.iter().map(|&r| r % rids.len()).collect();
                    let p: Vec<ResourceId> = distinct.into_iter().map(|r| rids[r]).collect();
                    let f = sim.start_weighted_flow_at(
                        now + SimDuration::from_secs_f64(*delay_s),
                        p.clone(),
                        *bytes,
                        step as u64,
                        *weight,
                    );
                    flows.insert(f, (p, *weight));
                }
                SimOp::Factor { delay_s, r, factor } => sim.schedule_factor_change(
                    now + SimDuration::from_secs_f64(*delay_s),
                    rids[r % rids.len()],
                    *factor,
                ),
                SimOp::Cancel(k) => {
                    let active: Vec<_> = sim.network().active_flows().collect();
                    if !active.is_empty() {
                        sim.cancel_flow(active[k % active.len()]);
                    }
                }
                SimOp::Advance(dt_s) => {
                    let horizon = now + SimDuration::from_secs_f64(*dt_s);
                    while sim.run_until(horizon) {
                        while sim.pop_ready().is_some() {}
                    }
                }
            }
            check_capacities(sim.network(), &rids, &resources, &flows, step);
        }
    }
}
