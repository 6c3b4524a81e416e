//! Bit-for-bit differentials of the incremental solver's component
//! collection and batch retirement against the reference solver.
//!
//! The incremental solve must hand each dirty component's flows to the
//! solver in ascending slot order, whichever way it collects them: read
//! off the sorted active list when the component is a large share of
//! it, sorted after the walk when it is small. Depth weights here are
//! chosen so that summing a component's weights in any other order
//! moves a bit (`0.1 + 0.2 + 0.3 + 0.4` is `1.0`; the reverse sum is
//! not), and the saturating capacities pass that bit on to the rates.

use simcore::flow::{CapacityModel, FlowId, FlowNetwork, FluidSim, ResourceId};
use simcore::SimTime;

/// Depth weights whose sum depends on the summation order.
const WEIGHTS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

fn saturating(peak: f64) -> CapacityModel {
    CapacityModel::Saturating { peak, q_half: 0.5 }
}

/// Every flow's rate, as bits, in id order.
fn rate_bits(net: &FlowNetwork, flows: &[FlowId]) -> Vec<u64> {
    flows.iter().map(|&f| net.rate(f).to_bits()).collect()
}

/// Apply `step` to an incremental network and its reference twin,
/// re-solve each its own way, and require identical rate bits.
fn check_step(
    inc: &mut FlowNetwork,
    reference: &mut FlowNetwork,
    flows: &[FlowId],
    what: &str,
    step: impl Fn(&mut FlowNetwork),
) {
    step(inc);
    step(reference);
    inc.recompute_rates();
    reference.reference_recompute_rates();
    assert_eq!(
        rate_bits(inc, flows),
        rate_bits(reference, flows),
        "rates diverged from the reference after {what}"
    );
}

#[test]
fn one_component_spanning_every_flow_with_tied_bottlenecks() {
    // A shared switch joins every flow into one component, so the
    // solve reads its flows off the active list. Four targets of equal
    // capacity carry equal weight, so they tie for the bottleneck.
    let build = || {
        let mut net = FlowNetwork::new();
        let switch = net.add_resource("switch", CapacityModel::Fixed(1e9));
        let targets: Vec<ResourceId> = (0..4)
            .map(|t| net.add_resource(format!("ost{t}"), saturating(400.0)))
            .collect();
        let flows: Vec<FlowId> = (0..32)
            .map(|i| {
                let w = WEIGHTS[i / 4 % 4];
                net.add_flow_weighted([switch, targets[i % 4]], 1e6, i as u64, w)
            })
            .collect();
        (net, flows, targets)
    };
    let (mut inc, flows, targets) = build();
    let (mut reference, _, _) = build();
    // Activation in descending id order leaves every incidence list
    // descending, unlike the reference's ascending scan.
    check_step(&mut inc, &mut reference, &flows, "activation", |net| {
        for &f in flows.iter().rev() {
            net.activate(f);
        }
    });
    check_step(&mut inc, &mut reference, &flows, "a factor change", |net| {
        net.set_factor(targets[2], 0.5);
    });
    check_step(&mut inc, &mut reference, &flows, "departures", |net| {
        for &f in flows.iter().step_by(5) {
            net.deactivate(f);
        }
    });
}

#[test]
fn many_small_components_with_one_dirty() {
    // Thirty disjoint components of four flows each. After the first
    // full solve, each change dirties one component: small against the
    // active list, so its flows are sorted after the walk.
    let build = || {
        let mut net = FlowNetwork::new();
        let mut flows = Vec::new();
        let mut targets = Vec::new();
        for c in 0..30 {
            let link = net.add_resource(format!("link{c}"), CapacityModel::Fixed(1e9));
            let target = net.add_resource(format!("ost{c}"), saturating(300.0 + c as f64));
            targets.push(target);
            for (k, &w) in WEIGHTS.iter().enumerate() {
                let tag = (4 * c + k) as u64;
                flows.push(net.add_flow_weighted(vec![link, target], 1e6, tag, w));
            }
        }
        (net, flows, targets)
    };
    let (mut inc, flows, targets) = build();
    let (mut reference, _, _) = build();
    check_step(&mut inc, &mut reference, &flows, "activation", |net| {
        for &f in flows.iter().rev() {
            net.activate(f);
        }
    });
    for (k, &c) in [7usize, 0, 29].iter().enumerate() {
        check_step(&mut inc, &mut reference, &flows, "a factor change", |net| {
            net.set_factor(targets[c], 0.25 * (k + 1) as f64);
        });
    }
    check_step(&mut inc, &mut reference, &flows, "one departure", |net| {
        net.deactivate(flows[4 * 12 + 1]);
    });
}

#[test]
fn a_large_batch_retired_at_one_instant_then_compacted() {
    // 1,500 equal flows share a link that bottlenecks them all, so they
    // finish at one instant: one batch retirement, large enough to
    // compact the network. Twenty long flows run on past it. The
    // incremental and reference sims must agree on every completion
    // and, after each one, on every active flow's rate.
    let run = |reference: bool| {
        let mut net = FlowNetwork::new();
        let link = net.add_resource("link", CapacityModel::Fixed(1e6));
        let targets: Vec<ResourceId> = (0..4)
            .map(|t| net.add_resource(format!("ost{t}"), saturating(4e5)))
            .collect();
        let mut sim = FluidSim::new(net);
        sim.set_reference_solver(reference);
        for i in 0..1520usize {
            let bytes = if i % 76 == 0 { 2e5 } else { 100.0 };
            let path = [link, targets[i / 4 % 4]];
            sim.start_weighted_flow_at(SimTime::ZERO, path, bytes, i as u64, WEIGHTS[i % 4]);
        }
        let mut log = Vec::new();
        while let Some(c) = sim.next_completion() {
            let rates: Vec<u64> = sim
                .network()
                .active_flows()
                .map(|f| sim.network().rate(f).to_bits())
                .collect();
            log.push((c.flow, c.time, c.tag, rates));
        }
        log
    };
    let (inc, reference) = (run(false), run(true));
    assert_eq!(inc.len(), 1520);
    let batch = inc.iter().filter(|c| c.1 == inc[0].1).count();
    assert!(batch >= 1500, "only {batch} flows finished together");
    assert!(
        inc == reference,
        "incremental sim diverged from the reference"
    );
}
