//! Bit-for-bit differentials of the incremental solver's component
//! collection against the reference solver. Batch retirement through a
//! `FluidSim` is checked in the workspace's `tests/solver_properties.rs`,
//! whose one driver compares every solve a sim makes.
//!
//! Whichever way the incremental solve collects the dirty components'
//! resources — the loaded list when a resource in them is crossed by
//! every active flow, the walk's list, or the resources of components
//! an earlier walk kept — each saturating resource must add its active
//! flows' depth weights in ascending slot order, whatever the order of
//! its incidence list. Depth weights here are chosen so that summing a
//! component's weights in any other order moves a bit (`0.1 + 0.2 +
//! 0.3 + 0.4` is `1.0`; the reverse sum is not), and the saturating
//! capacities pass that bit on to the rates.

use simcore::flow::{CapacityModel, FlowId, FlowNetwork, ResourceId};

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
    // solve takes the whole active list: the walk stops at the switch,
    // a dirty root after activation and departures, and reaches it
    // from the target after the factor change. Four targets of equal
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
    // Thirty disjoint components of four flows each, started in
    // descending id order. After the first full solve, each change
    // dirties one component, which the walk collects alone.
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
fn a_kept_component_that_split_is_reused_whole() {
    // Two groups of four flows, each over its own link and target, are
    // joined by one bridging flow across both targets; a third group
    // stands apart. The first solve walks and keeps two components.
    // When the bridge departs, the first kept component holds two
    // pieces, and every later solve there takes its resources: both
    // pieces are re-solved, whichever one changed. A change in two kept
    // components at once joins their resources.
    let build = || {
        let mut net = FlowNetwork::new();
        let groups: Vec<[ResourceId; 2]> = (0..3)
            .map(|g| {
                let link = net.add_resource(format!("link{g}"), CapacityModel::Fixed(1e9));
                let target = net.add_resource(format!("ost{g}"), saturating(300.0 + g as f64));
                [link, target]
            })
            .collect();
        let mut flows = Vec::new();
        for (g, &path) in groups.iter().enumerate() {
            for (k, &w) in WEIGHTS.iter().enumerate() {
                flows.push(net.add_flow_weighted(path, 1e6, (4 * g + k) as u64, w));
            }
        }
        let bridge = [groups[0][1], groups[1][1]];
        flows.push(net.add_flow_weighted(bridge, 1e6, 12, 0.3));
        (net, flows, groups)
    };
    let (mut inc, flows, groups) = build();
    let (mut reference, _, _) = build();
    let bridge = flows[12];
    check_step(&mut inc, &mut reference, &flows, "activation", |net| {
        for &f in flows.iter().rev() {
            net.activate(f);
        }
    });
    assert_eq!(inc.last_component_sizes(), [9, 4]);
    check_step(
        &mut inc,
        &mut reference,
        &flows,
        "the bridge departing",
        |net| {
            net.deactivate(bridge);
        },
    );
    assert_eq!(inc.reused_solve_count(), 1);
    check_step(
        &mut inc,
        &mut reference,
        &flows,
        "a change in one piece",
        |net| {
            net.set_factor(groups[0][1], 0.5);
        },
    );
    check_step(
        &mut inc,
        &mut reference,
        &flows,
        "a departure in the other",
        |net| {
            net.deactivate(flows[5]);
        },
    );
    assert_eq!(inc.reused_solve_count(), 3);
    assert_eq!(inc.last_component_sizes(), [7], "both pieces re-solved");
    check_step(
        &mut inc,
        &mut reference,
        &flows,
        "changes in two kept components",
        |net| {
            net.set_factor(groups[2][1], 0.75);
            net.set_factor(groups[1][1], 0.25);
        },
    );
    assert_eq!(inc.reused_solve_count(), 4);
    assert_eq!(inc.last_component_sizes(), [11]);
    check_step(
        &mut inc,
        &mut reference,
        &flows,
        "the bridge returning",
        |net| {
            net.activate(bridge);
        },
    );
    assert_eq!(inc.reused_solve_count(), 4, "an activation walks");
    assert_eq!(inc.last_component_sizes(), [8]);
}
