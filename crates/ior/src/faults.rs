//! Fault-plan compilation, shared by every engine that simulates a
//! [`FaultPlan`]: the per-run engine ([`Run`](crate::Run)) and the
//! scheduler's continuous online engine. [`FaultTimeline::compile`]
//! validates a plan and a [`RetryPolicy`] against a deployment and
//! turns them into scheduled capacity changes and client-visible
//! outages, under this model:
//!
//! * a target going `Offline` at `T` zeroes its device capacity at `T`
//!   — flows crossing it stall physically;
//! * its recovery restores the noise-sampled capacity at the first
//!   client retry probe that finds the target physically serving
//!   (probes start one heartbeat after the outage, then back off
//!   exponentially; a target that goes down again at or before a probe
//!   swallows it, and the client keeps probing through the flap);
//! * if no probe succeeds within `deadline_s` of the outage's start —
//!   or the plan never brings the target back — the stalled writes are
//!   abandoned and the target stays dead for the rest of the timeline;
//! * `Degraded(f)` states, drift ramps, transient stragglers and
//!   server-link faults are physical slowdowns: they scale capacities at
//!   their event time without any client involvement.

use crate::error::RunError;
use crate::runner::RetryPolicy;
use beegfs_core::faults::FaultKind;
use beegfs_core::{BeeGfs, FaultPlan, FaultPlanError, TargetState};
use cluster::{FabricPaths, TargetId};
use simcore::flow::{FlowNetwork, FluidSim};
use simcore::time::SimTime;

/// The hardware a [`CapacityChange`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResource {
    /// A storage server's network link (flat server index).
    Link(u32),
    /// A storage target's device.
    Target(TargetId),
}

/// One scheduled capacity change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityChange {
    /// When the change takes effect, seconds.
    pub at_s: f64,
    /// The link or target whose capacity changes.
    pub resource: FaultResource,
    /// The new capacity as a multiple of the resource's noise-only
    /// baseline (`0.0` while a target is down).
    pub multiplier: f64,
}

/// A target outage as the clients saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The target that went down.
    pub target: TargetId,
    /// When it went down, seconds.
    pub start_s: f64,
    /// When the clients observed it (one heartbeat later), seconds.
    pub observe_s: f64,
    /// When it ended for the clients, seconds: the retry probe that found
    /// the target serving if `resumed`, else the instant the stalled
    /// writes were abandoned (`start_s` plus the retry deadline).
    pub end_s: f64,
    /// Whether a probe found the target serving within the deadline.
    pub resumed: bool,
}

/// Noise-only capacity factors of one fabric, per target and per server
/// link, read before the deployment's pre-run target states compound in:
/// what [`FaultTimeline::schedule`] scales, so a mid-run recovery
/// restores the sampled noise rather than the state-scaled factor.
#[derive(Debug, Clone)]
pub struct NoiseBaseline {
    ost: Vec<f64>,
    link: Vec<f64>,
}

/// Compound `fs`'s pre-run (degraded or offline) target states into a
/// freshly built fabric's sampled noise factors, returning the noise-only
/// baselines read just before.
pub fn compound_target_states(
    fs: &BeeGfs,
    net: &mut FlowNetwork,
    paths: &FabricPaths,
) -> NoiseBaseline {
    let platform = fs.platform();
    let base = NoiseBaseline {
        ost: platform
            .all_targets()
            .into_iter()
            .map(|t| net.factor(paths.ost_resource(t)))
            .collect(),
        link: (0..platform.server_count())
            .map(|s| net.factor(paths.server_link_resource(s)))
            .collect(),
    };
    for t in platform.all_targets() {
        let state_factor = fs.target_speed_factor(t);
        if state_factor != 1.0 {
            let r = paths.ost_resource(t);
            net.set_factor(r, net.factor(r) * state_factor);
        }
    }
    base
}

/// A validated [`FaultPlan`] compiled against one deployment and one
/// [`RetryPolicy`]; see the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    /// Capacity changes in scheduling order: link events in plan order,
    /// then each touched target in ascending index, its changes in time
    /// order. Same-instant changes apply in this order.
    pub changes: Vec<CapacityChange>,
    /// Client-visible outages, in the same target-then-time order. An
    /// outage that recovered before the clients observed it is absent;
    /// an abandoned one ends its target's timeline.
    pub outages: Vec<Outage>,
}

impl FaultTimeline {
    /// Validate `retry` and every server and target `plan` names against
    /// `fs`'s platform, then compile the plan. Every instant it emits —
    /// a capacity change, an outage's observation and its end — must lie
    /// on the simulated clock, or the plan fails with
    /// [`FaultPlanError::TimeBeyondClock`]: a give-up instant past it
    /// would never come. Reads only the platform and the management
    /// service's heartbeat: `fs` is left untouched.
    pub fn compile(
        fs: &BeeGfs,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultTimeline, RunError> {
        retry.validate()?;
        let platform = fs.platform();
        let mut changes = Vec::new();
        for ev in plan.events() {
            let (server, multiplier) = match ev.kind {
                FaultKind::SetTargetState { target, .. }
                | FaultKind::SlowDrift { target, .. }
                | FaultKind::TransientStraggler { target, .. } => {
                    if target.index() >= platform.total_targets() {
                        return Err(RunError::UnknownFaultTarget(target));
                    }
                    continue;
                }
                FaultKind::DegradeServerLink { server, factor } => (server, factor),
                FaultKind::RestoreServerLink { server } => (server, 1.0),
            };
            if server as usize >= platform.server_count() {
                return Err(RunError::UnknownFaultServer(server));
            }
            changes.push(CapacityChange {
                at_s: ev.at_s,
                resource: FaultResource::Link(server),
                multiplier,
            });
        }

        // Whether a probe succeeds depends on the target's *whole*
        // timeline — a later outage can swallow a probe — so each target
        // is compiled against its merged state curve (drift ramps
        // expanded to their staircase, stragglers to onset/recovery).
        // Every curve is expanded before any is compiled: the transient
        // buffers shape the heap a session then runs in. Expanding one
        // curve at a time cut the 600-target `fleet_online` benchmark's
        // peak memory from 35 to 16 MiB but made its session ~11% slower
        // on a 2-vCPU x86-64 VM, with identical outputs.
        let mut outages = Vec::new();
        let mut targets = plan.touched_targets();
        targets.sort_unstable();
        let curves: Vec<_> = targets
            .into_iter()
            .map(|t| (t, plan.target_state_curve(t)))
            .collect();
        for (target, evs) in curves {
            let state_at = |t: f64| {
                evs.iter()
                    .take_while(|(at_s, _)| *at_s <= t)
                    .last()
                    .map(|&(_, state)| state)
            };
            let mut change = |at_s: f64, state: TargetState| {
                changes.push(CapacityChange {
                    at_s,
                    resource: FaultResource::Target(target),
                    multiplier: state.speed_factor(),
                });
            };
            let mut i = 0;
            while i < evs.len() {
                let (start_s, state) = evs[i];
                change(start_s, state);
                i += 1;
                if !matches!(state, TargetState::Offline) {
                    continue;
                }
                // Outage: clients notice one heartbeat later, then probe
                // with backoff; each candidate recovery is checked
                // against the timeline at its probe instant. A recovery
                // past the deadline has its probe past it too.
                let observe_s = fs.mgmt().observation_time_s(start_s);
                let resume = evs[i..]
                    .iter()
                    .take_while(|(at_s, _)| at_s - start_s <= retry.deadline_s)
                    .filter(|(_, s)| !matches!(s, TargetState::Offline))
                    .find_map(|&(rec_s, _)| {
                        let probe = retry.resume_time_s(observe_s, rec_s);
                        match state_at(probe) {
                            Some(TargetState::Offline) | None => None,
                            Some(found) => Some((probe, found)),
                        }
                    });
                let outage = |end_s, resumed| Outage {
                    target,
                    start_s,
                    observe_s,
                    end_s,
                    resumed,
                };
                match resume {
                    Some((probe_s, found)) if probe_s - start_s <= retry.deadline_s => {
                        change(probe_s, found);
                        // A recovery that beat the heartbeat was never
                        // observed: the clients did not stall.
                        if probe_s > observe_s {
                            outages.push(outage(probe_s, true));
                        }
                        // Everything up to the successful probe belonged
                        // to this one client-visible outage.
                        while i < evs.len() && evs[i].0 <= probe_s {
                            i += 1;
                        }
                    }
                    _ => {
                        outages.push(outage(start_s + retry.deadline_s, false));
                        break;
                    }
                }
            }
        }
        let instants = changes.iter().map(|c| c.at_s);
        let ends = outages.iter().flat_map(|o| [o.observe_s, o.end_s]);
        if let Some(at_s) = instants
            .chain(ends)
            .find(|&at_s| SimTime::try_from_secs_f64(at_s).is_none())
        {
            return Err(RunError::FaultPlan(FaultPlanError::TimeBeyondClock(at_s)));
        }
        Ok(FaultTimeline { changes, outages })
    }

    /// Schedule every capacity change on `sim`, whose fabric `paths`
    /// describes: the new factor is the change's multiplier times the
    /// resource's noise-only baseline.
    pub fn schedule(&self, sim: &mut FluidSim<'_>, paths: &FabricPaths, base: &NoiseBaseline) {
        for c in &self.changes {
            let (r, base) = match c.resource {
                FaultResource::Link(s) => (
                    paths.server_link_resource(s as usize),
                    base.link[s as usize],
                ),
                FaultResource::Target(t) => (paths.ost_resource(t), base.ost[t.index()]),
            };
            sim.schedule_factor_change(SimTime::from_secs_f64(c.at_s), r, base * c.multiplier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beegfs_core::{plafrim_registration_order, DirConfig};
    use cluster::presets;

    fn fs() -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        )
    }

    #[test]
    fn changes_are_links_in_plan_order_then_targets_ascending() {
        let plan = FaultPlan::new()
            .target_offline(1.0, TargetId(5))
            .unwrap()
            .link_degraded(2.0, 1, 0.5)
            .unwrap()
            .target_degraded(3.0, TargetId(2), 0.25)
            .unwrap()
            .link_restored(4.0, 1)
            .unwrap();
        let tl = FaultTimeline::compile(&fs(), &plan, &RetryPolicy::default()).unwrap();
        let got: Vec<(f64, FaultResource, f64)> = tl
            .changes
            .iter()
            .map(|c| (c.at_s, c.resource, c.multiplier))
            .collect();
        assert_eq!(
            got,
            vec![
                (2.0, FaultResource::Link(1), 0.5),
                (4.0, FaultResource::Link(1), 1.0),
                (3.0, FaultResource::Target(TargetId(2)), 0.25),
                (1.0, FaultResource::Target(TargetId(5)), 0.0),
            ]
        );
        // Target 5 never comes back: abandoned at the default deadline.
        assert_eq!(
            tl.outages,
            vec![Outage {
                target: TargetId(5),
                start_s: 1.0,
                observe_s: 4.0,
                end_s: 61.0,
                resumed: false,
            }]
        );
    }

    #[test]
    fn blips_are_invisible_and_observed_outages_resume_at_a_probe() {
        // t0 is back before the 3 s heartbeat; t1 is back at 5 s, found
        // by the probe at 4.0 + 0.5 + 1.0.
        let plan = FaultPlan::new()
            .target_offline(1.0, TargetId(0))
            .unwrap()
            .target_recovers(2.0, TargetId(0))
            .unwrap()
            .target_offline(1.0, TargetId(1))
            .unwrap()
            .target_recovers(5.0, TargetId(1))
            .unwrap();
        let tl = FaultTimeline::compile(&fs(), &plan, &RetryPolicy::default()).unwrap();
        let t1: Vec<(f64, f64)> = tl
            .changes
            .iter()
            .filter(|c| c.resource == FaultResource::Target(TargetId(1)))
            .map(|c| (c.at_s, c.multiplier))
            .collect();
        assert_eq!(t1, vec![(1.0, 0.0), (5.5, 1.0)]);
        assert_eq!(tl.outages.len(), 1);
        let o = tl.outages[0];
        assert_eq!((o.target, o.end_s, o.resumed), (TargetId(1), 5.5, true));
    }
}
