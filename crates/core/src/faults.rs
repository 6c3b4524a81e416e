//! Deterministic mid-run fault timelines.
//!
//! A [`FaultPlan`] is a validated, time-sorted list of [`FaultEvent`]s —
//! "target 5 goes offline at t=4s, recovers at t=12s", "oss1's link
//! drops to 40% at t=2s" — that the `ior` runner compiles into scheduled
//! capacity changes inside the fluid simulation. Because the plan is
//! plain data (serde-serializable) and the simulation is deterministic,
//! the same seed plus the same plan reproduces a faulted run bit for
//! bit, which is what makes fault experiments comparable across
//! allocation policies.

use crate::error::{validate_state, StateError};
use crate::services::TargetState;
use cluster::TargetId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happens at a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The management service records a new state for a target: `Offline`
    /// (the OST stops serving), `Degraded(f)` (RAID rebuild, failing
    /// disk), or back to `Online` (recovery).
    SetTargetState {
        /// The affected target.
        target: TargetId,
        /// Its state from this event's instant on.
        state: TargetState,
    },
    /// The network link of a storage server degrades to `factor` of its
    /// nominal speed (cable fault, switch-port flap): every target on
    /// that server is slowed without any of them being marked unhealthy.
    DegradeServerLink {
        /// The affected server (flat index).
        server: u32,
        /// Remaining fraction of link speed, in `(0, 1]`.
        factor: f64,
    },
    /// The server's link returns to full speed.
    RestoreServerLink {
        /// The recovered server (flat index).
        server: u32,
    },
    /// A target's capacity drifts continuously downward — the classic
    /// *slow* straggler (failing disk, firmware GC storms, thermal
    /// throttling) that binary offline/online transitions cannot
    /// express. From `at_s` the target ramps linearly from full speed
    /// to `floor` over `ramp_s` seconds and then stays there; the ramp
    /// is compiled into a [`SLOW_DRIFT_STEPS`]-step staircase of
    /// `Degraded` states (see [`FaultPlan::target_steps`]).
    SlowDrift {
        /// The affected target.
        target: TargetId,
        /// Terminal fraction of nominal speed, in `(0, 1]`.
        floor: f64,
        /// Seconds the linear ramp takes from onset to `floor`.
        ramp_s: f64,
    },
    /// A transient straggler: the target drops to `factor` of nominal
    /// speed at `at_s` and recovers to full speed on its own after
    /// `duration_s` seconds (background scrub, competing tenant burst).
    TransientStraggler {
        /// The affected target.
        target: TargetId,
        /// Fraction of nominal speed while straggling, in `(0, 1]`.
        factor: f64,
        /// Seconds until the target recovers to full speed.
        duration_s: f64,
    },
}

/// Number of staircase steps a [`FaultKind::SlowDrift`] ramp is
/// discretized into when compiled to scheduled capacity changes.
pub const SLOW_DRIFT_STEPS: u32 = 8;

/// One timestamped fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes, seconds from the start of the run.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A fault plan failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// An event time was NaN, infinite or negative.
    InvalidTime(f64),
    /// A link degradation factor was outside `(0, 1]`.
    InvalidLinkFactor(f64),
    /// A target-state event carried an invalid state.
    State(StateError),
    /// A ramp or recovery duration was NaN, infinite, or not positive.
    InvalidDuration(f64),
    /// An event instant, or the end of its ramp or straggle, lies past
    /// the last instant simulated time can hold (`u64` nanoseconds,
    /// about 1.8e10 s). Compiled against a retry policy, so may an
    /// outage's observation, probe or give-up instant.
    TimeBeyondClock(f64),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::InvalidTime(t) => {
                write!(f, "invalid fault time {t}: must be finite and >= 0")
            }
            FaultPlanError::InvalidLinkFactor(x) => {
                write!(f, "invalid link factor {x}: must be finite and in (0, 1]")
            }
            FaultPlanError::State(e) => write!(f, "invalid fault state: {e}"),
            FaultPlanError::InvalidDuration(d) => {
                write!(f, "invalid fault duration {d}s: must be finite and > 0")
            }
            FaultPlanError::TimeBeyondClock(t) => write!(
                f,
                "fault time {t}s is past the simulated clock's range (about 1.8e10 s)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultPlanError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StateError> for FaultPlanError {
    fn from(e: StateError) -> Self {
        FaultPlanError::State(e)
    }
}

/// A deterministic timeline of faults, kept sorted by time.
///
/// Events at the same instant keep their insertion order, so plans are
/// fully deterministic. Build one with the fluent helpers:
///
/// ```
/// use beegfs_core::faults::FaultPlan;
/// use cluster::TargetId;
///
/// let plan = FaultPlan::new()
///     .target_offline(4.0, TargetId(5)).unwrap()
///     .target_recovers(12.0, TargetId(5)).unwrap();
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

// Deserialization routes through [`FaultPlan::from_events`] so a plan
// loaded from JSON passes the same validation and time-sorting as one
// built with the fluent constructors — raw data cannot smuggle in
// `Degraded(0.0)`, negative times, or unsorted events.
impl Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let events = v
            .get("events")
            .ok_or_else(|| serde::DeError::custom("missing field `events`"))?;
        let events = Vec::<FaultEvent>::from_value(events)?;
        FaultPlan::from_events(events).map_err(serde::DeError::custom)
    }
}

/// Reject an instant the simulated clock cannot hold.
fn on_clock(at_s: f64) -> Result<(), FaultPlanError> {
    match simcore::time::SimTime::try_from_secs_f64(at_s) {
        Some(_) => Ok(()),
        None => Err(FaultPlanError::TimeBeyondClock(at_s)),
    }
}

fn validate_event(ev: &FaultEvent) -> Result<(), FaultPlanError> {
    if !(ev.at_s.is_finite() && ev.at_s >= 0.0) {
        return Err(FaultPlanError::InvalidTime(ev.at_s));
    }
    on_clock(ev.at_s)?;
    match ev.kind {
        FaultKind::SetTargetState { state, .. } => validate_state(state)?,
        FaultKind::DegradeServerLink { factor, .. } => {
            if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                return Err(FaultPlanError::InvalidLinkFactor(factor));
            }
        }
        FaultKind::RestoreServerLink { .. } => {}
        FaultKind::SlowDrift { floor, ramp_s, .. } => {
            validate_state(TargetState::Degraded(floor))?;
            if !(ramp_s.is_finite() && ramp_s > 0.0) {
                return Err(FaultPlanError::InvalidDuration(ramp_s));
            }
            on_clock(ev.at_s + ramp_s)?;
        }
        FaultKind::TransientStraggler {
            factor, duration_s, ..
        } => {
            validate_state(TargetState::Degraded(factor))?;
            if !(duration_s.is_finite() && duration_s > 0.0) {
                return Err(FaultPlanError::InvalidDuration(duration_s));
            }
            on_clock(ev.at_s + duration_s)?;
        }
    }
    Ok(())
}

/// Expand one fault event into the `(time, target, state)` steps it
/// contributes to the compiled capacity curve. Link events contribute
/// nothing (they are compiled separately). `SetTargetState` is a single
/// step; `SlowDrift` becomes a [`SLOW_DRIFT_STEPS`]-step `Degraded`
/// staircase under the linear ramp, ending exactly at the floor;
/// `TransientStraggler` is a `Degraded` step plus an `Online` recovery.
fn expand_target_steps(ev: &FaultEvent, out: &mut Vec<(f64, TargetId, TargetState)>) {
    match ev.kind {
        FaultKind::SetTargetState { target, state } => out.push((ev.at_s, target, state)),
        FaultKind::SlowDrift {
            target,
            floor,
            ramp_s,
        } => {
            for k in 1..=SLOW_DRIFT_STEPS {
                let frac = f64::from(k) / f64::from(SLOW_DRIFT_STEPS);
                let factor = if k == SLOW_DRIFT_STEPS {
                    floor
                } else {
                    1.0 - (1.0 - floor) * frac
                };
                out.push((
                    ev.at_s + ramp_s * frac,
                    target,
                    TargetState::Degraded(factor),
                ));
            }
        }
        FaultKind::TransientStraggler {
            target,
            factor,
            duration_s,
        } => {
            out.push((ev.at_s, target, TargetState::Degraded(factor)));
            out.push((ev.at_s + duration_s, target, TargetState::Online));
        }
        FaultKind::DegradeServerLink { .. } | FaultKind::RestoreServerLink { .. } => {}
    }
}

impl FaultPlan {
    /// An empty plan (a run with no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from raw events, validating and time-sorting them
    /// (stable: same-instant events keep their given order).
    pub fn from_events(events: Vec<FaultEvent>) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan { events };
        for ev in &plan.events {
            validate_event(ev)?;
        }
        plan.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Ok(plan)
    }

    /// Append a validated event, keeping the plan time-sorted.
    pub fn push(mut self, ev: FaultEvent) -> Result<Self, FaultPlanError> {
        validate_event(&ev)?;
        // Stable insertion: place after every event at the same instant.
        let pos = self.events.partition_point(|e| e.at_s <= ev.at_s);
        self.events.insert(pos, ev);
        Ok(self)
    }

    /// Target `t` becomes unreachable at `at_s`.
    pub fn target_offline(self, at_s: f64, target: TargetId) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::SetTargetState {
                target,
                state: TargetState::Offline,
            },
        })
    }

    /// Target `t` returns to full health at `at_s`.
    pub fn target_recovers(self, at_s: f64, target: TargetId) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::SetTargetState {
                target,
                state: TargetState::Online,
            },
        })
    }

    /// Target `t` slows to `factor` of nominal speed at `at_s` (straggler
    /// onset, RAID rebuild).
    pub fn target_degraded(
        self,
        at_s: f64,
        target: TargetId,
        factor: f64,
    ) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::SetTargetState {
                target,
                state: TargetState::Degraded(factor),
            },
        })
    }

    /// Target `t` starts drifting at `at_s`: a linear ramp from full
    /// speed down to `floor` over `ramp_s` seconds, persisting at the
    /// floor until some later event (if any) changes its state.
    pub fn target_slow_drift(
        self,
        at_s: f64,
        target: TargetId,
        floor: f64,
        ramp_s: f64,
    ) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::SlowDrift {
                target,
                floor,
                ramp_s,
            },
        })
    }

    /// Target `t` straggles at `factor` of nominal speed from `at_s`,
    /// recovering to full speed on its own after `duration_s` seconds.
    pub fn target_transient_straggler(
        self,
        at_s: f64,
        target: TargetId,
        factor: f64,
        duration_s: f64,
    ) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::TransientStraggler {
                target,
                factor,
                duration_s,
            },
        })
    }

    /// Server `server`'s network link degrades to `factor` at `at_s`.
    pub fn link_degraded(
        self,
        at_s: f64,
        server: u32,
        factor: f64,
    ) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::DegradeServerLink { server, factor },
        })
    }

    /// Server `server`'s link returns to full speed at `at_s`.
    pub fn link_restored(self, at_s: f64, server: u32) -> Result<Self, FaultPlanError> {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::RestoreServerLink { server },
        })
    }

    /// The events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every target step the plan compiles to, expanded once, as
    /// `(time, target, state)` sorted by target, then time: a
    /// [`FaultKind::SlowDrift`] ramp becomes its `Degraded` staircase and
    /// a [`FaultKind::TransientStraggler`] episode its onset/recovery
    /// pair. One target's run of steps is its piecewise-constant state
    /// curve. Same-instant steps keep plan order (last write wins when
    /// applied), and steps from *different* events interleave freely —
    /// an offline/recovery pair in the middle of a drift ramp yields
    /// exactly the merged timeline, with the remaining ramp steps still
    /// landing after the recovery.
    pub fn target_steps(&self) -> Vec<(f64, TargetId, TargetState)> {
        let mut steps = Vec::new();
        for ev in &self.events {
            expand_target_steps(ev, &mut steps);
        }
        // Stable: same-instant steps of a target keep plan order.
        steps.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
        steps
    }

    /// The state a target ends up in once the whole timeline has played
    /// out, if any event touches it — `None` if the plan never does.
    /// Drift ramps count: a plan ending in a [`FaultKind::SlowDrift`]
    /// leaves the target `Degraded` at the drift floor.
    pub fn final_target_state(&self, target: TargetId) -> Option<TargetState> {
        self.target_steps()
            .iter()
            .rev()
            .find(|&&(_, t, _)| t == target)
            .map(|&(_, _, state)| state)
    }

    /// Emit the plan's *physical* timeline into an event recorder:
    /// target offline/degraded/online transitions and server-link
    /// degradations, at the instants the faults strike (clients observe
    /// them later, after the heartbeat delay — the runner records those
    /// as separate stall/retry events).
    pub fn record_into(&self, recorder: &mut dyn obs::Recorder) {
        let mut steps = Vec::new();
        for ev in &self.events {
            let at = simcore::time::SimTime::from_secs_f64(ev.at_s).as_nanos();
            match ev.kind {
                FaultKind::DegradeServerLink { server, factor } => {
                    recorder.record(obs::Event::LinkDegraded { at, server, factor });
                }
                FaultKind::RestoreServerLink { server } => {
                    recorder.record(obs::Event::LinkRestored { at, server });
                }
                // Target events record their full expanded curve, so a
                // drift ramp shows up in the trace exactly as the
                // staircase the simulation executes.
                _ => {
                    steps.clear();
                    expand_target_steps(ev, &mut steps);
                    for &(at_s, target, state) in &steps {
                        let at = simcore::time::SimTime::from_secs_f64(at_s).as_nanos();
                        recorder.record(match state {
                            TargetState::Offline => obs::Event::TargetOffline {
                                at,
                                target: target.0,
                            },
                            TargetState::Online => obs::Event::TargetOnline {
                                at,
                                target: target.0,
                            },
                            TargetState::Degraded(factor) => obs::Event::TargetDegraded {
                                at,
                                target: target.0,
                                factor,
                            },
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_a_sorted_plan() {
        let plan = FaultPlan::new()
            .target_recovers(12.0, TargetId(5))
            .unwrap()
            .target_offline(4.0, TargetId(5))
            .unwrap()
            .link_degraded(6.0, 1, 0.4)
            .unwrap();
        let times: Vec<f64> = plan.events().iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![4.0, 6.0, 12.0]);
        assert_eq!(
            plan.final_target_state(TargetId(5)),
            Some(TargetState::Online)
        );
        assert_eq!(plan.final_target_state(TargetId(0)), None);
    }

    #[test]
    fn record_into_emits_the_physical_timeline() {
        let plan = FaultPlan::new()
            .target_offline(4.0, TargetId(5))
            .unwrap()
            .link_degraded(6.0, 1, 0.4)
            .unwrap()
            .target_recovers(12.0, TargetId(5))
            .unwrap()
            .link_restored(13.0, 1)
            .unwrap();
        let mut timeline = obs::Timeline::new();
        plan.record_into(&mut timeline);
        let ns = |s: f64| simcore::time::SimTime::from_secs_f64(s).as_nanos();
        assert_eq!(
            timeline.events(),
            &[
                obs::Event::TargetOffline {
                    at: ns(4.0),
                    target: 5
                },
                obs::Event::LinkDegraded {
                    at: ns(6.0),
                    server: 1,
                    factor: 0.4
                },
                obs::Event::TargetOnline {
                    at: ns(12.0),
                    target: 5
                },
                obs::Event::LinkRestored {
                    at: ns(13.0),
                    server: 1
                },
            ]
        );
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let plan = FaultPlan::new()
            .target_offline(5.0, TargetId(1))
            .unwrap()
            .target_recovers(5.0, TargetId(1))
            .unwrap();
        assert_eq!(
            plan.final_target_state(TargetId(1)),
            Some(TargetState::Online)
        );
    }

    #[test]
    fn invalid_events_are_rejected() {
        assert!(matches!(
            FaultPlan::new().target_offline(-1.0, TargetId(0)),
            Err(FaultPlanError::InvalidTime(_))
        ));
        assert!(matches!(
            FaultPlan::new().target_offline(f64::NAN, TargetId(0)),
            Err(FaultPlanError::InvalidTime(_))
        ));
        assert!(matches!(
            FaultPlan::new().target_degraded(1.0, TargetId(0), 0.0),
            Err(FaultPlanError::State(StateError::InvalidDegradedFactor(_)))
        ));
        assert!(matches!(
            FaultPlan::new().link_degraded(1.0, 0, 1.5),
            Err(FaultPlanError::InvalidLinkFactor(1.5))
        ));
    }

    #[test]
    fn instants_past_the_simulated_clock_are_rejected() {
        // u64 nanoseconds end at ~1.8447e10 s. At 1e15 s one ulp is
        // 0.125 s, so a 1 ms retry step could not move a probe there:
        // such a plan fails before any run compiles it.
        assert!(FaultPlan::new().target_offline(1.8e10, TargetId(0)).is_ok());
        assert_eq!(
            FaultPlan::new().target_offline(1e15, TargetId(0)),
            Err(FaultPlanError::TimeBeyondClock(1e15))
        );
        let late = FaultEvent {
            at_s: 1e15,
            kind: FaultKind::SetTargetState {
                target: TargetId(0),
                state: TargetState::Offline,
            },
        };
        assert_eq!(
            FaultPlan::from_events(vec![late]),
            Err(FaultPlanError::TimeBeyondClock(1e15))
        );
        assert_eq!(
            FaultPlan::new().link_restored(1.85e10, 0),
            Err(FaultPlanError::TimeBeyondClock(1.85e10))
        );
        // The onset fits, the recovery or ramp end does not.
        assert_eq!(
            FaultPlan::new().target_transient_straggler(1.8e10, TargetId(0), 0.5, 1e9),
            Err(FaultPlanError::TimeBeyondClock(1.9e10))
        );
        assert_eq!(
            FaultPlan::new().target_slow_drift(1.8e10, TargetId(0), 0.5, 1e9),
            Err(FaultPlanError::TimeBeyondClock(1.9e10))
        );
    }

    #[test]
    fn from_events_sorts_and_validates() {
        let raw = vec![
            FaultEvent {
                at_s: 9.0,
                kind: FaultKind::RestoreServerLink { server: 0 },
            },
            FaultEvent {
                at_s: 3.0,
                kind: FaultKind::DegradeServerLink {
                    server: 0,
                    factor: 0.5,
                },
            },
        ];
        let plan = FaultPlan::from_events(raw).unwrap();
        assert_eq!(plan.events()[0].at_s, 3.0);
        assert!(FaultPlan::from_events(vec![FaultEvent {
            at_s: f64::INFINITY,
            kind: FaultKind::RestoreServerLink { server: 0 },
        }])
        .is_err());
    }

    #[test]
    fn deserialization_revalidates_and_resorts() {
        let degraded = |at_s, factor| FaultEvent {
            at_s,
            kind: FaultKind::SetTargetState {
                target: TargetId(0),
                state: TargetState::Degraded(factor),
            },
        };
        // Bypass the validating constructors: serializing an invalid plan
        // is possible, loading it back must not be.
        let bad = FaultPlan {
            events: vec![degraded(1.0, 0.0)],
        };
        let json = serde_json::to_string(&bad).unwrap();
        let err = serde_json::from_str::<FaultPlan>(&json).unwrap_err();
        assert!(err.to_string().contains("invalid"), "{err}");

        // Unsorted raw events come back time-sorted.
        let unsorted = FaultPlan {
            events: vec![degraded(9.0, 0.5), degraded(3.0, 0.5)],
        };
        let json = serde_json::to_string(&unsorted).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        let times: Vec<f64> = back.events().iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![3.0, 9.0]);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new()
            .target_offline(4.0, TargetId(5))
            .unwrap()
            .target_degraded(6.0, TargetId(2), 0.25)
            .unwrap()
            .target_recovers(12.5, TargetId(5))
            .unwrap()
            .link_degraded(2.0, 1, 0.4)
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn straggler_plans_round_trip_through_json() {
        let plan = FaultPlan::new()
            .target_slow_drift(2.0, TargetId(3), 0.3, 16.0)
            .unwrap()
            .target_transient_straggler(5.0, TargetId(7), 0.2, 10.0)
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn straggler_validation_rejects_bad_parameters() {
        assert!(matches!(
            FaultPlan::new().target_slow_drift(1.0, TargetId(0), 0.0, 8.0),
            Err(FaultPlanError::State(StateError::InvalidDegradedFactor(_)))
        ));
        assert!(matches!(
            FaultPlan::new().target_slow_drift(1.0, TargetId(0), 1.5, 8.0),
            Err(FaultPlanError::State(StateError::InvalidDegradedFactor(_)))
        ));
        assert!(matches!(
            FaultPlan::new().target_slow_drift(1.0, TargetId(0), 0.5, 0.0),
            Err(FaultPlanError::InvalidDuration(_))
        ));
        assert!(matches!(
            FaultPlan::new().target_transient_straggler(1.0, TargetId(0), 0.5, f64::NAN),
            Err(FaultPlanError::InvalidDuration(_))
        ));
        assert!(matches!(
            FaultPlan::new().target_transient_straggler(1.0, TargetId(0), -0.2, 5.0),
            Err(FaultPlanError::State(StateError::InvalidDegradedFactor(_)))
        ));
    }

    #[test]
    fn straggler_deserialization_revalidates() {
        // Bypass the validating constructors, as in
        // `deserialization_revalidates_and_resorts`: a hand-built plan
        // with an invalid drift floor serializes but must not load.
        let bad = FaultPlan {
            events: vec![FaultEvent {
                at_s: 1.0,
                kind: FaultKind::SlowDrift {
                    target: TargetId(0),
                    floor: 0.0,
                    ramp_s: 4.0,
                },
            }],
        };
        let json = serde_json::to_string(&bad).unwrap();
        assert!(serde_json::from_str::<FaultPlan>(&json).is_err());

        let bad = FaultPlan {
            events: vec![FaultEvent {
                at_s: 1.0,
                kind: FaultKind::TransientStraggler {
                    target: TargetId(0),
                    factor: 0.5,
                    duration_s: -3.0,
                },
            }],
        };
        let json = serde_json::to_string(&bad).unwrap();
        assert!(serde_json::from_str::<FaultPlan>(&json).is_err());
    }

    /// One target's state curve: its run of the plan's expansion.
    fn curve_of(plan: &FaultPlan, target: TargetId) -> Vec<(f64, TargetState)> {
        plan.target_steps()
            .into_iter()
            .filter(|&(_, t, _)| t == target)
            .map(|(at_s, _, state)| (at_s, state))
            .collect()
    }

    #[test]
    fn slow_drift_expands_to_a_monotone_staircase() {
        let plan = FaultPlan::new()
            .target_slow_drift(10.0, TargetId(2), 0.25, 8.0)
            .unwrap();
        let curve = curve_of(&plan, TargetId(2));
        assert_eq!(curve.len(), SLOW_DRIFT_STEPS as usize);
        // First step one increment after onset, last step at the floor
        // exactly when the ramp ends.
        assert_eq!(curve[0].0, 11.0);
        assert_eq!(curve.last().unwrap().0, 18.0);
        assert_eq!(curve.last().unwrap().1, TargetState::Degraded(0.25));
        let mut prev = 1.0;
        for &(_, state) in &curve {
            let f = state.speed_factor();
            assert!(f < prev, "staircase must strictly decrease ({f} >= {prev})");
            assert!(f >= 0.25);
            prev = f;
        }
        assert_eq!(
            plan.final_target_state(TargetId(2)),
            Some(TargetState::Degraded(0.25))
        );
    }

    #[test]
    fn transient_straggler_recovers_on_its_own() {
        let plan = FaultPlan::new()
            .target_transient_straggler(3.0, TargetId(4), 0.2, 6.0)
            .unwrap();
        let curve = curve_of(&plan, TargetId(4));
        assert_eq!(
            curve,
            vec![
                (3.0, TargetState::Degraded(0.2)),
                (9.0, TargetState::Online)
            ]
        );
        assert_eq!(
            plan.final_target_state(TargetId(4)),
            Some(TargetState::Online)
        );
        assert!(curve_of(&plan, TargetId(0)).is_empty());
    }

    #[test]
    fn overlapping_straggler_and_offline_merge_and_round_trip() {
        // A drift ramp with an offline/recovery pair punched through its
        // middle: the merged curve interleaves both timelines, and the
        // ramp's remaining steps still land after the recovery, so the
        // target ends at the drift floor rather than pristine.
        let plan = FaultPlan::new()
            .target_slow_drift(0.0, TargetId(1), 0.5, 8.0)
            .unwrap()
            .target_offline(3.5, TargetId(1))
            .unwrap()
            .target_recovers(4.5, TargetId(1))
            .unwrap();
        let curve = curve_of(&plan, TargetId(1));
        assert_eq!(curve.len(), SLOW_DRIFT_STEPS as usize + 2);
        let times: Vec<f64> = curve.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "curve time-sorted");
        // Drift steps land at t = 1..=8; the outage interleaves between.
        assert_eq!(curve[3], (3.5, TargetState::Offline));
        assert_eq!(curve[5], (4.5, TargetState::Online));
        assert_eq!(
            plan.final_target_state(TargetId(1)),
            Some(TargetState::Degraded(0.5))
        );
        assert_eq!(
            plan.target_steps().len(),
            curve.len(),
            "only target 1 is touched"
        );

        // And the overlapping plan survives a JSON round trip intact
        // (deserialization re-validates and re-sorts).
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.target_steps(), plan.target_steps());
    }

    #[test]
    fn record_into_expands_drift_ramps() {
        let plan = FaultPlan::new()
            .target_transient_straggler(2.0, TargetId(6), 0.4, 3.0)
            .unwrap();
        let mut timeline = obs::Timeline::new();
        plan.record_into(&mut timeline);
        let ns = |s: f64| simcore::time::SimTime::from_secs_f64(s).as_nanos();
        assert_eq!(
            timeline.events(),
            &[
                obs::Event::TargetDegraded {
                    at: ns(2.0),
                    target: 6,
                    factor: 0.4
                },
                obs::Event::TargetOnline {
                    at: ns(5.0),
                    target: 6
                },
            ]
        );

        let drift = FaultPlan::new()
            .target_slow_drift(0.0, TargetId(1), 0.5, 8.0)
            .unwrap();
        let mut timeline = obs::Timeline::new();
        drift.record_into(&mut timeline);
        assert_eq!(timeline.events().len(), SLOW_DRIFT_STEPS as usize);
    }
}
