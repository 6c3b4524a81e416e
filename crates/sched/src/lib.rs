//! Online allocation scheduling for a simulated BeeGFS deployment.
//!
//! The paper studies how *storage target allocation* decides an
//! application's I/O performance when allocations are made one file at
//! a time, blindly. This crate asks the follow-up question: what if a
//! scheduler watched applications *arrive* and placed each one with a
//! view of the cluster's current load?
//!
//! * [`ArrivalStream`] — deterministic workloads: Poisson-generated or
//!   trace-driven sequences of [`AppRequest`]s (size, nodes/ppn, and
//!   stripe demand per arrival).
//! * [`PlacementPolicy`] — pluggable placement: [`Random`] (the BeeGFS
//!   baseline, bit-identical to the stock chooser), [`RoundRobinServer`],
//!   [`LeastLoadedServer`] (greedy on outstanding allocated bytes),
//!   [`UtilizationFeedback`] (greedy on live per-target busy fractions),
//!   [`StragglerAware`] (utilization feedback plus quarantine of
//!   targets the hedging detector has flagged), and [`AdaptiveStriping`]
//!   (utilization-feedback placement plus IOPathTune-style mid-flight
//!   restriping from observed per-application throughput).
//! * [`Scheduler`] — admission, queueing, placement, completion and
//!   release, fault-driven re-placement, and per-application slowdown
//!   accounting. Two admission modes ([`AdmissionMode`]): the
//!   frozen-schedule reference oracle, which prices each admission with
//!   a fresh measurement simulation (see [`scheduler`]), and the
//!   continuous [`online`] engine, which drives one long-running fluid
//!   simulation for the whole session at O(1)-amortized cost per
//!   arrival — the mode that makes million-arrival streams tractable.
//!
//! Everything is deterministic: one [`simcore::rng::RngFactory`] seed
//! fixes the workload, every placement, and every simulated byte.

pub mod arrivals;
pub mod error;
mod ledger;
pub mod online;
pub mod policy;
pub mod scheduler;

pub use arrivals::{AppRequest, ArrivalStream};
pub use error::SchedError;
pub use ior::Placement;
pub use online::AdmissionMode;
pub use policy::{
    AdaptiveStriping, AppObservation, ClusterView, LeastLoadedServer, PlacementPolicy, Random,
    RestripeDecision, RestripeKind, RoundRobinServer, StragglerAware, UtilizationFeedback,
};
pub use scheduler::{AppOutcome, Decision, RestripeRecord, SchedOutcome, Scheduler};
