//! # ior — an IOR-like parallel I/O benchmark engine for the simulator
//!
//! Reproduces the workload side of the paper's methodology (§III-B/C):
//!
//! * [`config::IorConfig`] — the benchmark parameters the paper varies
//!   (nodes, processes per node, data size, transfer size, N-1 vs N-N);
//! * [`runner::Run`] — **the primary API**: a builder that executes one
//!   run of one or more applications. One run samples the platform's
//!   noise, creates the striped file(s), emits one fluid flow per
//!   (process, target) pair and measures the aggregate write bandwidth.
//!   Concurrent applications occupy disjoint node sets (§IV-D) with
//!   Equation-1 aggregation; [`Run::faults`](runner::Run::faults)
//!   applies a mid-run [`FaultPlan`](beegfs_core::FaultPlan) with client
//!   retry/backoff behaviour ([`runner::RetryPolicy`]);
//!   [`Run::trace`](runner::Run::trace) records the run's full event
//!   timeline (flows, rate changes, faults, retries, phase spans) into
//!   any [`obs::Recorder`] for Perfetto export or in-code queries;
//! * [`runner::AppSpec`] — one application within a run: its
//!   [`IorConfig`] plus how its file(s) pick targets
//!   ([`runner::Placement`]);
//! * [`plan::write_plan`] — the fluid flows one application's write
//!   issues, which both `Run` and the scheduler's online engine start;
//! * [`protocol::Schedule`] — the randomized execution protocol
//!   (100 repetitions, blocks of ten, shuffled, random waits);
//! * [`error`] — the typed errors every fallible entry point returns
//!   instead of panicking ([`RunError`] and friends).
//!
//! ```
//! use beegfs_core::{plafrim_registration_order, BeeGfs, DirConfig};
//! use cluster::presets;
//! use ior::{IorConfig, Run};
//! use simcore::rng::RngFactory;
//!
//! let mut fs = BeeGfs::new(
//!     presets::plafrim_ethernet(),
//!     DirConfig::plafrim_default(),
//!     plafrim_registration_order(),
//! );
//! let mut rng = RngFactory::new(42).stream("docs", 0);
//! let (out, _) = Run::new(&mut fs)
//!     .app(IorConfig::paper_default(8))
//!     .execute(&mut rng)?;
//! assert!(out.try_single()?.bandwidth.mib_per_sec() > 0.0);
//! # Ok::<(), ior::RunError>(())
//! ```
//!
//! There is no MPI: IOR uses MPI only to launch and synchronize ranks,
//! and the simulator spawns simulated processes directly, which preserves
//! every I/O-path behaviour the paper studies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod faults;
mod hedge;
pub mod plan;
pub mod protocol;
pub mod runner;
pub mod telemetry;

pub use config::{FileLayout, IorConfig};
pub use error::{ConfigError, PolicyError, RunError};
pub use faults::{
    compound_target_states, CapacityChange, FaultResource, FaultTimeline, NoiseBaseline, Outage,
};
pub use plan::{group_by_node, write_plan, WriteFlow};
pub use protocol::{Schedule, ScheduledRun};
pub use runner::{AppResult, AppSpec, HedgeReport, Placement, RetryPolicy, Run, RunOutcome};
pub use simcore::flow::SimArena;
pub use telemetry::{ResourceLabel, ResourceUsage, UtilizationReport};
