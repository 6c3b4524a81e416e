//! # beegfs-repro — reproduction of "The role of storage target
//! # allocation in applications' I/O performance with BeeGFS"
//! (Boito, Pallez, Teylo — IEEE CLUSTER 2022)
//!
//! This facade crate re-exports the workspace's public API; see the
//! individual crates for the substance:
//!
//! * [`simcore`] — discrete-event kernel: simulated time, event calendar,
//!   max–min fair fluid network, deterministic RNG streams;
//! * [`storage`] — device models: HDDs, RAID-6/RAID-1 arrays, SSDs, OST
//!   concurrency curves, run-to-run variability;
//! * [`cluster`] — the platform: nodes, NICs, switch, server links,
//!   backends; calibrated PlaFRIM (two network scenarios) and
//!   Catalyst-like presets;
//! * [`core`] (`beegfs-core`) — the BeeGFS model: striping, target
//!   choosers, management/metadata services, the `BeeGfs` facade, and the
//!   closed-form analytic capacity model;
//! * [`ior`] — the IOR-like benchmark engine and the paper's randomized
//!   execution protocol;
//! * [`stats`] (`iostats`) — summaries, box plots, Welch's t-test, KS
//!   tests, Equation-1 aggregation;
//! * [`obs`] — event-level tracing: the `Recorder` trait, the queryable
//!   `Timeline` sink, and Chrome trace-event (Perfetto) export;
//! * [`sched`] — the online allocation scheduler: arrival streams,
//!   pluggable load-aware placement policies, admission/queueing, and
//!   per-application slowdown accounting;
//! * [`experiments`] — one driver per paper figure plus the `repro`
//!   binary that regenerates every table.
//!
//! ## Quickstart
//!
//! ```
//! use beegfs_repro::core::{BeeGfs, DirConfig, plafrim_registration_order};
//! use beegfs_repro::cluster::presets;
//! use beegfs_repro::ior::{IorConfig, Run};
//! use beegfs_repro::simcore::rng::RngFactory;
//!
//! // Deploy BeeGFS exactly as PlaFRIM ships it (stripe 4, round-robin).
//! let mut fs = BeeGfs::new(
//!     presets::plafrim_ethernet(),
//!     DirConfig::plafrim_default(),
//!     plafrim_registration_order(),
//! );
//! // One IOR run: 8 nodes x 8 processes, N-1, 32 GiB, 1 MiB transfers.
//! let mut rng = RngFactory::new(42).stream("quickstart", 0);
//! let (out, _) = Run::new(&mut fs)
//!     .app(IorConfig::paper_default(8))
//!     .execute(&mut rng)?;
//! let bw = out.try_single()?.bandwidth.mib_per_sec();
//! assert!(bw > 1000.0 && bw < 2500.0);
//! # Ok::<(), beegfs_repro::ior::RunError>(())
//! ```

#![warn(missing_docs)]

pub use beegfs_core as core;
pub use cluster;
pub use experiments;
pub use ior;
pub use iostats as stats;
pub use obs;
pub use sched;
pub use simcore;
pub use storage;
