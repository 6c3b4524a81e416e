//! # cluster — the physical platform model
//!
//! Describes everything between an application process and a storage
//! device: compute nodes with NICs and a client-stack injection cap, a
//! (non-blocking) switch, per-storage-server links, per-server backends,
//! and the storage targets themselves. A [`Platform`] is a *description*;
//! [`fabric::Fabric`] instantiates it as resources of a
//! `simcore::flow::FlowNetwork` for one simulated run.
//!
//! Three presets reproduce the systems discussed in the paper:
//!
//! * [`presets::plafrim_ethernet`] — **Scenario 1**: Bora nodes reaching
//!   the two BeeGFS hosts over 10 GbE; the per-server link is the
//!   bottleneck.
//! * [`presets::plafrim_omnipath`] — **Scenario 2**: the same storage
//!   behind 100 Gbit/s Omni-Path; the RAID-6 targets and the per-server
//!   backends are the bottleneck.
//! * [`presets::catalyst_like`] — a 12-server x 2-OST system shaped like
//!   the LLNL Catalyst deployment used by Chowdhury et al. (ICPP 2019),
//!   for the "why did they see no stripe-count effect" contrast
//!   experiment.
//!
//! Calibration constants in the presets were fitted so the *shape* of
//! every paper figure is reproduced (see EXPERIMENTS.md for the
//! paper-vs-measured index).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod fleet;
pub mod ids;
pub mod presets;
pub mod spec;

pub use fabric::{Fabric, FabricNoise, FabricPaths, WritePath};
pub use fleet::{ConfigError, FleetSpec};
pub use ids::{NodeId, ServerId, TargetId};
pub use presets::{catalyst_like, plafrim_ethernet, plafrim_omnipath};
pub use spec::{ComputeSpec, NetworkSpec, Platform, StorageServerSpec, SwitchPolicy};
