//! Typed errors for the benchmark engine.
//!
//! Everything a caller can get wrong — or that a fault timeline can make
//! go wrong mid-run — surfaces as a value here instead of a panic:
//! invalid configurations, mixed concurrent-run parameters, asking for
//! more nodes than the partition has, and writes that die against a
//! target that never comes back within the retry deadline.

use beegfs_core::{FaultPlanError, StripeError};
use cluster::TargetId;
use simcore::flow::StallError;
use std::fmt;

/// An [`IorConfig`](crate::config::IorConfig) failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` was zero.
    ZeroNodes,
    /// `ppn` was zero.
    ZeroPpn,
    /// `total_bytes` was zero.
    ZeroBytes,
    /// `transfer_size` was zero.
    ZeroTransfer,
    /// The data size leaves less than one transfer per process.
    SubTransferBlock {
        /// Requested total data size, bytes.
        total_bytes: u64,
        /// Requested transfer size, bytes.
        transfer_size: u64,
        /// Total process count the size is divided over.
        processes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "need at least one node"),
            ConfigError::ZeroPpn => write!(f, "need at least one process per node"),
            ConfigError::ZeroBytes => write!(f, "need a positive data size"),
            ConfigError::ZeroTransfer => write!(f, "need a positive transfer size"),
            ConfigError::SubTransferBlock {
                total_bytes,
                transfer_size,
                processes,
            } => write!(
                f,
                "data size {total_bytes} leaves less than one {transfer_size}-byte transfer \
                 per process ({processes} processes)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A [`RetryPolicy`](crate::runner::RetryPolicy) failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyError {
    /// The initial backoff must be finite and positive.
    InvalidBackoff(f64),
    /// The backoff multiplier must be finite and at least one.
    InvalidMultiplier(f64),
    /// The backoff cap must be finite and at least the initial backoff.
    InvalidMaxBackoff(f64),
    /// The give-up deadline must be finite and positive.
    InvalidDeadline(f64),
    /// The backoff must reach the deadline (seconds) within 65,536
    /// probes.
    TooManyProbes(f64),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::InvalidBackoff(x) => {
                write!(f, "initial backoff {x}s must be finite and positive")
            }
            PolicyError::InvalidMultiplier(x) => {
                write!(f, "backoff multiplier {x} must be finite and >= 1")
            }
            PolicyError::InvalidMaxBackoff(x) => {
                write!(
                    f,
                    "max backoff {x}s must be finite and >= the initial backoff"
                )
            }
            PolicyError::InvalidDeadline(x) => {
                write!(f, "retry deadline {x}s must be finite and positive")
            }
            PolicyError::TooManyProbes(x) => {
                write!(f, "backoff cannot reach the {x}s deadline in 65536 probes")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A run could not start or could not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An application configuration failed validation.
    Config(ConfigError),
    /// File creation / target selection failed.
    Stripe(StripeError),
    /// The retry policy failed validation.
    Policy(PolicyError),
    /// The fault plan failed validation.
    FaultPlan(FaultPlanError),
    /// The run was submitted with an empty application list.
    NoApplications,
    /// An application's simulated start time was negative or non-finite.
    InvalidStartTime {
        /// Index of the application in the submission order.
        app: usize,
        /// The rejected start time, seconds.
        start_s: f64,
    },
    /// Concurrent applications disagreed on processes per node (the
    /// fabric's client model is per-node).
    MixedPpn,
    /// Concurrent applications disagreed on the access mode (targets
    /// expose one capacity profile per run).
    MixedMode,
    /// The applications need more compute nodes than the partition has.
    Oversubscribed {
        /// Nodes the applications need in total.
        requested: usize,
        /// Nodes the platform's partition offers.
        available: usize,
    },
    /// A fault event names a target the platform does not have.
    UnknownFaultTarget(TargetId),
    /// A fault event names a server the platform does not have.
    UnknownFaultServer(u32),
    /// Writes to a target died: it went offline mid-run and the client's
    /// retries never saw it come back within the deadline.
    TargetUnavailable {
        /// The dead target.
        target: TargetId,
        /// When it went offline (seconds into the run).
        outage_start_s: f64,
        /// When the simulation last made progress (seconds into the run).
        stalled_at_s: f64,
    },
    /// The simulation stalled on zero-capacity flows without a recorded
    /// outage to blame — a failure path the fault model does not explain
    /// (e.g. a target that was offline before the run started yet still
    /// received writes).
    Stalled(StallError),
    /// An application finished with no recorded I/O completion time — an
    /// internal accounting invariant was violated.
    NoIoAccounted {
        /// Index of the application in the submission order.
        app: usize,
    },
    /// [`RunOutcome::try_single`](crate::RunOutcome::try_single) was
    /// asked for *the* application of a run that had several (or none).
    NotSingleApp {
        /// How many applications the run actually had.
        apps: usize,
    },
    /// [`UtilizationReport::try_busiest`](crate::UtilizationReport::try_busiest)
    /// was asked for the bottleneck of a report with no resources.
    EmptyReport,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Stripe(e) => write!(f, "file creation failed: {e}"),
            RunError::Policy(e) => write!(f, "invalid retry policy: {e}"),
            RunError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            RunError::NoApplications => write!(f, "need at least one application"),
            RunError::InvalidStartTime { app, start_s } => write!(
                f,
                "application {app} has invalid start time {start_s}s: must be finite and \
                 non-negative"
            ),
            RunError::MixedPpn => write!(
                f,
                "concurrent applications must share ppn (per-node client model)"
            ),
            RunError::MixedMode => write!(
                f,
                "concurrent applications must share the access mode \
                 (targets expose one profile per run)"
            ),
            RunError::Oversubscribed {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} nodes but the partition has {available}"
            ),
            RunError::UnknownFaultTarget(t) => {
                write!(f, "fault plan names unknown target {t}")
            }
            RunError::UnknownFaultServer(s) => {
                write!(f, "fault plan names unknown server oss{s}")
            }
            RunError::TargetUnavailable {
                target,
                outage_start_s,
                stalled_at_s,
            } => write!(
                f,
                "write to {target} failed: offline since {outage_start_s}s and not seen \
                 again within the retry deadline (last progress at {stalled_at_s}s)"
            ),
            RunError::Stalled(e) => {
                write!(f, "run stalled outside the fault model: {e}")
            }
            RunError::NoIoAccounted { app } => write!(
                f,
                "application {app} recorded no I/O completion time (accounting invariant \
                 violated)"
            ),
            RunError::NotSingleApp { apps } => {
                write!(f, "expected a single-application run, found {apps}")
            }
            RunError::EmptyReport => {
                write!(f, "utilization report has no resources")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Stripe(e) => Some(e),
            RunError::Policy(e) => Some(e),
            RunError::FaultPlan(e) => Some(e),
            RunError::Stalled(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<StripeError> for RunError {
    fn from(e: StripeError) -> Self {
        RunError::Stripe(e)
    }
}

impl From<PolicyError> for RunError {
    fn from(e: PolicyError) -> Self {
        RunError::Policy(e)
    }
}

impl From<FaultPlanError> for RunError {
    fn from(e: FaultPlanError) -> Self {
        RunError::FaultPlan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_keep_their_established_wording() {
        assert_eq!(ConfigError::ZeroNodes.to_string(), "need at least one node");
        assert!(RunError::MixedPpn.to_string().contains("must share ppn"));
        let e = RunError::Oversubscribed {
            requested: 100,
            available: 24,
        };
        assert!(e.to_string().contains("requested 100 nodes"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = RunError::Config(ConfigError::ZeroBytes);
        assert!(e.source().is_some());
        assert!(RunError::NoApplications.source().is_none());
    }
}
