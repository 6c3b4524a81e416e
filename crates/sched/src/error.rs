//! Typed failures of the online scheduler.

use beegfs_core::PolicyError;
use ior::RunError;

/// Why serving an arrival stream failed.
#[derive(Debug)]
pub enum SchedError {
    /// The arrival stream has no requests.
    EmptyStream,
    /// Arrival times must be finite, non-negative and non-decreasing.
    InvalidArrival {
        /// Index of the offending request.
        app: usize,
        /// Its arrival time, seconds.
        arrival_s: f64,
    },
    /// A Poisson stream's arrival rate must be a positive finite number.
    InvalidRate {
        /// The offending rate, applications per second.
        rate_per_s: f64,
    },
    /// An arrival lies past the last instant simulated time can hold
    /// (`u64` nanoseconds, about 1.8e10 s).
    ArrivalBeyondClock {
        /// Index of the offending request.
        app: usize,
        /// Its arrival time, seconds.
        arrival_s: f64,
    },
    /// The scheduler snapshots running applications by pinning their
    /// single shared file; file-per-process workloads cannot be pinned
    /// without changing their placement.
    UnsupportedLayout {
        /// Index of the offending request.
        app: usize,
    },
    /// Concurrent applications must share ppn and access mode (the run
    /// engine's own constraint, checked before any simulation starts).
    MixedWorkload {
        /// Index of the first request that differs from request 0.
        app: usize,
    },
    /// A request can never be admitted, even on an idle system.
    Unschedulable {
        /// Index of the request.
        app: usize,
        /// Nodes it asks for.
        nodes: usize,
        /// Nodes the platform has.
        available: usize,
    },
    /// The placement policy could not produce an allocation.
    Policy(PolicyError),
    /// A measurement run failed for a reason re-placement cannot fix.
    Run(RunError),
    /// Re-placement kept hitting dead targets until none were left.
    ReplacementExhausted {
        /// Index of the request being admitted when placement ran dry.
        app: usize,
    },
    /// The continuous online engine does not support a configured
    /// feature; use the frozen-oracle mode for it.
    OnlineUnsupported {
        /// The feature that is frozen-only.
        feature: &'static str,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::EmptyStream => write!(f, "arrival stream is empty"),
            SchedError::InvalidArrival { app, arrival_s } => write!(
                f,
                "request {app} has invalid arrival time {arrival_s}s: \
                 arrivals must be finite, non-negative and non-decreasing"
            ),
            SchedError::InvalidRate { rate_per_s } => write!(
                f,
                "arrival rate {rate_per_s}/s is invalid: a Poisson stream \
                 needs a positive finite rate"
            ),
            SchedError::ArrivalBeyondClock { app, arrival_s } => write!(
                f,
                "request {app} arrives at {arrival_s}s, past the simulated \
                 clock's range (about 1.8e10 s)"
            ),
            SchedError::UnsupportedLayout { app } => write!(
                f,
                "request {app} uses a file-per-process layout, which the \
                 scheduler cannot snapshot; use a shared file"
            ),
            SchedError::MixedWorkload { app } => write!(
                f,
                "request {app} differs from request 0 in ppn or access \
                 mode; concurrent applications must share both"
            ),
            SchedError::Unschedulable {
                app,
                nodes,
                available,
            } => write!(
                f,
                "request {app} asks for {nodes} nodes but the platform \
                 has {available}: it can never be admitted"
            ),
            SchedError::Policy(e) => write!(f, "placement policy failed: {e}"),
            SchedError::Run(e) => write!(f, "measurement run failed: {e}"),
            SchedError::ReplacementExhausted { app } => write!(
                f,
                "re-placement for request {app} exhausted the target pool"
            ),
            SchedError::OnlineUnsupported { feature } => write!(
                f,
                "the online engine does not support {feature}; use the \
                 frozen-oracle admission mode"
            ),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Policy(e) => Some(e),
            SchedError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolicyError> for SchedError {
    fn from(e: PolicyError) -> Self {
        SchedError::Policy(e)
    }
}

impl From<RunError> for SchedError {
    fn from(e: RunError) -> Self {
        SchedError::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = SchedError::Unschedulable {
            app: 3,
            nodes: 99,
            available: 32,
        };
        assert!(e.to_string().contains("request 3"));
        assert!(e.to_string().contains("99 nodes"));
        let e = SchedError::Policy(PolicyError::NoTargetsAvailable);
        assert!(e.to_string().contains("no targets available"));
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        use std::error::Error;
        let e = SchedError::Policy(PolicyError::NoTargetsAvailable);
        assert!(e.source().is_some());
        let e = SchedError::EmptyStream;
        assert!(e.source().is_none());
    }
}
