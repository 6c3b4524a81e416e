//! Parameterized fleet construction: the [`FleetSpec`] builder.
//!
//! The paper's testbed is 2 OSS × 4 OST; real deployments span four
//! orders of magnitude in system size. `FleetSpec` is the one validated
//! construction path for a [`Platform`] of *any* size — the bundled
//! presets are thin `FleetSpec` instances (pinned byte-identical to the
//! original hand-rolled literals by `tests/preset_golden.rs`), and
//! datacenter-scale campaigns build 100-server fleets from the same
//! builder:
//!
//! ```
//! use cluster::{FleetSpec, SwitchPolicy};
//! use simcore::units::Bandwidth;
//!
//! let platform = FleetSpec::new("pool-a")
//!     .servers(100)
//!     .targets_per_server(10)
//!     .racks(10)
//!     .max_nodes(400)
//!     .server_link(Bandwidth::from_mib_per_sec(2400.0))
//!     .backend(Bandwidth::from_mib_per_sec(4700.0))
//!     .target_bw(Bandwidth::from_mib_per_sec(1700.0))
//!     .switch_policy(SwitchPolicy::NonBlocking)
//!     .build()
//!     .expect("valid fleet");
//! assert_eq!(platform.total_targets(), 1000);
//! ```
//!
//! A spec is serde-round-trippable, so campaigns can embed one in a cell
//! configuration and have the cache key capture the exact fleet.

use crate::ids::TargetId;
use crate::spec::{ComputeSpec, NetworkSpec, Platform, StorageServerSpec, SwitchPolicy};
use serde::{Deserialize, Serialize};
use simcore::units::Bandwidth;
use storage::raid::Raid6Array;
use storage::{OssBackendProfile, OstProfile, VariabilityModel};

/// Queue depth at which a default-profile target reaches half its peak
/// (the PlaFRIM calibration; override via [`FleetSpec::target_q_half`]).
const DEFAULT_Q_HALF: f64 = 24.0;

/// A fleet description that fails loudly instead of simulating nonsense.
///
/// Returned by [`FleetSpec::build`]; each variant names the offending
/// field and what was wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A required field was never set.
    Missing(&'static str),
    /// A field was set to a value that cannot describe a real fleet.
    Invalid {
        /// The offending builder field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Missing(field) => write!(f, "fleet spec missing required field `{field}`"),
            ConfigError::Invalid { field, reason } => {
                write!(f, "fleet spec field `{field}` invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated, serde-round-trippable builder for [`Platform`]s.
///
/// Every setter is chainable; [`FleetSpec::build`] validates the whole
/// description and returns the platform or a [`ConfigError`] naming the
/// first problem. Unset optional knobs take the documented defaults;
/// unset *required* knobs (`servers`, `targets_per_server`,
/// `server_link`, `backend`, and a target profile) are build errors.
///
/// Fields are declared in JSON order: the name, the knobs that may be
/// unset (each written only when set), then the knobs that always hold
/// a value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    name: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    servers: Option<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    targets_per_server: Option<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    max_nodes: Option<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    node_injection_cap: Option<Bandwidth>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    switch_capacity: Option<Bandwidth>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    server_link: Option<Bandwidth>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    backend: Option<Bandwidth>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    ost_profile: Option<OstProfile>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    target_bw: Option<Bandwidth>,
    racks: u32,
    nic: Bandwidth,
    baseline_ppn: u32,
    intra_node_penalty: f64,
    node_window: f64,
    switch_policy: SwitchPolicy,
    link_variability: VariabilityModel,
    target_q_half: f64,
    storage_variability: VariabilityModel,
    run_overhead_mean_s: f64,
    run_overhead_sigma: f64,
}

impl FleetSpec {
    /// Start a spec. Defaults: 1 rack, 100 Gbit NICs, injection cap =
    /// NIC, baseline 8 ppn with 6% intra-node penalty, node window 32,
    /// constraining switch, no run-to-run noise, 0.25 s / σ 0.45 run
    /// overhead.
    pub fn new(name: impl Into<String>) -> Self {
        FleetSpec {
            name: name.into(),
            servers: None,
            targets_per_server: None,
            racks: 1,
            max_nodes: None,
            nic: Bandwidth::from_gbit_per_sec(100.0),
            node_injection_cap: None,
            baseline_ppn: 8,
            intra_node_penalty: 0.06,
            node_window: 32.0,
            switch_policy: SwitchPolicy::Constraining,
            switch_capacity: None,
            server_link: None,
            link_variability: VariabilityModel::none(),
            backend: None,
            ost_profile: None,
            target_bw: None,
            target_q_half: DEFAULT_Q_HALF,
            storage_variability: VariabilityModel::none(),
            run_overhead_mean_s: 0.25,
            run_overhead_sigma: 0.45,
        }
    }

    /// Number of storage servers (required).
    pub fn servers(mut self, n: u32) -> Self {
        self.servers = Some(n);
        self
    }

    /// OSTs hosted by each server (required).
    pub fn targets_per_server(mut self, k: u32) -> Self {
        self.targets_per_server = Some(k);
        self
    }

    /// Rack grouping: servers are split into `r` equal, contiguous
    /// racks. Purely an addressing convenience ([`FleetSpec::rack_targets`])
    /// for building rack-disjoint workloads; must divide `servers`.
    pub fn racks(mut self, r: u32) -> Self {
        self.racks = r;
        self
    }

    /// Compute nodes in the partition (default: 4 × servers).
    pub fn max_nodes(mut self, n: u32) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Raw NIC speed of each compute node.
    pub fn nic(mut self, bw: Bandwidth) -> Self {
        self.nic = bw;
        self
    }

    /// Client-stack injection ceiling per node (default: the NIC speed).
    pub fn node_injection_cap(mut self, bw: Bandwidth) -> Self {
        self.node_injection_cap = Some(bw);
        self
    }

    /// Process count at which the injection cap was calibrated.
    pub fn baseline_ppn(mut self, ppn: u32) -> Self {
        self.baseline_ppn = ppn;
        self
    }

    /// Fractional cap reduction per `baseline_ppn` extra processes.
    pub fn intra_node_penalty(mut self, p: f64) -> Self {
        self.intra_node_penalty = p;
        self
    }

    /// Outstanding write-back transfers kept in flight per node.
    pub fn node_window(mut self, w: f64) -> Self {
        self.node_window = w;
        self
    }

    /// How the switch participates in flow paths (default: constraining).
    pub fn switch_policy(mut self, policy: SwitchPolicy) -> Self {
        self.switch_policy = policy;
        self
    }

    /// Aggregate switch fabric capacity. Required for a constraining
    /// switch; for a non-blocking one it defaults to 2 × the summed
    /// server links and, when set explicitly, must be at least that.
    pub fn switch_capacity(mut self, bw: Bandwidth) -> Self {
        self.switch_capacity = Some(bw);
        self
    }

    /// Effective switch-to-server link capacity (required).
    pub fn server_link(mut self, bw: Bandwidth) -> Self {
        self.server_link = Some(bw);
        self
    }

    /// Run-to-run variability of the server links.
    pub fn link_variability(mut self, v: VariabilityModel) -> Self {
        self.link_variability = v;
        self
    }

    /// Per-server backend (controller/PCIe/kernel) ceiling (required).
    pub fn backend(mut self, bw: Bandwidth) -> Self {
        self.backend = Some(bw);
        self
    }

    /// Full storage-target profile, replicated on every server. Required
    /// unless [`FleetSpec::target_bw`] provides the shorthand.
    pub fn ost_profile(mut self, profile: OstProfile) -> Self {
        self.ost_profile = Some(profile);
        self
    }

    /// Shorthand target description: a PlaFRIM-shaped RAID-6 target with
    /// its peak overridden to `bw` (see [`OstProfile::with_peak`]) and
    /// the half-saturation depth from [`FleetSpec::target_q_half`].
    pub fn target_bw(mut self, bw: Bandwidth) -> Self {
        self.target_bw = Some(bw);
        self
    }

    /// Queue depth at which a [`FleetSpec::target_bw`] target reaches
    /// half its peak (default 24, the PlaFRIM calibration).
    pub fn target_q_half(mut self, q_half: f64) -> Self {
        self.target_q_half = q_half;
        self
    }

    /// Run-to-run variability of the storage devices and backends.
    pub fn storage_variability(mut self, v: VariabilityModel) -> Self {
        self.storage_variability = v;
        self
    }

    /// Fixed per-run overhead: lognormal mean (seconds) and sigma.
    pub fn run_overhead(mut self, mean_s: f64, sigma: f64) -> Self {
        self.run_overhead_mean_s = mean_s;
        self.run_overhead_sigma = sigma;
        self
    }

    /// The fleet's name.
    pub fn fleet_name(&self) -> &str {
        &self.name
    }

    /// Number of racks the servers are grouped into.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Flat target ids of one rack, server-major — the disjoint resource
    /// groups behind a non-blocking switch that the solver's component
    /// sharding exploits.
    ///
    /// # Panics
    /// Panics if the rack index is out of range or the spec is missing
    /// its required counts.
    pub fn rack_targets(&self, rack: u32) -> Vec<TargetId> {
        assert!(rack < self.racks, "rack {rack} out of range");
        let servers = self.servers.expect("servers set");
        let per = self.targets_per_server.expect("targets_per_server set");
        let servers_per_rack = servers / self.racks;
        let first = rack * servers_per_rack * per;
        let count = servers_per_rack * per;
        (first..first + count).map(TargetId).collect()
    }

    /// Validate and construct the platform.
    pub fn build(&self) -> Result<Platform, ConfigError> {
        fn positive(field: &'static str, bw: Bandwidth) -> Result<Bandwidth, ConfigError> {
            if bw.bytes_per_sec().is_finite() && bw.bytes_per_sec() > 0.0 {
                Ok(bw)
            } else {
                Err(ConfigError::Invalid {
                    field,
                    reason: format!("must be positive, got {} B/s", bw.bytes_per_sec()),
                })
            }
        }
        let servers = self.servers.ok_or(ConfigError::Missing("servers"))?;
        if servers == 0 {
            return Err(ConfigError::Invalid {
                field: "servers",
                reason: "need at least one storage server".to_string(),
            });
        }
        let per_server = self
            .targets_per_server
            .ok_or(ConfigError::Missing("targets_per_server"))?;
        if per_server == 0 {
            return Err(ConfigError::Invalid {
                field: "targets_per_server",
                reason: "need at least one target per server".to_string(),
            });
        }
        if self.racks == 0 || servers % self.racks != 0 {
            return Err(ConfigError::Invalid {
                field: "racks",
                reason: format!("{} racks cannot evenly split {servers} servers", self.racks),
            });
        }
        let max_nodes = match self.max_nodes {
            Some(0) => {
                return Err(ConfigError::Invalid {
                    field: "max_nodes",
                    reason: "need at least one compute node".to_string(),
                })
            }
            Some(n) => n,
            None => servers.saturating_mul(4),
        };
        let nic = positive("nic", self.nic)?;
        let injection = positive(
            "node_injection_cap",
            self.node_injection_cap.unwrap_or(self.nic),
        )?;
        if self.baseline_ppn == 0 {
            return Err(ConfigError::Invalid {
                field: "baseline_ppn",
                reason: "must be positive".to_string(),
            });
        }
        if !(self.intra_node_penalty.is_finite() && self.intra_node_penalty >= 0.0) {
            return Err(ConfigError::Invalid {
                field: "intra_node_penalty",
                reason: format!(
                    "must be finite and non-negative, got {}",
                    self.intra_node_penalty
                ),
            });
        }
        if !(self.node_window.is_finite() && self.node_window > 0.0) {
            return Err(ConfigError::Invalid {
                field: "node_window",
                reason: format!("must be positive, got {}", self.node_window),
            });
        }
        let server_link = positive(
            "server_link",
            self.server_link
                .ok_or(ConfigError::Missing("server_link"))?,
        )?;
        // A "non-blocking" switch must actually be non-blocking: enough
        // fabric to run every server link at full tilt with 2x headroom
        // (noise factors hover around 1, fault factors only shrink
        // capacity), otherwise omitting it from paths would change rates.
        let full_tilt =
            Bandwidth::from_bytes_per_sec(server_link.bytes_per_sec() * f64::from(servers) * 2.0);
        let switch_capacity = match (self.switch_policy, self.switch_capacity) {
            (SwitchPolicy::Constraining, Some(bw)) => positive("switch_capacity", bw)?,
            (SwitchPolicy::Constraining, None) => {
                return Err(ConfigError::Missing("switch_capacity"))
            }
            (SwitchPolicy::NonBlocking, None) => full_tilt,
            (SwitchPolicy::NonBlocking, Some(bw)) => {
                let bw = positive("switch_capacity", bw)?;
                if bw.bytes_per_sec() < full_tilt.bytes_per_sec() {
                    return Err(ConfigError::Invalid {
                        field: "switch_capacity",
                        reason: format!(
                            "a non-blocking switch needs >= 2 x the summed server links \
                             ({:.0} B/s), got {:.0} B/s",
                            full_tilt.bytes_per_sec(),
                            bw.bytes_per_sec()
                        ),
                    });
                }
                bw
            }
        };
        let backend = positive(
            "backend",
            self.backend.ok_or(ConfigError::Missing("backend"))?,
        )?;
        let ost = match (&self.ost_profile, self.target_bw) {
            (Some(profile), None) => profile.clone(),
            (None, Some(bw)) => {
                let bw = positive("target_bw", bw)?;
                if !(self.target_q_half.is_finite() && self.target_q_half > 0.0) {
                    return Err(ConfigError::Invalid {
                        field: "target_q_half",
                        reason: format!("must be positive, got {}", self.target_q_half),
                    });
                }
                OstProfile::new(Raid6Array::plafrim_ost(), self.target_q_half).with_peak(bw)
            }
            (Some(_), Some(_)) => {
                return Err(ConfigError::Invalid {
                    field: "target_bw",
                    reason: "set either ost_profile or target_bw, not both".to_string(),
                })
            }
            (None, None) => return Err(ConfigError::Missing("ost_profile/target_bw")),
        };
        if !(self.run_overhead_mean_s.is_finite() && self.run_overhead_mean_s >= 0.0) {
            return Err(ConfigError::Invalid {
                field: "run_overhead",
                reason: format!(
                    "mean must be non-negative, got {}",
                    self.run_overhead_mean_s
                ),
            });
        }
        if !(self.run_overhead_sigma.is_finite() && self.run_overhead_sigma >= 0.0) {
            return Err(ConfigError::Invalid {
                field: "run_overhead",
                reason: format!(
                    "sigma must be non-negative, got {}",
                    self.run_overhead_sigma
                ),
            });
        }

        Ok(Platform {
            name: self.name.clone(),
            compute: ComputeSpec {
                max_nodes: max_nodes as usize,
                nic,
                node_injection_cap: injection,
                baseline_ppn: self.baseline_ppn,
                intra_node_penalty: self.intra_node_penalty,
                node_window: self.node_window,
            },
            network: NetworkSpec {
                switch_capacity,
                server_link,
                link_variability: self.link_variability,
                switch_policy: self.switch_policy,
            },
            servers: (0..servers)
                .map(|_| StorageServerSpec {
                    backend: OssBackendProfile::new(backend),
                    osts: (0..per_server).map(|_| ost.clone()).collect(),
                })
                .collect(),
            storage_variability: self.storage_variability,
            run_overhead_mean_s: self.run_overhead_mean_s,
            run_overhead_sigma: self.run_overhead_sigma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> FleetSpec {
        FleetSpec::new("t")
            .servers(4)
            .targets_per_server(2)
            .server_link(Bandwidth::from_mib_per_sec(1000.0))
            .backend(Bandwidth::from_mib_per_sec(2000.0))
            .target_bw(Bandwidth::from_mib_per_sec(800.0))
            .switch_capacity(Bandwidth::from_gbit_per_sec(100.0))
    }

    #[test]
    fn minimal_spec_builds() {
        let p = minimal().build().expect("valid");
        assert_eq!(p.server_count(), 4);
        assert_eq!(p.total_targets(), 8);
        assert_eq!(p.compute.max_nodes, 16, "default is 4x servers");
        p.validate();
    }

    #[test]
    fn missing_required_fields_are_named() {
        let e = FleetSpec::new("t").build().unwrap_err();
        assert_eq!(e, ConfigError::Missing("servers"));
        let e = FleetSpec::new("t").servers(1).build().unwrap_err();
        assert_eq!(e, ConfigError::Missing("targets_per_server"));
        let msg = minimal().servers(0).build().unwrap_err().to_string();
        assert!(msg.contains("servers"), "{msg}");
    }

    #[test]
    fn racks_must_divide_servers() {
        assert!(minimal().racks(2).build().is_ok());
        let e = minimal().racks(3).build().unwrap_err();
        assert!(matches!(e, ConfigError::Invalid { field: "racks", .. }));
    }

    #[test]
    fn rack_targets_partition_the_fleet() {
        let spec = minimal().racks(2);
        let a = spec.rack_targets(0);
        let b = spec.rack_targets(1);
        assert_eq!(a, (0..4).map(TargetId).collect::<Vec<_>>());
        assert_eq!(b, (4..8).map(TargetId).collect::<Vec<_>>());
    }

    #[test]
    fn nonblocking_switch_autosizes_and_validates() {
        let spec = minimal().switch_policy(SwitchPolicy::NonBlocking);
        // Auto-sized: 2 x 4 links of 1000 MiB/s.
        let p = FleetSpec {
            switch_capacity: None,
            ..spec.clone()
        }
        .build()
        .expect("auto-sized non-blocking switch");
        assert_eq!(p.network.switch_capacity.mib_per_sec().round() as u64, 8000);
        // An explicit undersized fabric is rejected.
        let e = spec
            .switch_capacity(Bandwidth::from_mib_per_sec(1000.0))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                e,
                ConfigError::Invalid {
                    field: "switch_capacity",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn profile_and_shorthand_are_mutually_exclusive() {
        let e = minimal()
            .ost_profile(OstProfile::new(Raid6Array::plafrim_ost(), 24.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            ConfigError::Invalid {
                field: "target_bw",
                ..
            }
        ));
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        for spec in [
            minimal(),
            minimal()
                .racks(4)
                .switch_policy(SwitchPolicy::NonBlocking)
                .storage_variability(VariabilityModel::new(0.05, 0.06)),
            FleetSpec::new("sparse"),
        ] {
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: FleetSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn built_platforms_are_deterministic() {
        let a = minimal().build().unwrap();
        let b = minimal().build().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
