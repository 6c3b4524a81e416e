//! Platform description types.

use crate::ids::{ServerId, TargetId};
use serde::{Deserialize, Serialize};
use simcore::units::Bandwidth;
use storage::{OssBackendProfile, OstProfile, VariabilityModel};

/// The compute (client) side of the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeSpec {
    /// Nodes available in the partition.
    pub max_nodes: usize,
    /// Raw NIC speed of each node.
    pub nic: Bandwidth,
    /// Effective client-stack injection ceiling per node at the baseline
    /// process count (TCP/IP or psm2 overheads keep this below `nic`).
    pub node_injection_cap: Bandwidth,
    /// Process count at which `node_injection_cap` was calibrated.
    pub baseline_ppn: u32,
    /// Fractional cap reduction per `baseline_ppn` extra processes —
    /// intra-node contention (paper §IV-B: 16 ppn shows a *slight*
    /// degradation vs 8 ppn). `cap_eff = cap / (1 + penalty * excess)`
    /// where `excess = max(0, ppn - baseline) / baseline`.
    pub intra_node_penalty: f64,
    /// Outstanding write-back transfers the BeeGFS client keeps in flight
    /// *per node* (dirty-page/write-behind window). This is divided among
    /// the node's processes and their stripe targets, and drives the
    /// queue depth seen by each storage device — the mechanism behind
    /// "more OSTs require more compute nodes" (paper lesson 6).
    pub node_window: f64,
}

impl ComputeSpec {
    /// Effective injection cap at `ppn` processes per node.
    ///
    /// # Panics
    /// Panics if `ppn == 0`.
    pub fn injection_cap(&self, ppn: u32) -> Bandwidth {
        assert!(ppn > 0, "ppn must be positive");
        let excess =
            f64::from(ppn.saturating_sub(self.baseline_ppn)) / f64::from(self.baseline_ppn);
        self.node_injection_cap * (1.0 / (1.0 + self.intra_node_penalty * excess))
    }

    /// Queue-depth weight contributed by one (process, target) flow when
    /// the node runs `ppn` processes striping over `stripe_count` targets:
    /// the node window is split evenly.
    ///
    /// # Panics
    /// Panics if `ppn == 0` or `stripe_count == 0`.
    pub fn flow_depth_weight(&self, ppn: u32, stripe_count: u32) -> f64 {
        assert!(
            ppn > 0 && stripe_count > 0,
            "ppn and stripe_count must be positive"
        );
        self.node_window / (f64::from(ppn) * f64::from(stripe_count))
    }
}

/// How the switch fabric participates in the flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SwitchPolicy {
    /// The switch is a shared resource every write crosses. The default,
    /// and the historical behaviour: pathological configurations can
    /// expose an undersized fabric.
    #[default]
    Constraining,
    /// The switch is provably never the bottleneck (validated by
    /// [`crate::FleetSpec::build`]: fabric capacity covers every server
    /// link at full tilt with headroom), so it is omitted from write
    /// paths. Flows against disjoint server groups then share *no*
    /// resource, which is what lets the solver's connected-component
    /// sharding keep datacenter-scale fleets cheap — and it is exact,
    /// not an approximation, precisely because the omitted resource
    /// could never have constrained a rate.
    NonBlocking,
}

/// The network between nodes and storage servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Aggregate switch fabric capacity (non-blocking in both PlaFRIM
    /// setups, so presets use a generous value; it still participates so
    /// pathological configurations can expose it).
    pub switch_capacity: Bandwidth,
    /// Effective capacity of the link between the switch and each storage
    /// server (protocol efficiency already applied).
    pub server_link: Bandwidth,
    /// Run-to-run variability of the server links (system + per-link).
    pub link_variability: VariabilityModel,
    /// Whether the switch constrains flows or is provably out of the way.
    /// Left out of the JSON when constraining, so platforms predating the
    /// field (golden fixtures, cache keys, stored results) keep
    /// byte-identical JSON and old payloads still load.
    #[serde(default, skip_serializing_if = "is_constraining")]
    pub switch_policy: SwitchPolicy,
}

/// Whether [`NetworkSpec::switch_policy`] is left out of the JSON.
fn is_constraining(policy: &SwitchPolicy) -> bool {
    *policy == SwitchPolicy::Constraining
}

/// One storage server: an OSS host with its backend and targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageServerSpec {
    /// Shared backend (controller/PCIe/kernel) ceiling.
    pub backend: OssBackendProfile,
    /// The OSTs hosted by this server, in slot order.
    pub osts: Vec<OstProfile>,
}

/// A complete platform description.
///
/// Marked `#[non_exhaustive]`: code outside this crate cannot build one
/// field-by-field. Construction routes through [`crate::FleetSpec`]
/// (parameterized fleets and all bundled presets) or deserialization,
/// both of which validate what a struct literal would not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Platform {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Client side.
    pub compute: ComputeSpec,
    /// Network side.
    pub network: NetworkSpec,
    /// Storage servers in id order.
    pub servers: Vec<StorageServerSpec>,
    /// Run-to-run variability of the storage devices (system + per-OST).
    pub storage_variability: VariabilityModel,
    /// Mean fixed per-run overhead (file create, open RPCs, barrier,
    /// close/flush), in seconds. Dominates small-transfer runs — the
    /// data-size effect of paper Fig. 2.
    pub run_overhead_mean_s: f64,
    /// Lognormal sigma of the run overhead.
    pub run_overhead_sigma: f64,
}

impl Platform {
    /// Total number of OSTs across all servers.
    pub fn total_targets(&self) -> usize {
        self.servers.iter().map(|s| s.osts.len()).sum()
    }

    /// Number of storage servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The server owning a (flat) target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn server_of(&self, t: TargetId) -> ServerId {
        let mut idx = t.index();
        for (s, server) in self.servers.iter().enumerate() {
            if idx < server.osts.len() {
                return ServerId(s as u32);
            }
            idx -= server.osts.len();
        }
        panic!("target {t} out of range for platform {}", self.name);
    }

    /// The within-server slot of a (flat) target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn slot_of(&self, t: TargetId) -> u32 {
        let mut idx = t.index();
        for server in &self.servers {
            if idx < server.osts.len() {
                return idx as u32;
            }
            idx -= server.osts.len();
        }
        panic!("target {t} out of range for platform {}", self.name);
    }

    /// All target ids of one server.
    pub fn targets_of(&self, s: ServerId) -> Vec<TargetId> {
        let mut base = 0usize;
        for (i, server) in self.servers.iter().enumerate() {
            if i == s.index() {
                return (0..server.osts.len())
                    .map(|j| TargetId((base + j) as u32))
                    .collect();
            }
            base += server.osts.len();
        }
        panic!("server {s} out of range for platform {}", self.name);
    }

    /// All target ids, flat order (server-major).
    pub fn all_targets(&self) -> Vec<TargetId> {
        (0..self.total_targets())
            .map(|i| TargetId(i as u32))
            .collect()
    }

    /// The OST profile behind a target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn ost_profile(&self, t: TargetId) -> &OstProfile {
        let s = self.server_of(t);
        let slot = self.slot_of(t) as usize;
        &self.servers[s.index()].osts[slot]
    }

    /// Count targets per server for a selection — the paper's
    /// `(|S_1|, ..., |S_m|)` vector (before min/max reduction).
    pub fn per_server_counts(&self, selection: &[TargetId]) -> Vec<usize> {
        let mut counts = vec![0usize; self.server_count()];
        for &t in selection {
            counts[self.server_of(t).index()] += 1;
        }
        counts
    }

    /// Basic structural validation (non-empty servers, target presence).
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        assert!(self.compute.max_nodes > 0, "platform has no compute nodes");
        assert!(!self.servers.is_empty(), "platform has no storage servers");
        for (i, s) in self.servers.iter().enumerate() {
            assert!(!s.osts.is_empty(), "server {i} has no OSTs");
        }
        assert!(
            self.run_overhead_mean_s >= 0.0 && self.run_overhead_mean_s.is_finite(),
            "invalid run overhead"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn negative_or_infinite_bandwidths_do_not_deserialize() {
        assert!(serde_json::from_str::<Bandwidth>("-1.0").is_err());
        assert!(serde_json::from_str::<Bandwidth>("1e999").is_err());
        assert_eq!(
            serde_json::from_str::<Bandwidth>("2.5").unwrap(),
            Bandwidth::from_bytes_per_sec(2.5)
        );
        let json = serde_json::to_string(&presets::plafrim_ethernet()).unwrap();
        assert!(serde_json::from_str::<Platform>(&json).is_ok());
        let negative = json.replacen("\"server_link\":", "\"server_link\":-", 1);
        assert_ne!(negative, json);
        assert!(serde_json::from_str::<Platform>(&negative).is_err());
    }

    #[test]
    fn injection_cap_constant_up_to_baseline() {
        let p = presets::plafrim_ethernet();
        let c8 = p.compute.injection_cap(8);
        let c4 = p.compute.injection_cap(4);
        assert_eq!(c8.bytes_per_sec(), c4.bytes_per_sec());
    }

    #[test]
    fn injection_cap_degrades_slightly_beyond_baseline() {
        let p = presets::plafrim_omnipath();
        let c8 = p.compute.injection_cap(8);
        let c16 = p.compute.injection_cap(16);
        assert!(c16.bytes_per_sec() < c8.bytes_per_sec());
        // "slight" degradation: less than 15%.
        assert!(c16.bytes_per_sec() > 0.85 * c8.bytes_per_sec());
    }

    #[test]
    fn flow_depth_weight_is_node_window_split() {
        let p = presets::plafrim_ethernet();
        let w = p.compute.flow_depth_weight(8, 4);
        assert!((w - p.compute.node_window / 32.0).abs() < 1e-12);
        // ppn does not change the per-node total weight over all flows:
        // ppn * stripe * weight == node_window.
        for ppn in [1u32, 8, 16, 36] {
            for s in [1u32, 4, 8] {
                let total = f64::from(ppn) * f64::from(s) * p.compute.flow_depth_weight(ppn, s);
                assert!((total - p.compute.node_window).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn server_target_mapping_roundtrips() {
        let p = presets::plafrim_ethernet();
        assert_eq!(p.total_targets(), 8);
        assert_eq!(p.server_count(), 2);
        for t in p.all_targets() {
            let s = p.server_of(t);
            let slot = p.slot_of(t);
            assert!(p.targets_of(s).contains(&t));
            assert!(slot < 4);
        }
        assert_eq!(p.server_of(TargetId(0)), ServerId(0));
        assert_eq!(p.server_of(TargetId(3)), ServerId(0));
        assert_eq!(p.server_of(TargetId(4)), ServerId(1));
        assert_eq!(p.server_of(TargetId(7)), ServerId(1));
    }

    #[test]
    fn per_server_counts_classify_selections() {
        let p = presets::plafrim_ethernet();
        let sel = vec![TargetId(0), TargetId(4), TargetId(5), TargetId(6)];
        assert_eq!(p.per_server_counts(&sel), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let p = presets::plafrim_ethernet();
        let _ = p.server_of(TargetId(99));
    }

    #[test]
    fn presets_validate() {
        presets::plafrim_ethernet().validate();
        presets::plafrim_omnipath().validate();
        presets::catalyst_like().validate();
    }
}
