//! Calibrated platform presets.
//!
//! The structural layout (node/server/target counts, device types) comes
//! straight from the paper's §III-A; the calibration constants (effective
//! link rates, injection caps, queue-depth curves, noise sigmas) were
//! fitted so the simulator reproduces the *shape* of every figure — the
//! paper-vs-measured comparison is tabulated in EXPERIMENTS.md.
//!
//! Each preset is a thin [`FleetSpec`] instance; `tests/preset_golden.rs`
//! pins their JSON byte-identical to the original hand-rolled `Platform`
//! literals, so cache keys and committed results are unaffected by the
//! builder migration.

use crate::fleet::FleetSpec;
use crate::spec::Platform;
use simcore::units::Bandwidth;
use storage::raid::Raid6Array;
use storage::{HddModel, OstProfile, VariabilityModel};

/// Queue depth at which a PlaFRIM OST reaches half its peak throughput.
///
/// Calibrated so Scenario 2 needs ~16 compute nodes to plateau with the
/// default stripe count of 4 (paper Fig. 4b) and so higher stripe counts
/// need even more nodes (paper Fig. 11).
const PLAFRIM_OST_Q_HALF: f64 = 24.0;

/// Per-OSS backend ceiling (controller + PCIe + kernel block layer).
///
/// Calibrated against the paper's Scenario 2 peak: with all 8 targets the
/// mean bandwidth is ~8 GiB/s with maxima near 9 GiB/s (Fig. 6b), i.e.
/// ~2 x 4.7 GiB/s per server before noise drag.
const PLAFRIM_BACKEND_MIB_S: f64 = 4700.0;

/// Storage-device run-to-run variability (Scenario 2's spread, Fig. 6b:
/// sd grows from ~140 MiB/s at 1 OST to ~790 MiB/s at 8 OSTs).
const PLAFRIM_STORAGE_NOISE: VariabilityModel = VariabilityModel {
    system_sigma: 0.055,
    device_sigma: 0.065,
};

/// The storage side both PlaFRIM scenarios share: 2 OSS x 4 RAID-6 OSTs.
fn plafrim_storage(spec: FleetSpec) -> FleetSpec {
    spec.servers(2)
        .targets_per_server(4)
        .backend(Bandwidth::from_mib_per_sec(PLAFRIM_BACKEND_MIB_S))
        .ost_profile(OstProfile::new(
            Raid6Array::plafrim_ost(),
            PLAFRIM_OST_Q_HALF,
        ))
        .storage_variability(PLAFRIM_STORAGE_NOISE)
}

/// **Scenario 1** — PlaFRIM over 10 Gbit/s Ethernet (Dell S4148F-ON).
///
/// The per-server link (~1.1 GiB/s effective after TCP overheads) is the
/// bottleneck; peak aggregate write bandwidth is therefore ~2.2 GiB/s and
/// is reached only by *balanced* target allocations (paper Fig. 8).
pub fn plafrim_ethernet() -> Platform {
    plafrim_storage(FleetSpec::new("PlaFRIM/Bora 10GbE (scenario 1)"))
        .max_nodes(44)
        .nic(Bandwidth::from_gbit_per_sec(10.0))
        // One Bora node sustains ~880 MiB/s through the TCP stack at
        // 8 ppn (paper Fig. 4a, N=1).
        .node_injection_cap(Bandwidth::from_mib_per_sec(880.0))
        // Non-blocking ToR switch.
        .switch_capacity(Bandwidth::from_gbit_per_sec(960.0))
        // 10 GbE minus protocol overheads: ~1.1 GiB/s usable.
        .server_link(Bandwidth::from_mib_per_sec(1100.0))
        .link_variability(VariabilityModel::new(0.015, 0.012))
        .run_overhead(0.25, 0.45)
        .build()
        .expect("plafrim_ethernet preset is valid")
}

/// **Scenario 2** — PlaFRIM over 100 Gbit/s Omni-Path (Dell H1048-OPF).
///
/// The fabric is far faster than the storage; performance is governed by
/// the RAID-6 targets' concurrency curves and the per-server backends.
pub fn plafrim_omnipath() -> Platform {
    plafrim_storage(FleetSpec::new("PlaFRIM/Bora Omni-Path (scenario 2)"))
        .max_nodes(44)
        .nic(Bandwidth::from_gbit_per_sec(100.0))
        // A single Bora node injects ~1.7 GiB/s through the BeeGFS
        // client over psm2; with noise and per-run overheads the
        // measured single-node mean lands at ~1630 MiB/s (paper
        // Fig. 4b, N=1: ~1631 MiB/s).
        .node_injection_cap(Bandwidth::from_mib_per_sec(1730.0))
        .switch_capacity(Bandwidth::from_gbit_per_sec(4800.0))
        // Omni-Path link to each server: far above the storage.
        .server_link(Bandwidth::from_mib_per_sec(11_000.0))
        .link_variability(VariabilityModel::new(0.008, 0.006))
        .run_overhead(0.22, 0.45)
        .build()
        .expect("plafrim_omnipath preset is valid")
}

/// A 12-server x 2-OST deployment shaped like OLCF/LLNL Catalyst, the
/// system of Chowdhury et al. (ICPP 2019) — 24 targets total.
///
/// Used by the contrast experiment that explains why a *single-node*
/// evaluation hides the stripe-count effect (paper lesson 1): one node's
/// injection cap saturates long before 24 targets do.
pub fn catalyst_like() -> Platform {
    catalyst_like_spec()
        .build()
        .expect("catalyst_like preset is valid")
}

/// The [`FleetSpec`] [`catalyst_like`] builds, for campaign cells that
/// carry their platform as a fleet.
pub fn catalyst_like_spec() -> FleetSpec {
    FleetSpec::new("Catalyst-like 12x2 (Chowdhury et al.)")
        .servers(12)
        .targets_per_server(2)
        .max_nodes(128)
        .nic(Bandwidth::from_gbit_per_sec(56.0))
        .node_injection_cap(Bandwidth::from_mib_per_sec(1400.0))
        .switch_capacity(Bandwidth::from_gbit_per_sec(4800.0))
        .server_link(Bandwidth::from_mib_per_sec(2400.0))
        .link_variability(VariabilityModel::new(0.01, 0.008))
        .backend(Bandwidth::from_mib_per_sec(2000.0))
        // Catalyst's targets answer well even at shallow queue depths
        // (low q_half): a *single* client node saturates its own
        // injection path before any target saturates — which is exactly
        // why Chowdhury et al.'s one-node evaluation saw a flat
        // stripe-count curve.
        .ost_profile(OstProfile::new(
            Raid6Array::new(HddModel::nearline_7200(), 12, 0.90),
            4.0,
        ))
        .storage_variability(VariabilityModel::new(0.04, 0.05))
        .run_overhead(0.25, 0.45)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_network_is_slower_than_storage() {
        let p = plafrim_ethernet();
        // Per-server: link 1100 MiB/s << backend 4400 MiB/s and << the
        // aggregate OST peak of a fully-loaded server.
        let ost_peak: f64 = p.servers[0]
            .osts
            .iter()
            .map(|o| o.peak_write_bandwidth().mib_per_sec())
            .sum();
        assert!(p.network.server_link.mib_per_sec() < ost_peak);
        assert!(p.network.server_link.mib_per_sec() < p.servers[0].backend.cap().mib_per_sec());
    }

    #[test]
    fn scenario2_storage_is_slower_than_network() {
        let p = plafrim_omnipath();
        assert!(p.network.server_link.mib_per_sec() > p.servers[0].backend.cap().mib_per_sec());
    }

    #[test]
    fn scenarios_share_identical_storage() {
        let s1 = plafrim_ethernet();
        let s2 = plafrim_omnipath();
        assert_eq!(s1.servers, s2.servers);
        assert_eq!(s1.total_targets(), 8);
    }

    #[test]
    fn scenario1_aggregate_network_bound() {
        // The paper: aggregated link bandwidth to the two servers is
        // ~2.2-2.5 GiB/s in scenario 1, ~22-25 GiB/s in scenario 2.
        let s1 = plafrim_ethernet();
        let s2 = plafrim_omnipath();
        let agg1 = s1.network.server_link.mib_per_sec() * 2.0;
        let agg2 = s2.network.server_link.mib_per_sec() * 2.0;
        assert!((2000.0..2600.0).contains(&agg1), "agg1 {agg1}");
        assert!(agg2 > 20_000.0, "agg2 {agg2}");
    }

    #[test]
    fn catalyst_has_24_targets_on_12_servers() {
        let p = catalyst_like();
        assert_eq!(p.server_count(), 12);
        assert_eq!(p.total_targets(), 24);
    }

    #[test]
    fn ost_peak_matches_raid_derivation() {
        let p = plafrim_ethernet();
        let ost = &p.servers[0].osts[0];
        assert!((ost.peak_write_bandwidth().mib_per_sec() - 1700.0).abs() < 64.0);
    }

    #[test]
    fn presets_use_constraining_switches() {
        use crate::spec::SwitchPolicy;
        for p in [plafrim_ethernet(), plafrim_omnipath(), catalyst_like()] {
            assert_eq!(p.network.switch_policy, SwitchPolicy::Constraining);
        }
    }
}
