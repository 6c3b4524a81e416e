//! Instantiating a [`Platform`] as flow-network resources.
//!
//! A [`Fabric`] is built once per simulated run. It creates one resource
//! per node injection cap, node NIC, the switch, each server link, each
//! server backend and each OST, applies the run's sampled noise factors,
//! and answers path queries: the resource chain a write from node `n` to
//! target `t` crosses.

use crate::ids::TargetId;
use crate::spec::Platform;
use simcore::flow::{FlowNetwork, ResourceId};
use simcore::rng::StreamRng;
use storage::noise::RunFactors;
use storage::AccessMode;

/// Per-run noise sampled for a fabric.
#[derive(Debug, Clone)]
pub struct FabricNoise {
    /// Factors for the server links (indexed by server).
    pub link: RunFactors,
    /// Factors for the OSTs (indexed by flat target id).
    pub storage: RunFactors,
    /// Factors for the OSS backends (indexed by server) — the RAID
    /// controller/PCIe path varies with the same storage-stack noise as
    /// the devices behind it, which is what lets the run-to-run spread
    /// keep growing with the stripe count even once the backend is the
    /// binding resource (paper Fig. 6b: sd rises ~140 -> ~790 MiB/s).
    pub backend: RunFactors,
}

impl FabricNoise {
    /// Sample the run's noise from the platform's variability models.
    pub fn sample(platform: &Platform, rng: &mut StreamRng) -> Self {
        FabricNoise {
            link: platform
                .network
                .link_variability
                .sample(platform.server_count(), rng),
            storage: platform
                .storage_variability
                .sample(platform.total_targets(), rng),
            backend: platform
                .storage_variability
                .sample(platform.server_count(), rng),
        }
    }

    /// Noise-free factors (deterministic runs, analytic cross-validation).
    pub fn none(platform: &Platform) -> Self {
        FabricNoise {
            link: storage::VariabilityModel::none()
                .sample(platform.server_count(), &mut dummy_rng()),
            storage: storage::VariabilityModel::none()
                .sample(platform.total_targets(), &mut dummy_rng()),
            backend: storage::VariabilityModel::none()
                .sample(platform.server_count(), &mut dummy_rng()),
        }
    }
}

fn dummy_rng() -> StreamRng {
    simcore::rng::RngFactory::new(0).stream("fabric-none", 0)
}

/// The instantiated resource graph for one run: the network plus its
/// path oracle.
#[derive(Debug)]
pub struct Fabric {
    net: FlowNetwork,
    paths: FabricPaths,
}

impl Fabric {
    /// Build the fabric for the write path (the paper's measurements).
    ///
    /// # Panics
    /// As [`Fabric::build_for`].
    pub fn build(platform: &Platform, n_nodes: usize, ppn: u32, noise: &FabricNoise) -> Self {
        Self::build_for(platform, n_nodes, ppn, noise, AccessMode::Write)
    }

    /// Build the fabric for `n_nodes` client nodes each running `ppn`
    /// processes, with the given sampled noise, for a given access mode
    /// (storage targets expose mode-specific throughput profiles).
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero or exceeds the platform partition, or
    /// if `ppn` is zero.
    pub fn build_for(
        platform: &Platform,
        n_nodes: usize,
        ppn: u32,
        noise: &FabricNoise,
        mode: AccessMode,
    ) -> Self {
        assert!(n_nodes > 0, "need at least one compute node");
        assert!(
            n_nodes <= platform.compute.max_nodes,
            "requested {n_nodes} nodes but the partition has {}",
            platform.compute.max_nodes
        );
        assert!(ppn > 0, "need at least one process per node");

        // Size the network once: no label below is longer than eleven
        // bytes of text plus two indices of at most `digits` digits.
        let (servers, targets) = (platform.server_count(), platform.total_targets());
        let resources = 2 * n_nodes + 1 + 2 * servers + targets;
        let widest = n_nodes.max(servers).max(targets);
        let digits = widest.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut net = FlowNetwork::with_capacity(resources, resources * (11 + 2 * digits));
        let cap = platform.compute.injection_cap(ppn);

        let node_cap: Vec<ResourceId> = (0..n_nodes)
            .map(|i| net.add_link(format_args!("node{i}.client"), cap))
            .collect();
        let node_nic: Vec<ResourceId> = (0..n_nodes)
            .map(|i| net.add_link(format_args!("node{i}.nic"), platform.compute.nic))
            .collect();
        // The switch resource is always *created* (stable resource ids
        // and counts regardless of policy) but a provably non-blocking
        // fabric is omitted from write paths, so flows against disjoint
        // server groups share no resource and the solver's component
        // sharding can solve them independently.
        let switch = net.add_link("switch", platform.network.switch_capacity);
        let switch_in_path =
            platform.network.switch_policy == crate::spec::SwitchPolicy::Constraining;

        let mut server_link = Vec::with_capacity(servers);
        let mut server_backend = Vec::with_capacity(servers);
        for (s, server) in platform.servers.iter().enumerate() {
            let link = net.add_link(format_args!("oss{s}.link"), platform.network.server_link);
            net.set_factor(link, noise.link.device(s));
            server_link.push(link);
            let backend = net.add_resource(
                format_args!("oss{s}.backend"),
                server.backend.capacity_model(),
            );
            net.set_factor(backend, noise.backend.device(s));
            server_backend.push(backend);
        }

        let mut ost = Vec::with_capacity(targets);
        let mut target_server = Vec::with_capacity(targets);
        let mut flat = 0usize;
        for (s, server) in platform.servers.iter().enumerate() {
            for (slot, profile) in server.osts.iter().enumerate() {
                let r = net.add_resource(
                    format_args!("oss{s}.ost{slot}"),
                    profile.capacity_model_for(mode),
                );
                net.set_factor(r, noise.storage.device(flat));
                ost.push(r);
                target_server.push(s);
                flat += 1;
            }
        }

        Fabric {
            net,
            paths: FabricPaths {
                node_cap,
                node_nic,
                switch,
                switch_in_path,
                server_link,
                server_backend,
                ost,
                target_server,
            },
        }
    }

    /// The path oracle: write paths and resource ids.
    pub fn paths(&self) -> &FabricPaths {
        &self.paths
    }

    /// Number of client nodes in this fabric.
    pub fn node_count(&self) -> usize {
        self.paths.node_cap.len()
    }

    /// Number of storage targets.
    pub fn target_count(&self) -> usize {
        self.paths.ost.len()
    }

    /// Consume the fabric, yielding the network (to seed a `FluidSim`)
    /// and a path oracle that stays valid afterwards.
    pub fn into_parts(self) -> (FlowNetwork, FabricPaths) {
        (self.net, self.paths)
    }

    /// Borrow the underlying network.
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }
}

/// A write path held inline: at most six resources, no allocation.
/// Derefs to `[ResourceId]`, and any flow-starting call takes it as is.
#[derive(Debug, Clone, Copy)]
pub struct WritePath {
    ids: [ResourceId; 6],
    len: u8,
}

impl WritePath {
    fn push(&mut self, r: ResourceId) {
        self.ids[self.len as usize] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for WritePath {
    type Target = [ResourceId];

    fn deref(&self) -> &[ResourceId] {
        &self.ids[..self.len as usize]
    }
}

impl AsRef<[ResourceId]> for WritePath {
    fn as_ref(&self) -> &[ResourceId] {
        self
    }
}

impl PartialEq for WritePath {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for WritePath {}

/// The path oracle of a [`Fabric`]: which resources a write crosses.
/// It outlives the network (see [`Fabric::into_parts`]).
#[derive(Debug, Clone)]
pub struct FabricPaths {
    node_cap: Vec<ResourceId>,
    node_nic: Vec<ResourceId>,
    switch: ResourceId,
    switch_in_path: bool,
    server_link: Vec<ResourceId>,
    server_backend: Vec<ResourceId>,
    ost: Vec<ResourceId>,
    target_server: Vec<usize>,
}

impl FabricPaths {
    /// The resource chain crossed by a write from `node` to `target`.
    /// Six resources on a constraining switch, five when the platform's
    /// switch is [`crate::SwitchPolicy::NonBlocking`].
    ///
    /// # Panics
    /// Panics on out-of-range node or target indices.
    pub fn write_path(&self, node: usize, target: TargetId) -> WritePath {
        let t = target.index();
        assert!(node < self.node_cap.len(), "node {node} out of range");
        assert!(t < self.ost.len(), "target {target} out of range");
        let s = self.target_server[t];
        let mut path = WritePath {
            ids: [self.node_cap[node]; 6],
            len: 1,
        };
        path.push(self.node_nic[node]);
        if self.switch_in_path {
            path.push(self.switch);
        }
        path.push(self.server_link[s]);
        path.push(self.server_backend[s]);
        path.push(self.ost[t]);
        path
    }

    /// The OST resource id of a target.
    pub fn ost_resource(&self, target: TargetId) -> ResourceId {
        self.ost[target.index()]
    }

    /// The link resource id of a server.
    pub fn server_link_resource(&self, server: usize) -> ResourceId {
        self.server_link[server]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use simcore::rng::RngFactory;

    #[test]
    fn fabric_has_expected_resource_count() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let f = Fabric::build(&p, 4, 8, &noise);
        // 4 caps + 4 nics + 1 switch + 2 links + 2 backends + 8 osts = 21.
        assert_eq!(f.network().resource_count(), 21);
        assert_eq!(f.node_count(), 4);
        assert_eq!(f.target_count(), 8);
    }

    #[test]
    fn write_path_crosses_six_resources_in_order() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let f = Fabric::build(&p, 2, 8, &noise);
        let path = f.paths().write_path(1, TargetId(5));
        assert_eq!(path.len(), 6);
        // Target 5 lives on server 1.
        assert_eq!(path[3], f.paths().server_link_resource(1));
        assert_eq!(path[5], f.paths().ost_resource(TargetId(5)));
    }

    #[test]
    fn paths_to_same_server_share_link_and_backend() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let f = Fabric::build(&p, 1, 8, &noise);
        let a = f.paths().write_path(0, TargetId(0));
        let b = f.paths().write_path(0, TargetId(1));
        assert_eq!(a[3], b[3]); // link
        assert_eq!(a[4], b[4]); // backend
        assert_ne!(a[5], b[5]); // distinct OSTs
    }

    #[test]
    fn noise_factors_are_applied_to_resources() {
        let p = presets::plafrim_omnipath();
        let mut rng = RngFactory::new(5).stream("fabric", 0);
        let noise = FabricNoise::sample(&p, &mut rng);
        let f = Fabric::build(&p, 1, 8, &noise);
        let ost0 = f.paths().ost_resource(TargetId(0));
        assert!((f.network().factor(ost0) - noise.storage.device(0)).abs() < 1e-12);
        let link0 = f.paths().server_link_resource(0);
        assert!((f.network().factor(link0) - noise.link.device(0)).abs() < 1e-12);
    }

    #[test]
    fn none_noise_is_unity() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        assert!(noise.storage.per_device.iter().all(|&x| x == 1.0));
        assert_eq!(noise.link.system, 1.0);
    }

    #[test]
    fn into_parts_keeps_paths_consistent() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let f = Fabric::build(&p, 2, 8, &noise);
        let expected = f.paths().write_path(0, TargetId(7));
        let (_net, paths) = f.into_parts();
        assert_eq!(paths.write_path(0, TargetId(7)), expected);
    }

    #[test]
    fn nonblocking_switch_is_created_but_not_in_paths() {
        use crate::fleet::FleetSpec;
        use crate::spec::SwitchPolicy;
        use simcore::units::Bandwidth;
        let p = FleetSpec::new("nb")
            .servers(2)
            .targets_per_server(4)
            .server_link(Bandwidth::from_mib_per_sec(1100.0))
            .backend(Bandwidth::from_mib_per_sec(4700.0))
            .target_bw(Bandwidth::from_mib_per_sec(1700.0))
            .switch_policy(SwitchPolicy::NonBlocking)
            .build()
            .expect("valid");
        let noise = FabricNoise::none(&p);
        let f = Fabric::build(&p, 4, 8, &noise);
        // Same resource count as a constraining fabric of the same shape:
        // the switch resource still exists, ids stay stable.
        assert_eq!(f.network().resource_count(), 21);
        let path = f.paths().write_path(1, TargetId(5));
        assert_eq!(path.len(), 5, "switch omitted from the path");
        assert!(!path.contains(&f.paths().switch));
        assert_eq!(path[2], f.paths().server_link_resource(1));
        let (_net, paths) = f.into_parts();
        assert_eq!(paths.write_path(1, TargetId(5)), path);
    }

    #[test]
    #[should_panic(expected = "partition has")]
    fn too_many_nodes_rejected() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let _ = Fabric::build(&p, 1000, 8, &noise);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_ppn_rejected() {
        let p = presets::plafrim_ethernet();
        let noise = FabricNoise::none(&p);
        let _ = Fabric::build(&p, 1, 0, &noise);
    }
}
