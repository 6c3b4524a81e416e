//! Figure 9 — the drain diagram, simulated rather than sketched.
//!
//! The paper illustrates (schematically) why balance matters in the
//! network-bound scenario: writing 32 GiB over two targets, a `(0,2)`
//! allocation drives *one* server link at capacity `B` for time `T`,
//! while `(1,1)` drives *both* links at `B` and finishes in `T/2`. The
//! simulator reproduces the diagram as an actual measured timeline of
//! per-server-link throughput (noise disabled, like the sketch).

use crate::context::Scenario;
use beegfs_core::{plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, StripePattern};
use cluster::{Fabric, FabricNoise, TargetId};
use ior::{write_plan, IorConfig};
use serde::{Deserialize, Serialize};
use simcore::flow::FluidSim;
use simcore::time::SimTime;

/// A piecewise-constant per-link throughput timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainTimeline {
    /// The allocation's `(min,max)` label.
    pub allocation: String,
    /// `(time_s, [link0 MiB/s, link1 MiB/s])` samples at each rate change.
    pub samples: Vec<(f64, Vec<f64>)>,
    /// Completion time of the whole write, seconds.
    pub makespan_s: f64,
}

/// Both panels of the figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09 {
    /// The unbalanced `(0,2)` case.
    pub unbalanced: DrainTimeline,
    /// The balanced `(1,1)` case.
    pub balanced: DrainTimeline,
}

fn drain(selection: Vec<TargetId>) -> DrainTimeline {
    let scenario = Scenario::S1Ethernet;
    let platform = scenario.platform();
    let mut fs = BeeGfs::new(
        platform.clone(),
        DirConfig {
            pattern: StripePattern::new(2, 512 * 1024),
            chooser: ChooserKind::RoundRobin,
        },
        plafrim_registration_order(),
    );
    let (file, _) = fs
        .create_file_on(selection)
        .expect("valid pinned selection");
    let allocation = beegfs_core::Allocation::classify(&platform, &file.targets).label();

    // Noise-free fabric, 8 nodes x 8 ppn as in Fig. 6a.
    let cfg = IorConfig::paper_default(8);
    let noise = FabricNoise::none(&platform);
    let fabric = Fabric::build(&platform, cfg.nodes, cfg.ppn, &noise);
    let links = [
        fabric.paths().server_link_resource(0).index() as u32,
        fabric.paths().server_link_resource(1).index() as u32,
    ];
    let (net, paths) = fabric.into_parts();
    let mut timeline = obs::Timeline::new();
    let mut sim = FluidSim::new(net);
    sim.set_recorder(&mut timeline);

    let nodes: Vec<usize> = (0..cfg.nodes).collect();
    let files = std::slice::from_ref(&file);
    for f in write_plan(&cfg, files, &nodes, &platform.compute) {
        sim.start_weighted_flow_at(
            SimTime::ZERO,
            paths.write_path(f.node, f.target),
            f.bytes as f64,
            f.process as u64,
            f.weight,
        );
    }
    let done = sim.run_to_completion();
    let makespan_s = done.last().expect("flows complete").time.as_secs_f64();
    drop(sim);
    let samples = timeline
        .series(&links)
        .iter()
        .map(|(t, loads)| {
            (
                *t as f64 / 1e9,
                loads
                    .iter()
                    .map(|b| (b / (1 << 20) as f64).max(0.0))
                    .collect(),
            )
        })
        .collect();
    DrainTimeline {
        allocation,
        samples,
        makespan_s,
    }
}

/// Run both panels.
pub fn run() -> Fig09 {
    Fig09 {
        // (0,2): both targets on the second server.
        unbalanced: drain(vec![TargetId(4), TargetId(5)]),
        // (1,1): one target on each server.
        balanced: drain(vec![TargetId(0), TargetId(4)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_halves_the_makespan() {
        let fig = run();
        assert_eq!(fig.unbalanced.allocation, "(0,2)");
        assert_eq!(fig.balanced.allocation, "(1,1)");
        let ratio = fig.unbalanced.makespan_s / fig.balanced.makespan_s;
        assert!(
            (1.9..2.1).contains(&ratio),
            "makespan ratio {ratio} (paper sketch: exactly 2)"
        );
    }

    #[test]
    fn unbalanced_uses_one_link_balanced_uses_both() {
        // Samples are change-only, so inspect every row where either
        // link carries traffic rather than indexing a midpoint.
        let fig = run();
        let busy: Vec<_> = fig
            .unbalanced
            .samples
            .iter()
            .filter(|(_, l)| l.iter().any(|&x| x > 0.0))
            .collect();
        assert!(!busy.is_empty(), "no busy samples: {:?}", fig.unbalanced);
        for (t, l) in &busy {
            assert!(l[0] < 1.0, "link0 should idle at t={t}: {l:?}");
            assert!(l[1] > 1000.0, "link1 should be saturated at t={t}: {l:?}");
        }
        // The balanced case loads both at the link rate.
        let busy: Vec<_> = fig
            .balanced
            .samples
            .iter()
            .filter(|(_, l)| l.iter().any(|&x| x > 0.0))
            .collect();
        assert!(!busy.is_empty(), "no busy samples: {:?}", fig.balanced);
        for (t, l) in &busy {
            assert!(l[0] > 1000.0 && l[1] > 1000.0, "t={t}: {l:?}");
        }
    }

    #[test]
    fn both_links_run_at_capacity_when_loaded() {
        let fig = run();
        let link_mibs = Scenario::S1Ethernet
            .platform()
            .network
            .server_link
            .mib_per_sec();
        for (_, loads) in &fig.balanced.samples {
            for &l in loads {
                assert!(l <= link_mibs * 1.001, "load {l} above capacity");
            }
        }
    }
}
