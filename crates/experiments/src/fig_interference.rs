//! Interference at datacenter scale — lesson 7 beyond the testbed.
//!
//! The paper's lesson 7 ("applications suffer from sharing the platform's
//! bandwidth, not from sharing targets per se") was established on a
//! 2-server testbed with two applications. This experiment re-asks the
//! question where it actually matters: 50 concurrent applications on a
//! 100-server × 10-target fleet built with [`cluster::FleetSpec`], behind
//! a non-blocking switch, in three placements:
//!
//! * **packed** — every application pinned inside rack 0, five
//!   applications stacked on each of its ten server links: worst-case
//!   contention, the per-server link is split five ways.
//! * **spread** — applications pinned rack-disjoint (five per rack, one
//!   per server): no two applications share *any* resource, so the fleet
//!   behaves as 50 independent slices and aggregate bandwidth scales
//!   linearly. With a non-blocking switch these slices are disjoint
//!   connected components, exactly what the sharded solver exploits.
//! * **random** — the stock BeeGFS random chooser over all 1000 targets,
//!   driven through the campaign engine with the fleet embedded in the
//!   cell config ([`crate::campaign::CellConfig::with_fleet`]): sparse
//!   collisions put it between the two pinned extremes.
//!
//! The claim under test: interference is a *placement* property — the
//! same 50 applications on the same fleet span a multiple-x aggregate
//! range depending only on how their targets overlap.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{deploy_on, repeat, ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use cluster::{FleetSpec, SwitchPolicy, TargetId};
use ior::{AppSpec, IorConfig, Run};
use serde::{Deserialize, Serialize};
use simcore::units::{Bandwidth, GIB};

/// Storage servers in the fleet.
pub const SERVERS: u32 = 100;
/// Targets per server (1000 targets total).
pub const TARGETS_PER_SERVER: u32 = 10;
/// Racks the servers are grouped into (10 servers each).
pub const RACKS: u32 = 10;
/// Concurrent applications.
pub const APPS: usize = 50;
/// Compute nodes per application (disjoint node sets).
pub const NODES_PER_APP: usize = 2;
/// Stripe width (targets per application).
pub const STRIPE: u32 = 4;
/// Bytes written per application — large enough that the fixed per-run
/// overhead (~0.25 s) does not mask the placement effect.
pub const BYTES: u64 = 4 * GIB;

/// The three cell labels, in presentation order.
pub const LABELS: [&str; 3] = ["packed", "spread", "random"];

/// The datacenter fleet under test: 100 × 10 behind a non-blocking
/// switch, Catalyst-class links, PlaFRIM-class backends and targets.
pub fn fleet_spec() -> FleetSpec {
    FleetSpec::new("datacenter-100x10")
        .servers(SERVERS)
        .targets_per_server(TARGETS_PER_SERVER)
        .racks(RACKS)
        .server_link(Bandwidth::from_mib_per_sec(2400.0))
        .backend(Bandwidth::from_mib_per_sec(4700.0))
        .target_bw(Bandwidth::from_mib_per_sec(1700.0))
        .switch_policy(SwitchPolicy::NonBlocking)
}

/// Pinned target list for application `app` under a placement.
///
/// Both placements give each application the first [`STRIPE`] targets of
/// one server (within-server slices are identical); they differ only in
/// *which* server. `packed` stacks applications 0,10,20,30,40 on rack
/// 0's server 0, and so on — five applications per link. `spread` sends
/// application `app` to rack `app % RACKS`, server `app / RACKS` within
/// the rack — every application alone on its server.
pub fn placement(spec: &FleetSpec, app: usize, packed: bool) -> Vec<TargetId> {
    let racks = spec.rack_count() as usize;
    let (rack, server_in_rack) = if packed {
        (0, app % (SERVERS as usize / racks))
    } else {
        (app % racks, app / racks)
    };
    let rack_targets = spec.rack_targets(rack as u32);
    let base = server_in_rack * TARGETS_PER_SERVER as usize;
    rack_targets[base..base + STRIPE as usize].to_vec()
}

/// One cell's pooled results across repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// The cell's label (one of [`LABELS`]).
    pub label: String,
    /// Per-application bandwidths pooled over every repetition, MiB/s.
    pub per_app_mib_s: Vec<f64>,
    /// Equation-1 aggregate bandwidth per repetition, MiB/s.
    pub aggregates: Vec<f64>,
}

impl CellOutcome {
    /// Mean aggregate bandwidth over repetitions.
    pub fn mean_aggregate(&self) -> f64 {
        self.aggregates.iter().sum::<f64>() / self.aggregates.len() as f64
    }

    /// Mean per-application bandwidth over the pool.
    pub fn mean_per_app(&self) -> f64 {
        self.per_app_mib_s.iter().sum::<f64>() / self.per_app_mib_s.len() as f64
    }
}

/// The experiment's data: one outcome per cell, in [`LABELS`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigInterference {
    /// Per-cell pooled outcomes.
    pub cells: Vec<CellOutcome>,
}

impl FigInterference {
    /// Look up one cell's outcome.
    ///
    /// # Panics
    /// Panics if the label was not part of the run.
    pub fn cell(&self, label: &str) -> &CellOutcome {
        self.cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("cell `{label}` not in the run"))
    }
}

/// The application template every cell shares.
fn ior_config() -> IorConfig {
    IorConfig::paper_default(NODES_PER_APP).with_total_bytes(BYTES)
}

/// Run one pinned-placement cell through the plain `repeat` harness.
fn pinned_cell(ctx: &ExpCtx, label: &str, packed: bool) -> CellOutcome {
    let spec = fleet_spec();
    let factory = ctx.rng_factory("fig_interference");
    let cfg = ior_config();
    let runs = repeat(&factory, label, ctx.reps, |rng, _| {
        let platform = spec.build().expect("interference fleet is valid");
        let mut fs = deploy_on(platform, STRIPE, ChooserKind::Random);
        let mut run = Run::new(&mut fs);
        for app in 0..APPS {
            run = run.app(AppSpec::pinned(cfg, placement(&spec, app, packed)));
        }
        let (out, _telemetry) = run.execute(rng).expect("interference run failed");
        (
            out.apps
                .iter()
                .map(|a| a.bandwidth.mib_per_sec())
                .collect::<Vec<_>>(),
            out.aggregate.mib_per_sec(),
        )
    });
    let mut per_app = Vec::with_capacity(ctx.reps * APPS);
    let mut aggregates = Vec::with_capacity(ctx.reps);
    for (apps, agg) in runs {
        per_app.extend(apps);
        aggregates.push(agg);
    }
    CellOutcome {
        label: label.to_string(),
        per_app_mib_s: per_app,
        aggregates,
    }
}

/// The random-chooser campaign: one cell, the fleet riding in the cell
/// config so the cache key captures it.
pub fn campaign(ctx: &ExpCtx) -> Campaign {
    let config = CellConfig::new(
        // Nominal tag only — the fleet below overrides the platform.
        Scenario::S2Omnipath,
        STRIPE,
        ChooserKind::Random,
        ior_config(),
    )
    .with_apps(APPS as u32)
    .with_fleet(fleet_spec());
    Campaign::new("fig_interference", ctx.seed).cell("random", config, ctx.reps)
}

/// Run the experiment on an engine (the `random` cell is cached when the
/// engine has a store; the pinned cells run uncached).
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<FigInterference, CampaignError> {
    let packed = pinned_cell(ctx, "packed", true);
    let spread = pinned_cell(ctx, "spread", false);
    let outcome = engine.run(&campaign(ctx))?;
    let cell = &outcome.cells[0];
    let random = CellOutcome {
        label: "random".to_string(),
        per_app_mib_s: cell
            .reps
            .iter()
            .flat_map(|r| r.apps.iter().map(|a| a.mib_s))
            .collect(),
        aggregates: cell.reps.iter().map(|r| r.aggregate_mib_s).collect(),
    };
    Ok(FigInterference {
        cells: vec![packed, spread, random],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_are_shaped_as_documented() {
        let spec = fleet_spec();
        // spread: 50 distinct servers, no target shared.
        let mut all: Vec<TargetId> = (0..APPS).flat_map(|a| placement(&spec, a, false)).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), APPS * STRIPE as usize, "spread must be disjoint");
        // packed: everything inside rack 0 (targets 0..100), five apps
        // per server slice.
        let packed: Vec<TargetId> = (0..APPS).flat_map(|a| placement(&spec, a, true)).collect();
        assert!(packed.iter().all(|t| t.index() < 100));
        let mut uniq = packed.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 10 * STRIPE as usize, "ten shared slices");
    }

    #[test]
    fn placement_decides_interference_at_fleet_scale() {
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(2)).unwrap();
        assert_eq!(fig.cells.len(), 3);
        for c in &fig.cells {
            assert_eq!(c.aggregates.len(), 2, "{}", c.label);
            assert_eq!(c.per_app_mib_s.len(), 2 * APPS, "{}", c.label);
            assert!(c.mean_aggregate() > 0.0, "{}", c.label);
        }
        let packed = fig.cell("packed").mean_aggregate();
        let spread = fig.cell("spread").mean_aggregate();
        let random = fig.cell("random").mean_aggregate();
        // Rack-disjoint placement must dwarf the packed rack: five
        // applications share each packed link, none share a spread one.
        assert!(
            spread > 3.0 * packed,
            "spread {spread} not >> packed {packed}"
        );
        // The stock random chooser lands between the extremes.
        assert!(
            random > packed && random <= spread * 1.05,
            "random {random} outside ({packed}, {spread}]"
        );
    }
}
