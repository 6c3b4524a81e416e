//! The quantitative "lessons learned" table.
//!
//! Gathers every headline number the paper states in prose, computed
//! from the same simulated experiments that regenerate the figures, so
//! EXPERIMENTS.md can show paper-vs-measured side by side.

use crate::campaign::{CampaignEngine, CampaignError};
use crate::context::{ExpCtx, Scenario};
use crate::{fig04_nodes, fig06_stripe, fig12_concurrent};
use beegfs_core::ChooserKind;
use serde::{Deserialize, Serialize};

/// One paper claim with its measured counterpart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Claim {
    /// Short identifier.
    pub id: String,
    /// What the paper states.
    pub paper: String,
    /// What the simulation measures.
    pub measured: String,
    /// Whether the measured value preserves the claim's direction/shape.
    pub holds: bool,
}

/// The full claims table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lessons {
    /// All claims in paper order.
    pub claims: Vec<Claim>,
}

/// Compute every claim on an engine (runs the underlying experiments;
/// Figs. 4 and 6 come from the engine, so a cached run reads them).
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<Lessons, CampaignError> {
    let mut claims = Vec::new();

    // --- lesson 1: node-count effect ------------------------------------
    let f4a = fig04_nodes::run(engine, ctx, Scenario::S1Ethernet, 8)?;
    let f4b = fig04_nodes::run(engine, ctx, Scenario::S2Omnipath, 8)?;
    let g1 = f4a.gain_to_plateau();
    let g2 = f4b.gain_to_plateau();
    claims.push(Claim {
        id: "L1-s1-gain".into(),
        paper: "S1: ~880 MiB/s at 1 node -> ~1460 MiB/s plateau (+64%)".into(),
        measured: format!(
            "S1: {:.0} MiB/s at 1 node -> {:.0} MiB/s plateau (+{:.0}%)",
            f4a.mean_at(1),
            f4a.points
                .iter()
                .map(|p| p.summary().mean)
                .fold(0.0, f64::max),
            g1 * 100.0
        ),
        holds: (0.3..1.2).contains(&g1) && (700.0..1050.0).contains(&f4a.mean_at(1)),
    });
    claims.push(Claim {
        id: "L1-s2-gain".into(),
        paper: "S2: ~1631 MiB/s at 1 node -> ~6100 MiB/s plateau (+270%)".into(),
        measured: format!(
            "S2: {:.0} MiB/s at 1 node -> {:.0} MiB/s plateau (+{:.0}%)",
            f4b.mean_at(1),
            f4b.points
                .iter()
                .map(|p| p.summary().mean)
                .fold(0.0, f64::max),
            g2 * 100.0
        ),
        holds: g2 > 2.0 && g2 > 2.0 * g1,
    });
    claims.push(Claim {
        id: "L1-plateau-order".into(),
        paper: "S2 needs more nodes to plateau than S1 (16 vs 4)".into(),
        measured: format!(
            "plateau at {} (S1) vs {} (S2) nodes",
            f4a.plateau_nodes(0.05),
            f4b.plateau_nodes(0.05)
        ),
        holds: f4b.plateau_nodes(0.05) > f4a.plateau_nodes(0.05),
    });

    // --- lesson 4: allocation balance dominates in S1 --------------------
    let f6a = fig06_stripe::run(engine, ctx, Scenario::S1Ethernet, ChooserKind::RoundRobin)?;
    let means = f6a.allocation_means();
    let b13 = means.get("(1,3)").copied().unwrap_or(f64::NAN);
    let b33 = means.get("(3,3)").copied().unwrap_or(f64::NAN);
    let gain = (b33 - b13) / b13;
    claims.push(Claim {
        id: "L4-49pct".into(),
        paper: "(3,3) outperforms the (1,3) default by more than 49%".into(),
        measured: format!(
            "(3,3) {:.0} vs (1,3) {:.0} MiB/s (+{:.0}%)",
            b33,
            b13,
            gain * 100.0
        ),
        holds: gain > 0.40,
    });
    let b01 = means.get("(0,1)").copied().unwrap_or(f64::NAN);
    let b44 = means.get("(4,4)").copied().unwrap_or(f64::NAN);
    claims.push(Claim {
        id: "L4-range".into(),
        paper: "S1 stripe count swings performance ~1100 -> ~2200 MiB/s".into(),
        measured: format!("(0,1) {b01:.0} -> (4,4) {b44:.0} MiB/s"),
        holds: (900.0..1300.0).contains(&b01) && (1900.0..2500.0).contains(&b44),
    });

    // --- lesson 5/6: S2 stripe growth and variability --------------------
    let f6b = fig06_stripe::run(engine, ctx, Scenario::S2Omnipath, ChooserKind::RoundRobin)?;
    let s1sum = f6b.point(1).summary();
    let s8sum = f6b.point(8).summary();
    let mean_gain = (s8sum.mean - s1sum.mean) / s1sum.mean;
    let sd_gain = (s8sum.sd - s1sum.sd) / s1sum.sd;
    claims.push(Claim {
        id: "L6-mean-350pct".into(),
        paper: "S2: 1 -> 8 OSTs raises the mean by >350% (1764 -> 8064 MiB/s)".into(),
        measured: format!(
            "{:.0} -> {:.0} MiB/s (+{:.0}%)",
            s1sum.mean,
            s8sum.mean,
            mean_gain * 100.0
        ),
        holds: mean_gain > 3.0,
    });
    claims.push(Claim {
        id: "L5-sd-460pct".into(),
        paper: "S2: the standard deviation grows by >460% (139.8 -> 787.9)".into(),
        measured: format!(
            "sd {:.0} -> {:.0} MiB/s (+{:.0}%)",
            s1sum.sd,
            s8sum.sd,
            sd_gain * 100.0
        ),
        holds: sd_gain > 2.0,
    });
    let b33_s2 = f6b
        .allocation_means()
        .get("(3,3)")
        .copied()
        .unwrap_or(f64::NAN);
    let b24_s2 = f6b
        .allocation_means()
        .get("(2,4)")
        .copied()
        .unwrap_or(f64::NAN);
    let balance_gain = (b33_s2 - b24_s2) / b24_s2;
    claims.push(Claim {
        id: "L6-balance-10pct".into(),
        paper: "S2: (3,3) averages 10.15% above (2,4) — balance still helps, mildly".into(),
        measured: format!(
            "(3,3) {:.0} vs (2,4) {:.0} MiB/s (+{:.1}%)",
            b33_s2,
            b24_s2,
            balance_gain * 100.0
        ),
        holds: balance_gain > 0.0 && balance_gain < 0.5,
    });

    // --- lesson 7: sharing OSTs does not degrade the aggregate -----------
    // The lesson is about *target sharing*: with stripe count 8 every
    // application stripes over all eight targets, so sharing is total.
    // (Cells with smaller stripe counts mix in allocation-imbalance and
    // Equation-1 end-time-dispersion effects that are not about sharing.)
    let f12 = fig12_concurrent::run(ctx);
    let worst = f12
        .cells
        .iter()
        .filter(|c| c.stripe_count == 8)
        .map(|c| c.aggregate_degradation())
        .fold(f64::NEG_INFINITY, f64::max);
    claims.push(Claim {
        id: "L7-no-degradation".into(),
        paper:
            "2-4 apps sharing all 8 targets: aggregate comparable to (even above) one scaled app"
                .into(),
        measured: format!(
            "worst all-shared aggregate degradation {:.1}%",
            worst * 100.0
        ),
        holds: worst < 0.10,
    });

    // --- the headline recommendation -------------------------------------
    let s4 = f6a.point(4).summary().mean;
    let s8 = f6a.point(8).summary().mean;
    let improvement = (s8 - s4) / s4;
    claims.push(Claim {
        id: "reco-40pct".into(),
        paper: "switching the default from 4 to 8 OSTs improves writes by >40%".into(),
        measured: format!(
            "stripe 8 {:.0} vs stripe 4 {:.0} MiB/s (+{:.0}%)",
            s8,
            s4,
            improvement * 100.0
        ),
        holds: improvement > 0.40,
    });

    Ok(Lessons { claims })
}

impl Lessons {
    /// Whether every claim held.
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_claims_hold_at_reduced_reps() {
        let lessons = run(&CampaignEngine::in_memory(), &ExpCtx::quick(12)).unwrap();
        for c in &lessons.claims {
            assert!(
                c.holds,
                "claim {} failed: paper said '{}', measured '{}'",
                c.id, c.paper, c.measured
            );
        }
    }
}
