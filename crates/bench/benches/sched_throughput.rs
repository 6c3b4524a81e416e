//! Scheduler placement throughput: what a placement decision costs each
//! policy on the scenario-1 platform (2 servers × 4 targets) and on the
//! `fig_interference` fleet (100 servers × 10 targets).
//!
//! It times the pure decision loop (no fluid simulation — the cluster
//! view is synthesized and perturbed between calls). Each round times a
//! policy's PlaFRIM leg and its fleet leg back to back on the process
//! CPU clock, so both see the same host phase, and the PlaFRIM leg makes
//! twenty times the fleet leg's decisions so that, for the load-aware
//! policies, the two last about as long. The gate takes each policy's
//! median over the rounds of its per-decision time ratio, fleet over
//! PlaFRIM: a policy whose decisions grow more than
//! [`MAX_FLEET_OVER_PLAFRIM`]× from the 8-target platform to the
//! 1,000-target fleet (125× the targets) fails the bench. Every load-aware policy picks through one
//! per-server kernel that re-scores one server per pick, and
//! `RoundRobinServer` walks one server's targets per pick, so every
//! policy is held to the same bound.

use bench::{rounds, Report};
use cluster::{presets, Platform};
use experiments::fig_interference;
use sched::{
    ClusterView, LeastLoadedServer, PlacementPolicy, Random, RoundRobinServer, StragglerAware,
    UtilizationFeedback,
};
use simcore::rng::RngFactory;

/// Placement decisions per round on the scenario-1 platform.
const ARRIVALS: usize = 40_000;
/// Placement decisions per round on the fleet.
const FLEET_ARRIVALS: usize = 2_000;
/// Timed rounds per policy.
const ROUNDS: usize = 9;
/// Largest allowed median ratio of a policy's per-decision CPU time on
/// the fleet to its time on the scenario-1 platform. The per-server
/// pick costs O(targets + picks × servers) a decision; ten runs on a
/// 2-vCPU x86-64 VM read 17–26× for its three policies, 2.2–2.4× for
/// `RoundRobinServer` and 1.0–1.3× for `Random`. A `RoundRobinServer`
/// that lists every server's online targets for each decision read
/// 66.6× and fails it; so did a pick that rescans every target for
/// each of a decision's four picks (65–76× when each leg's median was
/// compared on the wall clock).
const MAX_FLEET_OVER_PLAFRIM: f64 = 55.0;

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    vec![
        Box::new(Random),
        Box::<RoundRobinServer>::default(),
        Box::new(LeastLoadedServer),
        Box::new(UtilizationFeedback),
        Box::new(StragglerAware),
    ]
}

/// One leg: `arrivals` decisions of a fresh `policy` on `platform` with
/// the view perturbed deterministically between calls, so
/// load-sensitive policies cannot shortcut on a constant input. Returns
/// the targets picked.
fn leg(policy: &mut dyn PlacementPolicy, platform: &Platform, arrivals: usize) -> u64 {
    let online = vec![true; platform.total_targets()];
    let mut outstanding = vec![0.0f64; platform.server_count()];
    let mut busy = vec![0.0f64; platform.total_targets()];
    let mut suspected = vec![false; platform.total_targets()];
    let mut rng = RngFactory::new(7).stream("sched-throughput", 0);
    let mut picked = 0usize;
    for i in 0..arrivals {
        let servers = outstanding.len();
        let targets = busy.len();
        outstanding[i % servers] = (i % 97) as f64 * 1e9;
        busy[i % targets] = (i % 89) as f64 / 89.0;
        suspected[i % targets] = i % 13 == 0;
        let view = ClusterView {
            platform,
            online: &online,
            outstanding_bytes: &outstanding,
            busy_fraction: &busy,
            suspected: &suspected,
        };
        let placement = policy
            .place(&view, 4, 4 << 30, &mut rng)
            .expect("placement on a healthy pool");
        picked += match placement {
            sched::Placement::Pinned(ts) => ts.len(),
            sched::Placement::Deferred => 1,
        };
    }
    assert!(picked >= arrivals, "decisions went missing");
    picked as u64
}

fn main() {
    let plafrim = presets::plafrim_ethernet();
    let fleet = fig_interference::fleet_spec()
        .build()
        .expect("the interference fleet is valid");
    let mut report = Report::new("sched_throughput");
    report.field("rounds", ROUNDS);
    report.field("arrivals_per_round", ARRIVALS);
    report.field("fleet_arrivals_per_round", FLEET_ARRIVALS);
    report.field("plafrim_targets", plafrim.total_targets());
    report.field("fleet_targets", fleet.total_targets());
    for i in 0..policies().len() {
        // Every leg starts a fresh policy.
        let policy = || policies().swap_remove(i);
        let name = policy().name();
        let (on_plafrim, on_fleet) = (format!("{name}_plafrim"), format!("{name}_fleet"));
        let r = rounds(
            ROUNDS,
            &mut [
                (&on_plafrim, &mut || {
                    leg(policy().as_mut(), &plafrim, ARRIVALS)
                }),
                (&on_fleet, &mut || {
                    leg(policy().as_mut(), &fleet, FLEET_ARRIVALS)
                }),
            ],
        );
        report.rounds(&r);
        // Per-decision time ratio, fleet over PlaFRIM, within a round.
        let ratio = r.ratio(&on_fleet, &on_plafrim)[1] * (ARRIVALS / FLEET_ARRIVALS) as f64;
        report.at_most(
            &format!("{name}_fleet_over_plafrim"),
            ratio,
            MAX_FLEET_OVER_PLAFRIM,
        );
    }
    report.finish();
}
