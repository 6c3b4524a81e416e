//! Failure drill: what happens to applications' write bandwidth when a
//! storage target degrades (RAID rebuild), drops out entirely, or —
//! the sneaky case — *drifts* slow without ever going down?
//!
//! The paper studies a healthy system; this example exercises the
//! library's failure-injection surface on top of the same calibrated
//! platform — the kind of question an operator asks right after reading
//! the paper ("we set stripe count 8 everywhere; now one OST is
//! rebuilding, how bad is it?"). The final section is a straggler
//! drill: a target slow-drifts mid-stream, and a hedged scheduler
//! session shows the detector flagging it, redirecting in-flight
//! chunks, and quarantining it in the decision log.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use beegfs_repro::cluster::{presets, TargetId};
use beegfs_repro::core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, FaultPlan, StripePattern,
    TargetState,
};
use beegfs_repro::ior::{IorConfig, Run};
use beegfs_repro::sched::{AppRequest, ArrivalStream, Random, Scheduler, StragglerAware};
use beegfs_repro::simcore::rng::RngFactory;

const REPS: usize = 30;

fn mean_bw(fs_template: &dyn Fn() -> BeeGfs, label: &str, factory: &RngFactory) -> f64 {
    let cfg = IorConfig::paper_default(16);
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut fs = fs_template();
            let mut rng = factory.stream(label, rep as u64);
            let (out, _) = Run::new(&mut fs).app(cfg).execute(&mut rng).unwrap();
            out.try_single().unwrap().bandwidth.mib_per_sec()
        })
        .collect();
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn deploy(stripe: u32) -> BeeGfs {
    BeeGfs::new(
        presets::plafrim_omnipath(),
        DirConfig {
            pattern: StripePattern::new(stripe, 512 * 1024),
            chooser: ChooserKind::RoundRobin,
        },
        plafrim_registration_order(),
    )
}

fn main() {
    let factory = RngFactory::new(1234);

    println!(
        "failure drill on {} (16 nodes x 8 ppn, 32 GiB)\n",
        presets::plafrim_omnipath().name
    );

    for stripe in [4u32, 8] {
        let healthy = mean_bw(&|| deploy(stripe), &format!("healthy-{stripe}"), &factory);

        // One target rebuilding at 40% speed. New files still stripe over
        // it (BeeGFS keeps degraded targets in rotation).
        let rebuilding = mean_bw(
            &|| {
                let mut fs = deploy(stripe);
                fs.set_target_state(TargetId(5), TargetState::Degraded(0.4))
                    .unwrap();
                fs
            },
            &format!("degraded-{stripe}"),
            &factory,
        );

        // One target offline: the management service excludes it, so new
        // files stripe over the remaining seven (stripe counts above 7
        // are clamped by the admin in practice; here we keep stripe<=7).
        let offline_stripe = stripe.min(7);
        let offline = mean_bw(
            &|| {
                let mut fs = deploy(offline_stripe);
                fs.set_target_state(TargetId(5), TargetState::Offline)
                    .unwrap();
                fs
            },
            &format!("offline-{stripe}"),
            &factory,
        );

        println!("stripe count {stripe}:");
        println!("  healthy                : {healthy:>6.0} MiB/s");
        println!(
            "  1 OST rebuilding (40%) : {rebuilding:>6.0} MiB/s  ({:+.0}%)",
            100.0 * (rebuilding / healthy - 1.0)
        );
        println!(
            "  1 OST offline (s={offline_stripe})     : {offline:>6.0} MiB/s  ({:+.0}%)",
            100.0 * (offline / healthy - 1.0)
        );
        println!();
    }

    println!("reading: wide striping makes a single degraded target everyone's");
    println!("problem — the whole-file drain waits for the slowest target — while");
    println!("an offline target mostly costs its share of aggregate device speed.");

    straggler_drill(&factory);
}

/// The straggler drill: target 5 slow-drifts to 15% speed over two
/// seconds, and a stream of four applications is served twice under
/// identical seeds — plain (blind placement, no hedging) and hedged.
/// A hedged measurement run writes each (process, target) stream in
/// four chunks; a target whose mean chunk rate falls below half the
/// median target's is flagged, streams on it redirect their remaining
/// chunks (at most 32 redirects a run), and the session quarantines it.
/// The detector's thresholds are fixed constants, not settings. The
/// decision log shows the hedged session routing around the straggler
/// from the second admission on.
fn straggler_drill(factory: &RngFactory) {
    let plan = FaultPlan::new()
        .target_slow_drift(0.3, TargetId(5), 0.15, 2.0)
        .expect("valid drift parameters");
    let requests: Vec<AppRequest> = (0..4)
        .map(|i| AppRequest {
            arrival_s: 8.0 * i as f64,
            config: IorConfig::paper_default(8),
            stripe: 4,
        })
        .collect();

    println!("straggler drill: target 5 drifts to 15% speed over t=0.3..2.3s");
    println!("(hedged: 4 chunks a stream; flag below half the median target's chunk rate)\n");

    let stream = ArrivalStream::from_trace(requests.clone()).unwrap();
    let mut fs = deploy(4);
    let plain = Scheduler::new(&mut fs, Box::new(Random))
        .faults(plan.clone())
        .serve(&stream, factory)
        .expect("plain session");

    let stream = ArrivalStream::from_trace(requests).unwrap();
    let mut fs = deploy(4);
    let hedged = Scheduler::new(&mut fs, Box::new(StragglerAware))
        .faults(plan)
        .hedge()
        .serve(&stream, factory)
        .expect("hedged session");

    println!("  app   plain slowdown   hedged slowdown");
    for (p, h) in plain.apps.iter().zip(&hedged.apps) {
        println!(
            "  {:>3}   {:>14.3}   {:>15.3}",
            p.app, p.slowdown, h.slowdown
        );
    }
    println!("\nhedged decision log (who landed where, and when t5 was dropped):");
    for d in &hedged.decisions {
        println!(
            "  t={:>5.1}s app {} via {}: targets {:?}{}",
            d.admit_s,
            d.app,
            d.policy,
            d.targets,
            if d.replaced { " (re-placed)" } else { "" }
        );
    }
    println!(
        "\ndeterminism: the log above is byte-stable in the seed — \
         decision_log_json() is {} bytes",
        hedged.decision_log_json().len()
    );
}
