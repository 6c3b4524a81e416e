//! `online_long` and `fleet_online`: one `AdmissionMode::Online` session
//! of a Poisson arrival stream per run, served on this thread.
//!
//! * `online_long` is the `repro scale` stream: 1-node, 4-process 256 MiB
//!   applications arriving at 2/s on scenario 1 under
//!   `LeastLoadedServer`, long enough that retired flows outnumber live
//!   ones by orders of magnitude. No faults, no store.
//! * `fleet_online` is a contended session on the 100-server × 10-target
//!   fleet of `fig_interference`, under `AdaptiveStriping`, with a fault
//!   episode every [`FAULT_PERIOD_S`] simulated seconds: one server's
//!   targets go offline past the retry deadline (evictions) and recover,
//!   and in some episodes another target straggles for a while (restripes).
//!   Arrivals outpace the node capacity, so applications queue.
//!
//! The per-admission time is measured from outside `serve` by a
//! placement policy wrapper: it reads the benchmark's clock at every
//! placement call, and the interval between consecutive decisions is
//! what one admission cost the engine.

use crate::clock;
use crate::report::{check_pinned, digest_str, hist_quantile, ratio, Fnv, Outcome};
use crate::trace::Tracer;
use crate::{end_to_end, host_values, setup_median, timed_phase, write_trace, Args, DEFAULT_SEED};
use beegfs_core::{BeeGfs, ChooserKind, FaultPlan, PolicyError};
use cluster::TargetId;
use experiments::campaign::SchedPolicyKind;
use experiments::context::{deploy, deploy_on, ExpCtx, Scenario};
use experiments::fig_interference;
use ior::{IorConfig, RetryPolicy};
use obs::metrics::MetricsRegistry;
use sched::{
    AdmissionMode, AppObservation, ArrivalStream, ClusterView, Placement, PlacementPolicy,
    RestripeDecision, SchedError, SchedOutcome, Scheduler,
};
use simcore::rng::{RngFactory, StreamRng};
use simcore::units::MIB;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// How far below 1 a slowdown may read before the check fails (float
/// rounding of equal live and ideal completion instants).
const SLOWDOWN_TOLERANCE: f64 = 1e-6;

/// One online workload's fixed parameters.
pub struct Spec {
    name: &'static str,
    /// Arrivals served per second of `--seconds`.
    arrivals_per_s: f64,
    /// Arrivals of each set-up warm-up session (a prefix of the default
    /// seed's stream).
    warmup_arrivals: usize,
    rate_per_s: f64,
    nodes: usize,
    ppn: u32,
    app_bytes: u64,
    stripe: u32,
    policy: SchedPolicyKind,
    deploy: fn() -> BeeGfs,
    /// The fault plan of a session `horizon_s` simulated seconds long.
    faults: fn(f64) -> FaultPlan,
    /// Cap on concurrently running applications (compute-node capacity
    /// applies on top).
    max_concurrent: usize,
    /// Seconds a target may stay unreachable before its writers are
    /// evicted and re-placed.
    retry_deadline_s: f64,
    /// Digests of the warm-up session (the default seed's stream, which
    /// every run serves, whatever its seed).
    pinned: [(&'static str, u64); 3],
}

pub const LONG: Spec = Spec {
    name: "sched_scale",
    arrivals_per_s: 15_000.0,
    warmup_arrivals: 3_000,
    rate_per_s: 2.0,
    nodes: 1,
    ppn: 4,
    app_bytes: 256 * MIB,
    stripe: 4,
    policy: SchedPolicyKind::LeastLoadedServer,
    deploy: scenario1,
    faults: |_| FaultPlan::new(),
    max_concurrent: usize::MAX,
    retry_deadline_s: 60.0,
    pinned: [
        ("online.warmup.sim_events", 0xd18b_37c8_ae3d_5c79),
        ("online.warmup.decision_log", 0xef14_9df1_bf59_aa4f),
        ("online.warmup.restripe_log", 0x0961_2b07_b5ec_b5a5),
    ],
};

pub const FLEET: Spec = Spec {
    name: "fleet_online",
    arrivals_per_s: 2_400.0,
    warmup_arrivals: 400,
    rate_per_s: 20.0,
    nodes: 2,
    ppn: 4,
    app_bytes: 1024 * MIB,
    stripe: 4,
    policy: SchedPolicyKind::AdaptiveStriping,
    deploy: fleet,
    faults: fleet_faults,
    max_concurrent: 25,
    retry_deadline_s: 2.0,
    pinned: [
        ("online.warmup.sim_events", 0xc99b_ec04_940a_281e),
        ("online.warmup.decision_log", 0xfcde_59f0_316a_abc5),
        ("online.warmup.restripe_log", 0xc98c_7cc5_b3bf_f574),
    ],
};

fn scenario1() -> BeeGfs {
    deploy(Scenario::S1Ethernet, 4, ChooserKind::Random)
}

fn fleet() -> BeeGfs {
    let platform = fig_interference::fleet_spec()
        .build()
        .expect("the interference fleet is valid");
    deploy_on(platform, 4, ChooserKind::Random)
}

/// Simulated seconds between two fault episodes of `fleet_online`.
const FAULT_PERIOD_S: f64 = 20.0;

/// Targets per server of the interference fleet.
const FLEET_TARGETS_PER_SERVER: u32 = 10;

/// One fault episode every [`FAULT_PERIOD_S`] over the whole session, so
/// faults recur through the whole timed phase. In episode `k` every target
/// of server `37 k mod 100` goes offline 1 s in and recovers 5 s later,
/// past the 2 s retry deadline, so its writers are evicted and
/// re-placed. In every fourth episode target 10 (server 1) also
/// straggles at a fifth of its speed from 2 s to 6 s in, so its writers
/// restripe. A restriped application widens to every online target and
/// costs far more per event than the rest, so restripes are kept rarer
/// than evictions: a run's cost then depends less on how many a seed
/// happens to get.
fn fleet_faults(horizon_s: f64) -> FaultPlan {
    let mut plan = Ok(FaultPlan::new());
    let mut k = 0;
    while f64::from(k) * FAULT_PERIOD_S < horizon_s {
        let at = f64::from(k) * FAULT_PERIOD_S;
        let server = (37 * k) % 100;
        for t in 0..FLEET_TARGETS_PER_SERVER {
            let target = TargetId(server * FLEET_TARGETS_PER_SERVER + t);
            plan = plan
                .and_then(|p| p.target_offline(at + 1.0, target))
                .and_then(|p| p.target_recovers(at + 6.0, target));
        }
        if k % 4 == 0 {
            plan =
                plan.and_then(|p| p.target_transient_straggler(at + 2.0, TargetId(10), 0.2, 4.0));
        }
        k += 1;
    }
    plan.expect("the fleet fault plan is valid")
}

/// Placement calls as the wrapper saw them: start stamps always, end
/// stamps only in a traced run.
#[derive(Default)]
struct PlaceLog {
    starts: Vec<f64>,
    ends: Vec<f64>,
    trace: bool,
}

/// A placement policy wrapper that reads the benchmark's clock at every
/// placement call and otherwise delegates.
struct Stamped {
    inner: Box<dyn PlacementPolicy>,
    log: Rc<RefCell<PlaceLog>>,
}

impl PlacementPolicy for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        let t0 = clock::tick();
        let out = self.inner.place(view, want, bytes, rng);
        let mut log = self.log.borrow_mut();
        log.starts.push(t0);
        if log.trace {
            log.ends.push(clock::now());
        }
        out
    }

    fn wants_feedback(&self) -> bool {
        self.inner.wants_feedback()
    }

    fn restripe(
        &mut self,
        view: &ClusterView<'_>,
        obs: &AppObservation<'_>,
    ) -> Option<RestripeDecision> {
        self.inner.restripe(view, obs)
    }

    fn app_done(&mut self, app: usize) {
        self.inner.app_done(app)
    }
}

/// Serve one stream through the online engine, with the faults of a
/// session as long as the stream.
fn session(
    spec: &Spec,
    fs: &mut BeeGfs,
    stream: &ArrivalStream,
    factory: &RngFactory,
    log: &Rc<RefCell<PlaceLog>>,
    metrics: Option<&mut MetricsRegistry>,
) -> Result<SchedOutcome, SchedError> {
    let policy = Box::new(Stamped {
        inner: spec.policy.build(),
        log: Rc::clone(log),
    });
    let horizon_s = stream.len() as f64 / spec.rate_per_s;
    let mut s = Scheduler::new(fs, policy)
        .mode(AdmissionMode::Online)
        .faults((spec.faults)(horizon_s))
        .max_concurrent(spec.max_concurrent)
        .retry(RetryPolicy {
            deadline_s: spec.retry_deadline_s,
            ..RetryPolicy::default()
        });
    if let Some(reg) = metrics {
        s = s.metrics(reg);
    }
    s.serve(stream, factory)
}

/// Output check: every arrival completed once, with exactly its
/// requested bytes and a consistent interval, and no slower than its
/// contention-free ideal unless its stripe set changed mid-flight (an
/// application widened or moved after admission may beat the ideal
/// priced at admission). Returns how many arrivals fail it.
fn check(spec: &Spec, stream: &ArrivalStream, out: &Result<SchedOutcome, SchedError>) -> u64 {
    let out = match out {
        Ok(o) if o.apps.len() == stream.len() => o,
        Ok(o) => {
            eprintln!(
                "perfbench: {} of {} arrivals completed",
                o.apps.len(),
                stream.len()
            );
            return stream.len() as u64;
        }
        Err(e) => {
            eprintln!("perfbench: session failed: {e}");
            return stream.len() as u64;
        }
    };
    let moved: BTreeSet<usize> = out.restripes.iter().map(|r| r.app as usize).collect();
    let bad = out
        .apps
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let floor = if moved.contains(i) {
                0.0
            } else {
                1.0 - SLOWDOWN_TOLERANCE
            };
            !(a.app == *i
                && a.bytes == spec.app_bytes
                && a.slowdown.is_finite()
                && a.slowdown > floor
                && a.arrival_s <= a.admit_s
                && a.admit_s < a.end_s)
        })
        .count() as u64;
    if bad > 0 {
        let min = out
            .apps
            .iter()
            .map(|a| a.slowdown)
            .fold(f64::INFINITY, f64::min);
        eprintln!("perfbench: {bad} arrivals failed the output check (min slowdown {min})");
    }
    bad
}

/// Digests of one session: its event count, decision log and restripe
/// log (the canonical JSON the engine's determinism is pinned on).
fn digests(out: &Result<SchedOutcome, SchedError>) -> [u64; 3] {
    match out {
        Ok(o) => {
            let mut events = Fnv::new();
            events.u64(o.sim_events);
            [
                events.finish(),
                digest_str(&o.decision_log_json()),
                digest_str(&o.restripe_log_json()),
            ]
        }
        Err(_) => [0; 3],
    }
}

/// The session's slowdowns summarized as the campaign tail metrics do.
fn summarize(out: &Result<SchedOutcome, SchedError>, tr: &mut Tracer) {
    if let Ok(o) = out {
        let slowdowns: Vec<f64> = o.apps.iter().map(|a| a.slowdown).collect();
        black_box(tr.span("stats.summarize", |_| {
            iostats::Summary::from_sample(&slowdowns)
        }));
    }
}

/// Run the workload: set-up, the untraced timed session, and with
/// `--trace 1` a traced repeat of the session.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let n = ((args.seconds * spec.arrivals_per_s).round() as usize).max(spec.warmup_arrivals);
    let factory_of = |seed: u64| ExpCtx { seed, reps: 1 }.rng_factory(spec.name);
    let factory = factory_of(args.seed);
    let warm_factory = factory_of(DEFAULT_SEED);
    let template = IorConfig::paper_default(spec.nodes)
        .with_ppn(spec.ppn)
        .with_total_bytes(spec.app_bytes);
    let arrivals = |factory: &RngFactory, count: usize| {
        ArrivalStream::poisson(
            spec.rate_per_s,
            count,
            template,
            spec.stripe,
            &mut factory.stream("arrivals", 0),
        )
    };
    let log = Rc::new(RefCell::new(PlaceLog::default()));

    // Set-up: the deployment and stream the timed session serves, and a
    // warm-up session on a fresh deployment over a prefix of the default
    // seed's stream, so set-up does the same work whatever the seed.
    let mut warmups = Vec::new();
    let (setup_s, (mut fs, stream)) = setup_median(SETUP_REPS, || {
        let fs = (spec.deploy)();
        let stream = arrivals(&factory, n);
        let warm_stream = arrivals(&warm_factory, spec.warmup_arrivals);
        let out = session(
            spec,
            &mut (spec.deploy)(),
            &warm_stream,
            &warm_factory,
            &log,
            None,
        );
        warmups.push((check(spec, &warm_stream, &out), digests(&out)));
        (fs, stream)
    });
    let mut failed: u64 = warmups.iter().map(|w| w.0).sum();
    let warm = warmups[0].1;
    if warmups.iter().any(|w| w.1 != warm) {
        eprintln!("perfbench: warm-up sessions differ");
        failed += 1;
    }
    let mut digests_out = vec![
        ("online.warmup.sim_events", warm[0]),
        ("online.warmup.decision_log", warm[1]),
        ("online.warmup.restripe_log", warm[2]),
    ];
    failed += check_pinned(&digests_out, &spec.pinned);

    {
        let mut l = log.borrow_mut();
        l.starts = Vec::with_capacity(2 * n);
        l.ends.clear();
    }
    let ((t0, out), phase) = timed_phase(|| {
        let t0 = clock::tick();
        let out = session(spec, &mut fs, &stream, &factory, &log, None);
        summarize(&out, &mut Tracer::new(false));
        (t0, out)
    });
    failed += check(spec, &stream, &out);
    let run_digests = digests(&out);
    digests_out.push(("online.sim_events", run_digests[0]));
    digests_out.push(("online.decision_log", run_digests[1]));
    digests_out.push(("online.restripe_log", run_digests[2]));
    // Decision instants, led by the session start: consecutive gaps are
    // per-admission times.
    let stamps: Vec<f64> = std::iter::once(t0)
        .chain(log.borrow().starts.iter().copied())
        .collect();
    let op_s: Vec<f64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    drop(out);

    let values = if !args.trace {
        end_to_end(&phase, setup_s, n as u64, &op_s)
    } else {
        // The tracing cost compares against a second untraced session,
        // so both sides run on an equally warm heap.
        let t0 = clock::tick();
        let again = session(spec, &mut (spec.deploy)(), &stream, &factory, &log, None);
        summarize(&again, &mut Tracer::new(false));
        let untraced_s = clock::now() - t0;
        drop(again);
        {
            let mut l = log.borrow_mut();
            l.starts.clear();
            l.trace = true;
        }
        let mut tr = Tracer::new(true);
        let mut reg = MetricsRegistry::new();
        let mut fs = tr.span("core.deploy", |_| (spec.deploy)());
        let stream = tr.span("sched.arrivals", |_| arrivals(&factory, n));
        let t0 = clock::tick();
        let out = tr.span("sched.serve", |tr| {
            let out = session(spec, &mut fs, &stream, &factory, &log, Some(&mut reg));
            let l = log.borrow();
            for (&s, &e) in l.starts.iter().zip(&l.ends) {
                tr.record("sched.place", s, e);
            }
            out
        });
        summarize(&out, &mut tr);
        let traced_s = clock::now() - t0;
        failed += check(spec, &stream, &out);
        if digests(&out) != run_digests {
            eprintln!("perfbench: the traced session decided differently");
            failed += 1;
        }
        write_trace(args, &tr);
        let adm = n as f64;
        let events = out.as_ref().map_or(0.0, |o| o.sim_events as f64);
        let serve_s = tr.total_s("sched.serve");
        let restripes = reg.counter("sched.restripes") as f64;
        let rejected = reg.counter("sched.restripes.rejected") as f64;
        let mut v = vec![
            ("core.deploy_ms", tr.mean_ms("core.deploy")),
            ("simcore.events_per_op", events / adm),
            ("simcore.cpu_us_per_event", ratio(1e6 * serve_s, events)),
            ("sched.events_per_admission", events / adm),
            ("sched.cpu_us_per_admission", 1e6 * serve_s / adm),
            (
                "sched.live_flows_max",
                reg.gauge("sched.online.live_flows").unwrap_or(0.0),
            ),
            (
                "sched.live_apps_max",
                reg.gauge("sched.online.live_apps").unwrap_or(0.0),
            ),
            (
                "sched.queue_depth_p99",
                hist_quantile(&reg, "sched.queue_depth", 0.99),
            ),
            ("sched.restripes", restripes),
            (
                "sched.restripe_accept_ratio",
                ratio(restripes, restripes + rejected),
            ),
            ("sched.evictions", reg.counter("sched.evictions") as f64),
            (
                "sched.replacements",
                reg.counter("sched.replacements") as f64,
            ),
            ("sched.arrivals_gen_ms", tr.mean_ms("sched.arrivals")),
            ("stats.summarize_ms", tr.mean_ms("stats.summarize")),
        ];
        v.extend(host_values(&phase, n as u64, traced_s / untraced_s));
        v
    };
    Outcome {
        attempted: n as u64,
        failed,
        values,
        digests: digests_out,
    }
}
