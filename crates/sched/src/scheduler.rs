//! The online scheduler: admission, placement, lifecycle.
//!
//! The scheduler serves an [`ArrivalStream`] against one BeeGFS
//! deployment. Each request is either admitted immediately or queued
//! (FIFO) until compute nodes and a concurrency slot free up; on
//! admission the [`PlacementPolicy`] picks targets and the application
//! starts at the admission instant.
//!
//! # The frozen-schedule approximation
//!
//! Applications overlap in time, so an admission's response time
//! depends on the contention it meets. The scheduler resolves this with
//! one *measurement run* per admission: the new application plus a
//! snapshot of every still-running application, each pinned to its
//! placement and started at its original (absolute) start time, drain
//! together through the fluid simulation. Only the *new* application's
//! completion is taken from the run — earlier applications keep the
//! completion committed at their own admission. The approximation is
//! causal (a decision never sees later arrivals) and deterministic, and
//! it prices contention both ways: the newcomer is slowed by the
//! incumbents it lands next to, exactly as the incumbents were priced
//! against their own contemporaries.
//!
//! # Faults and re-placement
//!
//! A [`FaultPlan`] (absolute sim-time, replayed identically in every
//! measurement run) may take targets down mid-stream. When a
//! measurement run fails with [`RunError::TargetUnavailable`], the
//! scheduler marks the dead target offline in the deployment, asks the
//! policy to re-place every application whose allocation touched it,
//! and retries; re-placed incumbents take their new completion from the
//! retry run.
//!
//! # Slowdown
//!
//! Each admitted application also gets one *solo run*: the same
//! allocation on an otherwise idle, fault-free system. Its slowdown is
//! `(completion - arrival) / solo_duration` — queueing wait and
//! contention both count, and `1.0` means the stream never interfered
//! with it.

use beegfs_core::{BeeGfs, FaultPlan, TargetState};
use cluster::TargetId;
use ior::{AppSpec, HedgeConfig, IorConfig, RetryPolicy, Run, RunError, SimArena};
use iostats::agg::{aggregate_bandwidth, AppInterval};
use serde::{Deserialize, Serialize};
use simcore::rng::RngFactory;
use simcore::time::SimTime;
use simcore::units::Bandwidth;
use std::collections::VecDeque;

use crate::arrivals::ArrivalStream;
use crate::error::SchedError;
use crate::online::AdmissionMode;
use crate::policy::{ClusterLoad, Placement, PlacementPolicy};

/// One committed placement decision, replayable from the log alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the application in arrival order.
    pub app: u32,
    /// When the request arrived, seconds.
    pub arrival_s: f64,
    /// When it was admitted (equals its start time), seconds.
    pub admit_s: f64,
    /// The policy that placed it.
    pub policy: String,
    /// The targets it landed on (flat ids).
    pub targets: Vec<u32>,
    /// `true` when this decision replaced an earlier one after a fault
    /// evicted one of its targets.
    pub replaced: bool,
}

/// One application's journey through the scheduler.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Index of the application in arrival order.
    pub app: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Admission (= I/O start) time, seconds.
    pub admit_s: f64,
    /// Completion time, seconds.
    pub end_s: f64,
    /// Time spent queued before admission, seconds.
    pub wait_s: f64,
    /// Wall time from admission to completion, seconds.
    pub duration_s: f64,
    /// Duration of the same allocation on an idle, fault-free system.
    pub ideal_s: f64,
    /// `(end - arrival) / ideal`: queueing wait plus contention,
    /// normalized; `1.0` means the stream never touched it.
    pub slowdown: f64,
    /// Bytes written.
    pub bytes: u64,
    /// Final target allocation.
    pub targets: Vec<TargetId>,
    /// The application's own bandwidth over its wall time.
    pub bandwidth: Bandwidth,
}

/// One committed mid-flight stripe change: who moved, when, why, and
/// from/to which targets. Appended by the online engine for adaptive
/// restripes (`"widen"`/`"narrow"`/`"replace"`) and fault evictions
/// (`"evict"`); always empty in [`AdmissionMode::FrozenOracle`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestripeRecord {
    /// Index of the application in arrival order.
    pub app: u32,
    /// The instant of the stripe change, seconds.
    pub at_s: f64,
    /// `"widen"`, `"narrow"`, `"replace"`, or `"evict"`.
    pub kind: String,
    /// The stripe set before the change (flat ids).
    pub from: Vec<u32>,
    /// The stripe set after the change (flat ids).
    pub to: Vec<u32>,
}

/// Outcome of serving a whole arrival stream.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// Per-application outcomes, in arrival order.
    pub apps: Vec<AppOutcome>,
    /// The committed decision log, in decision order (re-placements
    /// append; they do not rewrite history).
    pub decisions: Vec<Decision>,
    /// Mid-flight stripe changes, in commit order (see
    /// [`RestripeRecord`]).
    pub restripes: Vec<RestripeRecord>,
    /// Equation-1 aggregate bandwidth over the whole stream: total
    /// volume over the union span of all application intervals.
    pub aggregate: Bandwidth,
    /// Completion time of the last application, seconds.
    pub makespan_s: f64,
    /// Simulation events processed across every committed measurement
    /// and solo run of the session.
    pub sim_events: u64,
}

impl SchedOutcome {
    /// Mean per-application slowdown.
    pub fn mean_slowdown(&self) -> f64 {
        let n = self.apps.len() as f64;
        self.apps.iter().map(|a| a.slowdown).sum::<f64>() / n
    }

    /// The `q`-quantile of the per-application slowdowns (nearest-rank,
    /// `q` in `[0, 1]`; `0.99` is the tail-latency p99).
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let mut s: Vec<f64> = self.apps.iter().map(|a| a.slowdown).collect();
        s.sort_by(f64::total_cmp);
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// The decision log as canonical JSON — the unit of the
    /// determinism guarantee (same seed, same stream, same bytes).
    pub fn decision_log_json(&self) -> String {
        serde_json::to_string(&self.decisions).expect("decision log serializes")
    }

    /// The restripe log as canonical JSON — byte-stable for the same
    /// seed and stream, like the decision log.
    pub fn restripe_log_json(&self) -> String {
        serde_json::to_string(&self.restripes).expect("restripe log serializes")
    }
}

/// An application currently on the system.
struct Running {
    app: usize,
    cfg: IorConfig,
    start_s: f64,
    end_s: f64,
    placement: Placement,
    targets: Vec<TargetId>,
    bytes: u64,
}

/// Builder for one scheduling session over a deployment.
///
/// ```
/// use beegfs_core::{plafrim_registration_order, BeeGfs, DirConfig};
/// use cluster::presets;
/// use ior::IorConfig;
/// use sched::{ArrivalStream, LeastLoadedServer, Scheduler};
/// use simcore::rng::RngFactory;
///
/// let mut fs = BeeGfs::new(
///     presets::plafrim_ethernet(),
///     DirConfig::plafrim_default(),
///     plafrim_registration_order(),
/// );
/// let factory = RngFactory::new(1);
/// let stream = ArrivalStream::poisson(
///     0.05,
///     3,
///     IorConfig::paper_default(4),
///     4,
///     &mut factory.stream("arrivals", 0),
/// );
/// let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
///     .serve(&stream, &factory)?;
/// assert_eq!(out.apps.len(), 3);
/// # Ok::<(), sched::SchedError>(())
/// ```
pub struct Scheduler<'fs, 'r> {
    pub(crate) fs: &'fs mut BeeGfs,
    pub(crate) policy: Box<dyn PlacementPolicy>,
    pub(crate) faults: FaultPlan,
    pub(crate) retry: RetryPolicy,
    pub(crate) hedge: Option<HedgeConfig>,
    pub(crate) max_concurrent: usize,
    pub(crate) recorder: Option<&'r mut dyn obs::Recorder>,
    pub(crate) metrics: Option<&'r mut obs::metrics::MetricsRegistry>,
    /// Recycled simulation buffers shared by every measurement run of
    /// the session (one admission can trigger several).
    pub(crate) arena: SimArena,
    /// Per-target straggler suspicion accumulated from the hedge
    /// reports of committed measurement runs; sticky for the session.
    pub(crate) suspected: Vec<bool>,
    /// How admissions are priced; the frozen oracle unless switched.
    pub(crate) mode: AdmissionMode,
}

impl<'fs, 'r> Scheduler<'fs, 'r> {
    /// A scheduler over a deployment, using `policy` for placement.
    pub fn new(fs: &'fs mut BeeGfs, policy: Box<dyn PlacementPolicy>) -> Self {
        let targets = fs.platform().total_targets();
        Scheduler {
            fs,
            policy,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            hedge: None,
            max_concurrent: usize::MAX,
            recorder: None,
            metrics: None,
            arena: SimArena::new(),
            suspected: vec![false; targets],
            mode: AdmissionMode::default(),
        }
    }

    /// Switch how admissions are priced (default:
    /// [`AdmissionMode::FrozenOracle`]). [`AdmissionMode::Online`]
    /// serves the whole session through one continuous fluid
    /// simulation — see [`crate::online`] — which is what makes
    /// million-arrival streams tractable.
    pub fn mode(mut self, mode: AdmissionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Apply a fault timeline (absolute sim-time) to every measurement
    /// run of the session.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the client retry/backoff policy of measurement runs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Hedge every measurement run: write in chunks, detect straggling
    /// targets from per-chunk completion times, and redirect the
    /// remaining chunks of affected streams (see [`ior::HedgeConfig`]).
    /// Targets flagged by any committed run accumulate into
    /// [`ClusterView::suspected`](crate::ClusterView::suspected), which
    /// straggler-aware policies use to route subsequent placements
    /// around suspect hardware. Solo baseline runs stay unhedged — the
    /// slowdown denominator keeps meaning "an idle, healthy system".
    pub fn hedge(mut self, config: HedgeConfig) -> Self {
        self.hedge = Some(config);
        self
    }

    /// Cap how many applications may run concurrently (compute-node
    /// capacity always applies on top; default is node-capacity only).
    pub fn max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }

    /// Stream the scheduler's lifecycle events (`SchedArrival`,
    /// `SchedQueued`, `SchedAdmitted`, `SchedPlaced`, `SchedReleased`)
    /// into a recorder.
    pub fn trace(mut self, recorder: &'r mut dyn obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Accumulate scheduler introspection metrics into a
    /// [`MetricsRegistry`](obs::metrics::MetricsRegistry): admissions,
    /// queueing (`sched.queue_depth`, `sched.wait_s`), per-policy
    /// decision counts (`sched.decisions.<policy>`), measurement/solo
    /// simulation work, fault evictions and re-placements, and the
    /// running suspect-set size. The attached registry never changes
    /// scheduling results.
    pub fn metrics(mut self, registry: &'r mut obs::metrics::MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Serve the stream to completion.
    ///
    /// `factory` seeds every RNG stream the session consumes (one per
    /// admission, retry, and solo run), so one factory seed fully
    /// determines the session.
    pub fn serve(
        mut self,
        stream: &ArrivalStream,
        factory: &RngFactory,
    ) -> Result<SchedOutcome, SchedError> {
        let reqs = stream.requests();
        if reqs.is_empty() {
            return Err(SchedError::EmptyStream);
        }
        for (app, r) in reqs.iter().enumerate() {
            if r.config.layout != ior::FileLayout::SharedFile {
                return Err(SchedError::UnsupportedLayout { app });
            }
            if r.config.ppn != reqs[0].config.ppn || r.config.mode != reqs[0].config.mode {
                return Err(SchedError::MixedWorkload { app });
            }
        }
        if self.mode == AdmissionMode::Online {
            return crate::online::serve_online(self, reqs, factory);
        }
        let max_nodes = self.fs.platform().compute.max_nodes;

        let mut running: Vec<Running> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut outcomes: Vec<Option<AppOutcome>> = (0..reqs.len()).map(|_| None).collect();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut busy_fraction = vec![0.0f64; self.fs.platform().total_targets()];
        let mut sim_events = 0u64;
        let mut next_arrival = 0usize;

        while next_arrival < reqs.len() || !running.is_empty() {
            let arrival = (next_arrival < reqs.len()).then(|| reqs[next_arrival].arrival_s);
            let completion = running.iter().map(|r| r.end_s).min_by(f64::total_cmp);
            // Completions tie-break before arrivals: capacity frees up
            // before the simultaneous newcomer asks for it.
            let take_completion = match (completion, arrival) {
                (Some(c), Some(a)) => c <= a,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_completion {
                let now = completion.expect("take_completion implies a running app");
                let pos = running
                    .iter()
                    .position(|r| r.end_s == now)
                    .expect("minimum exists");
                let done = running.swap_remove(pos);
                self.record(obs::Event::SchedReleased {
                    at: ns(done.end_s),
                    app: done.app as u32,
                });
                // Freed capacity admits from the queue head, in order.
                while let Some(&head) = queue.front() {
                    if !fits(
                        &running,
                        reqs[head].config.nodes,
                        self.max_concurrent,
                        max_nodes,
                    ) {
                        break;
                    }
                    queue.pop_front();
                    self.record(obs::Event::SchedAdmitted {
                        at: ns(now),
                        app: head as u32,
                    });
                    self.admit(
                        head,
                        now,
                        reqs,
                        &mut running,
                        &mut decisions,
                        &mut busy_fraction,
                        &mut outcomes,
                        &mut sim_events,
                        factory,
                    )?;
                }
                if let Some(reg) = self.metrics.as_deref_mut() {
                    reg.observe("sched.queue_depth", queue.len() as f64);
                }
            } else {
                let i = next_arrival;
                next_arrival += 1;
                let now = reqs[i].arrival_s;
                self.record(obs::Event::SchedArrival {
                    at: ns(now),
                    app: i as u32,
                });
                if reqs[i].config.nodes > max_nodes {
                    return Err(SchedError::Unschedulable {
                        app: i,
                        nodes: reqs[i].config.nodes,
                        available: max_nodes,
                    });
                }
                if queue.is_empty()
                    && fits(
                        &running,
                        reqs[i].config.nodes,
                        self.max_concurrent,
                        max_nodes,
                    )
                {
                    self.record(obs::Event::SchedAdmitted {
                        at: ns(now),
                        app: i as u32,
                    });
                    self.admit(
                        i,
                        now,
                        reqs,
                        &mut running,
                        &mut decisions,
                        &mut busy_fraction,
                        &mut outcomes,
                        &mut sim_events,
                        factory,
                    )?;
                } else {
                    self.record(obs::Event::SchedQueued {
                        at: ns(now),
                        app: i as u32,
                    });
                    if let Some(reg) = self.metrics.as_deref_mut() {
                        reg.inc("sched.queued");
                    }
                    queue.push_back(i);
                }
                if let Some(reg) = self.metrics.as_deref_mut() {
                    reg.observe("sched.queue_depth", queue.len() as f64);
                }
            }
        }

        let apps: Vec<AppOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every request was admitted exactly once"))
            .collect();
        let intervals: Vec<AppInterval> = apps
            .iter()
            .map(|a| AppInterval {
                start_s: a.admit_s,
                end_s: a.end_s,
                volume_bytes: a.bytes,
            })
            .collect();
        let makespan_s = apps.iter().map(|a| a.end_s).fold(0.0, f64::max);
        Ok(SchedOutcome {
            decisions,
            restripes: Vec::new(),
            aggregate: Bandwidth::from_bytes_per_sec(aggregate_bandwidth(&intervals)),
            makespan_s,
            sim_events,
            apps,
        })
    }

    fn record(&mut self, ev: obs::Event) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ev);
        }
    }

    /// Admit request `i` at instant `now`: place it, price it with a
    /// measurement run (re-placing around dead targets as needed),
    /// commit its completion, and measure its solo baseline.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        i: usize,
        now: f64,
        reqs: &[crate::arrivals::AppRequest],
        running: &mut Vec<Running>,
        decisions: &mut Vec<Decision>,
        busy_fraction: &mut [f64],
        outcomes: &mut [Option<AppOutcome>],
        sim_events: &mut u64,
        factory: &RngFactory,
    ) -> Result<(), SchedError> {
        let req = &reqs[i];
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.inc("sched.admissions");
            reg.observe("sched.wait_s", now - req.arrival_s);
        }
        let mut place_rng = factory.stream("sched-place", i as u64);
        let load = ClusterLoad::of(self.fs, running.iter().map(|r| (&r.targets[..], r.bytes)));
        let mut placement = self.policy.place(
            &load.view(self.fs.platform(), busy_fraction, &self.suspected),
            req.stripe,
            req.config.total_bytes,
            &mut place_rng,
        )?;
        // Incumbents re-placed during fault retries, by `running` index.
        let mut replaced: Vec<bool> = vec![false; running.len()];
        let total_targets = self.fs.platform().total_targets();

        for attempt in 0..=total_targets {
            let mut run = Run::new(self.fs).arena(&mut self.arena);
            for r in running.iter() {
                run = run.app(spec_for(&r.placement, r.cfg).starting_at(r.start_s));
            }
            run = run
                .app(spec_for(&placement, req.config).starting_at(now))
                .faults(self.faults.clone())
                .policy(self.retry);
            if let Some(cfg) = self.hedge {
                run = run.hedge(cfg);
            }
            let mut rng = factory.stream("sched-run", (i as u64) << 8 | attempt as u64);
            let result = run.execute(&mut rng);
            if let Some(reg) = self.metrics.as_deref_mut() {
                reg.inc("sched.measurement_runs");
            }
            match result {
                Ok((out, telemetry)) => {
                    *sim_events += out.sim_events;
                    // Quarantine targets the hedging detector flagged.
                    if let Some(report) = &out.hedge {
                        for &t in &report.flagged {
                            self.suspected[t.index()] = true;
                        }
                    }
                    if let Some(reg) = self.metrics.as_deref_mut() {
                        reg.add("sched.measurement_sim_events", out.sim_events);
                        let n = self.suspected.iter().filter(|&&s| s).count();
                        reg.gauge_max("sched.suspected_targets", n as f64);
                    }
                    // Refresh the per-target utilization feedback.
                    let platform = self.fs.platform().clone();
                    for t in platform.all_targets() {
                        let label = format!(
                            "oss{}.ost{}",
                            platform.server_of(t).index(),
                            platform.slot_of(t)
                        );
                        if let Some(r) = telemetry.resources.iter().find(|r| r.label == label) {
                            busy_fraction[t.index()] = r.utilization(telemetry.io_secs);
                        }
                    }
                    // Re-placed incumbents take their new completion
                    // (and allocation) from this run.
                    for (j, r) in running.iter_mut().enumerate() {
                        if !replaced[j] {
                            continue;
                        }
                        let res = &out.apps[j];
                        r.end_s = r.start_s + res.duration_s;
                        r.targets = res.file_targets[0].clone();
                        self.record(obs::Event::SchedPlaced {
                            at: ns(now),
                            app: r.app as u32,
                            policy: self.policy.name().to_string(),
                            targets: r.targets.iter().map(|t| t.0).collect(),
                        });
                        decisions.push(Decision {
                            app: r.app as u32,
                            arrival_s: reqs[r.app].arrival_s,
                            admit_s: now,
                            policy: self.policy.name().to_string(),
                            targets: r.targets.iter().map(|t| t.0).collect(),
                            replaced: true,
                        });
                        if let Some(reg) = self.metrics.as_deref_mut() {
                            reg.inc(&format!("sched.decisions.{}", self.policy.name()));
                        }
                        if let Some(o) = outcomes[r.app].as_mut() {
                            o.end_s = r.end_s;
                            o.duration_s = r.end_s - o.admit_s;
                            o.targets = r.targets.clone();
                            o.slowdown = (o.end_s - o.arrival_s) / o.ideal_s;
                            o.bandwidth =
                                Bandwidth::from_bytes_per_sec(o.bytes as f64 / o.duration_s);
                        }
                    }
                    let res = out.apps.last().expect("run included the new app");
                    let targets = res.file_targets[0].clone();
                    let end_s = now + res.duration_s;
                    self.record(obs::Event::SchedPlaced {
                        at: ns(now),
                        app: i as u32,
                        policy: self.policy.name().to_string(),
                        targets: targets.iter().map(|t| t.0).collect(),
                    });
                    decisions.push(Decision {
                        app: i as u32,
                        arrival_s: req.arrival_s,
                        admit_s: now,
                        policy: self.policy.name().to_string(),
                        targets: targets.iter().map(|t| t.0).collect(),
                        replaced: attempt > 0,
                    });
                    if let Some(reg) = self.metrics.as_deref_mut() {
                        reg.inc(&format!("sched.decisions.{}", self.policy.name()));
                    }
                    // Solo baseline: same allocation, idle fault-free
                    // system — the denominator of the slowdown metric.
                    let mut solo_rng = factory.stream("sched-solo", i as u64);
                    let (solo, _) = Run::new(self.fs)
                        .arena(&mut self.arena)
                        .app(AppSpec::pinned(req.config, targets.clone()))
                        .execute(&mut solo_rng)?;
                    *sim_events += solo.sim_events;
                    if let Some(reg) = self.metrics.as_deref_mut() {
                        reg.add("sched.solo_sim_events", solo.sim_events);
                    }
                    let ideal_s = solo.apps[0].duration_s;
                    let duration_s = res.duration_s;
                    outcomes[i] = Some(AppOutcome {
                        app: i,
                        arrival_s: req.arrival_s,
                        admit_s: now,
                        end_s,
                        wait_s: now - req.arrival_s,
                        duration_s,
                        ideal_s,
                        slowdown: (end_s - req.arrival_s) / ideal_s,
                        bytes: res.bytes,
                        targets: targets.clone(),
                        bandwidth: res.bandwidth,
                    });
                    running.push(Running {
                        app: i,
                        cfg: req.config,
                        start_s: now,
                        end_s,
                        placement: Placement::Pinned(targets.clone()),
                        targets,
                        bytes: res.bytes,
                    });
                    return Ok(());
                }
                Err(RunError::TargetUnavailable { target, .. }) => {
                    // The target is gone for good (the plan never
                    // revives it within the retry deadline): take it out
                    // of the pool and re-place everyone who touched it.
                    self.fs
                        .set_target_state(target, TargetState::Offline)
                        .expect("run validated the fault plan's targets");
                    if let Some(reg) = self.metrics.as_deref_mut() {
                        reg.inc("sched.evictions");
                    }
                    let load =
                        ClusterLoad::of(self.fs, running.iter().map(|r| (&r.targets[..], r.bytes)));
                    if placed_on(&placement, target) {
                        placement = self.policy.place(
                            &load.view(self.fs.platform(), busy_fraction, &self.suspected),
                            req.stripe,
                            req.config.total_bytes,
                            &mut place_rng,
                        )?;
                    }
                    for (j, r) in running.iter_mut().enumerate() {
                        if r.targets.contains(&target) {
                            let stripe = r.targets.len() as u32;
                            r.placement = self.policy.place(
                                &load.view(self.fs.platform(), busy_fraction, &self.suspected),
                                stripe,
                                r.bytes,
                                &mut place_rng,
                            )?;
                            replaced[j] = true;
                            if let Some(reg) = self.metrics.as_deref_mut() {
                                reg.inc("sched.replacements");
                            }
                        }
                    }
                }
                Err(e) => return Err(SchedError::Run(e)),
            }
        }
        Err(SchedError::ReplacementExhausted { app: i })
    }
}

/// Seconds to the nanosecond timestamps of the event vocabulary.
pub(crate) fn ns(s: f64) -> u64 {
    SimTime::from_secs_f64(s).as_nanos()
}

/// Does an admission fit right now?
fn fits(running: &[Running], nodes: usize, max_concurrent: usize, max_nodes: usize) -> bool {
    let used: usize = running.iter().map(|r| r.cfg.nodes).sum();
    running.len() < max_concurrent && used + nodes <= max_nodes
}

fn spec_for(placement: &Placement, cfg: IorConfig) -> AppSpec {
    match placement {
        Placement::Deferred => AppSpec::new(cfg),
        Placement::Pinned(targets) => AppSpec::pinned(cfg, targets.clone()),
    }
}

fn placed_on(placement: &Placement, target: TargetId) -> bool {
    match placement {
        Placement::Deferred => false,
        Placement::Pinned(targets) => targets.contains(&target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::AppRequest;
    use crate::policy::{
        LeastLoadedServer, Random, RoundRobinServer, StragglerAware, UtilizationFeedback,
    };
    use beegfs_core::{plafrim_registration_order, ChooserKind, DirConfig, StripePattern};
    use cluster::presets;
    use simcore::units::GIB;

    fn deploy(chooser: ChooserKind) -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig {
                pattern: StripePattern::new(4, 512 * 1024),
                chooser,
            },
            plafrim_registration_order(),
        )
    }

    /// Scenario 2 (Omni-Path) deployment: storage-bound, so a slow
    /// target actually shows up in completion times.
    fn deploy_s2() -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig {
                pattern: StripePattern::new(4, 512 * 1024),
                chooser: ChooserKind::RoundRobin,
            },
            plafrim_registration_order(),
        )
    }

    fn req(arrival_s: f64, nodes: usize) -> AppRequest {
        AppRequest {
            arrival_s,
            config: IorConfig {
                total_bytes: 4 * GIB,
                ..IorConfig::paper_default(nodes)
            },
            stripe: 4,
        }
    }

    #[test]
    fn serial_random_arrivals_match_plain_chooser_runs_bit_for_bit() {
        // The acceptance criterion of the subsystem: with the Random
        // policy, per-file allocations are bit-identical to the
        // existing chooser's under the same seed. Arrivals are spaced
        // so no two applications overlap: each measurement run then
        // contains exactly one app and consumes its RNG stream exactly
        // as a plain `Run` does.
        let stream = ArrivalStream::from_trace(vec![
            req(0.0, 4),
            req(10_000.0, 4),
            req(20_000.0, 4),
            req(30_000.0, 4),
        ])
        .unwrap();
        let factory = RngFactory::new(77);
        let mut fs = deploy(ChooserKind::Random);
        let out = Scheduler::new(&mut fs, Box::new(Random))
            .serve(&stream, &factory)
            .unwrap();
        for (i, app) in out.apps.iter().enumerate() {
            let mut fs = deploy(ChooserKind::Random);
            let mut rng = factory.stream("sched-run", (i as u64) << 8);
            let (plain, _) = Run::new(&mut fs)
                .app(AppSpec::new(req(0.0, 4).config).starting_at(app.admit_s))
                .execute(&mut rng)
                .unwrap();
            assert_eq!(
                app.targets, plain.apps[0].file_targets[0],
                "app {i} diverged from the plain chooser"
            );
            assert_eq!(
                app.duration_s.to_bits(),
                plain.apps[0].duration_s.to_bits(),
                "app {i} priced differently than the plain run"
            );
        }
    }

    #[test]
    fn overlapping_arrivals_contend_and_slowdown_reports_it() {
        // Two same-size apps arriving almost together on one deployment:
        // the second must see contention (slowdown > 1), and both
        // complete.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(5);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps.len(), 2);
        assert!(
            out.apps[1].slowdown > 1.1,
            "slowdown {}",
            out.apps[1].slowdown
        );
        assert!(out.makespan_s > out.apps[0].end_s.min(out.apps[1].end_s));
        assert_eq!(out.decisions.len(), 2);
    }

    #[test]
    fn queueing_defers_admission_until_capacity_frees() {
        // max_concurrent = 1 forces the second app to wait for the
        // first; its admission time is the first one's completion.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(6);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let mut timeline = obs::Timeline::new();
        let out = Scheduler::new(&mut fs, Box::new(RoundRobinServer::default()))
            .max_concurrent(1)
            .trace(&mut timeline)
            .serve(&stream, &factory)
            .unwrap();
        assert!(out.apps[1].wait_s > 0.0, "second app never queued");
        assert_eq!(out.apps[1].admit_s, out.apps[0].end_s);
        assert!(out.apps[1].slowdown > 1.0);
        let kinds: Vec<obs::EventKind> = timeline.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&obs::EventKind::SchedQueued));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == obs::EventKind::SchedReleased)
                .count(),
            2
        );
    }

    #[test]
    fn node_capacity_gates_admission() {
        // Two 24-node apps cannot share the 44-node partition: the
        // second queues even without an explicit concurrency cap.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 24), req(1.0, 24)]).unwrap();
        let factory = RngFactory::new(7);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let max_nodes = fs.platform().compute.max_nodes;
        assert!(max_nodes < 48, "test assumes a partition under 48 nodes");
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps[1].admit_s, out.apps[0].end_s);
    }

    #[test]
    fn impossible_requests_are_a_typed_error() {
        let factory = RngFactory::new(8);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let max_nodes = fs.platform().compute.max_nodes;
        let stream = ArrivalStream::from_trace(vec![req(0.0, max_nodes + 1)]).unwrap();
        let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap_err();
        assert!(matches!(err, SchedError::Unschedulable { app: 0, .. }));

        let mut fs = deploy(ChooserKind::RoundRobin);
        let mixed = ArrivalStream::from_trace(vec![
            req(0.0, 4),
            AppRequest {
                config: IorConfig::paper_default(4).with_ppn(16),
                ..req(1.0, 4)
            },
        ])
        .unwrap();
        let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&mixed, &factory)
            .unwrap_err();
        assert!(matches!(err, SchedError::MixedWorkload { app: 1 }));
    }

    #[test]
    fn fault_evicts_target_and_policy_replaces_it() {
        // Target 0 dies mid-run and never recovers; the first placement
        // (cold-start LeastLoadedServer includes target 0) stalls past
        // the retry deadline, so the scheduler must evict t0, re-place,
        // and succeed without it.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(9);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(0.5, TargetId(0)).unwrap();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .faults(plan)
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .serve(&stream, &factory)
            .unwrap();
        let last = out.decisions.last().unwrap();
        assert!(last.replaced, "decision was not re-placed");
        assert!(!last.targets.contains(&0), "dead target still allocated");
        assert!(!out.apps[0].targets.contains(&TargetId(0)));
    }

    #[test]
    fn utilization_feedback_learns_from_committed_runs() {
        // After the first app lands, the second's placement must avoid
        // reusing the hottest targets blindly: its allocation stays
        // server-balanced or disjoint, never a (4,0)/(0,4) pile-up on
        // the busier server.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(10);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(UtilizationFeedback))
            .serve(&stream, &factory)
            .unwrap();
        let platform = presets::plafrim_ethernet();
        let counts = platform.per_server_counts(&out.apps[1].targets);
        let spread = counts.iter().filter(|&&c| c > 0).count();
        assert!(spread >= 1 && out.apps[1].targets.len() == 4, "{counts:?}");
    }

    /// A scenario-2 request big enough for mid-run faults to land
    /// inside its I/O window (~2.7 s).
    fn req_s2(arrival_s: f64) -> AppRequest {
        AppRequest {
            arrival_s,
            config: IorConfig::paper_default(8),
            stripe: 4,
        }
    }

    #[test]
    fn hedged_scheduler_quarantines_flagged_targets() {
        // App 0's measurement run meets a transient straggler on target
        // 0; the hedging detector flags it, and the straggler-aware
        // policy must keep app 1 (arriving long after recovery, with no
        // live telemetry pointing at t0) off the suspect target.
        let stream = ArrivalStream::from_trace(vec![req_s2(0.0), req_s2(10_000.0)]).unwrap();
        let factory = RngFactory::new(21);
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let mut fs = deploy_s2();
        let out = Scheduler::new(&mut fs, Box::new(StragglerAware))
            .faults(plan)
            .hedge(ior::HedgeConfig::default())
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps.len(), 2);
        assert!(
            out.decisions[0].targets.contains(&0),
            "cold start should have used t0: {:?}",
            out.decisions[0].targets
        );
        assert!(
            !out.decisions[1].targets.contains(&0),
            "suspected target re-used: {:?}",
            out.decisions[1].targets
        );
    }

    #[test]
    fn hedged_decision_log_is_deterministic() {
        // Same seed, same stream, same faults: two hedged sessions must
        // produce byte-identical decision logs (detection consumes no
        // randomness and flag refreshes are event-ordered).
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let serve = || {
            let stream =
                ArrivalStream::from_trace(vec![req_s2(0.0), req_s2(1.0), req_s2(2.0)]).unwrap();
            let factory = RngFactory::new(22);
            let mut fs = deploy_s2();
            Scheduler::new(&mut fs, Box::new(StragglerAware))
                .faults(plan.clone())
                .hedge(ior::HedgeConfig::default())
                .serve(&stream, &factory)
                .unwrap()
                .decision_log_json()
        };
        assert_eq!(serve(), serve());
    }

    #[test]
    fn metrics_capture_queueing_and_decisions() {
        // max_concurrent = 1: the second and third apps queue, so the
        // depth histogram must have seen a nonzero depth, and decision
        // counts must equal the committed log.
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4), req(2.0, 4)]).unwrap();
        let factory = RngFactory::new(30);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let mut reg = obs::metrics::MetricsRegistry::new();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .max_concurrent(1)
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(reg.counter("sched.admissions"), 3);
        assert_eq!(reg.counter("sched.queued"), 2);
        assert_eq!(
            reg.counter("sched.decisions.LeastLoadedServer"),
            out.decisions.len() as u64
        );
        let depth = reg.histogram("sched.queue_depth").unwrap();
        assert!(depth.quantile(1.0) >= 2.0, "never saw a depth-2 queue");
        let waits = reg.histogram("sched.wait_s").unwrap();
        assert_eq!(waits.count(), 3);
        assert!(waits.quantile(1.0) > 0.0, "queued apps waited");
        // Measurement + solo sim work both accounted, and together they
        // reproduce the outcome's total event count.
        assert_eq!(reg.counter("sched.measurement_runs"), 3);
        assert_eq!(
            reg.counter("sched.measurement_sim_events") + reg.counter("sched.solo_sim_events"),
            out.sim_events
        );
        assert_eq!(reg.counter("sched.evictions"), 0);
    }

    #[test]
    fn metrics_count_fault_evictions() {
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(9);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(0.5, TargetId(0)).unwrap();
        let mut reg = obs::metrics::MetricsRegistry::new();
        Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .faults(plan)
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert!(reg.counter("sched.evictions") >= 1);
        assert!(reg.counter("sched.measurement_runs") >= 2, "retry happened");
    }

    #[test]
    fn slowdown_quantiles_are_ordered() {
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4), req(2.0, 4)]).unwrap();
        let factory = RngFactory::new(11);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        let p50 = out.slowdown_quantile(0.5);
        let p99 = out.slowdown_quantile(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(out.mean_slowdown() >= 1.0);
        assert!(!out.decision_log_json().is_empty());
    }
}
