//! The benchmark engine: executing one or more applications against a
//! simulated BeeGFS deployment.
//!
//! One *run* = sample the run's noise, create the file(s), build the
//! platform fabric, emit one flow per (process, target) pair, and let the
//! fluid simulation drain them. The engine supports a single application
//! (paper §IV-A..C) and several concurrent ones on disjoint node sets
//! (§IV-D).
//!
//! The primary entry point is the [`Run`] builder:
//!
//! ```
//! use beegfs_core::{plafrim_registration_order, BeeGfs, DirConfig};
//! use cluster::presets;
//! use ior::{IorConfig, Run};
//! use simcore::rng::RngFactory;
//!
//! let mut fs = BeeGfs::new(
//!     presets::plafrim_ethernet(),
//!     DirConfig::plafrim_default(),
//!     plafrim_registration_order(),
//! );
//! let mut rng = RngFactory::new(42).stream("doc", 0);
//! let (out, telemetry) = Run::new(&mut fs)
//!     .app(IorConfig::paper_default(8))
//!     .execute(&mut rng)?;
//! assert!(out.try_single()?.bandwidth.mib_per_sec() > 0.0);
//! assert!(telemetry.try_busiest()?.bytes > 0.0);
//! # Ok::<(), ior::RunError>(())
//! ```
//!
//! Runs can also carry a [`FaultPlan`]: mid-run
//! target outages, degradations and link faults are compiled into
//! scheduled capacity changes inside the fluid simulation, with the
//! management service's heartbeat interval and the client
//! [`RetryPolicy`] deciding when stalled writes resume — or whether the
//! run fails with [`RunError::TargetUnavailable`].
//!
//! Applications need not all start at `t = 0`: an [`AppSpec`] carries a
//! simulated start time ([`AppSpec::starting_at`]), which is how an
//! external scheduler models arrivals that join a run already in flight.

use crate::config::{FileLayout, IorConfig};
use crate::error::{PolicyError, RunError};
use crate::faults::{compound_target_states, FaultTimeline};
use crate::hedge::{Detector, CHUNKS};
use crate::plan::{write_plan, WriteFlow};
use crate::telemetry::UtilizationReport;
use beegfs_core::{Allocation, BeeGfs, FaultPlan, FileHandle};
use cluster::{ComputeSpec, Fabric, FabricNoise, FabricPaths, TargetId};
use iostats::agg::{aggregate_bandwidth, AppInterval};
use serde::{Deserialize, Serialize};
use simcore::dist::LogNormal;
use simcore::flow::{FluidSim, SimArena};
use simcore::rng::StreamRng;
use simcore::time::SimTime;
use simcore::units::Bandwidth;

/// Most retry probes a [`RetryPolicy`] may need to span its deadline.
const MAX_PROBES: usize = 1 << 16;

/// Client-side retry behaviour for writes that hit a dead target.
///
/// When a target goes offline mid-run, clients keep issuing writes until
/// the management service's next heartbeat tells them otherwise (the
/// detection delay); from then on they probe the target with truncated
/// exponential backoff. A write resumes at the first probe that finds
/// the target back, and the whole run fails with
/// [`RunError::TargetUnavailable`] once a target stays unreachable past
/// `deadline_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// First backoff step after the outage is observed, seconds.
    pub initial_backoff_s: f64,
    /// Multiplier applied to the backoff after every failed probe.
    pub backoff_multiplier: f64,
    /// Upper bound on a single backoff step, seconds.
    pub max_backoff_s: f64,
    /// Give-up deadline, seconds since the outage began: if no probe has
    /// succeeded by then, the write is abandoned and the run fails.
    pub deadline_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff_s: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_s: 8.0,
            deadline_s: 60.0,
        }
    }
}

impl RetryPolicy {
    /// Validate the policy's numeric ranges.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if !(self.initial_backoff_s.is_finite() && self.initial_backoff_s > 0.0) {
            return Err(PolicyError::InvalidBackoff(self.initial_backoff_s));
        }
        if !(self.backoff_multiplier.is_finite() && self.backoff_multiplier >= 1.0) {
            return Err(PolicyError::InvalidMultiplier(self.backoff_multiplier));
        }
        if !(self.max_backoff_s.is_finite() && self.max_backoff_s >= self.initial_backoff_s) {
            return Err(PolicyError::InvalidMaxBackoff(self.max_backoff_s));
        }
        if !(self.deadline_s.is_finite() && self.deadline_s > 0.0) {
            return Err(PolicyError::InvalidDeadline(self.deadline_s));
        }
        // A backoff too small to move the probe clock would never reach
        // the deadline: bound the probes a deadline may take.
        let reaches = self
            .probes(0.0)
            .take(MAX_PROBES)
            .any(|p| p >= self.deadline_s);
        if !reaches {
            return Err(PolicyError::TooManyProbes(self.deadline_s));
        }
        Ok(())
    }

    /// The probe ladder of a client that observed an outage at
    /// `observe_s`: `observe_s + b`, then each step the previous one
    /// times the multiplier, capped at `max_backoff_s`.
    ///
    /// Late in a long session a step can fall below half an ulp of the
    /// probe clock, so adding it leaves the probe where it was. While
    /// the backoff still grows such a stall is temporary; once it has
    /// stopped growing the ladder would repeat one instant forever, so
    /// that step moves the probe one ulp on instead. Every ladder that
    /// advances on its own keeps its arithmetic bit for bit.
    fn probes(self, observe_s: f64) -> impl Iterator<Item = f64> {
        let (mut probe, mut backoff) = (observe_s, self.initial_backoff_s);
        std::iter::from_fn(move || {
            let next = probe + backoff;
            let grown = (backoff * self.backoff_multiplier).min(self.max_backoff_s);
            probe = if next == probe && grown == backoff {
                probe.next_up()
            } else {
                next
            };
            backoff = grown;
            Some(probe)
        })
    }

    /// The instant a stalled write resumes, given that the client
    /// observed the outage at `observe_s` and the target physically
    /// recovered at `recovery_s`.
    ///
    /// If recovery beat the observation (a blip shorter than one
    /// heartbeat), the client never stopped writing and the flow resumes
    /// the moment the target is back. Otherwise the client probes at
    /// `observe_s + b, observe_s + b + b*m, ...` (truncated at
    /// `max_backoff_s`) and the write resumes at the first probe at or
    /// after `recovery_s`.
    pub fn resume_time_s(&self, observe_s: f64, recovery_s: f64) -> f64 {
        if recovery_s <= observe_s {
            return recovery_s;
        }
        let mut ladder = self.probes(observe_s);
        let mut probe = observe_s;
        while probe < recovery_s {
            probe = ladder.next().expect("the probe ladder is unbounded");
        }
        probe
    }

    /// Every probe instant at or before `limit_s`, for a client that
    /// observed an outage at `observe_s`.
    ///
    /// Replays exactly the arithmetic of [`RetryPolicy::resume_time_s`],
    /// so with `limit_s` set to that method's return value the last
    /// element *is* the successful probe (bit-for-bit) and everything
    /// before it is a failed probe — which is how the runner turns the
    /// closed-form resume time into a retry event timeline.
    pub fn probe_times(&self, observe_s: f64, limit_s: f64) -> Vec<f64> {
        if !limit_s.is_finite() {
            return Vec::new();
        }
        self.probes(observe_s)
            .take_while(|&p| p <= limit_s)
            .collect()
    }
}

/// What the straggler detector saw and did during one hedged run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HedgeReport {
    /// Targets flagged as stragglers, in first-flag order.
    pub flagged: Vec<TargetId>,
    /// Redirect decisions taken (a stream counts again if its new
    /// target is later flagged too).
    pub redirects: u32,
    /// Chunk-rate samples the detector consumed.
    pub samples: u64,
}

/// Who picks an application's storage targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Defer to the deployment's directory configuration — the file
    /// system's own chooser picks at create time.
    Deferred,
    /// Pin the exact target list: a scheduler's pick, or an experiment
    /// that controls allocation (e.g. Fig. 13's shared-vs-disjoint
    /// comparison).
    Pinned(Vec<TargetId>),
}

/// One application within a run: its benchmark parameters and how its
/// file(s) pick their storage targets.
///
/// The common case — let the deployment's directory configuration pick —
/// converts straight from an [`IorConfig`]:
///
/// ```
/// use ior::{AppSpec, IorConfig, Placement};
///
/// let spec: AppSpec = IorConfig::paper_default(8).into();
/// assert_eq!(spec.targets, Placement::Deferred);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// The benchmark parameters.
    pub config: IorConfig,
    /// How the application's file(s) pick their targets.
    pub targets: Placement,
    /// Simulated instant at which the application's I/O begins, seconds.
    /// Defaults to `0.0` (all applications start together); an external
    /// scheduler staggers arrivals by setting this per app.
    pub start_s: f64,
}

impl AppSpec {
    /// An application using the deployment's directory configuration.
    pub fn new(config: IorConfig) -> Self {
        AppSpec {
            config,
            targets: Placement::Deferred,
            start_s: 0.0,
        }
    }

    /// An application pinned to an exact target list.
    pub fn pinned(config: IorConfig, targets: Vec<TargetId>) -> Self {
        AppSpec {
            config,
            targets: Placement::Pinned(targets),
            start_s: 0.0,
        }
    }

    /// Start the application's I/O at `start_s` seconds of simulated
    /// time instead of `0.0`.
    pub fn starting_at(mut self, start_s: f64) -> Self {
        self.start_s = start_s;
        self
    }
}

impl From<IorConfig> for AppSpec {
    fn from(config: IorConfig) -> Self {
        AppSpec::new(config)
    }
}

impl From<(IorConfig, Placement)> for AppSpec {
    fn from((config, targets): (IorConfig, Placement)) -> Self {
        AppSpec {
            config,
            targets,
            start_s: 0.0,
        }
    }
}

/// Builder for one run: applications, optional fault timeline, retry
/// policy, optional event recorder. This is the primary entry point of
/// the engine; see the [module docs](self) for an example.
///
/// `execute` consumes the builder and returns both the [`RunOutcome`]
/// and the run's [`UtilizationReport`] telemetry.
pub struct Run<'fs, 'r> {
    fs: &'fs mut BeeGfs,
    apps: Vec<AppSpec>,
    faults: FaultPlan,
    policy: RetryPolicy,
    hedge: bool,
    recorder: Option<&'r mut dyn obs::Recorder>,
    arena: Option<&'r mut SimArena>,
    metrics: Option<&'r mut obs::metrics::MetricsRegistry>,
}

impl std::fmt::Debug for Run<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("apps", &self.apps)
            .field("faults", &self.faults)
            .field("policy", &self.policy)
            .field("hedge", &self.hedge)
            .field("tracing", &self.recorder.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish_non_exhaustive()
    }
}

impl<'fs, 'r> Run<'fs, 'r> {
    /// Start building a run against a deployment.
    pub fn new(fs: &'fs mut BeeGfs) -> Self {
        Run {
            fs,
            apps: Vec::new(),
            faults: FaultPlan::new(),
            policy: RetryPolicy::default(),
            hedge: false,
            recorder: None,
            arena: None,
            metrics: None,
        }
    }

    /// Add one application (call repeatedly for concurrent runs; app `i`
    /// occupies the compute nodes after app `i-1`'s).
    pub fn app(mut self, spec: impl Into<AppSpec>) -> Self {
        self.apps.push(spec.into());
        self
    }

    /// Add several applications at once.
    pub fn apps<I>(mut self, specs: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<AppSpec>,
    {
        self.apps.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Apply a mid-run fault timeline to the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the client retry/backoff policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable client-side straggler detection and write hedging: each
    /// (process, target) stream writes in four sequential chunks, and a
    /// target with two or more finished chunks whose mean chunk rate
    /// falls below half the median (nearest rank) of all such targets'
    /// mean rates is flagged for the rest of the run. Streams on it send
    /// their remaining chunks to the fastest sampled unflagged target of
    /// their file, at most 32 times a run; the outcome carries a
    /// [`HedgeReport`]. Detection draws no randomness, so hedged and
    /// plain runs of one seed share every noise draw. Off by default.
    pub fn hedge(mut self) -> Self {
        self.hedge = true;
        self
    }

    /// Stream the run's structured events into a recorder (e.g. an
    /// [`obs::Timeline`]): fault transitions, client stall/retry
    /// attempts, per-flow start/end with (app, process, target)
    /// identity, per-resource rate changes, and phase spans. Timestamps
    /// are sim-time, so a traced run is exactly reproducible.
    pub fn trace(mut self, recorder: &'r mut dyn obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Accumulate aggregate run metrics into a
    /// [`MetricsRegistry`](obs::metrics::MetricsRegistry): client
    /// stall/retry/backoff counts, hedge detector activity, per-target
    /// byte and chunk distributions (`ior.*`), and the simulation's own
    /// introspection counters (`sim.*` — solves, dirty-component sizes,
    /// event-heap traffic). Off by default; a run without a registry
    /// attached skips every metric site behind one `Option` check, and an
    /// attached registry never changes results — metric values are pure
    /// functions of the deterministic run.
    pub fn metrics(mut self, registry: &'r mut obs::metrics::MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Reuse simulation buffers (event heap, solver scratch, bookkeeping
    /// vectors) from a [`SimArena`] and return them to it when the run
    /// ends. Rep loops that execute many runs back-to-back keep one
    /// arena alive so warmed-up runs allocate nothing; results are
    /// identical with or without an arena.
    pub fn arena(mut self, arena: &'r mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Execute the run, consuming one deterministic RNG stream.
    pub fn execute(self, rng: &mut StreamRng) -> Result<(RunOutcome, UtilizationReport), RunError> {
        execute_run(self, rng)
    }
}

/// One application's outcome within a run.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Aggregate write bandwidth of this application (bytes over its own
    /// wall time including the fixed overhead).
    pub bandwidth: Bandwidth,
    /// Wall time of the application in seconds (I/O + overhead).
    pub duration_s: f64,
    /// Bytes written.
    pub bytes: u64,
    /// Target list of each file the application created (one entry for
    /// N-1; `processes()` entries for N-N).
    pub file_targets: Vec<Vec<TargetId>>,
    /// Allocation classification of the first file.
    pub allocation: Allocation,
    /// The sampled fixed overhead (create + open + barrier), seconds.
    pub overhead_s: f64,
}

/// Outcome of a whole run (one or more concurrent applications).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-application results, in submission order.
    pub apps: Vec<AppResult>,
    /// Equation-1 aggregate bandwidth over all applications.
    pub aggregate: Bandwidth,
    /// Simulation events processed (flow starts, scheduled factor
    /// changes, completions) — the run's "how much simulation happened"
    /// cost metric, counted whether or not tracing was enabled.
    pub sim_events: u64,
    /// What the straggler detector saw, for hedged runs ([`Run::hedge`]);
    /// `None` when hedging was off.
    pub hedge: Option<HedgeReport>,
}

impl RunOutcome {
    /// The single application's result (convenience for single-app runs),
    /// or [`RunError::NotSingleApp`] if the run had several.
    pub fn try_single(&self) -> Result<&AppResult, RunError> {
        match self.apps.as_slice() {
            [app] => Ok(app),
            apps => Err(RunError::NotSingleApp { apps: apps.len() }),
        }
    }
}

/// The engine behind [`Run::execute`]: one run of several concurrent
/// applications under a mid-run [`FaultPlan`], with client retry/backoff
/// behaviour governed by the run's policy and the detection delay by the
/// management service's heartbeat interval.
///
/// The plan is compiled by [`FaultTimeline::compile`] into scheduled
/// capacity changes before the simulation drains; a write stalled on an
/// abandoned outage fails the run with [`RunError::TargetUnavailable`].
///
/// The deployment's *pre-run* target states (set via
/// [`BeeGfs::set_target_state`]) still apply from `t = 0`; the plan only
/// describes what changes mid-run. The `fs` management state is not
/// mutated by the plan — a run simulates the timeline, it does not
/// commit it (see [`FaultPlan::final_target_state`] to apply the
/// aftermath explicitly).
fn execute_run(
    run: Run<'_, '_>,
    rng: &mut StreamRng,
) -> Result<(RunOutcome, UtilizationReport), RunError> {
    /// Seconds to sim-time nanoseconds, the timestamp unit of the trace.
    fn ns(s: f64) -> u64 {
        SimTime::from_secs_f64(s).as_nanos()
    }
    let Run {
        fs,
        apps,
        faults: plan,
        policy,
        hedge,
        mut recorder,
        mut arena,
        mut metrics,
    } = run;
    if apps.is_empty() {
        return Err(RunError::NoApplications);
    }
    for (i, spec) in apps.iter().enumerate() {
        spec.config.validate()?;
        if SimTime::try_from_secs_f64(spec.start_s).is_none() {
            return Err(RunError::InvalidStartTime {
                app: i,
                start_s: spec.start_s,
            });
        }
    }
    let ppn = apps[0].config.ppn;
    if !apps.iter().all(|s| s.config.ppn == ppn) {
        return Err(RunError::MixedPpn);
    }
    let mode = apps[0].config.mode;
    if !apps.iter().all(|s| s.config.mode == mode) {
        return Err(RunError::MixedMode);
    }
    let total_nodes: usize = apps.iter().map(|s| s.config.nodes).sum();

    let available = fs.platform().compute.max_nodes;
    if total_nodes > available {
        return Err(RunError::Oversubscribed {
            requested: total_nodes,
            available,
        });
    }
    let timeline = FaultTimeline::compile(fs, &plan, &policy)?;
    // Model the unknown interleaving with other tenants between runs.
    fs.randomize_selection_state(rng);

    // --- sample this run's noise and overheads -------------------------
    let noise = FabricNoise::sample(fs.platform(), rng);
    let overhead_mean_s = fs.platform().run_overhead_mean_s;
    let overhead_dist = LogNormal::unit_mean(fs.platform().run_overhead_sigma);

    // --- create files ---------------------------------------------------
    let mut plans = Vec::with_capacity(apps.len());
    let mut node_base = 0usize;
    let mut first_create = true;
    for spec in &apps {
        let (cfg, choice) = (&spec.config, &spec.targets);
        let n_files = match cfg.layout {
            FileLayout::SharedFile => 1,
            FileLayout::FilePerProcess => cfg.processes(),
        };
        let mut files = Vec::with_capacity(n_files);
        let mut create_s = 0.0;
        for _ in 0..n_files {
            // Other tenants keep creating files while the applications
            // set up, shifting the round-robin cursor between creates.
            if !first_create {
                fs.simulate_tenant_churn(rng);
            }
            first_create = false;
            let (file, latency) = match choice {
                Placement::Deferred => fs.create_file(rng)?,
                Placement::Pinned(targets) => fs.create_file_on(targets.clone())?,
            };
            create_s += latency.as_secs_f64();
            files.push(file);
        }
        let overhead_s = create_s + overhead_mean_s * overhead_dist.sample(rng);
        plans.push(AppPlan {
            cfg: *cfg,
            files,
            nodes: (node_base..node_base + cfg.nodes).collect(),
            overhead_s,
            start_s: spec.start_s,
        });
        node_base += cfg.nodes;
    }

    // --- build the fabric and start the writes --------------------------
    // The deployment is only read from here on.
    let platform = fs.platform();
    let fabric = Fabric::build_for(platform, total_nodes, ppn, &noise, mode);
    let (mut net, paths) = fabric.into_parts();
    let base = compound_target_states(fs, &mut net, &paths);

    let mut sim = match arena.as_deref_mut() {
        Some(a) => FluidSim::with_arena(net, a),
        None => FluidSim::new(net),
    };
    if metrics.is_some() {
        sim.enable_metrics();
    }

    // The plan's physical timeline goes into the trace as-is, followed by
    // the client-visible side of every outage: the stall observed one
    // heartbeat in, each failed probe, then the resume or the abandon.
    if let Some(rec) = recorder.as_deref_mut() {
        plan.record_into(rec);
    }
    timeline.schedule(&mut sim, &paths, &base);
    for o in &timeline.outages {
        // A resumed outage's last probe is the successful one.
        let probes = policy.probe_times(o.observe_s, o.end_s);
        let failed = probes.len() - usize::from(o.resumed && !probes.is_empty());
        if let Some(reg) = metrics.as_deref_mut() {
            reg.inc("ior.stalls_observed");
            if !o.resumed {
                reg.inc("ior.retries_abandoned");
            }
            reg.add("ior.retry_probes", failed as u64);
            let mut prev = o.observe_s;
            for &p in &probes {
                reg.observe("ior.backoff_wait_s", p - prev);
                prev = p;
            }
        }
        if let Some(rec) = recorder.as_deref_mut() {
            let (at, target) = (ns(o.end_s), o.target.0);
            rec.record(obs::Event::StallObserved {
                at: ns(o.observe_s),
                target,
            });
            for (k, &p) in probes[..failed].iter().enumerate() {
                rec.record(obs::Event::RetryProbe {
                    at: ns(p),
                    target,
                    attempt: (k + 1) as u32,
                });
            }
            rec.record(if o.resumed {
                obs::Event::RetryResumed {
                    at,
                    target,
                    attempts: failed as u32,
                }
            } else {
                obs::Event::RetryAbandoned { at, target }
            });
        }
    }
    // A hedged run writes each stream in chunks; the drain issues all
    // but the first. A process writes one stream per stripe slot of its
    // file at most, so both tables are sized once.
    let chunks = if hedge { CHUNKS } else { 1 };
    let max_streams: usize = plans
        .iter()
        .map(|p| {
            let widest = p.files.iter().map(|f| f.pattern.stripe_count);
            p.cfg.processes() * widest.max().unwrap_or(0) as usize
        })
        .sum();
    let mut flows = Flows {
        paths,
        streams: Vec::with_capacity(max_streams),
        stream_of: Vec::with_capacity(max_streams * chunks as usize),
        totals: vec![(0.0, 0); platform.total_targets()],
    };
    let rec = recorder.as_deref_mut();
    flows.start_apps(&mut sim, &plans, &platform.compute, chunks, rec);

    // --- drain and account ----------------------------------------------
    // From here the simulation emits flow/rate events itself; the
    // recorder is reborrowed by the sim until it is dropped below.
    if let Some(rec) = recorder.as_deref_mut() {
        sim.set_recorder(rec);
    }
    let mut app_end_s = vec![0.0f64; plans.len()];
    // A hedged run feeds every finished chunk to the straggler detector
    // and issues the stream's next chunk, away from a flagged target.
    let mut detector = hedge.then(|| Detector::new(platform.total_targets()));
    loop {
        match sim.try_next_completion() {
            Ok(Some(done)) => {
                let (app, end_s) = (done.tag as usize, done.time.as_secs_f64());
                app_end_s[app] = app_end_s[app].max(end_s);
                let (Some(&si), Some(det)) =
                    (flows.stream_of.get(done.flow.index()), detector.as_mut())
                else {
                    continue;
                };
                let s = flows.streams[si];
                let (at, from) = (done.time.as_nanos(), s.flow.target);
                for (t, mean_bps) in det.observe(from, s.chunk_bytes, end_s - s.started_s) {
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("ior.hedge.flags");
                    }
                    if let Some(rec) = sim.recorder_mut() {
                        rec.record(obs::Event::HedgeFlagged {
                            at,
                            target: t.0,
                            mean_bps,
                        });
                    }
                }
                if s.remaining == 0 {
                    continue;
                }
                let to = det.redirect(&plans[s.app].files[s.flow.file].targets, from);
                if to != from {
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("ior.hedge.redirects");
                    }
                    if let Some(rec) = sim.recorder_mut() {
                        rec.record(obs::Event::HedgeRedirect {
                            at,
                            app: s.app as u32,
                            process: s.flow.process as u32,
                            from: from.0,
                            to: to.0,
                        });
                    }
                }
                let s = &mut flows.streams[si];
                (s.flow.target, s.started_s) = (to, end_s);
                let meta = flows.issue(&mut sim, si, done.time);
                if let Some(rec) = sim.recorder_mut() {
                    rec.record(meta);
                }
            }
            Ok(None) => break,
            Err(stall) => {
                // Stalled flows sit on a target whose outage was never
                // survivably resolved; report the earliest such outage.
                let dead = stall
                    .flows
                    .iter()
                    .map(|f| flows.streams[flows.stream_of[f.index()]].flow.target)
                    .filter_map(|t| {
                        let o = timeline
                            .outages
                            .iter()
                            .find(|o| o.target == t && !o.resumed)?;
                        Some((o.start_s, t))
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                return Err(match dead {
                    Some((outage_start_s, target)) => RunError::TargetUnavailable {
                        target,
                        outage_start_s,
                        stalled_at_s: stall.at.as_secs_f64(),
                    },
                    // A zero-capacity stall the fault model does not
                    // explain (e.g. a pre-run offline target that was
                    // still written): surface it instead of assuming it
                    // cannot happen.
                    None => RunError::Stalled(stall),
                });
            }
        }
    }
    let io_secs = sim.now().as_secs_f64();
    let report = UtilizationReport::from_network(sim.network(), io_secs);
    let sim_events = sim.events_processed();
    let hedge_report = detector.map(Detector::report);
    // Harvest aggregate metrics before the sim is recycled or dropped.
    // Iteration over targets is index-ascending, but the histograms are
    // order-independent anyway — any harvest order yields byte-identical
    // snapshots.
    if let Some(reg) = metrics.as_deref_mut() {
        reg.inc("ior.runs");
        reg.add("ior.apps", plans.len() as u64);
        sim.metrics_into(reg);
        if let Some(h) = &hedge_report {
            reg.add("ior.hedge.samples", h.samples);
        }
        for &(bytes, chunks) in flows.totals.iter().filter(|t| t.1 > 0) {
            reg.observe("ior.target_bytes", bytes);
            reg.observe("ior.target_chunks", chunks as f64);
        }
    }
    // Release the sim's reborrow of the recorder so the phase spans can
    // be emitted directly below; with an arena attached, hand the sim's
    // buffers back for the next run instead of freeing them.
    match arena {
        Some(a) => {
            // A counter, not `a.uses()`: thread-local arenas outlive the
            // run, so their cumulative use count depends on how a thread
            // pool distributed earlier runs — this stays deterministic.
            sim.recycle_into(&mut *a);
            if let Some(reg) = metrics {
                reg.inc("sim.arena.recycles");
            }
        }
        None => drop(sim),
    }
    if let Some(rec) = recorder.as_deref_mut() {
        rec.record(obs::Event::Span {
            name: "io".to_string(),
            start: 0,
            end: ns(io_secs),
        });
    }

    let mut results = Vec::with_capacity(plans.len());
    let mut intervals = Vec::with_capacity(plans.len());
    for (app_idx, (app_plan, &io_end)) in plans.iter().zip(&app_end_s).enumerate() {
        if io_end <= app_plan.start_s {
            return Err(RunError::NoIoAccounted { app: app_idx });
        }
        // Duration is the app's own wall time, from *its* start.
        let duration_s = io_end - app_plan.start_s + app_plan.overhead_s;
        let bytes = app_plan.cfg.effective_total_bytes();
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(obs::Event::Span {
                name: format!("app{app_idx}.io"),
                start: ns(app_plan.start_s),
                end: ns(io_end),
            });
            rec.record(obs::Event::Span {
                name: format!("app{app_idx}.overhead"),
                start: ns(io_end),
                end: ns(io_end + app_plan.overhead_s),
            });
        }
        intervals.push(AppInterval {
            start_s: app_plan.start_s,
            end_s: app_plan.start_s + duration_s,
            volume_bytes: bytes,
        });
        results.push(AppResult {
            bandwidth: Bandwidth::from_bytes_per_sec(bytes as f64 / duration_s),
            duration_s,
            bytes,
            file_targets: app_plan.files.iter().map(|f| f.targets.clone()).collect(),
            allocation: Allocation::classify(platform, &app_plan.files[0].targets),
            overhead_s: app_plan.overhead_s,
        });
    }

    let aggregate = Bandwidth::from_bytes_per_sec(aggregate_bandwidth(&intervals));
    Ok((
        RunOutcome {
            apps: results,
            aggregate,
            sim_events,
            hedge: hedge_report,
        },
        report,
    ))
}

/// One application of a run, its files created.
struct AppPlan {
    cfg: IorConfig,
    files: Vec<FileHandle>,
    nodes: Vec<usize>,
    overhead_s: f64,
    start_s: f64,
}

/// One (process, target) write stream: its planned flow, now aimed at
/// `flow.target`, written in chunks of `chunk_bytes` (one unless hedged).
#[derive(Clone, Copy)]
struct ChunkStream {
    app: usize,
    flow: WriteFlow,
    chunk_bytes: f64,
    /// Chunks not yet issued.
    remaining: u32,
    /// Start of the chunk in flight, seconds.
    started_s: f64,
}

/// A run's write streams on its fabric's write paths, the stream of each
/// flow, and per-target `(bytes, flows)` totals for `ior.target_*`.
struct Flows {
    paths: FabricPaths,
    streams: Vec<ChunkStream>,
    /// Stream of each flow, indexed by `FlowId`: the run's fresh network
    /// numbers its flows 0, 1, 2, … in registration order.
    stream_of: Vec<usize>,
    totals: Vec<(f64, u64)>,
}

impl Flows {
    /// Start every application's write plan at its start instant, as
    /// streams of `chunks` chunks each: their first chunks.
    fn start_apps(
        &mut self,
        sim: &mut FluidSim<'_>,
        plans: &[AppPlan],
        compute: &ComputeSpec,
        chunks: u32,
        mut recorder: Option<&mut (dyn obs::Recorder + '_)>,
    ) {
        for (app, plan) in plans.iter().enumerate() {
            let (at, started_s) = (SimTime::from_secs_f64(plan.start_s), plan.start_s);
            for flow in write_plan(&plan.cfg, &plan.files, &plan.nodes, compute) {
                let chunk_bytes = flow.bytes as f64 / f64::from(chunks);
                self.streams.push(ChunkStream {
                    app,
                    flow,
                    chunk_bytes,
                    remaining: chunks,
                    started_s,
                });
                let meta = self.issue(sim, self.streams.len() - 1, at);
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record(meta);
                }
            }
        }
    }

    /// Start stream `si`'s next chunk at `at`, count it against its
    /// target, and return its identity event.
    fn issue(&mut self, sim: &mut FluidSim<'_>, si: usize, at: SimTime) -> obs::Event {
        let s = &mut self.streams[si];
        s.remaining -= 1;
        let (app, flow) = (s.app, s.flow);
        let path = self.paths.write_path(flow.node, flow.target);
        let id = sim.start_weighted_flow_at(at, path, s.chunk_bytes, app as u64, flow.weight);
        debug_assert_eq!(id.index(), self.stream_of.len(), "flows number from 0");
        self.stream_of.push(si);
        let total = &mut self.totals[flow.target.index()];
        *total = (total.0 + s.chunk_bytes, total.1 + 1);
        obs::Event::FlowMeta {
            flow: id.index() as u32,
            app: app as u32,
            process: flow.process as u32,
            target: flow.target.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beegfs_core::{plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, StripePattern};
    use cluster::presets;
    use simcore::rng::RngFactory;
    use simcore::units::{GIB, MIB};

    fn plafrim_s1(stripe: u32, chooser: ChooserKind) -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig {
                pattern: StripePattern::new(stripe, 512 * 1024),
                chooser,
            },
            plafrim_registration_order(),
        )
    }

    fn plafrim_s2(stripe: u32, chooser: ChooserKind) -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig {
                pattern: StripePattern::new(stripe, 512 * 1024),
                chooser,
            },
            plafrim_registration_order(),
        )
    }

    fn rng(i: u64) -> StreamRng {
        RngFactory::new(4242).stream("runner-tests", i)
    }

    /// One single-app run through the builder.
    fn single(fs: &mut BeeGfs, cfg: &IorConfig, rng: &mut StreamRng) -> AppResult {
        let (out, _) = Run::new(fs).app(*cfg).execute(rng).unwrap();
        out.try_single().unwrap().clone()
    }

    #[test]
    fn single_run_produces_plausible_scenario1_bandwidth() {
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let app = single(&mut fs, &IorConfig::paper_default(8), &mut rng(0));
        let bw = app.bandwidth.mib_per_sec();
        // (1,3) allocation on two 1100 MiB/s links: ~1450 MiB/s.
        assert!((1200.0..1700.0).contains(&bw), "bandwidth {bw}");
        assert_eq!(app.allocation.label(), "(1,3)");
    }

    #[test]
    fn same_seed_same_result() {
        let cfg = IorConfig::paper_default(4);
        let mut fs1 = plafrim_s2(4, ChooserKind::Random);
        let mut fs2 = plafrim_s2(4, ChooserKind::Random);
        let a = single(&mut fs1, &cfg, &mut rng(7)).bandwidth;
        let b = single(&mut fs2, &cfg, &mut rng(7)).bandwidth;
        assert_eq!(a.bytes_per_sec(), b.bytes_per_sec());
    }

    #[test]
    fn different_seeds_vary() {
        let cfg = IorConfig::paper_default(4);
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let a = single(&mut fs, &cfg, &mut rng(1)).bandwidth;
        let b = single(&mut fs, &cfg, &mut rng(2)).bandwidth;
        assert_ne!(a.bytes_per_sec(), b.bytes_per_sec());
    }

    #[test]
    fn pinned_targets_are_respected() {
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let pinned = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(IorConfig::paper_default(8), pinned.clone()))
            .execute(&mut rng(3))
            .unwrap();
        let app = out.try_single().unwrap();
        assert_eq!(app.file_targets[0], pinned);
        assert_eq!(app.allocation.label(), "(2,2)");
    }

    #[test]
    fn balanced_pinned_beats_round_robin_in_scenario1() {
        // The heart of lesson 4: (2,2) vs the RR-forced (1,3).
        let cfg = IorConfig::paper_default(8);
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let rr = single(&mut fs, &cfg, &mut rng(4)).bandwidth;
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(
                cfg,
                vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
            ))
            .execute(&mut rng(4))
            .unwrap();
        let balanced = out.try_single().unwrap().bandwidth;
        assert!(
            balanced.mib_per_sec() > 1.3 * rr.mib_per_sec(),
            "balanced {balanced} vs round-robin {rr}"
        );
    }

    #[test]
    fn staggered_start_shifts_io_without_distorting_duration() {
        // The same app launched at t=0 and at t=400 (after the t=0 app
        // is long done) must see no contention from each other: each
        // duration matches a solo run to a few percent, and the
        // Equation-1 aggregate spans the whole [0, end-of-late-app]
        // window, so it is far below the per-app bandwidths.
        let cfg = IorConfig {
            total_bytes: GIB,
            ..IorConfig::paper_default(4)
        };
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let solo = single(&mut fs, &cfg, &mut rng(20)).duration_s;
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::new(cfg))
            .app(AppSpec::new(cfg).starting_at(400.0))
            .execute(&mut rng(21))
            .unwrap();
        for app in &out.apps {
            let rel = (app.duration_s - solo).abs() / solo;
            assert!(rel < 0.25, "duration {} vs solo {solo}", app.duration_s);
        }
        let each = out.apps[0].bandwidth.bytes_per_sec();
        assert!(
            out.aggregate.bytes_per_sec() < each / 10.0,
            "aggregate {} should span the idle gap",
            out.aggregate.bytes_per_sec()
        );
    }

    #[test]
    fn overlapping_staggered_apps_contend() {
        // A second app arriving mid-flight slows the first one down
        // relative to a solo run.
        let cfg = IorConfig::paper_default(4);
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let solo = single(&mut fs, &cfg, &mut rng(22)).duration_s;
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::new(cfg))
            .app(AppSpec::new(cfg).starting_at(2.0))
            .execute(&mut rng(23))
            .unwrap();
        assert!(
            out.apps[0].duration_s > 1.2 * solo,
            "first app {} vs solo {solo}: overlap must contend",
            out.apps[0].duration_s
        );
    }

    #[test]
    fn negative_start_time_is_a_typed_error() {
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let err = Run::new(&mut fs)
            .app(AppSpec::new(IorConfig::paper_default(8)).starting_at(-1.0))
            .execute(&mut rng(24))
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidStartTime { app: 0, .. }));
    }

    #[test]
    fn concurrent_apps_report_eq1_aggregate() {
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let cfg = IorConfig::paper_default(8);
        let (out, _) = Run::new(&mut fs)
            .app(cfg)
            .app(cfg)
            .execute(&mut rng(5))
            .unwrap();
        assert_eq!(out.apps.len(), 2);
        assert_eq!(
            out.try_single().unwrap_err(),
            RunError::NotSingleApp { apps: 2 }
        );
        // Aggregate <= sum of individuals, >= max individual.
        let sum: f64 = out.apps.iter().map(|a| a.bandwidth.mib_per_sec()).sum();
        let max = out
            .apps
            .iter()
            .map(|a| a.bandwidth.mib_per_sec())
            .fold(0.0, f64::max);
        let agg = out.aggregate.mib_per_sec();
        assert!(agg <= sum + 1e-6, "agg {agg} sum {sum}");
        assert!(agg >= max - 1e-6, "agg {agg} max {max}");
    }

    #[test]
    fn file_per_process_layout_runs() {
        let mut fs = plafrim_s2(4, ChooserKind::Random);
        let cfg = IorConfig {
            nodes: 2,
            ppn: 4,
            total_bytes: GIB,
            transfer_size: MIB,
            layout: FileLayout::FilePerProcess,
            mode: storage::AccessMode::Write,
        };
        let app = single(&mut fs, &cfg, &mut rng(6));
        assert_eq!(app.file_targets.len(), 8); // one file per process
        assert!(app.bandwidth.mib_per_sec() > 100.0);
    }

    #[test]
    fn degraded_target_slows_the_run() {
        use beegfs_core::TargetState;
        let cfg = IorConfig::paper_default(16).with_total_bytes(32 * GIB);
        let pinned = vec![TargetId(0), TargetId(4)];
        let mut fs = plafrim_s2(2, ChooserKind::RoundRobin);
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .execute(&mut rng(8))
            .unwrap();
        let healthy = out.try_single().unwrap().bandwidth;
        fs.set_target_state(TargetId(0), TargetState::Degraded(0.3))
            .unwrap();
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned))
            .execute(&mut rng(8))
            .unwrap();
        let degraded = out.try_single().unwrap().bandwidth;
        assert!(
            degraded.mib_per_sec() < 0.8 * healthy.mib_per_sec(),
            "degraded {degraded} vs healthy {healthy}"
        );
    }

    #[test]
    fn overhead_hurts_small_transfers_more() {
        // Fig. 2 mechanism: fixed overheads dominate small data sizes.
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let small = single(
            &mut fs,
            &IorConfig::paper_default(4).with_total_bytes(GIB),
            &mut rng(9),
        )
        .bandwidth;
        let large = single(
            &mut fs,
            &IorConfig::paper_default(4).with_total_bytes(32 * GIB),
            &mut rng(9),
        )
        .bandwidth;
        assert!(
            small.mib_per_sec() < large.mib_per_sec(),
            "small {small} vs large {large}"
        );
    }

    #[test]
    fn mixed_ppn_concurrent_rejected() {
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let a = IorConfig::paper_default(2);
        let b = IorConfig::paper_default(2).with_ppn(16);
        let err = Run::new(&mut fs)
            .app(a)
            .app(b)
            .execute(&mut rng(10))
            .unwrap_err();
        assert_eq!(err, RunError::MixedPpn);
        assert!(err.to_string().contains("must share ppn"));
    }

    #[test]
    fn empty_submission_rejected() {
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        assert_eq!(
            Run::new(&mut fs).execute(&mut rng(11)).unwrap_err(),
            RunError::NoApplications
        );
    }

    #[test]
    fn oversubscription_rejected() {
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let max = fs.platform().compute.max_nodes;
        let err = Run::new(&mut fs)
            .app(IorConfig::paper_default(max + 1))
            .execute(&mut rng(12))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::Oversubscribed {
                requested: max + 1,
                available: max
            }
        );
    }

    #[test]
    fn fault_plan_bounds_are_checked() {
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(1.0, TargetId(99)).unwrap();
        let err = Run::new(&mut fs)
            .app(IorConfig::paper_default(4))
            .faults(plan)
            .execute(&mut rng(13))
            .unwrap_err();
        assert_eq!(err, RunError::UnknownFaultTarget(TargetId(99)));
        let plan = FaultPlan::new().link_restored(1.0, 7).unwrap();
        let err = Run::new(&mut fs)
            .app(IorConfig::paper_default(4))
            .faults(plan)
            .execute(&mut rng(13))
            .unwrap_err();
        assert_eq!(err, RunError::UnknownFaultServer(7));
    }

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        let cfg = IorConfig::paper_default(4);
        let mut fs1 = plafrim_s2(4, ChooserKind::Random);
        let mut fs2 = plafrim_s2(4, ChooserKind::Random);
        let plain = single(&mut fs1, &cfg, &mut rng(14));
        let faulted = Run::new(&mut fs2)
            .app(cfg)
            .faults(FaultPlan::new())
            .policy(RetryPolicy::default())
            .execute(&mut rng(14))
            .unwrap()
            .0;
        assert_eq!(
            plain.bandwidth.bytes_per_sec(),
            faulted.try_single().unwrap().bandwidth.bytes_per_sec()
        );
    }

    #[test]
    fn retry_policy_resume_time_probes_with_backoff() {
        let p = RetryPolicy {
            initial_backoff_s: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_s: 4.0,
            deadline_s: 60.0,
        };
        // Probes after observe at +1, +3, +7, +11, +15, ... (cap 4).
        assert_eq!(p.resume_time_s(10.0, 10.5), 11.0);
        assert_eq!(p.resume_time_s(10.0, 12.0), 13.0);
        assert_eq!(p.resume_time_s(10.0, 16.0), 17.0);
        assert_eq!(p.resume_time_s(10.0, 18.0), 21.0);
        // Recovery before the client even noticed: resume immediately.
        assert_eq!(p.resume_time_s(10.0, 9.0), 9.0);
    }

    #[test]
    fn probe_times_replays_resume_arithmetic() {
        let p = RetryPolicy {
            initial_backoff_s: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_s: 4.0,
            deadline_s: 60.0,
        };
        // Same ladder as resume_time_s: 11, 13, 17, 21, ...
        assert_eq!(p.probe_times(10.0, 17.0), vec![11.0, 13.0, 17.0]);
        assert_eq!(p.probe_times(10.0, 16.9), vec![11.0, 13.0]);
        // The last probe equals resume_time_s's result bit-for-bit.
        let resume = p.resume_time_s(10.0, 16.0);
        assert_eq!(p.probe_times(10.0, resume).last(), Some(&resume));
        // Limit before the first probe, or non-finite: no probes.
        assert_eq!(p.probe_times(10.0, 10.5), Vec::<f64>::new());
        assert_eq!(p.probe_times(10.0, f64::INFINITY), Vec::<f64>::new());
    }

    #[test]
    fn a_ladder_below_the_probe_clock_resolution_still_advances() {
        // At 1.5e10 s one ulp is ~1.9e-6 s: a fixed 5e-7 s step rounds
        // away, and the ladder used to repeat its first instant forever.
        let fine = RetryPolicy {
            initial_backoff_s: 5e-7,
            backoff_multiplier: 1.0,
            max_backoff_s: 5e-7,
            deadline_s: 0.03,
        };
        fine.validate().unwrap();
        let observe = 1.5e10;
        let probes = fine.probe_times(observe, observe + 1e-5);
        assert!(!probes.is_empty());
        for (k, p) in probes.iter().enumerate() {
            assert_eq!(p.to_bits(), observe.to_bits() + k as u64 + 1);
        }
        let resume = fine.resume_time_s(observe, observe + 0.015);
        assert!(resume >= observe + 0.015 && resume - observe < 0.0151);

        // A growing backoff that stalls for a few steps advances on its
        // own: that ladder keeps its plain arithmetic.
        let growing = RetryPolicy {
            initial_backoff_s: 5e-7,
            backoff_multiplier: 2.0,
            max_backoff_s: 1.0,
            deadline_s: 60.0,
        };
        let (mut probe, mut backoff, mut plain) = (observe, 5e-7, Vec::new());
        while plain.len() < 24 {
            probe += backoff;
            backoff = (backoff * 2.0f64).min(1.0);
            plain.push(probe);
        }
        assert_eq!(plain[0], observe, "the first steps stall");
        let limit = *plain.last().unwrap();
        assert_eq!(growing.probe_times(observe, limit), plain);
    }

    #[test]
    fn retry_policy_validation() {
        RetryPolicy::default().validate().unwrap();
        let bad = RetryPolicy {
            initial_backoff_s: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(bad.validate(), Err(PolicyError::InvalidBackoff(0.0)));
        let bad = RetryPolicy {
            backoff_multiplier: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(bad.validate(), Err(PolicyError::InvalidMultiplier(0.5)));
        let bad = RetryPolicy {
            max_backoff_s: 0.1,
            ..RetryPolicy::default()
        };
        assert_eq!(bad.validate(), Err(PolicyError::InvalidMaxBackoff(0.1)));
        let bad = RetryPolicy {
            deadline_s: f64::NAN,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(PolicyError::InvalidDeadline(_))
        ));
    }

    #[test]
    fn slow_drift_slows_a_run_gradually() {
        // A drift to 20% over the run is strictly worse than healthy but
        // strictly better than starting the run already degraded to 20%.
        let cfg = IorConfig::paper_default(8);
        let pinned = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
        let run_with = |plan: FaultPlan, seed: u64| {
            let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
            let (out, _) = Run::new(&mut fs)
                .app(AppSpec::pinned(cfg, pinned.clone()))
                .faults(plan)
                .execute(&mut rng(seed))
                .unwrap();
            out.try_single().unwrap().duration_s
        };
        let healthy = run_with(FaultPlan::new(), 50);
        let drift = run_with(
            FaultPlan::new()
                .target_slow_drift(0.2, TargetId(0), 0.2, 1.6)
                .unwrap(),
            50,
        );
        let cliff = run_with(
            FaultPlan::new()
                .target_degraded(0.2, TargetId(0), 0.2)
                .unwrap(),
            50,
        );
        assert!(drift > 1.05 * healthy, "drift {drift} vs healthy {healthy}");
        assert!(drift < cliff, "drift {drift} vs cliff {cliff}");
    }

    #[test]
    fn hedged_run_mitigates_a_transient_straggler() {
        let cfg = IorConfig::paper_default(8);
        let pinned = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let (plain, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned.clone()))
            .faults(plan.clone())
            .execute(&mut rng(41))
            .unwrap();
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let (hedged, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned))
            .faults(plan)
            .hedge()
            .execute(&mut rng(41))
            .unwrap();
        let report = hedged.hedge.as_ref().unwrap();
        assert!(
            report.flagged.contains(&TargetId(0)),
            "straggler not flagged: {report:?}"
        );
        assert!(report.redirects > 0, "no redirects: {report:?}");
        let (p, h) = (
            plain.try_single().unwrap().duration_s,
            hedged.try_single().unwrap().duration_s,
        );
        assert!(h < 0.8 * p, "hedged {h} vs plain {p}");
    }

    #[test]
    fn hedging_leaves_healthy_runs_near_identical() {
        // No faults: the detector must not flag anyone under ordinary
        // lognormal noise, and splitting flows into chunks must not move
        // the result beyond drain-shape noise.
        let cfg = IorConfig::paper_default(8);
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let (plain, _) = Run::new(&mut fs).app(cfg).execute(&mut rng(42)).unwrap();
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let (hedged, _) = Run::new(&mut fs)
            .app(cfg)
            .hedge()
            .execute(&mut rng(42))
            .unwrap();
        let report = hedged.hedge.as_ref().unwrap();
        assert!(report.flagged.is_empty(), "false positive: {report:?}");
        assert_eq!(report.redirects, 0);
        assert!(report.samples > 0);
        let (p, h) = (
            plain.try_single().unwrap().duration_s,
            hedged.try_single().unwrap().duration_s,
        );
        let rel = (h - p).abs() / p;
        assert!(rel < 0.05, "hedged {h} vs plain {p}");
    }

    #[test]
    fn metrics_registry_captures_run_introspection() {
        let cfg = IorConfig::paper_default(8);
        let plan = FaultPlan::new()
            .target_offline(2.0, TargetId(1))
            .unwrap()
            .target_recovers(9.0, TargetId(1))
            .unwrap();
        let mut fs = plafrim_s1(4, ChooserKind::RoundRobin);
        let mut reg = obs::metrics::MetricsRegistry::new();
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(
                cfg,
                vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
            ))
            .faults(plan)
            .metrics(&mut reg)
            .execute(&mut rng(60))
            .unwrap();
        assert_eq!(reg.counter("ior.runs"), 1);
        assert_eq!(reg.counter("ior.apps"), 1);
        assert_eq!(reg.counter("sim.events_processed"), out.sim_events);
        assert!(reg.counter("sim.solves") > 0);
        // The outage outlives the heartbeat, so the client observed a
        // stall and waited through at least one backoff step.
        assert_eq!(reg.counter("ior.stalls_observed"), 1);
        let waits = reg.histogram("ior.backoff_wait_s").unwrap();
        assert!(waits.count() > 0);
        assert!(waits.quantile(1.0) <= RetryPolicy::default().max_backoff_s);
        // One bytes/chunks sample per written target.
        let tb = reg.histogram("ior.target_bytes").unwrap();
        assert_eq!(tb.count(), 4);
        let total: f64 = cfg.effective_total_bytes() as f64;
        assert!((tb.estimated_sum() - total).abs() / total < 0.05);
        assert_eq!(reg.histogram("ior.target_chunks").unwrap().count(), 4);
    }

    #[test]
    fn metrics_attachment_does_not_perturb_results() {
        let cfg = IorConfig::paper_default(4);
        let mut fs1 = plafrim_s2(4, ChooserKind::Random);
        let mut fs2 = plafrim_s2(4, ChooserKind::Random);
        let plain = single(&mut fs1, &cfg, &mut rng(61)).bandwidth;
        let mut reg = obs::metrics::MetricsRegistry::new();
        let (out, _) = Run::new(&mut fs2)
            .app(cfg)
            .metrics(&mut reg)
            .execute(&mut rng(61))
            .unwrap();
        assert_eq!(
            plain.bytes_per_sec(),
            out.try_single().unwrap().bandwidth.bytes_per_sec()
        );
        assert_eq!(reg.counter("ior.stalls_observed"), 0);
        assert_eq!(reg.counter("ior.retry_probes"), 0);
    }

    #[test]
    fn hedge_metrics_match_the_report() {
        let cfg = IorConfig::paper_default(8);
        let pinned = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
        let mut reg = obs::metrics::MetricsRegistry::new();
        let (out, _) = Run::new(&mut fs)
            .app(AppSpec::pinned(cfg, pinned))
            .faults(plan)
            .hedge()
            .metrics(&mut reg)
            .execute(&mut rng(41))
            .unwrap();
        let report = out.hedge.as_ref().unwrap();
        assert!(report.redirects > 0);
        assert_eq!(reg.counter("ior.hedge.flags"), report.flagged.len() as u64);
        assert_eq!(
            reg.counter("ior.hedge.redirects"),
            u64::from(report.redirects)
        );
        assert_eq!(reg.counter("ior.hedge.samples"), report.samples);
    }

    #[test]
    fn hedged_runs_are_deterministic() {
        let cfg = IorConfig::paper_default(4);
        let plan = FaultPlan::new()
            .target_transient_straggler(0.5, TargetId(2), 0.15, 300.0)
            .unwrap();
        let once = |seed: u64| {
            let mut fs = plafrim_s2(4, ChooserKind::RoundRobin);
            let (out, _) = Run::new(&mut fs)
                .app(cfg)
                .faults(plan.clone())
                .hedge()
                .execute(&mut rng(seed))
                .unwrap();
            (
                out.try_single().unwrap().bandwidth.bytes_per_sec(),
                out.hedge.clone().unwrap(),
            )
        };
        let (bw_a, rep_a) = once(43);
        let (bw_b, rep_b) = once(43);
        assert_eq!(bw_a, bw_b);
        assert_eq!(rep_a, rep_b);
    }
}
