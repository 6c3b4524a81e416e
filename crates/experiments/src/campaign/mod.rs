//! Declarative, cached experiment campaigns.
//!
//! The paper's methodology is always the same shape: a grid of cells
//! (scenario × nodes × ppn × stripe count × chooser × data size), 100
//! randomized repetitions per cell. Instead of every figure hand-rolling
//! that loop, a [`Campaign`] *describes* the grid and the
//! [`CampaignEngine`] executes it:
//!
//! * cells and repetitions run in parallel (rayon), each rep on its own
//!   deterministic RNG stream (`stream(label, rep)`), so results are
//!   independent of thread scheduling and repetition order;
//! * finished cells persist to a content-addressed [`ResultStore`] keyed
//!   by a stable hash of the cell's full identity — re-running a
//!   campaign skips every cell already on disk, an interrupted campaign
//!   resumes where it stopped, and a `reps = 100` campaign reuses the
//!   prefix a `reps = 10` run already produced;
//! * the engine reports per-campaign observability: cells cached /
//!   partial / computed / failed, rep-level cache hit rate, and
//!   simulated seconds per wall second.
//!
//! ```no_run
//! use experiments::campaign::{Campaign, CampaignEngine, CellConfig};
//! use experiments::Scenario;
//! use beegfs_core::ChooserKind;
//! use ior::IorConfig;
//!
//! let campaign = Campaign::new("demo", 42).cell(
//!     "s4-n8",
//!     CellConfig::new(
//!         Scenario::S1Ethernet,
//!         4,
//!         ChooserKind::RoundRobin,
//!         IorConfig::paper_default(8),
//!     ),
//!     100,
//! );
//! let engine = CampaignEngine::with_store("results/cache")?;
//! let outcome = engine.run(&campaign)?;
//! println!("{}", outcome.stats.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod store;

pub use store::{cell_key, CellRecord, ResultStore, MODEL_VERSION};

use crate::context::{deploy, deploy_on, Scenario};
use beegfs_core::{Allocation, ChooserKind, FaultPlan};
use ior::{AppSpec, FileLayout, IorConfig, RetryPolicy, Run, RunError, SimArena};
use rayon::prelude::*;
use sched::{AdmissionMode, ArrivalStream, SchedError, Scheduler};
use serde::{Deserialize, Serialize};
use simcore::rng::RngFactory;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything that determines one cell's simulated workload.
///
/// The field set is deliberately flat and fully serializable: its
/// canonical JSON (plus campaign name, seed and [`MODEL_VERSION`]) *is*
/// the cell's cache identity — see [`cell_key`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Which platform scenario to deploy.
    pub scenario: Scenario,
    /// Directory stripe count.
    pub stripe_count: u32,
    /// Directory target chooser.
    pub chooser: ChooserKind,
    /// Compute nodes per application.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: u32,
    /// Aggregate bytes written per application.
    pub total_bytes: u64,
    /// Transfer (request) size, bytes.
    pub transfer_size: u64,
    /// File layout (N-1 or N-N).
    pub layout: FileLayout,
    /// Access direction.
    pub mode: storage::AccessMode,
    /// How many identical applications run concurrently (1 = the paper's
    /// usual single-application run; Fig. 12 uses more).
    pub apps: u32,
    /// Optional mid-run fault timeline.
    pub faults: Option<FaultPlan>,
    /// Optional client retry policy (used with `faults`).
    pub policy: Option<RetryPolicy>,
    /// Optional online-scheduling workload: when set, each repetition
    /// serves a generated arrival stream through the `sched` crate's
    /// scheduler instead of launching `apps` concurrent applications at
    /// `t = 0`. Kept out of the serialized form when absent so existing
    /// cells' cache identities are untouched.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sched: Option<SchedWorkload>,
    /// Optional explicit fleet: when set, repetitions deploy on the
    /// platform this [`cluster::FleetSpec`] builds (natural registration
    /// order) instead of the scenario's preset — datacenter-scale cells
    /// parameterize their fleet right in the cell config, and the cache
    /// key captures the exact fleet. Kept out of the serialized form
    /// when absent so existing cells' cache identities are untouched.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fleet: Option<cluster::FleetSpec>,
}

/// An online-scheduling workload riding on a campaign cell: the cell's
/// `IorConfig` becomes the per-arrival template, and the scheduler
/// serves a Poisson stream of them under one placement policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedWorkload {
    /// Placement policy the scheduler uses.
    pub policy: SchedPolicyKind,
    /// Poisson arrival rate, applications per second. A rate that is
    /// not a positive finite number fails each rep with
    /// [`SchedError::InvalidRate`].
    pub rate_per_s: f64,
    /// Number of arrivals in the stream.
    pub count: usize,
    /// Storage target demand per application.
    pub stripe: u32,
    /// Whether every measurement run hedges: chunks its writes, detects
    /// straggling targets, and redirects around them (see
    /// [`ior::Run::hedge`]). Kept out of the serialized form when false
    /// so unhedged scheduled cells keep their cache identities.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub hedge: bool,
    /// How the scheduler prices admissions: the frozen-oracle reference
    /// (default) or the continuous online engine that makes
    /// million-arrival cells tractable. Kept out of the serialized form
    /// when it is the default so pre-engine scheduled cells keep their
    /// cache identities; online cells key differently — the two modes
    /// produce different (if statistically close) results.
    #[serde(default, skip_serializing_if = "is_default_mode")]
    pub mode: AdmissionMode,
}

/// Whether [`SchedWorkload::mode`] is left out of the canonical JSON.
fn is_default_mode(mode: &AdmissionMode) -> bool {
    *mode == AdmissionMode::default()
}

/// Which placement policy a scheduled cell uses (the serializable side
/// of [`sched::PlacementPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicyKind {
    /// Defer to the deployment's chooser (the BeeGFS baseline).
    Random,
    /// Cycle over storage servers.
    RoundRobinServer,
    /// Greedy on outstanding allocated bytes per server.
    LeastLoadedServer,
    /// Greedy on live per-target busy fractions.
    UtilizationFeedback,
    /// Utilization feedback plus quarantine of targets the hedging
    /// detector has flagged as stragglers.
    StragglerAware,
    /// Utilization-feedback placement plus IOPathTune-style mid-flight
    /// restriping from observed per-application throughput
    /// (online-mode only).
    AdaptiveStriping,
}

impl SchedPolicyKind {
    /// The load-placement policies of the `fig_sched` comparison, in
    /// presentation order ([`SchedPolicyKind::StragglerAware`] belongs
    /// to the straggler campaign, not this sweep).
    pub const ALL: [SchedPolicyKind; 4] = [
        SchedPolicyKind::Random,
        SchedPolicyKind::RoundRobinServer,
        SchedPolicyKind::LeastLoadedServer,
        SchedPolicyKind::UtilizationFeedback,
    ];

    /// Stable label (used in cell labels and tables).
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicyKind::Random => "Random",
            SchedPolicyKind::RoundRobinServer => "RoundRobinServer",
            SchedPolicyKind::LeastLoadedServer => "LeastLoadedServer",
            SchedPolicyKind::UtilizationFeedback => "UtilizationFeedback",
            SchedPolicyKind::StragglerAware => "StragglerAware",
            SchedPolicyKind::AdaptiveStriping => "AdaptiveStriping",
        }
    }

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn sched::PlacementPolicy> {
        match self {
            SchedPolicyKind::Random => Box::new(sched::Random),
            SchedPolicyKind::RoundRobinServer => Box::<sched::RoundRobinServer>::default(),
            SchedPolicyKind::LeastLoadedServer => Box::new(sched::LeastLoadedServer),
            SchedPolicyKind::UtilizationFeedback => Box::new(sched::UtilizationFeedback),
            SchedPolicyKind::StragglerAware => Box::new(sched::StragglerAware),
            SchedPolicyKind::AdaptiveStriping => Box::<sched::AdaptiveStriping>::default(),
        }
    }
}

impl CellConfig {
    /// A single-application cell from deployment knobs plus an
    /// [`IorConfig`] (whose node/ppn/size fields are copied over).
    pub fn new(
        scenario: Scenario,
        stripe_count: u32,
        chooser: ChooserKind,
        ior: IorConfig,
    ) -> Self {
        CellConfig {
            scenario,
            stripe_count,
            chooser,
            nodes: ior.nodes,
            ppn: ior.ppn,
            total_bytes: ior.total_bytes,
            transfer_size: ior.transfer_size,
            layout: ior.layout,
            mode: ior.mode,
            apps: 1,
            faults: None,
            policy: None,
            sched: None,
            fleet: None,
        }
    }

    /// Derive a copy running `apps` identical concurrent applications.
    pub fn with_apps(mut self, apps: u32) -> Self {
        self.apps = apps;
        self
    }

    /// Derive a copy with a mid-run fault timeline.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Derive a copy with a client retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Derive a copy served as an online-scheduling workload.
    pub fn with_sched(mut self, workload: SchedWorkload) -> Self {
        self.sched = Some(workload);
        self
    }

    /// Derive a copy deployed on an explicit [`cluster::FleetSpec`]
    /// fleet (the `scenario` field is then only a nominal tag).
    pub fn with_fleet(mut self, fleet: cluster::FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// The per-application benchmark configuration.
    pub fn ior_config(&self) -> IorConfig {
        IorConfig {
            nodes: self.nodes,
            ppn: self.ppn,
            total_bytes: self.total_bytes,
            transfer_size: self.transfer_size,
            layout: self.layout,
            mode: self.mode,
        }
    }
}

/// One cell of a campaign: a label, a workload, a repetition count.
///
/// The label doubles as the RNG stream selector (`stream(label, rep)`),
/// so a figure ported onto the engine reproduces its legacy results
/// bit-for-bit by keeping its legacy label format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Unique-within-the-campaign label; also the RNG stream name.
    pub label: String,
    /// The workload.
    pub config: CellConfig,
    /// Repetitions requested.
    pub reps: usize,
}

/// A declarative sweep: a named, seeded grid of cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Campaign name; derives the RNG factory (`derive(name, 0)`), so it
    /// must match the legacy experiment name for ported figures.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// The cells, in presentation order.
    pub cells: Vec<CellSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            cells: Vec::new(),
        }
    }

    /// Append one cell.
    pub fn cell(mut self, label: impl Into<String>, config: CellConfig, reps: usize) -> Self {
        self.cells.push(CellSpec {
            label: label.into(),
            config,
            reps,
        });
        self
    }

    /// Total repetitions over all cells.
    pub fn total_reps(&self) -> usize {
        self.cells.iter().map(|c| c.reps).sum()
    }
}

/// One application's measurements within a repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRecord {
    /// Write bandwidth, MiB/s.
    pub mib_s: f64,
    /// `(min,max)` target-allocation label of the application's file(s).
    pub allocation: String,
    /// Allocation balance ratio min/max.
    pub balance: f64,
}

/// One repetition's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepRecord {
    /// Per-application records, in submission order.
    pub apps: Vec<AppRecord>,
    /// Equation-1 aggregate bandwidth over all applications, MiB/s.
    pub aggregate_mib_s: f64,
    /// Simulated wall time of the repetition, seconds.
    pub sim_secs: f64,
    /// Per-application slowdowns for scheduled cells (`None` for plain
    /// concurrent-run cells; absent in records stored before the
    /// scheduler existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slowdowns: Option<Vec<f64>>,
    /// Per-application queueing waits, seconds, for scheduled cells
    /// (`None` for plain cells; absent in records stored before waits
    /// were recorded).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub waits: Option<Vec<f64>>,
}

/// One cell's results as returned to the caller (trimmed to the
/// requested rep count even when the store holds more).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// The workload that produced the reps.
    pub config: CellConfig,
    /// Exactly `spec.reps` repetitions, in rep order.
    pub reps: Vec<RepRecord>,
}

impl CellResult {
    /// First-application bandwidths per rep — the series the paper's
    /// single-application figures plot.
    pub fn bandwidths(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.apps[0].mib_s).collect()
    }

    /// Aggregate bandwidths per rep (interesting for concurrent cells).
    pub fn aggregate_bandwidths(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.aggregate_mib_s).collect()
    }
}

/// Per-campaign observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Cells in the campaign.
    pub cells_total: usize,
    /// Cells served entirely from the store.
    pub cells_cached: usize,
    /// Cells that reused a stored prefix and computed only the tail.
    pub cells_partial: usize,
    /// Cells computed from scratch.
    pub cells_computed: usize,
    /// Cells with at least one failed repetition.
    pub cells_failed: usize,
    /// Repetitions requested over all cells.
    pub reps_total: usize,
    /// Repetitions served from the store.
    pub reps_cached: usize,
    /// Repetitions actually simulated (including any that failed).
    pub reps_computed: usize,
    /// Simulated seconds across the computed repetitions.
    pub sim_secs: f64,
    /// Wall-clock seconds the campaign took.
    pub wall_secs: f64,
    /// Simulation events processed across the computed repetitions
    /// (flow starts, completions, scheduled rate changes). Zero for a
    /// fully warm campaign — the cache-correctness proof.
    pub sim_events: u64,
}

impl CampaignStats {
    /// Fraction of requested repetitions served from the store.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.reps_total == 0 {
            0.0
        } else {
            self.reps_cached as f64 / self.reps_total as f64
        }
    }

    /// Simulated seconds per wall second — the engine's speed metric.
    pub fn sim_rate(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.sim_secs / self.wall_secs
        } else {
            0.0
        }
    }

    /// One-line human summary, e.g. for `repro`'s progress output.
    pub fn summary(&self) -> String {
        format!(
            "{} cells ({} cached, {} partial, {} computed, {} failed); \
             {}/{} reps from cache ({:.0}% hit rate); \
             {:.1} sim-s / {} sim events in {:.2} wall-s ({:.0}x real time)",
            self.cells_total,
            self.cells_cached,
            self.cells_partial,
            self.cells_computed,
            self.cells_failed,
            self.reps_cached,
            self.reps_total,
            100.0 * self.cache_hit_rate(),
            self.sim_secs,
            self.sim_events,
            self.wall_secs,
            self.sim_rate(),
        )
    }
}

/// Tail-latency digest of a scheduled cell's slowdown distribution,
/// pooled over every repetition's per-application slowdowns.
///
/// The paper's Lesson 5 — summarize carefully and look at all the
/// points — applied to scheduling: a mean slowdown hides the straggler
/// tail, so the campaign surfaces the quantiles and a modality check
/// alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailMetrics {
    /// Median slowdown.
    pub p50: f64,
    /// 95th-percentile slowdown.
    pub p95: f64,
    /// 99th-percentile slowdown — the headline tail-latency number.
    pub p99: f64,
    /// Interquartile range of the slowdowns.
    pub iqr: f64,
    /// Sarle's bimodality coefficient of the slowdowns.
    pub bimodality: f64,
    /// Whether the distribution looks multi-modal (coefficient above
    /// the ~0.555 uniform threshold) — the signature of a subpopulation
    /// of straggler-struck applications.
    pub is_multimodal: bool,
}

impl TailMetrics {
    /// Digest a pooled slowdown sample; `None` when empty.
    pub fn from_slowdowns(slowdowns: &[f64]) -> Option<Self> {
        Self::from_sample(slowdowns)
    }

    /// Digest any pooled sample (slowdowns, queue waits in seconds, ...);
    /// `None` when empty.
    pub fn from_sample(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() {
            return None;
        }
        let s = iostats::Summary::from_sample(sample);
        Some(TailMetrics {
            p50: s.p50(),
            p95: s.p95(),
            p99: s.p99(),
            iqr: s.iqr(),
            bimodality: s.bimodality_coefficient(),
            is_multimodal: s.is_multimodal(),
        })
    }
}

/// Per-cell execution metrics for one engine run (not part of the cell's
/// cached results — these describe *this* execution, not the workload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// The cell's label.
    pub label: String,
    /// The cell's content-address in the store.
    pub key: String,
    /// Repetitions the campaign asked for.
    pub reps_requested: usize,
    /// Repetitions served from the store.
    pub reps_cached: usize,
    /// Repetitions simulated this run (including any that failed).
    pub reps_computed: usize,
    /// Wall-clock seconds spent simulating this cell's reps (summed over
    /// reps, so parallel execution can exceed the campaign wall time).
    pub compute_secs: f64,
    /// Simulated seconds across this cell's computed reps.
    pub sim_secs: f64,
    /// Simulation events processed across this cell's computed reps.
    pub sim_events: u64,
    /// Whether any repetition failed.
    pub failed: bool,
    /// Slowdown tail digest for scheduled cells (`None` for plain
    /// cells, which have no slowdown series).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tail: Option<TailMetrics>,
    /// Queue-wait tail digest, seconds, for scheduled cells (`None` for
    /// plain cells and for cells whose stored reps predate wait
    /// recording). A fat wait tail with a thin slowdown tail means the
    /// admission gate — not placement — is the bottleneck.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wait_tail: Option<TailMetrics>,
}

impl CellMetrics {
    /// Computed repetitions per wall-clock second of simulation work.
    pub fn reps_per_sec(&self) -> f64 {
        if self.compute_secs > 0.0 {
            self.reps_computed as f64 / self.compute_secs
        } else {
            0.0
        }
    }
}

/// The metrics document the engine serializes next to the cache after
/// every run: campaign identity, run-level stats, per-cell breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Campaign name (also the metrics file name).
    pub campaign: String,
    /// Campaign master seed.
    pub seed: u64,
    /// [`MODEL_VERSION`] the run executed under.
    pub model_version: u32,
    /// Run-level counters.
    pub stats: CampaignStats,
    /// Per-cell breakdown, in campaign order.
    pub cells: Vec<CellMetrics>,
}

/// A finished campaign: per-cell results plus the run's stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// One result per cell, in campaign order.
    pub cells: Vec<CellResult>,
    /// Observability counters for this run.
    pub stats: CampaignStats,
    /// Per-cell execution metrics for this run, in campaign order.
    pub cell_metrics: Vec<CellMetrics>,
}

impl CampaignOutcome {
    /// Look up a cell by label.
    pub fn cell(&self, label: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.label == label)
    }
}

/// Why one repetition of one cell failed: either the plain concurrent
/// run engine or, for scheduled cells, the online scheduler.
#[derive(Debug)]
pub enum RepError {
    /// A plain concurrent run failed.
    Run(RunError),
    /// A scheduled (arrival-stream) repetition failed.
    Sched(SchedError),
}

impl fmt::Display for RepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepError::Run(e) => e.fmt(f),
            RepError::Sched(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepError::Run(e) => Some(e),
            RepError::Sched(e) => Some(e),
        }
    }
}

impl From<RunError> for RepError {
    fn from(e: RunError) -> Self {
        RepError::Run(e)
    }
}

impl From<SchedError> for RepError {
    fn from(e: SchedError) -> Self {
        RepError::Sched(e)
    }
}

/// A campaign could not complete.
#[derive(Debug)]
pub enum CampaignError {
    /// One or more repetitions failed. Successful cells (and successful
    /// rep prefixes of the failing cells) were still persisted, so a
    /// corrected re-run completes only the missing work.
    Cells {
        /// How many cells had at least one failed repetition.
        failed: usize,
        /// Label of the first failing cell (campaign order).
        label: String,
        /// The first failing repetition index within that cell.
        rep: usize,
        /// The underlying repetition error.
        source: RepError,
    },
    /// The result store could not be read from or written to.
    Store(std::io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Cells {
                failed,
                label,
                rep,
                source,
            } => write!(
                f,
                "{failed} cell(s) failed; first failure: cell `{label}` rep {rep}: {source}"
            ),
            CampaignError::Store(e) => write!(f, "result store error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Cells { source, .. } => Some(source),
            CampaignError::Store(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Store(e)
    }
}

/// The campaign executor.
///
/// Holds an optional [`ResultStore`] (omit it for purely in-memory
/// execution, e.g. in tests), a verbosity flag, and a counter of
/// repetitions actually simulated — the hook the cache-correctness
/// tests use to prove a warm re-run does zero simulation work.
#[derive(Debug)]
pub struct CampaignEngine {
    store: Option<ResultStore>,
    verbose: bool,
    executed_reps: AtomicUsize,
}

impl CampaignEngine {
    /// An engine with no persistence: every rep is simulated every time.
    pub fn in_memory() -> Self {
        CampaignEngine {
            store: None,
            verbose: false,
            executed_reps: AtomicUsize::new(0),
        }
    }

    /// An engine backed by an on-disk store rooted at `root`.
    pub fn with_store(root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(CampaignEngine {
            store: Some(ResultStore::open(root)?),
            verbose: false,
            executed_reps: AtomicUsize::new(0),
        })
    }

    /// Enable per-cell progress lines on stderr.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// The store's root directory, if the engine persists results.
    pub fn store_root(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.root())
    }

    /// Repetitions simulated by this engine since construction. Cached
    /// reps do not count — a fully warm campaign leaves this unchanged.
    pub fn executed_reps(&self) -> usize {
        self.executed_reps.load(Ordering::Relaxed)
    }

    /// Execute a campaign: load cached reps, simulate the missing
    /// (cell, rep) pairs in parallel, persist the updated cells, and
    /// return per-cell results plus stats.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignOutcome, CampaignError> {
        self.run_with_metrics(campaign).map(|(outcome, _)| outcome)
    }

    /// [`CampaignEngine::run`], additionally returning the merged
    /// instrumentation registry of every repetition simulated this run.
    ///
    /// Each worker rep records into its own private
    /// [`obs::metrics::MetricsRegistry`]; the engine merges them in cell
    /// order after the parallel phase. Counter addition and histogram
    /// bucket merges are commutative and associative, so the merged
    /// registry — and its byte-stable JSON snapshot — is independent of
    /// the rayon schedule. Cached reps contribute nothing (they did no
    /// simulation work), so a fully warm campaign returns a registry
    /// holding only the `campaign.*` counters.
    pub fn run_with_metrics(
        &self,
        campaign: &Campaign,
    ) -> Result<(CampaignOutcome, obs::metrics::MetricsRegistry), CampaignError> {
        let start = Instant::now();
        let factory = RngFactory::new(campaign.seed).derive(&campaign.name, 0);

        // Phase 1: consult the store.
        let cached: Vec<Vec<RepRecord>> = campaign
            .cells
            .iter()
            .map(|spec| match &self.store {
                Some(store) => store
                    .load(&cell_key(&campaign.name, campaign.seed, spec))
                    .map(|r| r.reps)
                    .unwrap_or_default(),
                None => Vec::new(),
            })
            .collect();

        // Phase 2: flatten the missing (cell, rep) pairs into one work
        // list so rayon load-balances across cells *and* reps.
        let work: Vec<(usize, usize)> = campaign
            .cells
            .iter()
            .enumerate()
            .flat_map(|(ci, spec)| (cached[ci].len()..spec.reps).map(move |rep| (ci, rep)))
            .collect();

        // Phase 3: simulate. Order-preserving parallel map; each rep
        // draws from its own stream, so scheduling cannot leak in. The
        // per-rep wall time rides along for the metrics document.
        type RepOutcome = (
            usize,
            usize,
            f64,
            Result<(RepRecord, u64, obs::metrics::MetricsRegistry), RepError>,
        );
        let computed: Vec<RepOutcome> = work
            .into_par_iter()
            .map(|(ci, rep)| {
                let spec = &campaign.cells[ci];
                self.executed_reps.fetch_add(1, Ordering::Relaxed);
                let rep_start = Instant::now();
                let result = execute_rep(&spec.config, &factory, &spec.label, rep);
                (ci, rep, rep_start.elapsed().as_secs_f64(), result)
            })
            .collect();

        // Phase 4: merge, persist, count.
        let mut stats = CampaignStats {
            cells_total: campaign.cells.len(),
            reps_total: campaign.total_reps(),
            ..CampaignStats::default()
        };
        let mut cells = Vec::with_capacity(campaign.cells.len());
        let mut cell_metrics = Vec::with_capacity(campaign.cells.len());
        let mut run_metrics = obs::metrics::MetricsRegistry::new();
        let mut first_failure: Option<(String, usize, RepError)> = None;
        let mut computed = computed.into_iter().peekable();
        for (ci, spec) in campaign.cells.iter().enumerate() {
            let prior = cached[ci].len().min(spec.reps);
            let mut reps = cached[ci].clone();
            let mut failed_at: Option<(usize, RepError)> = None;
            let mut computed_here = 0usize;
            let mut compute_secs = 0.0f64;
            let mut cell_sim_secs = 0.0f64;
            let mut cell_sim_events = 0u64;
            while let Some((c, _, _, _)) = computed.peek() {
                if *c != ci {
                    break;
                }
                let (_, rep, wall, res) = computed.next().expect("peeked");
                computed_here += 1;
                compute_secs += wall;
                match res {
                    // Reps after a failed one are discarded: stored reps
                    // must stay a contiguous prefix of the stream.
                    Ok((r, events, reg)) if failed_at.is_none() => {
                        stats.sim_secs += r.sim_secs;
                        cell_sim_secs += r.sim_secs;
                        cell_sim_events += events;
                        run_metrics.merge(&reg);
                        reps.push(r);
                    }
                    // Discarded reps still did simulation work; the
                    // event counter (and the merged registry) reflect it.
                    Ok((_, events, reg)) => {
                        cell_sim_events += events;
                        run_metrics.merge(&reg);
                    }
                    Err(e) => {
                        if failed_at.is_none() {
                            failed_at = Some((rep, e));
                        }
                    }
                }
            }
            stats.reps_cached += prior;
            stats.reps_computed += computed_here;
            stats.sim_events += cell_sim_events;
            match (prior, computed_here, &failed_at) {
                (_, _, Some(_)) => stats.cells_failed += 1,
                (_, 0, None) => stats.cells_cached += 1,
                (0, _, None) => stats.cells_computed += 1,
                (_, _, None) => stats.cells_partial += 1,
            }
            let key = cell_key(&campaign.name, campaign.seed, spec);
            // Tail digest over the reps this run returns for the cell
            // (the trimmed prefix), pooling every app's slowdown.
            let slowdowns: Vec<f64> = reps[..reps.len().min(spec.reps)]
                .iter()
                .filter_map(|r| r.slowdowns.as_ref())
                .flatten()
                .copied()
                .collect();
            let waits: Vec<f64> = reps[..reps.len().min(spec.reps)]
                .iter()
                .filter_map(|r| r.waits.as_ref())
                .flatten()
                .copied()
                .collect();
            cell_metrics.push(CellMetrics {
                label: spec.label.clone(),
                key: key.clone(),
                reps_requested: spec.reps,
                reps_cached: prior,
                reps_computed: computed_here,
                compute_secs,
                sim_secs: cell_sim_secs,
                sim_events: cell_sim_events,
                failed: failed_at.is_some(),
                tail: TailMetrics::from_slowdowns(&slowdowns),
                wait_tail: TailMetrics::from_sample(&waits),
            });
            // Persist any new prefix-extending work, even for a cell
            // that failed later: resume picks up from the last good rep.
            if computed_here > 0 && reps.len() > cached[ci].len() {
                if let Some(store) = &self.store {
                    store.save(&CellRecord {
                        key,
                        model_version: MODEL_VERSION,
                        campaign: campaign.name.clone(),
                        seed: campaign.seed,
                        label: spec.label.clone(),
                        config: spec.config.clone(),
                        reps: reps.clone(),
                    })?;
                }
            }
            if self.verbose {
                let status = match &failed_at {
                    Some((rep, e)) => format!("FAILED at rep {rep}: {e}"),
                    None => format!("{prior} cached + {computed_here} computed"),
                };
                eprintln!(
                    "[{}] {} ({}/{} reps): {status}",
                    campaign.name,
                    spec.label,
                    reps.len().min(spec.reps),
                    spec.reps
                );
            }
            if let Some((rep, e)) = failed_at {
                if first_failure.is_none() {
                    first_failure = Some((spec.label.clone(), rep, e));
                }
            }
            reps.truncate(spec.reps);
            cells.push(CellResult {
                label: spec.label.clone(),
                config: spec.config.clone(),
                reps,
            });
        }
        stats.wall_secs = start.elapsed().as_secs_f64();
        // Engine-level counters ride in the same registry so the
        // snapshot is self-describing (wall time stays out: it would
        // break byte-stability across identical runs).
        run_metrics.add("campaign.reps_cached", stats.reps_cached as u64);
        run_metrics.add("campaign.reps_computed", stats.reps_computed as u64);
        if self.verbose {
            eprintln!("[{}] {}", campaign.name, stats.summary());
        }
        // Metrics are written even for a failing campaign — a failed run
        // is exactly when the breakdown is most useful.
        if let Some(store) = &self.store {
            store.save_metrics(
                campaign,
                &CampaignMetrics {
                    campaign: campaign.name.clone(),
                    seed: campaign.seed,
                    model_version: MODEL_VERSION,
                    stats,
                    cells: cell_metrics.clone(),
                },
            )?;
            store.save_metrics_snapshot(campaign, &run_metrics)?;
        }
        if let Some((label, rep, source)) = first_failure {
            return Err(CampaignError::Cells {
                failed: stats.cells_failed,
                label,
                rep,
                source,
            });
        }
        Ok((
            CampaignOutcome {
                name: campaign.name.clone(),
                cells,
                stats,
                cell_metrics,
            },
            run_metrics,
        ))
    }

    /// Where this engine persists a campaign's run metrics, if it has a
    /// store at all (see [`ResultStore::metrics_path`]).
    pub fn metrics_path(&self, campaign: &Campaign) -> Option<std::path::PathBuf> {
        self.store.as_ref().map(|s| s.metrics_path(campaign))
    }

    /// Where this engine persists a campaign's merged registry snapshot,
    /// if it has a store at all.
    pub fn metrics_snapshot_path(&self, campaign: &Campaign) -> Option<std::path::PathBuf> {
        self.store
            .as_ref()
            .map(|s| s.metrics_snapshot_path(campaign))
    }
}

/// Simulate one repetition of one cell, returning the record plus the
/// number of simulation events the run processed.
///
/// Plain cells draw from `factory.stream(label, rep)` exactly as the
/// legacy figure loops did inside [`crate::context::repeat`], so a
/// ported figure's RNG consumption — and therefore its results — is
/// unchanged. Scheduled cells instead derive a per-rep factory
/// (`factory.derive(label, rep)`) because one repetition consumes many
/// named streams (arrivals, one per placement, run, and solo baseline).
/// Deploy one repetition's file system: the cell's explicit fleet when
/// present, the scenario preset otherwise. In-repo cells carry vetted
/// specs, so an invalid fleet is a bug and panics like `deploy`'s own
/// asserts would.
fn deploy_cell(config: &CellConfig) -> beegfs_core::BeeGfs {
    match &config.fleet {
        Some(spec) => deploy_on(
            spec.build().expect("cell fleet spec is valid"),
            config.stripe_count,
            config.chooser,
        ),
        None => deploy(config.scenario, config.stripe_count, config.chooser),
    }
}

fn execute_rep(
    config: &CellConfig,
    factory: &RngFactory,
    label: &str,
    rep: usize,
) -> Result<(RepRecord, u64, obs::metrics::MetricsRegistry), RepError> {
    if let Some(workload) = &config.sched {
        return execute_sched_rep(config, workload, factory, label, rep);
    }
    // One arena per rayon worker thread: reps on the same thread reuse
    // the simulation buffers, and arenas carry no state between reps,
    // so results stay independent of the rayon work distribution.
    thread_local! {
        static REP_ARENA: std::cell::RefCell<SimArena> =
            std::cell::RefCell::new(SimArena::new());
    }
    let mut rng = factory.stream(label, rep as u64);
    let mut fs = deploy_cell(config);
    let ior = config.ior_config();
    // Each rep records into its own registry; the engine merges them
    // after the parallel phase, in cell order.
    let mut metrics = obs::metrics::MetricsRegistry::new();
    let (out, _telemetry) = REP_ARENA
        .with(|arena| {
            let mut arena = arena.borrow_mut();
            let mut run = Run::new(&mut fs).arena(&mut arena).metrics(&mut metrics);
            for _ in 0..config.apps {
                run = run.app(AppSpec::new(ior));
            }
            if let Some(plan) = &config.faults {
                run = run.faults(plan.clone());
            }
            if let Some(policy) = config.policy {
                run = run.policy(policy);
            }
            run.execute(&mut rng)
        })
        .map_err(RepError::Run)?;
    let sim_secs = out.apps.iter().map(|a| a.duration_s).fold(0.0, f64::max);
    let record = RepRecord {
        apps: out
            .apps
            .iter()
            .map(|a| AppRecord {
                mib_s: a.bandwidth.mib_per_sec(),
                allocation: a.allocation.label(),
                balance: a.allocation.balance(),
            })
            .collect(),
        aggregate_mib_s: out.aggregate.mib_per_sec(),
        sim_secs,
        slowdowns: None,
        waits: None,
    };
    Ok((record, out.sim_events, metrics))
}

/// One repetition of a scheduled cell: generate the Poisson arrival
/// stream, serve it through the online scheduler, and record each
/// application's bandwidth, final allocation, and slowdown.
///
/// Arrival times draw from a *label-independent* stream
/// (`derive("sched-arrivals", rep)`), so every policy cell of a
/// campaign faces the same arrival instants at the same rep — the
/// common-random-numbers pairing that makes policy comparisons fair.
/// Everything the scheduler itself consumes derives from the cell's own
/// label as usual.
fn execute_sched_rep(
    config: &CellConfig,
    workload: &SchedWorkload,
    factory: &RngFactory,
    label: &str,
    rep: usize,
) -> Result<(RepRecord, u64, obs::metrics::MetricsRegistry), RepError> {
    let rate_per_s = workload.rate_per_s;
    if !(rate_per_s.is_finite() && rate_per_s > 0.0) {
        return Err(RepError::Sched(SchedError::InvalidRate { rate_per_s }));
    }
    let rep_factory = factory.derive(label, rep as u64);
    let mut fs = deploy_cell(config);
    let platform = fs.platform().clone();
    let stream = ArrivalStream::poisson(
        workload.rate_per_s,
        workload.count,
        config.ior_config(),
        workload.stripe,
        &mut factory
            .derive("sched-arrivals", rep as u64)
            .stream("arrivals", 0),
    );
    let mut metrics = obs::metrics::MetricsRegistry::new();
    let mut sched = Scheduler::new(&mut fs, workload.policy.build())
        .mode(workload.mode)
        .metrics(&mut metrics);
    if workload.hedge {
        sched = sched.hedge();
    }
    if let Some(plan) = &config.faults {
        sched = sched.faults(plan.clone());
    }
    if let Some(policy) = config.policy {
        sched = sched.retry(policy);
    }
    let out = sched
        .serve(&stream, &rep_factory)
        .map_err(RepError::Sched)?;
    let record = RepRecord {
        apps: out
            .apps
            .iter()
            .map(|a| {
                let alloc = Allocation::classify(&platform, &a.targets);
                AppRecord {
                    mib_s: a.bandwidth.mib_per_sec(),
                    allocation: alloc.label(),
                    balance: alloc.balance(),
                }
            })
            .collect(),
        aggregate_mib_s: out.aggregate.mib_per_sec(),
        sim_secs: out.makespan_s,
        slowdowns: Some(out.apps.iter().map(|a| a.slowdown).collect()),
        waits: Some(out.apps.iter().map(|a| a.wait_s).collect()),
    };
    Ok((record, out.sim_events, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{repeat, ExpCtx};

    fn tiny_campaign(reps: usize) -> Campaign {
        Campaign::new("fig04", ExpCtx::default().seed).cell(
            "S1Ethernet-n2-p8",
            CellConfig::new(
                Scenario::S1Ethernet,
                4,
                ChooserKind::RoundRobin,
                IorConfig::paper_default(2),
            ),
            reps,
        )
    }

    #[test]
    fn fleet_free_cells_keep_pre_fleet_cache_keys() {
        // The pinned key was computed before `CellConfig.fleet` existed;
        // a fleet-free cell must keep producing it, or every cached
        // campaign result would silently orphan.
        let campaign = tiny_campaign(4);
        let json = serde_json::to_string(&campaign.cells[0].config).unwrap();
        assert!(!json.contains("fleet"), "{json}");
        assert_eq!(
            cell_key(&campaign.name, campaign.seed, &campaign.cells[0]),
            "a5d5c26379407b58916b1d98cbeea203"
        );
    }

    #[test]
    fn fleet_cells_run_on_their_own_platform() {
        let spec = cluster::FleetSpec::new("fleet-2x2")
            .servers(2)
            .targets_per_server(2)
            .server_link(simcore::units::Bandwidth::from_mib_per_sec(1100.0))
            .backend(simcore::units::Bandwidth::from_mib_per_sec(4700.0))
            .target_bw(simcore::units::Bandwidth::from_mib_per_sec(1700.0))
            .switch_policy(cluster::SwitchPolicy::NonBlocking);
        let config = CellConfig::new(
            Scenario::S2Omnipath,
            4,
            ChooserKind::RoundRobin,
            IorConfig::paper_default(2),
        )
        .with_fleet(spec.clone());
        // The fleet travels through the cache identity...
        let cell = CellSpec {
            label: "c".into(),
            config: config.clone(),
            reps: 2,
        };
        assert_ne!(
            cell_key("fleet-smoke", 1, &cell),
            cell_key(
                "fleet-smoke",
                1,
                &CellSpec {
                    config: cell.config.clone().with_fleet(spec.racks(2)),
                    ..cell.clone()
                }
            ),
            "different fleets must key differently"
        );
        // ...and the engine deploys on it.
        let outcome = CampaignEngine::in_memory()
            .run(&Campaign::new("fleet-smoke", 1).cell("c", config, 2))
            .unwrap();
        let bw = outcome.cells[0].bandwidths();
        assert_eq!(bw.len(), 2);
        assert!(bw.iter().all(|&x| x > 0.0), "{bw:?}");
    }

    #[test]
    fn engine_matches_the_legacy_repeat_loop_bit_for_bit() {
        let ctx = ExpCtx::quick(4);
        let factory = ctx.rng_factory("fig04");
        let cfg = IorConfig::paper_default(2);
        let legacy = repeat(&factory, "S1Ethernet-n2-p8", 4, |rng, _| {
            let mut fs = deploy(Scenario::S1Ethernet, 4, ChooserKind::RoundRobin);
            let (out, _) = Run::new(&mut fs).app(cfg).execute(rng).unwrap();
            out.try_single().unwrap().bandwidth.mib_per_sec()
        });
        let outcome = CampaignEngine::in_memory().run(&tiny_campaign(4)).unwrap();
        assert_eq!(outcome.cells[0].bandwidths(), legacy);
    }

    #[test]
    fn in_memory_engine_counts_every_rep() {
        let engine = CampaignEngine::in_memory();
        let outcome = engine.run(&tiny_campaign(3)).unwrap();
        assert_eq!(engine.executed_reps(), 3);
        assert_eq!(outcome.stats.reps_computed, 3);
        assert_eq!(outcome.stats.reps_cached, 0);
        assert_eq!(outcome.stats.cells_computed, 1);
        assert_eq!(outcome.stats.cache_hit_rate(), 0.0);
        assert!(outcome.stats.sim_secs > 0.0);
        assert!(outcome.stats.sim_events > 0);
        assert_eq!(outcome.cell_metrics.len(), 1);
        let cm = &outcome.cell_metrics[0];
        assert_eq!(cm.reps_computed, 3);
        assert_eq!(cm.sim_events, outcome.stats.sim_events);
        assert!(!cm.failed);
        // Re-running without a store recomputes everything.
        engine.run(&tiny_campaign(3)).unwrap();
        assert_eq!(engine.executed_reps(), 6);
    }

    #[test]
    fn failed_cells_report_their_label_and_keep_good_cells() {
        let bad = CellConfig::new(
            Scenario::S1Ethernet,
            4,
            ChooserKind::RoundRobin,
            // 999 nodes: oversubscribes the 16-node Ethernet partition.
            IorConfig::paper_default(999),
        );
        let campaign = tiny_campaign(2).cell("bad", bad, 2);
        let err = CampaignEngine::in_memory().run(&campaign).unwrap_err();
        match err {
            CampaignError::Cells {
                failed,
                label,
                rep,
                source,
            } => {
                assert_eq!(failed, 1);
                assert_eq!(label, "bad");
                assert_eq!(rep, 0);
                assert!(matches!(
                    source,
                    RepError::Run(RunError::Oversubscribed { .. })
                ));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn sched_workload_hedge_roundtrips_and_is_omitted_when_absent() {
        let plain = SchedWorkload {
            policy: SchedPolicyKind::Random,
            rate_per_s: 0.35,
            count: 10,
            stripe: 4,
            hedge: false,
            mode: AdmissionMode::FrozenOracle,
        };
        let json = serde_json::to_string(&plain).unwrap();
        // Byte stability: a pre-hedging, frozen-mode workload serializes
        // without either optional field, so existing cache keys are
        // unchanged.
        assert!(!json.contains("hedge"), "{json}");
        assert!(!json.contains("mode"), "{json}");
        let back: SchedWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);

        let hedged = SchedWorkload {
            policy: SchedPolicyKind::StragglerAware,
            hedge: true,
            ..plain
        };
        let json = serde_json::to_string(&hedged).unwrap();
        assert!(json.contains("\"hedge\":true"), "{json}");
        let back: SchedWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hedged);

        // The online mode rides in the serialized form (cells of the two
        // modes must key differently) and round-trips.
        let online = SchedWorkload {
            mode: AdmissionMode::Online,
            ..plain
        };
        let json = serde_json::to_string(&online).unwrap();
        assert!(json.contains("mode"), "{json}");
        let back: SchedWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, online);
    }

    #[test]
    fn cell_metrics_tail_is_omitted_for_plain_cells() {
        let outcome = CampaignEngine::in_memory().run(&tiny_campaign(2)).unwrap();
        let cm = &outcome.cell_metrics[0];
        assert!(cm.tail.is_none(), "plain cell grew a tail digest");
        let json = serde_json::to_string(cm).unwrap();
        assert!(!json.contains("tail"), "{json}");
        let back: CellMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, cm);
    }

    #[test]
    fn scheduled_cells_surface_tail_metrics() {
        let campaign = Campaign::new("tail-test", 7).cell(
            "sched",
            CellConfig::new(
                Scenario::S1Ethernet,
                4,
                ChooserKind::Random,
                IorConfig::paper_default(2),
            )
            .with_sched(SchedWorkload {
                policy: SchedPolicyKind::LeastLoadedServer,
                rate_per_s: 0.5,
                count: 4,
                stripe: 4,
                hedge: false,
                mode: AdmissionMode::FrozenOracle,
            }),
            2,
        );
        let outcome = CampaignEngine::in_memory().run(&campaign).unwrap();
        let tail = outcome.cell_metrics[0]
            .tail
            .expect("scheduled cell has a tail digest");
        assert!(tail.p50 <= tail.p95 && tail.p95 <= tail.p99);
        assert!(tail.iqr >= 0.0);
        let back: CellMetrics =
            serde_json::from_str(&serde_json::to_string(&outcome.cell_metrics[0]).unwrap())
                .unwrap();
        assert_eq!(back, outcome.cell_metrics[0]);
    }

    #[test]
    fn run_metrics_merge_every_rep_and_are_byte_stable() {
        let (outcome, reg) = CampaignEngine::in_memory()
            .run_with_metrics(&tiny_campaign(3))
            .unwrap();
        // Every simulated rep contributed its registry: the merged event
        // counter is exactly the stats' event total, and the campaign
        // counters mirror the run breakdown.
        assert_eq!(reg.counter("ior.runs"), 3);
        assert_eq!(
            reg.counter("sim.events_processed"),
            outcome.stats.sim_events
        );
        assert_eq!(reg.counter("campaign.reps_computed"), 3);
        assert_eq!(reg.counter("campaign.reps_cached"), 0);
        assert!(reg.histogram("ior.target_bytes").is_some());
        assert_eq!(reg.counter("sim.arena.recycles"), 3, "one arena per rep");
        // Merge order is engine-controlled and merges commute, so two
        // identical cold runs snapshot byte-identically.
        let (_, again) = CampaignEngine::in_memory()
            .run_with_metrics(&tiny_campaign(3))
            .unwrap();
        assert_eq!(reg.to_json(), again.to_json());
    }

    #[test]
    fn scheduled_cells_with_a_bad_rate_fail_typed() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let campaign = Campaign::new("bad-rate", 7).cell(
                "sched",
                CellConfig::new(
                    Scenario::S1Ethernet,
                    4,
                    ChooserKind::Random,
                    IorConfig::paper_default(2),
                )
                .with_sched(SchedWorkload {
                    policy: SchedPolicyKind::LeastLoadedServer,
                    rate_per_s: rate,
                    count: 4,
                    stripe: 4,
                    hedge: false,
                    mode: AdmissionMode::FrozenOracle,
                }),
                1,
            );
            let err = CampaignEngine::in_memory().run(&campaign).unwrap_err();
            let CampaignError::Cells { source, .. } = &err else {
                panic!("rate {rate}: unexpected error {err}");
            };
            assert!(
                matches!(
                    source,
                    RepError::Sched(SchedError::InvalidRate { rate_per_s })
                        if rate_per_s.to_bits() == rate.to_bits()
                ),
                "rate {rate}: {source}"
            );
            assert!(err.to_string().contains(&format!("rate {rate}/s")), "{err}");
        }
    }

    #[test]
    fn scheduled_reps_feed_the_run_registry() {
        let campaign = Campaign::new("sched-metrics", 7).cell(
            "sched",
            CellConfig::new(
                Scenario::S1Ethernet,
                4,
                ChooserKind::Random,
                IorConfig::paper_default(2),
            )
            .with_sched(SchedWorkload {
                policy: SchedPolicyKind::LeastLoadedServer,
                rate_per_s: 0.5,
                count: 4,
                stripe: 4,
                hedge: false,
                mode: AdmissionMode::FrozenOracle,
            }),
            2,
        );
        let (outcome, reg) = CampaignEngine::in_memory()
            .run_with_metrics(&campaign)
            .unwrap();
        assert_eq!(reg.counter("sched.admissions"), 8, "4 arrivals x 2 reps");
        assert_eq!(reg.counter("sched.decisions.LeastLoadedServer"), 8);
        assert_eq!(
            reg.counter("sched.measurement_sim_events") + reg.counter("sched.solo_sim_events"),
            outcome.stats.sim_events
        );
    }

    #[test]
    fn warm_runs_persist_an_idle_snapshot_and_cold_runs_match() {
        let dir = std::env::temp_dir().join(format!("campaign-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = CampaignEngine::with_store(&dir).unwrap();
        let (_, cold) = engine.run_with_metrics(&tiny_campaign(2)).unwrap();
        let path = engine.metrics_snapshot_path(&tiny_campaign(2)).unwrap();
        let persisted = std::fs::read_to_string(&path).unwrap();
        assert_eq!(persisted, cold.to_json());
        // A warm re-run simulates nothing: its snapshot holds only the
        // engine's own counters, and it overwrites the cold one.
        let (_, warm) = engine.run_with_metrics(&tiny_campaign(2)).unwrap();
        assert_eq!(warm.counter("ior.runs"), 0);
        assert_eq!(warm.counter("campaign.reps_cached"), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), warm.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_config_roundtrips_through_json() {
        let cfg = CellConfig::new(
            Scenario::S2Omnipath,
            8,
            ChooserKind::Balanced,
            IorConfig::paper_default(16),
        )
        .with_apps(2)
        .with_policy(RetryPolicy::default());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: CellConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
