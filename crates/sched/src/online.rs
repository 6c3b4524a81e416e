//! The continuous online engine: one long-running fluid simulation for
//! the whole scheduling session.
//!
//! The frozen-schedule path in [`scheduler`](crate::scheduler) prices
//! every admission with a fresh measurement simulation over all
//! still-running applications — O(n²) total simulation work, which caps
//! sessions at ~10⁴ arrivals. This module replaces that with a live
//! engine: admissions inject flows into a single [`FluidSim`] the
//! scheduler drives continuously ([`FluidSim::run_until`]), completions
//! are consumed from the simulation's event heap as sim time advances
//! ([`FluidSim::pop_ready`]), and per-application slowdown falls out of
//! the live completion instants. Each admission costs O(its own flows),
//! so a session is O(total flows) — amortized O(1) per arrival, which
//! is what opens the million-arrival regime.
//!
//! # Semantics relative to the frozen oracle
//!
//! The frozen path stays as the *reference oracle* (mirroring the
//! solver's `reference_recompute_rates` pattern), and a differential
//! test pins the two modes against each other on small traces. Both
//! modes admit through the same crate-private ledger — arrival gate,
//! FIFO queue, lifecycle trace, `sched.*` admission metrics, decision
//! and restripe logs, outcomes — so they differ only in pricing: how an
//! admitted application's completion and slowdown are computed. Both
//! modes also compile the session's fault plan with the same
//! [`FaultTimeline::compile`]: one validation, one set of capacity
//! changes, one abandon instant per dead target. The online engine
//! simulates the exact fluid dynamics — a running application *is*
//! slowed by later arrivals, which the frozen approximation
//! deliberately cannot see — so the two agree tightly on light or
//! serial workloads and diverge by exactly that retroactive
//! interference as load grows. Three further, deliberate modeling
//! differences:
//!
//! * **Noise** is sampled once per session — one hardware reality for
//!   the whole stream — where the frozen path re-samples it for every
//!   measurement and solo run.
//! * **Ideal baselines** come from a persistent idle *shadow* fabric
//!   carrying the same session noise: an admission's flows are replayed
//!   there alone, so the slowdown denominator isolates contention on
//!   the same machine instead of re-sampling a different one per solo
//!   run. The admission's sampled startup overhead is shared by both
//!   numerator and denominator.
//! * **Fault re-placement** cannot rewind history: at an abandoned
//!   outage's give-up instant, the affected applications' live
//!   flows are cancelled ([`FluidSim::cancel_flow`]), their pooled
//!   remaining bytes are re-striped evenly over a fresh placement, and
//!   the decision log gains `replaced` entries — work already done
//!   stays done, where the frozen oracle re-simulates the incumbents'
//!   whole runs.
//!
//! Hedged writes remain frozen-only ([`SchedError::OnlineUnsupported`]):
//! chunked issue-and-redirect belongs to the per-run engine.

use beegfs_core::{restripe_split, BeeGfs, FileHandle, TargetState};
use cluster::{Fabric, FabricNoise, FabricPaths, Platform, TargetId};
use ior::{
    compound_target_states, group_by_node, write_plan, FaultTimeline, IorConfig, Placement,
    RunError, WriteFlow,
};
use serde::{Deserialize, Serialize};
use simcore::dist::LogNormal;
use simcore::flow::{FlowId, FluidSim};
use simcore::rng::{RngFactory, StreamRng};
use simcore::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::arrivals::AppRequest;
use crate::error::SchedError;
use crate::ledger::{ns, Ledger};
use crate::policy::{AppObservation, ClusterLoad, PlacementPolicy, RestripeDecision};
use crate::scheduler::{SchedOutcome, Scheduler};

/// Period of the adaptive feedback loop: how often a feedback-wanting
/// policy sees each running application's observed throughput. Scheduled
/// only when [`PlacementPolicy::wants_feedback`] is true, so
/// feedback-free sessions run the exact pre-adaptive event sequence.
pub const EVAL_PERIOD_S: f64 = 0.25;
const EVAL_PERIOD_NS: u64 = 250_000_000;

/// How [`Scheduler::serve`] prices admissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionMode {
    /// One frozen-schedule measurement run plus one solo run per
    /// admission — O(n²) total simulation work. The reference oracle.
    #[default]
    FrozenOracle,
    /// One live [`FluidSim`] for the whole session — O(1)-amortized
    /// admission, the engine for million-arrival workloads.
    Online,
}

impl AdmissionMode {
    /// Stable label for reports and decision tooling.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionMode::FrozenOracle => "frozen-oracle",
            AdmissionMode::Online => "online",
        }
    }
}

/// One live flow, with the target it writes to so fault evictions can
/// find the flows that must move.
struct LiveFlow {
    id: FlowId,
    target: TargetId,
}

/// An application currently on the live system.
struct LiveApp {
    app: usize,
    start_s: f64,
    overhead_s: f64,
    ideal_s: f64,
    /// Contention-free I/O seconds from the shadow replay (the solo
    /// ideal without startup overhead) — the feedback loop's
    /// ideal-throughput denominator.
    ideal_io_s: f64,
    /// The open file (metadata identity for mid-flight restripes).
    file: FileHandle,
    targets: Vec<TargetId>,
    nodes: Vec<usize>,
    flows: Vec<LiveFlow>,
    /// Latest completion instant seen so far (absolute seconds).
    io_end_s: f64,
    bytes: u64,
    /// Observed-rate integral fed at each evaluation instant.
    rate_obs: obs::RateIntegral,
    /// Evaluation samples since the last stripe change.
    samples: u32,
    /// Instant of the last stripe change (admission, restripe, or
    /// eviction re-placement), seconds.
    last_change_s: f64,
    /// `rate_obs.bytes_until` at the window anchor — the windowed
    /// observed mean reads the integral since this point.
    anchor_bytes: f64,
    /// Window anchor instant: the first evaluation sample after the
    /// last stripe change. The integral's segment between the change
    /// and that first sample runs at the stale (zero) rate, so
    /// anchoring there keeps the mean unbiased.
    anchor_s: f64,
}

/// External calendar event kinds at one instant, in tie-break order:
/// evictions repair the pool before releases free capacity, both
/// precede a simultaneous arrival asking for that capacity (the same
/// completions-before-arrivals rule the frozen path applies), and the
/// feedback evaluation observes last, after the instant's state has
/// settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum External {
    Evict,
    Release,
    Arrive,
    Eval,
}

/// The live and shadow fabrics plus the session-scoped allocator state.
struct LiveSim {
    sim: FluidSim<'static>,
    paths: FabricPaths,
    /// Idle twin of the live fabric (same noise, same initial target
    /// states): each admission's flows replay here alone to price its
    /// ideal I/O time.
    shadow: FluidSim<'static>,
    shadow_paths: FabricPaths,
    /// One node's records of identical flows, while an admission's
    /// flows are grouped for the shadow replay.
    shadow_groups: Vec<(WriteFlow, u32)>,
    free_nodes: BTreeSet<usize>,
    /// Windowed per-target utilization feed for
    /// [`ClusterView::busy_fraction`]: busy-seconds snapshots at the
    /// last refresh, and the fraction over the window since.
    busy_snapshot: Vec<f64>,
    window_start_s: f64,
    busy_fraction: Vec<f64>,
}

impl LiveSim {
    /// Build the session's fabrics for `cfg`'s ppn and access mode: the
    /// full compute partition, one sampled hardware noise shared by live
    /// and shadow, the deployment's pre-session target states compounded
    /// into both, and the fault timeline's capacity changes scheduled on
    /// the live one only — ideals stay fault-free, as the frozen path's
    /// solo runs do.
    fn build(fs: &BeeGfs, cfg: &IorConfig, noise: &FabricNoise, faults: &FaultTimeline) -> Self {
        let platform = fs.platform();
        let max_nodes = platform.compute.max_nodes;
        let (mut net, paths) =
            Fabric::build_for(platform, max_nodes, cfg.ppn, noise, cfg.mode).into_parts();
        let base = compound_target_states(fs, &mut net, &paths);
        let (mut shadow_net, shadow_paths) =
            Fabric::build_for(platform, max_nodes, cfg.ppn, noise, cfg.mode).into_parts();
        compound_target_states(fs, &mut shadow_net, &shadow_paths);
        let mut sim = FluidSim::new(net);
        faults.schedule(&mut sim, &paths, &base);
        let n_targets = platform.total_targets();
        LiveSim {
            sim,
            paths,
            shadow: FluidSim::new(shadow_net),
            shadow_paths,
            shadow_groups: Vec::new(),
            free_nodes: (0..max_nodes).collect(),
            busy_snapshot: vec![0.0; n_targets],
            window_start_s: 0.0,
            busy_fraction: vec![0.0; n_targets],
        }
    }

    /// Refresh the windowed utilization estimate: per-target busy time
    /// accrued since the last refresh over the wall time of the window.
    /// An O(targets) incremental read of the network's native busy
    /// integrals — the live engine's stand-in for the frozen path's
    /// whole-run telemetry, no recorder required. A zero-width window
    /// keeps the previous estimate.
    fn refresh_busy(&mut self, platform: &Platform) {
        let now = self.sim.now().as_secs_f64();
        let dt = now - self.window_start_s;
        if dt <= 0.0 {
            return;
        }
        for t in platform.all_targets() {
            let i = t.index();
            let busy = self.sim.network().busy_secs(self.paths.ost_resource(t));
            self.busy_fraction[i] = ((busy - self.busy_snapshot[i]) / dt).min(1.0);
            self.busy_snapshot[i] = busy;
        }
        self.window_start_s = now;
    }

    /// Claim the `n` lowest free compute nodes. The admission gate
    /// checked capacity, so `n` nodes are free.
    fn claim_nodes(&mut self, n: usize) -> Vec<usize> {
        let nodes: Vec<usize> = self.free_nodes.iter().take(n).copied().collect();
        assert_eq!(nodes.len(), n, "admission gate guarantees node capacity");
        for node in &nodes {
            self.free_nodes.remove(node);
        }
        nodes
    }

    /// Inject one application's flows into the live network at the
    /// current instant and replay them alone on the idle shadow fabric.
    /// Returns the live flows and the shadow's ideal I/O seconds.
    ///
    /// The live fabric keeps one flow per record: the feedback policy
    /// sums an application's flow rates, and evictions and restripes
    /// cancel single flows. The shadow observes nothing but the last
    /// completion, so each node's identical flows replay there as one
    /// record ([`group_by_node`]), which simulates bit for bit as they
    /// would one by one.
    fn inject(
        &mut self,
        app: usize,
        cfg: &IorConfig,
        file: &FileHandle,
        nodes: &[usize],
        platform: &Platform,
    ) -> (Vec<LiveFlow>, f64) {
        let (now, shadow_t0, tag) = (self.sim.now(), self.shadow.now(), app as u64);
        // SharedFile only (validated up front): one file for every process.
        let plan = write_plan(cfg, std::slice::from_ref(file), nodes, &platform.compute);
        // At most one flow per (process, stripe slot).
        let mut flows = Vec::with_capacity(cfg.processes() * file.pattern.stripe_count as usize);
        let live = plan.inspect(|f| {
            let id = self.sim.start_weighted_flow_at(
                now,
                self.paths.write_path(f.node, f.target),
                f.bytes as f64,
                tag,
                f.weight,
            );
            flows.push(LiveFlow {
                id,
                target: f.target,
            });
        });
        group_by_node(live, &mut self.shadow_groups, |f, count| {
            self.shadow.start_flows_at(
                shadow_t0,
                self.shadow_paths.write_path(f.node, f.target),
                f.bytes as f64,
                tag,
                f.weight,
                count,
            );
        });
        let mut ideal_end = None;
        while let Some(c) = self.shadow.next_completion() {
            ideal_end = ideal_end.max(Some(c.time));
        }
        let ideal_end = ideal_end.expect("an application emits at least one flow");
        (flows, ideal_end.duration_since(shadow_t0).as_secs_f64())
    }
}

/// One session of the continuous engine. Owns everything
/// [`serve_online`] threads through the main loop.
struct Session<'fs, 'r, 'a> {
    fs: &'fs mut BeeGfs,
    platform: Platform,
    policy: Box<dyn PlacementPolicy>,
    suspected: Vec<bool>,
    live: LiveSim,
    overhead_dist: LogNormal,
    factory: &'a RngFactory,
    ledger: Ledger<'a, 'r>,
    running: Vec<LiveApp>,
    /// Future end-of-application instants `(nanoseconds, app)` — the
    /// instant capacity frees (I/O end plus startup overhead).
    releases: BinaryHeap<Reverse<(u64, usize)>>,
    /// Next feedback evaluation instant; `None` when no evaluation is
    /// scheduled (feedback-free policy, or nothing running).
    next_eval_ns: Option<u64>,
    live_flows: u64,
    first_create: bool,
}

impl Session<'_, '_, '_> {
    /// Ask the policy for a placement against the live cluster view:
    /// management-service liveness, outstanding bytes of the running
    /// set, and the windowed busy fractions.
    fn place(
        &mut self,
        stripe: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, SchedError> {
        self.live.refresh_busy(&self.platform);
        let load = ClusterLoad::of(
            self.fs,
            self.running.iter().map(|r| (&r.targets[..], r.bytes)),
        );
        let view = load.view(&self.platform, &self.live.busy_fraction, &self.suspected);
        Ok(self.policy.place(&view, stripe, bytes, rng)?)
    }

    /// Create the placement's file: deferred placements go through the
    /// deployment's own chooser (consuming `rng` exactly as a plain run
    /// does), pinned placements through the explicit list. Other
    /// tenants churn the chooser cursor before every create but the
    /// session's first, as in the run engine.
    fn create(
        &mut self,
        placement: &Placement,
        rng: &mut StreamRng,
    ) -> Result<(FileHandle, f64), SchedError> {
        if !self.first_create {
            self.fs.simulate_tenant_churn(rng);
        }
        self.first_create = false;
        let (file, latency) = match placement {
            Placement::Deferred => self.fs.create_file(rng).map_err(RunError::from)?,
            Placement::Pinned(targets) => self
                .fs
                .create_file_on(targets.clone())
                .map_err(RunError::from)?,
        };
        Ok((file, latency.as_secs_f64()))
    }

    /// Admit request `i` at instant `now` (the live clock): place,
    /// create the file, claim nodes, inject flows live and into the
    /// shadow baseline, commit the decision.
    // Kept out of the event loop, its only caller: inlined there, the
    // 100x10 `fleet_online` session's throughput swung by up to 12%
    // with where the linker happened to place the loop.
    #[inline(never)]
    fn admit(&mut self, i: usize, now: f64) -> Result<(), SchedError> {
        let req = self.ledger.req(i);
        // Placement reuses the frozen path's stream name so policies
        // draw identically in both modes; the admission's own draws
        // (churn, chooser, overhead) live on an online-only stream.
        let mut place_rng = self.factory.stream("sched-place", i as u64);
        let mut admit_rng = self.factory.stream("online-admit", i as u64);
        let placement = self.place(req.stripe, req.config.total_bytes, &mut place_rng)?;
        let (file, create_s) = self.create(&placement, &mut admit_rng)?;
        let overhead_s = create_s
            + self.platform.run_overhead_mean_s * self.overhead_dist.sample(&mut admit_rng);

        let nodes = self.live.claim_nodes(req.config.nodes);
        let (flows, ideal_io_s) = self
            .live
            .inject(i, &req.config, &file, &nodes, &self.platform);
        self.live_flows += flows.len() as u64;
        let targets = file.targets.clone();

        self.ledger.placed(i, now, &targets, false);
        if let Some(reg) = self.ledger.metrics() {
            reg.gauge_max("sched.online.live_flows", self.live_flows as f64);
            reg.gauge_max("sched.online.live_apps", (self.running.len() + 1) as f64);
        }
        self.running.push(LiveApp {
            app: i,
            start_s: now,
            overhead_s,
            ideal_s: ideal_io_s + overhead_s,
            ideal_io_s,
            file,
            targets,
            nodes,
            flows,
            io_end_s: now,
            bytes: req.config.total_bytes,
            rate_obs: obs::RateIntegral::new(),
            samples: 0,
            last_change_s: now,
            anchor_bytes: 0.0,
            anchor_s: now,
        });
        if self.policy.wants_feedback() && self.next_eval_ns.is_none() {
            self.next_eval_ns = Some(ns(now) + EVAL_PERIOD_NS);
        }
        Ok(())
    }

    /// Account one completion from the live event heap. When it is the
    /// application's last flow, commit its outcome and schedule the
    /// capacity release at I/O end plus overhead.
    fn on_completion(&mut self, c: simcore::flow::Completion) {
        self.live_flows -= 1;
        let pos = self
            .running
            .iter()
            .position(|a| a.app == c.tag as usize)
            .expect("completion of an unknown application");
        let a = &mut self.running[pos];
        a.flows.retain(|f| f.id != c.flow);
        a.io_end_s = a.io_end_s.max(c.time.as_secs_f64());
        if !a.flows.is_empty() {
            return;
        }
        let end_s = a.io_end_s + a.overhead_s;
        self.ledger.completed(
            a.app,
            a.start_s,
            end_s,
            end_s - a.start_s,
            a.ideal_s,
            a.bytes,
            a.targets.clone(),
        );
        let app = a.app;
        self.policy.app_done(app);
        self.releases.push(Reverse((ns(end_s), app)));
    }

    /// Release a finished application's nodes and capacity.
    fn on_release(&mut self, app: usize, now: f64) {
        let pos = self
            .running
            .iter()
            .position(|a| a.app == app)
            .expect("released application is running");
        self.live
            .free_nodes
            .extend(self.running.swap_remove(pos).nodes);
        self.ledger.release(app, now);
    }

    /// Running application `pos`'s in-flight flows and their pooled
    /// remaining bytes. A flow can have completed at this very instant
    /// (its Completion queued but not yet processed — e.g. a second
    /// same-instant eviction already moved this app, or the write
    /// finished as the deadline expired): such flows are no longer
    /// active, carry no bytes, and are left for normal completion
    /// handling.
    fn in_flight(&self, pos: usize) -> (Vec<FlowId>, f64) {
        let net = self.live.sim.network();
        let ids: Vec<FlowId> = self.running[pos]
            .flows
            .iter()
            .map(|f| f.id)
            .filter(|&id| net.is_active(id))
            .collect();
        let remaining = ids.iter().map(|&id| net.remaining(id)).sum();
        (ids, remaining)
    }

    /// Move running application `pos` onto `file`: cancel its in-flight
    /// flows, start one flow per `(node, target, bytes)` of `plan` now,
    /// each weighted for `ppn` streams of its node, and restart the
    /// feedback window at `at_s` so the policy judges the new stripe set
    /// on its own samples. Returns the stripe set it left.
    fn move_flows(
        &mut self,
        pos: usize,
        in_flight: Vec<FlowId>,
        file: FileHandle,
        plan: impl IntoIterator<Item = (usize, TargetId, f64)>,
        ppn: u32,
        at_s: f64,
    ) -> Vec<TargetId> {
        for &id in &in_flight {
            self.live.sim.cancel_flow(id);
        }
        self.live_flows -= in_flight.len() as u64;
        let weight = self
            .platform
            .compute
            .flow_depth_weight(ppn, file.pattern.stripe_count);
        let now = self.live.sim.now();
        let a = &mut self.running[pos];
        a.flows.clear();
        for (node, target, bytes) in plan {
            let id = self.live.sim.start_weighted_flow_at(
                now,
                self.live.paths.write_path(node, target),
                bytes,
                a.app as u64,
                weight,
            );
            a.flows.push(LiveFlow { id, target });
            self.live_flows += 1;
        }
        let at_ns = ns(at_s);
        a.rate_obs.observe(at_ns, 0.0);
        a.anchor_bytes = a.rate_obs.bytes_until(at_ns);
        a.anchor_s = at_s;
        a.samples = 0;
        a.last_change_s = at_s;
        a.file = file;
        std::mem::replace(&mut a.targets, a.file.targets.clone())
    }

    /// Give up on a dead target: mark it offline in the deployment and
    /// move every application still writing to it. Each one's live
    /// flows are cancelled, their pooled remaining bytes re-striped
    /// evenly over a fresh placement — completed flows stay completed.
    fn on_eviction(&mut self, at_s: f64, target: TargetId, seq: u64) -> Result<(), SchedError> {
        self.fs
            .set_target_state(target, TargetState::Offline)
            .expect("the fault plan's targets were validated");
        if let Some(reg) = self.ledger.metrics() {
            reg.inc("sched.evictions");
        }
        // An earlier eviction at this exact instant re-placed its
        // applications with *pending start events*: settle them now so
        // flow activity reflects this instant's true state (their
        // completions, if any, drain at the next loop head).
        let settle_at = self.live.sim.now();
        self.live.sim.run_until(settle_at);
        for pos in 0..self.running.len() {
            if !self.running[pos].flows.iter().any(|f| f.target == target) {
                continue;
            }
            let (in_flight, remaining) = self.in_flight(pos);
            if remaining <= 0.0 {
                // Nothing left to move: the app is finishing at this
                // instant; let its queued completions run their course.
                // (A stalled flow on the dead target always has bytes
                // remaining, however few — it must still be moved, or
                // it would never complete.)
                continue;
            }
            let a = &self.running[pos];
            let (app, stripe, bytes) = (a.app, a.targets.len() as u32, a.bytes);
            let mut rng = self
                .factory
                .stream("online-replace", (app as u64) << 8 | seq);
            let placement = self.place(stripe, bytes, &mut rng)?;
            let (file, _) = self.create(&placement, &mut rng)?;
            // Even re-striping of the pooled remainder: one flow per
            // (node, new target) pair, an approximation of the client
            // re-issuing its abandoned writes under the new pattern.
            let (nodes, targets) = (self.running[pos].nodes.clone(), file.targets.clone());
            let share = remaining / (nodes.len() * targets.len()) as f64;
            let plan = nodes
                .iter()
                .flat_map(|&node| targets.iter().map(move |&t| (node, t, share)));
            let ppn = self.ledger.req(app).config.ppn;
            let from = self.move_flows(pos, in_flight, file, plan, ppn, at_s);
            self.ledger
                .restriped(app, at_s, "evict", &from, &self.running[pos].targets);
            if let Some(reg) = self.ledger.metrics() {
                reg.inc("sched.replacements");
            }
        }
        Ok(())
    }

    /// Periodic feedback evaluation: refresh utilization, integrate each
    /// running application's observed rate, hand the policy one
    /// observation per app, and apply whatever restripe decisions come
    /// back. Only ever called for feedback-wanting policies, so
    /// feedback-free sessions never enter this path.
    fn on_eval(&mut self, now_s: f64) -> Result<(), SchedError> {
        self.live.refresh_busy(&self.platform);
        let now_ns = ns(now_s);
        let load = ClusterLoad::of(
            self.fs,
            self.running.iter().map(|r| (&r.targets[..], r.bytes)),
        );
        let mut actions: Vec<(usize, RestripeDecision)> = Vec::new();
        for pos in 0..self.running.len() {
            // Instantaneous per-app rate and the storage-side capacity
            // ceiling of its current targets, from the live solver.
            let flow_ids: Vec<FlowId> = self.running[pos].flows.iter().map(|f| f.id).collect();
            let bps: f64 = flow_ids.iter().map(|&f| self.live.sim.flow_rate(f)).sum();
            let capacity: f64 = {
                let distinct: BTreeSet<TargetId> =
                    self.running[pos].targets.iter().copied().collect();
                distinct
                    .iter()
                    .map(|&t| {
                        self.live
                            .sim
                            .network()
                            .effective_capacity(self.live.paths.ost_resource(t))
                    })
                    .sum()
            };
            let remaining: f64 = flow_ids
                .iter()
                .map(|&f| self.live.sim.network().remaining(f))
                .sum();
            let a = &mut self.running[pos];
            a.rate_obs.observe(now_ns, bps);
            a.samples += 1;
            if a.samples == 1 {
                // Anchor the observation window at the first sample
                // after a change: the integral segment before it ran at
                // the stale (zero) rate and would bias the mean low.
                a.anchor_bytes = a.rate_obs.bytes_until(now_ns);
                a.anchor_s = now_s;
            }
            let since = now_s - a.last_change_s;
            if since <= 0.0 {
                continue;
            }
            let window = now_s - a.anchor_s;
            let observed = if window > 0.0 {
                (a.rate_obs.bytes_until(now_ns) - a.anchor_bytes) / window
            } else {
                bps
            };
            let view = load.view(&self.platform, &self.live.busy_fraction, &self.suspected);
            let snapshot = AppObservation {
                app: a.app,
                targets: &a.targets,
                observed_bps: observed,
                ideal_bps: a.bytes as f64 / a.ideal_io_s,
                allocated_capacity_bps: capacity,
                samples: a.samples,
                since_change_s: since,
                remaining_fraction: (remaining / a.bytes as f64).clamp(0.0, 1.0),
            };
            if let Some(d) = self.policy.restripe(&view, &snapshot) {
                // Drop no-op decisions (same distinct target set): a
                // same-set restripe must be bit-identical to no restripe
                // at all.
                let new_set: BTreeSet<TargetId> = d.targets.iter().copied().collect();
                let cur_set: BTreeSet<TargetId> = a.targets.iter().copied().collect();
                if new_set != cur_set {
                    actions.push((a.app, d));
                }
            }
        }
        for (app, d) in actions {
            self.apply_restripe(app, d, now_s)?;
        }
        Ok(())
    }

    /// Commit one restripe decision: validate the new stripe set against
    /// the metadata service (an evicted destination rejects the whole
    /// move, leaving the app untouched), then redirect the not-yet-drained
    /// bytes onto the new stripe set following the file's own chunk math
    /// ([`restripe_split`]).
    fn apply_restripe(
        &mut self,
        app: usize,
        d: RestripeDecision,
        at_s: f64,
    ) -> Result<(), SchedError> {
        let pos = self
            .running
            .iter()
            .position(|a| a.app == app)
            .expect("restriped application is running");
        // Pooled not-yet-drained bytes, read *before* touching any flow:
        // a rejected restripe must leave the application exactly as it
        // was.
        let (in_flight, remaining) = self.in_flight(pos);
        if remaining < 1.0 {
            // Nothing left to redirect; the app is about to finish.
            return Ok(());
        }
        let a = &self.running[pos];
        let (bytes, old_file) = (a.bytes, a.file.clone());
        let issued = (bytes as f64 - remaining).clamp(0.0, bytes as f64) as u64;
        let (file, latency_s) =
            match self
                .fs
                .restripe_file(&old_file, d.targets.clone(), bytes, issued)
            {
                Ok((f, l)) => (f, l.as_secs_f64()),
                Err(_) => {
                    if let Some(reg) = self.ledger.metrics() {
                        reg.inc("sched.restripes.rejected");
                    }
                    return Ok(());
                }
            };
        // The redirect plan: the `[issued, total)` remainder distributed
        // over the new stripe set by chunk math, rescaled to the exact
        // fluid remainder still in flight.
        let split = restripe_split(&old_file, &file, bytes, issued);
        let planned: u64 = split.redirected.iter().map(|(_, b)| *b).sum();
        let scale = if planned > 0 {
            remaining / planned as f64
        } else {
            0.0
        };
        let nodes = self.running[pos].nodes.clone();
        let plan = split
            .redirected
            .iter()
            .filter(|&&(_, tb)| tb > 0)
            .flat_map(|&(t, tb)| {
                let per_node = tb as f64 * scale / nodes.len() as f64;
                nodes.iter().map(move |&node| (node, t, per_node))
            });
        // One aggregate flow per (node, target) stands in for all of the
        // node's ppn process streams, so it carries the node's whole
        // depth weight (ppn = 1 in the split): per-target queue depth —
        // and with it the depth-dependent storage capacity — matches
        // what the original per-process flows presented.
        let from = self.move_flows(pos, in_flight, file, plan, 1, at_s);
        // The metadata rewrite costs wall time, like the create it
        // mirrors; the solo ideal is untouched (same rule as evictions).
        self.running[pos].overhead_s += latency_s;
        self.ledger
            .restriped(app, at_s, d.kind.label(), &from, &self.running[pos].targets);
        Ok(())
    }
}

/// Serve an arrival stream through the continuous engine. Called by
/// [`Scheduler::serve`] in [`AdmissionMode::Online`] after the shared
/// validation (non-empty, shared-file layout, uniform ppn and mode).
pub(crate) fn serve_online(
    sched: Scheduler<'_, '_>,
    reqs: &[AppRequest],
    factory: &RngFactory,
) -> Result<SchedOutcome, SchedError> {
    let Scheduler {
        fs,
        policy,
        faults,
        retry,
        hedge,
        max_concurrent,
        recorder,
        metrics,
        suspected,
        ..
    } = sched;
    if hedge {
        return Err(SchedError::OnlineUnsupported {
            feature: "hedged writes",
        });
    }
    let platform = fs.platform().clone();

    // Validate and compile the fault plan before touching the
    // deployment: a bad plan or retry policy changes nothing.
    let timeline = FaultTimeline::compile(fs, &faults, &retry)?;

    // One session-wide hardware reality: the selection-state shuffle,
    // one noise sample, the startup-overhead distribution.
    let mut session_rng = factory.stream("online-session", 0);
    fs.randomize_selection_state(&mut session_rng);
    let noise = FabricNoise::sample(&platform, &mut session_rng);
    let overhead_dist = LogNormal::unit_mean(platform.run_overhead_sigma);

    // An outage the retry probes never resolve becomes an eviction at
    // its abandon instant, when the scheduler marks the target offline
    // and re-places whoever still writes to it.
    let live = LiveSim::build(fs, &reqs[0].config, &noise, &timeline);
    let mut evictions: Vec<(f64, TargetId)> = timeline
        .outages
        .iter()
        .filter(|o| !o.resumed)
        .map(|o| (o.end_s, o.target))
        .collect();
    evictions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut s = Session {
        ledger: Ledger::new(
            reqs,
            recorder,
            metrics,
            policy.name(),
            max_concurrent,
            platform.compute.max_nodes,
        ),
        fs,
        policy,
        suspected,
        live,
        overhead_dist,
        factory,
        platform,
        running: Vec::new(),
        releases: BinaryHeap::new(),
        next_eval_ns: None,
        live_flows: 0,
        first_create: true,
    };
    let mut next_arrival = 0usize;
    let mut evict_i = 0usize;

    loop {
        // Account every completion the live sim has produced so far.
        while let Some(c) = s.live.sim.pop_ready() {
            s.on_completion(c);
        }

        // Next external event, in nanoseconds so ties are exact; equal
        // instants break evict < release < arrive.
        let mut next: Option<(u64, External)> = None;
        let mut consider = |t: u64, kind: External| {
            if next.is_none_or(|(bt, bk)| t < bt || (t == bt && kind < bk)) {
                next = Some((t, kind));
            }
        };
        if let Some(&(at_s, _)) = evictions.get(evict_i) {
            consider(ns(at_s), External::Evict);
        }
        if let Some(&Reverse((tns, _))) = s.releases.peek() {
            consider(tns, External::Release);
        }
        if next_arrival < reqs.len() {
            consider(ns(reqs[next_arrival].arrival_s), External::Arrive);
        }
        if let Some(e) = s.next_eval_ns {
            consider(e, External::Eval);
        }

        let Some((t_ns, kind)) = next else {
            if s.live_flows > 0 {
                // Calendar exhausted but flows still draining: their
                // completions will schedule the remaining releases. A
                // stall here is impossible — every never-recovering
                // outage has an eviction, which was already processed.
                let fired = s.live.sim.run_until(SimTime::MAX);
                assert!(fired, "online engine stalled with live flows left");
                continue;
            }
            break;
        };

        // Advance the live clock toward the event; if flows complete
        // first, loop back and account them before re-deciding.
        let horizon = SimTime::from_nanos(t_ns);
        if horizon > s.live.sim.now() && s.live.sim.run_until(horizon) {
            continue;
        }

        // Freed capacity and newcomers admit from the queue head.
        let now = match kind {
            External::Evict => {
                let (at_s, target) = evictions[evict_i];
                evict_i += 1;
                s.on_eviction(at_s, target, evict_i as u64)?;
                continue;
            }
            External::Release => {
                let Reverse((_, app)) = s.releases.pop().expect("peeked above");
                let now = SimTime::from_nanos(t_ns).as_secs_f64();
                s.on_release(app, now);
                now
            }
            External::Arrive => {
                next_arrival += 1;
                s.ledger.arrive(next_arrival - 1)?;
                reqs[next_arrival - 1].arrival_s
            }
            External::Eval => {
                s.on_eval(SimTime::from_nanos(t_ns).as_secs_f64())?;
                s.next_eval_ns = if s.running.is_empty() {
                    None
                } else {
                    Some(t_ns + EVAL_PERIOD_NS)
                };
                continue;
            }
        };
        while let Some(i) = s.ledger.next(now) {
            s.admit(i, now)?;
        }
    }

    let sim_events = s.live.sim.events_processed() + s.live.shadow.events_processed();
    if let Some(reg) = s.ledger.metrics() {
        reg.add("sched.online.sim_events", sim_events);
    }
    Ok(s.ledger.finish(sim_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalStream;
    use crate::policy::{LeastLoadedServer, Random, UtilizationFeedback};
    use beegfs_core::{
        plafrim_registration_order, ChooserKind, DirConfig, FaultPlan, StripePattern,
    };
    use cluster::presets;
    use ior::RetryPolicy;
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
    fn serial_online_slowdowns_are_exactly_one() {
        // Non-overlapping arrivals on the live fabric: the shadow
        // baseline replays the same flows on an identical idle twin, so
        // contention-free slowdown is 1 up to nanosecond quantization.
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(10_000.0, 4), req(20_000.0, 4)])
                .unwrap();
        let factory = RngFactory::new(41);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(AdmissionMode::Online)
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps.len(), 3);
        for a in &out.apps {
            assert!(
                (a.slowdown - 1.0).abs() < 1e-6,
                "app {} slowdown {} on an idle system",
                a.app,
                a.slowdown
            );
            assert!(a.wait_s == 0.0);
        }
        assert!(out.makespan_s > 20_000.0);
    }

    #[test]
    fn overlapping_online_arrivals_price_contention_both_ways() {
        // Two simultaneous apps sharing the fabric: both are slowed
        // relative to their idle baselines — including the first one,
        // which the frozen oracle by construction prices at 1.0.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(42);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(AdmissionMode::Online)
            .serve(&stream, &factory)
            .unwrap();
        assert!(out.apps[0].slowdown > 1.01, "{}", out.apps[0].slowdown);
        assert!(out.apps[1].slowdown > 1.01, "{}", out.apps[1].slowdown);
    }

    #[test]
    fn online_decision_log_is_deterministic() {
        let serve = || {
            let factory = RngFactory::new(43);
            let stream = ArrivalStream::poisson(
                0.02,
                20,
                req(0.0, 2).config,
                4,
                &mut factory.stream("arrivals", 0),
            );
            let mut fs = deploy(ChooserKind::Random);
            let out = Scheduler::new(&mut fs, Box::new(Random))
                .mode(AdmissionMode::Online)
                .serve(&stream, &factory)
                .unwrap();
            (
                out.decision_log_json(),
                out.apps
                    .iter()
                    .map(|a| a.end_s.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(serve(), serve());
    }

    #[test]
    fn online_eviction_cancels_and_replaces_dead_target() {
        // Target 0 dies at 0.5 s and never recovers; the cold-start
        // placement uses it, so at the retry deadline the engine must
        // cancel the stalled flows, re-stripe the remaining bytes onto
        // a fresh placement, and still finish the application.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(9);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(0.5, TargetId(0)).unwrap();
        let mut reg = obs::metrics::MetricsRegistry::new();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(AdmissionMode::Online)
            .faults(plan)
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert!(
            out.decisions[0].targets.contains(&0),
            "cold start should land on t0: {:?}",
            out.decisions[0].targets
        );
        let last = out.decisions.last().unwrap();
        assert!(last.replaced, "no replacement decision was committed");
        assert!(!last.targets.contains(&0), "dead target still allocated");
        assert!(!out.apps[0].targets.contains(&TargetId(0)));
        assert_eq!(reg.counter("sched.evictions"), 1);
        assert_eq!(reg.counter("sched.replacements"), 1);
        // The stall-and-move shows up as extra wall time past ideal.
        assert!(out.apps[0].slowdown > 1.0);
    }

    #[test]
    fn online_queueing_metrics_and_census() {
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4), req(2.0, 4)]).unwrap();
        let factory = RngFactory::new(30);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let mut reg = obs::metrics::MetricsRegistry::new();
        let out = Scheduler::new(&mut fs, Box::new(UtilizationFeedback))
            .mode(AdmissionMode::Online)
            .max_concurrent(1)
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(reg.counter("sched.admissions"), 3);
        assert_eq!(reg.counter("sched.queued"), 2);
        assert_eq!(
            reg.counter("sched.decisions.UtilizationFeedback"),
            out.decisions.len() as u64
        );
        assert_eq!(reg.counter("sched.online.sim_events"), out.sim_events);
        assert!(reg.gauge("sched.online.live_apps").unwrap() >= 1.0);
        assert!(reg.gauge("sched.online.live_flows").unwrap() >= 4.0);
        let waits = reg.histogram("sched.wait_s").unwrap();
        assert_eq!(waits.count(), 3);
        assert!(waits.quantile(1.0) > 0.0, "queued apps waited");
        // Serialized by max_concurrent = 1: later apps start after the
        // previous release, and every wait shows up in the outcome.
        assert!(out.apps[1].wait_s > 0.0 && out.apps[2].wait_s > 0.0);
    }

    #[test]
    fn adaptive_widens_on_the_storage_bound_platform() {
        // Scenario 2 (Omni-Path): the network is over-provisioned, so a
        // stripe-4 app saturates its own storage targets. The adaptive
        // policy must see that, widen to all 8 targets mid-flight, and
        // keep the widen (it roughly doubles the storage ceiling).
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(7);
        let mut fs = BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig {
                pattern: StripePattern::new(4, 512 * 1024),
                chooser: ChooserKind::RoundRobin,
            },
            plafrim_registration_order(),
        );
        let mut reg = obs::metrics::MetricsRegistry::new();
        let out = Scheduler::new(
            &mut fs,
            Box::new(crate::policy::AdaptiveStriping::default()),
        )
        .mode(AdmissionMode::Online)
        .metrics(&mut reg)
        .serve(&stream, &factory)
        .unwrap();
        assert!(
            out.restripes.iter().any(|r| r.kind == "widen"),
            "no widen committed: {}",
            out.restripe_log_json()
        );
        assert!(
            !out.restripes.iter().any(|r| r.kind == "narrow"),
            "the widen should have paid off: {}",
            out.restripe_log_json()
        );
        let total = fs.platform().total_targets();
        assert_eq!(
            out.apps[0].targets.len(),
            total,
            "final stripe set should cover all targets"
        );
        assert_eq!(reg.counter("sched.restripes.widen"), 1);
        assert!(reg.counter("sched.restripes") >= 1);
    }

    #[test]
    fn adaptive_leaves_the_network_bound_platform_alone() {
        // Scenario 1 (Ethernet): the 1100 MiB/s server links cap the app
        // far below its storage ceiling, so widening cannot help and the
        // policy must not touch a balanced placement.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(7);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(
            &mut fs,
            Box::new(crate::policy::AdaptiveStriping::default()),
        )
        .mode(AdmissionMode::Online)
        .serve(&stream, &factory)
        .unwrap();
        assert!(
            out.restripes.is_empty(),
            "network-bound app restriped: {}",
            out.restripe_log_json()
        );
        assert_eq!(out.apps[0].targets.len(), 4);
    }

    #[test]
    fn the_live_and_shadow_networks_account_no_bytes() {
        // The engine reads busy time only, so neither fabric pays the
        // per-path byte loop of every drain.
        let fs = deploy(ChooserKind::RoundRobin);
        let noise = FabricNoise::none(fs.platform());
        let timeline =
            FaultTimeline::compile(&fs, &FaultPlan::new(), &RetryPolicy::default()).unwrap();
        let live = LiveSim::build(&fs, &req(0.0, 4).config, &noise, &timeline);
        let link = live.paths.server_link_resource(0);
        for net in [live.sim.network(), live.shadow.network()] {
            assert!(std::panic::catch_unwind(|| net.bytes_through(link)).is_err());
        }
    }

    #[test]
    fn hedging_is_frozen_only() {
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(1);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .mode(AdmissionMode::Online)
            .hedge()
            .serve(&stream, &factory)
            .unwrap_err();
        assert!(matches!(err, SchedError::OnlineUnsupported { .. }));
    }

    #[test]
    fn admission_mode_round_trips_and_labels() {
        assert_eq!(AdmissionMode::default(), AdmissionMode::FrozenOracle);
        assert_eq!(AdmissionMode::Online.label(), "online");
        assert_eq!(AdmissionMode::FrozenOracle.label(), "frozen-oracle");
        let json = serde_json::to_string(&AdmissionMode::Online).unwrap();
        let back: AdmissionMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, AdmissionMode::Online);
    }
}
