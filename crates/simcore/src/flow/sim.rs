//! The fluid-simulation event loop.

use super::network::{FlowId, FlowNetwork, ResourceId, SolverScratch};
use crate::events::EventQueue;
use crate::time::{SimDuration, SimTime};
use obs::Event as ObsEvent;
use std::collections::VecDeque;

/// Bytes below which a flow counts as finished (absorbs float residue).
const EPS_BYTES: f64 = 1e-6;

/// A finished flow, reported by [`FluidSim::next_completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which flow finished.
    pub flow: FlowId,
    /// When it finished.
    pub time: SimTime,
    /// The caller tag attached at [`FlowNetwork::add_flow`] time.
    pub tag: u64,
}

/// The simulation stalled: active flows exist, all have zero rate, and no
/// scheduled event could ever unblock them.
///
/// Returned by [`FluidSim::try_next_completion`]. This is how a
/// permanently failed resource (speed factor forced to zero with no
/// scheduled recovery) surfaces to callers: the flows crossing it can
/// never drain, so instead of looping forever the simulation reports
/// which flows are stuck and when progress stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallError {
    /// Simulated instant at which progress stopped.
    pub at: SimTime,
    /// The active flows that can no longer make progress.
    pub flows: Vec<FlowId>,
    /// The caller tags of those flows, in the same order.
    pub tags: Vec<u64>,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fluid simulation stalled at {}: {} active flows with zero rate",
            self.at,
            self.flows.len()
        )
    }
}

impl std::error::Error for StallError {}

#[derive(Debug)]
enum Event {
    Start(FlowId),
    SetFactor(ResourceId, f64),
}

/// Recycled simulation buffers, carried across [`FluidSim`] instances.
///
/// A fresh sim grows its event heap, solver scratch, and bookkeeping
/// vectors as it warms up; rep loops (the ior runner, the campaign
/// engine, the scheduler's per-admission measurement runs) build
/// thousands of short-lived sims, so [`FluidSim::with_arena`] seeds a
/// new sim from the arena and [`FluidSim::recycle_into`] hands the
/// buffers back when the run ends. Only buffer *capacity* survives a
/// recycle — every buffer is cleared on both paths, so no simulation
/// state can leak between runs and results are identical with or
/// without an arena.
#[derive(Debug, Default)]
pub struct SimArena {
    solver: SolverScratch,
    queue: EventQueue<Event>,
    ready: VecDeque<Completion>,
    last_loads: Vec<f64>,
    scratch_loads: Vec<f64>,
    finished: Vec<u32>,
    net_active: Vec<u32>,
    net_dirty: Vec<u32>,
    net_incident: Vec<Vec<u32>>,
    /// Times this arena has seeded a sim ([`FluidSim::with_arena`]).
    uses: u64,
}

impl SimArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many sims this arena has seeded. Every use after the first is
    /// a recycle hit — the new sim starts from warmed-up buffers instead
    /// of growing its own.
    pub fn uses(&self) -> u64 {
        self.uses
    }
}

/// Solver-introspection histograms, allocated only when
/// [`FluidSim::enable_metrics`] was called (`None` is the fast path: the
/// cost when disabled is one pointer test per rate recompute).
#[derive(Debug, Default)]
struct SimMetrics {
    /// Flow count of every re-solved dirty component.
    component_size: obs::metrics::Histogram,
    /// Components re-solved per non-skipped recompute.
    components_per_solve: obs::metrics::Histogram,
}

/// Event-driven driver over a [`FlowNetwork`].
///
/// The caller schedules flows ([`FluidSim::start_flow_at`]) and then pulls
/// completions one at a time with [`FluidSim::next_completion`]; between
/// pulls, new flows may be injected at any time `>= now()`, which is how
/// dependent phases (a process writing its next block only after the
/// previous one) are modelled.
///
/// ```
/// use simcore::flow::{CapacityModel, FlowNetwork, FluidSim};
/// use simcore::SimTime;
///
/// let mut net = FlowNetwork::new();
/// let link = net.add_resource("link", CapacityModel::Fixed(100.0));
/// let mut sim = FluidSim::new(net);
/// let f = sim.start_flow_at(SimTime::ZERO, vec![link], 1000.0, 7);
/// let done = sim.next_completion().unwrap();
/// assert_eq!(done.flow, f);
/// assert_eq!(done.tag, 7);
/// assert_eq!(done.time, SimTime::from_secs_f64(10.0));
/// ```
///
/// Attaching a recorder ([`FluidSim::set_recorder`], e.g. an
/// [`obs::Timeline`]) additionally streams structured events: flow
/// start/end, per-resource rate changes after every recompute, and
/// speed-factor changes. Without a recorder the only overhead is one
/// branch per emission site.
pub struct FluidSim<'r> {
    net: FlowNetwork,
    queue: EventQueue<Event>,
    now: SimTime,
    rates_dirty: bool,
    ready: VecDeque<Completion>,
    /// Optional event sink; `None` is the fast path.
    recorder: Option<&'r mut dyn obs::Recorder>,
    /// Optional callback fired the instant any flow finishes; `None` is
    /// the fast path.
    completion_hook: Option<Box<dyn FnMut(Completion) + 'r>>,
    /// Last rate emitted per resource, so only *changes* are recorded.
    last_loads: Vec<f64>,
    /// Scratch buffer for the per-recompute load snapshot.
    scratch_loads: Vec<f64>,
    /// Scratch list of the slots of flows that drained this step, so
    /// finishing them (which edits the network's active list) never
    /// iterates it.
    scratch_finished: Vec<u32>,
    /// Solve through [`FlowNetwork::reference_recompute_rates`] instead
    /// of the incremental solver (differential tests and benches).
    use_reference_solver: bool,
    /// Calendar events + completions processed so far (always counted);
    /// an [`obs::metrics::Counter`] so the same cell is harvested into a
    /// metrics registry by [`FluidSim::metrics_into`].
    events_processed: obs::metrics::Counter,
    /// Optional introspection histograms; `None` is the fast path.
    metrics: Option<Box<SimMetrics>>,
}

impl std::fmt::Debug for FluidSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidSim")
            .field("net", &self.net)
            .field("now", &self.now)
            .field("rates_dirty", &self.rates_dirty)
            .field("ready", &self.ready)
            .field("recording", &self.recorder.is_some())
            .field("events_processed", &self.events_processed.get())
            .finish_non_exhaustive()
    }
}

impl<'r> FluidSim<'r> {
    /// Wrap a network (flows may already be registered but not active).
    pub fn new(net: FlowNetwork) -> Self {
        FluidSim {
            net,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rates_dirty: true,
            ready: VecDeque::new(),
            recorder: None,
            completion_hook: None,
            last_loads: Vec::new(),
            scratch_loads: Vec::new(),
            scratch_finished: Vec::new(),
            use_reference_solver: false,
            events_processed: obs::metrics::Counter::new(),
            metrics: None,
        }
    }

    /// Wrap a network, seeding all work buffers from a [`SimArena`] so a
    /// warmed-up rep loop runs allocation-free. Behaviour is identical to
    /// [`FluidSim::new`] — the arena contributes capacity, never state.
    pub fn with_arena(mut net: FlowNetwork, arena: &mut SimArena) -> Self {
        arena.uses += 1;
        net.install_recycled(
            std::mem::take(&mut arena.solver),
            std::mem::take(&mut arena.net_active),
            std::mem::take(&mut arena.net_dirty),
            std::mem::take(&mut arena.net_incident),
        );
        let mut queue = std::mem::take(&mut arena.queue);
        queue.reset();
        let mut ready = std::mem::take(&mut arena.ready);
        ready.clear();
        let mut last_loads = std::mem::take(&mut arena.last_loads);
        last_loads.clear();
        let mut scratch_loads = std::mem::take(&mut arena.scratch_loads);
        scratch_loads.clear();
        let mut scratch_finished = std::mem::take(&mut arena.finished);
        scratch_finished.clear();
        FluidSim {
            net,
            queue,
            now: SimTime::ZERO,
            rates_dirty: true,
            ready,
            recorder: None,
            completion_hook: None,
            last_loads,
            scratch_loads,
            scratch_finished,
            use_reference_solver: false,
            events_processed: obs::metrics::Counter::new(),
            metrics: None,
        }
    }

    /// Return this sim's buffers to an arena for the next run to reuse.
    /// Call in place of dropping the sim at the end of a rep.
    pub fn recycle_into(mut self, arena: &mut SimArena) {
        let (solver, mut active, mut dirty, mut incident) = self.net.take_recycled();
        arena.solver = solver;
        active.clear();
        arena.net_active = active;
        dirty.clear();
        arena.net_dirty = dirty;
        for v in &mut incident {
            v.clear();
        }
        arena.net_incident = incident;
        self.queue.reset();
        arena.queue = self.queue;
        self.ready.clear();
        arena.ready = self.ready;
        self.last_loads.clear();
        arena.last_loads = self.last_loads;
        self.scratch_loads.clear();
        arena.scratch_loads = self.scratch_loads;
        self.scratch_finished.clear();
        arena.finished = self.scratch_finished;
    }

    /// Route every solve through
    /// [`FlowNetwork::reference_recompute_rates`] instead of the
    /// incremental solver. Results are bit-identical by construction;
    /// the reference allocates and rescans every registered flow. Used
    /// by the differential tests and the `flow_hotpath` and `flow_scale`
    /// benches.
    pub fn set_reference_solver(&mut self, reference: bool) {
        self.use_reference_solver = reference;
    }

    /// Attach an event sink for the rest of the simulation.
    ///
    /// Immediately emits one [`obs::Event::ResourceMeta`] per registered
    /// resource (so sinks can resolve indices to labels), then streams
    /// flow starts/ends, factor changes, and per-resource rate changes
    /// as they happen. Timestamps are sim-time nanoseconds; with a fixed
    /// seed the stream is byte-for-byte reproducible.
    pub fn set_recorder(&mut self, recorder: &'r mut dyn obs::Recorder) {
        let n = self.net.resource_count();
        for i in 0..n {
            recorder.record(ObsEvent::ResourceMeta {
                resource: i as u32,
                label: self.net.label(ResourceId::from_index(i)).to_string(),
            });
        }
        self.last_loads.clear();
        self.last_loads.resize(n, 0.0);
        // Keep the sampler proportional to the dirty components: capture
        // touched-resource sets from now on, and (for a mid-run attach)
        // force currently loaded resources into the first one.
        self.net.set_track_touched(true);
        self.net.mark_active_resources_dirty();
        self.recorder = Some(recorder);
    }

    /// Borrow the attached recorder, if any. Drivers that inject flows
    /// *between* completion pulls (hedged/redirected writes) use this to
    /// emit their own metadata events — e.g. [`obs::Event::FlowMeta`]
    /// for a mid-drain flow — into the same stream the simulation is
    /// recording into, preserving the trace's single-writer ordering.
    pub fn recorder_mut<'s>(&'s mut self) -> Option<&'s mut (dyn obs::Recorder + 'r)> {
        self.recorder.as_deref_mut()
    }

    /// Attach a callback fired synchronously whenever a flow finishes,
    /// *before* the completion is queued for
    /// [`FluidSim::next_completion`].
    ///
    /// This is the release-event channel an external allocator needs:
    /// the hook observes every completion in simulated-time order even
    /// when the driving loop batches or filters the completions it pulls,
    /// so resources tied to a flow (e.g. allocated storage targets) can
    /// be released at the exact simulated instant the flow ends.
    pub fn set_completion_hook(&mut self, hook: impl FnMut(Completion) + 'r) {
        self.completion_hook = Some(Box::new(hook));
    }

    /// Calendar events (flow starts, scheduled factor changes) plus flow
    /// completions processed so far. Counted whether or not a recorder is
    /// attached — it is the "how much simulation happened" metric
    /// campaign reports aggregate.
    pub fn events_processed(&self) -> u64 {
        self.events_processed.get()
    }

    /// Start collecting solver-introspection histograms (dirty-component
    /// sizes and per-recompute component counts). Off by default; when
    /// off the only cost is one pointer test per rate recompute.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
    }

    /// Harvest this sim's introspection into a metrics registry:
    ///
    /// * `sim.events_processed` — calendar events + completions;
    /// * `sim.solves`, `sim.flows_solved`, `sim.solve_skips` — solver
    ///   work and the dirty-set hit rate numerator;
    /// * `sim.event_heap.pushes` / `sim.event_heap.pops` — calendar
    ///   traffic;
    /// * `sim.dirty_component_size` / `sim.dirty_components_per_solve`
    ///   — histograms, present only after
    ///   [`FluidSim::enable_metrics`].
    ///
    /// Counters add and histograms merge, so harvesting many sims (the
    /// runner's measurement loop, a campaign's reps) into one registry
    /// accumulates.
    pub fn metrics_into(&self, reg: &mut obs::metrics::MetricsRegistry) {
        reg.add("sim.events_processed", self.events_processed.get());
        reg.add("sim.solves", self.net.solve_count());
        reg.add("sim.flows_solved", self.net.flows_solved());
        reg.add("sim.solve_skips", self.net.skip_count());
        reg.add("sim.event_heap.pushes", self.queue.pushes());
        reg.add("sim.event_heap.pops", self.queue.pops());
        if let Some(m) = self.metrics.as_deref() {
            reg.merge_histogram("sim.dirty_component_size", &m.component_size);
            reg.merge_histogram("sim.dirty_components_per_solve", &m.components_per_solve);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the underlying network (rates, loads, labels).
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }

    /// Register a flow and schedule its start.
    ///
    /// # Panics
    /// Panics if `start < now()`.
    pub fn start_flow_at(
        &mut self,
        start: SimTime,
        path: Vec<super::network::ResourceId>,
        bytes: f64,
        tag: u64,
    ) -> FlowId {
        self.start_weighted_flow_at(start, path, bytes, tag, 1.0)
    }

    /// Register a flow with an explicit depth weight (see
    /// [`FlowNetwork::add_flow_weighted`]) and schedule its start.
    ///
    /// # Panics
    /// Panics if `start < now()`.
    pub fn start_weighted_flow_at(
        &mut self,
        start: SimTime,
        path: Vec<super::network::ResourceId>,
        bytes: f64,
        tag: u64,
        depth_weight: f64,
    ) -> FlowId {
        assert!(
            start >= self.now,
            "flow start {start} is before current time {}",
            self.now
        );
        let id = self.net.add_flow_weighted(path, bytes, tag, depth_weight);
        self.queue.schedule(start, Event::Start(id));
        id
    }

    /// Change a resource's speed factor mid-simulation (time-varying noise
    /// or failure injection); takes effect from the current instant.
    pub fn set_resource_factor(&mut self, r: super::network::ResourceId, factor: f64) {
        self.net.set_factor(r, factor);
        self.rates_dirty = true;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ObsEvent::FactorChange {
                at: self.now.as_nanos(),
                resource: r.index() as u32,
                factor,
            });
        }
    }

    /// Schedule a resource speed-factor change at a future instant — the
    /// core of mid-run fault timelines: a target going offline is a
    /// scheduled change to factor `0.0`, a recovery a later change back.
    ///
    /// Changes scheduled at the same instant are applied in insertion
    /// order, so a plan that sets a factor twice at the same time is
    /// deterministic (last write wins).
    ///
    /// # Panics
    /// Panics if `at < now()`.
    pub fn schedule_factor_change(&mut self, at: SimTime, r: ResourceId, factor: f64) {
        assert!(
            at >= self.now,
            "factor change at {at} is before current time {}",
            self.now
        );
        self.queue.schedule(at, Event::SetFactor(r, factor));
    }

    /// Bring flow rates up to date after any topology change (flow
    /// start/finish/cancel, factor change). Shared by the two advance
    /// loops and the instantaneous-rate accessor.
    fn ensure_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        if self.use_reference_solver {
            self.net.reference_recompute_rates();
        } else {
            self.net.recompute_rates();
            if let Some(m) = self.metrics.as_deref_mut() {
                let sizes = self.net.last_component_sizes();
                if !sizes.is_empty() {
                    m.components_per_solve.observe(sizes.len() as f64);
                    for &s in sizes {
                        m.component_size.observe(f64::from(s));
                    }
                }
            }
        }
        self.rates_dirty = false;
        self.record_rate_samples();
    }

    /// The flow's instantaneous rate (bytes/s) under the *current* rate
    /// allocation, recomputing first if a topology change left rates
    /// stale. Returns `0.0` for flows that are not active (finished,
    /// cancelled, or not yet started) — the observer's view of a flow
    /// that is moving no bytes right now.
    pub fn flow_rate(&mut self, f: FlowId) -> f64 {
        if !self.net.is_active(f) {
            return 0.0;
        }
        self.ensure_rates();
        self.net.rate(f)
    }

    /// Advance until the next flow finishes and return it, or `None` when
    /// no active flows remain and no starts are pending.
    ///
    /// # Panics
    /// Panics if the simulation stalls: active flows exist, all have zero
    /// rate, and nothing is scheduled that could unblock them. Use
    /// [`FluidSim::try_next_completion`] to observe the stall as a typed
    /// error instead.
    pub fn next_completion(&mut self) -> Option<Completion> {
        match self.try_next_completion() {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Advance until the next flow finishes.
    ///
    /// Returns `Ok(Some(c))` for a completion, `Ok(None)` when no active
    /// flows remain and nothing is scheduled, and `Err(StallError)` when
    /// active flows exist but none can ever progress (all rates are zero
    /// and the event calendar is empty). A stall leaves the simulation at
    /// the instant progress stopped; the stalled flows stay registered, so
    /// the caller can still inspect the network state.
    pub fn try_next_completion(&mut self) -> Result<Option<Completion>, StallError> {
        loop {
            if let Some(c) = self.ready.pop_front() {
                return Ok(Some(c));
            }

            if self.net.active_slots().is_empty() && self.queue.is_empty() {
                return Ok(None);
            }

            self.ensure_rates();

            // Zero-size flows that are already due.
            if self.finish_drained(false) {
                continue;
            }

            // Earliest completion among active flows.
            let min_dt = self.min_time_to_completion();
            let next_start = self.queue.peek_time();

            if min_dt.is_infinite() {
                // No active flow can finish: either wait for a scheduled
                // event (a start, or a factor change that may restore a
                // dead resource) or declare a stall.
                match next_start {
                    Some(t) => {
                        self.advance_to(t);
                        self.process_events_at(t);
                        continue;
                    }
                    None => {
                        if self.net.active_slots().is_empty() {
                            continue; // only start events existed; loop re-checks
                        }
                        // Cold path: allocating the error payload is fine.
                        let slots = self.net.active_slots();
                        let flows = slots.iter().map(|&s| self.net.id_at(s)).collect();
                        let tags = slots.iter().map(|&s| self.net.tag_at(s)).collect();
                        return Err(StallError {
                            at: self.now,
                            flows,
                            tags,
                        });
                    }
                }
            }

            // Quantize the completion instant up to the next nanosecond so
            // the chosen flow is guaranteed to have drained by then.
            let dt = SimDuration::from_nanos((min_dt * 1e9).ceil().max(1.0) as u64);
            let completion_time = self.now + dt;

            match next_start {
                Some(t) if t <= completion_time => {
                    self.advance_to(t);
                    self.process_events_at(t);
                }
                _ => {
                    self.advance_to(completion_time);
                    self.finish_drained(true);
                    debug_assert!(
                        !self.ready.is_empty(),
                        "advanced to completion time but nothing finished"
                    );
                }
            }
        }
    }

    /// Run to the end, returning all completions in time order.
    ///
    /// # Panics
    /// Panics on a stall (see [`FluidSim::next_completion`]).
    pub fn run_to_completion(&mut self) -> Vec<Completion> {
        std::iter::from_fn(|| self.next_completion()).collect()
    }

    /// Run to the end, returning all completions in time order, or the
    /// stall error if progress becomes impossible before the last flow
    /// drains.
    pub fn try_run_to_completion(&mut self) -> Result<Vec<Completion>, StallError> {
        let mut out = Vec::new();
        while let Some(c) = self.try_next_completion()? {
            out.push(c);
        }
        Ok(out)
    }

    /// Advance the simulation up to — at most — instant `t`, processing
    /// calendar events on the way, and stop **early** the moment any flow
    /// completes. Returns `true` when completions are waiting (drain them
    /// with [`FluidSim::pop_ready`]; `now()` is the completion instant),
    /// `false` when the clock reached `t` with nothing finishing.
    ///
    /// Unlike [`FluidSim::try_next_completion`] this never stalls: when no
    /// active flow can progress and no event is due by `t`, the clock
    /// simply moves to `t` — the caller owns the calendar beyond the
    /// horizon and decides what happens next (an arrival, a fault
    /// deadline, an eviction). Calling `run_until(now())` is the *settle*
    /// operation: it fires start events scheduled at the current instant
    /// so freshly injected flows become active without advancing time.
    ///
    /// # Panics
    /// Panics if `t < now()`.
    pub fn run_until(&mut self, t: SimTime) -> bool {
        assert!(
            t >= self.now,
            "run_until({t}) is before current time {}",
            self.now
        );
        loop {
            if !self.ready.is_empty() {
                return true;
            }

            self.ensure_rates();

            // Zero-size flows that are already due.
            if self.finish_drained(false) {
                continue;
            }

            // Earliest completion among active flows, nanosecond-quantized
            // upward exactly as in `try_next_completion`.
            let min_dt = self.min_time_to_completion();
            let completion_time = if min_dt.is_finite() {
                Some(self.now + SimDuration::from_nanos((min_dt * 1e9).ceil().max(1.0) as u64))
            } else {
                None
            };

            let next_event = self.queue.peek_time().filter(|&e| e <= t);

            match (next_event, completion_time) {
                // A calendar event is due first (ties go to the event, as
                // in `try_next_completion`): process it and re-solve.
                (Some(e), c) if c.is_none_or(|c| e <= c) => {
                    self.advance_to(e);
                    self.process_events_at(e);
                }
                // A completion lands within the horizon: drain to it and
                // finish every flow within the quantization tolerance.
                (_, Some(c)) if c <= t => {
                    self.advance_to(c);
                    self.finish_drained(true);
                    debug_assert!(
                        !self.ready.is_empty(),
                        "advanced to completion time but nothing finished"
                    );
                }
                // Nothing due by the horizon — including the stalled case
                // (active zero-rate flows): just move the clock to `t`.
                _ => {
                    self.advance_to(t);
                    return false;
                }
            }
        }
    }

    /// Pop the next already-produced completion without advancing the
    /// clock. Completions queue up when several flows drain at the same
    /// instant (or when [`FluidSim::run_until`] stopped early); this
    /// drains that queue in completion order.
    pub fn pop_ready(&mut self) -> Option<Completion> {
        self.ready.pop_front()
    }

    /// Remove an *active* flow from the network mid-flight and return the
    /// bytes it still had left. No completion is emitted and the recorder
    /// sees no `FlowEnd` — the flow is cancelled, not finished. This is
    /// the re-injection primitive for online fault handling: cancel the
    /// stalled flows of an evicted target, then start replacement flows
    /// for the remaining bytes on the new placement.
    ///
    /// The flow is retired, like a finished one: afterwards the
    /// network reports it inactive with zero rate and remaining bytes.
    ///
    /// # Panics
    /// Panics if the flow is not currently active (finished, cancelled,
    /// or not yet started).
    pub fn cancel_flow(&mut self, f: FlowId) -> f64 {
        let s = self
            .net
            .slot_of(f)
            .filter(|&s| self.net.is_active_at(s))
            .unwrap_or_else(|| panic!("cancel_flow: flow {f:?} is not active"));
        let left = self.net.remaining_at(s);
        self.net.retire(s);
        self.net.compact_if_due();
        self.rates_dirty = true;
        self.events_processed.inc();
        left
    }

    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        let dt = t.duration_since(self.now).as_secs_f64();
        if dt > 0.0 {
            self.net.drain(dt);
        }
        self.now = t;
    }

    fn process_events_at(&mut self, t: SimTime) {
        while let Some(ev) = self.queue.pop_at(t) {
            self.events_processed.inc();
            match ev {
                Event::Start(f) => {
                    // Pending flows are never retired (only active ones
                    // finish or are cancelled), so the record is stored.
                    let s = self.net.slot_of(f).expect("pending flow is stored");
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.record(ObsEvent::FlowStart {
                            at: t.as_nanos(),
                            flow: f.index() as u32,
                            tag: self.net.tag_at(s),
                            bytes: self.net.remaining_at(s),
                        });
                    }
                    self.net.activate_slot(s);
                }
                Event::SetFactor(r, factor) => {
                    self.net.set_factor(r, factor);
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.record(ObsEvent::FactorChange {
                            at: t.as_nanos(),
                            resource: r.index() as u32,
                            factor,
                        });
                    }
                }
            }
            self.rates_dirty = true;
        }
    }

    /// Earliest time (seconds from now) at which an active flow drains
    /// at its current rate; infinite when no active flow is moving.
    fn min_time_to_completion(&self) -> f64 {
        let mut min_dt = f64::INFINITY;
        for &s in self.net.active_slots() {
            let rate = self.net.rate_at(s);
            if rate > 0.0 {
                min_dt = min_dt.min(self.net.remaining_at(s) / rate);
            }
        }
        min_dt
    }

    /// Finish every active flow that has drained and return whether any
    /// did. Without `quantized`, a flow has drained at `EPS_BYTES`.
    /// With it — right after advancing to a computed completion instant
    /// — ties must complete together: the nanosecond quantization of
    /// the event time leaves residues of up to rate x 1ns on flows that
    /// finish at the same true instant, so the tolerance scales with
    /// the flow's rate.
    ///
    /// Slots are collected first (finishing edits the active list being
    /// scanned) and retired as a batch; compaction, which moves slots,
    /// runs only once the batch is done.
    fn finish_drained(&mut self, quantized: bool) -> bool {
        let mut finished = std::mem::take(&mut self.scratch_finished);
        finished.clear();
        for &s in self.net.active_slots() {
            let tolerance = if quantized {
                self.net.rate_at(s) * 4e-9 + EPS_BYTES
            } else {
                EPS_BYTES
            };
            if self.net.remaining_at(s) <= tolerance {
                finished.push(s);
            }
        }
        let any = !finished.is_empty();
        for &s in &finished {
            self.finish(s);
        }
        finished.clear();
        self.scratch_finished = finished;
        if any {
            self.net.compact_if_due();
        }
        any
    }

    /// Complete the flow in slot `s`: retire it, trace it, and queue
    /// its [`Completion`]. The slot stays valid until the caller's
    /// [`FlowNetwork::compact_if_due`].
    fn finish(&mut self, s: u32) {
        let flow = self.net.id_at(s);
        let tag = self.net.tag_at(s);
        self.net.retire(s);
        self.rates_dirty = true;
        self.events_processed.inc();
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ObsEvent::FlowEnd {
                at: self.now.as_nanos(),
                flow: flow.index() as u32,
                tag,
            });
        }
        let done = Completion {
            flow,
            time: self.now,
            tag,
        };
        if let Some(hook) = self.completion_hook.as_mut() {
            hook(done);
        }
        self.ready.push_back(done);
    }

    /// After a rate recompute, emit one [`obs::Event::RateChange`] per
    /// resource whose aggregate throughput differs from the last emitted
    /// value — the recorded series is change-only (piecewise constant).
    fn record_rate_samples(&mut self) {
        if self.recorder.is_none() {
            return;
        }
        let n = self.net.resource_count();
        self.scratch_loads.resize(n, 0.0);
        self.last_loads.resize(n, 0.0);
        let at = self.now.as_nanos();
        // Incremental solves capture exactly which resources' loads may
        // have changed; refresh and compare only those, so sampling cost
        // stays proportional to the dirty components like the solve
        // itself. Emission order (ascending resource index) and every
        // refreshed value are bit-identical to the full scan — see
        // `FlowNetwork::loads_into_touched`. Full/reference solves
        // provide no touched set and fall back to scanning everything.
        if let Some(touched) = self.net.touched_resources() {
            self.net
                .loads_into_touched(&mut self.scratch_loads, touched);
            let rec = self.recorder.as_deref_mut().expect("checked above");
            for &r in touched {
                let i = r as usize;
                let cur = self.scratch_loads[i];
                if cur != self.last_loads[i] {
                    rec.record(ObsEvent::RateChange {
                        at,
                        resource: r,
                        bps: cur,
                    });
                    self.last_loads[i] = cur;
                }
            }
        } else {
            self.net.loads_into(&mut self.scratch_loads);
            let rec = self.recorder.as_deref_mut().expect("checked above");
            for (i, (&cur, last)) in self
                .scratch_loads
                .iter()
                .zip(self.last_loads.iter_mut())
                .enumerate()
            {
                if cur != *last {
                    rec.record(ObsEvent::RateChange {
                        at,
                        resource: i as u32,
                        bps: cur,
                    });
                    *last = cur;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::network::{CapacityModel, COMPACT_MIN_RETIRED};

    fn fixed(c: f64) -> CapacityModel {
        CapacityModel::Fixed(c)
    }

    #[test]
    fn single_flow_completes_at_expected_time() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        let c = sim.next_completion().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(10.0));
        assert!(sim.next_completion().is_none());
    }

    #[test]
    fn equal_flows_finish_together() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 500.0, 1);
        sim.start_flow_at(SimTime::ZERO, vec![r], 500.0, 2);
        let c1 = sim.next_completion().unwrap();
        let c2 = sim.next_completion().unwrap();
        // Shared 50/50 -> both need 10s.
        assert_eq!(c1.time, SimTime::from_secs_f64(10.0));
        assert_eq!(c2.time, c1.time);
    }

    #[test]
    fn short_flow_departure_speeds_up_survivor() {
        // Two flows share 100 B/s. Flow A = 200 B, flow B = 600 B.
        // Phase 1: both at 50 B/s; A finishes at t=4 with B having 400 left.
        // Phase 2: B alone at 100 B/s -> finishes at t = 4 + 4 = 8.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 200.0, 10);
        sim.start_flow_at(SimTime::ZERO, vec![r], 600.0, 20);
        let a = sim.next_completion().unwrap();
        assert_eq!(a.tag, 10);
        assert_eq!(a.time, SimTime::from_secs_f64(4.0));
        let b = sim.next_completion().unwrap();
        assert_eq!(b.tag, 20);
        assert_eq!(b.time, SimTime::from_secs_f64(8.0));
    }

    #[test]
    fn late_arrival_slows_down_existing_flow() {
        // Flow A (1000 B) alone on a 100 B/s link; at t=2 flow B (400 B)
        // arrives. A has 800 left; both at 50 B/s. B finishes at t=10,
        // A has 400 left, then at 100 B/s finishes at t=14.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 1);
        sim.start_flow_at(SimTime::from_secs_f64(2.0), vec![r], 400.0, 2);
        let b = sim.next_completion().unwrap();
        assert_eq!(b.tag, 2);
        assert_eq!(b.time, SimTime::from_secs_f64(10.0));
        let a = sim.next_completion().unwrap();
        assert_eq!(a.tag, 1);
        assert_eq!(a.time, SimTime::from_secs_f64(14.0));
    }

    #[test]
    fn injecting_flows_mid_run() {
        // Model a dependent phase: when the first flow completes, start a
        // second one; total time is the sum.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 300.0, 0);
        let c = sim.next_completion().unwrap();
        sim.start_flow_at(c.time, vec![r], 700.0, 1);
        let c2 = sim.next_completion().unwrap();
        assert_eq!(c2.time, SimTime::from_secs_f64(10.0));
    }

    #[test]
    fn completion_hook_sees_every_finish_in_order() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = seen.clone();
        sim.set_completion_hook(move |c: Completion| {
            sink.borrow_mut().push((c.tag, c.time));
        });
        sim.start_flow_at(SimTime::ZERO, vec![r], 200.0, 10);
        sim.start_flow_at(SimTime::ZERO, vec![r], 600.0, 20);
        // The hook fires at finish time even though the caller only pulls
        // the completions afterwards.
        while sim.next_completion().is_some() {}
        assert_eq!(
            *seen.borrow(),
            vec![
                (10, SimTime::from_secs_f64(4.0)),
                (20, SimTime::from_secs_f64(8.0)),
            ]
        );
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::from_secs_f64(3.0), vec![r], 0.0, 9);
        let c = sim.next_completion().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(3.0));
        assert_eq!(c.tag, 9);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn zero_capacity_stall_panics_via_next_completion() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("dead", fixed(0.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 10.0, 0);
        let _ = sim.next_completion();
    }

    #[test]
    fn zero_capacity_stall_is_a_typed_error() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("dead", fixed(0.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 10.0, 42);
        let err = sim.try_next_completion().unwrap_err();
        assert_eq!(err.at, SimTime::ZERO);
        assert_eq!(err.flows.len(), 1);
        assert_eq!(err.tags, vec![42]);
        assert!(err.to_string().contains("stalled"));
    }

    #[test]
    fn stall_reports_the_instant_progress_stopped() {
        // 100 B/s link dies at t=2 with 800 B still in flight and nothing
        // scheduled to bring it back: the stall is reported at t=2, not 0.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 7);
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 0.0);
        let err = sim.try_next_completion().unwrap_err();
        assert_eq!(err.at, SimTime::from_secs_f64(2.0));
        assert_eq!(err.tags, vec![7]);
    }

    #[test]
    fn scheduled_outage_and_recovery_extend_completion() {
        // 1000 B over a 100 B/s link; offline during [2, 5): the flow
        // drains 200 B before the outage, pauses 3 s, then finishes the
        // remaining 800 B -> completes at 2 + 3 + 8 = 13 s.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 0.0);
        sim.schedule_factor_change(SimTime::from_secs_f64(5.0), r, 1.0);
        let c = sim.try_next_completion().unwrap().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(13.0));
    }

    #[test]
    fn scheduled_degradation_slows_but_does_not_stall() {
        // 1000 B at 100 B/s; at t=4 the link drops to quarter speed.
        // 400 B drain before the change, 600 B at 25 B/s -> t = 4 + 24.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.schedule_factor_change(SimTime::from_secs_f64(4.0), r, 0.25);
        let c = sim.try_next_completion().unwrap().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(28.0));
    }

    #[test]
    fn same_instant_factor_changes_apply_in_insertion_order() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        // Both at t=2: the later insertion (full speed) wins.
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 0.5);
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 1.0);
        let c = sim.try_next_completion().unwrap().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(10.0));
    }

    #[test]
    fn run_to_completion_collects_all_in_order() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        for i in 0..5 {
            sim.start_flow_at(SimTime::ZERO, vec![r], 100.0 * (i + 1) as f64, i);
        }
        let done = sim.run_to_completion();
        assert_eq!(done.len(), 5);
        assert!(done.windows(2).all(|w| w[0].time <= w[1].time));
        // Shortest flow finishes first.
        assert_eq!(done[0].tag, 0);
        assert_eq!(done[4].tag, 4);
    }

    #[test]
    fn saturating_device_speeds_up_with_second_flow() {
        // peak 100, q_half 1: one flow -> 50 B/s; two flows -> 66.7 total.
        let mut net = FlowNetwork::new();
        let d = net.add_resource(
            "ost",
            CapacityModel::Saturating {
                peak: 100.0,
                q_half: 1.0,
            },
        );
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![d], 500.0, 0);
        sim.start_flow_at(SimTime::ZERO, vec![d], 500.0, 1);
        let c1 = sim.next_completion().unwrap();
        // Aggregate 66.67 B/s over 1000 B -> 15 s.
        assert!((c1.time.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn factor_change_mid_run_affects_completion() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        // Immediately degrade the link to half speed.
        let rid = super::super::network::ResourceId(0);
        sim.set_resource_factor(rid, 0.5);
        let c = sim.next_completion().unwrap();
        assert_eq!(c.time, SimTime::from_secs_f64(20.0));
    }

    #[test]
    fn completion_times_are_monotone_under_many_random_flows() {
        let mut net = FlowNetwork::new();
        let a = net.add_resource("a", fixed(37.0));
        let b = net.add_resource("b", fixed(91.0));
        let c = net.add_resource("c", fixed(13.0));
        let mut sim = FluidSim::new(net);
        let paths = [
            vec![a],
            vec![b],
            vec![c],
            vec![a, b],
            vec![b, c],
            vec![a, c],
        ];
        for i in 0..60u64 {
            let path = paths[(i % 6) as usize].clone();
            let start = SimTime::from_secs_f64((i % 7) as f64 * 0.37);
            sim.start_flow_at(start, path, 10.0 + (i * 13 % 97) as f64, i);
        }
        let done = sim.run_to_completion();
        assert_eq!(done.len(), 60);
        assert!(done.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn run_until_stops_early_at_a_completion() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 500.0, 7);
        // The flow drains at t=5; asking for t=20 must stop there.
        assert!(sim.run_until(SimTime::from_secs_f64(20.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
        let c = sim.pop_ready().unwrap();
        assert_eq!(c.tag, 7);
        assert_eq!(c.time, SimTime::from_secs_f64(5.0));
        assert!(sim.pop_ready().is_none());
        // Nothing left: the clock now moves all the way to the horizon.
        assert!(!sim.run_until(SimTime::from_secs_f64(20.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(20.0));
    }

    #[test]
    fn run_until_advances_to_horizon_when_nothing_finishes() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        assert!(!sim.run_until(SimTime::from_secs_f64(4.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.0));
        // 400 of 1000 bytes drained by t=4.
        let f = sim.network().active_flows().next().unwrap();
        assert!((sim.network().remaining(f) - 600.0).abs() < 1e-6);
        // The rest completes at t=10 as if we had never paused.
        assert!(sim.run_until(SimTime::from_secs_f64(30.0)));
        assert_eq!(sim.pop_ready().unwrap().time, SimTime::from_secs_f64(10.0));
    }

    #[test]
    fn run_until_at_now_settles_pending_starts() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        let f = sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        assert!(!sim.network().is_active(f));
        assert!(!sim.run_until(SimTime::ZERO));
        assert!(sim.network().is_active(f));
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_does_not_stall_on_dead_resources() {
        // A flow over a zeroed resource cannot progress and nothing is
        // scheduled: try_next_completion would stall, run_until just
        // moves the clock to the horizon (the caller owns the calendar).
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.set_resource_factor(r, 0.0);
        assert!(!sim.run_until(SimTime::from_secs_f64(5.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
        // Restoring the factor resumes the drain from the paused state.
        sim.set_resource_factor(r, 1.0);
        assert!(sim.run_until(SimTime::from_secs_f64(100.0)));
        assert_eq!(sim.pop_ready().unwrap().time, SimTime::from_secs_f64(15.0));
    }

    #[test]
    fn run_until_processes_scheduled_factor_changes_in_order() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 0.5);
        // By t=6: 2s at 100 B/s + 4s at 50 B/s = 400 B drained.
        assert!(!sim.run_until(SimTime::from_secs_f64(6.0)));
        let f = sim.network().active_flows().next().unwrap();
        assert!((sim.network().remaining(f) - 600.0).abs() < 1e-6);
        // Remaining 600 B at 50 B/s finish at t = 6 + 12 = 18.
        assert!(sim.run_until(SimTime::from_secs_f64(100.0)));
        assert_eq!(sim.pop_ready().unwrap().time, SimTime::from_secs_f64(18.0));
    }

    #[test]
    fn cancel_flow_returns_remaining_and_speeds_up_survivor() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        let a = sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 1);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 2);
        // Share 50/50 until t=4 (800 left each), then cancel A.
        assert!(!sim.run_until(SimTime::from_secs_f64(4.0)));
        let left = sim.cancel_flow(a);
        assert!((left - 800.0).abs() < 1e-6);
        // B alone at 100 B/s: 800 left at t=4 finishes at t=12, and no
        // completion is ever emitted for the cancelled flow.
        let c = sim.next_completion().unwrap();
        assert_eq!(c.tag, 2);
        assert_eq!(c.time, SimTime::from_secs_f64(12.0));
        assert!(sim.next_completion().is_none());
    }

    #[test]
    fn finished_and_cancelled_ids_stay_readable_after_retirement() {
        // The online engine reads flows whose completion is still
        // queued: a retired id must read as finished, before and after
        // compaction has reclaimed its record.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let mut sim = FluidSim::new(net);
        let done = sim.start_flow_at(SimTime::ZERO, vec![r], 100.0, 1);
        let cancelled = sim.start_flow_at(SimTime::ZERO, vec![r], 1e9, 2);
        assert!(sim.run_until(SimTime::from_secs_f64(10.0)));
        assert_eq!(sim.network().tag(cancelled), 2);
        sim.cancel_flow(cancelled);
        let check = |sim: &mut FluidSim<'_>| {
            for f in [done, cancelled] {
                assert!(!sim.network().is_active(f));
                assert_eq!(sim.network().remaining(f), 0.0);
                assert_eq!(sim.network().rate(f), 0.0);
                assert_eq!(sim.flow_rate(f), 0.0);
            }
        };
        check(&mut sim);
        assert_eq!(sim.pop_ready().map(|c| (c.flow, c.tag)), Some((done, 1)));
        for i in 0..4 * COMPACT_MIN_RETIRED as u64 {
            let now = sim.now();
            sim.start_flow_at(now, vec![r], 1.0, 10 + i);
            assert!(sim.run_until(SimTime::MAX));
            assert_eq!(sim.pop_ready().unwrap().tag, 10 + i);
        }
        assert!(sim.network().stored_flows() < COMPACT_MIN_RETIRED);
        check(&mut sim);
    }

    #[test]
    fn a_long_lived_flow_does_not_pin_storage() {
        // One flow stays active while 10^5 short flows come and go on
        // another resource. Storage must follow the live and pending
        // flows: the long flow is the oldest record, so reclaiming only
        // a prefix of the retired records would keep all of them.
        let mut net = FlowNetwork::new();
        let slow = net.add_resource("slow", fixed(1.0));
        let fast = net.add_resource("fast", fixed(1e6));
        let mut sim = FluidSim::new(net);
        let long = sim.start_flow_at(SimTime::ZERO, vec![slow], 1e6, 0);
        let bound = 2 * 2 + COMPACT_MIN_RETIRED;
        for i in 1..=100_000u64 {
            let now = sim.now();
            sim.start_flow_at(now, vec![fast], 10.0, i);
            assert!(sim.run_until(SimTime::MAX));
            let c = sim.pop_ready().unwrap();
            assert_eq!((c.tag, c.flow.index() as u64), (i, i));
            // Live: the long flow; pending: the next short one.
            let stored = sim.network().stored_flows();
            assert!(stored <= bound, "{stored} records stored after {i} flows");
        }
        assert!(sim.network().is_active(long));
        assert_eq!(sim.network().tag(long), 0);
        assert!(sim.network().remaining(long) < 1e6);
    }

    #[test]
    fn run_until_matches_next_completion_under_interleaved_horizons() {
        // Drive the same random workload through run_until with awkward
        // horizons and through the plain next_completion loop; the
        // completion streams must agree exactly.
        let build = || {
            let mut net = FlowNetwork::new();
            let a = net.add_resource("a", fixed(37.0));
            let b = net.add_resource("b", fixed(91.0));
            let mut sim = FluidSim::new(net);
            for i in 0..40u64 {
                let path = if i % 3 == 0 { vec![a, b] } else { vec![b] };
                let start = SimTime::from_secs_f64((i % 5) as f64 * 0.41);
                sim.start_flow_at(start, path, 15.0 + (i * 7 % 53) as f64, i);
            }
            sim
        };

        let mut reference = build();
        let expect = reference.run_to_completion();

        let mut sim = build();
        let mut got = Vec::new();
        let mut horizon = 0.13f64;
        while got.len() < expect.len() {
            if sim.run_until(SimTime::from_secs_f64(horizon)) {
                while let Some(c) = sim.pop_ready() {
                    got.push(c);
                }
            } else {
                horizon += 0.37;
            }
        }
        assert_eq!(expect, got);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::flow::network::CapacityModel;
    use obs::{EventKind, Timeline};

    #[test]
    fn recorder_sees_flow_lifecycle_and_rate_changes() {
        // Two unequal flows on one 100 B/s link: both start at t=0, the
        // short one (200 B) ends at t=4, the long one (600 B) at t=8.
        let mut timeline = Timeline::new();
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.set_recorder(&mut timeline);
        sim.start_flow_at(SimTime::ZERO, vec![r], 200.0, 0);
        sim.start_flow_at(SimTime::ZERO, vec![r], 600.0, 1);
        let done = sim.run_to_completion();
        assert_eq!(done.len(), 2);
        assert_eq!(sim.events_processed(), 4); // 2 starts + 2 completions
        drop(sim);

        assert_eq!(timeline.label(0), Some("link"));
        assert_eq!(timeline.count(EventKind::FlowStart), 2);
        assert_eq!(timeline.count(EventKind::FlowEnd), 2);
        // The link holds 100 B/s through both phases: a single rate
        // change at t=0 (change-only sampling skips the equal re-sample
        // when the short flow departs).
        let series = timeline.rate_series(0);
        assert!(!series.is_empty(), "series {series:?}");
        assert_eq!(series[0], (0, 100.0));
        // The integral over [0, io_end] recovers the 800 bytes written.
        assert!((timeline.bytes_through(0) - 800.0).abs() < 1e-6);
        assert_eq!(timeline.io_end(), SimTime::from_secs_f64(8.0).as_nanos());
    }

    #[test]
    fn factor_changes_are_recorded_from_both_paths() {
        let mut timeline = Timeline::new();
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.set_recorder(&mut timeline);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.set_resource_factor(r, 0.5); // immediate
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 1.0); // scheduled
        let c = sim.next_completion().unwrap();
        // 2s at 50 B/s, then 900 B at 100 B/s -> t = 11.
        assert_eq!(c.time, SimTime::from_secs_f64(11.0));
        drop(sim);
        assert_eq!(timeline.count(EventKind::FactorChange), 2);
        // Rates changed at t=0 (50) and t=2 (100): two samples.
        assert_eq!(
            timeline.rate_series(0),
            vec![(0, 50.0), (SimTime::from_secs_f64(2.0).as_nanos(), 100.0)]
        );
    }

    #[test]
    fn unrecorded_sim_still_counts_events() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::ZERO, vec![r], 100.0, 0);
        let _ = sim.run_to_completion();
        assert_eq!(sim.events_processed(), 2); // 1 start + 1 completion
    }
}
