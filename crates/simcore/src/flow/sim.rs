//! The fluid-simulation event loop.

use super::network::{FlowId, FlowNetwork, NetBuffers, ResourceId};
use crate::events::EventQueue;
use crate::time::{SimDuration, SimTime};
use obs::Event as ObsEvent;
use std::collections::VecDeque;

/// Bytes below which a flow counts as finished (absorbs float residue).
const EPS_BYTES: f64 = 1e-6;

/// A finished flow record, reported by [`FluidSim::next_completion`]:
/// every one of its flows finished at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which flow record finished.
    pub flow: FlowId,
    /// When it finished.
    pub time: SimTime,
    /// The caller tag attached at [`FlowNetwork::add_flow`] time.
    pub tag: u64,
    /// How many identical flows the record stood for (see
    /// [`FluidSim::start_flows_at`]); one for a single flow.
    pub count: u32,
}

/// The simulation stalled: active flows exist, none of them can finish
/// within the simulated clock, and no scheduled event could change that.
/// Either every one has zero rate, or the earliest would finish past the
/// clock's range (about 1.8e10 s), as a flow of a gigabyte at a
/// micro-byte per second would.
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
    /// The active flows that can no longer make progress, in ascending
    /// id order: a record of several flows appears once per flow.
    pub flows: Vec<FlowId>,
    /// The caller tags of those flows, in the same order.
    pub tags: Vec<u64>,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fluid simulation stalled at {}: {} active flows cannot finish within the clock",
            self.at,
            self.flows.len()
        )
    }
}

impl std::error::Error for StallError {}

#[derive(Debug)]
enum Event {
    /// The starts of `records` flow records registered one after
    /// another from `first`, all due at the entry's instant.
    Start {
        first: FlowId,
        records: u32,
    },
    SetFactor(ResourceId, f64),
}

/// Why [`FluidSim::step_until`] stopped.
enum Stop {
    /// Completions are waiting in `ready`.
    Ready,
    /// No flow is active and the calendar is empty.
    Idle,
    /// Neither a completion nor a calendar event is due by the horizon.
    NothingDue,
}

/// Recycled simulation buffers, carried across [`FluidSim`] instances.
///
/// A fresh sim grows its event calendar, flow records and path arenas,
/// solver scratch, and bookkeeping vectors as it warms up; rep loops
/// (the ior runner, the campaign engine, the scheduler's per-admission
/// measurement runs) build thousands of short-lived sims, so
/// [`FluidSim::with_arena`] seeds a new sim from the arena and
/// [`FluidSim::recycle_into`] hands the buffers back when the run ends.
/// Only buffer *capacity* survives a recycle — every buffer is cleared
/// on both paths, so no simulation state can leak between runs and
/// results are identical with or without an arena.
#[derive(Debug, Default)]
pub struct SimArena {
    net: NetBuffers,
    queue: EventQueue<Event>,
    ready: VecDeque<Completion>,
    last_loads: Vec<f64>,
    scratch_loads: Vec<f64>,
    finished: Vec<u32>,
}

impl SimArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
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
    /// Last rate emitted per resource, so only *changes* are recorded.
    last_loads: Vec<f64>,
    /// Scratch buffer for the per-recompute load snapshot.
    scratch_loads: Vec<f64>,
    /// Scratch list of the slots of flows that drained this step, so
    /// finishing them (which edits the network's active list) never
    /// iterates it. Empty between steps.
    scratch_finished: Vec<u32>,
    /// Starts not yet in the calendar: `(instant, first record, records)`
    /// of flow records registered one after another, all due at that
    /// instant. They enter the calendar as one entry before any other
    /// entry is scheduled and before the step loop reads the calendar,
    /// so it delivers them where one entry per start would have.
    pending_starts: Option<(SimTime, FlowId, u32)>,
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
        Self::with_arena(net, &mut SimArena::new())
    }

    /// Wrap a network, seeding all work buffers from a [`SimArena`] so a
    /// warmed-up rep loop runs allocation-free. Behaviour is identical to
    /// [`FluidSim::new`] — the arena contributes capacity, never state.
    pub fn with_arena(mut net: FlowNetwork, arena: &mut SimArena) -> Self {
        net.install_recycled(std::mem::take(&mut arena.net));
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
            last_loads,
            scratch_loads,
            scratch_finished,
            pending_starts: None,
            events_processed: obs::metrics::Counter::new(),
            metrics: None,
        }
    }

    /// Return this sim's buffers to an arena for the next run to reuse.
    /// Call in place of dropping the sim at the end of a rep.
    pub fn recycle_into(mut self, arena: &mut SimArena) {
        arena.net = self.net.take_recycled();
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

    /// Calendar events (flow starts, scheduled factor changes) plus flow
    /// completions and cancels processed so far, a record's start,
    /// completion or cancel counting once per flow. Counted whether or
    /// not a recorder is attached — it is the "how much simulation
    /// happened" metric campaign reports aggregate.
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
    ///   entries: one per scheduled factor change, and one per run of
    ///   same-instant starts of flows registered one after another,
    ///   however many flows it holds;
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
        path: impl AsRef<[ResourceId]>,
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
        path: impl AsRef<[ResourceId]>,
        bytes: f64,
        tag: u64,
        depth_weight: f64,
    ) -> FlowId {
        self.start_flows_at(start, path, bytes, tag, depth_weight, 1)
    }

    /// Register `count` identical flows (same path, bytes, tag and depth
    /// weight) as one record and schedule their start.
    ///
    /// The record simulates exactly as `count` such flows started one
    /// after another would: every rate, completion instant, counter,
    /// per-resource load and byte total is bit for bit the same, while
    /// registration, activation, the solver's freeze loop, the drain and
    /// retirement run once for the record. Counters count flows: the
    /// record's start and completion each add `count` events, and the
    /// solver's flow counts and component sizes count its flows. The
    /// returned id names the record; its [`Completion`] stands for all
    /// of its flows, and [`FluidSim::cancel_flow`] cancels all of them.
    /// A recorder sees one `FlowStart` and one `FlowEnd` per record.
    ///
    /// A caller that merges flows it would otherwise register apart
    /// (one node's processes, whose flows to different targets
    /// interleave) moves their terms in every per-resource sum. A depth
    /// sum stays exact when every flow between them on that resource
    /// carries the same weight; the recorder's rate samples and the
    /// tracked byte totals, which add different flows' rates and bytes,
    /// do not.
    ///
    /// # Panics
    /// Panics if `start < now()` or `count` is zero.
    pub fn start_flows_at(
        &mut self,
        start: SimTime,
        path: impl AsRef<[ResourceId]>,
        bytes: f64,
        tag: u64,
        depth_weight: f64,
        count: u32,
    ) -> FlowId {
        assert!(
            start >= self.now,
            "flow start {start} is before current time {}",
            self.now
        );
        let id = self
            .net
            .add_record(path.as_ref(), bytes, tag, depth_weight, count);
        match &mut self.pending_starts {
            Some((at, first, records)) if *at == start => {
                debug_assert_eq!(first.index() + *records as usize, id.index());
                *records += 1;
            }
            _ => {
                self.push_pending_starts();
                self.pending_starts = Some((start, id, 1));
            }
        }
        id
    }

    /// Put the pending starts into the calendar as one entry.
    fn push_pending_starts(&mut self) {
        if let Some((at, first, records)) = self.pending_starts.take() {
            self.queue.schedule(at, Event::Start { first, records });
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
        self.push_pending_starts();
        self.queue.schedule(at, Event::SetFactor(r, factor));
    }

    /// Bring flow rates up to date after any topology change (flow
    /// start/finish/cancel, factor change). Shared by the step loop and
    /// the instantaneous-rate accessor.
    fn ensure_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
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
    /// active flows exist but none can finish within the clock (all rates
    /// are zero, or the earliest completion lies past the clock's range)
    /// and the event calendar is empty. A stall leaves the simulation at
    /// the instant progress stopped; the stalled flows stay registered, so
    /// the caller can still inspect the network state.
    pub fn try_next_completion(&mut self) -> Result<Option<Completion>, StallError> {
        match self.step_until(SimTime::MAX) {
            Stop::Ready => Ok(self.ready.pop_front()),
            Stop::Idle => Ok(None),
            // Every event is due by the end of the clock, so nothing due
            // means an empty calendar beside active flows that cannot
            // finish. Cold path: allocating the error payload is fine.
            Stop::NothingDue => {
                let net = &self.net;
                let each = |s: &u32| std::iter::repeat_n(*s, net.count_at(*s) as usize);
                let slots = || net.active_slots().iter().flat_map(each);
                Err(StallError {
                    at: self.now,
                    flows: slots().map(|s| net.id_at(s)).collect(),
                    tags: slots().map(|s| net.tag_at(s)).collect(),
                })
            }
        }
    }

    /// The one step loop: advance until completions are waiting, the
    /// simulation is idle, or nothing is due by `horizon`, and say which.
    /// Each step solves the rates, then finishes the flows already
    /// drained (zero-size ones, or the residue of a drain to an event
    /// instant), or else moves the clock to whichever comes first of the
    /// next calendar event and the earliest completion. Ties go to the
    /// event; a completion past the clock is never due. The idle check
    /// comes before the solve: a run that ends idle does no final solve,
    /// so its trace ends without a last round of rate samples. Pending
    /// starts enter the calendar only once no completion is waiting, so
    /// the flows a caller starts between same-instant completions (a
    /// hedged run's next chunks) share one entry.
    fn step_until(&mut self, horizon: SimTime) -> Stop {
        loop {
            if !self.ready.is_empty() {
                return Stop::Ready;
            }
            self.push_pending_starts();
            if self.net.active_slots().is_empty() && self.queue.is_empty() {
                return Stop::Idle;
            }
            self.ensure_rates();
            let min_dt = self.scan_active();
            if self.retire_finished() {
                continue;
            }
            let completion = self.completion_instant(min_dt);
            match (self.queue.peek_time().filter(|&e| e <= horizon), completion) {
                // An event comes first (a start, or a factor change that
                // may restore a dead resource), or no flow finishes.
                (Some(e), c) if c.is_none_or(|c| e <= c) => {
                    self.advance_to(e);
                    self.process_events_at(e);
                }
                (_, Some(c)) if c <= horizon => self.advance_to_completion(c),
                _ => return Stop::NothingDue,
            }
        }
    }

    /// The instant the earliest active flow finishes, `min_dt` seconds
    /// from now (as [`FluidSim::scan_active`] returns it): quantized up
    /// to the next nanosecond, and at least one on, so that flow has
    /// surely drained by then. `None` when no flow is moving or the
    /// instant lies past the clock's range, where the float-to-integer
    /// cast would saturate and the addition overflow.
    fn completion_instant(&self, min_dt: f64) -> Option<SimTime> {
        let nanos = (min_dt * 1e9).ceil().max(1.0);
        if nanos >= u64::MAX as f64 {
            return None;
        }
        self.now
            .checked_add(SimDuration::from_nanos(nanos as u64))
            .filter(|&t| t < SimTime::MAX)
    }

    /// Run to the end, returning all completions in time order.
    ///
    /// # Panics
    /// Panics on a stall (see [`FluidSim::next_completion`]).
    pub fn run_to_completion(&mut self) -> Vec<Completion> {
        std::iter::from_fn(|| self.next_completion()).collect()
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
        match self.step_until(t) {
            Stop::Ready => return true,
            // The caller's calendar goes on past an idle simulation:
            // settle its rates, so the loads its last flows left drop to
            // zero at this instant rather than at the next start.
            Stop::Idle => self.ensure_rates(),
            Stop::NothingDue => {}
        }
        self.advance_to(t);
        false
    }

    /// Pop the next already-produced completion without advancing the
    /// clock. Completions queue up when several flows drain at the same
    /// instant (or when [`FluidSim::run_until`] stopped early); this
    /// drains that queue in completion order.
    pub fn pop_ready(&mut self) -> Option<Completion> {
        self.ready.pop_front()
    }

    /// Remove an *active* flow record, all of its flows, from the network
    /// mid-flight and return the bytes each of them still had left. No
    /// completion is emitted and the recorder sees no `FlowEnd` — the
    /// flow is cancelled, not finished. This is the re-injection
    /// primitive for online fault handling: cancel the stalled flows of
    /// an evicted target, then start replacement flows for the remaining
    /// bytes on the new placement.
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
        let count = self.net.count_at(s);
        self.net.retire(s);
        self.net.compact_if_due();
        self.rates_dirty = true;
        self.events_processed.add(u64::from(count));
        left
    }

    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        let dt = t.duration_since(self.now).as_secs_f64();
        if dt > 0.0 {
            self.net.drain(dt, |_, _, _| {});
        }
        self.now = t;
    }

    /// Advance to a computed completion instant `t` (always after
    /// `now`, by at least the 1 ns quantum) and finish, in the same
    /// drain pass, every flow left within the quantization tolerance:
    /// the nanosecond rounding of the event time leaves residues of up
    /// to rate x 1ns on flows that finish at the same true instant, so
    /// the tolerance scales with the flow's rate and ties complete
    /// together.
    fn advance_to_completion(&mut self, t: SimTime) {
        let dt = t.duration_since(self.now).as_secs_f64();
        debug_assert!(dt > 0.0, "completion instants lie after now");
        let finished = &mut self.scratch_finished;
        self.net.drain(dt, |s, rate, remaining| {
            if remaining <= rate * 4e-9 + EPS_BYTES {
                finished.push(s);
            }
        });
        self.now = t;
        let any = self.retire_finished();
        debug_assert!(any, "advanced to completion time but nothing finished");
    }

    fn process_events_at(&mut self, t: SimTime) {
        while let Some(ev) = self.queue.pop_at(t) {
            match ev {
                Event::Start { first, records } => {
                    // Pending flows are never retired (only active ones
                    // finish or are cancelled), and none was registered
                    // between these, so their records fill consecutive
                    // slots: compaction keeps slot order.
                    let s0 = self.net.slot_of(first).expect("pending flow is stored");
                    for s in s0..s0 + records {
                        debug_assert_eq!(
                            self.net.id_at(s).index(),
                            first.index() + (s - s0) as usize
                        );
                        self.events_processed.add(u64::from(self.net.count_at(s)));
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            rec.record(ObsEvent::FlowStart {
                                at: t.as_nanos(),
                                flow: self.net.id_at(s).index() as u32,
                                tag: self.net.tag_at(s),
                                bytes: self.net.remaining_at(s),
                            });
                        }
                        self.net.activate_slot(s);
                    }
                }
                Event::SetFactor(r, factor) => {
                    self.events_processed.inc();
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

    /// The step's one pass over the active flows before the clock
    /// moves: collect into `scratch_finished` the flows already drained
    /// to `EPS_BYTES`, and return the earliest time (seconds from now)
    /// at which a moving flow drains at its current rate — infinite
    /// when none is moving. A flow whose drain time is surely above the
    /// earliest so far is passed over without its division (see
    /// `skip_bound`).
    fn scan_active(&mut self) -> f64 {
        let (mut min_dt, mut bound) = (f64::INFINITY, f64::INFINITY);
        for &s in self.net.active_slots() {
            let remaining = self.net.remaining_at(s);
            if remaining <= EPS_BYTES {
                self.scratch_finished.push(s);
            }
            let rate = self.net.rate_at(s);
            if rate > 0.0 && remaining <= bound * rate {
                min_dt = min_dt.min(remaining / rate);
                bound = skip_bound(min_dt);
            }
        }
        min_dt
    }

    /// Finish the flows collected in `scratch_finished` (ascending slot
    /// order) and return whether there were any. They complete in that
    /// order and retire as one batch; compaction, which moves slots,
    /// runs only once the batch is done.
    fn retire_finished(&mut self) -> bool {
        let mut finished = std::mem::take(&mut self.scratch_finished);
        let any = !finished.is_empty();
        if any {
            for &s in &finished {
                self.complete(s);
            }
            self.net.retire_batch(&finished);
            self.rates_dirty = true;
            self.net.compact_if_due();
            finished.clear();
        }
        self.scratch_finished = finished;
        any
    }

    /// Trace the finished flow in slot `s` and queue its
    /// [`Completion`]; the caller retires it.
    fn complete(&mut self, s: u32) {
        let flow = self.net.id_at(s);
        let tag = self.net.tag_at(s);
        let count = self.net.count_at(s);
        self.events_processed.add(u64::from(count));
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ObsEvent::FlowEnd {
                at: self.now.as_nanos(),
                flow: flow.index() as u32,
                tag,
            });
        }
        self.ready.push_back(Completion {
            flow,
            time: self.now,
            tag,
            count,
        });
    }

    /// After a rate recompute, emit one [`obs::Event::RateChange`] per
    /// resource whose aggregate throughput differs from the last emitted
    /// value, in ascending resource order — the recorded series is
    /// change-only (piecewise constant). The loads come from the rates
    /// the solve wrote (see `FlowNetwork::loads_into`), so the solver
    /// does no work for the sampler. A recorder attached mid-run starts
    /// from zero loads and so reports every loaded resource here.
    fn record_rate_samples(&mut self) {
        let Some(rec) = self.recorder.as_deref_mut() else {
            return;
        };
        let n = self.net.resource_count();
        self.scratch_loads.resize(n, 0.0);
        self.last_loads.resize(n, 0.0);
        let at = self.now.as_nanos();
        self.net.loads_into(&mut self.scratch_loads);
        for (r, (&cur, last)) in self
            .scratch_loads
            .iter()
            .zip(&mut self.last_loads)
            .enumerate()
        {
            if cur != *last {
                rec.record(ObsEvent::RateChange {
                    at,
                    resource: r as u32,
                    bps: cur,
                });
                *last = cur;
            }
        }
    }
}

/// What a minimum scan over quotients `c / u` (with `u > 0`) may skip
/// given `best`, the smallest quotient so far: a candidate with
/// `c > skip_bound(best) * u` rounds to a quotient strictly above
/// `best`, so leaving it undivided changes neither the minimum nor how
/// equal quotients break ties.
///
/// Why, with `b = skip_bound(best)`: a float above the rounded product
/// `b * u` is above the exact product too (rounding to nearest never
/// passes the next float), so `c / u > b` exactly, and rounding the
/// quotient, which is monotone, gives at least the float `b`. And `b`
/// lies strictly above a normal `best`: the widening by 2⁻⁵⁰ adds at
/// least four units in its last place, more than its own rounding can
/// take back. For a zero or subnormal `best` the widening can round
/// away, and a quotient equal to `best` (say `5e-324 / 17`, which
/// rounds to zero) would be skipped, so the bound is infinite and every
/// candidate divides. An overflowing bound or product is infinite too.
fn skip_bound(best: f64) -> f64 {
    /// 1 + 2⁻⁵⁰.
    const WIDEN: f64 = 1.0 + 4.0 * f64::EPSILON;
    if best.is_normal() {
        best * WIDEN
    } else {
        f64::INFINITY
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
    fn a_completion_past_the_clock_is_a_typed_error() {
        // A gigabyte at a micro-byte per second would finish ~1e15 s
        // out, past the clock's ~1.8e10 s.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("trickle", fixed(1e-6));
        let mut sim = FluidSim::new(net);
        sim.start_flow_at(SimTime::from_secs_f64(3.0), vec![r], 1e9, 5);
        let err = sim.try_next_completion().unwrap_err();
        assert_eq!(err.at, SimTime::from_secs_f64(3.0));
        assert_eq!(err.tags, vec![5]);
        // `run_until` reads it as not due: the clock reaches the horizon.
        assert!(!sim.run_until(SimTime::from_secs_f64(60.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(60.0));
        assert!(sim.try_next_completion().is_err());
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
        // Degrade the link to half speed from the start.
        sim.schedule_factor_change(sim.now(), r, 0.5);
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
        sim.schedule_factor_change(sim.now(), r, 0.0);
        assert!(!sim.run_until(SimTime::from_secs_f64(5.0)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
        // Restoring the factor resumes the drain from the paused state.
        sim.schedule_factor_change(sim.now(), r, 1.0);
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

    #[test]
    fn the_filtered_completion_scan_returns_the_divided_minimum() {
        let x = 7.3f64;
        // (bytes, capacity) per flow, each alone on its own link, so its
        // rate is the link's capacity. A later flow comes last, so the
        // scan passes it over undivided.
        let cases: [&[(f64, f64)]; 4] = [
            // Equal drain times at two slots.
            &[(6.0, 3.0), (4.0, 2.0), (9.0, 1.0)],
            // Drain times one ulp apart, in both orders.
            &[(x, 1.0), (x.next_up(), 1.0), (9.0, 1.0)],
            &[(x.next_up(), 1.0), (x, 1.0), (9.0, 1.0)],
            // Zero remaining bytes.
            &[(5.0, 2.0), (0.0, 4.0), (3.0, 1.0)],
        ];
        for flows in cases {
            let mut net = FlowNetwork::new();
            let links: Vec<ResourceId> = (0..flows.len())
                .map(|i| net.add_resource(format_args!("r{i}"), fixed(flows[i].1)))
                .collect();
            let mut sim = FluidSim::new(net);
            for (i, (&(bytes, _), &r)) in flows.iter().zip(&links).enumerate() {
                sim.start_flow_at(SimTime::ZERO, [r], bytes, i as u64);
            }
            sim.push_pending_starts();
            sim.process_events_at(SimTime::ZERO);
            sim.ensure_rates();
            let net = sim.network();
            let divided = net
                .active_slots()
                .iter()
                .filter(|&&s| net.rate_at(s) > 0.0)
                .fold(f64::INFINITY, |m, &s| {
                    m.min(net.remaining_at(s) / net.rate_at(s))
                });
            assert_eq!(
                sim.scan_active().to_bits(),
                divided.to_bits(),
                "flows {flows:?}"
            );
        }
    }

    /// The same flow ids of two sims read the same bits.
    fn assert_same_state(sims: &[FluidSim<'_>; 2], flows: &[FlowId], n_res: usize, step: usize) {
        let [a, b] = sims.each_ref().map(FluidSim::network);
        assert_eq!(sims[0].now(), sims[1].now(), "step {step}");
        for &f in flows {
            assert_eq!(a.is_active(f), b.is_active(f), "step {step}: {f:?}");
            assert_eq!(
                a.rate(f).to_bits(),
                b.rate(f).to_bits(),
                "step {step}: rate of {f:?}"
            );
            assert_eq!(
                a.remaining(f).to_bits(),
                b.remaining(f).to_bits(),
                "step {step}: remaining bytes of {f:?}"
            );
        }
        for r in (0..n_res).map(ResourceId::from_index) {
            assert_eq!(
                a.busy_secs(r).to_bits(),
                b.busy_secs(r).to_bits(),
                "step {step}: busy seconds of {r:?}"
            );
        }
    }

    /// Byte accounting only observes: one random sequence of starts,
    /// factor changes, cancels and advances, run on a network that
    /// accounts bytes and on one that does not.
    #[test]
    fn byte_accounting_changes_no_simulated_bit() {
        use rand::Rng;
        const N_RES: usize = 6;
        let build = |track: bool| {
            let mut net = FlowNetwork::new();
            if track {
                net.track_bytes();
            }
            for i in 0..N_RES {
                let model = if i % 3 == 0 {
                    CapacityModel::Saturating {
                        peak: 300.0,
                        q_half: 1.5,
                    }
                } else {
                    fixed(80.0 + 17.0 * i as f64)
                };
                net.add_resource(format_args!("r{i}"), model);
            }
            FluidSim::new(net)
        };
        let mut sims = [build(true), build(false)];
        let mut rng = crate::rng::RngFactory::new(0xB17E5).stream("byte-accounting", 0);
        let mut flows = Vec::new();
        let (mut cancels, mut completions) = (0, 0);
        for step in 0..400 {
            let later = sims[0].now() + SimDuration::from_nanos(rng.gen_range(0..500_000_000));
            match rng.gen_range(0..6u32) {
                0 | 1 => {
                    let first = rng.gen_range(0..N_RES);
                    let len = 1 + rng.gen_range(0..3usize);
                    let path: Vec<ResourceId> = (first..N_RES.min(first + len))
                        .map(ResourceId::from_index)
                        .collect();
                    let bytes = f64::from(rng.gen_range(1..200u32));
                    let ids = sims
                        .each_mut()
                        .map(|sim| sim.start_flow_at(later, &path, bytes, step as u64));
                    assert_eq!(ids[0], ids[1]);
                    flows.push(ids[0]);
                }
                2 => {
                    let r = ResourceId::from_index(rng.gen_range(0..N_RES));
                    let factor = [0.25, 0.5, 1.0, 1.5][rng.gen_range(0..4usize)];
                    for sim in &mut sims {
                        sim.schedule_factor_change(later, r, factor);
                    }
                }
                3 => {
                    let net = sims[0].network();
                    let active: Vec<FlowId> = flows
                        .iter()
                        .copied()
                        .filter(|&f| net.is_active(f))
                        .collect();
                    if !active.is_empty() {
                        let f = active[rng.gen_range(0..active.len())];
                        let left = sims.each_mut().map(|sim| sim.cancel_flow(f).to_bits());
                        assert_eq!(left[0], left[1], "step {step}");
                        cancels += 1;
                    }
                }
                _ => {
                    let stopped = sims.each_mut().map(|sim| sim.run_until(later));
                    assert_eq!(stopped[0], stopped[1], "step {step}");
                    let done = sims
                        .each_mut()
                        .map(|sim| std::iter::from_fn(|| sim.pop_ready()).collect::<Vec<_>>());
                    assert_eq!(done[0], done[1], "step {step}");
                    completions += done[0].len();
                }
            }
            assert_same_state(&sims, &flows, N_RES, step);
        }
        let done = sims.each_mut().map(|sim| sim.run_to_completion());
        assert_eq!(done[0], done[1]);
        assert_same_state(&sims, &flows, N_RES, usize::MAX);
        assert!(
            cancels > 10 && completions > 10,
            "{cancels} cancels, {completions} completions"
        );
        assert!(sims[0].network().bytes_through(ResourceId::from_index(1)) > 0.0);
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
    fn factor_changes_are_recorded() {
        let mut timeline = Timeline::new();
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.set_recorder(&mut timeline);
        sim.start_flow_at(SimTime::ZERO, vec![r], 1000.0, 0);
        sim.schedule_factor_change(sim.now(), r, 0.5);
        sim.schedule_factor_change(SimTime::from_secs_f64(2.0), r, 1.0);
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
    fn run_until_records_an_idle_link_when_it_falls_idle() {
        // One flow drains at t=1; the caller's calendar goes on to t=5,
        // when the next flow starts. The link's series must fall to zero
        // at t=1, not stay at 100 B/s through the idle gap.
        let mut timeline = Timeline::new();
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let mut sim = FluidSim::new(net);
        sim.set_recorder(&mut timeline);
        sim.start_flow_at(SimTime::ZERO, vec![r], 100.0, 0);
        assert!(sim.run_until(SimTime::from_secs_f64(5.0)));
        assert!(sim.pop_ready().is_some());
        assert!(!sim.run_until(SimTime::from_secs_f64(5.0)));
        sim.start_flow_at(sim.now(), vec![r], 100.0, 1);
        assert!(sim.run_until(SimTime::MAX));
        drop(sim);
        let s = |secs: f64| SimTime::from_secs_f64(secs).as_nanos();
        assert_eq!(
            timeline.rate_series(0),
            vec![(0, 100.0), (s(1.0), 0.0), (s(5.0), 100.0)]
        );
    }

    #[test]
    fn a_recorder_changes_no_counter() {
        // Links a and b, joined by a bridge flow that drains first; a
        // short flow on a drains next, while b keeps its own flow. The
        // first solve walks and keeps the component {a, b}, and both
        // departures reuse it, traced or not.
        let run = |recorded: bool| {
            let mut timeline = Timeline::new();
            let mut net = FlowNetwork::new();
            let a = net.add_resource("a", CapacityModel::Fixed(100.0));
            let b = net.add_resource("b", CapacityModel::Fixed(100.0));
            let mut sim = FluidSim::new(net);
            sim.enable_metrics();
            if recorded {
                sim.set_recorder(&mut timeline);
            }
            sim.start_flow_at(SimTime::ZERO, vec![a], 100.0, 0);
            sim.start_flow_at(SimTime::ZERO, vec![a], 1000.0, 1);
            sim.start_flow_at(SimTime::ZERO, vec![a, b], 50.0, 2);
            sim.start_flow_at(SimTime::ZERO, vec![b], 1000.0, 3);
            let done: Vec<(u64, u64)> = sim
                .run_to_completion()
                .iter()
                .map(|c| (c.tag, c.time.as_nanos()))
                .collect();
            let mut reg = obs::metrics::MetricsRegistry::new();
            sim.metrics_into(&mut reg);
            let reused = sim.network().reused_solve_count();
            drop(sim);
            assert_eq!(timeline.is_empty(), !recorded);
            (done, reg, reused)
        };
        let ((done, plain, plain_reused), (traced_done, traced, traced_reused)) =
            (run(false), run(true));
        assert_eq!(done, traced_done, "same completions, bit for bit");
        assert_eq!(plain.to_json(), traced.to_json());
        assert_eq!((plain_reused, traced_reused), (2, 2));
        // Solves of 4, 3 and 2 flows.
        assert_eq!(traced.counter("sim.flows_solved"), 9);
    }

    #[test]
    fn a_recorder_attached_mid_run_reports_every_loaded_resource_at_the_next_solve() {
        // Links a and b carry flows from t=0; c and the idle link never
        // carry any before t=2, when a flow starts on c. A recorder
        // attached at t=1 must report a, b and c at t=2, with the loads
        // a recorder attached from the start holds by then, and nothing
        // before.
        let t = |secs: f64| SimTime::from_secs_f64(secs);
        let mut from_start = Timeline::new();
        let mut mid_run = Timeline::new();
        let build = || {
            let mut net = FlowNetwork::new();
            let a = net.add_resource("a", CapacityModel::Fixed(100.0));
            let b = net.add_resource("b", CapacityModel::Fixed(60.0));
            let c = net.add_resource("c", CapacityModel::Fixed(40.0));
            net.add_resource("idle", CapacityModel::Fixed(10.0));
            let mut sim = FluidSim::new(net);
            sim.start_flow_at(SimTime::ZERO, vec![a], 1000.0, 0);
            sim.start_flow_at(SimTime::ZERO, vec![a, b], 1000.0, 1);
            sim.start_flow_at(SimTime::ZERO, vec![b], 1000.0, 2);
            sim.start_flow_at(t(2.0), vec![c], 1000.0, 3);
            sim
        };
        let mut sims = [build(), build()];
        sims[0].set_recorder(&mut from_start);
        for sim in &mut sims {
            assert!(!sim.run_until(t(1.0)));
        }
        sims[1].set_recorder(&mut mid_run);
        for sim in &mut sims {
            assert!(!sim.run_until(t(2.0)));
        }
        drop(sims);
        let at = t(2.0).as_nanos();
        for r in 0..4u32 {
            let held = from_start
                .rate_series(r)
                .into_iter()
                .rfind(|&(when, _)| when <= at)
                .map(|(_, bps)| bps);
            let reported = mid_run.rate_series(r);
            match held {
                Some(bps) if bps != 0.0 => assert_eq!(reported, vec![(at, bps)], "resource {r}"),
                _ => assert!(reported.is_empty(), "resource {r}: {reported:?}"),
            }
        }
        assert_eq!(mid_run.count(EventKind::RateChange), 3);
    }

    /// One calendar entry per run of same-instant starts simulates what
    /// one entry per start does. One sim schedules each round's starts
    /// and then its factor changes (all later), so the starts share an
    /// entry; its twin follows each start with a change, so every start
    /// gets an entry of its own. Completions, rates, the event count and
    /// the recorded stream must match bit for bit; only the calendar
    /// counters may differ.
    #[test]
    fn batched_starts_simulate_what_one_entry_per_start_does() {
        use crate::rng::RngFactory;
        use rand::Rng;
        const N_RES: usize = 5;
        let build = || {
            let mut net = FlowNetwork::new();
            for i in 0..N_RES {
                let model = if i % 2 == 0 {
                    CapacityModel::Saturating {
                        peak: 400.0,
                        q_half: 1.5,
                    }
                } else {
                    CapacityModel::Fixed(90.0 + 21.0 * i as f64)
                };
                net.add_resource(format_args!("r{i}"), model);
            }
            FluidSim::new(net)
        };
        let mut timelines = [Timeline::new(), Timeline::new()];
        let [ta, tb] = &mut timelines;
        let mut sims = [build(), build()];
        sims[0].set_recorder(ta);
        sims[1].set_recorder(tb);
        let mut rng = RngFactory::new(0x57A7).stream("start-batching", 0);
        let ms = |n: u64| SimDuration::from_nanos(n * 1_000_000);
        let (mut flows, mut done) = (Vec::new(), [Vec::new(), Vec::new()]);
        for round in 0..80u64 {
            // Half the rounds start at the current instant, as a driver
            // reacting to a completion does.
            let at = sims[0].now() + ms(rng.gen_range(0..2u64) * rng.gen_range(1..300u64));
            let n = 1 + rng.gen_range(0..6usize);
            let starts: Vec<(Vec<ResourceId>, f64)> = (0..n)
                .map(|_| {
                    let first = rng.gen_range(0..N_RES);
                    let len = 1 + rng.gen_range(0..2usize);
                    let path = (first..N_RES.min(first + len))
                        .map(ResourceId::from_index)
                        .collect();
                    (path, f64::from(rng.gen_range(1..150u32)))
                })
                .collect();
            let changes: Vec<(SimTime, ResourceId, f64)> = (0..n)
                .map(|_| {
                    let r = ResourceId::from_index(rng.gen_range(0..N_RES));
                    let factor = [0.3, 0.7, 1.0, 1.4][rng.gen_range(0..4usize)];
                    (at + ms(rng.gen_range(1..400u64)), r, factor)
                })
                .collect();
            for (path, bytes) in &starts {
                flows.push(sims[0].start_flow_at(at, path, *bytes, round));
            }
            for &(t, r, factor) in &changes {
                sims[0].schedule_factor_change(t, r, factor);
            }
            for ((path, bytes), &(t, r, factor)) in starts.iter().zip(&changes) {
                sims[1].start_flow_at(at, path, *bytes, round);
                sims[1].schedule_factor_change(t, r, factor);
            }
            let horizon = at + ms(rng.gen_range(0..500u64));
            for (sim, done) in sims.iter_mut().zip(&mut done) {
                while sim.run_until(horizon) {
                    done.extend(std::iter::from_fn(|| sim.pop_ready()));
                }
            }
            assert_eq!(done[0], done[1], "round {round}");
            for &f in &flows {
                let [a, b] = sims.each_mut().map(|sim| sim.flow_rate(f).to_bits());
                assert_eq!(a, b, "round {round}: rate of {f:?}");
            }
        }
        for (sim, done) in sims.iter_mut().zip(&mut done) {
            done.extend(sim.run_to_completion());
        }
        assert_eq!(done[0], done[1]);
        assert_eq!(done[0].len(), flows.len());
        let regs = sims.each_ref().map(|sim| {
            let mut reg = obs::metrics::MetricsRegistry::new();
            sim.metrics_into(&mut reg);
            reg
        });
        for name in [
            "sim.events_processed",
            "sim.solves",
            "sim.flows_solved",
            "sim.solve_skips",
        ] {
            assert_eq!(regs[0].counter(name), regs[1].counter(name), "{name}");
        }
        // Three per flow: its start, its completion and a factor change.
        assert_eq!(
            regs[0].counter("sim.events_processed"),
            3 * flows.len() as u64
        );
        let [batched, one_by_one] = regs.each_ref().map(|r| r.counter("sim.event_heap.pushes"));
        assert_eq!(one_by_one, 2 * flows.len() as u64);
        assert!(
            batched < one_by_one - flows.len() as u64 / 2,
            "{batched} entries"
        );
        assert_eq!(
            regs.each_ref().map(|r| r.counter("sim.event_heap.pops")),
            [batched, one_by_one]
        );
        drop(sims);
        assert_eq!(timelines[0].events(), timelines[1].events());
        assert_eq!(timelines[0].count(EventKind::FlowStart), flows.len());
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
