//! Resources, flows, and the max–min fair rate solver.

use crate::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// Identifies a resource within one [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub(crate) u32);

/// Identifies a flow within one [`FlowNetwork`]: its registration
/// number. Ids are handed out 0, 1, 2, … in registration order and are
/// never reused, so an id stays meaningful (in completions, traces and
/// caller-side maps) after the network has reclaimed the flow's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub(crate) u32);

impl ResourceId {
    /// The raw index of this resource.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a raw index (telemetry iteration). Using an
    /// index that does not belong to the network panics at first use.
    pub fn from_index(i: usize) -> Self {
        ResourceId(u32::try_from(i).expect("resource index fits u32"))
    }
}

impl FlowId {
    /// The registration number of this flow.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Retired records a network tolerates before it compacts: compaction
/// runs once retired records outnumber both this floor and the
/// unretired ones, so storage stays within twice the unretired flows
/// plus this constant, and each retirement pays O(1) amortized
/// compaction work. The floor is sized to short-lived networks: a
/// campaign repetition registers up to ~2,000 flows and is discarded
/// after its run, so compacting it is pure overhead, and with this
/// floor most repetitions never compact, while a session-long network
/// holds at most ~100 KiB of retired records.
pub(crate) const COMPACT_MIN_RETIRED: usize = 1024;

/// How a resource's usable capacity depends on its load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CapacityModel {
    /// Constant capacity in bytes/second, regardless of concurrency.
    /// Network links, switch fabrics and software caps use this.
    Fixed(f64),
    /// Concurrency-dependent capacity: `peak * q / (q + q_half)` where `q`
    /// is the number of active flows through the resource.
    ///
    /// This is the classical saturating throughput curve of a storage
    /// device under increasing queue depth: a single writer cannot keep a
    /// RAID array's pipeline full, and throughput approaches `peak`
    /// asymptotically as parallelism grows. `q_half` is the queue depth at
    /// which half of `peak` is reached.
    Saturating {
        /// Asymptotic capacity in bytes/second.
        peak: f64,
        /// Concurrency (active flows) at which capacity is `peak / 2`.
        q_half: f64,
    },
}

impl CapacityModel {
    /// Capacity at queue depth `q` (sum of the depth weights of the
    /// active flows crossing the resource), before the speed factor.
    pub fn capacity_at_depth(&self, q: f64) -> f64 {
        debug_assert!(q >= 0.0);
        match *self {
            CapacityModel::Fixed(c) => c,
            CapacityModel::Saturating { peak, q_half } => {
                if q <= 0.0 {
                    0.0
                } else {
                    peak * q / (q + q_half)
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Resource {
    model: CapacityModel,
    /// Multiplicative speed factor (stochastic noise, degradation, …).
    factor: f64,
    /// Human-readable label for diagnostics.
    label: String,
    /// Telemetry: total bytes that crossed this resource.
    bytes_total: f64,
    /// Telemetry: time integral during which at least one active flow
    /// crossed the resource (seconds).
    busy_secs: f64,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    /// This flow's path lives in `FlowNetwork::path_arena` at
    /// `[path_off, path_off + path_len)`, with `pos_arena` parallel.
    /// Arena storage instead of per-flow vectors: a session-long
    /// simulation registers millions of flows, and two heap blocks per
    /// flow (allocated at admission, freed at retirement) dominated the
    /// profile before rates or events cost anything. Compaction moves
    /// a record's range down and rewrites `path_off`; ranges stay in
    /// slot order.
    path_off: u32,
    path_len: u32,
    /// The public id (registration number) of the flow in this slot.
    id: FlowId,
    active: bool,
    /// Finished or cancelled for good: inactive, never re-activated,
    /// and reclaimed by the next compaction.
    retired: bool,
    /// Remaining bytes to transfer (fluid: fractional during simulation).
    remaining: f64,
    /// Current max–min rate in bytes/second.
    rate: f64,
    /// Opaque caller tag (e.g. encodes (process, target)).
    tag: u64,
    /// Contribution to the queue depth of `Saturating` resources. Network
    /// links ignore it; storage devices saturate as the summed weight of
    /// their active flows grows. Defaults to 1.0.
    depth_weight: f64,
}

/// Persistent solver work buffers, reused across [`FlowNetwork`] solves
/// so steady-state rate recomputation performs no heap allocation.
///
/// The buffers hold no state between calls — every solve clears and
/// refills them — so recycling them across networks (via
/// [`super::SimArena`]) is safe. Only their *capacity* persists.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverScratch {
    /// Per-resource summed depth weight of active flows.
    depth: Vec<f64>,
    /// Per-resource count of not-yet-frozen flows crossing it.
    unfrozen: Vec<u32>,
    /// Per-resource residual capacity during progressive filling.
    cap: Vec<f64>,
    /// Frozen marker, indexed by *position in the solved flow list*.
    frozen: Vec<bool>,
    /// Per-resource "carried traffic this step" marker for `drain`.
    touched: Vec<bool>,
    /// Worklist of resource indices for the dirty-component walk.
    stack: Vec<u32>,
    /// Slots of the flows collected into the dirty components, sorted
    /// before solving.
    comp_flows: Vec<u32>,
    /// Resources collected into the dirty components, sorted before
    /// solving.
    comp_res: Vec<u32>,
    /// Membership marker for `comp_res` (len only grows; all-false
    /// between solves — cleared by walking `comp_res`, never O(n)).
    res_seen: Vec<bool>,
    /// Membership marker for `comp_flows` (same discipline).
    flow_seen: Vec<bool>,
    /// Flow count of each component collected by the last sharded
    /// recompute (empty after a skip), for the introspection histograms.
    comp_sizes: Vec<u32>,
}

/// A network of resources and flows with max–min fair bandwidth sharing.
///
/// The network is the *state* container; [`super::FluidSim`] drives it
/// through time. Rates are recomputed by [`FlowNetwork::recompute_rates`]
/// (progressive filling): repeatedly find the most contended resource,
/// freeze its flows at the fair share, remove them, and continue.
///
/// The solve is *incremental and sharded*: resources touched since the
/// last solve (flow start/finish, factor change) form a dirty set, and
/// when no active flow crosses any dirty resource the re-solve is
/// skipped as an identity transformation. Otherwise only the *connected
/// components* of the active flow/resource graph reachable from the
/// dirty resources are re-solved — flows touching disjoint resource
/// sets never interact under max–min, so clean components keep their
/// rates bit-for-bit (see `solve_sharded`). The full solver is kept,
/// verbatim, as [`FlowNetwork::reference_recompute_rates`] — the
/// executable specification the property/differential tests compare
/// against.
///
/// Flow records live in dense *slots* in ascending id order. A flow
/// the simulator retires (finished or cancelled) keeps its slot until
/// retired records outnumber the rest, when an order-preserving
/// compaction reclaims them; storage therefore follows the live and
/// pending flows, not session length. The hot loops (solver, drain,
/// completion scans) index slots directly; [`FlowId`]s are translated
/// only at the public API.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    resources: Vec<Resource>,
    /// Stored flow records, indexed by slot, in ascending id order.
    flows: Vec<Flow>,
    /// The id the next registered flow receives.
    next_id: u32,
    /// Retired records still stored (reclaimed by `compact`).
    retired: usize,
    /// Every stored flow's path, back to back in slot order (see
    /// [`Flow::path_off`]). Compaction truncates it in place, so its
    /// capacity follows the peak of stored flows.
    path_arena: Vec<ResourceId>,
    /// Parallel to `path_arena`. While a flow is active, entry
    /// `path_off + k` is its position inside `incident[path[k]]`, so
    /// deactivation swap-removes in O(path).
    pos_arena: Vec<u32>,
    /// Slots of active flows, kept sorted ascending. This is the
    /// solver's iteration order, and must match
    /// `flows.iter().filter(active)` so floating-point accumulation
    /// order — and therefore every rate — is bit-identical to the
    /// reference solver. Compaction preserves slot order, so ascending
    /// slot is ascending id.
    active: Vec<u32>,
    /// Per-resource count of active flows crossing it.
    active_count: Vec<u32>,
    /// Per-resource list of the slots of the *active* flows crossing it
    /// — the incidence index the dirty-component walk traverses.
    /// Capacity is reserved at flow registration (see
    /// `add_flow_weighted`) so activation in the steady state never
    /// allocates.
    incident: Vec<Vec<u32>>,
    /// Per-resource count of *unretired* flows crossing it (active,
    /// pending, or deactivated by a direct caller) — the capacity bound
    /// reserved in `incident`. Retirement decrements it, so the
    /// reservation follows the concurrent peak, not session length.
    registered: Vec<u32>,
    /// Resource indices touched since the last solve (deduplicated).
    dirty: Vec<u32>,
    /// Membership marker for `dirty`.
    dirty_mark: Vec<bool>,
    /// Telemetry: progressive-filling solves performed so far.
    solves: u64,
    /// Telemetry: total flows handed to the solver across all solves.
    flows_solved: u64,
    /// Telemetry: recomputes skipped as identity transformations (no
    /// active flow crossed any dirty resource).
    skips: u64,
    /// When set (a recorder is attached), every recompute captures the
    /// resources whose aggregate load may have changed, so the tracing
    /// sampler refreshes only those instead of scanning every resource.
    track_touched: bool,
    /// The captured touched set (sorted ascending, deduplicated): the
    /// dirty set at recompute entry unioned with the resources of the
    /// re-solved components.
    touched_res: Vec<u32>,
    /// Whether `touched_res` describes the last recompute. False after a
    /// reference solve (the sampler must scan everything) and while
    /// tracking is off.
    touched_valid: bool,
    scratch: SolverScratch,
}

impl FlowNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a resource; returns its id.
    pub fn add_resource(&mut self, label: impl Into<String>, model: CapacityModel) -> ResourceId {
        match model {
            CapacityModel::Fixed(c) => {
                assert!(c.is_finite() && c >= 0.0, "invalid fixed capacity {c}")
            }
            CapacityModel::Saturating { peak, q_half } => assert!(
                peak.is_finite() && peak >= 0.0 && q_half.is_finite() && q_half >= 0.0,
                "invalid saturating capacity peak={peak} q_half={q_half}"
            ),
        }
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(Resource {
            model,
            factor: 1.0,
            label: label.into(),
            bytes_total: 0.0,
            busy_secs: 0.0,
        });
        self.active_count.push(0);
        self.incident.push(Vec::new());
        self.registered.push(0);
        self.dirty_mark.push(false);
        id
    }

    /// Record that `r` changed since the last solve.
    fn mark_dirty(&mut self, r: usize) {
        if !self.dirty_mark[r] {
            self.dirty_mark[r] = true;
            self.dirty.push(r as u32);
        }
    }

    fn clear_dirty(&mut self) {
        for &r in &self.dirty {
            self.dirty_mark[r as usize] = false;
        }
        self.dirty.clear();
    }

    /// Convenience: a fixed-capacity resource from a [`Bandwidth`].
    pub fn add_link(&mut self, label: impl Into<String>, bw: Bandwidth) -> ResourceId {
        self.add_resource(label, CapacityModel::Fixed(bw.bytes_per_sec()))
    }

    /// Set a resource's multiplicative speed factor (noise / degradation).
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    pub fn set_factor(&mut self, r: ResourceId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid speed factor {factor}"
        );
        self.resources[r.index()].factor = factor;
        self.mark_dirty(r.index());
    }

    /// The resource's current speed factor.
    pub fn factor(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].factor
    }

    /// The resource's label.
    pub fn label(&self, r: ResourceId) -> &str {
        &self.resources[r.index()].label
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Register a flow (inactive until activated by the simulator) with
    /// the default depth weight of 1.0.
    ///
    /// # Panics
    /// Panics on an empty path, repeated resources in the path, or a
    /// negative/non-finite byte count.
    pub fn add_flow(&mut self, path: Vec<ResourceId>, bytes: f64, tag: u64) -> FlowId {
        self.add_flow_weighted(path, bytes, tag, 1.0)
    }

    /// Register a flow with an explicit depth weight (its contribution to
    /// the queue depth of `Saturating` resources on its path).
    ///
    /// # Panics
    /// As [`FlowNetwork::add_flow`], plus on non-positive/non-finite
    /// weights.
    pub fn add_flow_weighted(
        &mut self,
        path: Vec<ResourceId>,
        bytes: f64,
        tag: u64,
        depth_weight: f64,
    ) -> FlowId {
        assert!(
            depth_weight.is_finite() && depth_weight > 0.0,
            "invalid depth weight {depth_weight}"
        );
        assert!(
            !path.is_empty(),
            "flow path must cross at least one resource"
        );
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "invalid flow size {bytes}"
        );
        for r in &path {
            assert!(r.index() < self.resources.len(), "unknown resource in path");
        }
        // Duplicate check without allocating: paths are a handful of
        // resources, so the pairwise scan beats sort-and-dedup on the
        // registration hot path (a long path falls back to sorting).
        if path.len() <= 16 {
            for (k, r) in path.iter().enumerate() {
                assert!(
                    !path[..k].contains(r),
                    "flow path must not repeat a resource"
                );
            }
        } else {
            let mut sorted: Vec<u32> = path.iter().map(|r| r.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                path.len(),
                "flow path must not repeat a resource"
            );
        }
        // Reserve incidence capacity now, while registration is allowed
        // to allocate: active flows are a subset of registered flows, so
        // `activate` never grows `incident` in the steady state.
        for r in &path {
            let ri = r.index();
            self.registered[ri] += 1;
            let need = self.registered[ri] as usize;
            let v = &mut self.incident[ri];
            if v.capacity() < need {
                v.reserve(need - v.len());
            }
        }
        let id = FlowId(self.next_id);
        self.next_id = self.next_id.checked_add(1).expect("too many flows");
        let path_off = u32::try_from(self.path_arena.len()).expect("path arena fits u32");
        let path_len = u32::try_from(path.len()).expect("path length fits u32");
        self.path_arena.extend_from_slice(&path);
        self.pos_arena.resize(self.path_arena.len(), 0);
        self.flows.push(Flow {
            path_off,
            path_len,
            id,
            active: false,
            retired: false,
            remaining: bytes,
            rate: 0.0,
            tag,
            depth_weight,
        });
        id
    }

    /// The slot storing flow `f`, or `None` once the flow has been
    /// retired and its record reclaimed. This is the only id→slot
    /// translation; hot loops never call it.
    ///
    /// # Panics
    /// Panics if `f` was never registered with this network.
    pub(crate) fn slot_of(&self, f: FlowId) -> Option<u32> {
        assert!(f.0 < self.next_id, "unknown flow {f:?}");
        // Compaction preserves order and only removes records, so `f`
        // sits at most `f` slots in, and at most `reclaimed` slots
        // before its id. The lower bound is exact whenever every
        // reclaimed record was older than `f` — the common case.
        let reclaimed = self.next_id as usize - self.flows.len();
        let lo = f.index().saturating_sub(reclaimed);
        let hi = (f.index() + 1).min(self.flows.len());
        if lo >= hi {
            return None;
        }
        if self.flows[lo].id == f {
            return Some(lo as u32);
        }
        self.flows[lo..hi]
            .binary_search_by_key(&f, |fl| fl.id)
            .ok()
            .map(|k| (lo + k) as u32)
    }

    /// The path of the flow in slot `i`, resolved from the arena.
    #[inline]
    fn path_of(&self, i: usize) -> &[ResourceId] {
        let f = &self.flows[i];
        &self.path_arena[f.path_off as usize..(f.path_off + f.path_len) as usize]
    }

    /// Mark a flow active so the solver assigns it a rate.
    ///
    /// [`super::FluidSim`] does this automatically at the flow's start
    /// time; direct use is for standalone solver invocations (e.g. the
    /// analytic capacity model and tests).
    ///
    /// # Panics
    /// Panics if the flow is already active or has been retired.
    pub fn activate(&mut self, f: FlowId) {
        let s = self
            .slot_of(f)
            .filter(|&s| !self.flows[s as usize].retired)
            .unwrap_or_else(|| panic!("flow {f:?} is retired"));
        self.activate_slot(s);
    }

    /// [`FlowNetwork::activate`] by slot.
    pub(crate) fn activate_slot(&mut self, s: u32) {
        let i = s as usize;
        assert!(
            !self.flows[i].active,
            "flow {:?} already active",
            self.flows[i].id
        );
        debug_assert!(!self.flows[i].retired, "retired flows never re-activate");
        self.flows[i].active = true;
        let pos = self
            .active
            .binary_search(&s)
            .expect_err("inactive flow already in active list");
        self.active.insert(pos, s);
        let off = self.flows[i].path_off as usize;
        let len = self.flows[i].path_len as usize;
        for k in 0..len {
            let r = self.path_arena[off + k].index();
            self.active_count[r] += 1;
            self.mark_dirty(r);
            let at = u32::try_from(self.incident[r].len()).expect("incidence fits u32");
            self.incident[r].push(s);
            self.pos_arena[off + k] = at;
        }
    }

    /// Mark a flow inactive, zeroing its rate and remaining bytes.
    ///
    /// [`super::FluidSim`] does this automatically when a flow finishes
    /// (and then retires it); direct use is for standalone solver
    /// invocations (e.g. the property/differential test harness driving
    /// flapping timelines), where the flow stays registered and may be
    /// activated again. Deactivating an already-inactive or retired flow
    /// is a no-op.
    pub fn deactivate(&mut self, f: FlowId) {
        if let Some(s) = self.slot_of(f) {
            self.deactivate_slot(s);
        }
    }

    /// [`FlowNetwork::deactivate`] by slot.
    pub(crate) fn deactivate_slot(&mut self, s: u32) {
        let i = s as usize;
        let was_active = self.flows[i].active;
        self.flows[i].active = false;
        self.flows[i].rate = 0.0;
        self.flows[i].remaining = 0.0;
        if !was_active {
            return;
        }
        if let Ok(pos) = self.active.binary_search(&s) {
            self.active.remove(pos);
        }
        let off = self.flows[i].path_off as usize;
        let len = self.flows[i].path_len as usize;
        for k in 0..len {
            let r = self.path_arena[off + k].index();
            self.active_count[r] -= 1;
            self.mark_dirty(r);
            let at = self.pos_arena[off + k] as usize;
            debug_assert_eq!(self.incident[r][at], s, "incidence index out of sync");
            self.incident[r].swap_remove(at);
            if at < self.incident[r].len() {
                // Fix up the displaced flow's position entry for `r`.
                let moved = self.incident[r][at] as usize;
                let moved_off = self.flows[moved].path_off as usize;
                let k_moved = self
                    .path_of(moved)
                    .iter()
                    .position(|x| x.index() == r)
                    .expect("incident flow crosses the resource");
                self.pos_arena[moved_off + k_moved] = at as u32;
            }
        }
    }

    /// Deactivate the flow in slot `s` and retire it for good: it stops
    /// counting towards the `incident` reservations and its record is
    /// reclaimed by a later [`FlowNetwork::compact_if_due`]. Slots stay
    /// valid until that call, so a caller can retire a whole batch
    /// first.
    pub(crate) fn retire(&mut self, s: u32) {
        self.deactivate_slot(s);
        let i = s as usize;
        debug_assert!(!self.flows[i].retired, "flow retired twice");
        self.flows[i].retired = true;
        self.retired += 1;
        let off = self.flows[i].path_off as usize;
        for r in &self.path_arena[off..off + self.flows[i].path_len as usize] {
            self.registered[r.index()] -= 1;
        }
    }

    /// Reclaim retired records once they outnumber both the unretired
    /// ones and [`COMPACT_MIN_RETIRED`]. When it compacts, every slot
    /// held by the caller is stale.
    pub(crate) fn compact_if_due(&mut self) {
        if self.retired >= COMPACT_MIN_RETIRED && 2 * self.retired > self.flows.len() {
            self.compact();
        }
    }

    /// Order-preserving, in-place compaction: every unretired record
    /// and its path/pos range move down over the retired ones. Active
    /// flows' entries in `incident` are rewritten to their new slots
    /// (their positions there are unchanged), and `active` is rebuilt
    /// in ascending slot order — the same flows in the same order, so
    /// every later solve is bit-identical. Allocates nothing.
    fn compact(&mut self) {
        let mut kept = 0usize;
        let mut arena_len = 0usize;
        self.active.clear();
        for i in 0..self.flows.len() {
            let mut flow = self.flows[i];
            if flow.retired {
                continue;
            }
            let off = flow.path_off as usize;
            flow.path_off = arena_len as u32;
            // Copying forward is safe: ranges only move down.
            for k in 0..flow.path_len as usize {
                let r = self.path_arena[off + k];
                let pos = self.pos_arena[off + k];
                self.path_arena[arena_len + k] = r;
                self.pos_arena[arena_len + k] = pos;
                if flow.active {
                    self.incident[r.index()][pos as usize] = kept as u32;
                }
            }
            if flow.active {
                self.active.push(kept as u32);
            }
            arena_len += flow.path_len as usize;
            self.flows[kept] = flow;
            kept += 1;
        }
        self.flows.truncate(kept);
        self.path_arena.truncate(arena_len);
        self.pos_arena.truncate(arena_len);
        self.retired = 0;
        // The last solve's component list names pre-compaction slots.
        self.scratch.comp_flows.clear();
        self.touched_valid = false;
    }

    /// Current rate of a flow in bytes/second: `0.0` while inactive,
    /// including once the flow has finished, been cancelled, or been
    /// retired (its record reclaimed).
    ///
    /// # Panics
    /// Panics if the flow was never registered with this network.
    pub fn rate(&self, f: FlowId) -> f64 {
        self.slot_of(f).map_or(0.0, |s| self.flows[s as usize].rate)
    }

    /// Remaining bytes of a flow: `0.0` once it has finished, been
    /// cancelled, or been retired — a caller may still hold the id of a
    /// flow whose completion it has not processed yet.
    ///
    /// # Panics
    /// Panics if the flow was never registered with this network.
    pub fn remaining(&self, f: FlowId) -> f64 {
        self.slot_of(f)
            .map_or(0.0, |s| self.flows[s as usize].remaining)
    }

    /// Whether the flow is currently active: `false` before its start,
    /// after it finishes or is cancelled, and after retirement.
    ///
    /// # Panics
    /// Panics if the flow was never registered with this network.
    pub fn is_active(&self, f: FlowId) -> bool {
        self.slot_of(f)
            .is_some_and(|s| self.flows[s as usize].active)
    }

    /// The caller-provided tag of a flow. Valid only until the flow is
    /// retired (when [`super::FluidSim`] reports its completion or
    /// cancels it); the tag travels on the
    /// [`Completion`](super::Completion) instead.
    ///
    /// # Panics
    /// Panics if the flow was never registered or has been retired.
    pub fn tag(&self, f: FlowId) -> u64 {
        let s = self
            .slot_of(f)
            .filter(|&s| !self.flows[s as usize].retired)
            .unwrap_or_else(|| panic!("flow {f:?} is retired"));
        self.flows[s as usize].tag
    }

    /// Ids of all currently active flows, ascending, without allocating.
    pub fn active_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.active.iter().map(|&s| self.flows[s as usize].id)
    }

    /// The sorted active-flow slots (hot-path form of
    /// [`FlowNetwork::active_flows`]).
    pub(crate) fn active_slots(&self) -> &[u32] {
        &self.active
    }

    /// The id of the flow in slot `s`.
    #[inline]
    pub(crate) fn id_at(&self, s: u32) -> FlowId {
        self.flows[s as usize].id
    }

    /// The rate of the flow in slot `s`.
    #[inline]
    pub(crate) fn rate_at(&self, s: u32) -> f64 {
        self.flows[s as usize].rate
    }

    /// The remaining bytes of the flow in slot `s`.
    #[inline]
    pub(crate) fn remaining_at(&self, s: u32) -> f64 {
        self.flows[s as usize].remaining
    }

    /// The tag of the flow in slot `s`.
    #[inline]
    pub(crate) fn tag_at(&self, s: u32) -> u64 {
        self.flows[s as usize].tag
    }

    /// Whether the flow in slot `s` is active.
    #[inline]
    pub(crate) fn is_active_at(&self, s: u32) -> bool {
        self.flows[s as usize].active
    }

    /// Stored flow records, retired ones awaiting compaction included.
    #[cfg(test)]
    pub(crate) fn stored_flows(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn drain(&mut self, dt_secs: f64) {
        debug_assert!(dt_secs >= 0.0);
        let n_res = self.resources.len();
        self.scratch.touched.clear();
        self.scratch.touched.resize(n_res, false);
        for pos in 0..self.active.len() {
            let i = self.active[pos] as usize;
            let moved = self.flows[i].rate * dt_secs;
            self.flows[i].remaining = (self.flows[i].remaining - moved).max(0.0);
            let off = self.flows[i].path_off as usize;
            let len = self.flows[i].path_len as usize;
            for k in 0..len {
                let r = self.path_arena[off + k].index();
                self.resources[r].bytes_total += moved;
                self.scratch.touched[r] = true;
            }
        }
        for r in 0..n_res {
            if self.scratch.touched[r] {
                self.resources[r].busy_secs += dt_secs;
            }
        }
    }

    /// Telemetry: total bytes that have crossed a resource so far.
    pub fn bytes_through(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].bytes_total
    }

    /// Telemetry: seconds during which the resource carried at least one
    /// active flow.
    pub fn busy_secs(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].busy_secs
    }

    /// Telemetry: mean throughput while busy, in bytes/second (0 if the
    /// resource never carried traffic).
    pub fn mean_busy_throughput(&self, r: ResourceId) -> f64 {
        let res = &self.resources[r.index()];
        if res.busy_secs == 0.0 {
            0.0
        } else {
            res.bytes_total / res.busy_secs
        }
    }

    /// Recompute all active flows' rates with progressive filling.
    ///
    /// Post-conditions (verified by property tests):
    /// * feasibility — for every resource, the sum of the rates of flows
    ///   crossing it does not exceed its effective capacity (within
    ///   floating-point tolerance);
    /// * max–min fairness — no flow's rate can be increased without
    ///   decreasing the rate of a flow with a smaller-or-equal rate.
    ///
    /// Incremental: when no active flow crosses a resource touched since
    /// the last solve, every rate is provably unchanged (flows interact
    /// only through shared resources, and capacity/depth on untouched
    /// resources is constant), so the call returns without doing — or
    /// allocating — anything. Otherwise only the connected components of
    /// the active flow/resource graph reachable from the dirty resources
    /// are re-solved; clean components' rates are left untouched (which
    /// is exact — see `solve_sharded`). Results are bit-identical to
    /// [`FlowNetwork::reference_recompute_rates`] either way.
    pub fn recompute_rates(&mut self) {
        if self
            .dirty
            .iter()
            .all(|&r| self.active_count[r as usize] == 0)
        {
            // Identity transformation: rates must not be touched at all,
            // so traces and downstream decisions stay byte-identical.
            // Loads on the dirty resources may still have dropped to
            // zero (a departing flow marks its path dirty), so the
            // touched set is exactly the dirty set — with no component
            // flows to re-accumulate.
            self.skips += 1;
            self.scratch.comp_sizes.clear();
            if self.track_touched {
                self.touched_res.clear();
                self.touched_res.extend_from_slice(&self.dirty);
                self.touched_res.sort_unstable();
                self.scratch.comp_flows.clear();
                self.touched_valid = true;
            }
            self.clear_dirty();
            return;
        }
        self.solve_sharded();
    }

    /// Telemetry: progressive-filling solves performed so far (skipped
    /// no-op recomputes do not count).
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// Telemetry: total flows handed to the solver across all solves —
    /// with sharding, dirty components only, so disjoint-component
    /// workloads grow this far slower than `solves * active_flows`.
    pub fn flows_solved(&self) -> u64 {
        self.flows_solved
    }

    /// Telemetry: recomputes skipped as identity transformations. The
    /// dirty-set hit rate is `skips / (skips + solves)` — how often the
    /// incremental bookkeeping proved a re-solve unnecessary.
    pub fn skip_count(&self) -> u64 {
        self.skips
    }

    /// Flow count of each connected component collected by the last
    /// [`FlowNetwork::recompute_rates`]: one entry per re-solved
    /// component, empty after a skipped recompute. Feeds the
    /// component-size/count introspection histograms.
    pub fn last_component_sizes(&self) -> &[u32] {
        &self.scratch.comp_sizes
    }

    /// Enable or disable touched-resource capture (see `touched_res`).
    /// Turned on when a recorder is attached so the tracing sampler can
    /// stay proportional to the dirty components.
    pub(crate) fn set_track_touched(&mut self, on: bool) {
        self.track_touched = on;
        if !on {
            self.touched_valid = false;
        }
    }

    /// The resources whose aggregate load may have changed in the last
    /// recompute (sorted ascending), or `None` when the last solve did
    /// not capture a touched set and the sampler must scan everything.
    pub(crate) fn touched_resources(&self) -> Option<&[u32]> {
        if self.touched_valid {
            Some(&self.touched_res)
        } else {
            None
        }
    }

    /// Mark every resource currently carrying active flows dirty, so the
    /// next recompute re-solves (and re-samples) them. Called when a
    /// recorder is attached mid-run: resources loaded *before* the
    /// attach would otherwise never enter a touched set, and their
    /// pre-existing loads would go unreported. A no-op in the usual
    /// attach-before-start case (nothing active yet).
    pub(crate) fn mark_active_resources_dirty(&mut self) {
        for r in 0..self.active_count.len() {
            if self.active_count[r] > 0 {
                self.mark_dirty(r);
            }
        }
    }

    /// Re-solve only the connected components touched by the dirty set.
    ///
    /// Walks the active flow/resource incidence graph from every dirty
    /// resource that still carries flows, collecting the union of the
    /// dirty components, then runs one restricted solve over it. This is
    /// *exact*, not an approximation:
    ///
    /// * Activation, deactivation, and factor changes all mark the full
    ///   path of the affected flow (or the changed resource) dirty, so
    ///   any component whose member set or capacities changed — including
    ///   both halves of a split and both sides of a merge — contains a
    ///   dirty resource and is collected.
    /// * Progressive filling never moves capacity between components:
    ///   each freeze step only updates the residual capacity and counts
    ///   of the frozen flows' own resources. The global bottleneck
    ///   sequence restricted to one component is therefore independent
    ///   of every other component, and solving the dirty components in
    ///   isolation assigns the same shares in the same floating-point
    ///   operation order as the full solve (flows and resources are
    ///   sorted ascending before solving, matching the reference's
    ///   iteration order).
    fn solve_sharded(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let n_res = self.resources.len();
        if scratch.res_seen.len() < n_res {
            scratch.res_seen.resize(n_res, false);
        }
        if scratch.flow_seen.len() < self.flows.len() {
            scratch.flow_seen.resize(self.flows.len(), false);
        }
        scratch.comp_flows.clear();
        scratch.comp_res.clear();
        scratch.comp_sizes.clear();
        scratch.stack.clear();
        // One BFS per not-yet-absorbed dirty root, so the walk also
        // counts the collected components and their flow populations
        // (`comp_sizes`). The union of everything collected — and,
        // after the sort below, the solve itself — is identical to a
        // single walk seeded with every root at once.
        for di in 0..self.dirty.len() {
            let root = self.dirty[di];
            let ri = root as usize;
            if self.active_count[ri] == 0 || scratch.res_seen[ri] {
                continue;
            }
            scratch.res_seen[ri] = true;
            scratch.comp_res.push(root);
            scratch.stack.push(root);
            let flows_before = scratch.comp_flows.len();
            while let Some(r) = scratch.stack.pop() {
                for &f in &self.incident[r as usize] {
                    if scratch.flow_seen[f as usize] {
                        continue;
                    }
                    scratch.flow_seen[f as usize] = true;
                    scratch.comp_flows.push(f);
                    for pr in self.path_of(f as usize) {
                        let pri = pr.index();
                        if !scratch.res_seen[pri] {
                            scratch.res_seen[pri] = true;
                            scratch.comp_res.push(pr.0);
                            scratch.stack.push(pr.0);
                        }
                    }
                }
            }
            let size = scratch.comp_flows.len() - flows_before;
            scratch
                .comp_sizes
                .push(u32::try_from(size).expect("component size fits u32"));
        }
        if self.track_touched {
            // Loads can change on re-solved components and on dirty
            // resources whose last flow just departed (not collected by
            // the walk: they have no active flows). Everything else is
            // provably unchanged.
            self.touched_res.clear();
            self.touched_res.extend_from_slice(&self.dirty);
            self.touched_res.extend_from_slice(&scratch.comp_res);
            self.touched_res.sort_unstable();
            self.touched_res.dedup();
            self.touched_valid = true;
        }
        self.clear_dirty();
        // Ascending order: the solver's iteration order is its
        // floating-point accumulation order, and must match the
        // reference solver's (slot = registration order, resource
        // creation order) within the collected components.
        scratch.comp_flows.sort_unstable();
        scratch.comp_res.sort_unstable();
        let comp_flows = std::mem::take(&mut scratch.comp_flows);
        let comp_res = std::mem::take(&mut scratch.comp_res);
        self.solve_subset(&comp_flows, &comp_res, &mut scratch);
        // Clear membership marks by walking only what was collected, so
        // steady-state cost stays proportional to the dirty components.
        for &f in &comp_flows {
            scratch.flow_seen[f as usize] = false;
        }
        for &r in &comp_res {
            scratch.res_seen[r as usize] = false;
        }
        scratch.comp_flows = comp_flows;
        scratch.comp_res = comp_res;
        self.scratch = scratch;
    }

    /// Progressive filling restricted to `flows` over `resources` — the
    /// solve behind [`FlowNetwork::recompute_rates`].
    ///
    /// Requirements (upheld by the callers): both lists are sorted
    /// ascending; every resource on a listed flow's path is listed; every
    /// listed flow is active. Loop structure and floating-point operation
    /// order mirror [`FlowNetwork::reference_recompute_rates`] exactly —
    /// the only differences are buffer reuse and iterating the provided
    /// lists instead of filtering every registered flow. Per-resource
    /// scratch entries are initialized for listed resources only; stale
    /// entries for unlisted resources are never read.
    fn solve_subset(&mut self, flows: &[u32], resources: &[u32], scratch: &mut SolverScratch) {
        let n_res = self.resources.len();
        if scratch.depth.len() < n_res {
            scratch.depth.resize(n_res, 0.0);
            scratch.unfrozen.resize(n_res, 0);
            scratch.cap.resize(n_res, 0.0);
        }
        // Effective capacity: concurrency-dependent models see the summed
        // depth weight of the active flows routed through them; the
        // solver's flow counting stays integer. Depth is re-accumulated
        // from scratch each solve (never maintained incrementally):
        // floating-point += / -= round differently than a fresh sum, and
        // rates must stay bit-identical to the reference solver.
        for &r in resources {
            scratch.depth[r as usize] = 0.0;
            scratch.unfrozen[r as usize] = 0;
        }
        for &f in flows {
            let w = self.flows[f as usize].depth_weight;
            for r in self.path_of(f as usize) {
                scratch.depth[r.index()] += w;
                scratch.unfrozen[r.index()] += 1;
            }
        }
        for &r in resources {
            let res = &self.resources[r as usize];
            scratch.cap[r as usize] =
                res.model.capacity_at_depth(scratch.depth[r as usize]) * res.factor;
        }

        scratch.frozen.clear();
        scratch.frozen.resize(flows.len(), false);
        let mut n_unfrozen = flows.len();

        for &f in flows {
            self.flows[f as usize].rate = 0.0;
        }

        while n_unfrozen > 0 {
            // Find the bottleneck: the resource with the smallest fair
            // share among resources still carrying unfrozen flows.
            let mut best: Option<(usize, f64)> = None;
            for &r in resources {
                let u = scratch.unfrozen[r as usize];
                if u > 0 {
                    let share = scratch.cap[r as usize].max(0.0) / f64::from(u);
                    match best {
                        Some((_, s)) if s <= share => {}
                        _ => best = Some((r as usize, share)),
                    }
                }
            }
            let Some((bottleneck, share)) = best else {
                // Unfrozen flows exist but none crosses a resource —
                // impossible since paths are non-empty.
                unreachable!("unfrozen flows with no carrying resource");
            };

            // Freeze every unfrozen flow crossing the bottleneck.
            let mut froze_any = false;
            for (pos, f) in flows.iter().enumerate() {
                if scratch.frozen[pos] {
                    continue;
                }
                let i = *f as usize;
                if self.path_of(i).iter().any(|r| r.index() == bottleneck) {
                    scratch.frozen[pos] = true;
                    froze_any = true;
                    n_unfrozen -= 1;
                    self.flows[i].rate = share;
                    let off = self.flows[i].path_off as usize;
                    let len = self.flows[i].path_len as usize;
                    for k in 0..len {
                        let r = self.path_arena[off + k].index();
                        scratch.cap[r] -= share;
                        scratch.unfrozen[r] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
        }
        self.solves += 1;
        self.flows_solved += flows.len() as u64;
    }

    /// The pre-incremental solver, kept verbatim as the executable
    /// specification: a full progressive-filling solve that allocates its
    /// work buffers fresh and scans every stored flow record (retired
    /// records awaiting compaction are inactive and filtered out, like
    /// any other inactive flow). The property
    /// and differential suites (`tests/solver_properties.rs`) and the
    /// `flow_hotpath` and `flow_scale` benches compare
    /// [`FlowNetwork::recompute_rates`] against this on randomized
    /// networks and event sequences; it is
    /// compiled unconditionally so integration tests and benches outside
    /// this crate can call it.
    ///
    /// Does not consult or clear the dirty set.
    pub fn reference_recompute_rates(&mut self) {
        // Anything may have changed: the tracing sampler must full-scan.
        self.touched_valid = false;
        let n_res = self.resources.len();
        let mut depth: Vec<f64> = vec![0.0; n_res];
        let mut unfrozen: Vec<u32> = vec![0; n_res];
        for flow in self.flows.iter().filter(|f| f.active) {
            let off = flow.path_off as usize;
            for r in &self.path_arena[off..off + flow.path_len as usize] {
                depth[r.index()] += flow.depth_weight;
                unfrozen[r.index()] += 1;
            }
        }
        let mut cap: Vec<f64> = (0..n_res)
            .map(|i| {
                let res = &self.resources[i];
                res.model.capacity_at_depth(depth[i]) * res.factor
            })
            .collect();

        let active: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].active)
            .collect();
        let mut frozen: Vec<bool> = vec![false; self.flows.len()];
        let mut n_unfrozen = active.len();

        for &i in &active {
            self.flows[i].rate = 0.0;
        }

        while n_unfrozen > 0 {
            let mut best: Option<(usize, f64)> = None;
            for (r, (&u, &c)) in unfrozen.iter().zip(cap.iter()).enumerate() {
                if u > 0 {
                    let share = c.max(0.0) / f64::from(u);
                    match best {
                        Some((_, s)) if s <= share => {}
                        _ => best = Some((r, share)),
                    }
                }
            }
            let Some((bottleneck, share)) = best else {
                unreachable!("unfrozen flows with no carrying resource");
            };

            let mut froze_any = false;
            for &i in &active {
                if frozen[i] {
                    continue;
                }
                if self.path_of(i).iter().any(|r| r.index() == bottleneck) {
                    frozen[i] = true;
                    froze_any = true;
                    n_unfrozen -= 1;
                    self.flows[i].rate = share;
                    let off = self.flows[i].path_off as usize;
                    let len = self.flows[i].path_len as usize;
                    for k in 0..len {
                        let r = self.path_arena[off + k].index();
                        cap[r] -= share;
                        unfrozen[r] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
        }
    }

    /// Fill `out` (one slot per resource) with the aggregate active-flow
    /// rate through each resource — the bulk form of
    /// [`FlowNetwork::resource_load`], used by the tracing sampler after
    /// every rate recompute.
    pub(crate) fn loads_into(&self, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = 0.0;
        }
        for &s in &self.active {
            let f = &self.flows[s as usize];
            let off = f.path_off as usize;
            for r in &self.path_arena[off..off + f.path_len as usize] {
                out[r.index()] += f.rate;
            }
        }
    }

    /// Restricted form of [`FlowNetwork::loads_into`] for the tracing
    /// sampler: refresh only the entries in `touched` (the set captured
    /// by the last recompute), re-accumulating from the flows of the
    /// just-solved components. Every flow crossing a touched resource
    /// with active flows belongs to a collected component, and
    /// `comp_flows` is sorted ascending like the active list, so each
    /// refreshed sum adds the same rates in the same order as the full
    /// scan — bit-identical values. Entries outside `touched` are left
    /// alone; their loads are provably unchanged.
    pub(crate) fn loads_into_touched(&self, out: &mut [f64], touched: &[u32]) {
        for &r in touched {
            out[r as usize] = 0.0;
        }
        for &s in &self.scratch.comp_flows {
            let f = &self.flows[s as usize];
            let off = f.path_off as usize;
            for r in &self.path_arena[off..off + f.path_len as usize] {
                out[r.index()] += f.rate;
            }
        }
    }

    /// Move the recyclable buffers out for reuse by the next network
    /// (see [`super::SimArena`]): the solver scratch plus the
    /// active-list, dirty-set, and per-resource incidence vectors, which
    /// would otherwise re-grow from empty in every rep. The network must
    /// not be solved again after this.
    #[allow(clippy::type_complexity)]
    pub(crate) fn take_recycled(&mut self) -> (SolverScratch, Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
        (
            std::mem::take(&mut self.scratch),
            std::mem::take(&mut self.active),
            std::mem::take(&mut self.dirty),
            std::mem::take(&mut self.incident),
        )
    }

    /// Install recycled buffers. Only *capacity* carries over: the active
    /// list, dirty set, and incidence lists are cleared and refilled with
    /// this network's current contents, so behaviour is identical to a
    /// fresh network.
    pub(crate) fn install_recycled(
        &mut self,
        scratch: SolverScratch,
        mut active: Vec<u32>,
        mut dirty: Vec<u32>,
        mut incident: Vec<Vec<u32>>,
    ) {
        self.scratch = scratch;
        active.clear();
        active.extend_from_slice(&self.active);
        self.active = active;
        dirty.clear();
        dirty.extend_from_slice(&self.dirty);
        self.dirty = dirty;
        // Keep the recycled inner vectors (their capacities are the
        // point), aligned to this network's resource count.
        for v in &mut incident {
            v.clear();
        }
        incident.truncate(self.incident.len());
        while incident.len() < self.incident.len() {
            incident.push(Vec::new());
        }
        for (slot, current) in incident.iter_mut().zip(self.incident.iter()) {
            slot.extend_from_slice(current);
        }
        self.incident = incident;
    }

    /// Sum of active-flow rates through a resource (diagnostics/tests).
    ///
    /// Walks the sorted active set, not every stored record: the
    /// adaptive feedback loop reads this per evaluation, and must stay
    /// O(active flows). Ascending-slot (= ascending-id) iteration keeps
    /// the summation order (hence the float result) bit-identical to a
    /// full scan.
    pub fn resource_load(&self, r: ResourceId) -> f64 {
        self.active
            .iter()
            .map(|&s| s as usize)
            .filter(|&i| self.path_of(i).contains(&r))
            .map(|i| self.flows[i].rate)
            .sum()
    }

    /// Effective capacity of a resource at the current active-flow depth.
    /// O(active flows), like [`resource_load`](Self::resource_load).
    pub fn effective_capacity(&self, r: ResourceId) -> f64 {
        let q: f64 = self
            .active
            .iter()
            .map(|&s| s as usize)
            .filter(|&i| self.path_of(i).contains(&r))
            .map(|i| self.flows[i].depth_weight)
            .sum();
        let res = &self.resources[r.index()];
        res.model.capacity_at_depth(q) * res.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(c: f64) -> CapacityModel {
        CapacityModel::Fixed(c)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let f = net.add_flow(vec![r], 1000.0, 0);
        net.activate(f);
        net.recompute_rates();
        assert_eq!(net.rate(f), 100.0);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let f1 = net.add_flow(vec![r], 1000.0, 0);
        let f2 = net.add_flow(vec![r], 1000.0, 1);
        net.activate(f1);
        net.activate(f2);
        net.recompute_rates();
        assert_eq!(net.rate(f1), 50.0);
        assert_eq!(net.rate(f2), 50.0);
    }

    #[test]
    fn flow_limited_by_min_resource_on_path() {
        let mut net = FlowNetwork::new();
        let fast = net.add_resource("fast", fixed(1000.0));
        let slow = net.add_resource("slow", fixed(10.0));
        let f = net.add_flow(vec![fast, slow], 1.0, 0);
        net.activate(f);
        net.recompute_rates();
        assert_eq!(net.rate(f), 10.0);
    }

    #[test]
    fn classic_maxmin_textbook_example() {
        // Two resources: A (cap 10), B (cap 5). Flow 1 crosses A only,
        // flow 2 crosses A and B, flow 3 crosses B only.
        // Max-min: B's fair share is 2.5 -> flows 2,3 get 2.5;
        // then flow 1 gets the rest of A: 10 - 2.5 = 7.5.
        let mut net = FlowNetwork::new();
        let a = net.add_resource("A", fixed(10.0));
        let b = net.add_resource("B", fixed(5.0));
        let f1 = net.add_flow(vec![a], 1.0, 0);
        let f2 = net.add_flow(vec![a, b], 1.0, 1);
        let f3 = net.add_flow(vec![b], 1.0, 2);
        for f in [f1, f2, f3] {
            net.activate(f);
        }
        net.recompute_rates();
        assert!((net.rate(f2) - 2.5).abs() < 1e-9);
        assert!((net.rate(f3) - 2.5).abs() < 1e-9);
        assert!((net.rate(f1) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn feasibility_on_every_resource() {
        let mut net = FlowNetwork::new();
        let r1 = net.add_resource("r1", fixed(7.0));
        let r2 = net.add_resource("r2", fixed(3.0));
        let r3 = net.add_resource("r3", fixed(11.0));
        let flows = vec![
            net.add_flow(vec![r1, r2], 1.0, 0),
            net.add_flow(vec![r2, r3], 1.0, 1),
            net.add_flow(vec![r1, r3], 1.0, 2),
            net.add_flow(vec![r1], 1.0, 3),
        ];
        for f in &flows {
            net.activate(*f);
        }
        net.recompute_rates();
        for r in [r1, r2, r3] {
            assert!(
                net.resource_load(r) <= net.effective_capacity(r) + 1e-9,
                "resource {} overloaded",
                net.label(r)
            );
        }
    }

    #[test]
    fn saturating_capacity_grows_with_concurrency() {
        let model = CapacityModel::Saturating {
            peak: 100.0,
            q_half: 4.0,
        };
        assert_eq!(model.capacity_at_depth(0.0), 0.0);
        assert_eq!(model.capacity_at_depth(4.0), 50.0);
        assert!((model.capacity_at_depth(12.0) - 75.0).abs() < 1e-12);
        // Monotone non-decreasing in q.
        let caps: Vec<f64> = (0..64).map(|q| model.capacity_at_depth(q as f64)).collect();
        assert!(caps.windows(2).all(|w| w[0] <= w[1]));
        assert!(caps.iter().all(|&c| c <= 100.0));
    }

    #[test]
    fn saturating_device_shared_by_flows() {
        let mut net = FlowNetwork::new();
        let d = net.add_resource(
            "ost",
            CapacityModel::Saturating {
                peak: 100.0,
                q_half: 2.0,
            },
        );
        // 2 flows: capacity 100*2/4 = 50, shared -> 25 each.
        let f1 = net.add_flow(vec![d], 1.0, 0);
        let f2 = net.add_flow(vec![d], 1.0, 1);
        net.activate(f1);
        net.activate(f2);
        net.recompute_rates();
        assert!((net.rate(f1) - 25.0).abs() < 1e-9);
        assert!((net.rate(f2) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn speed_factor_scales_capacity() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        net.set_factor(r, 0.5);
        let f = net.add_flow(vec![r], 1.0, 0);
        net.activate(f);
        net.recompute_rates();
        assert_eq!(net.rate(f), 50.0);
        assert_eq!(net.factor(r), 0.5);
    }

    #[test]
    fn zero_capacity_resource_stalls_flows() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("dead", fixed(0.0));
        let f = net.add_flow(vec![r], 1.0, 0);
        net.activate(f);
        net.recompute_rates();
        assert_eq!(net.rate(f), 0.0);
    }

    #[test]
    fn inactive_flows_do_not_consume_capacity() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let f1 = net.add_flow(vec![r], 1.0, 0);
        let _f2 = net.add_flow(vec![r], 1.0, 1); // never activated
        net.activate(f1);
        net.recompute_rates();
        assert_eq!(net.rate(f1), 100.0);
    }

    #[test]
    fn drain_reduces_remaining_and_clamps_at_zero() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(10.0));
        let f = net.add_flow(vec![r], 25.0, 0);
        net.activate(f);
        net.recompute_rates();
        net.drain(2.0);
        assert!((net.remaining(f) - 5.0).abs() < 1e-9);
        net.drain(2.0);
        assert_eq!(net.remaining(f), 0.0);
    }

    #[test]
    #[should_panic(expected = "must not repeat")]
    fn repeated_resource_in_path_rejected() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(10.0));
        let _ = net.add_flow(vec![r, r], 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_path_rejected() {
        let mut net = FlowNetwork::new();
        let _ = net.add_flow(vec![], 1.0, 0);
    }

    #[test]
    fn disjoint_components_solve_independently() {
        // Two disjoint link+target pairs. Events in one component must
        // not re-solve the other: the flows-solved counter tells us
        // exactly how many flows each solve touched.
        let mut net = FlowNetwork::new();
        let la = net.add_resource("linkA", fixed(100.0));
        let ta = net.add_resource("ostA", fixed(80.0));
        let lb = net.add_resource("linkB", fixed(100.0));
        let tb = net.add_resource("ostB", fixed(90.0));
        let a1 = net.add_flow(vec![la, ta], 1.0, 0);
        let a2 = net.add_flow(vec![la, ta], 1.0, 1);
        let b1 = net.add_flow(vec![lb, tb], 1.0, 2);
        for f in [a1, a2, b1] {
            net.activate(f);
        }
        net.recompute_rates();
        assert_eq!(net.solve_count(), 1);
        assert_eq!(net.flows_solved(), 3, "first solve covers both components");
        let rate_b = net.rate(b1);

        // A factor change confined to component A re-solves A's two
        // flows only, and leaves B's rate bit-identical (untouched).
        net.set_factor(ta, 0.5);
        net.recompute_rates();
        assert_eq!(net.solve_count(), 2);
        assert_eq!(net.flows_solved(), 5, "dirty solve covers component A only");
        assert_eq!(net.rate(b1).to_bits(), rate_b.to_bits());
        assert_eq!(net.rate(a1), 20.0);

        // A departure in component A again leaves B alone.
        net.deactivate(a2);
        net.recompute_rates();
        assert_eq!(
            net.flows_solved(),
            6,
            "departure re-solves the one survivor"
        );
        assert_eq!(net.rate(a1), 40.0);
        assert_eq!(net.rate(b1).to_bits(), rate_b.to_bits());

        // An event in B now re-solves only B.
        net.deactivate(b1);
        net.recompute_rates();
        assert_eq!(net.flows_solved(), 6, "empty component skips the solve");
        assert_eq!(net.rate(a1), 40.0);
    }

    #[test]
    fn sharded_matches_reference_across_merge_and_split() {
        // A bridging flow merges two components; its departure splits
        // them again. Rates must stay bit-identical to the reference
        // solver at every step.
        let build = || {
            let mut net = FlowNetwork::new();
            let la = net.add_resource(
                "linkA",
                CapacityModel::Saturating {
                    peak: 100.0,
                    q_half: 1.5,
                },
            );
            let ta = net.add_resource("ostA", fixed(80.0));
            let lb = net.add_resource("linkB", fixed(60.0));
            let tb = net.add_resource(
                "ostB",
                CapacityModel::Saturating {
                    peak: 90.0,
                    q_half: 2.0,
                },
            );
            let ids = [
                net.add_flow(vec![la, ta], 1.0, 0),
                net.add_flow_weighted(vec![lb, tb], 1.0, 1, 0.5),
                net.add_flow(vec![ta, tb], 1.0, 2), // the bridge
                net.add_flow(vec![lb], 1.0, 3),
            ];
            (net, ids)
        };
        let (mut sharded, ids) = build();
        let (mut reference, _) = build();
        let script: &[(usize, bool)] = &[
            (0, true),
            (1, true),
            (2, true), // merge
            (3, true),
            (2, false), // split
            (0, false),
            (2, true),
        ];
        for &(k, on) in script {
            for net in [&mut sharded, &mut reference] {
                if on {
                    net.activate(ids[k]);
                } else {
                    net.deactivate(ids[k]);
                }
            }
            sharded.recompute_rates();
            reference.reference_recompute_rates();
            for &f in &ids {
                assert_eq!(
                    sharded.rate(f).to_bits(),
                    reference.rate(f).to_bits(),
                    "rates diverged for flow {f:?}"
                );
            }
        }
    }

    #[test]
    fn unequal_paths_give_longer_path_no_advantage() {
        // Both flows cross the shared bottleneck; one also crosses a fast
        // private link. Rates must be equal (max-min ignores path length).
        let mut net = FlowNetwork::new();
        let shared = net.add_resource("shared", fixed(10.0));
        let private = net.add_resource("private", fixed(1000.0));
        let f1 = net.add_flow(vec![shared], 1.0, 0);
        let f2 = net.add_flow(vec![private, shared], 1.0, 1);
        net.activate(f1);
        net.activate(f2);
        net.recompute_rates();
        assert!((net.rate(f1) - net.rate(f2)).abs() < 1e-9);
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;

    #[test]
    fn depth_weights_sum_on_saturating_resources() {
        let mut net = FlowNetwork::new();
        let d = net.add_resource(
            "ost",
            CapacityModel::Saturating {
                peak: 100.0,
                q_half: 2.0,
            },
        );
        // Two flows of weight 0.5 each: depth 1.0 -> capacity 100/3.
        let f1 = net.add_flow_weighted(vec![d], 1.0, 0, 0.5);
        let f2 = net.add_flow_weighted(vec![d], 1.0, 1, 0.5);
        net.activate(f1);
        net.activate(f2);
        net.recompute_rates();
        let total = net.rate(f1) + net.rate(f2);
        assert!((total - 100.0 / 3.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn weights_do_not_change_fixed_resources() {
        let mut net = FlowNetwork::new();
        let l = net.add_resource("link", CapacityModel::Fixed(100.0));
        let f1 = net.add_flow_weighted(vec![l], 1.0, 0, 0.25);
        let f2 = net.add_flow_weighted(vec![l], 1.0, 1, 4.0);
        net.activate(f1);
        net.activate(f2);
        net.recompute_rates();
        // Fixed capacity is shared per-flow (max-min), not per-weight.
        assert!((net.rate(f1) - 50.0).abs() < 1e-9);
        assert!((net.rate(f2) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn higher_total_weight_higher_device_throughput() {
        let device = CapacityModel::Saturating {
            peak: 1000.0,
            q_half: 8.0,
        };
        let mut previous = 0.0;
        for &w in &[0.5, 1.0, 2.0, 8.0, 32.0] {
            let mut net = FlowNetwork::new();
            let d = net.add_resource("ost", device);
            let f = net.add_flow_weighted(vec![d], 1.0, 0, w);
            net.activate(f);
            net.recompute_rates();
            assert!(net.rate(f) > previous, "throughput must grow with depth");
            previous = net.rate(f);
        }
        assert!(previous < 1000.0);
    }

    #[test]
    #[should_panic(expected = "invalid depth weight")]
    fn zero_weight_rejected() {
        let mut net = FlowNetwork::new();
        let l = net.add_resource("link", CapacityModel::Fixed(100.0));
        let _ = net.add_flow_weighted(vec![l], 1.0, 0, 0.0);
    }
}

#[cfg(test)]
mod retirement_tests {
    use super::*;

    fn link(net: &mut FlowNetwork, c: f64) -> ResourceId {
        net.add_resource("link", CapacityModel::Fixed(c))
    }

    /// Register, activate and retire `n` one-resource flows.
    fn churn(net: &mut FlowNetwork, r: ResourceId, n: usize) {
        for i in 0..n {
            let f = net.add_flow(vec![r], 1.0, 1000 + i as u64);
            net.activate(f);
            net.retire(net.slot_of(f).unwrap());
        }
    }

    #[test]
    fn retired_ids_read_as_finished_before_and_after_compaction() {
        let mut net = FlowNetwork::new();
        let r = link(&mut net, 100.0);
        let keep = net.add_flow(vec![r], 1000.0, 7);
        let gone = net.add_flow(vec![r], 1000.0, 8);
        net.activate(keep);
        net.activate(gone);
        net.recompute_rates();
        assert_eq!(net.rate(gone), 50.0);

        net.retire(net.slot_of(gone).unwrap());
        net.compact_if_due();
        assert_eq!(
            net.stored_flows(),
            2,
            "one retirement is not worth a compaction"
        );
        assert!(!net.is_active(gone));
        assert_eq!(net.remaining(gone), 0.0);
        assert_eq!(net.rate(gone), 0.0);

        churn(&mut net, r, COMPACT_MIN_RETIRED);
        net.compact_if_due();
        assert_eq!(net.stored_flows(), 1, "every retired record is reclaimed");
        assert_eq!(net.slot_of(gone), None);
        assert!(!net.is_active(gone));
        assert_eq!(net.remaining(gone), 0.0);
        assert_eq!(net.rate(gone), 0.0);
        net.deactivate(gone); // a no-op, like any inactive flow

        // The survivor keeps its id, tag and solver membership.
        assert_eq!(net.tag(keep), 7);
        assert_eq!(net.active_flows().collect::<Vec<_>>(), vec![keep]);
        net.recompute_rates();
        assert_eq!(net.rate(keep), 100.0);
        assert_eq!(net.remaining(keep), 1000.0);
    }

    #[test]
    #[should_panic(expected = "is retired")]
    fn tag_of_a_retired_flow_panics() {
        let mut net = FlowNetwork::new();
        let r = link(&mut net, 100.0);
        let f = net.add_flow(vec![r], 1.0, 3);
        net.activate(f);
        net.retire(net.slot_of(f).unwrap());
        let _ = net.tag(f);
    }

    #[test]
    #[should_panic(expected = "is retired")]
    fn activating_a_retired_flow_panics() {
        let mut net = FlowNetwork::new();
        let r = link(&mut net, 100.0);
        let f = net.add_flow(vec![r], 1.0, 3);
        net.activate(f);
        net.retire(net.slot_of(f).unwrap());
        churn(&mut net, r, COMPACT_MIN_RETIRED);
        net.compact_if_due();
        net.activate(f);
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn an_unregistered_id_panics() {
        let mut net = FlowNetwork::new();
        let r = link(&mut net, 100.0);
        let _ = net.add_flow(vec![r], 1.0, 0);
        let _ = net.is_active(FlowId(1));
    }

    #[test]
    fn registered_counts_only_unretired_flows() {
        let mut net = FlowNetwork::new();
        let a = link(&mut net, 100.0);
        let b = link(&mut net, 100.0);
        let f = net.add_flow(vec![a, b], 1.0, 0);
        let _pending = net.add_flow(vec![b], 1.0, 1);
        assert_eq!(net.registered, vec![1, 2]);
        net.activate(f);
        net.retire(net.slot_of(f).unwrap());
        assert_eq!(net.registered, vec![0, 1]);
    }

    /// Compaction in the middle of a session — retired records before,
    /// between and after live ones, active flows on shared resources —
    /// leaves every later solve bit-identical to a twin network whose
    /// flows are only deactivated, never retired.
    #[test]
    fn compaction_keeps_rates_bit_identical_to_an_uncompacted_twin() {
        let mut compacted = FlowNetwork::new();
        let res: Vec<ResourceId> = (0..5)
            .map(|i| {
                let model = if i % 2 == 0 {
                    CapacityModel::Fixed(50.0 + 17.0 * i as f64)
                } else {
                    CapacityModel::Saturating {
                        peak: 300.0,
                        q_half: 1.5,
                    }
                };
                compacted.add_resource(format!("r{i}"), model)
            })
            .collect();
        let mut twin = compacted.clone();
        let mut ids = Vec::new();
        let mut compactions = 0;
        for step in 0..3000usize {
            let path = vec![res[step % 5], res[(step * 3 + 1) % 5]];
            let path = if path[0] == path[1] {
                vec![path[0]]
            } else {
                path
            };
            let w = 0.5 + (step % 3) as f64;
            let bytes = 10.0 + step as f64;
            let f = compacted.add_flow_weighted(path.clone(), bytes, step as u64, w);
            assert_eq!(f, twin.add_flow_weighted(path, bytes, step as u64, w));
            ids.push(f);
            compacted.activate(f);
            twin.activate(f);
            // Long-lived flows (every 61st) stay; the rest retire a few
            // steps after they start, neighbours in swapped order.
            if step >= 4 {
                let old = ids[if step % 2 == 0 { step - 2 } else { step - 4 }];
                if old.index() % 61 != 0 {
                    let stored = compacted.stored_flows();
                    compacted.retire(compacted.slot_of(old).unwrap());
                    compacted.compact_if_due();
                    if compacted.stored_flows() < stored {
                        compactions += 1;
                    }
                    twin.deactivate(old);
                }
            }
            if step % 5 == 0 {
                let r = res[step % 5];
                let factor = 0.25 + (step % 4) as f64 * 0.3;
                compacted.set_factor(r, factor);
                twin.set_factor(r, factor);
            }
            compacted.recompute_rates();
            twin.recompute_rates();
            assert!(compacted.active_flows().eq(twin.active_flows()));
            // Every id, retired ones included, now and then; the
            // active ones after every step.
            let check: Vec<FlowId> = if step % 97 == 0 {
                ids.clone()
            } else {
                twin.active_flows().collect()
            };
            for f in check {
                assert_eq!(
                    compacted.rate(f).to_bits(),
                    twin.rate(f).to_bits(),
                    "step {step}: flow {f:?} diverged"
                );
                assert_eq!(compacted.is_active(f), twin.is_active(f));
            }
        }
        assert!(compactions >= 2, "only {compactions} compactions ran");
        assert!(compacted.stored_flows() < 2 * compacted.active.len() + COMPACT_MIN_RETIRED);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    #[test]
    fn drain_accumulates_bytes_and_busy_time() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let idle = net.add_resource("idle", CapacityModel::Fixed(100.0));
        let f = net.add_flow(vec![r], 1000.0, 0);
        net.activate(f);
        net.recompute_rates();
        net.drain(2.0);
        assert!((net.bytes_through(r) - 200.0).abs() < 1e-9);
        assert_eq!(net.busy_secs(r), 2.0);
        assert!((net.mean_busy_throughput(r) - 100.0).abs() < 1e-9);
        assert_eq!(net.bytes_through(idle), 0.0);
        assert_eq!(net.busy_secs(idle), 0.0);
        assert_eq!(net.mean_busy_throughput(idle), 0.0);
    }

    #[test]
    fn shared_resource_counts_all_flows_bytes() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        for i in 0..2 {
            let f = net.add_flow(vec![r], 1000.0, i);
            net.activate(f);
        }
        net.recompute_rates();
        net.drain(1.0);
        // Both flows at 50 B/s each: 100 bytes total crossed the link.
        assert!((net.bytes_through(r) - 100.0).abs() < 1e-9);
        assert_eq!(net.busy_secs(r), 1.0);
    }
}
