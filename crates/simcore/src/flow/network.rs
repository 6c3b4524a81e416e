//! Resources, flows, and the max–min fair rate solver.

use crate::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Identifies a resource within one [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub(crate) u32);

/// Identifies a flow record within one [`FlowNetwork`]: its registration
/// number. A record stands for one flow, or for several identical ones
/// registered together (see [`super::FluidSim::start_flows_at`]). Ids
/// are handed out 0, 1, 2, … in registration order and are never
/// reused, so an id stays meaningful (in completions, traces and
/// caller-side maps) after the network has reclaimed the record's
/// storage.
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
    /// End of this resource's label in [`FlowNetwork::labels`]; it
    /// starts where the previous resource's label ends.
    label_end: u32,
}

/// One flow record: `count` identical flows (same path, bytes, depth
/// weight, tag and start instant) that the solver, the drain and the
/// completion scan treat as one. Every per-flow quantity counts the
/// record's flows, so a record of `n` flows solves, drains and finishes
/// exactly as `n` such flows registered one after another would.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// This record's path lives in `FlowNetwork::path_arena` at
    /// `[path_off, path_off + path_len)`.
    /// Arena storage instead of per-flow vectors: a session-long
    /// simulation registers millions of flows, and two heap blocks per
    /// flow (allocated at admission, freed at retirement) dominated the
    /// profile before rates or events cost anything. Compaction moves
    /// a record's range down and rewrites `path_off`; ranges stay in
    /// slot order.
    path_off: u32,
    path_len: u16,
    /// The public id (registration number) of the record in this slot.
    id: FlowId,
    /// How many identical flows the record stands for (at least one).
    count: u32,
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

impl Flow {
    /// The record's path, resolved from the network's path arena.
    #[inline]
    fn path<'a>(&self, arena: &'a [ResourceId]) -> &'a [ResourceId] {
        let off = self.path_off as usize;
        &arena[off..off + self.path_len as usize]
    }
}

/// `dirty_mark` bit: the resource is listed in `dirty`.
const DIRTY: u8 = 1;
/// `dirty_mark` bit: a flow activated on the resource since the last
/// recompute, so no kept component holding it may be reused.
const STARTED: u8 = 2;

/// `KeptComponents::of_res` entry of a resource no kept component holds.
const NOT_KEPT: u32 = u32::MAX;

/// Persistent solver work buffers, reused across [`FlowNetwork`] solves
/// so steady-state rate recomputation performs no heap allocation.
///
/// Every buffer but `kept` holds no state between calls — every solve
/// clears and refills them, or, for `frozen`, moves to a new
/// generation. `kept` is the network's own and is cleared when a network
/// installs recycled buffers, so recycling them across networks (via
/// [`super::SimArena`]) is safe: only their *capacity* carries over.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverScratch {
    /// Per-resource count of not-yet-frozen flows crossing it.
    unfrozen: Vec<u32>,
    /// Per-resource residual capacity during progressive filling.
    cap: Vec<f64>,
    /// Per slot, the generation of the last solve that froze the flow
    /// (len only grows): a flow is frozen in this solve when its stamp
    /// is `generation`, so no pass clears the stamps between solves.
    frozen: Vec<u32>,
    /// The current solve's stamp in `frozen`.
    generation: u32,
    /// The live incidence entries of one resource, sorted when its depth
    /// sum needs ascending slot order (see `FlowNetwork::live_depth`).
    live_slots: Vec<u32>,
    /// Worklist of resource indices for the dirty-component walk.
    stack: Vec<u32>,
    /// Slots of the flows the walk collected, in walk order.
    comp_flows: Vec<u32>,
    /// Resources collected into the dirty components, in walk order.
    comp_res: Vec<u32>,
    /// Membership marker for `comp_res` (len only grows; all-false
    /// between solves — cleared by walking `comp_res`, never O(n)).
    res_seen: Vec<bool>,
    /// Membership marker for `comp_flows` (same discipline).
    flow_seen: Vec<bool>,
    /// Flow count of each component collected by the last sharded
    /// recompute (empty after a skip), for the introspection histograms.
    comp_sizes: Vec<u32>,
    /// Resource count of each component the last walk collected: each
    /// component's resources are one run of `comp_res`, in walk order.
    comp_res_counts: Vec<u32>,
    /// The components earlier walks collected, reused by later solves.
    kept: KeptComponents,
}

/// The components earlier dirty-component walks collected, kept as runs
/// of resources so that a solve whose dirty resources all lie in them
/// takes their resources instead of walking again.
///
/// A kept component stays a union of whole components of the active
/// flow/resource graph until a flow activates on one of its resources:
/// a departure only removes members (a resource left without flows
/// stays listed and is filtered out at reuse) and a factor change moves
/// none. An activation marks its path [`STARTED`], so the next solve
/// walks, and [`KeptComponents::keep`] then drops every kept component
/// holding a resource the walk collected. A live component's resources
/// therefore include every resource crossed by an active flow crossing
/// one of them: what `solve_subset` asks of its list.
#[derive(Debug, Clone, Default)]
struct KeptComponents {
    /// Per resource, the index in `comps` of the live component listing
    /// it, or [`NOT_KEPT`]. Every resource a live component lists names
    /// that component here.
    of_res: Vec<u32>,
    /// Each component's run of `res`, in storage order.
    comps: Vec<Kept>,
    /// Every component's resources, back to back.
    res: Vec<u32>,
    /// Entries of `res` outside every live run, reclaimed by `compact`
    /// once they outnumber the rest.
    dead: usize,
    /// The components a reusing solve joins (empty between solves).
    joined: Vec<u32>,
}

/// One kept component: its run `res[at..end]`.
#[derive(Debug, Clone, Copy)]
struct Kept {
    at: u32,
    end: u32,
    live: bool,
}

impl KeptComponents {
    /// Drop every component: after a whole-set solve, or in a network
    /// that installs recycled buffers.
    fn clear(&mut self) {
        for &r in &self.res {
            self.of_res[r as usize] = NOT_KEPT;
        }
        self.comps.clear();
        self.res.clear();
        self.dead = 0;
    }

    /// Drop component `c`, if still live. Its resources that no newer
    /// component has taken leave `of_res`.
    fn drop_comp(&mut self, c: u32) {
        let k = &mut self.comps[c as usize];
        if !k.live {
            return;
        }
        k.live = false;
        self.dead += (k.end - k.at) as usize;
        for &r in &self.res[k.at as usize..k.end as usize] {
            if self.of_res[r as usize] == c {
                self.of_res[r as usize] = NOT_KEPT;
            }
        }
    }

    /// Keep the components a walk just collected, dropping every older
    /// component that shares a resource with them. `res` holds their
    /// resources in walk order, one run of `counts[k]` resources per
    /// component.
    fn keep(&mut self, res: &[u32], counts: &[u32]) {
        if 2 * self.dead > self.res.len() {
            self.compact();
        }
        let mut from = 0usize;
        for &n in counts {
            let c = u32::try_from(self.comps.len()).expect("kept components fit u32");
            let at = self.res.len() as u32;
            for &r in &res[from..from + n as usize] {
                let old = self.of_res[r as usize];
                if old != NOT_KEPT {
                    self.drop_comp(old);
                }
                self.of_res[r as usize] = c;
                self.res.push(r);
            }
            from += n as usize;
            let end = self.res.len() as u32;
            self.comps.push(Kept {
                at,
                end,
                live: true,
            });
        }
    }

    /// Move every live component's run down over the dead entries, in
    /// storage order, renumbering the components and their resources'
    /// `of_res` entries.
    fn compact(&mut self) {
        let (mut len, mut kept) = (0u32, 0usize);
        for c in 0..self.comps.len() {
            let k = self.comps[c];
            if !k.live {
                continue;
            }
            self.res
                .copy_within(k.at as usize..k.end as usize, len as usize);
            let end = len + (k.end - k.at);
            for &r in &self.res[len as usize..end as usize] {
                self.of_res[r as usize] = kept as u32;
            }
            self.comps[kept] = Kept {
                at: len,
                end,
                live: true,
            };
            len = end;
            kept += 1;
        }
        self.comps.truncate(kept);
        self.res.truncate(len as usize);
        self.dead = 0;
    }
}

/// A network's recyclable buffers, carried between networks by
/// [`super::SimArena`]: the solver scratch, the flow records and their
/// path arena, the active list, the loaded list, the dirty set and the
/// per-resource incidence vectors. Only capacity matters; the network
/// that installs them clears and refills every one.
#[derive(Debug, Default)]
pub(crate) struct NetBuffers {
    scratch: SolverScratch,
    flows: Vec<Flow>,
    path_arena: Vec<ResourceId>,
    active: Vec<u32>,
    loaded: Vec<u32>,
    dirty: Vec<u32>,
    incident: Vec<Vec<u32>>,
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
    /// Every resource's label, back to back in resource order (see
    /// [`Resource::label_end`]): one buffer instead of one string per
    /// resource.
    labels: String,
    /// Telemetry, per resource: total bytes that crossed it, accumulated
    /// only while `track_bytes` is set. Dense, so `drain`'s per-path
    /// accumulation touches one `f64` per resource.
    bytes_total: Vec<f64>,
    /// Whether `drain` accumulates `bytes_total` (see
    /// [`FlowNetwork::track_bytes`]).
    track_bytes: bool,
    /// Telemetry, per resource: seconds during which at least one active
    /// flow crossed it.
    busy_secs: Vec<f64>,
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
    /// Slots of active flows, kept sorted ascending. This is the
    /// solver's iteration order, and must match
    /// `flows.iter().filter(active)` so floating-point accumulation
    /// order — and therefore every rate — is bit-identical to the
    /// reference solver. Compaction preserves slot order, so ascending
    /// slot is ascending id.
    active: Vec<u32>,
    /// Active flows: the counts of the records in `active` added up.
    active_flow_count: usize,
    /// Per-resource count of active flows crossing it (each record
    /// counts its flows).
    active_count: Vec<u32>,
    /// The *loaded* resources — those with `active_count > 0` — in no
    /// particular order. `activate_slot` and `unlink_slot` keep it in
    /// step where a count crosses zero, so `drain` charges busy time to
    /// exactly these instead of scanning every resource.
    loaded: Vec<u32>,
    /// Per-resource position inside `loaded` (meaningful only while the
    /// resource is loaded), so a count falling to zero swap-removes in
    /// O(1).
    loaded_pos: Vec<u32>,
    /// Per-resource list of the slots of the flows crossing it, in no
    /// particular order — the incidence index the dirty-component walk,
    /// the solver's freeze rounds and `effective_capacity` read. Every
    /// active flow crossing the resource is listed exactly once. A list
    /// may also hold *dead* entries, retired flows that readers skip by
    /// the flow's `active` flag: retirement leaves its entries where
    /// they are instead of finding them, and a list is purged once it
    /// holds more than twice its resource's active flows (with records
    /// of one flow, once its dead entries outnumber its live ones), or
    /// when an activation finds it full; it grows only when its live
    /// entries fill it. A
    /// resource without active flows therefore has an empty list, and a
    /// list's capacity follows its resource's peak of concurrent flows.
    /// Recycled lists keep their capacity, so a rep loop that replays a
    /// warm arena's load activates without allocating. Entries past the
    /// resource count are spare empty lists kept from a recycled arena
    /// (see `install_recycled`).
    incident: Vec<Vec<u32>>,
    /// Resource indices touched since the last solve (deduplicated).
    dirty: Vec<u32>,
    /// Per resource, [`DIRTY`] while listed in `dirty`, plus [`STARTED`]
    /// once a flow has activated on it since the last recompute.
    dirty_mark: Vec<u8>,
    /// Telemetry: progressive-filling solves performed so far.
    solves: u64,
    /// Telemetry: total flows handed to the solver across all solves.
    flows_solved: u64,
    /// Telemetry: recomputes skipped as identity transformations (no
    /// active flow crossed any dirty resource).
    skips: u64,
    /// Telemetry: solves whose dirty components held a resource that
    /// every active flow crosses, so they were solved as the whole
    /// active set without finishing the walk.
    whole_set_solves: u64,
    /// Telemetry: solves that took kept components' lists instead of
    /// walking the dirty components.
    reused_solves: u64,
    scratch: SolverScratch,
}

impl FlowNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty network with room for `resources` resources whose
    /// labels total at most `label_bytes` bytes, so building a network
    /// of known size allocates each per-resource array once.
    pub fn with_capacity(resources: usize, label_bytes: usize) -> Self {
        FlowNetwork {
            resources: Vec::with_capacity(resources),
            labels: String::with_capacity(label_bytes),
            bytes_total: Vec::with_capacity(resources),
            busy_secs: Vec::with_capacity(resources),
            active_count: Vec::with_capacity(resources),
            loaded_pos: Vec::with_capacity(resources),
            incident: Vec::with_capacity(resources),
            dirty: Vec::with_capacity(resources),
            dirty_mark: Vec::with_capacity(resources),
            ..Self::default()
        }
    }

    /// Add a resource; returns its id. The label is written once into
    /// the network's label buffer, so a `format_args!` label costs no
    /// allocation of its own.
    pub fn add_resource(&mut self, label: impl fmt::Display, model: CapacityModel) -> ResourceId {
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
        write!(self.labels, "{label}").expect("writing to a String cannot fail");
        self.resources.push(Resource {
            model,
            factor: 1.0,
            label_end: u32::try_from(self.labels.len()).expect("labels fit u32"),
        });
        self.bytes_total.push(0.0);
        self.busy_secs.push(0.0);
        self.active_count.push(0);
        self.loaded_pos.push(0);
        if self.incident.len() == id.index() {
            self.incident.push(Vec::new());
        }
        self.dirty_mark.push(0);
        id
    }

    /// Record that `r` changed since the last solve: `bits` is [`DIRTY`],
    /// or `DIRTY | STARTED` for an activation.
    fn mark_dirty(&mut self, r: usize, bits: u8) {
        let was = self.dirty_mark[r];
        self.dirty_mark[r] = was | bits;
        if was == 0 {
            self.dirty.push(r as u32);
        }
    }

    fn clear_dirty(&mut self) {
        for &r in &self.dirty {
            self.dirty_mark[r as usize] = 0;
        }
        self.dirty.clear();
    }

    /// Convenience: a fixed-capacity resource from a [`Bandwidth`].
    pub fn add_link(&mut self, label: impl fmt::Display, bw: Bandwidth) -> ResourceId {
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
        self.mark_dirty(r.index(), DIRTY);
    }

    /// The resource's current speed factor.
    pub fn factor(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].factor
    }

    /// The resource's label.
    pub fn label(&self, r: ResourceId) -> &str {
        let i = r.index();
        let start = match i {
            0 => 0,
            _ => self.resources[i - 1].label_end as usize,
        };
        &self.labels[start..self.resources[i].label_end as usize]
    }

    /// Every resource's label, back to back in resource order: resource
    /// `i`'s label follows the labels of resources `0..i`.
    pub fn labels(&self) -> &str {
        &self.labels
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Register a flow (inactive until activated by the simulator) with
    /// the default depth weight of 1.0. The path is copied into the
    /// network's arena, so any slice-like path works (`Vec`, array,
    /// inline path) and a fixed-size one costs no allocation.
    ///
    /// # Panics
    /// Panics on an empty path, repeated resources in the path, or a
    /// negative/non-finite byte count.
    pub fn add_flow(&mut self, path: impl AsRef<[ResourceId]>, bytes: f64, tag: u64) -> FlowId {
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
        path: impl AsRef<[ResourceId]>,
        bytes: f64,
        tag: u64,
        depth_weight: f64,
    ) -> FlowId {
        self.add_record(path.as_ref(), bytes, tag, depth_weight, 1)
    }

    /// Register one record of `count` identical flows (see [`Flow`]).
    ///
    /// # Panics
    /// As [`FlowNetwork::add_flow_weighted`], plus on a zero count or a
    /// path of more than `u16::MAX` resources.
    pub(crate) fn add_record(
        &mut self,
        path: &[ResourceId],
        bytes: f64,
        tag: u64,
        depth_weight: f64,
        count: u32,
    ) -> FlowId {
        assert!(count > 0, "a flow record holds at least one flow");
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
        for r in path {
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
        let id = FlowId(self.next_id);
        self.next_id = self.next_id.checked_add(1).expect("too many flows");
        let path_off = u32::try_from(self.path_arena.len()).expect("path arena fits u32");
        let path_len = u16::try_from(path.len()).expect("path length fits u16");
        self.path_arena.extend_from_slice(path);
        self.flows.push(Flow {
            path_off,
            path_len,
            id,
            count,
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
        self.flows[i].path(&self.path_arena)
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
        // Flows mostly start in registration order, so a slot past the
        // tail is appended without a search.
        if self.active.last().is_none_or(|&last| last < s) {
            self.active.push(s);
        } else {
            let pos = self
                .active
                .binary_search(&s)
                .expect_err("inactive flow already in active list");
            self.active.insert(pos, s);
        }
        let off = self.flows[i].path_off as usize;
        let len = self.flows[i].path_len as usize;
        let count = self.flows[i].count;
        self.active_flow_count += count as usize;
        for k in 0..len {
            let r = self.path_arena[off + k].index();
            self.active_count[r] += count;
            if self.active_count[r] == count {
                self.loaded_pos[r] = u32::try_from(self.loaded.len()).expect("loaded fits u32");
                self.loaded.push(r as u32);
            }
            self.mark_dirty(r, DIRTY | STARTED);
            let list = &mut self.incident[r];
            if list.len() == list.capacity() {
                // Full: drop the dead entries first, and grow only if the
                // live ones fill the list.
                purge_dead(list, &self.flows);
            }
            list.push(s);
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

    /// [`FlowNetwork::deactivate`] by slot. The flow may be activated
    /// again, so its incidence entries go at once: a dead entry of a
    /// flow that later turns active would list it twice.
    pub(crate) fn deactivate_slot(&mut self, s: u32) {
        if self.remove_active(s) {
            for r in self.flows[s as usize].path(&self.path_arena) {
                purge_dead(&mut self.incident[r.index()], &self.flows);
            }
        }
    }

    /// Unlink the flow in slot `s` (see `unlink_slot`) and drop it from
    /// the sorted `active` list. Returns whether it was active.
    fn remove_active(&mut self, s: u32) -> bool {
        let was_active = self.unlink_slot(s);
        if was_active {
            if let Ok(pos) = self.active.binary_search(&s) {
                self.active.remove(pos);
            }
        }
        was_active
    }

    /// Deactivate the record in slot `s` everywhere but the sorted
    /// `active` list, which the caller prunes: zero its rate and
    /// remaining bytes, and take its flows off its resources' counts.
    /// Its incidence entries turn dead where they are; a list longer
    /// than twice its resource's active flows is purged. That is the
    /// test "dead entries outnumber live ones" when every record holds
    /// one flow; with larger records, whose entries stand for several
    /// flows each, it keeps a list within twice its active flows.
    /// Returns whether the record was active.
    fn unlink_slot(&mut self, s: u32) -> bool {
        let i = s as usize;
        let was_active = self.flows[i].active;
        self.flows[i].active = false;
        self.flows[i].rate = 0.0;
        self.flows[i].remaining = 0.0;
        if !was_active {
            return false;
        }
        let off = self.flows[i].path_off as usize;
        let len = self.flows[i].path_len as usize;
        let count = self.flows[i].count;
        self.active_flow_count -= count as usize;
        for k in 0..len {
            let r = self.path_arena[off + k].index();
            self.active_count[r] -= count;
            if self.active_count[r] == 0 {
                let at = self.loaded_pos[r] as usize;
                self.loaded.swap_remove(at);
                if let Some(&moved) = self.loaded.get(at) {
                    self.loaded_pos[moved as usize] = at as u32;
                }
            }
            self.mark_dirty(r, DIRTY);
            let live = self.active_count[r] as usize;
            let list = &mut self.incident[r];
            if list.len() > 2 * live {
                purge_dead(list, &self.flows);
            }
        }
        true
    }

    /// Deactivate the flow in slot `s` and retire it for good: its record
    /// is reclaimed by a later [`FlowNetwork::compact_if_due`]. Slots
    /// stay valid until that call.
    pub(crate) fn retire(&mut self, s: u32) {
        self.remove_active(s);
        self.mark_retired(s);
    }

    /// [`FlowNetwork::retire`] for a batch of active flows' slots, sorted
    /// ascending and distinct: the per-path work runs flow by flow in
    /// that order, exactly as one `retire` per slot would, and the
    /// sorted `active` list is then pruned in one merge pass instead of
    /// one shifting removal per flow.
    ///
    /// A batch of every active flow (a run's last completions) leaves
    /// no flow on any resource, so it skips the per-path unlinking: each
    /// loaded resource drops its count to zero, empties its incidence
    /// list and turns dirty, as the flow-by-flow path would leave it.
    pub(crate) fn retire_batch(&mut self, slots: &[u32]) {
        debug_assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "batch is not sorted ascending"
        );
        if slots.len() == self.active.len() {
            debug_assert_eq!(slots, &self.active[..], "batch is not the active set");
            for &s in slots {
                let f = &mut self.flows[s as usize];
                f.active = false;
                f.retired = true;
                f.rate = 0.0;
                f.remaining = 0.0;
            }
            self.retired += slots.len();
            self.active_flow_count = 0;
            for k in 0..self.loaded.len() {
                let r = self.loaded[k] as usize;
                self.active_count[r] = 0;
                self.incident[r].clear();
                self.mark_dirty(r, DIRTY);
            }
            self.loaded.clear();
            self.active.clear();
            return;
        }
        for &s in slots {
            self.unlink_slot(s);
            self.mark_retired(s);
        }
        let mut batch = slots.iter().copied().peekable();
        self.active.retain(|&a| {
            while batch.next_if(|&b| b < a).is_some() {}
            batch.next_if_eq(&a).is_none()
        });
    }

    /// Flag the (already inactive) flow in slot `s` retired.
    fn mark_retired(&mut self, s: u32) {
        let i = s as usize;
        debug_assert!(!self.flows[i].retired, "flow retired twice");
        self.flows[i].retired = true;
        self.retired += 1;
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
    /// and its path range move down over the retired ones. The
    /// incidence lists are rebuilt from the active flows' new slots,
    /// which drops every dead entry (only loaded resources have
    /// entries), and `active` is rebuilt in ascending slot order — the
    /// same flows in the same order, so every later solve is
    /// bit-identical. Allocates nothing: each list's capacity covers its
    /// live entries.
    fn compact(&mut self) {
        let mut kept = 0usize;
        let mut arena_len = 0usize;
        self.active.clear();
        for &r in &self.loaded {
            self.incident[r as usize].clear();
        }
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
                self.path_arena[arena_len + k] = r;
                if flow.active {
                    self.incident[r.index()].push(kept as u32);
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
        self.retired = 0;
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

    /// Ids of all currently active flow records, ascending, without
    /// allocating.
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

    /// How many flows the record in slot `s` stands for.
    #[inline]
    pub(crate) fn count_at(&self, s: u32) -> u32 {
        self.flows[s as usize].count
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

    /// Move every active flow forward by `dt_secs` at its current rate
    /// and charge the busy time, and the bytes if they are tracked, to
    /// its resources. `drained`
    /// sees each active flow afterwards, in ascending slot order, as
    /// `(slot, rate, remaining)`, so the caller can collect the flows
    /// that finished in the same pass. Busy time goes to the loaded
    /// resources, exactly those an active flow crosses, so the step
    /// costs the active flows' paths plus the loaded resources, not
    /// every resource of the network.
    pub(crate) fn drain(&mut self, dt_secs: f64, mut drained: impl FnMut(u32, f64, f64)) {
        debug_assert!(dt_secs >= 0.0);
        for &s in &self.active {
            let f = &mut self.flows[s as usize];
            let moved = f.rate * dt_secs;
            f.remaining = (f.remaining - moved).max(0.0);
            drained(s, f.rate, f.remaining);
            if self.track_bytes {
                // Each of a record's flows adds its bytes in turn, as
                // that many single flows in a row would.
                for r in f.path(&self.path_arena) {
                    let total = &mut self.bytes_total[r.index()];
                    *total = add_times(*total, moved, f.count);
                }
            }
        }
        for &r in &self.loaded {
            self.busy_secs[r as usize] += dt_secs;
        }
    }

    /// Account the bytes that cross each resource from now on, so that
    /// [`FlowNetwork::bytes_through`] and
    /// [`FlowNetwork::mean_busy_throughput`] can be read. Off by
    /// default: it costs every drain one add per resource on each active
    /// flow's path, and only a whole-run utilization report reads the
    /// sums. Call it before the first flow drains. Busy time
    /// ([`FlowNetwork::busy_secs`]) is accounted either way.
    pub fn track_bytes(&mut self) {
        self.track_bytes = true;
    }

    /// Telemetry: total bytes that have crossed a resource so far.
    ///
    /// # Panics
    /// Panics unless the network accounts bytes (see
    /// [`FlowNetwork::track_bytes`]).
    pub fn bytes_through(&self, r: ResourceId) -> f64 {
        assert!(
            self.track_bytes,
            "byte accounting is off: call FlowNetwork::track_bytes before the run"
        );
        self.bytes_total[r.index()]
    }

    /// Telemetry: seconds during which the resource carried at least one
    /// active flow.
    pub fn busy_secs(&self, r: ResourceId) -> f64 {
        self.busy_secs[r.index()]
    }

    /// Telemetry: mean throughput while busy, in bytes/second (0 if the
    /// resource never carried traffic).
    ///
    /// # Panics
    /// As [`FlowNetwork::bytes_through`].
    pub fn mean_busy_throughput(&self, r: ResourceId) -> f64 {
        let (bytes, busy) = (self.bytes_through(r), self.busy_secs[r.index()]);
        if busy == 0.0 {
            0.0
        } else {
            bytes / busy
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
            self.skips += 1;
            self.scratch.comp_sizes.clear();
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

    /// Telemetry: total flows handed to the solver across all solves,
    /// each record counting its flows — with sharding, dirty components
    /// only, so disjoint-component workloads grow this far slower than
    /// `solves * active_flows`. A solve that reuses kept components also
    /// counts the flows of any piece that split from a dirty one since
    /// their walk.
    pub fn flows_solved(&self) -> u64 {
        self.flows_solved
    }

    /// Telemetry: recomputes skipped as identity transformations. The
    /// dirty-set hit rate is `skips / (skips + solves)` — how often the
    /// incremental bookkeeping proved a re-solve unnecessary.
    pub fn skip_count(&self) -> u64 {
        self.skips
    }

    /// Telemetry: solves that covered the whole active set because a
    /// resource in the dirty components is crossed by every active flow
    /// (a shared switch, say). Such a solve takes the active and loaded
    /// lists as they are, without finishing the dirty-component walk;
    /// each one also counts in [`FlowNetwork::solve_count`].
    pub fn whole_set_solve_count(&self) -> u64 {
        self.whole_set_solves
    }

    /// Telemetry: solves that reused the lists of components an earlier
    /// walk collected, because every dirty resource carrying flows lay
    /// in one and no flow had activated on it since (see
    /// `solve_sharded`); each one also counts in
    /// [`FlowNetwork::solve_count`].
    pub fn reused_solve_count(&self) -> u64 {
        self.reused_solves
    }

    /// Flow count of each connected component collected by the last
    /// [`FlowNetwork::recompute_rates`] (each record counting its
    /// flows): one entry per re-solved component, empty after a skipped
    /// recompute. A solve that reused kept components reports them as
    /// one entry, which may cover pieces that have split apart since
    /// their walk. Feeds the component-size/count introspection
    /// histograms.
    pub fn last_component_sizes(&self) -> &[u32] {
        &self.scratch.comp_sizes
    }

    /// Re-solve only the connected components touched by the dirty set.
    ///
    /// Collects the union of the dirty components — the components of
    /// the active flow/resource graph holding a dirty resource that
    /// still carries flows — and runs one restricted solve over its
    /// resources. This is *exact*, not an approximation:
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
    ///   of every other component, and solving any union of whole
    ///   components in isolation assigns the same shares in the same
    ///   floating-point operation order as the full solve: each depth
    ///   sum adds its flows' weights in ascending slot order, the
    ///   reference's iteration order, and the bottleneck search breaks
    ///   ties by resource index whatever the list order. A clean
    ///   component in the union gets back the rates it has.
    ///
    /// The union's resources come one of three ways:
    ///
    /// * *Reused.* When every dirty resource carrying flows lies in a
    ///   component an earlier walk kept, and no flow has activated on
    ///   one of them since, the solve joins those components' resources
    ///   instead of walking (see [`KeptComponents`]). They form a union
    ///   of whole components covering the dirty ones, pieces that split
    ///   apart since their walk included.
    /// * *Whole set.* When the walk meets a resource that every active
    ///   flow crosses (a shared switch), the dirty components are the
    ///   whole active set over the loaded resources. The solve then
    ///   takes the `loaded` list as it is (see `walk_dirty`), and drops
    ///   every kept component.
    /// * *Walked.* Otherwise the solve takes the walk's resources, and
    ///   each component it collected is kept.
    fn solve_sharded(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let n_res = self.resources.len();
        if scratch.res_seen.len() < n_res {
            scratch.res_seen.resize(n_res, false);
        }
        if scratch.kept.of_res.len() < n_res {
            scratch.kept.of_res.resize(n_res, NOT_KEPT);
        }
        if scratch.flow_seen.len() < self.flows.len() {
            scratch.flow_seen.resize(self.flows.len(), false);
        }
        scratch.comp_flows.clear();
        scratch.comp_res.clear();
        scratch.comp_sizes.clear();
        scratch.comp_res_counts.clear();
        scratch.stack.clear();
        let reused = !scratch.kept.comps.is_empty() && self.kept_cover_dirty(&mut scratch.kept);
        let whole = if reused {
            self.join_kept(&mut scratch);
            false
        } else {
            self.walk_dirty(&mut scratch)
        };
        if whole {
            if cfg!(debug_assertions) {
                // The debug walk ran to the end: it must have collected
                // one component, of exactly the active flows over
                // exactly the loaded resources (the lists hold distinct
                // entries, so equal lengths and full marks suffice).
                assert_eq!(scratch.comp_sizes.len(), 1, "whole set split in two");
                assert!(
                    scratch.comp_flows.len() == self.active.len()
                        && self.active.iter().all(|&s| scratch.flow_seen[s as usize]),
                    "whole-set walk did not collect the active list"
                );
                assert!(
                    scratch.comp_res.len() == self.loaded.len()
                        && self.loaded.iter().all(|&r| scratch.res_seen[r as usize]),
                    "whole-set walk did not collect the loaded set"
                );
            }
            scratch.comp_sizes.clear();
            scratch
                .comp_sizes
                .push(u32::try_from(self.active_flow_count).expect("component size fits u32"));
            if !scratch.kept.comps.is_empty() {
                scratch.kept.clear();
            }
        }
        self.clear_dirty();
        if whole {
            self.whole_set_solves += 1;
            let loaded = std::mem::take(&mut self.loaded);
            self.solve_subset(&loaded, &mut scratch);
            self.loaded = loaded;
        } else {
            let comp_res = std::mem::take(&mut scratch.comp_res);
            let solved = self.solve_subset(&comp_res, &mut scratch);
            if reused {
                self.reused_solves += 1;
                scratch.comp_sizes.push(solved);
            } else {
                scratch.kept.keep(&comp_res, &scratch.comp_res_counts);
            }
            scratch.comp_res = comp_res;
        }
        // Clear membership marks by walking only what was collected, so
        // steady-state cost stays proportional to the dirty components.
        // A release build sets none on a reused solve.
        if !reused || cfg!(debug_assertions) {
            for &f in &scratch.comp_flows {
                scratch.flow_seen[f as usize] = false;
            }
            for &r in &scratch.comp_res {
                scratch.res_seen[r as usize] = false;
            }
        }
        self.scratch = scratch;
    }

    /// Whether every dirty resource still carrying flows lies in a kept
    /// component, and none has had a flow activate on it since the last
    /// recompute. If so, `kept.joined` names those components once each.
    fn kept_cover_dirty(&self, kept: &mut KeptComponents) -> bool {
        for &r in &self.dirty {
            let ri = r as usize;
            if self.active_count[ri] == 0 {
                continue;
            }
            let c = kept.of_res[ri];
            if c == NOT_KEPT || self.dirty_mark[ri] & STARTED != 0 {
                kept.joined.clear();
                return false;
            }
            if !kept.joined.contains(&c) {
                kept.joined.push(c);
            }
        }
        true
    }

    /// Fill `comp_res` with the loaded resources of the components in
    /// `kept.joined`. Unloaded resources leave the kept runs for good: a
    /// flow that activates on one marks its path [`STARTED`]. The caller
    /// reports the joined components as one, of the flows it solves.
    ///
    /// A debug build first walks the dirty components as an unreused
    /// solve would (leaving their flows in `comp_flows` for the caller
    /// to unmark) and checks that every resource it collects is listed,
    /// then marks every listed resource in `res_seen` for the freeze
    /// loop's check; the caller clears the marks.
    fn join_kept(&self, scratch: &mut SolverScratch) {
        let walked = if cfg!(debug_assertions) {
            self.walk_dirty(scratch);
            let walked = scratch.comp_res.len();
            scratch.comp_res.clear();
            scratch.comp_sizes.clear();
            scratch.comp_res_counts.clear();
            walked
        } else {
            0
        };
        let kept = &mut scratch.kept;
        for &c in &kept.joined {
            let k = &mut kept.comps[c as usize];
            debug_assert!(k.live, "a dropped component is still mapped");
            let end = k.end;
            k.end = k.at;
            for i in k.at..end {
                let r = kept.res[i as usize];
                if self.active_count[r as usize] > 0 {
                    kept.res[k.end as usize] = r;
                    k.end += 1;
                    scratch.comp_res.push(r);
                } else {
                    kept.of_res[r as usize] = NOT_KEPT;
                }
            }
            kept.dead += (end - k.end) as usize;
        }
        kept.joined.clear();
        if cfg!(debug_assertions) {
            let res_seen = &mut scratch.res_seen;
            assert_eq!(
                scratch
                    .comp_res
                    .iter()
                    .filter(|&&r| res_seen[r as usize])
                    .count(),
                walked,
                "a walked resource is missing from the reused components"
            );
            for &r in &scratch.comp_res {
                res_seen[r as usize] = true;
            }
        }
    }

    /// Collect the dirty components into `scratch` — their flows, their
    /// resources, and each one's flow count (`comp_sizes`) and resource
    /// count (`comp_res_counts`) — marking what it collects in
    /// `res_seen` and `flow_seen`. One BFS per not-yet-absorbed dirty
    /// root, so the walk also counts the components and lists each
    /// one's resources as one run; the union collected is identical to
    /// a single walk seeded with every root at once. Only a solve that
    /// cannot reuse kept components walks (see `solve_sharded`).
    ///
    /// Returns whether the walk met a resource, dirty root or
    /// discovered, whose active count is the number of active flows
    /// (both count flows, not records).
    /// Every active flow then lies in one component, so the dirty
    /// components are the whole active set and the caller needs nothing
    /// more from the walk. A release build returns there, its partial
    /// lists naming exactly the marks it set. A debug build walks on to
    /// the end, so the caller can check that claim against the active
    /// and loaded lists, and the freeze loop can check its marks.
    fn walk_dirty(&self, scratch: &mut SolverScratch) -> bool {
        let n_active = self.active_flow_count;
        let spans = |r: usize| self.active_count[r] as usize == n_active;
        let mut whole = false;
        for &root in &self.dirty {
            let ri = root as usize;
            if self.active_count[ri] == 0 || scratch.res_seen[ri] {
                continue;
            }
            if spans(ri) {
                whole = true;
                if !cfg!(debug_assertions) {
                    return true;
                }
            }
            let (mut flows, res_before) = (0usize, scratch.comp_res.len());
            scratch.res_seen[ri] = true;
            scratch.comp_res.push(root);
            scratch.stack.push(root);
            while let Some(r) = scratch.stack.pop() {
                for &f in &self.incident[r as usize] {
                    if scratch.flow_seen[f as usize] || !self.flows[f as usize].active {
                        continue;
                    }
                    scratch.flow_seen[f as usize] = true;
                    scratch.comp_flows.push(f);
                    flows += self.flows[f as usize].count as usize;
                    for pr in self.path_of(f as usize) {
                        let pri = pr.index();
                        if !scratch.res_seen[pri] {
                            scratch.res_seen[pri] = true;
                            scratch.comp_res.push(pr.0);
                            scratch.stack.push(pr.0);
                            if spans(pri) {
                                whole = true;
                                if !cfg!(debug_assertions) {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
            let count = |n: usize| u32::try_from(n).expect("component size fits u32");
            scratch.comp_sizes.push(count(flows));
            scratch
                .comp_res_counts
                .push(count(scratch.comp_res.len() - res_before));
        }
        whole
    }

    /// Progressive filling over `resources` — the solve behind
    /// [`FlowNetwork::recompute_rates`]. Returns the number of flows it
    /// solved: every active flow crossing a listed resource, each record
    /// counting its flows.
    ///
    /// Requirement (upheld by the callers): `resources` lists, in any
    /// order, a union of whole components — every resource on the path
    /// of an active flow crossing a listed resource is listed. So a
    /// listed resource's unfrozen count starts at its `active_count`,
    /// and a freeze round's flows are the live, unfrozen entries of the
    /// bottleneck's incidence list. In debug builds every listed
    /// resource is also marked in `scratch.res_seen`, which the freeze
    /// loop checks. Loop structure and per-resource floating-point
    /// operation order mirror [`FlowNetwork::reference_recompute_rates`]
    /// exactly: each depth sum adds its flows' weights in ascending slot
    /// order (see `live_depth`), every flow frozen in a round subtracts
    /// the same share, and the bottleneck search breaks ties by resource
    /// index. Per-resource scratch entries are initialized for listed
    /// resources only; stale entries for unlisted resources are never
    /// read.
    fn solve_subset(&mut self, resources: &[u32], scratch: &mut SolverScratch) -> u32 {
        let n_res = self.resources.len();
        if scratch.cap.len() < n_res {
            scratch.unfrozen.resize(n_res, 0);
            scratch.cap.resize(n_res, 0.0);
        }
        if scratch.frozen.len() < self.flows.len() {
            scratch.frozen.resize(self.flows.len(), 0);
        }
        scratch.generation = scratch.generation.wrapping_add(1);
        if scratch.generation == 0 {
            scratch.frozen.fill(0);
            scratch.generation = 1;
        }
        let generation = scratch.generation;
        // Capacities and counts from per-resource state. Depth is summed
        // afresh each solve (never maintained incrementally): floating-
        // point += / -= round differently than a fresh sum, and rates
        // must stay bit-identical to the reference solver. Every flow
        // crossing a listed resource is solved, so the incidences left
        // to freeze start at the summed counts.
        let mut unfrozen_entries = 0usize;
        for &r in resources {
            let ri = r as usize;
            scratch.cap[ri] = self.live_capacity(ri, &mut scratch.live_slots);
            scratch.unfrozen[ri] = self.active_count[ri];
            unfrozen_entries += self.active_count[ri] as usize;
        }
        let mut solved = 0u32;
        while unfrozen_entries > 0 {
            let Some((bottleneck, share)) =
                find_bottleneck(resources, &scratch.cap, &scratch.unfrozen)
            else {
                unreachable!("unfrozen flows with no carrying resource");
            };

            // Freeze every unfrozen flow crossing the bottleneck: the
            // live, unfrozen entries of its incidence list. Incidence
            // order differs from the reference's ascending scan, which
            // is exact: every flow frozen this round subtracts the same
            // `share` from each resource it crosses, so each resource
            // sees the same operations, and a record's flows subtract it
            // one after another, as that many single flows would.
            let mut froze_any = false;
            for &s in &self.incident[bottleneck] {
                let i = s as usize;
                if scratch.frozen[i] == generation || !self.flows[i].active {
                    continue;
                }
                scratch.frozen[i] = generation;
                froze_any = true;
                let count = self.flows[i].count;
                solved += count;
                self.flows[i].rate = share;
                let off = self.flows[i].path_off as usize;
                let len = self.flows[i].path_len as usize;
                unfrozen_entries -= len * count as usize;
                for k in 0..len {
                    let r = self.path_arena[off + k].index();
                    debug_assert!(
                        scratch.res_seen[r],
                        "a frozen flow crosses an unlisted resource"
                    );
                    scratch.cap[r] = add_times(scratch.cap[r], -share, count);
                    scratch.unfrozen[r] -= count;
                }
            }
            // A count above the listed flows would pick this bottleneck
            // again forever: fail instead, in every build.
            assert!(froze_any, "progressive filling made no progress");
        }
        self.solves += 1;
        self.flows_solved += u64::from(solved);
        solved
    }

    /// The pre-incremental solver, kept as the executable
    /// specification: a full progressive-filling solve that allocates its
    /// work buffers fresh and scans every stored flow record (retired
    /// records awaiting compaction are inactive and filtered out, like
    /// any other inactive flow). The property and differential suites
    /// (`tests/solver_properties.rs`, `collection_differential.rs`)
    /// compare [`FlowNetwork::recompute_rates`] against this on
    /// randomized networks and event sequences, and every solve of a
    /// driven [`super::FluidSim`] against this on a clone of its
    /// network; it is compiled unconditionally so integration tests
    /// outside this crate can call it.
    ///
    /// Does not consult or clear the dirty set.
    pub fn reference_recompute_rates(&mut self) {
        let n_res = self.resources.len();
        let mut depth: Vec<f64> = vec![0.0; n_res];
        let mut unfrozen: Vec<u32> = vec![0; n_res];
        let mut n_unfrozen = 0usize;
        // A record of `count` flows is that many flows in a row: each
        // resource on its path takes its term `count` times running.
        for flow in self.flows.iter().filter(|f| f.active) {
            n_unfrozen += flow.count as usize;
            for r in flow.path(&self.path_arena) {
                depth[r.index()] = add_times(depth[r.index()], flow.depth_weight, flow.count);
                unfrozen[r.index()] += flow.count;
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
                    self.flows[i].rate = share;
                    let count = self.flows[i].count;
                    n_unfrozen -= count as usize;
                    for r in self.path_of(i) {
                        cap[r.index()] = add_times(cap[r.index()], -share, count);
                        unfrozen[r.index()] -= count;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
        }
    }

    /// Fill `out` (one entry per resource) with the aggregate
    /// active-flow rate through each resource: the bulk form of
    /// [`FlowNetwork::resource_load`], which the tracing sampler reads
    /// after every recompute. One walk of the active list in ascending
    /// slot order adds each flow's rate to the resources on its path,
    /// so every sum adds the same rates in the same order as
    /// `resource_load` does, a record's once per flow. While every
    /// active record holds one flow, as in the traced runs that call
    /// this, the walk adds each rate once with no count in the loop.
    pub(crate) fn loads_into(&self, out: &mut [f64]) {
        out.fill(0.0);
        let single = self.active_flow_count == self.active.len();
        for &s in &self.active {
            let f = &self.flows[s as usize];
            let path = f.path(&self.path_arena);
            if single {
                for r in path {
                    out[r.index()] += f.rate;
                }
            } else {
                for r in path {
                    let load = &mut out[r.index()];
                    *load = add_times(*load, f.rate, f.count);
                }
            }
        }
    }

    /// Move the recyclable buffers out for reuse by the next network
    /// (see [`super::SimArena`]), which would otherwise re-grow them from
    /// empty in every rep. The network must not be used again after
    /// this.
    pub(crate) fn take_recycled(&mut self) -> NetBuffers {
        fn cleared<T>(v: &mut Vec<T>) -> Vec<T> {
            let mut v = std::mem::take(v);
            v.clear();
            v
        }
        // Only loaded resources have incidence entries (spare lists
        // never do).
        for &r in &self.loaded {
            self.incident[r as usize].clear();
        }
        NetBuffers {
            scratch: std::mem::take(&mut self.scratch),
            flows: cleared(&mut self.flows),
            path_arena: cleared(&mut self.path_arena),
            active: cleared(&mut self.active),
            loaded: cleared(&mut self.loaded),
            dirty: cleared(&mut self.dirty),
            incident: std::mem::take(&mut self.incident),
        }
    }

    /// Install recycled buffers. Only *capacity* carries over: every
    /// buffer is cleared and refilled with this network's current
    /// contents, so behaviour is identical to a fresh network. Recycled
    /// incidence lists past this network's resource count stay as
    /// spares, so networks of alternating sizes keep every list's
    /// capacity instead of dropping and re-growing the larger one's.
    pub(crate) fn install_recycled(&mut self, buffers: NetBuffers) {
        fn refill<T: Copy>(mut v: Vec<T>, current: &[T]) -> Vec<T> {
            v.clear();
            v.extend_from_slice(current);
            v
        }
        let NetBuffers {
            scratch,
            flows,
            path_arena,
            active,
            loaded,
            dirty,
            mut incident,
        } = buffers;
        self.scratch = scratch;
        self.scratch.kept.clear();
        self.flows = refill(flows, &self.flows);
        self.path_arena = refill(path_arena, &self.path_arena);
        self.active = refill(active, &self.active);
        self.loaded = refill(loaded, &self.loaded);
        self.dirty = refill(dirty, &self.dirty);
        // Keep the recycled inner vectors (their capacities are the
        // point): the first ones take this network's lists, the rest
        // stay as spares.
        if incident.len() < self.incident.len() {
            incident.resize_with(self.incident.len(), Vec::new);
        }
        for (slot, current) in incident.iter_mut().zip(self.incident.iter()) {
            slot.clear();
            slot.extend_from_slice(current);
        }
        self.incident = incident;
    }

    /// Sum of active-flow rates through a resource (diagnostics/tests).
    ///
    /// Walks the sorted active set, not every stored record, so it
    /// costs O(active flows). Ascending-slot (= ascending-id) iteration
    /// keeps the summation order (hence the float result) bit-identical
    /// to a full scan.
    pub fn resource_load(&self, r: ResourceId) -> f64 {
        self.active
            .iter()
            .map(|&s| &self.flows[s as usize])
            .filter(|f| f.path(&self.path_arena).contains(&r))
            .flat_map(|f| std::iter::repeat_n(f.rate, f.count as usize))
            .sum()
    }

    /// Effective capacity of a resource at the current active-flow depth
    /// — what the adaptive feedback loop reads for every target of every
    /// running application at each evaluation, and the capacity the next
    /// solve starts from. The depth adds the weights of the active flows
    /// crossing `r` in ascending slot order, so the float result is
    /// bit-identical to a scan of the sorted active set, at a cost that
    /// follows the flows crossing `r` rather than every active flow. It
    /// allocates only when `r`'s incidence list is out of slot order.
    pub fn effective_capacity(&self, r: ResourceId) -> f64 {
        self.live_capacity(r.index(), &mut Vec::new())
    }

    /// Capacity of resource `r` at its current depth, scaled by its
    /// speed factor. A `Fixed` resource needs no depth.
    fn live_capacity(&self, r: usize, sorted: &mut Vec<u32>) -> f64 {
        let res = &self.resources[r];
        let q = match res.model {
            CapacityModel::Fixed(_) => 0.0,
            CapacityModel::Saturating { .. } => self.live_depth(r, sorted),
        };
        res.model.capacity_at_depth(q) * res.factor
    }

    /// The summed depth weight of the active flows crossing `r`, added in
    /// ascending slot order, a record's once per flow: the terms and
    /// order of a scan of the sorted active list, so the float result is
    /// bit-identical to one. The live entries of `r`'s incidence list are
    /// summed as listed when they are in ascending slot order, as flows
    /// started in registration order leave them; otherwise they are
    /// copied into `sorted`, sorted and summed again.
    fn live_depth(&self, r: usize, sorted: &mut Vec<u32>) -> f64 {
        let list = &self.incident[r];
        let live = |&&s: &&u32| self.flows[s as usize].active;
        let weight = |q: f64, s: u32| {
            let f = &self.flows[s as usize];
            add_times(q, f.depth_weight, f.count)
        };
        let (mut q, mut prev, mut ascending) = (0.0, None, true);
        for &s in list.iter().filter(live) {
            ascending &= prev < Some(s);
            prev = Some(s);
            q = weight(q, s);
        }
        if ascending {
            return q;
        }
        sorted.clear();
        sorted.extend(list.iter().filter(live));
        sorted.sort_unstable();
        sorted.iter().fold(0.0, |q, &s| weight(q, s))
    }
}

/// `acc` plus `x` added `n` times in a row, the sum a record of `n`
/// flows makes where one flow adds `x` once; a negative `x` subtracts,
/// since `a + (-b)` is `a - b` bit for bit. The first addition comes
/// outright, so a record of one flow costs what one addition did.
#[inline(always)]
fn add_times(acc: f64, x: f64, n: u32) -> f64 {
    let mut acc = acc + x;
    for _ in 1..n {
        acc += x;
    }
    acc
}

/// Drop the dead entries (inactive flows) from an incidence list.
fn purge_dead(list: &mut Vec<u32>, flows: &[Flow]) {
    list.retain(|&s| flows[s as usize].active);
}

/// The bottleneck among `resources`, with its share: the resource with
/// the smallest fair share `cap.max(0) / unfrozen` among those still
/// carrying unfrozen flows, the lowest index among equal shares — the
/// reference's ascending scan keeps the first it meets — whatever the
/// order of `resources`. `None` when no listed resource carries an
/// unfrozen flow.
fn find_bottleneck(resources: &[u32], cap: &[f64], unfrozen: &[u32]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &r in resources {
        let (r, u) = (r as usize, unfrozen[r as usize]);
        if u > 0 {
            let share = cap[r].max(0.0) / f64::from(u);
            match best {
                Some((b, s)) if s < share || (s == share && b < r) => {}
                _ => best = Some((r, share)),
            }
        }
    }
    best
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
        net.drain(2.0, |_, _, _| {});
        assert!((net.remaining(f) - 5.0).abs() < 1e-9);
        net.drain(2.0, |_, _, _| {});
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

    /// Two link+target components: three flows on A, one on B, all
    /// active, not yet solved.
    fn two_components() -> (FlowNetwork, [ResourceId; 4], Vec<FlowId>) {
        let mut net = FlowNetwork::new();
        let la = net.add_resource("linkA", fixed(100.0));
        let ta = net.add_resource("ostA", fixed(80.0));
        let lb = net.add_resource("linkB", fixed(100.0));
        let tb = net.add_resource("ostB", fixed(90.0));
        let mut flows: Vec<FlowId> = (0..3).map(|i| net.add_flow([la, ta], 1.0, i)).collect();
        flows.push(net.add_flow([lb, tb], 1.0, 3));
        for &f in &flows {
            net.activate(f);
        }
        (net, [la, ta, lb, tb], flows)
    }

    /// Recompute, require every rate to match a reference solve of a
    /// clone bit for bit, and return the reused-solve count.
    fn solve_checked(net: &mut FlowNetwork) -> u64 {
        net.recompute_rates();
        let mut reference = net.clone();
        reference.reference_recompute_rates();
        for &s in &net.active {
            assert_eq!(net.rate_at(s).to_bits(), reference.rate_at(s).to_bits());
        }
        net.reused_solve_count()
    }

    #[test]
    fn a_departure_or_a_factor_change_inside_a_kept_component_reuses_it() {
        let (mut net, [_, ta, _, tb], flows) = two_components();
        assert_eq!(solve_checked(&mut net), 0, "the first solve walks");
        net.set_factor(ta, 0.5);
        assert_eq!(solve_checked(&mut net), 1, "a factor change reuses A");
        assert_eq!(net.last_component_sizes(), [3]);
        net.deactivate(flows[1]);
        assert_eq!(solve_checked(&mut net), 2, "a departure reuses A");
        assert_eq!(net.last_component_sizes(), [2]);
        net.set_factor(tb, 0.25);
        assert_eq!(solve_checked(&mut net), 3, "B was kept too");
        assert_eq!(net.solve_count(), 4);
        assert_eq!(net.flows_solved(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn an_activation_or_a_whole_set_solve_forces_a_walk_and_a_compaction_does_not() {
        let (mut net, [la, ta, _, _], flows) = two_components();
        solve_checked(&mut net);
        // A flow starting on A's resources: the solve walks, and the
        // walk keeps A anew, with the new flow.
        let late = net.add_flow([la, ta], 1.0, 4);
        net.activate(late);
        assert_eq!(solve_checked(&mut net), 0, "an activation walks");
        net.set_factor(ta, 0.5);
        assert_eq!(solve_checked(&mut net), 1);
        assert_eq!(net.last_component_sizes(), [4]);

        // A compaction renumbers slots, not resources: A stays kept.
        net.retire(0);
        assert_eq!(solve_checked(&mut net), 2);
        net.compact();
        net.set_factor(ta, 0.75);
        assert_eq!(solve_checked(&mut net), 3, "a compaction keeps A");
        assert_eq!(net.last_component_sizes(), [3]);

        // With B idle, linkA carries every active flow: a start on A
        // makes a whole-set solve, which drops every component. B's
        // return walks B alone, so A must walk again.
        net.deactivate(flows[3]);
        net.recompute_rates();
        let last = net.add_flow([la, ta], 1.0, 5);
        net.activate(last);
        assert_eq!(solve_checked(&mut net), 3);
        assert_eq!(net.whole_set_solve_count(), 1);
        net.activate(flows[3]);
        assert_eq!(solve_checked(&mut net), 3);
        net.set_factor(ta, 0.5);
        assert_eq!(solve_checked(&mut net), 3, "the whole-set solve dropped A");
        net.set_factor(ta, 0.25);
        assert_eq!(solve_checked(&mut net), 4);
        assert_eq!(net.whole_set_solve_count(), 1);
    }

    #[test]
    fn a_walk_through_part_of_a_kept_component_drops_the_rest() {
        // A and B, joined by a bridge, are kept as one component, which
        // the bridge's departure splits. A start on C walks, and the walk
        // also collects A, dirtied by a factor change: the AB component
        // goes. A flow then starting on A walks A alone, so B, changed
        // next, must walk too: the AB lists miss the new flow.
        let mut net = FlowNetwork::new();
        let [la, ta, lb, tb, lc, tc] =
            [90.0, 80.0, 70.0, 60.0, 50.0, 40.0].map(|c| net.add_resource("r", fixed(c)));
        let a1 = net.add_flow([la, ta], 1.0, 0);
        let b1 = net.add_flow([lb, tb], 1.0, 1);
        let bridge = net.add_flow([ta, tb], 1.0, 2);
        let c1 = net.add_flow([lc, tc], 1.0, 3);
        let a2 = net.add_flow([la, ta], 1.0, 4);
        for f in [a1, b1, bridge] {
            net.activate(f);
        }
        assert_eq!(solve_checked(&mut net), 0);
        net.deactivate(bridge);
        assert_eq!(solve_checked(&mut net), 1, "the split component is reused");
        net.activate(c1);
        net.set_factor(ta, 0.5);
        assert_eq!(solve_checked(&mut net), 1);
        net.activate(a2);
        assert_eq!(solve_checked(&mut net), 1);
        net.set_factor(tb, 0.5);
        assert_eq!(
            solve_checked(&mut net),
            1,
            "B walks: the AB component is gone"
        );
        net.set_factor(tb, 0.25);
        assert_eq!(solve_checked(&mut net), 2);
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
    #[should_panic(expected = "made no progress")]
    fn a_count_above_the_listed_flows_panics_instead_of_spinning() {
        // The freeze loop trusts `active_count`: one too many leaves the
        // link an unfrozen count after its only flow froze, so the next
        // round picks it and freezes nothing.
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", fixed(100.0));
        let f = net.add_flow([r], 1.0, 0);
        net.activate(f);
        net.active_count[r.index()] += 1;
        net.recompute_rates();
    }

    /// The bottleneck search with every share divided, as the reference
    /// scans: ascending index, the first of equal shares kept.
    fn divided_bottleneck(cap: &[f64], unfrozen: &[u32]) -> Option<(usize, u64)> {
        let mut best: Option<(usize, f64)> = None;
        for (r, (&c, &u)) in cap.iter().zip(unfrozen).enumerate() {
            if u > 0 {
                let share = c.max(0.0) / f64::from(u);
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((r, share));
                }
            }
        }
        best.map(|(r, s)| (r, s.to_bits()))
    }

    /// `find_bottleneck` over `order` picks the ascending search's
    /// resource and share, bit for bit.
    fn assert_search_exact(cap: &[f64], unfrozen: &[u32], order: &[u32]) {
        let got = find_bottleneck(order, cap, unfrozen).map(|(r, s)| (r, s.to_bits()));
        assert_eq!(
            got,
            divided_bottleneck(cap, unfrozen),
            "cap {cap:?}, unfrozen {unfrozen:?}, order {order:?}"
        );
    }

    #[test]
    fn the_bottleneck_search_breaks_ties_by_index_over_every_list_order() {
        let x = 7.3f64;
        let cases: [(&[f64], &[u32]); 8] = [
            // Equal shares at two indices.
            (&[10.0, 20.0, 90.0], &[1, 2, 1]),
            // Shares one ulp apart, in both orders.
            (&[x, x.next_up(), 90.0], &[1, 1, 1]),
            (&[x.next_up(), x, 90.0], &[1, 1, 1]),
            // Zero shares tie: an empty resource, a negative capacity,
            // and 5e-324 over 17 flows, whose share rounds to zero.
            (&[0.0, -5.0, 4.0], &[1, 2, 1]),
            (&[5e-324, 0.0, 4.0], &[17, 1, 1]),
            // A subnormal share (a 1 B/s resource at factor 1e-310) ties
            // with a quotient that rounds down onto it.
            (&[3.0 * 1e-310 + 5e-324, 1e-310, 4.0], &[3, 1, 1]),
            // An exact tie whose lower index lies one ulp above the
            // rounded product of the best share and its flow count.
            (&[231874.33104560405, 154582.88736373602, 9e5], &[33, 22, 1]),
            // No resource carries an unfrozen flow.
            (&[1.0, 2.0, 3.0], &[0, 0, 0]),
        ];
        for (cap, unfrozen) in cases {
            for order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                assert_search_exact(cap, unfrozen, &order);
            }
        }
    }

    /// Shuffled near ties: shares within a few ulps of each other
    /// (normal, subnormal or zero), negative capacities and idle
    /// resources, listed in random order.
    #[test]
    fn the_bottleneck_search_breaks_random_near_ties_by_index_in_any_list_order() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(0xB0771E).stream("bottleneck", 0);
        for _ in 0..20_000 {
            let n = 2 + rng.gen_range(0..6usize);
            let base = [1e-310, 5e-324, 0.0, 1.0, 7026.49488, 1e300][rng.gen_range(0..6usize)];
            let (mut cap, mut unfrozen) = (Vec::new(), Vec::new());
            for _ in 0..n {
                let u = rng.gen_range(0..40u32);
                let mut c = base * f64::from(u.max(1));
                for _ in 0..rng.gen_range(0..4u32) {
                    c = if rng.gen_bool(0.5) {
                        c.next_up()
                    } else {
                        c.next_down()
                    };
                }
                if c != 0.0 && rng.gen_range(0..10u32) == 0 {
                    c = -c;
                }
                cap.push(c);
                unfrozen.push(u);
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            assert_search_exact(&cap, &unfrozen, &order);
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
    fn an_unordered_mixed_list_sums_depth_and_load_in_slot_order() {
        // 0.1 + 0.2 + 0.3 + 0.4 is 1.0; the reverse sum is not. Flows
        // started in reverse, with one started between them that then
        // retires, leave the device's incidence list out of slot order
        // with a dead entry, so its depth and load sums must sort. Each
        // flow's private link caps its rate at its weight.
        let model = CapacityModel::Saturating {
            peak: 100.0,
            q_half: 0.5,
        };
        let mut net = FlowNetwork::new();
        let d = net.add_resource("ost", model);
        let terms = [0.1, 0.2, 0.3, 0.4, 0.5];
        let flows: Vec<FlowId> = (0..5)
            .map(|i| {
                let link = net.add_resource("link", CapacityModel::Fixed(terms[i]));
                net.add_flow_weighted([link, d], 1.0, i as u64, terms[i])
            })
            .collect();
        for k in [3, 4, 2, 1, 0] {
            net.activate(flows[k]);
        }
        net.retire(4);
        assert_eq!(net.incident[d.index()], [3, 4, 2, 1, 0]);
        let ascending = terms[..4].iter().fold(0.0, |q, w| q + w);
        let listed = terms[..4].iter().rev().fold(0.0, |q, w| q + w);
        let cap = |q: f64| model.capacity_at_depth(q).to_bits();
        assert_ne!(
            cap(listed),
            cap(ascending),
            "the terms must tell the orders apart"
        );
        assert_eq!(net.effective_capacity(d).to_bits(), cap(ascending));

        net.recompute_rates();
        let mut reference = net.clone();
        reference.reference_recompute_rates();
        for &f in &flows {
            assert_eq!(net.rate(f).to_bits(), reference.rate(f).to_bits());
        }
        assert_eq!(net.rate(flows[2]), terms[2], "the links cap the rates");
        let mut loads = vec![f64::NAN; net.resource_count()];
        net.loads_into(&mut loads);
        assert_eq!(loads[d.index()].to_bits(), ascending.to_bits());
        for r in (0..net.resource_count()).map(ResourceId::from_index) {
            assert_eq!(loads[r.index()], net.resource_load(r), "{r:?}");
        }
    }

    /// `loads_into` over records of several flows adds each record's
    /// rate once per flow, as the same flows registered one by one do,
    /// and takes its count-free loop again once only single flows are
    /// active.
    #[test]
    fn loads_of_records_match_loads_of_their_flows_one_by_one() {
        let build = |grouped: bool| {
            let mut net = FlowNetwork::new();
            let links: Vec<ResourceId> = [0.7, 1.3, 2.9]
                .iter()
                .map(|&c| net.add_resource("link", CapacityModel::Fixed(c)))
                .collect();
            let ost = net.add_resource(
                "ost",
                CapacityModel::Saturating {
                    peak: 3.1,
                    q_half: 0.9,
                },
            );
            let mut records = Vec::new();
            for (k, count) in [1, 3, 2].into_iter().enumerate() {
                let path = [links[k], ost];
                let ids: Vec<FlowId> = if grouped {
                    vec![net.add_record(&path, 5.0, k as u64, 0.3, count)]
                } else {
                    (0..count)
                        .map(|_| net.add_flow_weighted(path, 5.0, k as u64, 0.3))
                        .collect()
                };
                ids.iter().for_each(|&f| net.activate(f));
                records.push(ids);
            }
            net.recompute_rates();
            (net, records)
        };
        let loads = |net: &FlowNetwork| {
            let mut out = vec![f64::NAN; net.resource_count()];
            net.loads_into(&mut out);
            for r in (0..net.resource_count()).map(ResourceId::from_index) {
                assert_eq!(out[r.index()], net.resource_load(r), "{r:?}");
            }
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let (mut grouped, g_ids) = build(true);
        let (mut single, s_ids) = build(false);
        assert_eq!(loads(&grouped), loads(&single));
        // Only the one-flow record stays active.
        for (g, s) in g_ids.iter().zip(&s_ids).skip(1) {
            g.iter().for_each(|&f| grouped.deactivate(f));
            s.iter().for_each(|&f| single.deactivate(f));
        }
        grouped.recompute_rates();
        single.recompute_rates();
        assert_eq!(grouped.active_flow_count, grouped.active.len());
        assert_eq!(loads(&grouped), loads(&single));
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
    fn an_activation_into_a_full_list_drops_its_dead_entries_instead_of_growing() {
        let mut net = FlowNetwork::new();
        let r = link(&mut net, 100.0);
        let b = link(&mut net, 100.0);
        let pending = net.add_flow([r, b], 1.0, 0);
        assert_eq!(
            (net.incident[0].capacity(), net.incident[1].capacity()),
            (0, 0),
            "registration reserves nothing"
        );
        let mut ids = Vec::new();
        while ids.len() < 2 || net.incident[0].len() < net.incident[0].capacity() {
            let f = net.add_flow([r], 1.0, 1 + ids.len() as u64);
            net.activate(f);
            ids.push(f);
        }
        let capacity = net.incident[0].capacity();
        // A retirement leaves a dead entry in the full list (one dead,
        // the rest live).
        net.retire(net.slot_of(ids[0]).unwrap());
        assert_eq!(net.incident[0].len(), capacity, "the list is full");
        // The next activation drops the dead entry instead of growing
        // the list.
        net.activate(pending);
        assert_eq!(net.incident[0].capacity(), capacity);
        let mut listed = net.incident[0].clone();
        listed.sort_unstable();
        let live: Vec<u32> = std::iter::once(pending)
            .chain(ids[1..].iter().copied())
            .map(|f| net.slot_of(f).unwrap())
            .collect();
        assert_eq!(listed, live);
        // Full of live entries, the list grows.
        let f = net.add_flow([r], 1.0, 99);
        net.activate(f);
        assert!(net.incident[0].capacity() > capacity);
        assert_eq!(net.incident[0].len(), capacity + 1);
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
        net.track_bytes();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let idle = net.add_resource("idle", CapacityModel::Fixed(100.0));
        let f = net.add_flow(vec![r], 1000.0, 0);
        net.activate(f);
        net.recompute_rates();
        net.drain(2.0, |_, _, _| {});
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
        net.track_bytes();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        for i in 0..2 {
            let f = net.add_flow(vec![r], 1000.0, i);
            net.activate(f);
        }
        net.recompute_rates();
        net.drain(1.0, |_, _, _| {});
        // Both flows at 50 B/s each: 100 bytes total crossed the link.
        assert!((net.bytes_through(r) - 100.0).abs() < 1e-9);
        assert_eq!(net.busy_secs(r), 1.0);
    }

    #[test]
    #[should_panic(expected = "call FlowNetwork::track_bytes")]
    fn an_untracked_network_accounts_busy_time_and_refuses_bytes() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("link", CapacityModel::Fixed(100.0));
        let f = net.add_flow(vec![r], 1000.0, 0);
        net.activate(f);
        net.recompute_rates();
        net.drain(2.0, |_, _, _| {});
        assert_eq!(net.busy_secs(r), 2.0);
        assert_eq!(net.bytes_total[r.index()], 0.0);
        net.bytes_through(r);
    }
}

#[cfg(test)]
mod loaded_tests {
    use super::*;
    use rand::Rng;

    /// The loaded list holds exactly the resources with active flows,
    /// once each, and `loaded_pos` indexes it.
    fn assert_loaded_matches_counts(net: &FlowNetwork, step: usize) {
        let mut loaded = net.loaded.clone();
        loaded.sort_unstable();
        let expect: Vec<u32> = (0..net.resource_count() as u32)
            .filter(|&r| net.active_count[r as usize] > 0)
            .collect();
        assert_eq!(loaded, expect, "step {step}: loaded list out of step");
        for (at, &r) in net.loaded.iter().enumerate() {
            assert_eq!(net.loaded_pos[r as usize] as usize, at, "step {step}");
        }
    }

    /// Every incidence list holds each active flow crossing its resource
    /// exactly once plus dead entries: inactive flows that cross the
    /// resource, never more than one above the live entries. Returns the
    /// dead entries seen.
    fn assert_incidence_matches_stored_flows(net: &FlowNetwork, step: usize) -> usize {
        let n_res = net.resource_count();
        let mut incident = vec![Vec::new(); n_res];
        for (s, f) in net.flows.iter().enumerate() {
            for r in net.path_of(s) {
                if f.active {
                    incident[r.index()].push(s as u32);
                }
            }
        }
        let mut dead_seen = 0;
        for (r, expect) in incident.iter().enumerate() {
            let (mut live, dead): (Vec<u32>, Vec<u32>) = net.incident[r]
                .iter()
                .partition(|&&s| net.flows[s as usize].active);
            live.sort_unstable();
            assert_eq!(&live, expect, "step {step}: live entries of r{r}");
            assert!(
                dead.len() <= live.len() + 1,
                "step {step}: r{r} lists {} dead entries beside {} live",
                dead.len(),
                live.len()
            );
            for &s in &dead {
                assert!(
                    net.path_of(s as usize).contains(&ResourceId(r as u32)),
                    "step {step}: r{r} lists slot {s}, which does not cross it"
                );
            }
            dead_seen += dead.len();
        }
        dead_seen
    }

    /// Random activate, deactivate, retire (one flow, a random batch or
    /// every active flow at once), compact and drain steps on small
    /// networks. After every step the loaded list equals {r : active
    /// count > 0}, the incidence lists match the stored flows (every
    /// live flow listed once, a flow re-activated after `deactivate`
    /// included, and dead entries bounded by the live ones), and every
    /// resource's bytes and busy seconds equal, bit for bit, a model
    /// that charges busy time by marking the resources the active flows
    /// cross and then scanning all of them. An activation grows an
    /// incidence list only when its live entries fill it. Each drain's
    /// rates equal the reference solver's, bit for bit.
    #[test]
    fn loaded_list_and_telemetry_follow_a_full_scan_model() {
        let mut rng = crate::rng::RngFactory::new(0x5EED).stream("loaded-list", 0);
        let (mut solves, mut whole_set_solves) = (0, 0);
        let (mut dead_seen, mut reactivations) = (0, 0);
        let mut growths = 0;
        for case in 0..40 {
            let mut net = FlowNetwork::new();
            net.track_bytes();
            let n_res = 2 + rng.gen_range(0..10usize);
            let res: Vec<ResourceId> = (0..n_res)
                .map(|i| {
                    let model = if i % 3 == 0 {
                        CapacityModel::Saturating {
                            peak: 200.0 + 50.0 * i as f64,
                            q_half: 1.5,
                        }
                    } else {
                        CapacityModel::Fixed(100.0 + 13.0 * i as f64)
                    };
                    net.add_resource(format!("r{i}"), model)
                })
                .collect();
            let mut ids: Vec<FlowId> = Vec::new();
            let mut deactivated: Vec<FlowId> = Vec::new();
            let mut model_bytes = vec![0.0f64; n_res];
            let mut model_busy = vec![0.0f64; n_res];
            let mut drains = 0;
            for step in 0..400 {
                // The stored, unretired flows in one state or the other.
                let live = |net: &FlowNetwork, active: bool| -> Vec<u32> {
                    ids.iter()
                        .filter_map(|&f| net.slot_of(f))
                        .filter(|&s| {
                            let fl = &net.flows[s as usize];
                            !fl.retired && fl.active == active
                        })
                        .collect()
                };
                match rng.gen_range(0..9u32) {
                    0 | 1 => {
                        let len = 1 + rng.gen_range(0..n_res.min(4));
                        let mut path: Vec<ResourceId> = Vec::new();
                        while path.len() < len {
                            let r = res[rng.gen_range(0..n_res)];
                            if !path.contains(&r) {
                                path.push(r);
                            }
                        }
                        let bytes = 1e3 * f64::from(1 + rng.gen_range(0..50u32));
                        ids.push(net.add_flow(path, bytes, step as u64));
                    }
                    2 | 3 => {
                        let idle = live(&net, false);
                        if !idle.is_empty() {
                            let s = idle[rng.gen_range(0..idle.len())];
                            // (capacity, live entries) of each list the
                            // flow joins.
                            let lists = |net: &FlowNetwork| -> Vec<[usize; 2]> {
                                let path = net.path_of(s as usize);
                                path.iter()
                                    .map(|r| {
                                        let live = net.active_count[r.index()] as usize;
                                        [net.incident[r.index()].capacity(), live]
                                    })
                                    .collect()
                            };
                            let before = lists(&net);
                            net.activate_slot(s);
                            for (&[capacity, live], after) in before.iter().zip(lists(&net)) {
                                if after[0] != capacity {
                                    assert_eq!(
                                        live, capacity,
                                        "step {step}: activation grew a list with dead entries"
                                    );
                                    growths += 1;
                                }
                            }
                            if deactivated.contains(&net.id_at(s)) {
                                reactivations += 1;
                            }
                        }
                    }
                    4 => {
                        let busy = live(&net, true);
                        if !busy.is_empty() {
                            let s = busy[rng.gen_range(0..busy.len())];
                            deactivated.push(net.id_at(s));
                            net.deactivate_slot(s);
                        }
                    }
                    5 => {
                        let mut busy = live(&net, true);
                        if rng.gen_bool(0.5) {
                            if !busy.is_empty() {
                                net.retire(busy[rng.gen_range(0..busy.len())]);
                            }
                        } else {
                            busy.retain(|_| rng.gen_bool(0.5));
                            net.retire_batch(&busy);
                        }
                    }
                    6 => net.compact(),
                    7 => {
                        let loaded = net.loaded.clone();
                        net.retire_batch(&live(&net, true));
                        // Their loads fell to zero: the next recompute
                        // must see them (the tracing sampler does).
                        assert!(loaded.iter().all(|&r| net.dirty_mark[r as usize] != 0));
                    }
                    _ => {
                        net.recompute_rates();
                        let mut reference = net.clone();
                        reference.reference_recompute_rates();
                        for &s in &net.active {
                            assert_eq!(
                                net.rate_at(s).to_bits(),
                                reference.rate_at(s).to_bits(),
                                "case {case} step {step}: rate of slot {s}"
                            );
                        }
                        let dt = 0.001 * f64::from(1 + rng.gen_range(0..900u32));
                        let mut touched = vec![false; n_res];
                        for &s in &net.active {
                            let moved = net.flows[s as usize].rate * dt;
                            for r in net.path_of(s as usize) {
                                model_bytes[r.index()] += moved;
                                touched[r.index()] = true;
                            }
                        }
                        for r in 0..n_res {
                            if touched[r] {
                                model_busy[r] += dt;
                            }
                        }
                        net.drain(dt, |_, _, _| {});
                        drains += 1;
                    }
                }
                assert_loaded_matches_counts(&net, step);
                dead_seen += assert_incidence_matches_stored_flows(&net, step);
                for (r, &id) in res.iter().enumerate() {
                    assert_eq!(
                        net.bytes_through(id).to_bits(),
                        model_bytes[r].to_bits(),
                        "case {case} step {step}: bytes of r{r}"
                    );
                    assert_eq!(
                        net.busy_secs(id).to_bits(),
                        model_busy[r].to_bits(),
                        "case {case} step {step}: busy seconds of r{r}"
                    );
                }
            }
            assert!(drains > 20, "case {case}: only {drains} drains");
            solves += net.solve_count();
            whole_set_solves += net.whole_set_solve_count();
        }
        // Both ways of collecting a component ran, lists held dead
        // entries, deactivated flows came back, and full lists grew.
        assert!(
            0 < whole_set_solves && whole_set_solves < solves,
            "{whole_set_solves} of {solves} solves took the whole set"
        );
        assert!(
            dead_seen > 0 && reactivations > 0,
            "{dead_seen} dead entries, {reactivations} re-activations"
        );
        assert!(growths > 0, "no list grew");
    }

    #[test]
    fn recycled_loaded_list_starts_from_the_new_networks_state() {
        let mut first = FlowNetwork::new();
        let a = first.add_resource("a", CapacityModel::Fixed(10.0));
        let spare = first.add_resource("spare", CapacityModel::Fixed(10.0));
        let f = first.add_flow([a], 1.0, 0);
        let g = first.add_flow([spare], 1.0, 1);
        first.activate(f);
        first.activate(g);
        first.recompute_rates();
        assert_eq!(first.scratch.kept.comps.len(), 2);
        let buffers = first.take_recycled();

        let mut second = FlowNetwork::new();
        let b = second.add_resource("b", CapacityModel::Fixed(10.0));
        let c = second.add_resource("c", CapacityModel::Fixed(10.0));
        let g = second.add_flow([c], 1.0, 0);
        second.activate(g);
        second.install_recycled(buffers);
        assert_eq!(second.loaded, vec![c.0]);
        assert!(
            second.scratch.kept.comps.is_empty(),
            "the first network's components came along"
        );
        second.recompute_rates();
        second.drain(0.5, |_, _, _| {});
        assert_eq!(second.busy_secs(b), 0.0);
        assert_eq!(second.busy_secs(c), 0.5);
    }
}
