//! Pluggable placement policies: given the cluster's current load, pick
//! the storage targets an arriving application should stripe over.
//!
//! The paper's central observation is that *which* targets an
//! application lands on — specifically how its stripe spreads across
//! storage servers — decides its bandwidth. The stock BeeGFS choosers
//! decide per file with no view of load; an online scheduler can do
//! better because it knows what is already running. Four policies span
//! that design space:
//!
//! * [`Random`] — the BeeGFS baseline: defer to the deployment's
//!   configured chooser, reproducing its allocations bit for bit.
//! * [`RoundRobinServer`] — cycle over storage servers, ignoring load.
//! * [`LeastLoadedServer`] — greedy on outstanding allocated bytes per
//!   server (what the scheduler has admitted but not yet released).
//! * [`UtilizationFeedback`] — greedy on the live per-target busy
//!   fractions observed by the telemetry of committed runs.
//! * [`StragglerAware`] — [`UtilizationFeedback`] plus a heavy penalty
//!   on targets the hedging detector has flagged as stragglers, so new
//!   placements route around suspected-slow hardware.
//! * [`AdaptiveStriping`] — [`UtilizationFeedback`] placement plus an
//!   IOPathTune-style feedback loop: watch each running application's
//!   observed throughput, and widen / narrow / re-place its stripe set
//!   mid-flight when the observations say the current allocation is
//!   leaving bandwidth on the table.

use beegfs_core::{BeeGfs, PolicyError};
use cluster::{Platform, TargetId};
use simcore::rng::StreamRng;
use std::collections::{BTreeMap, BTreeSet};

/// The scheduler's view of the cluster at a placement instant.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// The platform being scheduled onto.
    pub platform: &'a Platform,
    /// Per-target liveness, indexed by flat target id: `false` targets
    /// must not be placed on.
    pub online: &'a [bool],
    /// Per-server outstanding allocated bytes: volume the scheduler has
    /// admitted onto the server's targets and not yet released.
    pub outstanding_bytes: &'a [f64],
    /// Per-target busy fraction of the most recent committed measurement
    /// run (`busy_secs / io_secs`, zero before any run committed).
    pub busy_fraction: &'a [f64],
    /// Per-target straggler suspicion, indexed by flat target id: `true`
    /// once any committed hedged run's detector flagged the target (see
    /// [`ior::HedgeReport`]). All `false` when hedging is off.
    pub suspected: &'a [bool],
}

impl ClusterView<'_> {
    fn any_online(&self) -> Result<(), PolicyError> {
        if self.online.iter().any(|&o| o) {
            Ok(())
        } else {
            Err(PolicyError::NoTargetsAvailable)
        }
    }

    /// Online targets of one server, flat ids ascending.
    fn online_targets_of(&self, server: usize) -> Vec<TargetId> {
        self.platform
            .targets_of(cluster::ServerId(server as u32))
            .into_iter()
            .filter(|t| self.online[t.index()])
            .collect()
    }
}

/// The owned state behind a [`ClusterView`], built the same way by both
/// admission engines: per-target liveness from the management service,
/// and per-server outstanding bytes — each running application's bytes
/// split evenly over its targets, summed in running-list order.
pub(crate) struct ClusterLoad {
    online: Vec<bool>,
    outstanding: Vec<f64>,
}

impl ClusterLoad {
    /// Snapshot `fs` and the running set, given as each running
    /// application's `(targets, bytes)`.
    pub(crate) fn of<'r>(
        fs: &BeeGfs,
        running: impl IntoIterator<Item = (&'r [TargetId], u64)>,
    ) -> Self {
        let platform = fs.platform();
        let online = platform
            .all_targets()
            .into_iter()
            .map(|t| fs.mgmt().state(t).selectable())
            .collect();
        let mut outstanding = vec![0.0f64; platform.server_count()];
        for (targets, bytes) in running {
            if targets.is_empty() {
                continue;
            }
            let share = bytes as f64 / targets.len() as f64;
            for &t in targets {
                outstanding[platform.server_of(t).index()] += share;
            }
        }
        ClusterLoad {
            online,
            outstanding,
        }
    }

    /// The policy-facing view of this snapshot.
    pub(crate) fn view<'a>(
        &'a self,
        platform: &'a Platform,
        busy_fraction: &'a [f64],
        suspected: &'a [bool],
    ) -> ClusterView<'a> {
        ClusterView {
            platform,
            online: &self.online,
            outstanding_bytes: &self.outstanding,
            busy_fraction,
            suspected,
        }
    }
}

/// What a policy decided for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Defer to the deployment's directory configuration — the file
    /// system's own chooser picks at create time, exactly as it would
    /// without a scheduler.
    Deferred,
    /// Pin the application to this exact target list.
    Pinned(Vec<TargetId>),
}

/// One running application's throughput feedback at an evaluation
/// instant — everything a restripe-capable policy sees beyond the
/// [`ClusterView`].
#[derive(Debug)]
pub struct AppObservation<'a> {
    /// Application index (arrival order), the policy's state key.
    pub app: usize,
    /// The application's current stripe set, in slot order.
    pub targets: &'a [TargetId],
    /// Mean observed throughput (bytes/s) since the last stripe change
    /// (or admission), integrated from the live flow rates.
    pub observed_bps: f64,
    /// The solo-ideal throughput (bytes/s) priced at admission: total
    /// bytes over the shadow fabric's contention-free I/O time.
    pub ideal_bps: f64,
    /// Storage-side ceiling of the current allocation: the summed
    /// effective capacities (bytes/s) of the application's own storage
    /// targets at the live queue depth. `observed / allocated_capacity`
    /// near one means the app's own targets — not the network — are the
    /// binding constraint, so more targets would help.
    pub allocated_capacity_bps: f64,
    /// Evaluation samples accumulated since the last stripe change.
    pub samples: u32,
    /// Seconds since the last stripe change (or admission).
    pub since_change_s: f64,
    /// Fraction of the application's bytes still in flight, in `[0, 1]`.
    /// Restriping a nearly-finished application cannot pay for its drain
    /// cost — and a draining allocation's queue depth (hence its
    /// depth-dependent storage capacity) collapses toward the observed
    /// rate, which would otherwise fake storage saturation at the end
    /// of every run.
    pub remaining_fraction: f64,
}

/// What a restripe-capable policy decided for one running application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestripeDecision {
    /// The new stripe set, in slot order.
    pub targets: Vec<TargetId>,
    /// Why the stripe set changed (for logs and metrics).
    pub kind: RestripeKind,
}

/// The three moves an adaptive policy can make on a running app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestripeKind {
    /// Grow the stripe set (more targets, typically all online ones).
    Widen,
    /// Shrink back to a previous stripe set (a widen that did not pay).
    Narrow,
    /// Same width, different targets (fix an imbalanced placement).
    Replace,
}

impl RestripeKind {
    /// Stable label for logs and metric names.
    pub fn label(self) -> &'static str {
        match self {
            RestripeKind::Widen => "widen",
            RestripeKind::Narrow => "narrow",
            RestripeKind::Replace => "replace",
        }
    }
}

/// A placement policy: the scheduler calls [`place`](Self::place) once
/// per admission (and again after a fault evicts a target).
///
/// Policies may keep internal state across calls (cursors, histories);
/// the scheduler owns one policy instance per served stream, so state
/// never leaks between experiments.
pub trait PlacementPolicy {
    /// Stable policy name, used in decision logs and traces.
    fn name(&self) -> &'static str;

    /// Choose targets for an application that wants `want` targets and
    /// will write `bytes` in total. `rng` draws from the admission's
    /// dedicated stream; deterministic policies simply ignore it.
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError>;

    /// Does this policy want periodic throughput feedback? When `false`
    /// (the default) the online engine schedules no evaluation events at
    /// all, so feedback-free sessions are bit-identical to the pre-
    /// adaptive engine.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// Given one running application's feedback, decide whether to
    /// restripe it mid-flight. Called by the online engine at each
    /// evaluation instant for each running application; `None` (the
    /// default) leaves the app alone. Must be deterministic — no clock,
    /// no RNG — so decision logs stay byte-stable.
    fn restripe(
        &mut self,
        _view: &ClusterView<'_>,
        _obs: &AppObservation<'_>,
    ) -> Option<RestripeDecision> {
        None
    }

    /// The application finished; drop any per-app feedback state.
    fn app_done(&mut self, _app: usize) {}
}

/// The shared greedy pick of [`UtilizationFeedback`]-family policies:
/// `want` targets minimizing `busy_fraction + BALANCE_WEIGHT *
/// picks_already_on_that_server + extra(target)`, reusing online
/// targets only once demand exceeds the online pool.
fn busy_balanced_pick(
    view: &ClusterView<'_>,
    want: u32,
    extra: &dyn Fn(usize) -> f64,
) -> Vec<TargetId> {
    let servers = view.platform.server_count();
    let mut server_picks = vec![0u32; servers];
    let mut used = vec![false; view.online.len()];
    let mut chosen = Vec::with_capacity(want as usize);
    for _ in 0..want {
        let unused_left = view.online.iter().enumerate().any(|(i, &o)| o && !used[i]);
        let best = view
            .online
            .iter()
            .enumerate()
            .filter(|&(i, &o)| o && (!unused_left || !used[i]))
            .map(|(i, _)| {
                let t = TargetId(i as u32);
                let s = view.platform.server_of(t).index();
                let score =
                    view.busy_fraction[i] + BALANCE_WEIGHT * f64::from(server_picks[s]) + extra(i);
                (score, t)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("any_online guarantees a candidate");
        let (_, t) = best;
        used[t.index()] = true;
        server_picks[view.platform.server_of(t).index()] += 1;
        chosen.push(t);
    }
    chosen
}

/// The BeeGFS baseline: let the deployment's configured chooser decide
/// at file-create time. Allocations are bit-identical to a run without
/// any scheduler, because the same chooser consumes the same RNG stream
/// in the same order.
#[derive(Debug, Default)]
pub struct Random;

impl PlacementPolicy for Random {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        _want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        Ok(Placement::Deferred)
    }
}

/// Cycle over storage servers, taking each server's next online target
/// in turn. Load-oblivious but spread-aware: consecutive picks land on
/// different servers, so a single placement is as balanced as the
/// server count allows.
#[derive(Debug, Default)]
pub struct RoundRobinServer {
    server_cursor: usize,
    slot_cursors: Vec<usize>,
}

impl PlacementPolicy for RoundRobinServer {
    fn name(&self) -> &'static str {
        "RoundRobinServer"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        let servers = view.platform.server_count();
        self.slot_cursors.resize(servers, 0);
        let per_server: Vec<Vec<TargetId>> =
            (0..servers).map(|s| view.online_targets_of(s)).collect();
        let mut chosen = Vec::with_capacity(want as usize);
        for _ in 0..want {
            while per_server[self.server_cursor % servers].is_empty() {
                self.server_cursor += 1;
            }
            let s = self.server_cursor % servers;
            let list = &per_server[s];
            let t = list[self.slot_cursors[s] % list.len()];
            self.slot_cursors[s] += 1;
            self.server_cursor += 1;
            chosen.push(t);
        }
        Ok(Placement::Pinned(chosen))
    }
}

/// Greedy on outstanding allocated bytes per server: every pick goes to
/// the server carrying the least admitted-but-unreleased volume,
/// counting the bytes the placement itself adds as it goes (so one
/// placement spreads even on an idle system). Within a server, the
/// lowest-id unused online target is taken.
#[derive(Debug, Default)]
pub struct LeastLoadedServer;

impl PlacementPolicy for LeastLoadedServer {
    fn name(&self) -> &'static str {
        "LeastLoadedServer"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        let servers = view.platform.server_count();
        let share = bytes as f64 / f64::from(want.max(1));
        let mut tentative = vec![0.0f64; servers];
        let mut used = vec![false; view.online.len()];
        let mut chosen = Vec::with_capacity(want as usize);
        for _ in 0..want {
            // Prefer servers that still have an unused online target;
            // fall back to reusing targets only when the demand exceeds
            // the online pool (wrap-around striping).
            let unused_somewhere =
                (0..servers).any(|s| view.online_targets_of(s).iter().any(|t| !used[t.index()]));
            let mut best: Option<(f64, usize, TargetId)> = None;
            for (s, tent) in tentative.iter().enumerate() {
                let candidates = view.online_targets_of(s);
                let pick = candidates
                    .iter()
                    .find(|t| !unused_somewhere || !used[t.index()])
                    .copied();
                let Some(t) = pick else { continue };
                let load = view.outstanding_bytes[s] + tent;
                if best.is_none_or(|(l, bs, _)| load < l || (load == l && s < bs)) {
                    best = Some((load, s, t));
                }
            }
            let (_, s, t) = best.expect("any_online guarantees a candidate");
            used[t.index()] = true;
            tentative[s] += share;
            chosen.push(t);
        }
        Ok(Placement::Pinned(chosen))
    }
}

/// Greedy on the live per-target busy fractions reported by the
/// telemetry of committed runs, with a balance penalty: each pick costs
/// `busy_fraction + BALANCE_WEIGHT * picks_already_on_that_server`.
///
/// The penalty encodes the paper's central lesson — a `(0,4)` pile-up
/// on one server is the worst allocation — without giving up the
/// feedback signal: concentrating on one server is accepted only when
/// the other side is hotter than the penalty (a genuinely overloaded
/// server), and a cold start degenerates to a balanced spread.
#[derive(Debug, Default)]
pub struct UtilizationFeedback;

/// Busy-fraction cost of placing a second (third, …) stripe chunk on a
/// server already picked for this placement.
pub const BALANCE_WEIGHT: f64 = 0.25;

impl PlacementPolicy for UtilizationFeedback {
    fn name(&self) -> &'static str {
        "UtilizationFeedback"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        Ok(Placement::Pinned(busy_balanced_pick(view, want, &|_| 0.0)))
    }
}

/// [`UtilizationFeedback`] with straggler avoidance: each pick costs
/// `busy_fraction + BALANCE_WEIGHT * picks_on_server`, plus
/// [`SUSPECT_PENALTY`] when the hedging detector has flagged the target
/// (see [`ClusterView::suspected`]).
///
/// The penalty is deliberately far above any busy fraction or balance
/// cost: a suspected target is used only when the demand exceeds the
/// unsuspected online pool. Detection is sticky for the session — a
/// drive that stuttered once stays quarantined — which matches the
/// paper's observation that a single slow target caps the whole
/// stripe's bandwidth.
#[derive(Debug, Default)]
pub struct StragglerAware;

/// Placement cost added to a target the straggler detector flagged.
pub const SUSPECT_PENALTY: f64 = 10.0;

impl PlacementPolicy for StragglerAware {
    fn name(&self) -> &'static str {
        "StragglerAware"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        let suspected = view.suspected;
        let chosen = busy_balanced_pick(view, want, &|i| {
            if suspected[i] {
                SUSPECT_PENALTY
            } else {
                0.0
            }
        });
        Ok(Placement::Pinned(chosen))
    }
}

/// Hysteresis constants of the [`AdaptiveStriping`] feedback loop. The
/// defaults are deliberately conservative — every rule must clear a
/// margin before the policy touches a running application, so decision
/// logs stay sparse and stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Slowdown gate for re-placement: the app must be running at least
    /// `threshold`× slower than its solo ideal before a same-width
    /// re-place is considered. `f64::INFINITY` disables the whole
    /// feedback loop ([`PlacementPolicy::wants_feedback`] turns false),
    /// making the policy byte-identical to [`UtilizationFeedback`].
    pub threshold: f64,
    /// Evaluation samples that must accumulate since the last stripe
    /// change before any rule may fire.
    pub min_samples: u32,
    /// Seconds that must pass since the last stripe change before any
    /// rule may fire (together with `min_samples`, the hysteresis).
    pub cooldown_s: f64,
    /// Storage-saturation gate for widening: observed throughput must
    /// reach `saturation` × the allocation's storage-side capacity
    /// ceiling — i.e. the app's own targets are the bottleneck, so more
    /// targets would help. A network-bound app never clears this.
    pub saturation: f64,
    /// A widen is kept only if it improved observed throughput by this
    /// factor; otherwise the policy narrows back and stops trying.
    pub revert_margin: f64,
    /// Minimum fraction of the application's bytes still in flight for
    /// a widen or re-place to be worth its drain cost. Also guards
    /// against the end-of-run capacity collapse (see
    /// [`AppObservation::remaining_fraction`]).
    pub min_remaining: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            threshold: 1.15,
            min_samples: 3,
            cooldown_s: 0.5,
            saturation: 0.8,
            revert_margin: 1.05,
            min_remaining: 0.25,
        }
    }
}

impl AdaptiveConfig {
    /// Feedback disabled: placement only, no evaluation events, no
    /// restripes — the differential-test configuration.
    pub fn disabled() -> Self {
        AdaptiveConfig {
            threshold: f64::INFINITY,
            ..AdaptiveConfig::default()
        }
    }
}

/// A widen awaiting its verdict: where the app was, and how fast it ran
/// there.
#[derive(Debug, Clone)]
struct WidenMemo {
    prev_targets: Vec<TargetId>,
    rate_before: f64,
}

#[derive(Debug, Clone, Default)]
struct AdaptState {
    /// Pending widen verdict (set when a widen fires, cleared when the
    /// next evaluation keeps or reverts it).
    widened: Option<WidenMemo>,
    /// A widen was reverted: stop proposing widens for this app.
    frozen: bool,
}

/// [`UtilizationFeedback`] placement plus an IOPathTune-style feedback
/// loop over running applications.
///
/// At each evaluation instant the online engine hands the policy one
/// [`AppObservation`] per running app; three rules fire in priority
/// order, each gated by the [`AdaptiveConfig`] hysteresis:
///
/// 1. **Verdict** — a pending widen is kept if observed throughput
///    improved by [`AdaptiveConfig::revert_margin`], otherwise the app
///    narrows back to its previous stripe set and is left alone.
/// 2. **Widen** — when the app saturates its own storage targets
///    (observed ≥ [`AdaptiveConfig::saturation`] × the allocation's
///    storage ceiling) and more targets are online, stripe over *all*
///    online targets — the paper's scenario-2 lesson, discovered from
///    feedback instead of told.
/// 3. **Re-place** — when the allocation is server-imbalanced, the app
///    runs ≥ [`AdaptiveConfig::threshold`]× slower than its solo ideal,
///    and the busy-balanced pick at the same width chooses a different
///    set, move to it — the paper's scenario-1 lesson (balance first).
///
/// Every rule is pure arithmetic over the observation — no clock, no
/// RNG — so decision logs are byte-stable, and with feedback disabled
/// ([`AdaptiveConfig::disabled`]) the policy is byte-identical to
/// [`UtilizationFeedback`] up to its name.
#[derive(Debug, Default)]
pub struct AdaptiveStriping {
    config: AdaptiveConfig,
    state: BTreeMap<usize, AdaptState>,
}

impl AdaptiveStriping {
    /// Build with explicit hysteresis constants.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveStriping {
            config,
            state: BTreeMap::new(),
        }
    }

    /// Placement-only variant (see [`AdaptiveConfig::disabled`]).
    pub fn disabled() -> Self {
        Self::new(AdaptiveConfig::disabled())
    }

    /// The configured hysteresis constants.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }
}

/// Distinct targets of a (possibly wrap-around) stripe set.
fn distinct(targets: &[TargetId]) -> BTreeSet<TargetId> {
    targets.iter().copied().collect()
}

impl PlacementPolicy for AdaptiveStriping {
    fn name(&self) -> &'static str {
        "AdaptiveStriping"
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        view.any_online()?;
        Ok(Placement::Pinned(busy_balanced_pick(view, want, &|_| 0.0)))
    }

    fn wants_feedback(&self) -> bool {
        self.config.threshold.is_finite()
    }

    fn restripe(
        &mut self,
        view: &ClusterView<'_>,
        obs: &AppObservation<'_>,
    ) -> Option<RestripeDecision> {
        if !self.wants_feedback() {
            return None;
        }
        if obs.samples < self.config.min_samples || obs.since_change_s < self.config.cooldown_s {
            return None;
        }
        let st = self.state.entry(obs.app).or_default();

        // Rule 1: pending widen verdict.
        if let Some(memo) = st.widened.take() {
            if obs.observed_bps < self.config.revert_margin * memo.rate_before {
                st.frozen = true;
                return Some(RestripeDecision {
                    targets: memo.prev_targets,
                    kind: RestripeKind::Narrow,
                });
            }
            // Kept: fall through (the wider set may widen again later if
            // more targets come online).
        }

        // Rules 2 and 3 start a new restripe, which only pays if enough
        // of the write is still ahead — and a draining app's falling
        // queue depth fakes storage saturation (its allocation's
        // depth-dependent capacity collapses toward the observed rate).
        if obs.remaining_fraction < self.config.min_remaining {
            return None;
        }

        // Rule 2: widen to all online targets when storage-saturated.
        let all_online: Vec<TargetId> = view
            .online
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o)
            .map(|(i, _)| TargetId(i as u32))
            .collect();
        if !st.frozen
            && all_online.len() > distinct(obs.targets).len()
            && obs.allocated_capacity_bps > 0.0
            && obs.observed_bps >= self.config.saturation * obs.allocated_capacity_bps
        {
            st.widened = Some(WidenMemo {
                prev_targets: obs.targets.to_vec(),
                rate_before: obs.observed_bps,
            });
            return Some(RestripeDecision {
                targets: all_online,
                kind: RestripeKind::Widen,
            });
        }

        // Rule 3: re-place an imbalanced allocation running far from its
        // solo ideal. Same width; fires at most until balance is
        // restored (the pick is balanced, so it cannot re-trigger).
        let counts = view.platform.per_server_counts(obs.targets);
        let imbalanced = counts.iter().copied().max().unwrap_or(0)
            >= counts.iter().copied().min().unwrap_or(0) + 2;
        if imbalanced && obs.ideal_bps >= self.config.threshold * obs.observed_bps {
            let candidate = busy_balanced_pick(view, obs.targets.len() as u32, &|_| 0.0);
            if distinct(&candidate) != distinct(obs.targets) {
                return Some(RestripeDecision {
                    targets: candidate,
                    kind: RestripeKind::Replace,
                });
            }
        }
        None
    }

    fn app_done(&mut self, app: usize) {
        self.state.remove(&app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::presets;
    use simcore::rng::RngFactory;

    fn rng() -> StreamRng {
        RngFactory::new(99).stream("policy-tests", 0)
    }

    /// A view over the PlaFRIM scenario-1 platform (2 servers x 4 OSTs).
    fn view<'a>(
        platform: &'a Platform,
        online: &'a [bool],
        outstanding: &'a [f64],
        busy: &'a [f64],
        suspected: &'a [bool],
    ) -> ClusterView<'a> {
        ClusterView {
            platform,
            online,
            outstanding_bytes: outstanding,
            busy_fraction: busy,
            suspected,
        }
    }

    fn ids(p: &Placement) -> Vec<u32> {
        match p {
            Placement::Pinned(ts) => ts.iter().map(|t| t.0).collect(),
            Placement::Deferred => panic!("expected a pinned placement"),
        }
    }

    #[test]
    fn every_policy_rejects_an_all_offline_pool() {
        let platform = presets::plafrim_ethernet();
        let online = vec![false; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(Random),
            Box::new(RoundRobinServer::default()),
            Box::new(LeastLoadedServer),
            Box::new(UtilizationFeedback),
            Box::new(StragglerAware),
        ];
        for mut p in policies {
            assert!(
                matches!(
                    p.place(&v, 4, 1 << 30, &mut rng()),
                    Err(PolicyError::NoTargetsAvailable)
                ),
                "policy {} accepted an empty pool",
                p.name()
            );
        }
    }

    #[test]
    fn random_defers_to_the_directory_chooser() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        assert_eq!(
            Random.place(&v, 4, 1 << 30, &mut rng()).unwrap(),
            Placement::Deferred
        );
    }

    #[test]
    fn round_robin_alternates_servers() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = RoundRobinServer::default();
        // Servers are {0..3} and {4..7}: picks alternate between them.
        assert_eq!(ids(&p.place(&v, 4, 0, &mut rng()).unwrap()), [0, 4, 1, 5]);
        // Cursors persist: the next placement continues the rotation.
        assert_eq!(ids(&p.place(&v, 4, 0, &mut rng()).unwrap()), [2, 6, 3, 7]);
    }

    #[test]
    fn round_robin_skips_offline_targets() {
        let platform = presets::plafrim_ethernet();
        let mut online = vec![true; platform.total_targets()];
        online[0] = false;
        online[4] = false;
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&RoundRobinServer::default()
            .place(&v, 4, 0, &mut rng())
            .unwrap());
        assert!(!picked.contains(&0) && !picked.contains(&4), "{picked:?}");
    }

    #[test]
    fn least_loaded_spreads_on_an_idle_system() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&LeastLoadedServer.place(&v, 4, 1 << 30, &mut rng()).unwrap());
        let counts =
            platform.per_server_counts(&picked.iter().map(|&t| TargetId(t)).collect::<Vec<_>>());
        assert_eq!(counts, vec![2, 2], "picked {picked:?}");
    }

    #[test]
    fn least_loaded_avoids_the_loaded_server() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        // Server 0 already carries far more volume than one placement adds.
        let outstanding = vec![1e12, 0.0];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&LeastLoadedServer.place(&v, 4, 1 << 30, &mut rng()).unwrap());
        assert_eq!(picked, [4, 5, 6, 7], "everything goes to server 1");
    }

    #[test]
    fn utilization_feedback_prefers_cold_targets() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        // Server 0's targets are hot; server 1's are idle.
        let busy = vec![0.9, 0.9, 0.9, 0.9, 0.0, 0.0, 0.1, 0.1];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&UtilizationFeedback.place(&v, 4, 0, &mut rng()).unwrap());
        assert_eq!(picked, [4, 5, 6, 7], "picked {picked:?}");
    }

    #[test]
    fn utilization_feedback_cold_start_is_balanced() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&UtilizationFeedback.place(&v, 4, 0, &mut rng()).unwrap());
        let counts =
            platform.per_server_counts(&picked.iter().map(|&t| TargetId(t)).collect::<Vec<_>>());
        assert_eq!(counts, vec![2, 2], "picked {picked:?}");
    }

    #[test]
    fn straggler_aware_routes_around_suspected_targets() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        // The detector flagged two of server 0's targets.
        let mut suspected = vec![false; platform.total_targets()];
        suspected[0] = true;
        suspected[1] = true;
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&StragglerAware.place(&v, 4, 0, &mut rng()).unwrap());
        assert!(
            !picked.contains(&0) && !picked.contains(&1),
            "suspected target allocated: {picked:?}"
        );
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn straggler_aware_without_suspects_matches_utilization_feedback() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.3, 0.1, 0.6, 0.0, 0.2, 0.5, 0.0, 0.4];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let a = ids(&StragglerAware.place(&v, 4, 0, &mut rng()).unwrap());
        let b = ids(&UtilizationFeedback.place(&v, 4, 0, &mut rng()).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn straggler_aware_uses_suspects_when_nothing_else_is_online() {
        let platform = presets::plafrim_ethernet();
        let mut online = vec![false; platform.total_targets()];
        online[2] = true;
        online[6] = true;
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![true; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let picked = ids(&StragglerAware.place(&v, 4, 0, &mut rng()).unwrap());
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|t| *t == 2 || *t == 6), "{picked:?}");
    }

    fn obs<'a>(
        app: usize,
        targets: &'a [TargetId],
        observed: f64,
        ideal: f64,
        capacity: f64,
    ) -> AppObservation<'a> {
        AppObservation {
            app,
            targets,
            observed_bps: observed,
            ideal_bps: ideal,
            allocated_capacity_bps: capacity,
            samples: 10,
            since_change_s: 5.0,
            remaining_fraction: 1.0,
        }
    }

    #[test]
    fn adaptive_place_matches_utilization_feedback() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.3, 0.1, 0.6, 0.0, 0.2, 0.5, 0.0, 0.4];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let a = ids(&AdaptiveStriping::default()
            .place(&v, 4, 0, &mut rng())
            .unwrap());
        let b = ids(&UtilizationFeedback.place(&v, 4, 0, &mut rng()).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_widens_when_storage_saturated_and_keeps_a_good_widen() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::default();
        let current = [TargetId(0), TargetId(4), TargetId(1), TargetId(5)];
        // Observed at 95% of the allocation's storage ceiling: widen.
        let d = p
            .restripe(&v, &obs(0, &current, 0.95e9, 1.0e9, 1.0e9))
            .expect("storage-saturated app should widen");
        assert_eq!(d.kind, RestripeKind::Widen);
        assert_eq!(d.targets.len(), platform.total_targets());
        // Throughput nearly doubled on the wider set: the widen is kept.
        let wide = d.targets;
        assert!(p
            .restripe(&v, &obs(0, &wide, 1.8e9, 1.0e9, 2.0e9))
            .is_none());
    }

    #[test]
    fn adaptive_reverts_a_widen_that_did_not_pay_and_freezes() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::default();
        let current = vec![TargetId(0), TargetId(4), TargetId(1), TargetId(5)];
        let d = p
            .restripe(&v, &obs(0, &current, 0.95e9, 1.0e9, 1.0e9))
            .unwrap();
        assert_eq!(d.kind, RestripeKind::Widen);
        // No improvement on the wider set: narrow back to where it was.
        let d = p
            .restripe(&v, &obs(0, &d.targets, 0.96e9, 1.0e9, 2.0e9))
            .expect("unpaid widen should revert");
        assert_eq!(d.kind, RestripeKind::Narrow);
        assert_eq!(d.targets, current);
        // Frozen: the same saturation signal no longer triggers a widen.
        assert!(p
            .restripe(&v, &obs(0, &current, 0.95e9, 1.0e9, 1.0e9))
            .is_none());
    }

    #[test]
    fn adaptive_replaces_an_imbalanced_underperforming_allocation() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::default();
        // All four chunks piled on server 0, running at half ideal, and
        // NOT storage-saturated (capacity headroom says network is not
        // the limit — the pile-up is).
        let piled = [TargetId(0), TargetId(1), TargetId(2), TargetId(3)];
        let d = p
            .restripe(&v, &obs(0, &piled, 0.5e9, 1.0e9, 4.0e9))
            .expect("imbalanced slow app should re-place");
        assert_eq!(d.kind, RestripeKind::Replace);
        let counts = platform.per_server_counts(&d.targets);
        assert_eq!(counts, vec![2, 2], "re-placement is balanced");
        // A balanced allocation never re-triggers the rule.
        assert!(p
            .restripe(&v, &obs(0, &d.targets, 0.5e9, 1.0e9, 4.0e9))
            .is_none());
    }

    #[test]
    fn adaptive_hysteresis_gates_every_rule() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::default();
        let current = [TargetId(0), TargetId(4), TargetId(1), TargetId(5)];
        let mut young = obs(0, &current, 0.95e9, 1.0e9, 1.0e9);
        young.samples = 1;
        assert!(p.restripe(&v, &young).is_none(), "min_samples gate");
        let mut hot = obs(0, &current, 0.95e9, 1.0e9, 1.0e9);
        hot.since_change_s = 0.1;
        assert!(p.restripe(&v, &hot).is_none(), "cooldown gate");
    }

    #[test]
    fn disabled_adaptive_never_restripes_and_wants_no_feedback() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::disabled();
        assert!(!p.wants_feedback());
        assert!(AdaptiveStriping::default().wants_feedback());
        let current = [TargetId(0), TargetId(1), TargetId(2), TargetId(3)];
        assert!(p
            .restripe(&v, &obs(0, &current, 0.1e9, 1.0e9, 0.1e9))
            .is_none());
        assert_eq!(
            p.config().min_samples,
            AdaptiveConfig::default().min_samples
        );
    }

    #[test]
    fn restripe_kind_labels_are_stable() {
        assert_eq!(RestripeKind::Widen.label(), "widen");
        assert_eq!(RestripeKind::Narrow.label(), "narrow");
        assert_eq!(RestripeKind::Replace.label(), "replace");
    }

    #[test]
    fn app_done_clears_feedback_state() {
        let platform = presets::plafrim_ethernet();
        let online = vec![true; platform.total_targets()];
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        let mut p = AdaptiveStriping::default();
        let current = vec![TargetId(0), TargetId(4), TargetId(1), TargetId(5)];
        let d = p
            .restripe(&v, &obs(7, &current, 0.95e9, 1.0e9, 1.0e9))
            .unwrap();
        let _ = p
            .restripe(&v, &obs(7, &d.targets, 0.96e9, 1.0e9, 2.0e9))
            .unwrap(); // reverted → frozen
        p.app_done(7);
        // A fresh run of the same app index starts unfrozen.
        assert!(p
            .restripe(&v, &obs(7, &current, 0.95e9, 1.0e9, 1.0e9))
            .is_some());
    }

    #[test]
    fn demand_beyond_the_online_pool_wraps_around() {
        let platform = presets::plafrim_ethernet();
        let mut online = vec![false; platform.total_targets()];
        online[1] = true;
        online[5] = true;
        let outstanding = vec![0.0; platform.server_count()];
        let busy = vec![0.0; platform.total_targets()];
        let suspected = vec![false; platform.total_targets()];
        let v = view(&platform, &online, &outstanding, &busy, &suspected);
        for policy in [
            &mut RoundRobinServer::default() as &mut dyn PlacementPolicy,
            &mut LeastLoadedServer,
            &mut UtilizationFeedback,
            &mut StragglerAware,
        ] {
            let picked = ids(&policy.place(&v, 4, 1 << 30, &mut rng()).unwrap());
            assert_eq!(picked.len(), 4, "{}: {picked:?}", policy.name());
            assert!(
                picked.iter().all(|t| *t == 1 || *t == 5),
                "{}: {picked:?}",
                policy.name()
            );
        }
    }
}
