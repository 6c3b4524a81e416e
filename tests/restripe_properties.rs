//! Property and differential tests of mid-flight restriping.
//!
//! Two layers, mirroring `solver_properties.rs`:
//!
//! 1. **Byte math** — [`restripe_split`] is pure arithmetic, so its
//!    conservation guarantee is checked exhaustively over randomized
//!    handles (stripe counts, chunk sizes, wrap-around target lists)
//!    and randomized cut points: the drained prefix carries exactly the
//!    issued bytes, both sides together carry exactly the file, and no
//!    slot strays more than one chunk from its fair share.
//!
//! 2. **Engine differentials** — *bit-for-bit* session equality, not a
//!    tolerance:
//!    * a policy that answers every evaluation with a same-set
//!      restripe (even reordered) produces a session byte-identical to
//!      one that never restripes — the engine's no-op drop guarantee;
//!    * [`AdaptiveStriping`]'s placement with its feedback loop left
//!      out is byte-identical to [`UtilizationFeedback`] on the same CRN
//!      streams, up to the policy-name string in the decision log — the
//!      adaptive machinery costs nothing until it acts.

use beegfs_repro::cluster::{presets, TargetId};
use beegfs_repro::core::{
    plafrim_registration_order, restripe_split, BeeGfs, DirConfig, FileHandle, PolicyError,
    StripePattern,
};
use beegfs_repro::ior::IorConfig;
use beegfs_repro::sched::{
    AdaptiveStriping, AdmissionMode, AppObservation, ArrivalStream, ClusterView, Placement,
    PlacementPolicy, RestripeDecision, RestripeKind, SchedOutcome, Scheduler, UtilizationFeedback,
};
use beegfs_repro::simcore::rng::{RngFactory, StreamRng};
use beegfs_repro::simcore::units::{GIB, KIB};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Layer 1: restripe_split byte conservation
// ---------------------------------------------------------------------

/// A randomized striped-file handle: 1–8 slots, chunk sizes from tidy
/// powers of two down to pathological odd sizes, and slot targets drawn
/// with replacement (wrap-around stripe sets are legal and exercised).
fn handle_strategy() -> impl Strategy<Value = FileHandle> {
    (
        1u32..=8,
        prop_oneof![
            Just(4 * KIB),
            Just(64 * KIB),
            Just(512 * KIB),
            Just(KIB + 1),
            Just(777u64),
            Just(1u64),
        ],
        proptest::collection::vec(0u32..16, 8),
    )
        .prop_map(|(count, chunk, ids)| {
            let targets = ids.into_iter().take(count as usize).map(TargetId).collect();
            FileHandle::new(1, targets, StripePattern::new(count, chunk))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the old and new stripe layouts and wherever the cut
    /// lands, the split conserves bytes exactly: `drained == issued`,
    /// `drained + redirected == total`, and each side lists its
    /// handle's slots verbatim.
    #[test]
    fn split_conserves_bytes_at_any_cut(
        old in handle_strategy(),
        new in handle_strategy(),
        total in 1u64..=4 * GIB,
        cut_ppm in 0u64..=1_000_000,
    ) {
        let issued = ((total as u128 * cut_ppm as u128) / 1_000_000) as u64;
        let split = restripe_split(&old, &new, total, issued);

        let drained: u64 = split.drained.iter().map(|(_, b)| b).sum();
        let redirected: u64 = split.redirected.iter().map(|(_, b)| b).sum();
        prop_assert_eq!(drained, issued);
        prop_assert_eq!(drained + redirected, total);
        prop_assert_eq!(split.total_bytes(), total);

        // Each side maps slot-for-slot onto its own handle's targets.
        let drained_targets: Vec<TargetId> =
            split.drained.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(drained_targets, old.targets.clone());
        let redirected_targets: Vec<TargetId> =
            split.redirected.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(redirected_targets, new.targets.clone());

        // Round-robin chunking keeps every slot within one chunk of its
        // fair share, on both sides of the cut.
        let old_share = issued as f64 / old.pattern.stripe_count as f64;
        for (t, b) in &split.drained {
            prop_assert!(
                (*b as f64 - old_share).abs() <= old.pattern.chunk_size as f64,
                "drained slot {t} carries {b}, fair share {old_share}"
            );
        }
        let new_share =
            (total - issued) as f64 / new.pattern.stripe_count as f64;
        for (t, b) in &split.redirected {
            prop_assert!(
                (*b as f64 - new_share).abs() <= new.pattern.chunk_size as f64,
                "redirected slot {t} carries {b}, fair share {new_share}"
            );
        }
    }

    /// The degenerate cuts are exact identities: a cut at zero drains
    /// nothing and redirects the whole file exactly as a fresh write on
    /// the new handle would distribute it; a cut at the end redirects
    /// nothing and drains the file exactly as the old handle wrote it.
    #[test]
    fn split_edges_are_identities(
        old in handle_strategy(),
        new in handle_strategy(),
        total in 1u64..=4 * GIB,
    ) {
        let at_zero = restripe_split(&old, &new, total, 0);
        prop_assert!(at_zero.drained.iter().all(|(_, b)| *b == 0));
        prop_assert_eq!(at_zero.redirected, new.bytes_per_target(0, total));

        let at_end = restripe_split(&old, &new, total, total);
        prop_assert!(at_end.redirected.iter().all(|(_, b)| *b == 0));
        prop_assert_eq!(at_end.drained, old.bytes_per_target(0, total));
    }
}

// ---------------------------------------------------------------------
// Layer 2: engine differentials (bit-for-bit)
// ---------------------------------------------------------------------

/// Placement shared by the probe-policy pair: the first `want` online
/// targets in id order — deterministic and RNG-free, so the paired
/// sessions differ in nothing but their restripe answers.
fn first_online(view: &ClusterView<'_>, want: u32) -> Result<Placement, PolicyError> {
    let picks: Vec<TargetId> = view
        .online
        .iter()
        .enumerate()
        .filter(|&(_, &o)| o)
        .take(want as usize)
        .map(|(i, _)| TargetId(i as u32))
        .collect();
    if picks.is_empty() {
        return Err(PolicyError::NoTargetsAvailable);
    }
    Ok(Placement::Pinned(picks))
}

/// Wants feedback, never acts on it: the engine schedules evaluation
/// events and hands over observations, and the policy answers `None`.
#[derive(Debug)]
struct NeverRestripe;

impl PlacementPolicy for NeverRestripe {
    fn name(&self) -> &'static str {
        "RestripeProbe"
    }
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        first_online(view, want)
    }
    fn wants_feedback(&self) -> bool {
        true
    }
}

/// Answers *every* observation with a restripe onto the app's current
/// target set, rotated one slot — a different list, the same distinct
/// set. The engine must drop each one before it touches a flow.
#[derive(Debug)]
struct SameSetRestripe;

impl PlacementPolicy for SameSetRestripe {
    fn name(&self) -> &'static str {
        "RestripeProbe"
    }
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        _bytes: u64,
        _rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        first_online(view, want)
    }
    fn wants_feedback(&self) -> bool {
        true
    }
    fn restripe(
        &mut self,
        _view: &ClusterView<'_>,
        obs: &AppObservation<'_>,
    ) -> Option<RestripeDecision> {
        let mut targets = obs.targets.to_vec();
        targets.rotate_left(1);
        Some(RestripeDecision {
            targets,
            kind: RestripeKind::Replace,
        })
    }
}

/// [`AdaptiveStriping`]'s name and placement without its feedback loop:
/// it wants no feedback, so the engine schedules no evaluation events.
#[derive(Debug, Default)]
struct AdaptivePlacementOnly(AdaptiveStriping);

impl PlacementPolicy for AdaptivePlacementOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        self.0.place(view, want, bytes, rng)
    }
    fn wants_feedback(&self) -> bool {
        false
    }
}

/// A contended online session: 12 overlapping arrivals on the Ethernet
/// deployment, so evaluation instants fire with several apps running.
fn serve_online(policy: Box<dyn PlacementPolicy>, seed: u64) -> SchedOutcome {
    let factory = RngFactory::new(seed);
    let stream = ArrivalStream::poisson(
        0.35,
        12,
        IorConfig::paper_default(4).with_total_bytes(4 * GIB),
        4,
        &mut factory.stream("arrivals", 0),
    );
    let mut fs = BeeGfs::new(
        presets::plafrim_ethernet(),
        DirConfig::plafrim_default(),
        plafrim_registration_order(),
    );
    Scheduler::new(&mut fs, policy)
        .mode(AdmissionMode::Online)
        .serve(&stream, &factory)
        .unwrap()
}

/// Bit-for-bit session equality: every float compared by its bit
/// pattern, every count exactly — no tolerance anywhere.
fn assert_sessions_bit_identical(a: &SchedOutcome, b: &SchedOutcome) {
    assert_eq!(a.apps.len(), b.apps.len());
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.app, y.app);
        assert_eq!(
            x.arrival_s.to_bits(),
            y.arrival_s.to_bits(),
            "app {}",
            x.app
        );
        assert_eq!(x.admit_s.to_bits(), y.admit_s.to_bits(), "app {}", x.app);
        assert_eq!(x.end_s.to_bits(), y.end_s.to_bits(), "app {}", x.app);
        assert_eq!(x.wait_s.to_bits(), y.wait_s.to_bits(), "app {}", x.app);
        assert_eq!(
            x.duration_s.to_bits(),
            y.duration_s.to_bits(),
            "app {}",
            x.app
        );
        assert_eq!(x.ideal_s.to_bits(), y.ideal_s.to_bits(), "app {}", x.app);
        assert_eq!(x.slowdown.to_bits(), y.slowdown.to_bits(), "app {}", x.app);
        assert_eq!(x.bytes, y.bytes, "app {}", x.app);
        assert_eq!(x.targets, y.targets, "app {}", x.app);
        assert_eq!(
            x.bandwidth.bytes_per_sec().to_bits(),
            y.bandwidth.bytes_per_sec().to_bits(),
            "app {}",
            x.app
        );
    }
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    assert_eq!(
        a.aggregate.bytes_per_sec().to_bits(),
        b.aggregate.bytes_per_sec().to_bits()
    );
    assert_eq!(a.sim_events, b.sim_events);
}

/// The engine's no-op drop: a same-distinct-set restripe decision —
/// even a reordered one, at every single evaluation instant — leaves
/// the session bit-identical to never restriping. No drains, no flow
/// churn, no restripe records, no decision-log drift.
#[test]
fn same_set_restripe_is_bit_identical_to_never_restriping() {
    let never = serve_online(Box::new(NeverRestripe), 11);
    let same_set = serve_online(Box::new(SameSetRestripe), 11);

    assert!(
        never.restripes.is_empty() && same_set.restripes.is_empty(),
        "no-op decisions must not produce restripe records"
    );
    assert_sessions_bit_identical(&never, &same_set);
    assert_eq!(never.decision_log_json(), same_set.decision_log_json());
    assert_eq!(never.restripe_log_json(), same_set.restripe_log_json());
}

/// `AdaptiveStriping`'s placement without its feedback loop serves the
/// same CRN streams byte-identically to `UtilizationFeedback` — same
/// placements, same event count (no evaluation events are even
/// scheduled), and a decision log that differs only in the policy-name
/// string.
#[test]
fn disabled_adaptive_is_byte_identical_to_utilization_feedback() {
    let fixed = serve_online(Box::<UtilizationFeedback>::default(), 11);
    let adaptive = serve_online(Box::<AdaptivePlacementOnly>::default(), 11);

    assert_sessions_bit_identical(&fixed, &adaptive);
    assert_eq!(
        adaptive
            .decision_log_json()
            .replace("AdaptiveStriping", "UtilizationFeedback"),
        fixed.decision_log_json(),
        "decision logs must agree up to the policy name"
    );
    assert_eq!(adaptive.restripe_log_json(), fixed.restripe_log_json());
    assert!(adaptive.restripes.is_empty());
}
