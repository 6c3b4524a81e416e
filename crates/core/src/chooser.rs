//! Target-selection heuristics.
//!
//! When a file is created, the metadata server asks the management
//! service for `stripe_count` targets. BeeGFS ships several heuristics;
//! the paper contrasts two and motivates a third:
//!
//! * [`ChooserKind::RoundRobin`] — deterministic rotation over the target
//!   registration order. This is what the PlaFRIM vendor configured; with
//!   the deployment's registration order it *always* yields a `(1,3)`
//!   placement for the default stripe count of 4 (§IV-C1).
//! * [`ChooserKind::Random`] — BeeGFS's default: sample targets uniformly
//!   without replacement, which makes every `(min,max)` split possible
//!   (and performance with intermediate stripe counts highly variable).
//! * [`ChooserKind::Balanced`] — the heuristic lesson 4 calls for: pick
//!   the same number of targets on every server (as evenly as the counts
//!   allow), randomizing which slots are used.

use crate::error::{PolicyError, StripeError};
use crate::stripe::StripePattern;
use cluster::{Platform, ServerId, TargetId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use simcore::rng::{sample_without_replacement, StreamRng};

/// Which heuristic a directory uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChooserKind {
    /// Rotating window over the registration order.
    RoundRobin,
    /// Uniform sampling without replacement (BeeGFS default).
    Random,
    /// Even per-server counts, random slots (the paper's recommendation
    /// for deployments that keep stripe counts below the maximum).
    Balanced,
}

/// One placement decision: the chosen targets plus the metadata a
/// decision log needs to replay or audit the choice.
///
/// Shared between the in-filesystem chooser (every
/// [`TargetSelector::decide`] yields one) and external allocation
/// policies (the `sched` crate's policies produce the same type), so a
/// single decision-log format covers both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// The chosen targets, in selection order.
    pub targets: Vec<TargetId>,
    /// The heuristic that produced the selection.
    pub kind: ChooserKind,
    /// The selector's round-robin cursor *before* this decision (slot
    /// units) — enough to replay a round-robin choice exactly.
    pub cursor_before: u64,
}

/// The target selector: heuristic + management-service state.
#[derive(Debug, Clone)]
pub struct TargetSelector {
    kind: ChooserKind,
    /// Registration order of targets at the management service; the
    /// round-robin window slides over this.
    order: Vec<TargetId>,
    /// Round-robin cursor in *slot* units: each file creation consumes
    /// `stripe_count` slots, exactly like BeeGFS's rotating index. Other
    /// tenants' creations advance it too (see `advance_cursor`).
    cursor: u64,
    /// Targets currently eligible (online). Index-aligned with flat ids.
    online: Vec<bool>,
}

/// PlaFRIM's target registration order.
///
/// Reverse-engineered from the paper's observation that the round-robin
/// heuristic with stripe count 4 always produces one of exactly two
/// allocations — `(101, 201, 202, 203)` or `(204, 102, 103, 104)`, both
/// `(1,3)` — which pins the order to
/// `[101, 201, 202, 203, 204, 102, 103, 104]` with the window advancing
/// by the stripe count on every file create.
pub fn plafrim_registration_order() -> Vec<TargetId> {
    [0u32, 4, 5, 6, 7, 1, 2, 3]
        .into_iter()
        .map(TargetId)
        .collect()
}

impl TargetSelector {
    /// A selector over the platform's targets in flat (server-major)
    /// registration order.
    pub fn new(kind: ChooserKind, platform: &Platform) -> Self {
        Self::with_order(kind, platform, platform.all_targets())
    }

    /// A selector with an explicit registration order (e.g.
    /// [`plafrim_registration_order`]).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the platform's targets.
    pub fn with_order(kind: ChooserKind, platform: &Platform, order: Vec<TargetId>) -> Self {
        let n = platform.total_targets();
        assert_eq!(order.len(), n, "registration order must list every target");
        let mut seen = vec![false; n];
        for t in &order {
            assert!(t.index() < n, "unknown target {t} in registration order");
            assert!(
                !seen[t.index()],
                "duplicate target {t} in registration order"
            );
            seen[t.index()] = true;
        }
        TargetSelector {
            kind,
            order,
            cursor: 0,
            online: vec![true; n],
        }
    }

    /// The heuristic in use.
    pub fn kind(&self) -> ChooserKind {
        self.kind
    }

    /// Mark a target offline (excluded from future selections) or back
    /// online.
    pub fn set_online(&mut self, t: TargetId, online: bool) {
        self.online[t.index()] = online;
    }

    /// Number of currently eligible targets.
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&o| o).count()
    }

    /// The current round-robin cursor (slot units).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Set the round-robin cursor (slot units). The `BeeGfs` facade uses
    /// this to model the unknown file-creation history between benchmark
    /// runs (§III-C protocol).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Advance the cursor by `slots`, as if other tenants had created
    /// files consuming that many stripe slots.
    pub fn advance_cursor(&mut self, slots: u64) {
        self.cursor = self.cursor.wrapping_add(slots);
    }

    /// Choose targets for a new file.
    ///
    /// Fails with [`StripeError::Policy`] ([`PolicyError::NoTargetsAvailable`])
    /// when *every* target is offline, and with
    /// [`StripeError::NotEnoughTargets`] when some are online but fewer
    /// than `pattern.stripe_count`; the cursor is left untouched in
    /// either case.
    pub fn choose(
        &mut self,
        platform: &Platform,
        pattern: StripePattern,
        rng: &mut StreamRng,
    ) -> Result<Vec<TargetId>, StripeError> {
        self.decide(platform, pattern, rng).map(|d| d.targets)
    }

    /// Choose targets for a new file, returning the full
    /// [`PlacementDecision`] (targets + replay metadata).
    ///
    /// Same failure modes as [`TargetSelector::choose`].
    pub fn decide(
        &mut self,
        platform: &Platform,
        pattern: StripePattern,
        rng: &mut StreamRng,
    ) -> Result<PlacementDecision, StripeError> {
        let want = pattern.stripe_count as usize;
        if self.online_count() == 0 {
            // An all-offline pool is a policy failure, not a sizing
            // problem: no stripe width could succeed, and the round-robin
            // heuristic would otherwise divide by an empty pool.
            return Err(PolicyError::NoTargetsAvailable.into());
        }
        if want > self.online_count() {
            return Err(StripeError::NotEnoughTargets {
                wanted: pattern.stripe_count,
                online: self.online_count(),
            });
        }
        let chosen = match self.kind {
            ChooserKind::RoundRobin => self.choose_round_robin(want),
            ChooserKind::Random => self.choose_random(want, rng),
            ChooserKind::Balanced => self.choose_balanced(platform, want, rng),
        };
        let cursor_before = self.cursor;
        self.cursor = self.cursor.wrapping_add(want as u64);
        debug_assert_eq!(chosen.len(), want);
        Ok(PlacementDecision {
            targets: chosen,
            kind: self.kind,
            cursor_before,
        })
    }

    fn choose_round_robin(&self, want: usize) -> Vec<TargetId> {
        // The window slides by `stripe_count` per created file, over the
        // *online* targets in registration order.
        let pool: Vec<TargetId> = self
            .order
            .iter()
            .copied()
            .filter(|t| self.online[t.index()])
            .collect();
        let n = pool.len();
        let offset = (self.cursor % n as u64) as usize;
        (0..want).map(|k| pool[(offset + k) % n]).collect()
    }

    fn choose_random(&self, want: usize, rng: &mut StreamRng) -> Vec<TargetId> {
        let pool: Vec<TargetId> = (0..self.online.len())
            .filter(|&i| self.online[i])
            .map(|i| TargetId(i as u32))
            .collect();
        sample_without_replacement(pool.len(), want, rng)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    fn choose_balanced(
        &self,
        platform: &Platform,
        want: usize,
        rng: &mut StreamRng,
    ) -> Vec<TargetId> {
        // Distribute `want` across servers as evenly as the online slot
        // counts allow: repeatedly grant one slot to the eligible server
        // with the fewest granted so far (ties broken randomly).
        let m = platform.server_count();
        let online_per_server: Vec<Vec<TargetId>> = (0..m)
            .map(|s| {
                platform
                    .targets_of(ServerId(s as u32))
                    .into_iter()
                    .filter(|t| self.online[t.index()])
                    .collect()
            })
            .collect();
        let mut granted = vec![0usize; m];
        for _ in 0..want {
            let candidates: Vec<usize> = (0..m)
                .filter(|&s| granted[s] < online_per_server[s].len())
                .collect();
            let least = candidates
                .iter()
                .map(|&s| granted[s])
                .min()
                .expect("selector invariant: enough online targets");
            let tied: Vec<usize> = candidates
                .into_iter()
                .filter(|&s| granted[s] == least)
                .collect();
            let pick = tied[rng.gen_range(0..tied.len())];
            granted[pick] += 1;
        }
        let mut chosen = Vec::with_capacity(want);
        for (s, &g) in granted.iter().enumerate() {
            if g == 0 {
                continue;
            }
            let slots = sample_without_replacement(online_per_server[s].len(), g, rng);
            chosen.extend(slots.into_iter().map(|i| online_per_server[s][i]));
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Allocation;
    use cluster::presets;
    use simcore::rng::RngFactory;
    use std::collections::{HashMap, HashSet};

    fn rng(i: u64) -> StreamRng {
        RngFactory::new(77).stream("chooser-tests", i)
    }

    fn pattern(s: u32) -> StripePattern {
        StripePattern::new(s, 512 * 1024)
    }

    /// Randomize a cursor the way the `BeeGfs` facade does between runs:
    /// an unknown mix of default-stripe (4) creations by other tenants
    /// and own-config (stripe) creations by earlier repetitions.
    fn history_cursor(stripe: u32, r: &mut StreamRng) -> u64 {
        let a = u64::from(r.gen::<u16>());
        let b = u64::from(r.gen::<u16>());
        4 * a + u64::from(stripe) * b
    }

    /// Run the chooser many times with a randomized cursor and collect the
    /// distribution of `(min,max)` labels.
    fn label_distribution(kind: ChooserKind, stripe: u32, reps: usize) -> HashMap<String, usize> {
        let p = presets::plafrim_ethernet();
        let mut counts = HashMap::new();
        let mut r = rng(u64::from(stripe));
        for _ in 0..reps {
            let mut sel = TargetSelector::with_order(kind, &p, plafrim_registration_order());
            let c = history_cursor(stripe, &mut r);
            sel.set_cursor(c);
            let chosen = sel.choose(&p, pattern(stripe), &mut r).unwrap();
            let a = Allocation::classify(&p, &chosen);
            *counts.entry(a.label()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn round_robin_stripe4_is_always_one_three() {
        // §IV-C1: "the round-robin heuristic used in PlaFRIM always makes
        // a (1,3) allocation" for stripe count 4 — and only the two
        // specific target sets are ever produced.
        let p = presets::plafrim_ethernet();
        let mut r = rng(1);
        let mut seen_sets = HashSet::new();
        for _ in 0..200 {
            let mut sel = TargetSelector::with_order(
                ChooserKind::RoundRobin,
                &p,
                plafrim_registration_order(),
            );
            let c = history_cursor(4, &mut r);
            sel.set_cursor(c);
            let mut chosen = sel.choose(&p, pattern(4), &mut r).unwrap();
            assert_eq!(Allocation::classify(&p, &chosen).label(), "(1,3)");
            chosen.sort();
            seen_sets.insert(chosen);
        }
        assert_eq!(seen_sets.len(), 2, "exactly two stripe-4 allocations exist");
    }

    #[test]
    fn round_robin_bimodal_stripe_counts() {
        // §IV-C1: stripe counts 2, 3, 5 and 6 show bi-modal allocations.
        for (stripe, expected) in [
            (2u32, ["(1,1)", "(0,2)"]),
            (3, ["(1,2)", "(0,3)"]),
            (5, ["(1,4)", "(2,3)"]),
            (6, ["(2,4)", "(3,3)"]),
        ] {
            let dist = label_distribution(ChooserKind::RoundRobin, stripe, 400);
            assert_eq!(dist.len(), 2, "stripe {stripe}: {dist:?}");
            for label in expected {
                assert!(
                    dist.contains_key(label),
                    "stripe {stripe} missing {label}: {dist:?}"
                );
            }
        }
    }

    #[test]
    fn round_robin_unimodal_stripe_counts() {
        for (stripe, expected) in [(1u32, "(0,1)"), (7, "(3,4)"), (8, "(4,4)")] {
            let dist = label_distribution(ChooserKind::RoundRobin, stripe, 200);
            assert_eq!(dist.len(), 1, "stripe {stripe}: {dist:?}");
            assert!(dist.contains_key(expected), "stripe {stripe}: {dist:?}");
        }
    }

    #[test]
    fn round_robin_never_produces_two_two_with_stripe_four() {
        // §IV-C1: "(2,2) never happened in 100 repetitions".
        let dist = label_distribution(ChooserKind::RoundRobin, 4, 400);
        assert!(!dist.contains_key("(2,2)"), "{dist:?}");
    }

    #[test]
    fn random_chooser_produces_two_two_sometimes() {
        // With random selection the balanced (2,2) becomes reachable
        // (§IV-C1 discusses exactly this what-if).
        let dist = label_distribution(ChooserKind::Random, 4, 600);
        assert!(dist.contains_key("(2,2)"), "{dist:?}");
        assert!(dist.contains_key("(1,3)"), "{dist:?}");
        assert!(dist.contains_key("(0,4)"), "{dist:?}");
    }

    #[test]
    fn random_chooser_uniform_over_targets() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(9);
        let mut sel = TargetSelector::new(ChooserKind::Random, &p);
        let mut counts = [0usize; 8];
        let reps = 4000;
        for _ in 0..reps {
            for t in sel.choose(&p, pattern(2), &mut r).unwrap() {
                counts[t.index()] += 1;
            }
        }
        // Each target expected reps * 2/8 = 1000.
        for &c in &counts {
            assert!((850..1150).contains(&c), "count {c} outside band");
        }
    }

    #[test]
    fn balanced_chooser_always_balanced_for_even_counts() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(10);
        for stripe in [2u32, 4, 6, 8] {
            for _ in 0..100 {
                let mut sel = TargetSelector::new(ChooserKind::Balanced, &p);
                let chosen = sel.choose(&p, pattern(stripe), &mut r).unwrap();
                let a = Allocation::classify(&p, &chosen);
                assert!(a.is_balanced(), "stripe {stripe}: {}", a.label());
            }
        }
    }

    #[test]
    fn balanced_chooser_off_by_one_for_odd_counts() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(11);
        for stripe in [1u32, 3, 5, 7] {
            let mut sel = TargetSelector::new(ChooserKind::Balanced, &p);
            let chosen = sel.choose(&p, pattern(stripe), &mut r).unwrap();
            let (min, max) = Allocation::classify(&p, &chosen).min_max();
            assert!(max - min <= 1, "stripe {stripe}: ({min},{max})");
        }
    }

    #[test]
    fn offline_targets_are_never_chosen() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(12);
        for kind in [
            ChooserKind::RoundRobin,
            ChooserKind::Random,
            ChooserKind::Balanced,
        ] {
            let mut sel = TargetSelector::new(kind, &p);
            sel.set_online(TargetId(2), false);
            sel.set_online(TargetId(5), false);
            assert_eq!(sel.online_count(), 6);
            for _ in 0..50 {
                let chosen = sel.choose(&p, pattern(4), &mut r).unwrap();
                assert!(!chosen.contains(&TargetId(2)), "{kind:?}");
                assert!(!chosen.contains(&TargetId(5)), "{kind:?}");
            }
        }
    }

    #[test]
    fn overcommitting_online_pool_is_a_typed_error() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(13);
        let mut sel = TargetSelector::new(ChooserKind::Random, &p);
        sel.set_online(TargetId(0), false);
        sel.set_online(TargetId(1), false);
        let before = sel.cursor();
        let err = sel.choose(&p, pattern(7), &mut r).unwrap_err();
        assert_eq!(
            err,
            StripeError::NotEnoughTargets {
                wanted: 7,
                online: 6
            }
        );
        assert!(err.to_string().contains("only 6 online"));
        assert_eq!(
            sel.cursor(),
            before,
            "failed choose must not advance the cursor"
        );
    }

    #[test]
    fn all_offline_pool_is_a_policy_error_not_an_empty_allocation() {
        // Regression: with every target offline, RoundRobin used to panic
        // (cursor % 0) and Random/Balanced silently returned an empty
        // allocation for stripe count 0. All three must now fail with the
        // typed policy error, whatever the requested width.
        use crate::error::PolicyError;
        let p = presets::plafrim_ethernet();
        let mut r = rng(16);
        for kind in [
            ChooserKind::RoundRobin,
            ChooserKind::Random,
            ChooserKind::Balanced,
        ] {
            let mut sel = TargetSelector::new(kind, &p);
            for i in 0..8 {
                sel.set_online(TargetId(i), false);
            }
            let before = sel.cursor();
            for stripe in [0u32, 1, 4] {
                let err = sel
                    .choose(
                        &p,
                        StripePattern {
                            stripe_count: stripe,
                            ..pattern(4)
                        },
                        &mut r,
                    )
                    .unwrap_err();
                assert_eq!(
                    err,
                    StripeError::Policy(PolicyError::NoTargetsAvailable),
                    "{kind:?} stripe {stripe}"
                );
            }
            assert_eq!(sel.cursor(), before, "failed choose must not advance");
        }
    }

    #[test]
    fn decide_reports_replayable_metadata() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(17);
        let mut sel =
            TargetSelector::with_order(ChooserKind::RoundRobin, &p, plafrim_registration_order());
        sel.set_cursor(6);
        let d = sel.decide(&p, pattern(4), &mut r).unwrap();
        assert_eq!(d.kind, ChooserKind::RoundRobin);
        assert_eq!(d.cursor_before, 6);
        assert_eq!(d.targets.len(), 4);
        assert_eq!(sel.cursor(), 10);
        // decide() and choose() are the same decision.
        let mut sel2 =
            TargetSelector::with_order(ChooserKind::RoundRobin, &p, plafrim_registration_order());
        sel2.set_cursor(6);
        let mut r2 = rng(17);
        assert_eq!(sel2.choose(&p, pattern(4), &mut r2).unwrap(), d.targets);
    }

    #[test]
    fn choices_contain_no_duplicates() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(14);
        for kind in [
            ChooserKind::RoundRobin,
            ChooserKind::Random,
            ChooserKind::Balanced,
        ] {
            let mut sel = TargetSelector::new(kind, &p);
            for stripe in 1..=8u32 {
                let chosen = sel.choose(&p, pattern(stripe), &mut r).unwrap();
                let set: HashSet<_> = chosen.iter().collect();
                assert_eq!(set.len(), stripe as usize, "{kind:?} stripe {stripe}");
            }
        }
    }

    #[test]
    fn consecutive_rr_creates_advance_the_window() {
        let p = presets::plafrim_ethernet();
        let mut r = rng(15);
        let mut sel =
            TargetSelector::with_order(ChooserKind::RoundRobin, &p, plafrim_registration_order());
        let first = sel.choose(&p, pattern(4), &mut r).unwrap();
        let second = sel.choose(&p, pattern(4), &mut r).unwrap();
        assert_ne!(first, second, "window must advance between creates");
        let third = sel.choose(&p, pattern(4), &mut r).unwrap();
        assert_eq!(first, third, "8 targets / stripe 4 cycles with period 2");
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn bad_registration_order_rejected() {
        let p = presets::plafrim_ethernet();
        let mut order = plafrim_registration_order();
        order[1] = order[0];
        let _ = TargetSelector::with_order(ChooserKind::RoundRobin, &p, order);
    }
}
