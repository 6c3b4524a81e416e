//! Property tests of the BeeGFS model invariants: striping conservation,
//! allocation classification, and chooser validity.

use beegfs_core::{
    plafrim_registration_order, Allocation, ChooserKind, FileHandle, StripePattern, TargetSelector,
};
use cluster::{presets, TargetId};
use proptest::prelude::*;
use simcore::rng::RngFactory;

/// The reference split: the per-slot distribution built chunk range by
/// chunk range into a vector, as `StripePattern` computed it before its
/// non-allocating `slot_bytes`.
fn reference_bytes_per_slot(p: &StripePattern, offset: u64, len: u64) -> Vec<u64> {
    let sc = u64::from(p.stripe_count);
    let mut out = vec![0u64; p.stripe_count as usize];
    if len == 0 {
        return out;
    }
    let first_chunk = p.chunk_of(offset);
    let last_chunk = p.chunk_of(offset + len - 1);
    if first_chunk == last_chunk {
        out[(first_chunk % sc) as usize] = len;
        return out;
    }
    // Partial head chunk.
    let head = (first_chunk + 1) * p.chunk_size - offset;
    out[(first_chunk % sc) as usize] += head;
    // Partial tail chunk.
    let tail = offset + len - last_chunk * p.chunk_size;
    out[(last_chunk % sc) as usize] += tail;
    // Whole chunks in between: distribute by counting how many of the
    // chunk indices in (first, last) land on each slot.
    let n_mid = last_chunk - first_chunk - 1;
    if n_mid > 0 {
        let per_slot = n_mid / sc;
        for slot_bytes in out.iter_mut() {
            *slot_bytes += per_slot * p.chunk_size;
        }
        let rem = n_mid % sc;
        for k in 0..rem {
            let chunk = first_chunk + 1 + per_slot * sc + k;
            out[(chunk % sc) as usize] += p.chunk_size;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_bytes_matches_the_reference_split(
        stripe in 1u32..=1000,
        chunk in 1u64..(1 << 30),
        offset in 0u64..(1 << 50),
        shape in 0u32..4,
        raw_len in 0u64..(1 << 40),
    ) {
        // Empty, sub-chunk, a few stripe rounds, or anything.
        let p = StripePattern::new(stripe, chunk);
        let len = match shape {
            0 => 0,
            1 => raw_len % chunk,
            2 => raw_len % (3 * chunk * u64::from(stripe)),
            _ => raw_len,
        };
        let split: Vec<u64> = p.slot_bytes(offset, len).collect();
        prop_assert_eq!(split, reference_bytes_per_slot(&p, offset, len));
    }

    #[test]
    fn slot_bytes_conserves_and_bounds(
        stripe in 1u32..=16,
        chunk_pow in 12u32..=21, // 4 KiB .. 2 MiB chunks
        offset in 0u64..(1 << 36),
        len in 0u64..(1 << 32),
    ) {
        let p = StripePattern::new(stripe, 1 << chunk_pow);
        let slots: Vec<u64> = p.slot_bytes(offset, len).collect();
        prop_assert_eq!(slots.len(), stripe as usize);
        prop_assert_eq!(slots.iter().sum::<u64>(), len);
        // No slot exceeds its ideal share by more than one chunk.
        let ideal = len / u64::from(stripe);
        for &b in &slots {
            prop_assert!(b <= ideal + 2 * p.chunk_size,
                "slot got {b} of {len} (ideal {ideal})");
        }
    }

    #[test]
    fn slot_bytes_is_additive_in_ranges(
        stripe in 1u32..=8,
        offset in 0u64..(1 << 30),
        a in 0u64..(1 << 26),
        b in 0u64..(1 << 26),
    ) {
        // Splitting a contiguous write anywhere distributes identically:
        // per-slot(o, a+b) == per-slot(o, a) + per-slot(o+a, b).
        let p = StripePattern::new(stripe, 512 * 1024);
        let whole: Vec<u64> = p.slot_bytes(offset, a + b).collect();
        let first: Vec<u64> = p.slot_bytes(offset, a).collect();
        let second: Vec<u64> = p.slot_bytes(offset + a, b).collect();
        for i in 0..stripe as usize {
            prop_assert_eq!(whole[i], first[i] + second[i], "slot {}", i);
        }
    }

    #[test]
    fn slot_of_is_consistent_with_slot_bytes(
        stripe in 1u32..=8,
        offset in 0u64..(1 << 30),
    ) {
        // A 1-byte write lands exactly on slot_of(offset).
        let p = StripePattern::new(stripe, 512 * 1024);
        let slots: Vec<u64> = p.slot_bytes(offset, 1).collect();
        let hit: Vec<usize> = slots.iter().enumerate()
            .filter(|(_, &b)| b > 0).map(|(i, _)| i).collect();
        prop_assert_eq!(hit, vec![p.slot_of(offset) as usize]);
    }

    #[test]
    fn file_handle_distribution_matches_pattern(
        stripe in 1u32..=8,
        offset in 0u64..(1 << 28),
        len in 1u64..(1 << 28),
    ) {
        let p = StripePattern::new(stripe, 512 * 1024);
        let targets: Vec<TargetId> = (0..stripe).map(TargetId).collect();
        let f = FileHandle::new(0, targets.clone(), p);
        let by_target = f.bytes_per_target(offset, len);
        let by_slot: Vec<u64> = p.slot_bytes(offset, len).collect();
        for (slot, (t, bytes)) in by_target.iter().enumerate() {
            prop_assert_eq!(*t, targets[slot]);
            prop_assert_eq!(*bytes, by_slot[slot]);
        }
    }

    #[test]
    fn allocation_classification_invariants(
        sel in prop::collection::btree_set(0u32..8, 0..=8),
    ) {
        let platform = presets::plafrim_ethernet();
        let selection: Vec<TargetId> = sel.into_iter().map(TargetId).collect();
        let a = Allocation::classify(&platform, &selection);
        prop_assert_eq!(a.total(), selection.len());
        let (min, max) = a.min_max();
        prop_assert!(min <= max);
        prop_assert!(max <= 4, "a server has only 4 targets");
        prop_assert!(a.balance() >= 0.0 && a.balance() <= 1.0);
        prop_assert_eq!(a.is_balanced(), min == max);
        prop_assert_eq!(a.label(), format!("({min},{max})"));
    }

    #[test]
    fn every_chooser_returns_valid_selections(
        kind_idx in 0usize..3,
        stripe in 1u32..=8,
        cursor in 0u64..10_000,
        seed in 0u64..500,
    ) {
        let kind = [ChooserKind::RoundRobin, ChooserKind::Random, ChooserKind::Balanced][kind_idx];
        let platform = presets::plafrim_ethernet();
        let mut sel = TargetSelector::with_order(kind, &platform, plafrim_registration_order());
        sel.set_cursor(cursor);
        let mut rng = RngFactory::new(seed).stream("prop-chooser", 0);
        let pattern = StripePattern::new(stripe, 512 * 1024);
        let chosen = sel.choose(&platform, pattern, &mut rng).unwrap();
        prop_assert_eq!(chosen.len(), stripe as usize);
        let mut dedup = chosen.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), stripe as usize, "duplicates in {:?}", chosen);
        prop_assert!(chosen.iter().all(|t| t.index() < 8));
    }

    #[test]
    fn round_robin_window_is_contiguous_in_registration_order(
        stripe in 1u32..=8,
        cursor in 0u64..1_000,
    ) {
        // The RR selection is always `stripe` consecutive entries of the
        // registration order starting at cursor % 8.
        let platform = presets::plafrim_ethernet();
        let order = plafrim_registration_order();
        let mut sel = TargetSelector::with_order(
            ChooserKind::RoundRobin, &platform, order.clone());
        sel.set_cursor(cursor);
        let mut rng = RngFactory::new(1).stream("prop-rr", 0);
        let chosen = sel.choose(&platform, StripePattern::new(stripe, 512 * 1024), &mut rng).unwrap();
        let start = (cursor % 8) as usize;
        let expected: Vec<TargetId> =
            (0..stripe as usize).map(|k| order[(start + k) % 8]).collect();
        prop_assert_eq!(chosen, expected);
    }

    #[test]
    fn balanced_chooser_minimizes_imbalance(
        stripe in 1u32..=8,
        seed in 0u64..200,
    ) {
        let platform = presets::plafrim_ethernet();
        let mut sel = TargetSelector::new(ChooserKind::Balanced, &platform);
        let mut rng = RngFactory::new(seed).stream("prop-bal", 0);
        let chosen = sel.choose(&platform, StripePattern::new(stripe, 512 * 1024), &mut rng).unwrap();
        let (min, max) = Allocation::classify(&platform, &chosen).min_max();
        prop_assert!(max - min <= 1, "({min},{max}) for stripe {stripe}");
    }
}
