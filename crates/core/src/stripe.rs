//! File striping: how a byte range maps onto storage targets.
//!
//! BeeGFS stripes a file across its targets in fixed-size *chunks*
//! (PlaFRIM default: 512 KiB): chunk `i` of the file lives on target
//! `targets[i % stripe_count]`. Both the chunk size and the stripe count
//! are set **per directory** (§II) — in BeeGFS only the administrator can
//! change them, which is why the paper's default-value recommendation
//! matters so much.

use serde::{Deserialize, Serialize};

/// A directory's striping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StripePattern {
    /// Number of storage targets each file is striped over.
    pub stripe_count: u32,
    /// Chunk ("stripe") size in bytes.
    pub chunk_size: u64,
}

impl StripePattern {
    /// PlaFRIM's deployed configuration: 4 targets, 512 KiB chunks.
    pub const PLAFRIM_DEFAULT: StripePattern = StripePattern {
        stripe_count: 4,
        chunk_size: 512 * 1024,
    };

    /// Build a pattern, validating both parameters.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(stripe_count: u32, chunk_size: u64) -> Self {
        assert!(stripe_count > 0, "stripe count must be positive");
        assert!(chunk_size > 0, "chunk size must be positive");
        StripePattern {
            stripe_count,
            chunk_size,
        }
    }

    /// The chunk index containing byte `offset`.
    pub fn chunk_of(&self, offset: u64) -> u64 {
        offset / self.chunk_size
    }

    /// The target *slot* (index into the file's target list) that stores
    /// byte `offset`.
    pub fn slot_of(&self, offset: u64) -> u32 {
        (self.chunk_of(offset) % u64::from(self.stripe_count)) as u32
    }

    /// Bytes each target slot receives from the contiguous range
    /// `[offset, offset + len)`, in slot order: `stripe_count` values
    /// that sum exactly to `len`. Each slot's share is computed on its
    /// own, so the split allocates nothing.
    ///
    /// The range covers a partial head chunk, whole middle chunks and a
    /// partial tail chunk (one chunk holds the whole range when it fits).
    /// The `n` middle chunks go round the slots from the one after the
    /// head's: every slot gets `n / stripe_count` of them, and the
    /// `n % stripe_count` slots starting there one more.
    pub fn slot_bytes(&self, offset: u64, len: u64) -> impl ExactSizeIterator<Item = u64> {
        let sc = u64::from(self.stripe_count);
        let chunk = self.chunk_size;
        // (head slot, head bytes, tail slot, tail bytes, middle chunks)
        let (head_slot, head, tail_slot, tail, middle) = if len == 0 {
            (0, 0, 0, 0, 0)
        } else {
            let first = self.chunk_of(offset);
            let last = self.chunk_of(offset + len - 1);
            if first == last {
                (first % sc, len, 0, 0, 0)
            } else {
                let head = (first + 1) * chunk - offset;
                let tail = offset + len - last * chunk;
                (first % sc, head, last % sc, tail, last - first - 1)
            }
        };
        let (per_slot, extra) = (middle / sc, middle % sc);
        let extra_from = (head_slot + 1) % sc;
        (0..self.stripe_count).map(move |slot| {
            let slot = u64::from(slot);
            let rank = (slot + sc - extra_from) % sc;
            let chunks = per_slot + u64::from(rank < extra);
            chunks * chunk
                + if slot == head_slot { head } else { 0 }
                + if slot == tail_slot { tail } else { 0 }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::{GIB, KIB, MIB};

    fn split(p: StripePattern, offset: u64, len: u64) -> Vec<u64> {
        p.slot_bytes(offset, len).collect()
    }

    #[test]
    fn plafrim_default_matches_paper() {
        let p = StripePattern::PLAFRIM_DEFAULT;
        assert_eq!(p.stripe_count, 4);
        assert_eq!(p.chunk_size, 512 * KIB);
    }

    #[test]
    fn chunk_and_slot_math() {
        let p = StripePattern::new(4, 512 * KIB);
        assert_eq!(p.chunk_of(0), 0);
        assert_eq!(p.chunk_of(512 * KIB - 1), 0);
        assert_eq!(p.chunk_of(512 * KIB), 1);
        assert_eq!(p.slot_of(0), 0);
        assert_eq!(p.slot_of(512 * KIB), 1);
        assert_eq!(p.slot_of(4 * 512 * KIB), 0); // wraps
    }

    #[test]
    fn one_mib_transfer_spans_two_slots() {
        // The paper uses 1 MiB transfers over 512 KiB chunks precisely so
        // each request touches more than one OST.
        let p = StripePattern::PLAFRIM_DEFAULT;
        let slots = split(p, 0, MIB);
        assert_eq!(slots, vec![512 * KIB, 512 * KIB, 0, 0]);
        let slots = split(p, MIB, MIB);
        assert_eq!(slots, vec![0, 0, 512 * KIB, 512 * KIB]);
    }

    #[test]
    fn aligned_range_distributes_evenly() {
        let p = StripePattern::new(4, 512 * KIB);
        // 4 GiB aligned: exactly 1 GiB per slot.
        let slots = split(p, 0, 4 * GIB);
        assert!(slots.iter().all(|&b| b == GIB));
    }

    #[test]
    fn unaligned_range_conserves_bytes() {
        let p = StripePattern::new(3, 512 * KIB);
        let len = 7 * MIB + 123;
        let slots = split(p, 1000, len);
        assert_eq!(slots.iter().sum::<u64>(), len);
        assert_eq!(slots.len(), 3);
    }

    #[test]
    fn sub_chunk_range_hits_single_slot() {
        let p = StripePattern::new(8, 512 * KIB);
        let slots = split(p, 100, 1000);
        assert_eq!(slots[0], 1000);
        assert!(slots[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn range_straddling_two_chunks_splits() {
        let p = StripePattern::new(4, 512 * KIB);
        // 1000 bytes starting 500 before a chunk boundary.
        let start = 512 * KIB - 500;
        let slots = split(p, start, 1000);
        assert_eq!(slots[0], 500);
        assert_eq!(slots[1], 500);
    }

    #[test]
    fn zero_length_range_is_empty() {
        let p = StripePattern::new(4, 512 * KIB);
        assert_eq!(split(p, 12345, 0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn stripe_count_one_puts_everything_on_slot_zero() {
        let p = StripePattern::new(1, 512 * KIB);
        let slots = split(p, 999, 10 * MIB);
        assert_eq!(slots, vec![10 * MIB]);
    }

    #[test]
    #[should_panic(expected = "stripe count must be positive")]
    fn zero_stripe_count_rejected() {
        let _ = StripePattern::new(0, 512 * KIB);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_rejected() {
        let _ = StripePattern::new(4, 0);
    }
}
