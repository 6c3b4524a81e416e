//! Striped files and byte-range → target mapping.

use crate::stripe::StripePattern;
use cluster::TargetId;
use serde::{Deserialize, Serialize};

/// An open striped file: its target list (in stripe-slot order) and
/// striping parameters, fixed at creation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileHandle {
    /// File id (unique within one `BeeGfs` instance).
    pub id: u64,
    /// Targets in slot order: chunk `i` lives on `targets[i % count]`.
    pub targets: Vec<TargetId>,
    /// The striping parameters inherited from the directory.
    pub pattern: StripePattern,
}

impl FileHandle {
    /// Build a handle, checking the target list length against the
    /// pattern.
    ///
    /// # Panics
    /// Panics if `targets.len() != pattern.stripe_count`.
    pub fn new(id: u64, targets: Vec<TargetId>, pattern: StripePattern) -> Self {
        assert_eq!(
            targets.len(),
            pattern.stripe_count as usize,
            "target list must match the stripe count"
        );
        FileHandle {
            id,
            targets,
            pattern,
        }
    }

    /// The target storing byte `offset`.
    pub fn target_of(&self, offset: u64) -> TargetId {
        self.targets[self.pattern.slot_of(offset) as usize]
    }

    /// Bytes each *target* receives from the contiguous write
    /// `[offset, offset + len)`: [`StripePattern::slot_bytes`] mapped
    /// through the file's target list. Zero-byte targets are included.
    pub fn bytes_per_target(&self, offset: u64, len: u64) -> Vec<(TargetId, u64)> {
        self.targets
            .iter()
            .copied()
            .zip(self.pattern.slot_bytes(offset, len))
            .collect()
    }
}

/// The byte plan of a mid-flight restripe: what stays on the old stripe
/// set and what moves to the new one.
///
/// `drained` is the per-target distribution of the `[0, issued)` prefix
/// over the *old* handle (those chunks were already sent and are left to
/// finish where they are); `redirected` is the distribution of the
/// `[issued, total)` remainder over the *new* handle. The two sides sum
/// to exactly `total` bytes — the conservation property the restripe
/// property tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct RestripeSplit {
    /// Bytes per old-stripe target for the already-issued prefix.
    pub drained: Vec<(TargetId, u64)>,
    /// Bytes per new-stripe target for the not-yet-issued remainder.
    pub redirected: Vec<(TargetId, u64)>,
}

impl RestripeSplit {
    /// Total bytes across both sides (equals the file size by
    /// construction; exposed for assertions).
    pub fn total_bytes(&self) -> u64 {
        self.drained
            .iter()
            .chain(self.redirected.iter())
            .map(|(_, b)| b)
            .sum()
    }
}

/// Split a `total_bytes`-byte contiguous write at the restripe point
/// `issued_bytes`: the prefix drains on `old`'s targets, the remainder
/// is redirected onto `new`'s.
///
/// Pure byte math — no services, no RNG — so the exact-conservation
/// guarantee reduces to [`StripePattern::slot_bytes`]'s.
///
/// # Panics
/// Panics if `issued_bytes > total_bytes`; callers validate progress
/// first (see `BeeGfs::restripe_file`).
pub fn restripe_split(
    old: &FileHandle,
    new: &FileHandle,
    total_bytes: u64,
    issued_bytes: u64,
) -> RestripeSplit {
    assert!(
        issued_bytes <= total_bytes,
        "restripe point {issued_bytes} beyond file size {total_bytes}"
    );
    RestripeSplit {
        drained: old.bytes_per_target(0, issued_bytes),
        redirected: new.bytes_per_target(issued_bytes, total_bytes - issued_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::{GIB, KIB, MIB};

    fn handle() -> FileHandle {
        FileHandle::new(
            1,
            vec![TargetId(0), TargetId(4), TargetId(5), TargetId(6)],
            StripePattern::new(4, 512 * KIB),
        )
    }

    #[test]
    fn target_of_follows_chunks() {
        let f = handle();
        assert_eq!(f.target_of(0), TargetId(0));
        assert_eq!(f.target_of(512 * KIB), TargetId(4));
        assert_eq!(f.target_of(2 * 512 * KIB), TargetId(5));
        assert_eq!(f.target_of(3 * 512 * KIB), TargetId(6));
        assert_eq!(f.target_of(4 * 512 * KIB), TargetId(0)); // wraps
    }

    #[test]
    fn bytes_per_target_even_for_aligned_range() {
        let f = handle();
        let dist = f.bytes_per_target(0, 4 * GIB);
        assert_eq!(dist.len(), 4);
        for (t, bytes) in &dist {
            assert_eq!(*bytes, GIB, "target {t}");
        }
    }

    #[test]
    fn bytes_per_target_conserves_total() {
        let f = handle();
        let len = 13 * MIB + 777;
        let total: u64 = f
            .bytes_per_target(3 * KIB, len)
            .iter()
            .map(|(_, b)| b)
            .sum();
        assert_eq!(total, len);
    }

    #[test]
    fn per_process_block_is_balanced_when_large() {
        // A 4 GiB process block over 4 targets: each within one chunk of
        // a quarter — the property that makes per-server load exactly
        // proportional to per-server target counts in the experiments.
        let f = handle();
        let dist = f.bytes_per_target(GIB + 512 * KIB, 4 * GIB);
        for (_, bytes) in dist {
            let frac = bytes as f64 / (4 * GIB) as f64;
            assert!((frac - 0.25).abs() < 0.001, "fraction {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "target list must match")]
    fn mismatched_target_list_rejected() {
        let _ = FileHandle::new(1, vec![TargetId(0)], StripePattern::new(4, 512 * KIB));
    }

    #[test]
    fn restripe_split_conserves_bytes() {
        let old = handle();
        let new = FileHandle::new(
            1,
            vec![
                TargetId(0),
                TargetId(1),
                TargetId(2),
                TargetId(3),
                TargetId(4),
                TargetId(5),
                TargetId(6),
                TargetId(7),
            ],
            StripePattern::new(8, 512 * KIB),
        );
        let total = 4 * GIB + 13 * MIB + 5;
        for issued in [0, 1, 512 * KIB, GIB + 3 * KIB, total] {
            let split = restripe_split(&old, &new, total, issued);
            let drained: u64 = split.drained.iter().map(|(_, b)| b).sum();
            let redirected: u64 = split.redirected.iter().map(|(_, b)| b).sum();
            assert_eq!(drained, issued, "issued {issued}");
            assert_eq!(drained + redirected, total, "issued {issued}");
            assert_eq!(split.total_bytes(), total);
        }
    }

    #[test]
    fn restripe_split_redirects_from_the_cut_point() {
        // Redirected bytes start at the restripe offset, so the new
        // pattern's slot for that offset receives the first chunk.
        let old = handle();
        let new = FileHandle::new(
            1,
            vec![TargetId(2), TargetId(3)],
            StripePattern::new(2, KIB),
        );
        let split = restripe_split(&old, &new, 4 * KIB, KIB);
        // Offsets [1K,2K) → slot 1, [2K,3K) → slot 0, [3K,4K) → slot 1.
        assert_eq!(
            split.redirected,
            vec![(TargetId(2), KIB), (TargetId(3), 2 * KIB)]
        );
    }

    #[test]
    #[should_panic(expected = "beyond file size")]
    fn restripe_split_rejects_overrun() {
        let old = handle();
        let _ = restripe_split(&old, &old, KIB, 2 * KIB);
    }
}
