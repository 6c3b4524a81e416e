//! The client-side straggler detector behind [`Run::hedge`](crate::Run::hedge):
//! per-target chunk-rate samples in, sticky straggler flags and chunk
//! redirects out. It never touches the simulation and draws no
//! randomness.

use crate::runner::HedgeReport;
use cluster::TargetId;

/// Sequential chunks each hedged (process, target) stream is split into.
pub(crate) const CHUNKS: u32 = 4;
/// A target is flagged below this fraction of the reference rate.
const THRESHOLD: f64 = 0.5;
/// The reference rate: this nearest-rank quantile of the sampled
/// targets' mean rates (the median target).
const QUANTILE: f64 = 0.5;
/// Most stream redirects per run.
const MAX_REDIRECTS: u32 = 32;
/// Samples a target needs to count toward the reference or be flagged.
const MIN_SAMPLES: u32 = 2;

/// Per-target chunk-rate statistics, sticky straggler flags, and what
/// the detector has done so far.
#[derive(Debug)]
pub(crate) struct Detector {
    rate_sum: Vec<f64>,
    rate_count: Vec<u32>,
    flagged: Vec<bool>,
    /// Scratch for the reference quantile.
    means: Vec<f64>,
    report: HedgeReport,
}

impl Detector {
    /// A detector over `targets` storage targets, with no samples.
    pub(crate) fn new(targets: usize) -> Self {
        Detector {
            rate_sum: vec![0.0; targets],
            rate_count: vec![0; targets],
            flagged: vec![false; targets],
            means: Vec::with_capacity(targets),
            report: HedgeReport::default(),
        }
    }

    /// Feed one finished chunk: `bytes` written to `target` in `secs`
    /// seconds (no sample if `secs` is not positive). Returns the targets
    /// it newly flags, in target order, with their mean rates.
    pub(crate) fn observe(
        &mut self,
        target: TargetId,
        bytes: f64,
        secs: f64,
    ) -> Vec<(TargetId, f64)> {
        let before = self.report.flagged.len();
        if secs > 0.0 {
            self.rate_sum[target.index()] += bytes / secs;
            self.rate_count[target.index()] += 1;
            self.report.samples += 1;
            self.flag_stragglers();
        }
        let newly = &self.report.flagged[before..];
        newly.iter().map(|&t| (t, self.mean(t))).collect()
    }

    /// Flag every sampled target whose mean rate is below [`THRESHOLD`]
    /// times the reference, once two targets have [`MIN_SAMPLES`].
    fn flag_stragglers(&mut self) {
        self.means.clear();
        for (&sum, &count) in self.rate_sum.iter().zip(&self.rate_count) {
            if count >= MIN_SAMPLES {
                self.means.push(sum / f64::from(count));
            }
        }
        if self.means.len() < 2 {
            return;
        }
        self.means.sort_by(f64::total_cmp);
        let rank =
            ((QUANTILE * self.means.len() as f64).ceil() as usize).clamp(1, self.means.len());
        let reference = self.means[rank - 1];
        for i in 0..self.flagged.len() {
            let t = TargetId(i as u32);
            if !self.flagged[i]
                && self.rate_count[i] >= MIN_SAMPLES
                && self.mean(t) < THRESHOLD * reference
            {
                self.flagged[i] = true;
                self.report.flagged.push(t);
            }
        }
    }

    /// Where a stream on `current` sends its next chunk: if `current` is
    /// flagged and the run has redirects left, the sampled unflagged
    /// target of `allowed` with the highest mean rate (the first of
    /// equals), counted as a redirect; else `current`.
    pub(crate) fn redirect(&mut self, allowed: &[TargetId], current: TargetId) -> TargetId {
        if !self.flagged[current.index()] || self.report.redirects >= MAX_REDIRECTS {
            return current;
        }
        let best = allowed
            .iter()
            .copied()
            .filter(|&t| t != current && !self.flagged[t.index()] && self.rate_count[t.index()] > 0)
            .map(|t| (self.mean(t), t))
            .reduce(|best, next| if next.0 > best.0 { next } else { best });
        let Some((_, to)) = best else {
            return current;
        };
        self.report.redirects += 1;
        to
    }

    /// The mean sampled chunk rate of `t`, bytes per second.
    fn mean(&self, t: TargetId) -> f64 {
        self.rate_sum[t.index()] / f64::from(self.rate_count[t.index()])
    }

    /// What the detector saw and did.
    pub(crate) fn report(self) -> HedgeReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `n` samples of `rate` bytes per second to each `(target,
    /// rate)` pair, pair by pair, and collect every newly flagged target.
    fn feed(det: &mut Detector, rates: &[(u32, f64)], n: u32) -> Vec<TargetId> {
        let mut flagged = Vec::new();
        for _ in 0..n {
            for &(t, rate) in rates {
                flagged.extend(
                    det.observe(TargetId(t), rate, 1.0)
                        .into_iter()
                        .map(|(t, _)| t),
                );
            }
        }
        flagged
    }

    #[test]
    fn nothing_is_flagged_before_two_targets_have_min_samples() {
        let mut det = Detector::new(4);
        // One sample each: no target has MIN_SAMPLES yet.
        assert!(feed(&mut det, &[(0, 1.0), (1, 100.0), (2, 100.0)], 1).is_empty());
        // Only one target reaches MIN_SAMPLES: there is no fleet yet.
        assert!(feed(&mut det, &[(0, 1.0)], 1).is_empty());
        assert!(det.report.flagged.is_empty());
        // With two sampled targets the reference is the slower one,
        // which nothing falls below; a third makes it the median of
        // [1, 100, 100], and the slow target is flagged.
        assert!(feed(&mut det, &[(1, 100.0)], 1).is_empty());
        assert_eq!(feed(&mut det, &[(2, 100.0)], 1), vec![TargetId(0)]);
        assert_eq!(det.report().samples, 6);
    }

    #[test]
    fn a_chunk_of_no_duration_is_no_sample() {
        let mut det = Detector::new(3);
        feed(&mut det, &[(1, 100.0), (2, 100.0)], 2);
        assert!(det.observe(TargetId(0), 1.0, 0.0).is_empty());
        assert_eq!(det.rate_count[0], 0);
        assert_eq!(det.report().samples, 4);
    }

    #[test]
    fn the_threshold_is_strict() {
        // Means [5, 10, 10, 10]: the reference is 10 and 5 is exactly
        // half of it, which is not below half.
        let mut det = Detector::new(4);
        let flagged = feed(&mut det, &[(0, 5.0), (1, 10.0), (2, 10.0), (3, 10.0)], 2);
        assert!(flagged.is_empty(), "flagged {flagged:?} at the threshold");
        // One slower sample tips target 0 below it.
        let newly = det.observe(TargetId(0), 4.0, 1.0);
        assert_eq!(newly, vec![(TargetId(0), 14.0 / 3.0)]);
    }

    #[test]
    fn the_reference_is_the_nearest_rank_median() {
        // Sampled means [10, 30, 100]: nearest rank ceil(0.5 * 3) = 2
        // makes 30 the reference, so 10 (< 15) is flagged and 30 is not.
        // Rank 1 (10) would flag neither; rank 3 (100) both.
        let mut det = Detector::new(3);
        let flagged = feed(&mut det, &[(0, 10.0), (1, 30.0), (2, 100.0)], 2);
        assert_eq!(flagged, vec![TargetId(0)]);
        // Means [10, 30, 100, 100]: rank ceil(0.5 * 4) = 2, the same 30.
        let mut det = Detector::new(4);
        let flagged = feed(&mut det, &[(0, 10.0), (1, 30.0), (2, 100.0), (3, 100.0)], 2);
        assert_eq!(flagged, vec![TargetId(0)]);
    }

    #[test]
    fn flags_stay_set_once_raised() {
        let mut det = Detector::new(3);
        assert_eq!(
            feed(&mut det, &[(0, 1.0), (1, 100.0), (2, 100.0)], 2),
            vec![TargetId(0)]
        );
        // Target 0 recovers far past the others: it is neither flagged
        // again nor unflagged, and streams still leave it.
        assert!(feed(&mut det, &[(0, 10_000.0)], 10).is_empty());
        assert!(det.mean(TargetId(0)) > det.mean(TargetId(1)));
        assert_eq!(
            det.redirect(&[TargetId(0), TargetId(1)], TargetId(0)),
            TargetId(1)
        );
        assert_eq!(det.report().flagged, vec![TargetId(0)]);
    }

    #[test]
    fn redirect_picks_the_fastest_sampled_unflagged_allowed_target() {
        let mut det = Detector::new(6);
        // Targets 0 and 1 straggle; 2..=4 are healthy, 4 the fastest of
        // them; 5 has no sample.
        let flagged = feed(
            &mut det,
            &[(0, 1.0), (1, 2.0), (2, 100.0), (3, 200.0), (4, 300.0)],
            2,
        );
        assert_eq!(flagged, vec![TargetId(0), TargetId(1)]);
        // Target 1 then recovers past everyone, but stays flagged.
        feed(&mut det, &[(1, 100_000.0)], 4);
        let t = |ids: &[u32]| ids.iter().map(|&i| TargetId(i)).collect::<Vec<_>>();
        // An unflagged stream stays where it is.
        assert_eq!(det.redirect(&t(&[2, 3, 4]), TargetId(2)), TargetId(2));
        // The fastest of the allowed list, not of the fleet: 4 is not allowed.
        assert_eq!(det.redirect(&t(&[5, 0, 1, 2, 3]), TargetId(0)), TargetId(3));
        assert_eq!(
            det.redirect(&t(&[0, 1, 2, 3, 4, 5]), TargetId(0)),
            TargetId(4)
        );
        // Only flagged or unsampled alternatives: the stream stays.
        assert_eq!(det.redirect(&t(&[0, 1, 5]), TargetId(0)), TargetId(0));
        assert_eq!(det.report().redirects, 2);
    }

    #[test]
    fn redirects_stop_at_the_budget() {
        let mut det = Detector::new(3);
        feed(&mut det, &[(0, 1.0), (1, 100.0), (2, 100.0)], 2);
        let allowed = [TargetId(0), TargetId(1), TargetId(2)];
        for _ in 0..MAX_REDIRECTS {
            assert_eq!(det.redirect(&allowed, TargetId(0)), TargetId(1));
        }
        assert_eq!(det.redirect(&allowed, TargetId(0)), TargetId(0));
        assert_eq!(det.report().redirects, MAX_REDIRECTS);
    }
}
