//! Zero-cost-when-disabled runtime metrics: counters, gauges, and
//! log-bucketed mergeable streaming histograms.
//!
//! The event [`Recorder`](crate::Recorder) answers "what happened, when" —
//! a full trace, expensive to keep. This module answers the cheaper
//! question "how much, how often, how distributed": a [`MetricsRegistry`]
//! of named [`Counter`]s, gauges, and [`Histogram`]s that the solver,
//! scheduler, runner and campaign engine populate when (and only when)
//! a caller asks for them. Nothing in the hot path pays for the registry
//! unless it was installed; instrumented structs keep owned primitive
//! cells (a `u64`, a [`Counter`]) and harvest them into a registry at the
//! end of a run.
//!
//! # Determinism
//!
//! Every type here is built so that snapshots are *byte-stable*:
//!
//! * Histograms store **only integer counts** (no running float sum):
//!   recording the same multiset of samples in any order, or merging any
//!   partition of them recorded into separate histograms, yields the
//!   exact same state. Derived float statistics (estimated sum, mean,
//!   quantiles) are pure functions of that state, computed in a fixed
//!   iteration order.
//! * Registries keep entries sorted by metric name, so snapshot order
//!   does not depend on insertion order.
//! * Gauges merge by `max` (commutative and associative), so combining
//!   per-worker registries is independent of thread scheduling.
//! * JSON and Prometheus exports format floats with Rust's shortest
//!   round-trip `Display`, the same convention as the Chrome trace
//!   renderer.
//!
//! # Histogram bucketing
//!
//! Buckets are logarithmic with 16 subdivisions per power of two:
//! a finite sample `v > 0` with binary exponent `e` (i.e. `2^e <= v <
//! 2^(e+1)`) and top-4 mantissa bits `m` lands in bucket
//! `(e + 40) * 16 + m`, covering `[2^e * (1 + m/16), 2^e * (1 + (m+1)/16))`.
//! The
//! covered exponent range is `e ∈ [-40, 88)` — roughly `9e-13` to
//! `3e26`, wide enough for nanoseconds-as-seconds through bytes-per-
//! campaign. Values below the range count as `underflow`, values at or
//! above it (and `+inf`) as `overflow`; zeros, negatives and NaNs are
//! tallied separately and excluded from quantiles. Each bucket is
//! reported at its midpoint, so any quantile estimate is within a
//! relative error of **1/32 ≈ 3.2%** of some exact sample value at that
//! rank (half the bucket's relative width).

use crate::{json_str, num};
use std::fmt::Write as _;

/// Subdivisions per binary order of magnitude.
const SUB: usize = 16;
/// Smallest covered binary exponent (inclusive).
const E_MIN: i64 = -40;
/// Largest covered binary exponent (exclusive).
const E_MAX: i64 = 88;
/// Total addressable buckets: `(E_MAX - E_MIN) * SUB`.
const MAX_BUCKETS: usize = ((E_MAX - E_MIN) as usize) * SUB;
/// Representative value reported for `underflow` samples (`(0, 2^-40)`).
const UNDERFLOW_REP: f64 = 4.547473508864641e-13; // 2^-41
/// Representative value reported for `overflow` samples (`>= 2^88`).
const OVERFLOW_REP: f64 = 3.094_850_098_213_451e26; // 2^88

/// Maximum relative quantile error of [`Histogram::quantile`]: half a
/// bucket's relative width, `1/32`.
pub const HISTOGRAM_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// A monotonically increasing integer counter.
///
/// Also usable standalone as an owned cell on a hot struct (that is how
/// `FluidSim` counts processed events) and harvested into a registry
/// later.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Reset to zero (used when recycling sim state across runs).
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

/// A log-bucketed streaming histogram with exact, order-independent
/// merge.
///
/// `observe` is O(1); no samples are stored. See the module docs for the
/// bucketing scheme and the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts, dense from bucket 0, grown lazily.
    buckets: Vec<u64>,
    /// Samples equal to `0.0` (either sign).
    zeros: u64,
    /// Samples `< 0` (excluded from quantiles; data-quality tally).
    negatives: u64,
    /// NaN samples (excluded from quantiles; data-quality tally).
    nans: u64,
    /// Positive samples below `2^-40` (includes subnormals).
    underflow: u64,
    /// Samples at or above `2^88` (includes `+inf`).
    overflow: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            zeros: 0,
            negatives: 0,
            nans: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one sample. O(1); never allocates beyond the lazily grown
    /// bucket vector (bounded at 2048 entries).
    #[inline]
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            self.nans += 1;
            return;
        }
        if v == 0.0 {
            self.zeros += 1;
            return;
        }
        if v < 0.0 {
            self.negatives += 1;
            return;
        }
        let bits = v.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        // Subnormals have raw exponent 0 => e = -1023 => underflow.
        if e < E_MIN {
            self.underflow += 1;
            return;
        }
        // +inf has raw exponent 0x7ff => e = 1024 => overflow.
        if e >= E_MAX {
            self.overflow += 1;
            return;
        }
        let sub = ((bits >> 48) & 0xF) as usize;
        let idx = ((e - E_MIN) as usize) * SUB + sub;
        debug_assert!(idx < MAX_BUCKETS);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Exact merge: elementwise addition of all counts. Commutative and
    /// associative, so merging any partition of a sample stream in any
    /// order reproduces the histogram of the full stream exactly.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.zeros += other.zeros;
        self.negatives += other.negatives;
        self.nans += other.nans;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Number of samples that participate in quantiles: zeros,
    /// underflow, bucketed, and overflow (negatives and NaNs excluded).
    pub fn count(&self) -> u64 {
        self.zeros + self.underflow + self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Total recorded samples including negatives and NaNs.
    pub fn recorded(&self) -> u64 {
        self.count() + self.negatives + self.nans
    }

    /// NaN samples seen.
    pub fn nans(&self) -> u64 {
        self.nans
    }

    /// Zero samples seen.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Negative samples seen.
    pub fn negatives(&self) -> u64 {
        self.negatives
    }

    /// Exclusive upper bound of bucket `idx`.
    fn bucket_hi(idx: usize) -> f64 {
        let e = (idx / SUB) as i64 + E_MIN;
        let sub = (idx % SUB) as f64;
        exp2i(e) * (1.0 + (sub + 1.0) / SUB as f64)
    }

    /// Midpoint representative of bucket `idx`.
    fn bucket_mid(idx: usize) -> f64 {
        let e = (idx / SUB) as i64 + E_MIN;
        let sub = (idx % SUB) as f64;
        exp2i(e) * (1.0 + (sub + 0.5) / SUB as f64)
    }

    /// Quantile estimate at `p ∈ [0, 1]` over the counted population
    /// (see [`Histogram::count`]). Bucketed samples are reported at
    /// their bucket midpoint (relative error ≤
    /// [`HISTOGRAM_RELATIVE_ERROR`]); underflow and overflow samples at
    /// fixed representatives (`2^-41`, `2^88`). Returns NaN on an empty
    /// population.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p={p} outside [0,1]");
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let target = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = self.zeros;
        if seen >= target {
            return 0.0;
        }
        seen += self.underflow;
        if seen >= target {
            return UNDERFLOW_REP;
        }
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(idx);
            }
        }
        OVERFLOW_REP
    }

    /// Estimated sum of the counted population, from bucket midpoints.
    /// A pure function of the counts (fixed ascending iteration order),
    /// so identical histograms always report the identical float.
    pub fn estimated_sum(&self) -> f64 {
        let mut s = self.underflow as f64 * UNDERFLOW_REP;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                s += c as f64 * Self::bucket_mid(idx);
            }
        }
        s + self.overflow as f64 * OVERFLOW_REP
    }

    /// Estimated mean of the counted population (NaN when empty).
    pub fn estimated_mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.estimated_sum() / n as f64
        }
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs in ascending
    /// index order (the canonical snapshot form).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// `2^e` for integer `e`, exact for the exponent range used here.
fn exp2i(e: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// One named metric in a registry.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Entries are kept sorted by name, so snapshots do not depend on the
/// order metrics were first touched. Names are dotted paths
/// (`"simcore.solves"`, `"ior.retry_probes"`); the Prometheus export
/// maps dots to underscores.
///
/// Using one name with two different metric types is a programming
/// error and panics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Sorted by name.
    entries: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        MetricsRegistry {
            entries: Vec::new(),
        }
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn slot(&mut self, name: &str, default: Metric) -> &mut Metric {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                let m = &mut self.entries[i].1;
                assert!(
                    std::mem::discriminant(m) == std::mem::discriminant(&default),
                    "metric {name:?} is a {}, used as a {}",
                    m.kind(),
                    default.kind(),
                );
                m
            }
            Err(i) => {
                self.entries.insert(i, (name.to_string(), default));
                &mut self.entries[i].1
            }
        }
    }

    /// Increment counter `name` by one (creating it at zero first).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n` (creating it at zero first).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.slot(name, Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            _ => unreachable!(),
        }
    }

    /// Set gauge `name` to `v`. Within one registry the last write wins;
    /// across registries [`MetricsRegistry::merge`] keeps the max.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self.slot(name, Metric::Gauge(v)) {
            Metric::Gauge(g) => *g = v,
            _ => unreachable!(),
        }
    }

    /// Raise gauge `name` to `v` if `v` is larger (high-watermark
    /// semantics, matching the merge rule).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        match self.slot(name, Metric::Gauge(v)) {
            Metric::Gauge(g) => {
                if v.total_cmp(g).is_gt() {
                    *g = v;
                }
            }
            _ => unreachable!(),
        }
    }

    /// Record `v` into histogram `name` (creating it empty first).
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.slot(name, Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.observe(v),
            _ => unreachable!(),
        }
    }

    /// Merge a whole histogram into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, other: &Histogram) {
        match self.slot(name, Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.merge(other),
            _ => unreachable!(),
        }
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All metric names in snapshot (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Merge another registry into this one: counters add, gauges keep
    /// the max, histograms merge exactly. Commutative and associative,
    /// so per-worker registries combine into the same snapshot no matter
    /// how work was scheduled.
    ///
    /// # Panics
    /// Panics if the same name holds different metric types.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, m) in &other.entries {
            match m {
                Metric::Counter(c) => self.add(name, *c),
                Metric::Gauge(g) => self.gauge_max(name, *g),
                Metric::Histogram(h) => self.merge_histogram(name, h),
            }
        }
    }

    /// Byte-stable JSON snapshot: metrics in name order, histogram
    /// buckets as `[index, count]` pairs in ascending index order,
    /// floats in shortest round-trip form. Identical registries always
    /// serialize to identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"metrics\":[");
        for (i, (name, m)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"type\":\"{}\"",
                json_str(name),
                m.kind()
            );
            match m {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{c}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", num(*g));
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"zeros\":{},\"negatives\":{},\"nans\":{},\
                         \"underflow\":{},\"overflow\":{},\"buckets\":[",
                        h.count(),
                        h.zeros,
                        h.negatives,
                        h.nans,
                        h.underflow,
                        h.overflow
                    );
                    for (j, (idx, c)) in h.nonzero_buckets().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{idx},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Prometheus text exposition (format 0.0.4). Deterministic:
    /// metrics in name order, dots mapped to underscores, histogram
    /// buckets cumulative with shortest round-trip `le` bounds, `_sum`
    /// estimated from bucket midpoints (a pure function of the counts).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.entries {
            let pname = prom_name(name);
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {c}");
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname} {}", num(*g));
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    let mut cum = h.zeros + h.underflow;
                    for (idx, c) in h.nonzero_buckets() {
                        cum += c;
                        let _ = writeln!(
                            out,
                            "{pname}_bucket{{le=\"{}\"}} {cum}",
                            num(Histogram::bucket_hi(idx))
                        );
                    }
                    cum += h.overflow;
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{pname}_sum {}", num(h.estimated_sum()));
                    let _ = writeln!(out, "{pname}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// Sanitize a dotted metric name into a Prometheus identifier.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inclusive lower bound of bucket `idx`.
    fn bucket_lo(idx: usize) -> f64 {
        let e = (idx / SUB) as i64 + E_MIN;
        let sub = (idx % SUB) as f64;
        exp2i(e) * (1.0 + sub / SUB as f64)
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bucket_bounds_bracket_samples() {
        let mut h = Histogram::new();
        for v in [1.0, 1.5, 2.0, 3.75, 1e-6, 1e12, 0.5] {
            h.observe(v);
        }
        for (idx, _) in h.nonzero_buckets() {
            let lo = bucket_lo(idx);
            let hi = Histogram::bucket_hi(idx);
            assert!(lo < hi);
            let mid = Histogram::bucket_mid(idx);
            assert!(lo < mid && mid < hi);
            // Half the relative width is the documented error bound.
            assert!((hi - lo) / 2.0 / lo <= HISTOGRAM_RELATIVE_ERROR + 1e-15);
        }
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn exact_powers_of_two_land_on_bucket_lower_bound() {
        let mut h = Histogram::new();
        h.observe(2.0);
        let (idx, c) = h.nonzero_buckets().next().unwrap();
        assert_eq!(c, 1);
        assert_eq!(bucket_lo(idx), 2.0);
    }

    #[test]
    fn special_values_tallied_separately() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(0.0);
        h.observe(-0.0);
        h.observe(-5.0);
        h.observe(1e-300); // below 2^-40
        h.observe(f64::MIN_POSITIVE / 2.0); // subnormal
        h.observe(1e300); // above 2^88
        h.observe(f64::INFINITY);
        assert_eq!(h.nans(), 1);
        assert_eq!(h.zeros(), 2);
        assert_eq!(h.negatives(), 1);
        assert_eq!(h.underflow, 2);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count(), 6); // zeros + under + over
        assert_eq!(h.recorded(), 8);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn quantile_error_bound_holds() {
        // A deterministic pseudo-random stream spanning many octaves.
        let mut h = Histogram::new();
        let mut samples = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let v = (u * 30.0 - 10.0).exp2(); // 2^-10 .. 2^20
            samples.push(v);
            h.observe(v);
        }
        samples.sort_by(f64::total_cmp);
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(p);
            let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= HISTOGRAM_RELATIVE_ERROR,
                "p={p}: est {est} vs exact {exact}, rel err {rel}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.estimated_mean().is_nan());

        let mut z = Histogram::new();
        z.observe(0.0);
        assert_eq!(z.quantile(0.5), 0.0);
        assert_eq!(z.estimated_sum(), 0.0);
        assert_eq!(z.estimated_mean(), 0.0);

        // Only NaNs: quantile population stays empty.
        let mut n = Histogram::new();
        n.observe(f64::NAN);
        assert!(n.quantile(0.5).is_nan());
        assert_eq!(n.recorded(), 1);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantile_rejects_bad_p() {
        let mut h = Histogram::new();
        h.observe(1.0);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_is_exact() {
        let samples: Vec<f64> = (1..200).map(|i| i as f64 * 0.37).collect();
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.observe(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            if i % 3 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
        }
        // Merge in the "wrong" order too: b into a equals whole.
        b.merge(&a);
        assert_eq!(b, whole);
    }

    #[test]
    fn registry_sorted_snapshot_is_insertion_order_independent() {
        let mut a = MetricsRegistry::new();
        a.inc("b.two");
        a.observe("c.h", 1.5);
        a.set_gauge("a.one", 3.0);
        let mut b = MetricsRegistry::new();
        b.set_gauge("a.one", 3.0);
        b.inc("b.two");
        b.observe("c.h", 1.5);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.names().collect::<Vec<_>>(), vec!["a.one", "b.two", "c.h"]);
    }

    #[test]
    fn registry_merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.add("n", 2);
        a.set_gauge("g", 5.0);
        a.observe("h", 1.0);
        let mut b = MetricsRegistry::new();
        b.add("n", 3);
        b.set_gauge("g", 4.0);
        b.observe("h", 2.0);
        b.observe("h", 1.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.gauge("g"), Some(5.0)); // max
        assert_eq!(a.histogram("h").unwrap().count(), 3);
        // Merge the other way round gives the same snapshot.
        let mut a2 = MetricsRegistry::new();
        a2.add("n", 2);
        a2.set_gauge("g", 5.0);
        a2.observe("h", 1.0);
        let mut b2 = b.clone();
        b2.merge(&a2);
        assert_eq!(b2.to_json(), a.to_json());
    }

    #[test]
    #[should_panic(expected = "is a counter, used as a gauge")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.inc("x");
        r.set_gauge("x", 1.0);
    }

    #[test]
    fn json_shape() {
        let mut r = MetricsRegistry::new();
        r.add("sim.events", 7);
        r.set_gauge("sched.suspects", 2.0);
        r.observe("lat", 1.0);
        r.observe("lat", f64::NAN);
        let j = r.to_json();
        assert!(j.starts_with("{\"version\":1,\"metrics\":["));
        assert!(j.contains("{\"name\":\"lat\",\"type\":\"histogram\",\"count\":1,\"zeros\":0,\"negatives\":0,\"nans\":1,\"underflow\":0,\"overflow\":0,\"buckets\":[["));
        assert!(j.contains("{\"name\":\"sched.suspects\",\"type\":\"gauge\",\"value\":2}"));
        assert!(j.contains("{\"name\":\"sim.events\",\"type\":\"counter\",\"value\":7}"));
        assert!(j.ends_with("]}\n"));
    }

    #[test]
    fn prometheus_shape() {
        let mut r = MetricsRegistry::new();
        r.add("sim.events", 7);
        r.observe("lat.s", 1.0);
        r.observe("lat.s", 1.0);
        r.observe("lat.s", 2.0);
        let p = r.to_prometheus();
        assert!(p.contains("# TYPE lat_s histogram\n"));
        assert!(p.contains("lat_s_bucket{le=\"1.0625\"} 2\n"));
        assert!(p.contains("lat_s_bucket{le=\"+Inf\"} 3\n"));
        assert!(p.contains("lat_s_count 3\n"));
        assert!(p.contains("# TYPE sim_events counter\nsim_events 7\n"));
        // Cumulative counts are nondecreasing.
        let mut last = 0u64;
        for line in p.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn gauge_merge_handles_nan_deterministically() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("g", f64::NAN);
        let mut b = MetricsRegistry::new();
        b.set_gauge("g", 1.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // total_cmp orders NaN above all numbers; both directions agree.
        assert_eq!(ab.to_json(), ba.to_json());
    }
}
