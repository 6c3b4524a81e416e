//! What one run reports: measured values, the output-check tally,
//! digests, and the result line.

use std::fmt::Write as _;

/// Measured values by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Everything a workload hands back to `main`.
pub struct Outcome {
    /// Ops attempted (repetitions on `paper_grid`, admissions online).
    pub attempted: u64,
    /// Ops that returned an error or failed the output check, plus one
    /// per pinned digest that did not match.
    pub failed: u64,
    /// End-to-end values (untraced mode) or per-layer ones (traced).
    pub values: Values,
    /// Deterministic output digests, for the self-test and pinning.
    pub digests: Vec<(&'static str, u64)>,
}

/// Nearest-rank quantile of an unsorted sample (`p` in `[0, 1]`); 0 for
/// an empty sample.
pub fn quantile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Quantile of a registry histogram; 0 when the workload recorded none.
pub fn hist_quantile(reg: &obs::metrics::MetricsRegistry, name: &str, p: f64) -> f64 {
    match reg.histogram(name) {
        Some(h) if h.count() > 0 => h.quantile(p),
        _ => 0.0,
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// bypasses reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, the digest of every pinned output.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}

/// Compare digests against their pinned values; returns how many differ
/// and reports each on stderr.
pub fn check_pinned(digests: &[(&'static str, u64)], pinned: &[(&str, u64)]) -> u64 {
    let mut bad = 0;
    for &(name, want) in pinned {
        let got = digests.iter().find(|(n, _)| *n == name).map(|&(_, g)| g);
        if got != Some(want) {
            eprintln!(
                "perfbench: pinned digest {name} mismatch: want {want:016x}, got {got:016x?}"
            );
            bad += 1;
        }
    }
    bad
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in `table` order with their units.
/// A name in `values` missing from `table` is a bug and panics; a table
/// name with no value reports 0 (a layer this workload bypasses).
pub fn result_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    for (name, _) in &out.values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let mut m = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = out
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            m.push_str(", ");
        }
        write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    )
}
