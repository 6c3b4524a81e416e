//! The gated benches' one harness.
//!
//! A bench names its legs — deterministic workloads, each returning a
//! count of the work it did (events, solves, decisions) — and [`rounds`]
//! times them back to back on the process CPU clock, [`cpu_seconds`],
//! round after round, rotating which leg goes first. A timing gate is
//! the median over rounds of the ratio of two legs' times within one
//! round ([`Rounds::ratio`]), so a slow host phase hits both sides of
//! every sample; its bound is a `const` in the bench. A [`Report`]
//! prints every leg's median, min and IQR beside its work count, checks
//! the gates, writes `BENCH_<bench>.json` at the repository root as
//! reported output (no gate reads it back) and fails the process if a
//! gate failed. Full-fidelity figure regeneration lives in the
//! `experiments` crate's `repro` binary, and perfbench's workloads time
//! the end-to-end numbers.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::Instant;

/// The lower quartile, median and upper quartile of a non-empty sample,
/// each the sorted sample's entry at a quarter, a half and three
/// quarters of its length.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [xs[n / 4], xs[n / 2], xs[3 * n / 4]]
}

/// `getrusage(RUSAGE_SELF)`: process CPU seconds (user + system) and
/// peak resident set size in KiB (`ru_maxrss`). `None` off Linux or on
/// failure.
pub fn rusage() -> Option<(f64, i64)> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            // ru_maxrss .. ru_nivcsw: 14 more longs on Linux.
            rest: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        let mut r = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: RUSAGE_SELF (0) with a properly sized, writable struct.
        if unsafe { getrusage(0, &mut r) } == 0 {
            let cpu =
                (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6;
            return Some((cpu, r.rest[0]));
        }
    }
    None
}

/// Process CPU seconds, the benches' one clock, falling back to wall
/// time since its first reading off Linux. The timed workloads are
/// deterministic and single-threaded, so their CPU time is a stable
/// quantity on shared CI hosts where wall-clock throughput swings by
/// 2-3x with neighbour load — gating on it measures the engine, not the
/// host.
pub fn cpu_seconds() -> f64 {
    static START: OnceLock<Instant> = OnceLock::new();
    rusage().map_or_else(
        || START.get_or_init(Instant::now).elapsed().as_secs_f64(),
        |(cpu, _)| cpu,
    )
}

/// A named leg: one run of a deterministic workload, returning the work
/// it did.
pub type Leg<'a> = (&'a str, &'a mut dyn FnMut() -> u64);

/// Every leg's timings from [`rounds`].
pub struct Rounds {
    names: Vec<String>,
    /// CPU seconds of each leg (outer) in each round (inner).
    secs: Vec<Vec<f64>>,
    /// The work each run of a leg did, the same in every round.
    work: Vec<u64>,
}

/// Run every leg once untimed (warming caches, the allocator and any
/// arena, and fixing the leg's work count), then `n` rounds that time
/// each leg once, back to back on [`cpu_seconds`]. Round `r` starts with
/// leg `r % legs.len()` and takes the rest in cyclic order, so no leg
/// always runs first or after the same neighbour.
///
/// # Panics
/// Panics if a leg's work count in a round differs from its warm-up
/// run's: a timing is comparable only over the same work.
pub fn rounds(n: usize, legs: &mut [Leg<'_>]) -> Rounds {
    rounds_on(cpu_seconds, n, legs)
}

fn rounds_on(mut clock: impl FnMut() -> f64, n: usize, legs: &mut [Leg<'_>]) -> Rounds {
    let work: Vec<u64> = legs.iter_mut().map(|(_, run)| run()).collect();
    let mut secs = vec![Vec::with_capacity(n); legs.len()];
    for round in 0..n {
        for k in 0..legs.len() {
            let i = (round + k) % legs.len();
            let (name, run) = &mut legs[i];
            let t0 = clock();
            let done = run();
            secs[i].push(clock() - t0);
            assert_eq!(
                done, work[i],
                "leg `{name}` did {done} units of work in round {round}, {} when warming up",
                work[i]
            );
        }
    }
    Rounds {
        names: legs.iter().map(|(name, _)| name.to_string()).collect(),
        secs,
        work,
    }
}

impl Rounds {
    fn leg(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no leg `{name}`"))
    }

    /// Quartiles over rounds of leg `a`'s time over leg `b`'s, each
    /// ratio taken within one round.
    pub fn ratio(&self, a: &str, b: &str) -> [f64; 3] {
        let (a, b) = (&self.secs[self.leg(a)], &self.secs[self.leg(b)]);
        quartiles(a.iter().zip(b).map(|(x, y)| x / y).collect())
    }
}

/// A bench's output: the fields of its `BENCH_<bench>.json` and the
/// verdict of its gates.
pub struct Report {
    bench: &'static str,
    fields: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report for the bench named `bench`.
    pub fn new(bench: &'static str) -> Self {
        Report {
            bench,
            fields: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Report `"key": value`; `value` is written as JSON as it displays.
    pub fn field(&mut self, key: impl Display, value: impl Display) {
        self.fields.push(format!("  \"{key}\": {value}"));
    }

    /// Print and report every leg's median, min and IQR in milliseconds
    /// per run, beside its work count.
    pub fn rounds(&mut self, r: &Rounds) {
        for ((name, secs), work) in r.names.iter().zip(&r.secs).zip(&r.work) {
            let min = secs.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
            let [q1, med, q3] = quartiles(secs.clone()).map(|s| s * 1e3);
            println!(
                "{name}: median {med:.3} ms, min {min:.3} ms, IQR {q1:.3}-{q3:.3} ms; \
                 {work} work units a run"
            );
            self.field(format_args!("{name}_ms"), format_args!("{med:.4}"));
            self.field(format_args!("{name}_ms_min"), format_args!("{min:.4}"));
            self.field(
                format_args!("{name}_ms_iqr"),
                format_args!("[{q1:.4}, {q3:.4}]"),
            );
            self.field(format_args!("{name}_work"), work);
        }
    }

    /// Gate: `reading` must not exceed `bound`.
    pub fn at_most(&mut self, gate: &str, reading: f64, bound: f64) {
        self.gate(gate, reading, "<=", bound, reading <= bound);
    }

    /// Gate: `reading` must not fall below `bound`.
    pub fn at_least(&mut self, gate: &str, reading: f64, bound: f64) {
        self.gate(gate, reading, ">=", bound, reading >= bound);
    }

    fn gate(&mut self, gate: &str, reading: f64, op: &str, bound: f64, pass: bool) {
        let verdict = if pass { "pass" } else { "FAIL" };
        println!("gate {gate}: {reading:.3} (bound {op} {bound}) {verdict}");
        self.field(gate, format_args!("{reading:.4}"));
        self.field(format_args!("{gate}_bound"), bound);
        if !pass {
            self.failures
                .push(format!("{gate} reads {reading:.3}, bound {op} {bound}"));
        }
    }

    /// Write `BENCH_<bench>.json` at the repository root, then exit with
    /// status 1 if any gate failed.
    pub fn finish(self) {
        let out = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.bench
        );
        let json = format!("{{\n{}\n}}\n", self.fields.join(",\n"));
        std::fs::write(&out, json).expect("write the bench report");
        println!("wrote {out}");
        if !self.failures.is_empty() {
            eprintln!("FAIL: {}", self.failures.join("; "));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// Legs that log their name on a shared log and advance a fake clock
    /// by the next of their per-round durations (the first is the
    /// warm-up's).
    fn logged_rounds(n: usize, durations: [&[f64]; 3], work: [&[u64]; 3]) -> (Rounds, Vec<char>) {
        let now = Cell::new(0.0);
        let log = RefCell::new(Vec::new());
        let calls = [Cell::new(0), Cell::new(0), Cell::new(0)];
        let leg = |i: usize| {
            let (now, log, calls) = (&now, &log, &calls);
            move || {
                let k = calls[i].get();
                calls[i].set(k + 1);
                log.borrow_mut().push((b'a' + i as u8) as char);
                now.set(now.get() + durations[i][k]);
                work[i][k]
            }
        };
        let (mut a, mut b, mut c) = (leg(0), leg(1), leg(2));
        let r = rounds_on(
            || now.get(),
            n,
            &mut [("a", &mut a), ("b", &mut b), ("c", &mut c)],
        );
        (r, log.into_inner())
    }

    #[test]
    fn the_first_leg_rotates_and_every_leg_runs_once_a_round() {
        let d: &[f64] = &[1.0; 5];
        let w: &[u64] = &[7; 5];
        let (r, log) = logged_rounds(4, [d, d, d], [w, w, w]);
        // The warm-up in order, then rounds starting at a, b, c and a.
        assert_eq!(log.iter().collect::<String>(), "abcabcbcacababc");
        for name in ["a", "b", "c"] {
            assert_eq!(r.secs[r.leg(name)].len(), 4);
            assert_eq!(r.work[r.leg(name)], 7);
        }
    }

    #[test]
    fn each_ratio_pairs_the_samples_of_one_round() {
        // Per round a/b is 1/3, 2, 3: the median of paired ratios is 2,
        // while the ratio of the legs' medians would be 2/3.
        let a: &[f64] = &[1.0, 1.0, 2.0, 9.0];
        let b: &[f64] = &[1.0, 3.0, 1.0, 3.0];
        let c: &[f64] = &[1.0; 4];
        let w: &[u64] = &[1; 4];
        let (r, _) = logged_rounds(3, [a, b, c], [w, w, w]);
        assert_eq!(r.secs[0], vec![1.0, 2.0, 9.0]);
        assert_eq!(r.ratio("a", "b")[1], 2.0);
        assert_eq!(r.ratio("b", "c"), [1.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "leg `b` did 5 units of work in round 1, 4 when warming up")]
    fn a_leg_whose_work_changes_between_rounds_fails() {
        let d: &[f64] = &[1.0; 4];
        let w: &[u64] = &[4; 4];
        let (_, _) = logged_rounds(3, [d, d, d], [w, &[4, 4, 5, 4], w]);
    }
}
