//! Benchmark self-test at toy size (`--seconds 0.1`): the exact counts
//! and output digests repeat for one seed and move with the seed, and
//! every metric the benchmark prints is declared in `BENCHMARK.json` with
//! the unit it is printed with.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

/// The result line.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The parts of `BENCHMARK.json` the self-test checks against.
#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

/// One finished run: its result line and its digests by name.
struct RunOut {
    result: ResultLine,
    digests: BTreeMap<String, String>,
}

impl RunOut {
    fn metric(&self, name: &str) -> f64 {
        self.result.metrics[name].value
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> RunOut {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {stderr}\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result: ResultLine = serde_json::from_str(last).expect("a JSON result line");
    assert!(
        result.correct && result.failed == 0 && result.attempted > 0,
        "{last}"
    );
    let digests = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("digest "))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("digest <name> <hex>");
            (name.to_string(), hex.to_string())
        })
        .collect();
    RunOut { result, digests }
}

/// Same seed, same counts and digests. Another seed: the digests named
/// in `moving` change, the warm-up's (made on the default seed, whatever
/// the run's) do not, and `count` changes when `count_moves` (event
/// counts that the cell configuration or the stream template fix are the
/// same for every seed).
fn repeats_and_moves(workload: &str, count: &str, moving: &[&str], count_moves: bool) {
    let a = run(workload, 7, true);
    let b = run(workload, 7, true);
    let c = run(workload, 8, true);
    assert_eq!(
        a.metric(count),
        b.metric(count),
        "{workload}: {count} repeats"
    );
    assert_eq!(a.digests, b.digests, "{workload}: digests repeat");
    for (name, digest) in &a.digests {
        if moving.contains(&name.as_str()) {
            assert_ne!(
                digest, &c.digests[name],
                "{workload}: {name} moves with the seed"
            );
        } else if name.contains(".warmup.") {
            assert_eq!(digest, &c.digests[name], "{workload}: {name} is seed-free");
        }
    }
    if count_moves {
        assert_ne!(
            a.metric(count),
            c.metric(count),
            "{workload}: {count} moves with the seed"
        );
    }
}

#[test]
fn paper_grid_counts_and_digests() {
    repeats_and_moves(
        "paper_grid",
        "simcore.events_per_op",
        &["grid.bandwidth_bits"],
        false,
    );
}

#[test]
fn online_long_counts_and_digests() {
    // Every admission of this stream is 16 flows, each started and
    // completed on the live and the shadow fabric: 64 events whatever
    // the seed.
    repeats_and_moves(
        "online_long",
        "sched.events_per_admission",
        &["online.decision_log"],
        false,
    );
    assert_eq!(
        run("online_long", 9, true).metric("sched.events_per_admission"),
        64.0
    );
}

#[test]
fn fleet_online_counts_and_digests() {
    repeats_and_moves(
        "fleet_online",
        "sched.events_per_admission",
        &["online.sim_events", "online.decision_log"],
        true,
    );
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let bench: Benchmark = serde_json::from_str(&json).expect("parse BENCHMARK.json");
    for workload in ["paper_grid", "online_long", "fleet_online"] {
        for (trace, declared) in [(false, &bench.end_to_end), (true, &bench.per_layer)] {
            let printed = run(workload, 3, trace).result.metrics;
            let names: Vec<&String> = printed.keys().collect();
            let mut want: Vec<&String> = declared.iter().map(|d| &d.name).collect();
            want.sort();
            assert_eq!(names, want, "{workload} --trace {trace}: metric names");
            for d in declared {
                assert_eq!(
                    printed[&d.name].unit, d.unit,
                    "{workload}: unit of {}",
                    d.name
                );
            }
        }
    }
}
