//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_grid|online_long|fleet_online> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, every timed call on this one thread, every
//! timing in process CPU seconds rescaled to a fixed host speed (see
//! `clock`). `--seed` makes the inputs; `--seconds`
//! sizes the timed work (a fixed amount per second, so the same seed and
//! seconds always do identical work). The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`, which also
//! writes the spans as a Chrome trace under `.perfbench/`). A failed
//! output check prints the result and exits 1. See README.md.

mod clock;
mod grid;
mod host;
mod online;
mod report;
mod trace;

use report::{Outcome, Values};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <paper_grid|online_long|fleet_online> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The seed whose warm-up outputs each workload pins.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics and their units, reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "ops/s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
];

/// Per-layer metrics and their units; a layer a workload bypasses or
/// cannot see from outside the program reports 0 (see README.md).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.deploy_ms", "ms"),
    ("ior.execute_ms_p50", "ms"),
    ("ior.execute_ms_p99", "ms"),
    ("ior.chunks_per_op", "count"),
    ("simcore.events_per_op", "count"),
    ("simcore.cpu_us_per_event", "us"),
    ("simcore.solves_per_op", "count"),
    ("simcore.flows_solved_per_solve", "count"),
    ("simcore.solve_skip_ratio", "fraction"),
    ("simcore.heap_pops_per_op", "count"),
    ("simcore.dirty_component_size_p99", "count"),
    ("sched.events_per_admission", "count"),
    ("sched.cpu_us_per_admission", "us"),
    ("sched.live_flows_max", "count"),
    ("sched.live_apps_max", "count"),
    ("sched.queue_depth_p99", "count"),
    ("sched.restripes", "count"),
    ("sched.restripe_accept_ratio", "fraction"),
    ("sched.evictions", "count"),
    ("sched.replacements", "count"),
    ("sched.arrivals_gen_ms", "ms"),
    ("store.save_ms_per_cell", "ms"),
    ("store.load_ms_per_cell", "ms"),
    ("store.bytes_per_cell", "bytes"),
    ("store.warm_run_s", "s"),
    ("stats.summarize_ms", "ms"),
    ("obs.trace_overhead_frac", "fraction"),
    ("host.sys_frac", "fraction"),
    ("host.minflt_per_op", "count"),
    ("host.rss_kib_per_admission", "KiB"),
    ("host.wall_over_cpu", "ratio"),
    ("host.nivcsw", "count"),
    ("host.ref_slowdown", "ratio"),
];

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A fresh directory under `.perfbench/` in the working directory for
/// this process's temporary stores.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory under .perfbench/");
    dir
}

/// Run the set-up `reps` times; returns the median seconds on the
/// benchmark's clock and the last repetition's result (what the timed
/// phase then uses).
pub fn setup_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = clock::tick();
        last = Some(f());
        times.push(clock::now() - t0);
    }
    (
        report::quantile(&times, 0.5),
        last.expect("at least one set-up repetition"),
    )
}

/// One untraced timed phase: its length on the benchmark's clock and
/// the kernel's view of it.
pub struct Phase {
    pub work_s: f64,
    pub usage: host::Delta,
    pub rss_before_kib: u64,
    pub hwm_after_kib: u64,
}

/// Run `f` as a timed phase.
pub fn timed_phase<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let rss_before_kib = host::vm_kib("VmRSS");
    let before = host::Usage::now();
    let t0 = clock::tick();
    let out = f();
    let work_s = clock::now() - t0;
    let after = host::Usage::now();
    let phase = Phase {
        work_s,
        usage: host::Delta::between(&before, &after),
        rss_before_kib,
        hwm_after_kib: host::vm_kib("VmHWM"),
    };
    (out, phase)
}

/// Contiguous blocks the untraced phase's ops are split into for the
/// per-op percentiles.
const BLOCKS: usize = 16;

/// End-to-end values every workload shares. Throughput is the phase's
/// `ops` over the whole phase on the benchmark's clock, so work outside
/// the ops (a store round trip, a session's drain) counts too. The per-op
/// times, in execution order, are split into [`BLOCKS`] equal contiguous
/// blocks; p50 and p99 are each the mean over the middle half of the
/// blocks' own p50 or p99. That keeps out of the figure both a burst of
/// neighbour load the clock under-corrected and the few heaviest stretches
/// of a session (a `fleet_online` restripe episode), whose count varies
/// with the seed: over all ops at once, `fleet_online`'s p99 spread twice
/// as much across seeds.
pub fn end_to_end(phase: &Phase, setup_s: f64, ops: u64, op_s: &[f64]) -> Values {
    let len = (op_s.len() / BLOCKS).max(1);
    let blocks: Vec<&[f64]> = op_s.chunks_exact(len).collect();
    let middle_mean = |p: f64| {
        let mut v: Vec<f64> = blocks.iter().map(|b| report::quantile(b, p)).collect();
        v.sort_by(f64::total_cmp);
        let mid = &v[v.len() / 4..v.len() - v.len() / 4];
        mid.iter().sum::<f64>() / mid.len() as f64
    };
    vec![
        ("setup_s", setup_s),
        ("ops_per_cpu_s", ops as f64 / phase.work_s),
        ("peak_rss_mib", phase.hwm_after_kib as f64 / 1024.0),
        ("op_p50_ms", 1e3 * middle_mean(0.5)),
        ("op_p99_ms", 1e3 * middle_mean(0.99)),
    ]
}

/// Host and tracing-cost values: the untraced phase as the kernel saw
/// it, and the traced repeat's time over an untraced repeat's.
pub fn host_values(phase: &Phase, ops: u64, traced_over_untraced: f64) -> Values {
    let u = &phase.usage;
    let grown = phase.hwm_after_kib.saturating_sub(phase.rss_before_kib);
    vec![
        ("obs.trace_overhead_frac", traced_over_untraced - 1.0),
        ("host.sys_frac", u.sys_s / u.cpu_s),
        ("host.minflt_per_op", u.minflt as f64 / ops as f64),
        ("host.rss_kib_per_admission", grown as f64 / ops as f64),
        ("host.wall_over_cpu", u.wall_s / u.cpu_s),
        ("host.nivcsw", u.nivcsw as f64),
        ("host.ref_slowdown", clock::host_slowdown()),
    ]
}

/// Write a traced run's spans as a Chrome trace under `.perfbench/`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    std::fs::create_dir_all(".perfbench").expect("create .perfbench/");
    let path = format!(".perfbench/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, tracer.chrome_json()).expect("write the Chrome trace");
    eprintln!("perfbench: wrote {path}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The repro CLI's allocator setting for long sessions.
    simcore::alloc_tuning::tune_for_long_sessions();
    let out: Outcome = match args.workload.as_str() {
        "paper_grid" => {
            clock::start(&clock::SMALL);
            grid::run(&args)
        }
        "online_long" => {
            clock::start(&clock::LARGE);
            online::run(&online::LONG, &args)
        }
        "fleet_online" => {
            clock::start(&clock::LARGE);
            online::run(&online::FLEET, &args)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for (name, d) in &out.digests {
        eprintln!("digest {name} {d:016x}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report::result_json(&out, table));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
