//! Metrics overhead check: the flow_hotpath workload with no registry
//! attached vs. with solver introspection enabled and harvested into a
//! [`obs::metrics::MetricsRegistry`] every rep.
//!
//! It runs a fixed rep workload in both modes,
//! writes `BENCH_metrics_overhead.json` at the repository root, and
//! enforces two gates so the "zero cost when disabled" claim stays true
//! in CI instead of decaying the way the tracing overhead once did:
//!
//! * metrics-off reps/sec must stay at or above 95% of the committed
//!   `BENCH_flow_hotpath.json` incremental baseline — the workload is
//!   identical, so a gap here is instrumentation leaking into the
//!   disabled path (dirty-histogram upkeep, counter indirection);
//! * metrics-on overhead must stay under the `max_overhead_frac`
//!   threshold committed in this bench's own output file.

use bench::{extract_f64, hotpath_rep, median, HOTPATH_FLOWS};
use simcore::flow::SimArena;

const REPS: usize = 15;

/// One flow_hotpath rep; when `registry` is set the sim collects its
/// introspection histograms and harvests everything into the registry
/// inside the timed region (that harvest is part of what a campaign rep
/// pays, so it belongs in the measurement).
fn one_rep(registry: Option<&mut obs::metrics::MetricsRegistry>, arena: &mut SimArena) -> f64 {
    let metered = registry.is_some();
    hotpath_rep(
        arena,
        false,
        |sim| {
            if metered {
                sim.enable_metrics();
            }
        },
        |sim| {
            if let Some(reg) = registry {
                sim.metrics_into(reg);
            }
        },
    )
}

fn main() {
    let mut arena = SimArena::new();
    let mut registry = obs::metrics::MetricsRegistry::new();
    // Warm caches, allocator, and the arena before timing anything.
    one_rep(None, &mut arena);
    one_rep(Some(&mut registry), &mut arena);

    // Interleave the modes so environmental drift hits both equally.
    let mut off = Vec::with_capacity(REPS);
    let mut on = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        off.push(one_rep(None, &mut arena));
        on.push(one_rep(Some(&mut registry), &mut arena));
    }
    assert!(
        registry.counter("sim.events_processed") > 0
            && registry.histogram("sim.dirty_component_size").is_some(),
        "metered reps recorded nothing"
    );

    let off_rps = 1.0 / median(off);
    let on_rps = 1.0 / median(on);
    let overhead = off_rps / on_rps - 1.0;

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_metrics_overhead.json"
    );
    let max_overhead = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| extract_f64(&s, "max_overhead_frac"))
        .unwrap_or(0.10);
    let hotpath_baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_flow_hotpath.json"
    ))
    .ok()
    .and_then(|s| extract_f64(&s, "incremental_reps_per_sec"));

    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"metrics_off_reps_per_sec\": {off_rps:.2},\n  \
         \"metrics_on_reps_per_sec\": {on_rps:.2},\n  \
         \"metrics_on_overhead_frac\": {overhead:.4},\n  \
         \"max_overhead_frac\": {max_overhead}\n}}\n"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!(
        "metrics off {off_rps:.1} reps/s, on {on_rps:.1} reps/s ({:+.1}% with a registry harvested)",
        overhead * 100.0
    );
    println!("wrote {out}");

    if let Some(base) = hotpath_baseline {
        if off_rps < 0.95 * base {
            eprintln!(
                "FAIL: metrics-off {off_rps:.1} reps/s is below 95% of the committed \
                 flow_hotpath baseline {base:.1} — the disabled path is no longer free"
            );
            std::process::exit(1);
        }
        println!("zero-cost check passed ({off_rps:.1} vs committed hotpath {base:.1} reps/s)");
    } else {
        println!("no committed flow_hotpath baseline; skipping the zero-cost check");
    }
    if overhead > max_overhead {
        eprintln!(
            "FAIL: metrics-on overhead {:.1}% exceeds the committed {:.1}% threshold",
            overhead * 100.0,
            max_overhead * 100.0
        );
        std::process::exit(1);
    }
}
