#!/usr/bin/env bash
# Local mirror of the CI gate: build, test, lint, format.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# The benches below rewrite their BENCH_*.json reports at the repository
# root. Put the committed ones back on exit, pass or fail: no gate reads
# them, and refreshing the committed reports stays a deliberate act.
bench_saved=$(mktemp -d)
cp BENCH_*.json "$bench_saved"/
trap 'cp "$bench_saved"/BENCH_*.json . && rm -rf "$bench_saved"' EXIT

echo "==> cargo build --workspace --all-targets"
cargo build --workspace --all-targets --locked

echo "==> cargo test --workspace -q"
cargo test --workspace -q --locked

echo "==> vendored crates' unit tests (outside the workspace, so cargo test --workspace skips them; lock files are ignored, build output goes under target/)"
for manifest in vendor/*/Cargo.toml; do
  cargo test -q --offline --manifest-path "$manifest" --target-dir target/vendor
done

echo "==> solver differentials in release (a release build skips the debug walk past the whole-set shortcut and the cross-check of every reused solve, so these run the paths it ships)"
cargo test --release --locked -p beegfs-repro --test solver_properties --test online_oracle --test restripe_properties
cargo test --release --locked -p simcore --test collection_differential

echo "==> benchmark self-test (every perfbench workload's pinned decision-log, restripe-log and event-count digests at toy size)"
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> rustfmt --check of the vendored serde derive (outside the workspace, so cargo fmt skips it)"
rustfmt --edition 2021 --check vendor/serde_derive/src/lib.rs

echo "==> golden trace determinism (same seed => byte-identical trace)"
cargo run --release --locked -p experiments --bin repro -- --seed 7 --trace target/trace-a.json
cargo run --release --locked -p experiments --bin repro -- --seed 7 --trace target/trace-b.json
cmp target/trace-a.json target/trace-b.json

echo "==> golden metrics determinism (same seed => byte-identical snapshot)"
cargo run --release --locked -p experiments --bin repro -- --seed 7 --metrics target/metrics-a.json > /dev/null
cargo run --release --locked -p experiments --bin repro -- --seed 7 --metrics target/metrics-b.json > /dev/null
cmp target/metrics-a.json target/metrics-b.json

echo "==> tracing overhead bench (writes BENCH_trace_overhead.json; both legs ask for the utilization report, so both simulate one flow per record; fails if the median over rounds of traced less untraced CPU time, over a reference computation's, exceeds 1.15; traced over the grouped plain run is reported, not gated)"
cargo bench --locked -p bench --bench trace_overhead

echo "==> scheduler placement throughput bench (writes BENCH_sched_throughput.json; fails if any policy's median over rounds of its per-decision CPU time on the 1,000-target fleet over its time on the 8-target scenario-1 platform exceeds 55x)"
cargo bench --locked -p bench --bench sched_throughput

echo "==> solver hot-path bench (writes BENCH_flow_hotpath.json; fails if the median over rounds of reference-solver over incremental CPU time is below 10.3, if metrics-on over metrics-off CPU time, less one, over 301 rounds of those two legs alone exceeds 0.10, or if a dense-leg solve does not take the whole active set)"
cargo bench --locked -p bench --bench flow_hotpath

echo "==> fleet-scale solver bench (writes BENCH_flow_scale.json; fails if the median over rounds of the 200k-flow leg's CPU time over a reference computation's, per 1,000 completions, exceeds 0.60)"
cargo bench --locked -p bench --bench flow_scale

echo "==> online-engine scaling bench (writes BENCH_sched_scale.json; fails on <10x online-vs-frozen throughput on the contended 1e4 burst, >2x work-per-admission growth to 1e6, 1e6 throughput below 0.1x the median of the 1e4 rounds served after it, a median in-round adaptive-over-plain CPU time above 1.5x or >2x adaptive events on those rounds, or peak RSS above 1024 MiB after the 1e6 rung)"
cargo bench --locked -p bench --bench sched_scale

echo "==> cached tables are the computed ones (2 reps of the single-run figures and fig13: a cold and a warm run on one cache, then an uncached run; the three stdouts must match)"
rm -rf target/smoke-cache
for run in cold warm; do
  cargo run --release --locked -p experiments --bin repro -- --reps 2 --cache target/smoke-cache fig2 chowdhury policy reads nn metadata fig13 > target/smoke-$run.txt
done
cargo run --release --locked -p experiments --bin repro -- --reps 2 --no-cache fig2 chowdhury policy reads nn metadata fig13 > target/smoke-uncached.txt
cmp target/smoke-cold.txt target/smoke-warm.txt
cmp target/smoke-cold.txt target/smoke-uncached.txt

echo "==> examples in release (each prints its tables; a panic fails the gate)"
for example in quickstart tuning_advisor shared_cluster failure_drill full_study; do
  cargo run --release --locked --example "$example"
done

echo "==> interference smoke cell (1 rep, 50 apps on the 100x10 FleetSpec fleet: packed vs spread vs random)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 interference

echo "==> straggler campaign smoke cell (1 rep, hedged vs plain under an injected straggler)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 straggler

echo "==> adaptive restriping smoke cell (1 rep, scenario-blind feedback vs fixed placement in both scenarios)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 adaptive

echo "==> straggler machinery overhead bench (writes BENCH_straggler_overhead.json; fails if the median over rounds of hedged over the grouped plain run's CPU time exceeds 15.0, or of hedged less plain CPU time, over the plain runs' forced to one flow per record, exceeds 4.7)"
cargo bench --locked -p bench --bench straggler_overhead

echo "All checks passed."
