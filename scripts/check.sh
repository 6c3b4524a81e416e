#!/usr/bin/env bash
# Local mirror of the CI gate: build, test, lint, format.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --all-targets"
cargo build --workspace --all-targets --locked

echo "==> cargo test --workspace -q"
cargo test --workspace -q --locked

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> golden trace determinism (same seed => byte-identical trace)"
cargo run --release --locked -p experiments --bin repro -- --seed 7 --trace target/trace-a.json
cargo run --release --locked -p experiments --bin repro -- --seed 7 --trace target/trace-b.json
cmp target/trace-a.json target/trace-b.json

echo "==> golden metrics determinism (same seed => byte-identical snapshot)"
cargo run --release --locked -p experiments --bin repro -- --seed 7 --metrics target/metrics-a.json > /dev/null
cargo run --release --locked -p experiments --bin repro -- --seed 7 --metrics target/metrics-b.json > /dev/null
cmp target/metrics-a.json target/metrics-b.json

echo "==> tracing overhead bench (writes BENCH_trace_overhead.json; fails above the committed overhead bound)"
cargo bench --locked -p bench --bench trace_overhead

echo "==> metrics overhead bench (writes BENCH_metrics_overhead.json; fails if metrics-off drops below 95% of the flow_hotpath baseline or overhead exceeds the committed bound)"
cargo bench --locked -p bench --bench metrics_overhead

echo "==> scheduler placement throughput bench (writes BENCH_sched_throughput.json)"
cargo bench --locked -p bench --bench sched_throughput

echo "==> solver hot-path bench (writes BENCH_flow_hotpath.json; fails on <2x speedup or >30% regression vs committed baseline)"
cargo bench --locked -p bench --bench flow_hotpath

echo "==> fleet-scale solver bench (writes BENCH_flow_scale.json; fails on <5x sharded speedup over the reference solver at 200k flows or >30% regression vs committed baseline)"
cargo bench --locked -p bench --bench flow_scale

echo "==> online-engine scaling bench (writes BENCH_sched_scale.json; fails on <10x online-vs-frozen speedup at 1e4 arrivals, >2x work-per-admission growth to 1e6, >1.5x adaptive-feedback overhead, peak RSS above 1024 MiB after the 1e6 rung, or throughput collapse)"
cargo bench --locked -p bench --bench sched_scale

echo "==> interference smoke cell (1 rep, 50 apps on the 100x10 FleetSpec fleet: packed vs spread vs random)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 interference

echo "==> straggler campaign smoke cell (1 rep, hedged vs plain under an injected straggler)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 straggler

echo "==> adaptive restriping smoke cell (1 rep, scenario-blind feedback vs fixed placement in both scenarios)"
cargo run --release --locked -p experiments --bin repro -- --reps 1 adaptive

echo "==> straggler machinery overhead bench (writes BENCH_straggler_overhead.json; fails if detector-off drops below 70% of the flow_hotpath baseline)"
cargo bench --locked -p bench --bench straggler_overhead

echo "All checks passed."
