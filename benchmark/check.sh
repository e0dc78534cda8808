#!/usr/bin/env bash
# Benchmark self-check: build, unit tests, a smoke pass of every workload
# (one repetition of every 8th point) and of the traced run, and that
# BENCHMARK.json is what the metric registry generates. Under a minute;
# measures nothing. Not yet wired into ../ci.sh (outside this directory).
set -euo pipefail
cd "$(dirname "$0")"

perfbench() { cargo run --release --offline --quiet -- "$@"; }

echo "==> build"
cargo build --release --offline --quiet
echo "==> unit tests"
cargo test --offline --quiet
echo "==> run --smoke (every workload)"
perfbench run --smoke | grep -E '^(# |fail_share|FAILED|\{"correct")'
echo "==> trace --smoke (per-layer names)"
perfbench trace --smoke --workload cluster_ring | grep -E '^(# |FAILED)'
echo "==> BENCHMARK.json matches the registry"
perfbench manifest | diff - ../BENCHMARK.json
echo "benchmark check: ok"
