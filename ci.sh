#!/usr/bin/env bash
# Repository CI gate: build, test, lint, and hold the figure harness to the
# committed results/.
#
#   ./ci.sh
#
# Fails fast on the first broken step. Output identity has one definition:
# `figures all` reproduces results/figures.txt and all 35 results/*.json
# byte for byte, whatever the flags (see pin below).
# Performance has one record: perfbench (benchmark/), not this script.
set -euo pipefail
cd "$(dirname "$0")"

# pin <label> [flags...]: `figures all <flags>` reproduces the committed
# stdout and every committed figure JSON. A deliberate model change
# regenerates the pin in the same diff:
#   ./target/release/figures all --json results/ > results/figures.txt
pin() {
    local label=$1 out=results/ci/pin
    shift
    echo "==> pin ($label): figures all $* == committed results/"
    rm -rf "$out" && mkdir -p "$out"
    ./target/release/figures all "$@" --json "$out" \
        > "$out/figures.txt" 2> results/ci/pin.stderr || {
        cat results/ci/pin.stderr >&2
        return 1
    }
    diff -r --brief --exclude=ci --exclude=allow_budget.json results "$out"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (default members: every crate, and the figures binary the pins run)"
cargo build --release

echo "==> cargo test -q --workspace"
# Bounded: a test that hangs (as simnet::shard's worker-panic test did
# until PR 17) fails this step instead of stalling the gate.
timeout 1800 cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc -q --no-deps --workspace

echo "==> simlint (determinism & panic-path gates)"
# One pipeline over the workspace; any finding fails. Per-file rules reject
# hash-ordered containers, wall-clock reads, OS threads, unseeded RNGs,
# Relaxed atomics and cross-shard state in simulation-state code
# (DESIGN.md §6); the interprocedural passes add nondeterminism taint
# through calls and unwraps reachable from the fabric transfer hot paths
# (§11). Dimensions are the compiler's: the types and simnet's
# cast_possible_truncation deny, enforced by the clippy step above (§12).
cargo run -q -p simlint

mkdir -p results/ci
echo "==> simlint --audit-allows: waiver budget no-regression"
# Every inline allow is a standing exception to a determinism rule. The
# audit fails on stale waivers, and the committed results/allow_budget.json
# caps the total: adding an allow means consciously raising the budget in
# the same diff that justifies it. Shrinking is always welcome.
cargo run -q -p simlint -- --audit-allows --json \
    > results/ci/allow_audit.json
python3 - <<'EOF'
import json
audit = json.load(open("results/ci/allow_audit.json"))
budget = json.load(open("results/allow_budget.json"))
assert audit["stale"] == 0, f"stale allow annotations: {audit}"
assert audit["allows"] <= budget["allows"], (
    f"allow count grew: {audit['allows']} > budgeted {budget['allows']}; "
    "raise results/allow_budget.json deliberately or drop the new waiver"
)
print(f"allow audit: {audit['allows']} waivers (budget {budget['allows']}), 0 stale")
EOF

echo "==> differential sweep: fast path vs per-segment walk (100k cases)"
FASTPATH_DIFF_CASES=100000 cargo test -q --release --test fastpath_diff

echo "==> differential sweep: transfer memo vs unmemoized replay (100k cases)"
# Same harness shape for the whole-transfer memo: every scenario (bursts,
# demotions, observers, fault-judged sends) must be observationally
# identical with the cache enabled and force-disabled.
MEMO_DIFF_CASES=100000 cargo test -q --release --test memo_diff

echo "==> calendar differential in release (full 204k operations)"
# Debug builds run a quarter of the seeded streams for wall-clock.
cargo test -q --release -p simnet --lib calendar::tests::matches_the_ordered_map_reference_on_random_streams

echo "==> determinism suite in release (full --threads {1,2,4,8} digest matrix)"
# The fig2/fig-loss thread-sweep digests are ignored in debug builds for
# wall-clock; release runs the whole matrix in seconds.
cargo test -q --release --test determinism -- --include-ignored

echo "==> smoke: figures --selftest"
./target/release/figures --selftest > /dev/null

# The memo and the worker-pool cap (figure groups AND the sharded engine's
# worker count; `--threads 1` is the serial run) may change wall-clock only.
pin default

echo "==> conformance: every oracle figures all exercises ran, none fired"
# The runtime oracles are in every build (DESIGN.md §7) and pure observers,
# so pin default above already proves they move no byte. A disconnected
# oracle would pass silently: each rule the figures reach must show checks.
# iwarp.mpa-framing, ether.tcp-seq and ether.frame-accounting see traffic
# only in tests/simcheck_e2e.rs's codec pass.
grep -Eq '^simcheck: [0-9]+ checks, 0 violations$' results/ci/pin.stderr || {
    cat results/ci/pin.stderr >&2
    echo "pin default printed no clean simcheck summary" >&2
    exit 1
}
for rule in iwarp.ddp-msn iwarp.rdmap-state ib.qp-state ib.cq-order \
    host.mr-bounds mx.match-order mx.rndv-switch fault.delivery \
    fault.retx-bound shard.merge-order shard.lookahead workload.conservation; do
    grep -Eq "^  ${rule//./\\.} +checks=[1-9][0-9]* +violations=0\$" results/ci/pin.stderr || {
        cat results/ci/pin.stderr >&2
        echo "figures all never exercised $rule (or it fired)" >&2
        exit 1
    }
done

pin no-memo --no-memo
pin threads-1 --threads 1

echo "==> benchmark/check.sh: perfbench stable surface + digest-exact goldens"
# The benchmark is its own package (benchmark/, outside this workspace) and
# calls the crates only through the surface benchmark/README.md lists. Its
# self-check builds it, smoke-runs every workload against the committed
# goldens and checks BENCHMARK.json, so a refactor that breaks that surface
# or moves a golden fails here instead of in the bench pipeline.
benchmark/check.sh

echo "CI OK"
