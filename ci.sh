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
    diff -r --brief --exclude=ci results "$out"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (default members: every crate, and the figures binary the pins run)"
cargo build --release

echo "==> cargo test -q --workspace"
# Bounded: a test that hangs (as simnet::shard's worker-panic test did
# until PR 17) fails this step instead of stalling the gate.
timeout 1800 cargo test -q --workspace

echo "==> cargo clippy -- -D warnings (lint table, and clippy.toml's determinism bans)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc -q --no-deps --workspace

mkdir -p results/ci
echo "==> lint canaries: clippy.toml's bans fire on ci/lint-canary/"
# The determinism bans (DESIGN.md §6) are clippy.toml's disallowed-types
# and disallowed-methods, enforced by the clippy step above. Each canary
# names, on a `// clippy:` line, the diagnostic it must raise; clean.rs
# must pass.
canary() {
    CLIPPY_CONF_DIR=. clippy-driver --edition 2021 --crate-type lib \
        --emit=metadata --out-dir results/ci/canary \
        -D clippy::disallowed_types -D clippy::disallowed_methods "$1" 2>&1
}
canary ci/lint-canary/clean.rs
for f in ci/lint-canary/*.rs; do
    want=$(sed -n 's|^// clippy: ||p' "$f")
    [ -n "$want" ] || continue
    if out=$(canary "$f"); then
        echo "$f passed clippy: its ban no longer fires" >&2
        exit 1
    fi
    grep -qF "$want" <<<"$out" || {
        echo "$out" >&2
        echo "$f failed clippy, but not with: $want" >&2
        exit 1
    }
done

echo "==> no waivers: no expected ban and no Relaxed atomic in simulation scope"
# Simulation scope is every tracked .rs file that takes the root
# clippy.toml. A waived ban is an `#[expect(clippy::disallowed_*, reason)]`;
# clippy cannot match `Ordering::Relaxed`, so each mention of it is a waiver
# too. Simulation code has none (the executor wakes tasks by slab id, so
# nothing needs a `Send + Sync` waker), and this step fails on the first
# one. A stale `#[expect]` fails the clippy step.
waiver='clippy::disallowed_(types|methods)|Relaxed'
waivers() {
    git grep --untracked -ohwE "$waiver" -- "$@" || true
}
[ "$(waivers ci/lint-canary/relaxed.rs)" = Relaxed ] && [ -z "$(waivers ci/lint-canary/clean.rs)" ] || {
    echo "the waiver grep misses ci/lint-canary/relaxed.rs or matches clean.rs" >&2
    exit 1
}
scope=('*.rs' ':!benchmark/' ':!ci/')
for conf in $(git ls-files -co --exclude-standard '*/clippy.toml'); do scope+=(":!${conf%clippy.toml}"); done
if [ -n "$(waivers "${scope[@]}")" ]; then
    git grep --untracked -nwE "$waiver" -- "${scope[@]}" >&2
    echo "determinism waivers in simulation scope (above); simulation code takes none" >&2
    exit 1
fi
echo "waivers: 0"

echo "==> differential sweep: walk vs fast path vs memo replay (100k cases)"
# Every scenario (fresh and repeated shapes, bursts, demotions, observers,
# loss-judged sends) runs on all three transfer tiers, which must agree on
# every observable; the two fast-path runs also on the event trace.
TRANSFER_DIFF_CASES=100000 cargo test -q --release --test transfer_diff

echo "==> calendar and timer-queue tests in release (full differentials, long spans, trains)"
# Debug builds run a quarter of the calendar's seeded streams and a tenth
# of the timer queue's for wall-clock.
cargo test -q --release -p simnet --lib -- calendar::tests timers::tests

echo "==> determinism suite in release (full --threads {1,2,4,8} digest matrix)"
# The fig2/fig-loss thread-sweep digests are ignored in debug builds for
# wall-clock; release runs the whole matrix in seconds.
cargo test -q --release --test determinism -- --include-ignored

echo "==> smoke: figures --selftest"
./target/release/figures --selftest > /dev/null

# The transfer tier (`--tier walk|fast|memo`, memo by default) and the
# figure-group pool cap (`--threads 1` is the serial run) may change
# wall-clock only.
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

pin fast --tier fast
# The per-segment walk everywhere: the whole-figure twin of
# transfer_diff's walk-vs-fast-path check, and where the pipe calendars
# take most bookings.
pin walk --tier walk
pin threads-1 --threads 1

echo "==> benchmark/check.sh: perfbench stable surface + digest-exact goldens"
# The benchmark is its own package (benchmark/, outside this workspace) and
# calls the crates only through the surface benchmark/README.md lists. Its
# self-check builds it, smoke-runs every workload against the committed
# goldens and checks BENCHMARK.json, so a refactor that breaks that surface
# or moves a golden fails here instead of in the bench pipeline.
# Building benchmark/ refreshes its Cargo.lock with the path crates' current
# dependency edges; the committed lock is put back afterwards, pass or fail.
cp benchmark/Cargo.lock results/ci/benchmark-Cargo.lock
status=0
benchmark/check.sh || status=$?
if ! cmp -s results/ci/benchmark-Cargo.lock benchmark/Cargo.lock; then
    cp results/ci/benchmark-Cargo.lock benchmark/Cargo.lock
    echo "benchmark/Cargo.lock is stale (the build rewrote it); restored the committed copy until a benchmark change commits the refresh (ROADMAP item 1)"
fi
[ "$status" -eq 0 ]

echo "CI OK"
