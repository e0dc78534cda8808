//! Integration tests: the simulation is bit-deterministic — identical
//! configurations produce identical virtual timings, run after run — and
//! the figures this suite generates anyway reproduce the committed
//! `results/<id>.json` byte for byte (the pin ci.sh checks for all 35).

use mpisim::FabricKind;

#[test]
fn mpi_latency_is_bit_identical_across_runs() {
    for kind in FabricKind::ALL {
        let a = netbench::mpi_latency::mpi_half_rtt_us(kind, 1024, 10);
        let b = netbench::mpi_latency::mpi_half_rtt_us(kind, 1024, 10);
        assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} nondeterministic");
    }
}

#[test]
fn multiconn_results_are_bit_identical_across_runs() {
    let a = netbench::multiconn::normalized_latency(FabricKind::InfiniBand, 16, 2048, 4);
    let b = netbench::multiconn::normalized_latency(FabricKind::InfiniBand, 16, 2048, 4);
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn figure_generation_is_reproducible() {
    let f1 = netbench::reuse::reuse_ratio(FabricKind::Iwarp, 65536);
    let f2 = netbench::reuse::reuse_ratio(FabricKind::Iwarp, 65536);
    assert_eq!(f1.to_bits(), f2.to_bits());
}

/// FNV-1a over the ordered, serialized event log of a figure run. Every
/// series, every point, every byte in order — any executor reordering
/// (slab recycling, wake coalescing, timer batching, thread scheduling)
/// shows up as a different digest.
fn figure_digest(figs: &[netbench::Figure]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fig in figs {
        for byte in fig.to_json().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Generate `sel` serially and hold it to the committed pin.
fn generate_pinned(sel: &str) -> Vec<netbench::Figure> {
    let figs = bench::generate(sel);
    assert_pinned(&figs, "");
    figs
}

/// Every figure must equal `results/<id>.json` byte for byte, and a figure
/// with no committed file is a failure, not a skip. `how` says how the
/// figures were made, for the failure message.
fn assert_pinned(figs: &[netbench::Figure], how: &str) {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for fig in figs {
        let path = results.join(format!("{}.json", fig.id));
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: no committed pin ({e})", path.display()));
        assert!(
            fig.to_json() == pinned,
            "{}{how} drifted from the committed {}; if the model change is deliberate, \
             regenerate with `figures all --json results/ > results/figures.txt`",
            fig.id,
            path.display()
        );
    }
}

#[test]
fn fig1_event_order_digest_is_stable_serial_and_parallel() {
    let serial_a = figure_digest(&generate_pinned("fig1"));
    let serial_b = figure_digest(&bench::generate("fig1"));
    assert_eq!(
        serial_a, serial_b,
        "two serial fig1 runs must produce identical event-order digests"
    );
    let parallel = figure_digest(&bench::generate_parallel("fig1", bench::default_threads()));
    assert_eq!(
        serial_a, parallel,
        "parallel fig1 generation must be bit-identical to serial"
    );
}

#[test]
fn fig2_and_fig5_order_digests_are_stable_across_double_runs() {
    for sel in ["fig2", "fig5"] {
        let a = figure_digest(&generate_pinned(sel));
        let b = figure_digest(&bench::generate(sel));
        assert_eq!(a, b, "two serial {sel} runs must produce identical digests");
    }
}

/// The buffer-reuse figure allocates 24 fresh buffers per side per point and
/// never reads them; its registration-cost curves must still match the pin.
#[test]
fn fig6_matches_the_committed_pin() {
    generate_pinned("fig6");
}

#[test]
fn fig_loss_digest_is_stable_across_double_runs() {
    // The lossy sweep draws from the fault plane's counter-based PRNG; two
    // runs must still be byte-identical, or the injected faults depend on
    // something other than the seed and the per-connection counters.
    let a = figure_digest(&generate_pinned("fig-loss"));
    let b = figure_digest(&bench::generate("fig-loss"));
    assert_eq!(
        a, b,
        "two serial fig-loss runs must produce identical digests"
    );
}

/// The `--threads` knob (the figure-group worker pool) may change
/// wall-clock time only. Every figure digest must be byte-identical to the
/// serial run at every thread count.
#[test]
fn fig1_digest_is_thread_count_invariant() {
    let serial = figure_digest(&bench::generate("fig1"));
    for threads in [1usize, 2, 4, 8] {
        let par = figure_digest(&bench::generate_parallel("fig1", threads));
        assert_eq!(
            serial, par,
            "fig1 output diverged from serial at {threads} threads"
        );
    }
}

/// Same sweep over the heavier selectors. Ignored in debug builds purely
/// for wall-clock (five full fig2 + fig-loss generations take minutes
/// unoptimized); `ci.sh` runs the determinism suite in release with
/// `--include-ignored`, so the full matrix is still gated every CI run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; ci.sh runs this in release via --include-ignored"
)]
fn fig2_and_fig_loss_digests_are_thread_count_invariant() {
    for sel in ["fig2", "fig-loss"] {
        let serial = figure_digest(&bench::generate(sel));
        for threads in [1usize, 2, 4, 8] {
            let par = figure_digest(&bench::generate_parallel(sel, threads));
            assert_eq!(
                serial, par,
                "{sel} output diverged from serial at {threads} threads"
            );
        }
    }
}

/// Same gate for the figure that exercises the sharded engine: the
/// cluster-exchange figure's digest must not depend on which pool worker
/// generates it.
#[test]
fn shard_figure_digest_is_thread_count_invariant() {
    let serial = figure_digest(&generate_pinned("shard"));
    for threads in [2usize, 4, 8] {
        let par = figure_digest(&bench::generate_parallel("shard", threads));
        assert_eq!(
            serial, par,
            "sharded figure output diverged from serial at {threads} threads"
        );
    }
}

/// The whole-transfer memo (`simnet::memo`) replays cached traversal
/// outcomes on steady-state data paths; running on the memo-less fast
/// tier must not move a single byte of figure output. fig1 (latency
/// ping-pongs) and fig4 (windowed bandwidth — the memo's hottest
/// consumer) cover both shapes. The default tier is per thread, so
/// changing it here reaches no other test's runs.
#[test]
fn fig1_and_fig4_digests_are_memo_invariant() {
    for sel in ["fig1", "fig4"] {
        let memo_on = figure_digest(&generate_pinned(sel));
        simnet::tier::set_default_tier(simnet::Tier::Fast);
        let memo_off = figure_digest(&bench::generate(sel));
        simnet::tier::set_default_tier(simnet::Tier::Memo);
        assert_eq!(
            memo_on, memo_off,
            "{sel} output changed when the transfer memo was force-disabled"
        );
    }
}

/// Memo-on thread sweep: replayed transfers must not perturb the digest
/// at any worker count (each worker's simulations own private caches, so
/// hits can differ per schedule — outputs must not).
#[test]
fn fig1_digest_is_thread_count_invariant_with_memo() {
    let serial = figure_digest(&bench::generate("fig1"));
    for threads in [1usize, 4, 8] {
        let par = figure_digest(&bench::generate_parallel("fig1", threads));
        assert_eq!(
            serial, par,
            "fig1 output diverged from serial at {threads} threads with the memo on"
        );
    }
}

/// The open-loop workload figures (`fig-tail`) stack every layer this
/// suite gates — seeded arrival generators, mpsc queues, fabric pipelines,
/// the quantile sketch — so their digest is the broadest single check the
/// workload engine answers to. Two serial runs must match exactly.
#[test]
fn fig_tail_digest_is_stable_across_double_runs() {
    let a = figure_digest(&generate_pinned("fig-tail"));
    let b = figure_digest(&bench::generate("fig-tail"));
    assert_eq!(
        a, b,
        "two serial fig-tail runs must produce identical digests"
    );
}

/// fig-tail under the whole-transfer memo: the workload engine's RPC and
/// streaming flows ride `Pipeline::transfer`, the memo's replay target, so
/// force-disabling the memo must not move a byte of tail-latency output.
#[test]
fn fig_tail_digest_is_memo_invariant() {
    let memo_on = figure_digest(&bench::generate("fig-tail"));
    simnet::tier::set_default_tier(simnet::Tier::Fast);
    let memo_off = figure_digest(&bench::generate("fig-tail"));
    simnet::tier::set_default_tier(simnet::Tier::Memo);
    assert_eq!(
        memo_on, memo_off,
        "fig-tail output changed when the transfer memo was force-disabled"
    );
}

/// fig-tail thread sweep, same contract as the fig1/fig2 sweeps: worker
/// count may change wall time only. Ignored in debug builds for wall-clock
/// (the knee figure alone runs 100 workload simulations); ci.sh runs the
/// determinism suite in release with `--include-ignored`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; ci.sh runs this in release via --include-ignored"
)]
fn fig_tail_digest_is_thread_count_invariant() {
    let serial = figure_digest(&bench::generate("fig-tail"));
    for threads in [1usize, 4, 8] {
        let par = figure_digest(&bench::generate_parallel("fig-tail", threads));
        assert_eq!(
            serial, par,
            "fig-tail output diverged from serial at {threads} threads"
        );
    }
}

/// Schedule-perturbation replay: scrambling the executor's tie-break rank
/// among simultaneously-ready timers (via [`simnet::perturb`]) permutes the
/// internal pop order of same-deadline events but must NOT change any
/// figure output — the model's results may depend on virtual time, never on
/// arm order among ties. Each group is generated under each salt on the
/// calling thread (the salt is thread-local, and `bench::generate` is the
/// serial entry point) and held to the committed pin.
///
/// Not every group passes yet: fig2, fig4, fig-tail and the ablations
/// move under a salt, because their NIC models settle some same-instant
/// races by arm order. They join this list as those races are fixed.
fn assert_pinned_under_salts(groups: &[&str]) {
    for salt in [0x9E37_79B9u64, 0xDEAD_BEEF_0BAD_F00D] {
        for sel in groups {
            let figs = simnet::perturb::with_tie_break_salt(salt, || bench::generate(sel));
            assert_pinned(
                &figs,
                &format!(
                    " under tie-break salt {salt:#x} (a figure depends on arm order \
                     among simultaneous events)"
                ),
            );
        }
    }
}

#[test]
fn fig1_figure_digest_survives_perturbed_tie_breaks() {
    assert_pinned_under_salts(&[
        "fig1", "fig5", "fig8", "e9", "e10", "e11", "fig-loss", "shard",
    ]);
}

/// The heavier groups that pass under a salt. Ignored in debug builds
/// purely for wall-clock; ci.sh runs the determinism suite in release with
/// `--include-ignored`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; ci.sh runs this in release via --include-ignored"
)]
fn heavy_figure_digests_survive_perturbed_tie_breaks() {
    assert_pinned_under_salts(&["fig3", "fig6", "fig7"]);
}
