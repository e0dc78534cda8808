//! Differential test for the three tiers of `simnet::pipe` transfers.
//!
//! Every randomly generated scenario runs three ways — down the
//! per-segment walk (fast path off), on the closed-form fast path with the
//! whole-transfer memo off, and on the fast path with the memo on — and
//! all three must agree on every observable: per-task completion times,
//! final simulated time and the fault plane's injected-fault count. The
//! two fast-path runs must also agree on the executor's event-ordering
//! trace digest and its fast-path and timer counters (the walk schedules
//! other events by design). Scenarios deliberately mix:
//!
//! * messages of a size drawn for that op alone, mostly long enough to
//!   take the cut-through path, sometimes short,
//! * steady-state bursts of a few repeated shapes (the pattern the memo
//!   exists for — a miss followed by pure hits),
//! * raw pipe transfers landing mid-traversal (demotions, which must evict
//!   a replayed entry and fall back to the walk),
//! * stages that repeat a pipe and pipelines that share pipes (legality
//!   refusals and cross-pipeline demotions), and
//! * loss-judged sends on an optional fault plane: the per-stream
//!   judgement counters must advance identically whichever tier carried
//!   the transfers.
//!
//! The default case count keeps `cargo test` quick; CI runs the full
//! sweep in release via `TRANSFER_DIFF_CASES=100000` (see `ci.sh`), split
//! in two halves on independent seed streams.

use simnet::fault::{FaultConfig, FaultPlane};
use simnet::pipe::{Pipe, Pipeline, Stage};
use simnet::sync::join_all;
use simnet::time::SimDuration;
use simnet::{Bytes, Sim, Tier};

/// Deterministic splitmix64 — the sequence, and therefore every scenario,
/// is identical on every run and platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Mostly several pacing chunks of `seg`-byte segments (the
    /// cut-through and memo-eligible case), one time in `short_one_in` a
    /// message too short to leave the analytic path.
    fn message_bytes(&mut self, seg: u64, short_one_in: u64) -> u64 {
        if self.range(0, short_one_in) == 0 {
            self.range(0, seg * 4)
        } else {
            self.range(seg * 9, seg * 60)
        }
    }
}

#[derive(Clone, Debug)]
struct PipeSpec {
    bytes_per_sec: u64,
    overhead_ns: u64,
}

#[derive(Clone, Debug)]
struct StageSpec {
    pipe: usize,
    latency_ns: u64,
}

#[derive(Clone, Debug)]
enum Op {
    /// One message of a size no other op shares:
    /// (delay, pipeline idx, bytes, per-segment header).
    Fresh(u64, usize, u64, u64),
    /// Back-to-back messages of one shared shape, a memo miss then hits:
    /// (delay, pipeline idx, shape idx, repetitions).
    Burst(u64, usize, usize, u64),
    /// Raw transfer on one pipe — foreign contention that demotes (and
    /// evicts) any speculation registered there: (delay, pipe idx, bytes).
    Raw(u64, usize, u64),
    /// Loss-judged send: judge `stream` on the scenario's plane, then
    /// transfer; a lost send goes once more after a fixed backoff:
    /// (delay, pipeline idx, shape idx, stream).
    Judged(u64, usize, usize, u64),
}

#[derive(Clone, Debug)]
struct Scenario {
    pipes: Vec<PipeSpec>,
    pipelines: Vec<(Vec<StageSpec>, u64)>, // stages, segment size
    /// Message shapes shared by ops — repetition is what makes cache hits.
    shapes: Vec<(u64, u64)>, // (bytes, per-segment header)
    fault: Option<FaultConfig>,
    ops: Vec<Op>,
}

fn gen_scenario(rng: &mut Rng) -> Scenario {
    let npipes = rng.range(2, 6) as usize;
    let pipes = (0..npipes)
        .map(|_| PipeSpec {
            // Odd-ish rates so service times rarely collide on exact ns.
            bytes_per_sec: rng.range(100_000_000, 4_000_000_000) | 1,
            overhead_ns: rng.range(0, 220),
        })
        .collect();
    let npls = rng.range(1, 3) as usize;
    let pipelines = (0..npls)
        .map(|_| {
            let nstages = rng.range(1, 4) as usize;
            let stages = (0..nstages)
                .map(|_| StageSpec {
                    pipe: rng.range(0, npipes as u64) as usize,
                    latency_ns: rng.range(0, 1_800),
                })
                .collect();
            let segment = rng.range(16, 160);
            (stages, segment)
        })
        .collect::<Vec<_>>();
    let min_seg = pipelines.iter().map(|(_, s)| *s).min().expect("npls >= 1");
    let nshapes = rng.range(1, 4) as usize;
    let shapes = (0..nshapes)
        .map(|_| (rng.message_bytes(min_seg, 5), rng.range(0, 48)))
        .collect::<Vec<_>>();
    let fault =
        (rng.range(0, 2) == 0).then(|| FaultConfig::loss(rng.range(0, 300_000) as u32, rng.next()));
    let nops = rng.range(3, 9) as usize;
    let ops = (0..nops)
        .map(|_| {
            let delay = rng.range(0, 40_000);
            let pl = rng.range(0, npls as u64) as usize;
            let shape = rng.range(0, nshapes as u64) as usize;
            match rng.range(0, 14) {
                0..=2 => {
                    let bytes = rng.message_bytes(pipelines[pl].1, 4);
                    Op::Fresh(delay, pl, bytes, rng.range(0, 48))
                }
                3..=8 => Op::Burst(delay, pl, shape, rng.range(1, 6)),
                9..=11 => Op::Raw(
                    delay,
                    rng.range(0, npipes as u64) as usize,
                    rng.range(1, 4_000),
                ),
                _ => Op::Judged(delay, pl, shape, rng.range(0, 3)),
            }
        })
        .collect();
    Scenario {
        pipes,
        pipelines,
        shapes,
        fault,
        ops,
    }
}

/// What one run shows, split by which tiers must agree on it.
struct RunOut {
    /// Equal across all three tiers.
    obs: Vec<u64>,
    /// Trace digest, fast-path hits and falls, timer events: equal between
    /// the two fast-path tiers.
    events: [u64; 4],
    memo_hits: u64,
    memo_evictions: u64,
}

fn run(sc: &Scenario, tier: Tier) -> RunOut {
    let sim = Sim::new();
    sim.set_fast_path(tier != Tier::Walk);
    sim.set_transfer_memo(tier == Tier::Memo);
    let plane = sc.fault.map_or_else(FaultPlane::disabled, FaultPlane::new);
    let pipes: Vec<Pipe> = sc
        .pipes
        .iter()
        .map(|p| {
            Pipe::new(
                &sim,
                simnet::ByteRate::from_bytes_per_sec(p.bytes_per_sec),
                SimDuration::from_nanos(p.overhead_ns),
            )
        })
        .collect();
    let pls: Vec<Pipeline> = sc
        .pipelines
        .iter()
        .map(|(stages, segment)| {
            let st = stages
                .iter()
                .map(|s| Stage::new(pipes[s.pipe].clone(), SimDuration::from_nanos(s.latency_ns)))
                .collect();
            Pipeline::new(&sim, st, Bytes::new(*segment))
        })
        .collect();
    let mut handles = Vec::new();
    for op in sc.ops.iter().cloned() {
        let s = sim.clone();
        handles.push(match op {
            Op::Fresh(at, pl, bytes, hdr) => {
                let pl = pls[pl].clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(at)).await;
                    pl.transfer(Bytes::new(bytes), Bytes::new(hdr)).await;
                    s.now().as_nanos()
                })
            }
            Op::Burst(at, pl, shape, reps) => {
                let pl = pls[pl].clone();
                let (bytes, hdr) = sc.shapes[shape];
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(at)).await;
                    for _ in 0..reps {
                        pl.transfer(Bytes::new(bytes), Bytes::new(hdr)).await;
                    }
                    s.now().as_nanos()
                })
            }
            Op::Raw(at, pipe, bytes) => {
                let p = pipes[pipe].clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(at)).await;
                    p.transfer(Bytes::new(bytes)).await;
                    s.now().as_nanos()
                })
            }
            Op::Judged(at, pl, shape, stream) => {
                let pl = pls[pl].clone();
                let (bytes, hdr) = sc.shapes[shape];
                let plane = plane.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(at)).await;
                    let lost = plane.judge(&s, stream);
                    pl.transfer(Bytes::new(bytes), Bytes::new(hdr)).await;
                    if lost {
                        // Resend after a fixed RTO.
                        s.sleep(SimDuration::from_micros(50)).await;
                        pl.transfer(Bytes::new(bytes), Bytes::new(hdr)).await;
                    }
                    s.now().as_nanos()
                })
            }
        });
    }
    let mut obs = sim.block_on(async move { join_all(handles).await });
    obs.push(sim.now().as_nanos());
    let st = sim.stats();
    obs.push(st.faults_injected);
    RunOut {
        obs,
        events: [
            sim.order_trace_digest(),
            st.fast_path_hits,
            st.slow_path_falls,
            st.timer_events,
        ],
        memo_hits: st.memo_hits,
        memo_evictions: st.memo_evictions,
    }
}

/// Run `sc` on all three tiers, assert they agree, and return the
/// fast-path run (memo off) and the memo run.
fn check(sc: &Scenario, label: &str) -> (RunOut, RunOut) {
    let walk = run(sc, Tier::Walk);
    let fast = run(sc, Tier::Fast);
    let memo = run(sc, Tier::Memo);
    assert_eq!(
        fast.obs, walk.obs,
        "fast path diverged from the per-segment walk on {label}: {sc:#?}"
    );
    assert_eq!(
        memo.obs, walk.obs,
        "memo replay diverged from the per-segment walk on {label}: {sc:#?}"
    );
    assert_eq!(
        memo.events, fast.events,
        "memo changed the fast path's event order or counters on {label}: {sc:#?}"
    );
    assert_eq!(fast.memo_hits, 0, "disabled memo recorded hits: {sc:#?}");
    (fast, memo)
}

fn case_count() -> u64 {
    if let Ok(v) = std::env::var("TRANSFER_DIFF_CASES") {
        return v.parse().expect("TRANSFER_DIFF_CASES must be an integer");
    }
    if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    }
}

/// Run `cases` scenarios drawn from `seed` through [`check`], then assert
/// the sweep exercised every tier.
fn sweep(seed: u64, cases: u64) {
    let mut rng = Rng(seed);
    let (mut hits, mut falls, mut memo_hits, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    for case in 0..cases {
        let sc = gen_scenario(&mut rng);
        let (fast, memo) = check(&sc, &format!("seed {seed:#x} case {case}"));
        hits += fast.events[1];
        falls += fast.events[2];
        memo_hits += memo.memo_hits;
        evictions += memo.memo_evictions;
    }
    // The sweep must actually exercise every tier — a refactor that
    // silently disables speculation, never demotes it, keys memo entries
    // unreachably or never invalidates them is itself a bug.
    assert!(hits > cases / 10, "fast path barely taken: {hits} hits");
    assert!(
        falls > cases / 20,
        "demotion barely exercised: {falls} falls"
    );
    assert!(
        memo_hits > cases / 2,
        "memo barely hit: {memo_hits} hits in {cases} cases"
    );
    assert!(
        evictions > cases / 200,
        "eviction barely exercised: {evictions} evictions"
    );
}

// The sweep's cases are split over two independent seed streams so the
// test harness runs the halves on two threads; each half holds all four
// exercise floors on its own.

#[test]
fn walk_fast_path_and_memo_are_observationally_equivalent() {
    sweep(0x1077_ea8b_5eed, case_count() / 2);
}

#[test]
fn walk_fast_path_and_memo_agree_on_a_second_seed_stream() {
    let cases = case_count();
    sweep(0x3e3_0b17_5eed, cases - cases / 2);
}

// Fixed seeds kept separate from the randomized sweep so a regression
// reproduces instantly under `cargo test pinned` without replaying the
// whole sequence. Each scenario runs all three tiers.

fn pinned(seeds: &[u64]) {
    for &seed in seeds {
        let mut rng = Rng(seed);
        for i in 0..50 {
            check(&gen_scenario(&mut rng), &format!("seed {seed} #{i}"));
        }
    }
}

#[test]
fn tiers_agree_on_fast_path_pinned_seeds() {
    pinned(&[1, 7, 42, 0xdead_beef, 0x10_9b17]);
}

#[test]
fn tiers_agree_on_memo_pinned_seeds() {
    // 42 was on both lists; the fast-path list runs it.
    pinned(&[3, 11, 0xfee1_600d, 0x3e30]);
}

#[test]
fn demoted_continuations_keep_the_walks_same_instant_order() {
    // Two sweep cases, shrunk: a speculation demoted at `now` hands its
    // walk to continuation tasks whose next timer ties, at a later
    // deadline, with one the demoting flow arms after the demotion. The
    // walk armed its timer first, before `now`, so it fires first.
    let pipe = |bytes_per_sec, overhead_ns| PipeSpec {
        bytes_per_sec,
        overhead_ns,
    };
    let stage = |pipe, latency_ns| StageSpec { pipe, latency_ns };
    // A burst's last exit and another flow's pacing instant coincide.
    let exit_tie = Scenario {
        pipes: vec![pipe(2_956_289_259, 83), pipe(3_477_884_537, 2)],
        pipelines: vec![(vec![stage(1, 967)], 147)],
        shapes: vec![(2256, 46)],
        fault: None,
        ops: vec![Op::Burst(1955, 0, 0, 1), Op::Burst(555, 0, 0, 2)],
    };
    // A chunk's next stage and the demoting flow's pacing coincide.
    let stage_tie = Scenario {
        pipes: vec![pipe(3_698_051_437, 54), pipe(2_994_839_299, 134)],
        pipelines: vec![
            (vec![stage(1, 985), stage(0, 1305)], 89),
            (vec![stage(0, 866)], 121),
        ],
        shapes: vec![(3762, 30)],
        fault: None,
        ops: vec![Op::Burst(8418, 1, 0, 1), Op::Fresh(8022, 0, 2000, 17)],
    };
    for (label, sc) in [("exit tie", exit_tie), ("stage tie", stage_tie)] {
        let (fast, _) = check(&sc, label);
        assert_eq!(fast.events[1], 0, "{label}: every traversal is demoted");
    }
}

#[test]
fn fault_counters_advance_identically_on_memo_hits() {
    // The fault plane judges *outside* the pipeline transfer, so a cached
    // replay must consume exactly the same per-stream decision sequence as
    // the uncached walk. Drive one stream through enough judged sends that
    // most underlying transfers are memo hits, then compare the decision
    // sequence and the end time against a memo-off run.
    let decisions = |memo: bool| {
        let sim = Sim::new();
        sim.set_fast_path(true);
        sim.set_transfer_memo(memo);
        let plane = FaultPlane::new(FaultConfig::loss(300_000, 0xabad_5eed));
        let stages = vec![
            Stage::new(
                Pipe::new(
                    &sim,
                    simnet::ByteRate::from_gbps(10),
                    SimDuration::from_nanos(40),
                ),
                SimDuration::from_nanos(500),
            ),
            Stage::new(
                Pipe::new(
                    &sim,
                    simnet::ByteRate::from_bytes_per_sec(900_000_001),
                    SimDuration::from_nanos(25),
                ),
                SimDuration::ZERO,
            ),
        ];
        let pl = Pipeline::new(&sim, stages, Bytes::new(1_000));
        let s = sim.clone();
        let seq = sim.block_on(async move {
            let mut seq = Vec::new();
            for _ in 0..64 {
                let lost = plane.judge(&s, 7);
                seq.push(lost);
                pl.transfer(Bytes::new(24_000), Bytes::new(32)).await;
                if lost {
                    s.sleep(SimDuration::from_micros(3)).await;
                    pl.transfer(Bytes::new(24_000), Bytes::new(32)).await;
                }
            }
            (seq, s.now().as_nanos())
        });
        (seq, sim.stats())
    };
    let (on, st_on) = decisions(true);
    let (off, st_off) = decisions(false);
    assert_eq!(on, off);
    assert!(
        on.0.contains(&true),
        "a 30% plane drops something in 64 draws"
    );
    assert_eq!(st_on.faults_injected, st_off.faults_injected);
    assert!(st_on.memo_hits >= 60, "stats: {st_on:?}");
}

#[test]
fn installing_a_fault_plane_keeps_cached_plans_valid() {
    // Loss is judged per unit by the fabric's recovery engine, outside
    // `Pipeline::transfer`, so a plan cached before a plane is installed
    // is still the plan after it: the repeat must replay from the memo and
    // finish exactly when a memo-off twin's recomputed plan does.
    let repeat_after_plane = |memo: bool| {
        let sim = Sim::new();
        sim.set_transfer_memo(memo);
        let fab = iwarp::IwarpFabric::new(&sim, 2);
        let pl = fab.data_path(0, 1);
        let (bytes, hdr) = (Bytes::new(64 << 10), fab.per_segment_overhead());
        sim.block_on({
            let pl = pl.clone();
            async move { pl.transfer(bytes, hdr).await }
        });
        let misses = sim.stats().memo_misses;
        fab.set_fault_plane(FaultPlane::new(FaultConfig::loss(10_000, 7)));
        let hits = sim.stats().memo_hits;
        let start = sim.now();
        sim.block_on(async move { pl.transfer(bytes, hdr).await });
        let st = sim.stats();
        (
            sim.now() - start,
            st.memo_hits - hits,
            misses,
            st.memo_misses,
        )
    };
    let (on, on_hits, on_first_misses, on_misses) = repeat_after_plane(true);
    let (off, off_hits, _, _) = repeat_after_plane(false);
    assert_eq!(on_first_misses, 1, "the first transfer must miss");
    assert_eq!(on_hits, 1, "the repeat under the new plane must hit");
    assert_eq!(on_misses, on_first_misses, "the repeat must not miss");
    assert_eq!(off_hits, 0);
    assert_eq!(
        on, off,
        "the replayed plan must finish with the recomputed one"
    );
}
