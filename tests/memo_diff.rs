//! Differential test for the whole-transfer memo (`simnet::memo`).
//!
//! Every randomly generated scenario is executed twice — once with the
//! fingerprint-keyed replay cache enabled, once with it force-disabled —
//! and the two runs must agree on every observable: per-task completion
//! times, final simulated time, each pipe's busy/byte/transfer counters
//! and `busy_until` horizon, the executor's event-ordering trace digest,
//! and the fault/fast-path counters. Scenarios deliberately mix:
//!
//! * steady-state bursts of one repeated message shape (the pattern the
//!   memo exists for — a miss followed by pure hits),
//! * raw transfers landing mid-window (demotions, which must evict the
//!   replayed entry and fall back to the walk),
//! * mid-flight observers (which force a hit's deferred op vector to be
//!   rebuilt and the speculated prefix to materialize), and
//! * an optional fault plane whose decisions gate retransmissions — the
//!   per-stream judgement counters must advance identically whether the
//!   underlying transfers replayed from the cache or not.
//!
//! The default case count keeps `cargo test` quick; CI runs the full
//! sweep in release via `MEMO_DIFF_CASES=100000` (see `ci.sh`).

use simnet::fault::{FaultConfig, FaultDecision, FaultPlane};
use simnet::pipe::{Pipe, Pipeline, Stage};
use simnet::sync::join_all;
use simnet::time::SimDuration;
use simnet::Sim;

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
    /// Steady-state burst: (delay, pipeline idx, shape idx, repetitions).
    /// Sequential same-shape transfers — a memo miss then hits.
    Burst(u64, usize, usize, u64),
    /// One pipeline message of a (possibly repeated) shape:
    /// (delay, pipeline idx, shape idx).
    Message(u64, usize, usize),
    /// Raw transfer on one pipe — foreign contention that demotes (and
    /// evicts) any replayed speculation there: (delay, pipe idx, bytes).
    Raw(u64, usize, u64),
    /// Mid-flight observer reading one pipe's state: (delay, pipe idx).
    Observe(u64, usize),
    /// Fault-judged send: judge `stream` on the scenario's plane, then
    /// transfer; Drop sends once more after a fixed backoff, Delay
    /// sleeps the plane's extra latency first:
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
            // Stages may repeat a pipe (legality refusal, nothing cached)
            // and two pipelines may share pipes (cross-pipeline demotion).
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
    // A handful of shapes, mostly multi-chunk (memo-eligible), reused
    // across ops so fingerprints repeat.
    let min_seg = pipelines.iter().map(|(_, s)| *s).min().expect("npls >= 1");
    let nshapes = rng.range(1, 4) as usize;
    let shapes = (0..nshapes)
        .map(|_| {
            let bytes = if rng.range(0, 5) == 0 {
                rng.range(0, min_seg * 4)
            } else {
                rng.range(min_seg * 9, min_seg * 60)
            };
            (bytes, rng.range(0, 48))
        })
        .collect::<Vec<_>>();
    let fault = (rng.range(0, 2) == 0).then(|| FaultConfig {
        drop_ppm: rng.range(0, 300_000) as u32,
        delay_ppm: rng.range(0, 200_000) as u32,
        delay: SimDuration::from_nanos(rng.range(100, 20_000)),
        seed: rng.next(),
    });
    let nops = rng.range(3, 9) as usize;
    let ops = (0..nops)
        .map(|_| {
            let delay = rng.range(0, 40_000);
            let pl = rng.range(0, npls as u64) as usize;
            let shape = rng.range(0, nshapes as u64) as usize;
            match rng.range(0, 12) {
                0..=3 => Op::Burst(delay, pl, shape, rng.range(2, 6)),
                4..=6 => Op::Message(delay, pl, shape),
                7..=8 => Op::Raw(
                    delay,
                    rng.range(0, npipes as u64) as usize,
                    rng.range(1, 4_000),
                ),
                9 => Op::Observe(delay, rng.range(0, npipes as u64) as usize),
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

/// Observables plus the counters the sweep audits.
struct RunOut {
    obs: Vec<u64>,
    memo_hits: u64,
    memo_evictions: u64,
}

/// Run one scenario with the fast path on and the transfer memo set to
/// `memo`; return every observable quantity.
fn run(sc: &Scenario, memo: bool) -> RunOut {
    let sim = Sim::new();
    sim.set_fast_path(true);
    sim.set_transfer_memo(memo);
    let plane = match &sc.fault {
        Some(cfg) => FaultPlane::new(*cfg),
        None => FaultPlane::disabled(),
    };
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
            Pipeline::new(&sim, st, simnet::Bytes::new(*segment))
        })
        .collect();
    let mut handles = Vec::new();
    for op in &sc.ops {
        match op.clone() {
            Op::Burst(delay, pl, shape, reps) => {
                let pl = pls[pl].clone();
                let (bytes, hdr) = sc.shapes[shape];
                let s = sim.clone();
                handles.push(sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(delay)).await;
                    for _ in 0..reps {
                        pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                            .await;
                    }
                    s.now().as_nanos()
                }));
            }
            Op::Message(delay, pl, shape) => {
                let pl = pls[pl].clone();
                let (bytes, hdr) = sc.shapes[shape];
                let s = sim.clone();
                handles.push(sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(delay)).await;
                    pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                        .await;
                    s.now().as_nanos()
                }));
            }
            Op::Raw(delay, pipe, bytes) => {
                let p = pipes[pipe].clone();
                let s = sim.clone();
                handles.push(sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(delay)).await;
                    p.transfer(simnet::Bytes::new(bytes)).await;
                    s.now().as_nanos()
                }));
            }
            Op::Observe(delay, pipe) => {
                let p = pipes[pipe].clone();
                let s = sim.clone();
                handles.push(sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(delay)).await;
                    p.busy_until().as_nanos() ^ p.total_transfers() ^ p.total_bytes()
                }));
            }
            Op::Judged(delay, pl, shape, stream) => {
                let pl = pls[pl].clone();
                let (bytes, hdr) = sc.shapes[shape];
                let plane = plane.clone();
                let s = sim.clone();
                handles.push(sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(delay)).await;
                    match plane.judge(&s, stream) {
                        FaultDecision::Deliver => {
                            pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                                .await;
                        }
                        FaultDecision::Drop => {
                            // The unit is lost; resend after a fixed RTO.
                            pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                                .await;
                            s.sleep(SimDuration::from_micros(50)).await;
                            pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                                .await;
                        }
                        FaultDecision::Delay => {
                            s.sleep(plane.delay()).await;
                            pl.transfer(simnet::Bytes::new(bytes), simnet::Bytes::new(hdr))
                                .await;
                        }
                    }
                    s.now().as_nanos()
                }));
            }
        }
    }
    let mut obs = sim.block_on(async move { join_all(handles).await });
    obs.push(sim.now().as_nanos());
    for p in &pipes {
        obs.push(p.total_busy().as_nanos());
        obs.push(p.total_bytes());
        obs.push(p.total_transfers());
        obs.push(p.busy_until().as_nanos());
    }
    obs.push(sim.order_trace_digest());
    let st = sim.stats();
    // Counters that must not depend on the memo: the fast-path/walk split,
    // the event totals, and every fault-plane decision.
    obs.push(st.fast_path_hits);
    obs.push(st.slow_path_falls);
    obs.push(st.timer_events);
    obs.push(st.faults_injected);
    RunOut {
        obs,
        memo_hits: st.memo_hits,
        memo_evictions: st.memo_evictions,
    }
}

fn case_count() -> u64 {
    if let Ok(v) = std::env::var("MEMO_DIFF_CASES") {
        return v.parse().expect("MEMO_DIFF_CASES must be an integer");
    }
    if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    }
}

#[test]
fn memo_is_observationally_equivalent_to_replay() {
    let cases = case_count();
    let mut rng = Rng(0x3e3_0b17_5eed);
    let mut hits = 0u64;
    let mut evictions = 0u64;
    for case in 0..cases {
        let sc = gen_scenario(&mut rng);
        let on = run(&sc, true);
        let off = run(&sc, false);
        assert_eq!(
            on.obs, off.obs,
            "memoized run diverged from unmemoized on case {case}: {sc:#?}"
        );
        assert_eq!(off.memo_hits, 0, "disabled memo recorded hits: {sc:#?}");
        hits += on.memo_hits;
        evictions += on.memo_evictions;
    }
    // The sweep must actually exercise the cache — a refactor that keys
    // entries unreachably (or never invalidates them) is itself a bug.
    assert!(
        hits > cases / 2,
        "memo barely hit: {hits} hits in {cases} cases"
    );
    assert!(
        evictions > cases / 200,
        "eviction barely exercised: {evictions} evictions"
    );
}

#[test]
fn memo_equivalence_on_pinned_seeds() {
    // Fixed seeds kept separate from the randomized sweep so a regression
    // reproduces instantly under `cargo test memo` without replaying the
    // whole sequence.
    for seed in [3u64, 11, 42, 0xfee1_600d, 0x3e30] {
        let mut rng = Rng(seed);
        for _ in 0..50 {
            let sc = gen_scenario(&mut rng);
            let on = run(&sc, true);
            let off = run(&sc, false);
            assert_eq!(on.obs, off.obs, "seed {seed}");
        }
    }
}

#[test]
fn fault_counters_advance_identically_on_memo_hits() {
    // The fault plane judges *outside* the pipeline transfer, so a cached
    // replay must consume exactly the same per-stream decision sequence as
    // the uncached walk. Drive one stream through enough judged bursts
    // that most underlying transfers are memo hits, then compare the full
    // decision sequence against a memo-off run.
    let decisions = |memo: bool| {
        let sim = Sim::new();
        sim.set_fast_path(true);
        sim.set_transfer_memo(memo);
        let plane = FaultPlane::new(FaultConfig {
            drop_ppm: 300_000,
            delay_ppm: 100_000,
            delay: SimDuration::from_micros(3),
            seed: 0xabad_5eed,
        });
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
        let pl = Pipeline::new(&sim, stages, simnet::Bytes::new(1_000));
        let p = plane;
        let s = sim.clone();
        let seq = sim.block_on(async move {
            let mut seq = Vec::new();
            for _ in 0..64 {
                let d = p.judge(&s, 7);
                seq.push(d as u64);
                pl.transfer(simnet::Bytes::new(24_000), simnet::Bytes::new(32))
                    .await;
                if d == FaultDecision::Delay {
                    s.sleep(p.delay()).await;
                }
            }
            (seq, s.now().as_nanos())
        });
        (seq, sim.stats())
    };
    let (on, st_on) = decisions(true);
    let (off, st_off) = decisions(false);
    assert_eq!(on, off);
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
        let (bytes, hdr) = (simnet::Bytes::new(64 << 10), fab.per_segment_overhead());
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
