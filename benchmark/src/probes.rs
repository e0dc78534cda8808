//! Per-layer probes for the traced run.
//!
//! The simulator is not instrumented yet, so a layer's cost is measured
//! from outside: each probe builds its **own** `Sim`, calls the layer's
//! public functions with the shape one of the workloads gives it, times the
//! calls on the host (a `call` span under `probe:<layer>`) and reads
//! `Sim::stats()` for the exact counts. Probes take no `--seed`: their
//! counts repeat bit for bit across runs and seeds.

use std::rc::Rc;

use hostmodel::cpu::CpuCosts;
use hostmodel::mem::RegistrationCosts;
use hostmodel::{Cpu, MemoryRegistry, PcieConfig, PciePort};
use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use netbench::userlevel::UserPair;
use simnet::sync::{join_all, Notify};
use simnet::{ByteRate, Bytes, Pipe, Pipeline, Sim, SimDuration, SimStats, Stage};

use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{kind_tag, ring_spec, DEFAULT_SEED};

/// Timed repetitions per probe shape; the reported time is their median.
const REPS: usize = 5;

/// `(metric name, value)` rows, in emission order.
pub type Rows = Vec<(String, f64)>;

type Probe = fn(&mut Recorder, &mut Rows);

/// Host nanoseconds of one timed call into a layer.
fn call<T>(rec: &mut Recorder, f: impl FnOnce() -> T) -> (f64, T) {
    rec.enter("call".to_string());
    let out = f();
    (rec.exit() as f64, out)
}

/// Run `shape` `reps` times; median host ns and the counts of the last run
/// (they are the same every run).
fn repeat<T>(
    rec: &mut Recorder,
    reps: usize,
    mut shape: impl FnMut(&mut Recorder) -> (f64, T),
) -> (f64, T) {
    let mut ns = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (t, out) = shape(rec);
        ns.push(t);
        last = Some(out);
    }
    (median(&ns), last.expect("reps >= 1"))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every probe, each under its own `probe:<layer>` span.
pub fn run_all(rec: &mut Recorder) -> Rows {
    let mut rows = Rows::new();
    let layers: [(&str, Probe); 10] = [
        ("simnet::executor", executor),
        ("simnet::pipe", pipe),
        ("simnet::memo", memo),
        ("simnet::shard", shard),
        ("hostmodel", hostmodel),
        ("fabrics", fabrics),
        ("etherstack", etherstack),
        ("mpisim", mpi),
        ("udapl", udapl),
        ("netbench+bench", harness),
    ];
    for (layer, probe) in layers {
        rec.scope(format!("probe:{layer}"), |rec| probe(rec, &mut rows));
    }
    rows
}

// --- simnet::executor / simnet::sync ------------------------------------

/// The shapes of `figures --selftest` phases 1–2 plus the two hand-off
/// primitives the open loop lives on.
fn executor(rec: &mut Recorder, rows: &mut Rows) {
    const TIMERS: u64 = 100_000;
    const TASKS: u64 = 50_000;
    const HANDOFFS: u64 = 50_000;
    const ITEMS: u64 = 100_000;

    let (timer_ns, timer_events) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let s = sim.clone();
        let (ns, ()) = call(rec, || {
            sim.block_on(async move {
                for _ in 0..TIMERS {
                    s.sleep(SimDuration::from_nanos(100)).await;
                }
            });
        });
        (ns, sim.stats().events())
    });
    let (spawn_ns, spawn_events) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let s = sim.clone();
        let (ns, ()) = call(rec, || {
            sim.block_on(async move {
                for _ in 0..TASKS {
                    let c = s.clone();
                    s.spawn(async move { c.sleep(SimDuration::from_nanos(1)).await })
                        .await;
                }
            });
        });
        (ns, sim.stats().events())
    });
    let (wake_ns, wake_events) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let (ping, pong) = (Notify::new(), Notify::new());
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sim.spawn(async move {
            for _ in 0..HANDOFFS {
                ping2.notified().await;
                pong2.notify_one();
            }
        });
        let (ns, ()) = call(rec, || {
            sim.block_on(async move {
                for _ in 0..HANDOFFS {
                    ping.notify_one();
                    pong.notified().await;
                }
            });
        });
        (ns, sim.stats().events())
    });
    let (mpsc_ns, ()) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let (tx, mut rx) = simnet::sync::mpsc::<u64>();
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..ITEMS {
                // A closed receiver cannot happen: it outlives this task.
                let _ = tx.send(i);
                s.yield_now().await;
            }
        });
        call(rec, || {
            sim.block_on(async move { while rx.recv().await.is_some() {} });
        })
    });

    rows.push((
        "simnet.executor.timer_ns_per_event".into(),
        timer_ns / timer_events as f64,
    ));
    rows.push((
        "simnet.executor.spawn_ns_per_task".into(),
        spawn_ns / TASKS as f64,
    ));
    rows.push((
        "simnet.executor.wake_ns_per_handoff".into(),
        wake_ns / (2 * HANDOFFS) as f64,
    ));
    let events = (timer_events + spawn_events + wake_events) as f64;
    rows.push((
        "simnet.executor.events_per_s".into(),
        events / ((timer_ns + spawn_ns + wake_ns) / 1e9),
    ));
    rows.push((
        "simnet.sync.mpsc_ns_per_item".into(),
        mpsc_ns / ITEMS as f64,
    ));
}

// --- simnet::pipe / simnet::memo ----------------------------------------

const SEGMENT: Bytes = Bytes::new(1_500);
const OVERHEAD: Bytes = Bytes::new(58);

/// A 3-stage 10 Gb/s pipeline with 1500 B segments — the NIC models' depth.
fn pipeline(sim: &Sim) -> Pipeline {
    let stages = (0..3)
        .map(|_| {
            let pipe = Pipe::new(sim, ByteRate::from_gbps(10), SimDuration::from_nanos(40));
            Stage::new(pipe, SimDuration::from_nanos(500))
        })
        .collect();
    Pipeline::new(sim, stages, SEGMENT)
}

/// Transfers `bytes(1)..=bytes(n)` back to back on a fresh, otherwise idle
/// pipeline, after an untimed `bytes(0)`: host ns and the timed window's stats.
fn lone_transfers(
    rec: &mut Recorder,
    memo: bool,
    n: u64,
    bytes: fn(u64) -> Bytes,
) -> (f64, SimStats) {
    let sim = Sim::new();
    sim.set_transfer_memo(memo);
    let pl = pipeline(&sim);
    // So that the timed window is the steady state.
    let warm = pl.clone();
    sim.block_on(async move { warm.transfer(bytes(0), OVERHEAD).await });
    let before = sim.stats();
    let (ns, ()) = call(rec, || {
        sim.block_on(async move {
            for i in 1..=n {
                pl.transfer(bytes(i), OVERHEAD).await;
            }
        });
    });
    let after = sim.stats();
    let steady = SimStats {
        polls: after.polls - before.polls,
        timer_events: after.timer_events - before.timer_events,
        fast_path_hits: after.fast_path_hits - before.fast_path_hits,
        slow_path_falls: after.slow_path_falls - before.slow_path_falls,
        memo_hits: after.memo_hits - before.memo_hits,
        memo_misses: after.memo_misses - before.memo_misses,
        memo_evictions: after.memo_evictions - before.memo_evictions,
        ..after
    };
    (ns, steady)
}

fn pipe(rec: &mut Recorder, rows: &mut Rows) {
    const TASKS: u64 = 64;
    const PER_TASK: u64 = 8;
    const MSG: Bytes = Bytes::new(16 << 10);
    const FAST_XFERS: u64 = 2_000;
    const BIG_XFERS: u64 = 200;

    // Contended: 64 tasks on one pipeline, as a fig2 point at n = 64.
    let (walk_ns, st) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        sim.set_transfer_memo(false);
        let pl = pipeline(&sim);
        let tasks: Vec<_> = (0..TASKS)
            .map(|_| {
                let pl = pl.clone();
                sim.spawn(async move {
                    for _ in 0..PER_TASK {
                        pl.transfer(MSG, OVERHEAD).await;
                    }
                })
            })
            .collect();
        let (ns, ()) = call(rec, || {
            sim.block_on(async move {
                join_all(tasks).await;
            });
        });
        (ns, sim.stats())
    });
    let xfers = TASKS * PER_TASK;
    let segments = xfers * MSG.div_ceil(SEGMENT);
    rows.push((
        "simnet.pipe.walk_ns_per_segment".into(),
        walk_ns / segments as f64,
    ));
    rows.push((
        "simnet.pipe.walk_events_per_xfer".into(),
        ratio(st.events(), xfers),
    ));
    rows.push((
        "simnet.pipe.slow_share".into(),
        ratio(st.slow_path_falls, st.slow_path_falls + st.fast_path_hits),
    ));
    rows.push((
        "simnet.pipe.calendar_peak_len".into(),
        st.calendar_peak_len as f64,
    ));

    // Uncontended, memo off: the closed-form fast path on its own.
    let (fast_ns, st) = repeat(rec, REPS, |rec| {
        lone_transfers(rec, false, FAST_XFERS, |_| Bytes::new(96_000))
    });
    rows.push((
        "simnet.pipe.fast_ns_per_xfer".into(),
        fast_ns / FAST_XFERS as f64,
    ));
    rows.push((
        "simnet.pipe.fast_events_per_xfer".into(),
        ratio(st.events(), FAST_XFERS),
    ));
    rows.push((
        "simnet.pipe.uncontended_slow_share".into(),
        ratio(st.slow_path_falls, st.slow_path_falls + st.fast_path_hits),
    ));
    let (big_ns, _) = repeat(rec, REPS, |rec| {
        lone_transfers(rec, false, BIG_XFERS, |_| Bytes::from_mib(4))
    });
    rows.push((
        "simnet.pipe.big_ns_per_xfer".into(),
        big_ns / BIG_XFERS as f64,
    ));
}

fn memo(rec: &mut Recorder, rows: &mut Rows) {
    const XFERS: u64 = 2_000;
    // Steady phase: one shape, so every transfer after the warm-up replays.
    let (hit_ns, hit) = repeat(rec, REPS, |rec| {
        lone_transfers(rec, true, XFERS, |_| Bytes::new(96_000))
    });
    // Every shape new: each transfer computes its plan and inserts it,
    // pushing the oldest of the 128 entries out.
    let (miss_ns, miss) = repeat(rec, REPS, |rec| {
        lone_transfers(rec, true, XFERS, |i| Bytes::new(96_000 + 8 * i))
    });
    rows.push(("simnet.memo.hit_ns_per_xfer".into(), hit_ns / XFERS as f64));
    rows.push((
        "simnet.memo.miss_ns_per_xfer".into(),
        miss_ns / XFERS as f64,
    ));
    rows.push((
        "simnet.memo.hit_rate".into(),
        ratio(hit.memo_hits, hit.memo_hits + hit.memo_misses),
    ));
    rows.push(("simnet.memo.evictions".into(), miss.memo_evictions as f64));
}

// --- simnet::shard --------------------------------------------------------

/// The `cluster_ring` spec on iWARP at one and two worker threads.
fn shard(rec: &mut Recorder, rows: &mut Rows) {
    let mut run = |threads: usize| {
        repeat(rec, 3, |rec| {
            call(rec, || {
                netbench::cluster::cluster_exchange(FabricKind::Iwarp, ring_spec(threads))
            })
        })
    };
    let (t1_ns, out) = run(1);
    let (t2_ns, _) = run(2);
    let rounds = out.lookahead_rounds as f64;
    rows.push(("simnet.shard.round_us_t1".into(), t1_ns / 1e3 / rounds));
    rows.push(("simnet.shard.round_us_t2".into(), t2_ns / 1e3 / rounds));
    rows.push(("simnet.shard.speedup_t2".into(), t1_ns / t2_ns));
    rows.push((
        "simnet.shard.events_per_round".into(),
        ratio(out.stats.events(), out.lookahead_rounds),
    ));
    rows.push((
        "simnet.shard.merge_queue_peak".into(),
        out.stats.merge_queue_peak as f64,
    ));
}

// --- hostmodel --------------------------------------------------------------

fn hostmodel(rec: &mut Recorder, rows: &mut Rows) {
    const OPS: u64 = 20_000;
    const BUFFERS: u64 = 24;
    const LEN: u64 = 64 << 10;

    let (reg_ns, ()) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts::default());
        let mem = hostmodel::HostMem::new();
        let buf = mem.alloc_buffer(LEN);
        call(rec, || {
            sim.block_on(async move {
                for _ in 0..OPS / 2 {
                    let key = reg.register_pinned(&cpu, buf, LEN).await;
                    reg.deregister(&cpu, key).await;
                }
            });
        })
    });
    rows.push((
        "hostmodel.mem.register_ns_per_op".into(),
        reg_ns / OPS as f64,
    ));

    // fig6's two patterns over its 24 buffers: always buffer 0 (every
    // lookup hits), then cycling all 24 through the 16-entry cache (none do).
    let (cached_ns, (hits, misses)) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts::default());
        let mem = hostmodel::HostMem::new();
        let bufs: Vec<_> = (0..BUFFERS).map(|_| mem.alloc_buffer(LEN)).collect();
        let r = reg.clone();
        let (ns, ()) = call(rec, || {
            sim.block_on(async move {
                for _ in 0..OPS / 2 {
                    r.register_cached(&cpu, bufs[0], LEN).await;
                }
                for i in 0..OPS / 2 {
                    r.register_cached(&cpu, bufs[(i % BUFFERS) as usize], LEN)
                        .await;
                }
            });
        });
        let (hits, misses, _evictions) = reg.cache_stats();
        (ns, (hits, misses))
    });
    rows.push((
        "hostmodel.mem.cached_ns_per_op".into(),
        cached_ns / OPS as f64,
    ));
    rows.push((
        "hostmodel.mem.cache_hit_rate".into(),
        ratio(hits, hits + misses),
    ));

    let (dma_ns, ()) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let port = PciePort::new(&sim, PcieConfig::gen1_x8());
        call(rec, || {
            sim.block_on(async move {
                for _ in 0..OPS {
                    port.dma_write(Bytes::new(4096)).await;
                }
            });
        })
    });
    rows.push(("hostmodel.pcie.dma_ns_per_op".into(), dma_ns / OPS as f64));
}

// --- the four fabrics ---------------------------------------------------------

/// One user-level ping-pong on a pair built beforehand: host ns, events and
/// retransmits of the ping-pong alone, and the simulated half-RTT (µs).
fn pingpong(
    rec: &mut Recorder,
    kind: FabricKind,
    plane: simnet::FaultPlane,
    size: u64,
    iters: u64,
) -> (f64, (u64, u64, f64)) {
    let sim = Sim::new();
    let s = sim.clone();
    let pair =
        sim.block_on(async move { Rc::new(UserPair::build_with_fault(&s, kind, plane).await) });
    let before = sim.stats();
    let (ns, half_rtt_us) = call(rec, || {
        sim.block_on(async move { pair.half_rtt_us(size, iters).await })
    });
    let after = sim.stats();
    let events = after.events() - before.events();
    (
        ns,
        (events, after.retransmits - before.retransmits, half_rtt_us),
    )
}

/// Entered only through `UserPair` — no per-fabric constructor — so a
/// `Fabric` trait can land without a benchmark edit.
fn fabrics(rec: &mut Recorder, rows: &mut Rows) {
    const SMALL_ITERS: u64 = 2_000;
    const LARGE_ITERS: u64 = 40;
    const LOSSY_ITERS: u64 = 200;
    const LOSS_PPM: u32 = 1_000;
    let clean = simnet::FaultPlane::disabled;

    for (index, kind) in FabricKind::ALL.into_iter().enumerate() {
        let f = kind_tag(kind);
        let (setup_ns, ()) = repeat(rec, REPS, |rec| {
            call(rec, || {
                let sim = Sim::new();
                let s = sim.clone();
                sim.block_on(async move {
                    UserPair::build(&s, kind).await;
                });
            })
        });
        let (small_ns, (small_events, _, half_rtt_us)) = repeat(rec, REPS, |rec| {
            pingpong(rec, kind, clean(), 4, SMALL_ITERS)
        });
        let (large_ns, (large_events, _, _)) = repeat(rec, REPS, |rec| {
            pingpong(rec, kind, clean(), 1 << 20, LARGE_ITERS)
        });
        // Same layer, used differently: 64 KiB under 1000 ppm seeded loss,
        // so each fabric's recovery engine runs. Moves no end-to-end
        // metric; it guards the recovery paths.
        let (lossy_ns, (_, retransmits, _)) = repeat(rec, REPS, |rec| {
            let plane = netbench::loss::plane_for(index, LOSS_PPM);
            pingpong(rec, kind, plane, netbench::loss::LOSS_MSG, LOSSY_ITERS)
        });
        rows.push((format!("{f}.setup_us"), setup_ns / 1e3));
        rows.push((
            format!("{f}.small_ns_per_msg"),
            small_ns / (2 * SMALL_ITERS) as f64,
        ));
        rows.push((
            format!("{f}.large_ns_per_msg"),
            large_ns / (2 * LARGE_ITERS) as f64,
        ));
        rows.push((
            format!("{f}.small_events_per_msg"),
            ratio(small_events, 2 * SMALL_ITERS),
        ));
        rows.push((
            format!("{f}.large_events_per_msg"),
            ratio(large_events, 2 * LARGE_ITERS),
        ));
        rows.push((format!("{f}.sim_half_rtt_ns"), half_rtt_us * 1e3));
        rows.push((
            format!("{f}.lossy_ns_per_msg"),
            lossy_ns / (2 * LOSSY_ITERS) as f64,
        ));
        rows.push((
            format!("{f}.retransmits_per_kmsg"),
            ratio(retransmits * 1_000, 2 * LOSSY_ITERS),
        ));
    }
}

// --- etherstack -----------------------------------------------------------------

/// Host-stack TCP ping-pong, as `tests/headline_claims.rs` drives it.
fn etherstack(rec: &mut Recorder, rows: &mut Rows) {
    let mut run = |bytes: Bytes, iters: u64| {
        repeat(rec, REPS, |rec| {
            let sim = Sim::new();
            let fab = etherstack::HostTcpFabric::new(&sim, 2);
            let ca = Cpu::new(&sim, CpuCosts::default());
            let cb = Cpu::new(&sim, CpuCosts::default());
            let (ns, ()) = call(rec, || {
                sim.block_on(async move {
                    for _ in 0..iters {
                        fab.send_msg(0, 1, &ca, &cb, bytes).await;
                        fab.send_msg(1, 0, &cb, &ca, bytes).await;
                    }
                });
            });
            (ns, sim.stats().events())
        })
    };
    const SMALL_ITERS: u64 = 2_000;
    const LARGE_ITERS: u64 = 20;
    let (small_ns, small_events) = run(Bytes::new(4), SMALL_ITERS);
    let (large_ns, _) = run(Bytes::from_mib(1), LARGE_ITERS);
    rows.push((
        "etherstack.small_ns_per_msg".into(),
        small_ns / (2 * SMALL_ITERS) as f64,
    ));
    rows.push((
        "etherstack.large_ns_per_msg".into(),
        large_ns / (2 * LARGE_ITERS) as f64,
    ));
    rows.push((
        "etherstack.events_per_msg".into(),
        ratio(small_events, 2 * SMALL_ITERS),
    ));
}

// --- mpisim ------------------------------------------------------------------------

/// MPI ping-pong between ranks 0 and 1 of a fresh world: host ns and events
/// of the timed ping-pong alone.
fn mpi_pingpong(rec: &mut Recorder, kind: FabricKind, size: u64, iters: u64) -> (f64, u64) {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let (r0, r1) = (Rc::clone(world.rank(0)), Rc::clone(world.rank(1)));
    let (b0, b1) = (r0.alloc_buffer(size), r1.alloc_buffer(size));
    let round = move |iters: u64| {
        let (r0, r1) = (Rc::clone(&r0), Rc::clone(&r1));
        async move {
            let ping = async {
                for _ in 0..iters {
                    send(&*r0, 1, 1, b0, size, None).await;
                    recv(&*r0, Source::Rank(1), 2, b0, size).await;
                }
            };
            let pong = async {
                for _ in 0..iters {
                    recv(&*r1, Source::Rank(0), 1, b1, size).await;
                    send(&*r1, 0, 2, b1, size, None).await;
                }
            };
            simnet::sync::join2(ping, pong).await;
        }
    };
    // Warm once: registration and context caches.
    sim.block_on(round(1));
    let before = sim.stats().events();
    let (ns, ()) = call(rec, || sim.block_on(round(iters)));
    (ns, sim.stats().events() - before)
}

/// Averages over the four kinds: every workload that uses `mpisim` sweeps
/// all of them.
fn mpi(rec: &mut Recorder, rows: &mut Rows) {
    const EAGER_ITERS: u64 = 1_000;
    const RNDV_ITERS: u64 = 100;
    const DEPTH: u64 = 256;
    const LATE: u64 = 200;
    const RANKS: usize = 8;
    const ROUNDS: u64 = 50;
    let kinds = FabricKind::ALL.len() as f64;
    let (mut build, mut eager, mut rndv, mut unexpected, mut allreduce) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut eager_events, mut rndv_events) = (0, 0);

    for kind in FabricKind::ALL {
        build += repeat(rec, REPS, |rec| {
            call(rec, || {
                let sim = Sim::new();
                std::hint::black_box(MpiWorld::build(&sim, kind, 2));
            })
        })
        .0;
        let (ns, events) = repeat(rec, REPS, |rec| mpi_pingpong(rec, kind, 64, EAGER_ITERS));
        eager += ns;
        eager_events += events;
        let (ns, events) = repeat(rec, REPS, |rec| {
            mpi_pingpong(rec, kind, 256 << 10, RNDV_ITERS)
        });
        rndv += ns;
        rndv_events += events;

        // 256 decoys parked in rank 1's unexpected queue, then `LATE` more
        // messages that also arrive before their receives are posted: each
        // receive walks the queue (fig7's worst case).
        unexpected += repeat(rec, REPS, |rec| {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let (r0, r1) = (Rc::clone(world.rank(0)), Rc::clone(world.rank(1)));
            let (b0, b1) = (r0.alloc_buffer(64), r1.alloc_buffer(64));
            let s = sim.clone();
            call(rec, || {
                sim.block_on(async move {
                    for _ in 0..DEPTH {
                        send(&*r0, 1, 7777, b0, 8, None).await;
                    }
                    for _ in 0..LATE {
                        send(&*r0, 1, 1, b0, 8, None).await;
                    }
                    s.sleep(SimDuration::from_millis(2)).await;
                    for _ in 0..LATE {
                        recv(&*r1, Source::Rank(0), 1, b1, 64).await;
                    }
                });
            })
        })
        .0;

        allreduce += repeat(rec, REPS, |rec| {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, RANKS);
            let tasks: Vec<_> = (0..RANKS)
                .map(|r| {
                    let rank = Rc::clone(world.rank(r));
                    sim.spawn(async move {
                        let buf = rank.alloc_buffer(1024);
                        for _ in 0..ROUNDS {
                            mpisim::collectives::allreduce_sum(&*rank, buf, vec![1.0; 16]).await;
                        }
                    })
                })
                .collect();
            call(rec, || {
                sim.block_on(async move {
                    join_all(tasks).await;
                });
            })
        })
        .0;
    }

    rows.push(("mpisim.world_build_us".into(), build / kinds / 1e3));
    rows.push((
        "mpisim.eager_ns_per_msg".into(),
        eager / kinds / (2 * EAGER_ITERS) as f64,
    ));
    rows.push((
        "mpisim.rndv_ns_per_msg".into(),
        rndv / kinds / (2 * RNDV_ITERS) as f64,
    ));
    rows.push((
        "mpisim.eager_events_per_msg".into(),
        eager_events as f64 / kinds / (2 * EAGER_ITERS) as f64,
    ));
    rows.push((
        "mpisim.rndv_events_per_msg".into(),
        rndv_events as f64 / kinds / (2 * RNDV_ITERS) as f64,
    ));
    rows.push((
        "mpisim.unexpected_ns_per_msg".into(),
        unexpected / kinds / LATE as f64,
    ));
    rows.push((
        "mpisim.allreduce_us".into(),
        allreduce / kinds / ROUNDS as f64 / 1e3,
    ));
}

// --- udapl ---------------------------------------------------------------------------

/// No workload goes through `udapl`; the row guards its refactor.
fn udapl(rec: &mut Recorder, rows: &mut Rows) {
    use ::udapl::{DatFabric, Ia, Provider};
    const WRITES: u64 = 2_000;
    const LEN: u64 = 4096;
    let (ns, ()) = repeat(rec, REPS, |rec| {
        let sim = Sim::new();
        let s = sim.clone();
        let (ep_a, ep_b, lmr_a, lmr_b) = sim.block_on(async move {
            let fab = DatFabric::new(&s, Provider::Iwarp, 2);
            let cpu_a = Cpu::new(&s, CpuCosts::default());
            let cpu_b = Cpu::new(&s, CpuCosts::default());
            let lmr_a = fab
                .lmr_create(&Ia::open(Provider::Iwarp, &cpu_a), 0, LEN)
                .await;
            let lmr_b = fab
                .lmr_create(&Ia::open(Provider::Iwarp, &cpu_b), 1, LEN)
                .await;
            let (ep_a, ep_b) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            (ep_a, ep_b, lmr_a, lmr_b)
        });
        call(rec, || {
            sim.block_on(async move {
                for i in 0..WRITES {
                    ep_a.post_rdma_write(i, &lmr_a, 0, LEN, &lmr_b.as_rmr(), 0, None)
                        .await
                        .expect("write stays inside both regions");
                    ep_a.evd_wait().await;
                    ep_b.wait_placement().await;
                }
            });
        })
    });
    rows.push(("udapl.rdma_write_ns_per_msg".into(), ns / WRITES as f64));
}

// --- netbench / bench harness ------------------------------------------------------------

/// The open-loop engine at one near-loaded point, and the sketch it feeds.
fn harness(rec: &mut Recorder, rows: &mut Rows) {
    use netbench::workload::{run_workload, FlowSink, WorkloadSpec};
    const TENANTS: usize = 4;
    const FLOWS: u64 = 2_048;
    const RECORDS: u64 = 1_000_000;

    let (ns, out) = repeat(rec, REPS, |rec| {
        let gap = SimDuration::from_micros(200);
        let spec = WorkloadSpec::mixed(FabricKind::Iwarp, TENANTS, FLOWS, gap, DEFAULT_SEED);
        let sink: FlowSink = Rc::new(std::cell::RefCell::new(|_: usize, _: SimDuration| {}));
        call(rec, || run_workload(&spec, &sink))
    });
    let flows = TENANTS as u64 * FLOWS;
    rows.push(("netbench.workload.ns_per_flow".into(), ns / flows as f64));
    rows.push((
        "netbench.workload.events_per_flow".into(),
        ratio(out.stats.events(), flows),
    ));
    rows.push((
        "netbench.workload.gen_backlog_peak".into(),
        out.stats.gen_backlog_peak as f64,
    ));

    let (ns, _) = repeat(rec, REPS, |rec| {
        let mut sketch = bench::sketch::LatencySketch::new();
        call(rec, || {
            // A multiplicative walk over ~6 decades, so records land in
            // many bins rather than one hot one.
            let mut x = 1u64;
            for _ in 0..RECORDS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                sketch.record(std::hint::black_box(x >> 44));
            }
            sketch.p99()
        })
    });
    rows.push(("bench.sketch.record_ns".into(), ns / RECORDS as f64));
}

/// `trace --full`: one serial `bench::generate` of the whole catalog and of
/// fig2 — the ROADMAP headline, catalog-dependent, informational only.
pub fn figure_catalog(rec: &mut Recorder) -> Rows {
    rec.scope("probe:bench".to_string(), |rec| {
        let (all_ns, _) = call(rec, || bench::generate("all").len());
        let (fig2_ns, _) = call(rec, || bench::generate("fig2").len());
        vec![
            ("bench.figures_all_wall_s".to_string(), all_ns / 1e9),
            ("bench.fig2_wall_s".to_string(), fig2_ns / 1e9),
        ]
    })
}
