//! The five fixed workloads: what each sweep point is, how it is run and
//! what it must reproduce.
//!
//! The parameter lists live here on purpose, not in `bench::catalog()`: a
//! later change to the figure catalog must not move the yardstick. Every
//! point goes through a public `netbench` point function (the stable
//! surface listed in the README), builds its own `Sim`, and returns a
//! simulated value whose bit pattern must repeat exactly.

use std::cell::RefCell;
use std::rc::Rc;

use bench::sketch::LatencySketch;
use mpisim::FabricKind;
use netbench::bandwidth::BwMode;
use netbench::cluster::ClusterSpec;
use netbench::reuse::ReusePattern;
use netbench::sweep::{iters_for, paper_sizes};
use netbench::workload::{FlowSink, WorkloadSpec};
use simnet::{Sim, SimDuration};

/// Seed used when `--seed` is not given; the committed goldens hold the
/// seed-dependent values at this seed.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Worker threads the `t2` points of `cluster_ring` ask the sharded engine
/// for: `nproc` of the 2-core reference box (README, "re-sizing").
const RING_THREADS: usize = 2;

// Sizing: one repetition of each point list takes 2-2.5 s of host time on
// the reference box, so a 16 s run holds seven or eight timed repetitions.
const MC_CONNS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
const MC_LAT_SIZES: [u64; 4] = [128, 1024, 4096, 16384];
const MC_LAT_ROUNDS: u64 = 6;
/// 8 KiB is fig2's pathological size: at 256 connections one such point
/// costs 0.6-0.9 s of host time, five times its 16 KiB neighbour.
const MC_THR_SIZES: [u64; 2] = [512, 8192];
const MC_THR_MSGS: u64 = 20;
const PINGPONG_ITER_SCALE: u64 = 70;
/// fig6's own count: two cycles over its 24 buffers.
const REUSE_ITERS: u64 = 48;
/// fig6 sweeps to 4 MiB, but its 2 and 4 MiB points cost 1.3 s a repetition,
/// nearly all of it the host zeroing 2 x 24 fresh buffers, not simulation.
const REUSE_MAX_SIZE: u64 = 1 << 20;
const QUEUE_ITERS: u64 = 10;
const OPEN_TENANTS: usize = 4;
const OPEN_FLOWS: u64 = 7168;
const OPEN_GAPS_US: [u64; 3] = [800, 200, 50];
const RING_HOSTS: usize = 16;
const RING_MESSAGES: u64 = 64;
/// Fibre span between hosts, which is also the lookahead window. At
/// `ClusterSpec::scaling`'s own 20 us a run takes ~2000 barrier rounds a
/// point and two thirds of its host time is cross-thread wake-up latency:
/// on the reference VM that spread 38-42 % between runs (whatever the
/// thread count) and measured the hypervisor, not the simulator. At 400 us
/// (~100 rounds a point) the rounds are compute-bound.
const RING_PROPAGATION_US: u64 = 400;
/// Iterations of the 4 B user-level ping-pong used as a calibration point.
const CAL_ITERS: u64 = 30;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MulticonnContended,
    PingpongUncontended,
    MpiBandwidthReuse,
    OpenloopMixed,
    ClusterRing,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MulticonnContended,
        Workload::PingpongUncontended,
        Workload::MpiBandwidthReuse,
        Workload::OpenloopMixed,
        Workload::ClusterRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MulticonnContended => "multiconn_contended",
            Workload::PingpongUncontended => "pingpong_uncontended",
            Workload::MpiBandwidthReuse => "mpi_bandwidth_reuse",
            Workload::OpenloopMixed => "openloop_mixed",
            Workload::ClusterRing => "cluster_ring",
        }
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MulticonnContended => {
                "fig2 shape, every transfer contended: lives on simnet::pipe's per-segment walk and the iwarp/infiniband NIC models; memo and fast path do nothing"
            }
            Workload::PingpongUncontended => {
                "fig1+fig3 shape, never contended: fast path, memo replay and executor dispatch do the work, the walk almost none"
            }
            Workload::MpiBandwidthReuse => {
                "fig4/6/7/8 shapes: mpisim eager/rendezvous, both queues and the hostmodel registration cache dominate; 4 MiB messages make thousands of segments"
            }
            Workload::OpenloopMixed => {
                "open-loop RPC+DAQ mix at under-, near- and over-load: executor-bound (timers, mpsc, generator/service tasks, sketch); the seed changes the arrivals"
            }
            Workload::ClusterRing => {
                "only workload that enters simnet::shard, at 1 and 2 worker threads, so a gain for one thread count that costs the other shows"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's point list. The closed-loop sweeps are the same at
    /// every seed (visiting them in a seeded order was tried and dropped:
    /// order effects added 2-3 % of run-to-run spread and told nothing);
    /// `openloop_mixed` hands the seed to the simulator as its
    /// arrival-process seed.
    pub fn points(self, seed: u64) -> Vec<Point> {
        match self {
            Workload::MulticonnContended => multiconn_points(),
            Workload::PingpongUncontended => pingpong_points(),
            Workload::MpiBandwidthReuse => mpi_points(),
            Workload::OpenloopMixed => openloop_points(seed),
            Workload::ClusterRing => ring_points(),
        }
    }
}

/// One sweep point: a row of the perftest-style report.
#[derive(Clone, Debug)]
pub struct Point {
    pub id: String,
    /// Message size in bytes.
    pub size: u64,
    /// Connections, queue depth, tenants or hosts — whatever the point
    /// sweeps besides size (1 for plain ping-pongs).
    pub conns: u64,
    pub op: Op,
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    McLatency {
        kind: FabricKind,
        n: usize,
        size: u64,
    },
    McThroughput {
        kind: FabricKind,
        n: usize,
        size: u64,
    },
    UserHalfRtt {
        kind: FabricKind,
        size: u64,
        iters: u64,
    },
    MpiHalfRtt {
        kind: FabricKind,
        size: u64,
        iters: u64,
    },
    MpiBandwidth {
        kind: FabricKind,
        mode: BwMode,
        size: u64,
        windows: u64,
    },
    Reuse {
        kind: FabricKind,
        size: u64,
        pattern: ReusePattern,
    },
    Unexpected {
        kind: FabricKind,
        depth: usize,
        size: u64,
    },
    RecvQueue {
        kind: FabricKind,
        depth: usize,
        size: u64,
    },
    OpenLoop {
        kind: FabricKind,
        gap_us: u64,
        seed: u64,
    },
    Ring {
        kind: FabricKind,
        threads: usize,
    },
}

/// What a point produced. `exact` holds every simulated quantity that must
/// repeat bit for bit (between repetitions, and against the golden).
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The value shown in the report row.
    pub value: f64,
    pub unit: &'static str,
    pub exact: Vec<(&'static str, u64)>,
    /// Work in equals work out (`issued == completed`, `bytes_moved ==
    /// total_bytes()`); always true for closed-loop points, which cannot
    /// return without completing.
    pub conserved: bool,
}

impl Outcome {
    fn scalar(value: f64, unit: &'static str) -> Outcome {
        Outcome {
            value,
            unit,
            exact: vec![("value_bits", value.to_bits())],
            conserved: true,
        }
    }
}

/// Stable tag of a fabric kind — its crate (and link mode) — used in point
/// ids and as the prefix of the per-fabric metric names.
pub fn kind_tag(kind: FabricKind) -> &'static str {
    match kind {
        FabricKind::Iwarp => "iwarp",
        FabricKind::InfiniBand => "infiniband",
        FabricKind::MxoM => "mx10g.mxom",
        FabricKind::MxoE => "mx10g.mxoe",
    }
}

impl Point {
    fn new(id: String, size: u64, conns: u64, op: Op) -> Point {
        Point {
            id,
            size,
            conns,
            op,
        }
    }

    /// Run the point once on a fresh simulation.
    pub fn run(&self) -> Outcome {
        match self.op {
            Op::McLatency { kind, n, size } => Outcome::scalar(
                netbench::multiconn::normalized_latency(kind, n, size, MC_LAT_ROUNDS),
                "us",
            ),
            Op::McThroughput { kind, n, size } => Outcome::scalar(
                netbench::multiconn::throughput(kind, n, size, MC_THR_MSGS),
                "MB/s",
            ),
            Op::UserHalfRtt { kind, size, iters } => {
                Outcome::scalar(user_half_rtt_us(kind, size, iters), "us")
            }
            Op::MpiHalfRtt { kind, size, iters } => Outcome::scalar(
                netbench::mpi_latency::mpi_half_rtt_us(kind, size, iters),
                "us",
            ),
            Op::MpiBandwidth {
                kind,
                mode,
                size,
                windows,
            } => Outcome::scalar(
                netbench::bandwidth::mpi_bandwidth(kind, mode, size, windows),
                "MB/s",
            ),
            Op::Reuse {
                kind,
                size,
                pattern,
            } => Outcome::scalar(
                netbench::reuse::latency_with_pattern(kind, size, pattern, REUSE_ITERS),
                "us",
            ),
            Op::Unexpected { kind, depth, size } => Outcome::scalar(
                netbench::queues::unexpected_latency(kind, depth, size, QUEUE_ITERS),
                "us",
            ),
            Op::RecvQueue { kind, depth, size } => Outcome::scalar(
                netbench::queues::receive_queue_latency(kind, depth, size, QUEUE_ITERS),
                "us",
            ),
            Op::OpenLoop { kind, gap_us, seed } => open_loop(kind, gap_us, seed),
            Op::Ring { kind, threads } => ring(kind, threads),
        }
    }

    /// Simulated messages (flows for the open loop) in the point's timed
    /// region — a constant of the workload definition.
    pub fn sim_msgs(&self) -> u64 {
        match self.op {
            Op::McLatency { n, .. } => 2 * MC_LAT_ROUNDS * n as u64,
            Op::McThroughput { n, .. } => 2 * MC_THR_MSGS * n as u64,
            Op::UserHalfRtt { iters, .. } | Op::MpiHalfRtt { iters, .. } => 2 * iters,
            Op::MpiBandwidth { mode, windows, .. } => {
                let one_way = windows * netbench::bandwidth::WINDOW;
                match mode {
                    BwMode::Unidirectional => one_way,
                    BwMode::Bidirectional | BwMode::BothWay => 2 * one_way,
                }
            }
            Op::Reuse { .. } => 2 * REUSE_ITERS,
            Op::Unexpected { .. } | Op::RecvQueue { .. } => 2 * QUEUE_ITERS,
            Op::OpenLoop { .. } => OPEN_TENANTS as u64 * OPEN_FLOWS,
            Op::Ring { .. } => {
                let spec = ring_spec(1);
                spec.hosts as u64 * spec.endpoints as u64 * spec.messages
            }
        }
    }

    /// Does the simulated value depend on `--seed`? Such points are held
    /// against the golden only at [`DEFAULT_SEED`].
    pub fn seeded(&self) -> bool {
        matches!(self.op, Op::OpenLoop { .. })
    }
}

fn user_half_rtt_us(kind: FabricKind, size: u64, iters: u64) -> f64 {
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let pair = netbench::userlevel::UserPair::build(&sim, kind).await;
            pair.half_rtt_us(size, iters).await
        }
    })
}

fn open_loop(kind: FabricKind, gap_us: u64, seed: u64) -> Outcome {
    let spec = WorkloadSpec::mixed(
        kind,
        OPEN_TENANTS,
        OPEN_FLOWS,
        SimDuration::from_micros(gap_us),
        seed,
    );
    let sketch = Rc::new(RefCell::new(LatencySketch::new()));
    let sink: FlowSink = {
        let sketch = Rc::clone(&sketch);
        Rc::new(RefCell::new(move |_tenant: usize, lat: SimDuration| {
            sketch.borrow_mut().record(lat.as_nanos());
        }))
    };
    let out = netbench::workload::run_workload(&spec, &sink);
    let sk = sketch.borrow();
    let issued: u64 = out.issued.iter().sum();
    let completed: u64 = out.completed.iter().sum();
    Outcome {
        value: sk.p99() as f64 / 1e3,
        unit: "us_p99",
        exact: vec![
            ("end_ns", out.end.as_nanos()),
            ("issued", issued),
            ("completed", completed),
            ("p50_ns", sk.p50()),
            ("p99_ns", sk.p99()),
            ("p999_ns", sk.p999()),
        ],
        conserved: out.issued == out.completed
            && issued == OPEN_TENANTS as u64 * OPEN_FLOWS
            && sk.count() == completed,
    }
}

pub fn ring_spec(threads: usize) -> ClusterSpec {
    ClusterSpec {
        messages: RING_MESSAGES,
        threads: Some(threads),
        propagation: SimDuration::from_micros(RING_PROPAGATION_US),
        ..ClusterSpec::scaling(RING_HOSTS)
    }
}

fn ring(kind: FabricKind, threads: usize) -> Outcome {
    let spec = ring_spec(threads);
    let out = netbench::cluster::cluster_exchange(kind, spec);
    Outcome {
        value: out.bandwidth_mbps(),
        unit: "MB/s",
        exact: vec![
            ("end_ns", out.end_ns),
            ("trace_digest", out.trace_digest),
            ("bytes_moved", out.bytes_moved),
        ],
        conserved: out.bytes_moved == spec.total_bytes(),
    }
}

/// The 4 B user-level ping-pong of each fabric a workload drives: the
/// paper's half-RTT anchors, carried by the workloads whose own points
/// have no numeric paper value, so every workload reports its fabrics'
/// calibration error (`anchor_err_max_pct`).
fn calibration_points(kinds: &[FabricKind]) -> Vec<Point> {
    kinds
        .iter()
        .map(|&kind| {
            let op = Op::UserHalfRtt {
                kind,
                size: 4,
                iters: CAL_ITERS,
            };
            Point::new(format!("cal/{}", kind_tag(kind)), 4, 1, op)
        })
        .collect()
}

fn multiconn_points() -> Vec<Point> {
    let kinds = [FabricKind::Iwarp, FabricKind::InfiniBand];
    let mut pts = calibration_points(&kinds);
    for kind in kinds {
        let tag = kind_tag(kind);
        for n in MC_CONNS {
            for size in MC_LAT_SIZES {
                let op = Op::McLatency { kind, n, size };
                pts.push(Point::new(
                    format!("lat/{tag}/{size}/{n}"),
                    size,
                    n as u64,
                    op,
                ));
            }
            for size in MC_THR_SIZES {
                let op = Op::McThroughput { kind, n, size };
                pts.push(Point::new(
                    format!("thr/{tag}/{size}/{n}"),
                    size,
                    n as u64,
                    op,
                ));
            }
        }
    }
    pts
}

fn pingpong_points() -> Vec<Point> {
    let mut pts = Vec::new();
    for kind in FabricKind::ALL {
        let tag = kind_tag(kind);
        for size in paper_sizes() {
            let iters = PINGPONG_ITER_SCALE * iters_for(size);
            let user = Op::UserHalfRtt { kind, size, iters };
            pts.push(Point::new(format!("user/{tag}/{size}"), size, 1, user));
            let mpi = Op::MpiHalfRtt { kind, size, iters };
            pts.push(Point::new(format!("mpi/{tag}/{size}"), size, 1, mpi));
        }
    }
    pts
}

fn mpi_points() -> Vec<Point> {
    let mut pts = Vec::new();
    for kind in FabricKind::ALL {
        let tag = kind_tag(kind);
        for mode in [
            BwMode::Unidirectional,
            BwMode::Bidirectional,
            BwMode::BothWay,
        ] {
            for size in paper_sizes() {
                // Windows as fig4 uses them.
                let windows = if size >= (1 << 20) { 2 } else { 4 };
                let op = Op::MpiBandwidth {
                    kind,
                    mode,
                    size,
                    windows,
                };
                let id = format!("bw/{}/{tag}/{size}", mode.label());
                pts.push(Point::new(id, size, 1, op));
            }
        }
        for (pattern, name) in [(ReusePattern::None, "none"), (ReusePattern::Full, "full")] {
            for size in netbench::reuse::reuse_sizes()
                .into_iter()
                .filter(|&s| s <= REUSE_MAX_SIZE)
            {
                let op = Op::Reuse {
                    kind,
                    size,
                    pattern,
                };
                pts.push(Point::new(
                    format!("reuse/{name}/{tag}/{size}"),
                    size,
                    1,
                    op,
                ));
            }
        }
        for depth in netbench::queues::queue_depths() {
            for size in netbench::queues::fig7_sizes() {
                let op = Op::Unexpected { kind, depth, size };
                let id = format!("unexp/{tag}/{size}/{depth}");
                pts.push(Point::new(id, size, depth as u64, op));
            }
            for size in netbench::queues::fig8_sizes() {
                let op = Op::RecvQueue { kind, depth, size };
                let id = format!("recvq/{tag}/{size}/{depth}");
                pts.push(Point::new(id, size, depth as u64, op));
            }
        }
    }
    pts
}

fn openloop_points(seed: u64) -> Vec<Point> {
    let mut pts = calibration_points(&FabricKind::ALL);
    for kind in FabricKind::ALL {
        for gap_us in OPEN_GAPS_US {
            let op = Op::OpenLoop { kind, gap_us, seed };
            let id = format!("open/{}/gap{gap_us}", kind_tag(kind));
            // Size column: the larger of the two flow classes (64 KiB DAQ).
            pts.push(Point::new(id, 64 << 10, OPEN_TENANTS as u64, op));
        }
    }
    pts
}

fn ring_points() -> Vec<Point> {
    let mut pts = calibration_points(&FabricKind::ALL);
    for kind in FabricKind::ALL {
        for threads in [1, RING_THREADS] {
            let op = Op::Ring { kind, threads };
            let id = format!("ring/{}/t{threads}", kind_tag(kind));
            let spec = ring_spec(threads);
            pts.push(Point::new(id, spec.message_bytes, spec.hosts as u64, op));
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why too long", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn point_ids_are_unique_and_the_same_at_every_seed() {
        for w in Workload::ALL {
            let ids = |seed| -> Vec<String> { w.points(seed).into_iter().map(|p| p.id).collect() };
            let a = ids(DEFAULT_SEED);
            assert_eq!(a, ids(7), "{}", w.name());
            let unique: BTreeSet<&String> = a.iter().collect();
            assert_eq!(unique.len(), a.len(), "{}: duplicate id", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_open_loop_arrivals() {
        let seeds = |seed| -> Vec<u64> {
            Workload::OpenloopMixed
                .points(seed)
                .iter()
                .filter_map(|p| match p.op {
                    Op::OpenLoop { seed, .. } => Some(seed),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(seeds(7), vec![7; 12]);
    }

    #[test]
    fn only_the_open_loop_takes_the_seed_into_the_simulator() {
        for w in Workload::ALL {
            let seeded = w.points(1).iter().filter(|p| p.seeded()).count();
            match w {
                Workload::OpenloopMixed => assert_eq!(seeded, 12),
                _ => assert_eq!(seeded, 0, "{}", w.name()),
            }
        }
    }

    #[test]
    fn every_point_counts_messages() {
        for w in Workload::ALL {
            for p in w.points(DEFAULT_SEED) {
                assert!(p.sim_msgs() > 0, "{}", p.id);
            }
        }
    }
}
