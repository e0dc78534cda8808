//! What one message costs the scheduler, pinned exactly.
//!
//! Each row runs on a fresh `Sim`: one warm-up round fills the registration
//! and context caches, then the `SimStats` deltas `[timer_events, polls,
//! spawns, bookings]` of a fixed number of messages are compared with literals. The
//! runtime conformance oracles are in every build and are pure observers,
//! so they schedule nothing: a row moves only when the model's event
//! structure does, and then the literal moves in the same change.
//! `bookings` counts searches of live pipe calendars (`SimStats::bookings`):
//! one per pipe reservation, and one per stage for a short message's
//! segments, which each stage takes as one train.
//!
//! Where perfbench (`benchmark/`) defines the same quantity, the rows must
//! agree with its exact per-layer rows: `mpisim.eager_events_per_msg` and
//! `mpisim.rndv_events_per_msg` average `timer_events + polls` over the
//! four kinds, and `netbench.workload.events_per_flow` is the iWARP
//! open-loop row.

use std::rc::Rc;

use hostmodel::cpu::{Cpu, CpuCosts};
use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use netbench::workload::{run_workload, FlowSink, WorkloadSpec};
use simnet::{Sim, SimDuration, SimStats};
use udapl::{DatFabric, Ia, Provider};

/// `[timer_events, polls, spawns, bookings]` spent between two snapshots.
fn delta(before: SimStats, after: SimStats) -> [u64; 4] {
    [
        after.timer_events - before.timer_events,
        after.polls - before.polls,
        after.spawns - before.spawns,
        after.bookings - before.bookings,
    ]
}

/// MPI ping-pong of `size`-byte messages between ranks 0 and 1: the
/// deltas of `iters` round trips (`2 * iters` messages) after one warm-up
/// round trip, as perfbench's `mpisim` probe measures them.
fn mpi_pingpong(kind: FabricKind, size: u64, iters: u64) -> [u64; 4] {
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
    sim.block_on(round(1));
    let before = sim.stats();
    sim.block_on(round(iters));
    delta(before, sim.stats())
}

/// A stream of `len`-byte RDMA Writes from node 0 to node 1 through the
/// uDAPL layer onto `provider`'s verbs: the deltas of `writes` writes, each
/// reaped from the sender's EVD and seen placed at the receiver, after one
/// warm-up write.
fn verbs_writes(provider: Provider, len: u64, writes: u64) -> [u64; 4] {
    let sim = Sim::new();
    let s = sim.clone();
    let pair = sim.block_on(async move {
        let fab = DatFabric::new(&s, provider, 2);
        let cpu_a = Cpu::new(&s, CpuCosts::default());
        let cpu_b = Cpu::new(&s, CpuCosts::default());
        let lmr_a = fab.lmr_create(&Ia::open(provider, &cpu_a), 0, len).await;
        let lmr_b = fab.lmr_create(&Ia::open(provider, &cpu_b), 1, len).await;
        let (ep_a, ep_b) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
        Rc::new((ep_a, ep_b, lmr_a, lmr_b))
    });
    let stream = move |writes: u64| {
        let pair = Rc::clone(&pair);
        async move {
            let (ep_a, ep_b, lmr_a, lmr_b) = &*pair;
            for i in 0..writes {
                ep_a.post_rdma_write(i, lmr_a, 0, len, &lmr_b.as_rmr(), 0, None)
                    .await
                    .expect("write stays inside both regions");
                ep_a.evd_wait().await;
                ep_b.wait_placement().await;
            }
        }
    };
    sim.block_on(stream(1));
    let before = sim.stats();
    sim.block_on(stream(writes));
    delta(before, sim.stats())
}

/// Flows per open-loop row: perfbench's `netbench` probe mix, 4 tenants
/// × 2 048 flows.
const FLOWS: u64 = 4 * 2_048;

/// That mix (200 µs mean gap, seed 0x5EED) on `kind`: the whole run's
/// counts. `run_workload` builds its own `Sim`, so there is no warm-up.
fn open_loop(kind: FabricKind) -> [u64; 4] {
    let gap = SimDuration::from_micros(200);
    let spec = WorkloadSpec::mixed(kind, 4, FLOWS / 4, gap, 0x5EED);
    let sink: FlowSink = Rc::new(std::cell::RefCell::new(|_: usize, _: SimDuration| {}));
    delta(SimStats::default(), run_workload(&spec, &sink).stats)
}

/// Scheduling events (`SimStats::events`: timer firings plus polls) over
/// `rows`.
fn events(rows: &[[u64; 4]]) -> u64 {
    rows.iter().map(|[t, p, _, _]| t + p).sum()
}

/// Rows are in `FabricKind::ALL` order: iWARP, IB, MXoM, MXoE.
#[test]
fn an_mpi_message_costs_a_fixed_number_of_events() {
    const EAGER_ITERS: u64 = 1_000;
    const RNDV_ITERS: u64 = 100;
    let eager = FabricKind::ALL.map(|kind| mpi_pingpong(kind, 64, EAGER_ITERS));
    let rndv = FabricKind::ALL.map(|kind| mpi_pingpong(kind, 256 << 10, RNDV_ITERS));
    let expect_eager = [
        [18_000, 22_001, 2_001, 16_000],
        [22_000, 26_001, 2_001, 16_000],
        [12_000, 16_001, 2_001, 14_000],
        [12_000, 16_001, 2_001, 14_000],
    ];
    let expect_rndv = [
        [3_400, 4_201, 601, 5_000],
        [5_000, 5_801, 601, 5_400],
        [2_000, 2_601, 401, 1_600],
        [2_000, 2_601, 401, 1_600],
    ];
    assert_eq!(eager, expect_eager, "eager 64 B x {}", 2 * EAGER_ITERS);
    assert_eq!(rndv, expect_rndv, "rendezvous 256 KiB x {}", 2 * RNDV_ITERS);
    // perfbench: mpisim.eager_events_per_msg = 18.0005 and
    // mpisim.rndv_events_per_msg = 34.505, the mean over the four kinds.
    assert_eq!(events(&eager), 144_004, "18.0005 x 4 x {}", 2 * EAGER_ITERS);
    assert_eq!(events(&rndv), 27_604, "34.505 x 4 x {}", 2 * RNDV_ITERS);
}

/// Rows are in `FabricKind::ALL` order: iWARP, IB, MXoM, MXoE.
#[test]
fn an_open_loop_flow_costs_a_fixed_number_of_events() {
    let rows = FabricKind::ALL.map(open_loop);
    let expect = [
        [191_927, 260_059, 43_437, 189_777],
        [198_181, 282_517, 58_213, 169_713],
        [77_832, 108_760, 16_021, 80_696],
        [157_582, 225_470, 46_163, 139_437],
    ];
    assert_eq!(rows, expect, "{FLOWS} flows");
    // perfbench: netbench.workload.events_per_flow = 55.174072265625 on
    // iWARP, (191 927 + 260 059) / 8 192.
    assert_eq!(FabricKind::ALL[0], FabricKind::Iwarp);
    assert_eq!(events(&rows[..1]), 451_986, "55.174072265625 x {FLOWS}");
}

/// Rows: iWARP 64 B, iWARP 8 KiB, IB 64 B, IB 8 KiB. The bookings column
/// counts calendar searches: a write books each of its path's 8 stages
/// once, its segments as one train, so 8 KiB costs what 64 B does (48
/// bookings on iWARP and 26 on IB when every segment booked every stage
/// on its own).
#[test]
fn a_verbs_write_costs_a_fixed_number_of_events() {
    const WRITES: u64 = 1_000;
    let [iw, ib] = [Provider::Iwarp, Provider::InfiniBand]
        .map(|provider| [64, 8 << 10].map(|len| verbs_writes(provider, len, WRITES)));
    let expect = [
        [2_000, 4_001, 1_001, 8_000],
        [2_000, 4_001, 1_001, 8_000],
        [4_000, 6_001, 1_001, 8_000],
        [4_000, 6_001, 1_001, 8_000],
    ];
    assert_eq!([iw, ib].concat(), expect, "{WRITES} writes each");
}
