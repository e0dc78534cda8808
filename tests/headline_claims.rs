//! Integration tests: the paper's headline claims, asserted end-to-end
//! across every crate in the workspace.
//!
//! Each test reproduces one sentence of the paper's abstract/conclusions
//! and fails if the simulated system stops exhibiting it.

use mpisim::FabricKind;
use simnet::Sim;

fn user_latency(kind: FabricKind, size: u64) -> f64 {
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let pair = netbench::userlevel::UserPair::build(&sim, kind).await;
            pair.half_rtt_us(size, 30).await
        }
    })
}

#[test]
fn iwarp_achieves_unprecedented_ethernet_latency() {
    // "The NetEffect iWARP implementation achieves an unprecedented
    // latency for Ethernet" — 9.78 µs, an order of magnitude below
    // classical TCP/IP Ethernet stacks (~50 µs of the era).
    let t = user_latency(FabricKind::Iwarp, 4);
    assert!((t - 9.78).abs() < 0.5, "iWARP half-RTT {t:.2}, paper 9.78");
}

#[test]
fn iwarp_saturates_87_percent_of_line_rate() {
    // "...saturates 87% of the available bandwidth."
    let t = user_latency(FabricKind::Iwarp, 4 << 20);
    let bw = (4u64 << 20) as f64 / t; // MB/s
    let frac = bw / 1250.0;
    assert!(
        (0.82..0.92).contains(&frac),
        "iWARP saturation {:.0}% of 10GbE, paper 87%",
        frac * 100.0
    );
}

#[test]
fn myrinet_wins_latency_infiniband_wins_its_link() {
    // "Although Myrinet is the winner in the latency tests, and
    // InfiniBand is the best in the bandwidth tests..."
    let mxom = user_latency(FabricKind::MxoM, 4);
    let others = [
        user_latency(FabricKind::MxoE, 4),
        user_latency(FabricKind::InfiniBand, 4),
        user_latency(FabricKind::Iwarp, 4),
    ];
    assert!(
        others.iter().all(|&t| mxom < t),
        "MXoM {mxom:.2} must win latency over {others:?}"
    );
    // IB saturates 97% of its own link — the highest utilization.
    let ib_bw = (4u64 << 20) as f64 / user_latency(FabricKind::InfiniBand, 4 << 20);
    let ib_frac = ib_bw / 1000.0;
    let iw_frac = (4u64 << 20) as f64 / user_latency(FabricKind::Iwarp, 4 << 20) / 1250.0;
    let mx_frac = (4u64 << 20) as f64 / user_latency(FabricKind::MxoM, 4 << 20) / 1250.0;
    assert!(
        ib_frac > iw_frac && ib_frac > mx_frac,
        "IB must have the best link utilization: IB {ib_frac:.2} iWARP {iw_frac:.2} MX {mx_frac:.2}"
    );
    assert!(
        (0.93..1.0).contains(&ib_frac),
        "IB verbs saturate 97% of its link, got {:.0}%",
        ib_frac * 100.0
    );
}

#[test]
fn myrinet_bandwidth_capped_by_pcie_x4() {
    // "...the bandwidth of Myrinet does not exceed 75% of the available
    // bandwidth" (the cards ran in PCIe x4 mode).
    for kind in [FabricKind::MxoM, FabricKind::MxoE] {
        let bw = (4u64 << 20) as f64 / user_latency(kind, 4 << 20);
        assert!(
            bw <= 0.79 * 1250.0,
            "{kind:?} bandwidth {bw:.0} MB/s must respect the x4 cap"
        );
    }
}

#[test]
fn iwarp_scales_better_with_multiple_connections() {
    // "It also scales better with multiple connections." — normalized
    // latency at 64 connections relative to 1 connection.
    let iw_gain = netbench::multiconn::normalized_latency(FabricKind::Iwarp, 1, 128, 5)
        / netbench::multiconn::normalized_latency(FabricKind::Iwarp, 64, 128, 5);
    let ib_gain = netbench::multiconn::normalized_latency(FabricKind::InfiniBand, 1, 128, 5)
        / netbench::multiconn::normalized_latency(FabricKind::InfiniBand, 64, 128, 5);
    assert!(
        iw_gain > ib_gain * 1.5,
        "iWARP 64-conn speedup {iw_gain:.1}x must clearly beat IB {ib_gain:.1}x"
    );
}

#[test]
fn iwarp_beats_ib_on_queue_usage_and_buffer_reuse() {
    // "At the MPI level, iWARP performs better than InfiniBand in queue
    // usage and buffer re-use."
    let iw_q = netbench::queues::fig8_ratio(FabricKind::Iwarp, 256, 16);
    let ib_q = netbench::queues::fig8_ratio(FabricKind::InfiniBand, 256, 16);
    assert!(
        iw_q < ib_q,
        "receive-queue ratios: iWARP {iw_q:.2} must beat IB {ib_q:.2}"
    );
    let iw_r = netbench::reuse::reuse_ratio(FabricKind::Iwarp, 256 * 1024);
    let ib_r = netbench::reuse::reuse_ratio(FabricKind::InfiniBand, 256 * 1024);
    assert!(
        iw_r < ib_r,
        "buffer-reuse ratios: iWARP {iw_r:.2} must beat IB {ib_r:.2}"
    );
}

#[test]
fn mpi_small_message_latencies_match_paper_table() {
    for (kind, want, tol) in [
        (FabricKind::Iwarp, 10.7, 0.6),
        (FabricKind::InfiniBand, 4.8, 0.4),
        (FabricKind::MxoM, 3.3, 0.4),
        (FabricKind::MxoE, 3.6, 0.4),
    ] {
        let t = netbench::mpi_latency::mpi_half_rtt_us(kind, 4, 30);
        assert!(
            (t - want).abs() < tol,
            "{kind:?} MPI latency {t:.2} µs, paper {want}"
        );
    }
}

#[test]
fn iwarp_latency_is_unprecedented_relative_to_host_tcp_ethernet() {
    // Quantify "unprecedented latency for Ethernet": same hosts, same
    // switch, plain NIC + host-stack TCP vs the iWARP RNIC.
    use hostmodel::cpu::{Cpu, CpuCosts};
    let sim = Sim::new();
    let fab = std::rc::Rc::new(etherstack::HostTcpFabric::new(&sim, 2));
    let ca = Cpu::new(&sim, CpuCosts::default());
    let cb = Cpu::new(&sim, CpuCosts::default());
    let host_tcp = sim.block_on({
        let sim = sim.clone();
        async move {
            let iters = 20u64;
            let t0 = sim.now();
            for _ in 0..iters {
                fab.send_msg(0, 1, &ca, &cb, simnet::Bytes::new(4)).await;
                fab.send_msg(1, 0, &cb, &ca, simnet::Bytes::new(4)).await;
            }
            (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        }
    });
    let iwarp = user_latency(FabricKind::Iwarp, 4);
    assert!(
        iwarp < host_tcp / 1.8,
        "iWARP {iwarp:.2} µs must cut host TCP's {host_tcp:.2} µs at least in half"
    );
}

#[test]
fn rdma_eliminates_host_cpu_involvement_host_tcp_does_not() {
    // The abstract's opening claim: TOE + RDMA "can fully eliminate the
    // host CPU involvement". Transfer 1 MB both ways and compare receive-
    // side CPU busy time.
    use hostmodel::cpu::{Cpu, CpuCosts};
    // Host TCP.
    let tcp_busy = {
        let sim = Sim::new();
        let fab = std::rc::Rc::new(etherstack::HostTcpFabric::new(&sim, 2));
        let ca = Cpu::new(&sim, CpuCosts::default());
        let cb = Cpu::new(&sim, CpuCosts::default());
        sim.block_on({
            let cb2 = cb.clone();
            async move {
                fab.send_msg(0, 1, &ca, &cb2, simnet::Bytes::new(1 << 20))
                    .await;
            }
        });
        cb.busy_time().as_micros_f64()
    };
    // iWARP RDMA Write of the same megabyte.
    let rdma_busy = {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let fab = iwarp::IwarpFabric::new(&sim, 2);
                let ca = Cpu::new(&sim, CpuCosts::default());
                let cb = Cpu::new(&sim, CpuCosts::default());
                let (qa, qb) = fab.connect(0, 1, &ca, &cb).await;
                let dst = qb.device().mem.alloc_buffer(1 << 20);
                let stag = qb
                    .device()
                    .registry
                    .register_pinned(&cb, dst, 1 << 20)
                    .await;
                cb.reset_busy();
                qa.post_send_wr(iwarp::WorkRequest::RdmaWrite {
                    wr_id: 1,
                    len: 1 << 20,
                    payload: None,
                    rkey: stag,
                    remote_addr: dst,
                })
                .await;
                qb.wait_placement().await;
                cb.busy_time().as_micros_f64()
            }
        })
    };
    assert!(
        rdma_busy * 100.0 < tcp_busy,
        "RDMA receive CPU {rdma_busy:.2} µs must be <1% of host TCP's {tcp_busy:.0} µs"
    );
}
