//! SDP-style socket emulation over iWARP verbs.
//!
//! The paper's future work ("we intend to extend our study to include
//! uDAPL, sockets, and applications") points at the Sockets Direct
//! Protocol: legacy byte-stream sockets running over RDMA hardware without
//! touching the kernel TCP stack. This module provides that layer over the
//! simulated RNIC: a connected, reliable byte stream with `send`/`recv`
//! semantics, implemented with verbs Send/Recv through pre-registered
//! bounce buffers and a credit-based flow control scheme — the "buffered
//! copy" (BCopy) mode of real SDP implementations.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hostmodel::cpu::Cpu;
use simnet::sync::Notify;

use crate::rnic::{IwarpFabric, RnicDevice};
use crate::verbs::{Qp, WorkRequest};

/// BCopy segment size: bytes moved per underlying verbs Send.
pub const SDP_SEGMENT: u64 = 8 * 1024;
/// Flow-control credits (outstanding segments).
pub const SDP_CREDITS: usize = 16;

struct StreamState {
    /// Received bytes not yet consumed by `recv`.
    rx: VecDeque<u8>,
    /// Bytes of timing-only traffic not yet consumed (when the sender
    /// passed no payload, we still account stream positions).
    rx_untyped: u64,
    notify: Notify,
}

/// One end of an SDP byte-stream connection.
pub struct SdpSocket {
    qp: Rc<Qp<RnicDevice>>,
    cpu: Cpu,
    local: Rc<RefCell<StreamState>>,
    credits: simnet::sync::Semaphore,
}

/// Establish a connected SDP socket pair over an iWARP fabric.
pub async fn socket_pair(
    fab: &IwarpFabric,
    a: usize,
    b: usize,
    cpu_a: &Cpu,
    cpu_b: &Cpu,
) -> (SdpSocket, SdpSocket) {
    let (qa, qb) = fab.connect(a, b, cpu_a, cpu_b).await;
    let qa = Rc::new(qa);
    let qb = Rc::new(qb);
    let sa = SdpSocket::new(Rc::clone(&qa), cpu_a.clone());
    let sb = SdpSocket::new(Rc::clone(&qb), cpu_b.clone());
    // Each side runs a receive loop reposting bounce buffers — the SDP
    // kernel thread of real implementations.
    sa.spawn_rx_loop();
    sb.spawn_rx_loop();
    (sa, sb)
}

impl SdpSocket {
    fn new(qp: Rc<Qp<RnicDevice>>, cpu: Cpu) -> SdpSocket {
        SdpSocket {
            qp,
            cpu,
            local: Rc::new(RefCell::new(StreamState {
                rx: VecDeque::new(),
                rx_untyped: 0,
                notify: Notify::new(),
            })),
            credits: simnet::sync::Semaphore::new(SDP_CREDITS),
        }
    }

    fn spawn_rx_loop(&self) {
        let qp = Rc::clone(&self.qp);
        let state = Rc::clone(&self.local);
        let mem = self.qp.device().mem.clone();
        let cpu = self.cpu.clone();
        let sim = self.cpu.sim().clone();
        sim.spawn_detached(async move {
            let bounce = mem.alloc_buffer(SDP_SEGMENT);
            loop {
                qp.post_recv(0, bounce, SDP_SEGMENT).await;
                let cqe = qp.next_cqe().await;
                if cqe.opcode != hostmodel::CqeOpcode::Recv {
                    continue; // sender-side completion of our own traffic
                }
                // Copy out of the bounce buffer into the stream (BCopy).
                cpu.memcpy(simnet::Bytes::new(cqe.len)).await;
                {
                    let mut s = state.borrow_mut();
                    if cqe.len > 0 {
                        let data = mem.read(bounce, cqe.len);
                        s.rx.extend(data);
                    }
                    s.rx_untyped += cqe.len;
                    s.notify.notify_one();
                }
            }
        });
    }

    /// Send `data` down the stream (blocking in virtual time until the
    /// bytes are handed to the NIC with flow-control credit).
    pub async fn send(&self, data: &[u8]) {
        for chunk in data.chunks(SDP_SEGMENT as usize) {
            self.credits.acquire().await;
            self.cpu
                .memcpy(simnet::Bytes::new(chunk.len() as u64))
                .await; // copy into bounce
            self.qp
                .post_send_wr(WorkRequest::Send {
                    wr_id: 1,
                    len: chunk.len() as u64,
                    payload: Some(chunk.to_vec()),
                })
                .await;
            // BCopy mode: the bounce buffer is reusable immediately after
            // the copy; credit returns then (peer-side credit updates are
            // piggybacked in real SDP — modelled as local).
            self.credits.release();
        }
    }

    /// Receive exactly `n` bytes from the stream.
    pub async fn recv(&self, n: usize) -> Vec<u8> {
        loop {
            {
                let mut s = self.local.borrow_mut();
                if s.rx.len() >= n {
                    return s.rx.drain(..n).collect();
                }
            }
            let notified = {
                let s = self.local.borrow();
                s.notify.notified()
            };
            notified.await;
        }
    }

    /// Bytes currently buffered and ready to read.
    pub fn available(&self) -> usize {
        self.local.borrow().rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmodel::cpu::CpuCosts;
    use simnet::Sim;

    fn setup() -> (Sim, IwarpFabric, Cpu, Cpu) {
        let sim = Sim::new();
        let fab = IwarpFabric::new(&sim, 2);
        let ca = Cpu::new(&sim, CpuCosts::default());
        let cb = Cpu::new(&sim, CpuCosts::default());
        (sim, fab, ca, cb)
    }

    #[test]
    fn byte_stream_roundtrips_across_segment_boundaries() {
        let (sim, fab, ca, cb) = setup();
        sim.block_on(async move {
            let (sa, sb) = socket_pair(&fab, 0, 1, &ca, &cb).await;
            // 20 KB crosses multiple SDP segments.
            let data: Vec<u8> = (0..20_000u32).map(|i| (i % 249) as u8).collect();
            let send_side = async {
                sa.send(&data[..5]).await;
                sa.send(&data[5..12_000]).await;
                sa.send(&data[12_000..]).await;
            };
            let recv_side = async {
                // Read with boundaries unrelated to the send calls.
                let mut got = sb.recv(1).await;
                got.extend(sb.recv(9_999).await);
                got.extend(sb.recv(10_000).await);
                got
            };
            let ((), got) = simnet::sync::join2(send_side, recv_side).await;
            assert_eq!(got, data);
        });
    }

    #[test]
    fn full_duplex_streams_are_independent() {
        let (sim, fab, ca, cb) = setup();
        sim.block_on(async move {
            let (sa, sb) = socket_pair(&fab, 0, 1, &ca, &cb).await;
            let a_to_b = vec![1u8; 30_000];
            let b_to_a = vec![2u8; 30_000];
            let side_a = async {
                sa.send(&a_to_b).await;
                sa.recv(30_000).await
            };
            let side_b = async {
                sb.send(&b_to_a).await;
                sb.recv(30_000).await
            };
            let (got_a, got_b) = simnet::sync::join2(side_a, side_b).await;
            assert_eq!(got_a, b_to_a);
            assert_eq!(got_b, a_to_b);
        });
    }

    #[test]
    fn sdp_latency_exceeds_raw_verbs_but_beats_host_tcp() {
        // SDP pays two copies over the verbs path; a small round trip must
        // still be in the 10-20 µs class, far below the ~50 µs host TCP
        // stacks of the era.
        let (sim, fab, ca, cb) = setup();
        let t = sim.block_on({
            let sim = sim.clone();
            async move {
                let (sa, sb) = socket_pair(&fab, 0, 1, &ca, &cb).await;
                // Warm-up exchange.
                let w = async {
                    sa.send(&[0u8; 8]).await;
                    sa.recv(8).await;
                };
                let w2 = async {
                    let d = sb.recv(8).await;
                    sb.send(&d).await;
                };
                simnet::sync::join2(w, w2).await;
                let iters = 20u64;
                let t0 = sim.now();
                let ping = async {
                    for _ in 0..iters {
                        sa.send(&[7u8; 64]).await;
                        sa.recv(64).await;
                    }
                };
                let pong = async {
                    for _ in 0..iters {
                        let d = sb.recv(64).await;
                        sb.send(&d).await;
                    }
                };
                simnet::sync::join2(ping, pong).await;
                (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
            }
        });
        assert!(
            (10.0..20.0).contains(&t),
            "SDP 64B half-RTT {t:.2} µs (verbs is 9.78, host TCP ~50)"
        );
    }

    #[test]
    fn sdp_bulk_throughput_approaches_verbs_bandwidth() {
        let (sim, fab, ca, cb) = setup();
        let mbps = sim.block_on({
            let sim = sim.clone();
            async move {
                let (sa, sb) = socket_pair(&fab, 0, 1, &ca, &cb).await;
                let n = 4u64 << 20;
                let t0 = sim.now();
                let tx = async {
                    sa.send(&vec![5u8; n as usize]).await;
                };
                let rx = async {
                    sb.recv(n as usize).await;
                };
                simnet::sync::join2(tx, rx).await;
                n as f64 / (sim.now() - t0).as_secs_f64() / 1e6
            }
        });
        assert!(
            (700.0..1100.0).contains(&mbps),
            "SDP bulk {mbps:.0} MB/s (copies cost some of the 1088 verbs peak)"
        );
    }
}
