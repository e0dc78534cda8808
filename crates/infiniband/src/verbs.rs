//! IB verbs — what makes the HCA a [`VerbsNic`].
//!
//! The QP/CQ/MR user interface (the Mellanox VAPI semantics the paper
//! benchmarks through: reliable-connected QPs, RDMA Write / Send work
//! requests, completion queues, lkey/rkey registration) is the shared
//! [`Qp`](etherstack::Qp). This module supplies the InfiniBand half: the QP
//! bring-up machine, the per-message processor hook and the connection
//! numbering (RC loss recovery is [`crate::recovery::RC_GO_BACK_N`], on the
//! HCA).

use std::cell::RefCell;
use std::future::Future;

use etherstack::{MsgDir, QpStep, QpWatch, VerbsNic};
use simnet::{Sim, SimDuration};

use crate::hca::HcaDevice;

/// Lifecycle phases of a reliable-connected QP, as the connect handshake
/// walks them. [`fsm_next`] is the one statement of which transitions
/// exist; the `ib.qp-state` oracle judges with it, and nothing else reads a
/// QP's phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QpPhase {
    /// Freshly created, no transport state.
    Reset,
    /// Port/pkey assigned; receives may be posted.
    Init,
    /// Ready to receive: remote QPN and path installed.
    Rtr,
    /// Ready to send: timeouts and retry budget armed.
    Rts,
}

/// Events driving [`QpPhase`] through [`fsm_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QpEvent {
    /// One rung of the modify-QP bring-up ladder.
    BringUp,
    /// A send-queue work request was posted.
    PostSend,
    /// A receive was posted.
    PostRecv,
}

/// QP transition function: `None` means the event is illegal in `from`
/// (sends need RTS, receives INIT or later).
pub(crate) fn fsm_next(from: QpPhase, ev: QpEvent) -> Option<QpPhase> {
    match (from, ev) {
        (QpPhase::Reset, QpEvent::BringUp) => Some(QpPhase::Init),
        (QpPhase::Init, QpEvent::BringUp) => Some(QpPhase::Rtr),
        (QpPhase::Rtr, QpEvent::BringUp) => Some(QpPhase::Rts),
        (QpPhase::Rts, QpEvent::PostSend) => Some(QpPhase::Rts),
        (QpPhase::Init | QpPhase::Rtr | QpPhase::Rts, QpEvent::PostRecv) => Some(from),
        _ => None,
    }
}

/// The RC side of one QP: the oracles judging every bring-up step and post
/// against `fsm_next` (rule `ib.qp-state`) and that send-queue completions
/// surface in post order (rule `ib.cq-order`).
pub struct RcWatch {
    state: RefCell<simcheck::FsmOracle<QpPhase, QpEvent>>,
    cq: RefCell<simcheck::ib::CqOrderOracle>,
}

impl QpWatch for RcWatch {
    #[inline]
    fn observe(&self, sim: &Sim, step: QpStep) {
        let now = Some(sim.now().as_nanos());
        match step {
            // The completion for this WQE must surface in post order.
            QpStep::PostSend(_, seq) => {
                let _ = self.state.borrow_mut().observe(QpEvent::PostSend, now);
                let posted = self.cq.borrow_mut().on_post();
                debug_assert_eq!(posted, seq, "both count this QP's posts");
            }
            QpStep::PostRecv => {
                let _ = self.state.borrow_mut().observe(QpEvent::PostRecv, now);
            }
            QpStep::Completed(seq) => {
                let _ = self.cq.borrow_mut().observe_completion(seq, now);
            }
            _ => {}
        }
    }
}

/// What the shared [`Qp`](etherstack::Qp) leaves to the HCA: the serial
/// per-message processor with its QP-context cache, and connections keyed
/// by QP-number pair.
impl VerbsNic for HcaDevice {
    type Watch = RcWatch;

    fn connect_cost(&self) -> SimDuration {
        self.calib.connect_cpu
    }

    #[inline]
    fn post_cost(&self) -> SimDuration {
        self.calib.post_wqe + self.pcie.doorbell_cost()
    }

    /// Send-side work is WQE fetch, context lookup and packet scheduling;
    /// receive-side the context lookup again. Serial — this is the
    /// multi-connection bottleneck.
    #[inline]
    fn per_message_engine(&self, qpn: u32, dir: MsgDir) -> Option<impl Future<Output = ()> + '_> {
        let cost = match dir {
            MsgDir::Tx => self.calib.msg_cost_tx,
            MsgDir::Rx => self.calib.msg_cost_rx,
        };
        Some(self.engine_message(qpn, cost))
    }

    fn stream_key(&self, qpn: u32, _peer: &Self, peer_qpn: u32) -> u64 {
        (u64::from(qpn) << 32) | u64::from(peer_qpn)
    }

    /// Walks the fresh QP's oracle up the RC bring-up ladder (RESET → INIT
    /// → RTR → RTS) that the connect handshake models.
    fn watch(&self, sim: &Sim, qpn: u32, _stream: u64) -> RcWatch {
        let mut state = simcheck::FsmOracle::new(
            QpPhase::Reset,
            fsm_next,
            simcheck::Rule::IbQpState,
            "ib",
            u64::from(qpn),
        );
        let now = Some(sim.now().as_nanos());
        for _ in 0..3 {
            let _ = state.observe(QpEvent::BringUp, now);
        }
        debug_assert_eq!(
            state.phase(),
            QpPhase::Rts,
            "bring-up ladder must end in RTS"
        );
        RcWatch {
            state: RefCell::new(state),
            cq: RefCell::new(simcheck::ib::CqOrderOracle::new(u64::from(qpn))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hca::IbFabric;
    use etherstack::WorkRequest;
    use hostmodel::cpu::{Cpu, CpuCosts};
    use simnet::sync::join2;

    /// The `ib.qp-state` oracle judges with this crate's [`fsm_next`]: the
    /// bring-up ladder and the posts it admits are clean, and a send in
    /// INIT fires exactly once.
    #[test]
    fn qp_oracle_on_fsm_next_fires_once_for_a_send_before_rts() {
        let rule = simcheck::Rule::IbQpState;
        let mut o = simcheck::FsmOracle::new(QpPhase::Reset, fsm_next, rule, "ib", 1);
        assert_eq!(o.observe(QpEvent::BringUp, None), None);
        assert_eq!(o.observe(QpEvent::PostRecv, None), None);
        let v = o
            .observe(QpEvent::PostSend, Some(5))
            .expect("sends need RTS");
        assert!(
            v.detail.contains("PostSend") && v.detail.contains("Init"),
            "{}",
            v.detail
        );
        assert_eq!(o.observe(QpEvent::BringUp, None), None);
        assert_eq!(o.observe(QpEvent::BringUp, None), None);
        assert_eq!(o.observe(QpEvent::PostSend, None), None);
        assert_eq!(o.phase(), QpPhase::Rts);
        assert_eq!(simcheck::take().counts(rule), (6, 1));
    }

    fn setup() -> (Sim, IbFabric, Cpu, Cpu) {
        let sim = Sim::new();
        let fab = IbFabric::new(&sim, 2);
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        (sim, fab, cpu_a, cpu_b)
    }

    #[test]
    fn rdma_write_half_rtt_matches_paper() {
        // Paper anchor: 4.53 µs half-RTT for small RDMA Writes.
        let (sim, fab, cpu_a, cpu_b) = setup();
        let sim2 = sim.clone();
        let t = sim.block_on(async move {
            let (qa, qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            let buf_a = qa.device().mem.alloc_buffer(64);
            let buf_b = qb.device().mem.alloc_buffer(64);
            let rk_a = qa
                .device()
                .registry
                .register_pinned(&cpu_a, buf_a, 64)
                .await;
            let rk_b = qb
                .device()
                .registry
                .register_pinned(&cpu_b, buf_b, 64)
                .await;
            let iters = 50u64;
            // Warm the ping-pong once so context caches are hot.
            let t0 = sim2.now();
            let ping = async {
                for i in 0..iters {
                    qa.post_send_wr(WorkRequest::RdmaWrite {
                        wr_id: i,
                        len: 4,
                        payload: None,
                        rkey: rk_b,
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
                        len: 4,
                        payload: None,
                        rkey: rk_a,
                        remote_addr: buf_a,
                    })
                    .await;
                }
            };
            join2(ping, pong).await;
            (sim2.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        });
        assert!(
            (t - 4.53).abs() < 0.3,
            "IB half-RTT {t:.2} µs, paper says 4.53 µs"
        );
    }

    #[test]
    fn many_qps_round_robin_degrades_past_context_cache() {
        // The Fig. 2 mechanism: per-message latency with 16 QPs in
        // round-robin exceeds the 4-QP case because every message faults a
        // context.
        let (sim, fab, cpu_a, cpu_b) = setup();
        let sim2 = sim.clone();
        let (t4, t16) = sim.block_on(async move {
            let mut qps = Vec::new();
            for _ in 0..16 {
                qps.push(fab.connect(0, 1, &cpu_a, &cpu_b).await);
            }
            let dst = qps[0].1.device().mem.alloc_buffer(64);
            let rkey = qps[0]
                .1
                .device()
                .registry
                .register_pinned(&cpu_b, dst, 64)
                .await;
            let measure = |n: usize| {
                let qs: Vec<_> = (0..n).map(|i| &qps[i].0).collect();
                let sim3 = sim2.clone();
                async move {
                    let t0 = sim3.now();
                    for _round in 0..20 {
                        for q in &qs {
                            q.post_send_wr(WorkRequest::RdmaWrite {
                                wr_id: 0,
                                len: 4,
                                payload: None,
                                rkey,
                                remote_addr: dst,
                            })
                            .await;
                        }
                        for q in &qs {
                            q.next_cqe().await;
                        }
                    }
                    (sim3.now() - t0).as_micros_f64() / (20.0 * n as f64)
                }
            };
            let t4 = measure(4).await;
            let t16 = measure(16).await;
            (t4, t16)
        });
        assert!(
            t16 > t4 * 1.2,
            "per-message time with 16 QPs ({t16:.2} µs) must exceed 4 QPs ({t4:.2} µs)"
        );
    }
}
