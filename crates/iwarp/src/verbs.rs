//! iWARP verbs — what makes the RNIC a [`VerbsNic`].
//!
//! The QP/CQ/STag user-level interface the paper benchmarks through is the
//! shared [`Qp`](etherstack::Qp): queue pairs over a (simulated) TCP
//! connection, work requests posted to a send queue, completions reaped
//! from a completion queue, and memory registered into STags before the
//! NIC may touch it.
//! This module supplies the iWARP half: the RDMAP stream machine and the
//! connection numbering (the TOE's loss recovery is
//! [`RnicDevice`]'s [`LOSS_RECOVERY`](etherstack::NicModel::LOSS_RECOVERY)).

use std::cell::RefCell;

use etherstack::{QpStep, QpWatch, VerbsNic};
use hostmodel::nic::CqeOpcode;
use simnet::{Sim, SimDuration};

use crate::rnic::RnicDevice;

pub use etherstack::WorkRequest;

/// Lifecycle phases of one RDMAP stream (one direction of a QP).
/// [`fsm_next`] is the one statement of which transitions exist; the
/// `iwarp.rdmap-state` oracle judges with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamPhase {
    /// Connection up; any opcode may be posted.
    Operational,
    /// A Terminate arrived from the peer; nothing further is legal.
    Terminated,
}

/// Events driving [`StreamPhase`] through [`fsm_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamEvent {
    /// Tagged RDMA Write posted.
    PostWrite,
    /// Untagged Send posted.
    PostSend,
    /// RDMA Read Request posted.
    PostReadRequest,
    /// Read Response arrived for an outstanding Read Request.
    RecvReadResponse,
    /// Terminate arrived from the peer (remote error path; idempotent).
    RecvTerminate,
}

/// RDMAP stream transition function: `None` means the event is illegal in
/// `from` (e.g. any post on a terminated stream).
fn fsm_next(from: StreamPhase, ev: StreamEvent) -> Option<StreamPhase> {
    match (from, ev) {
        (StreamPhase::Operational, StreamEvent::PostWrite) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::PostSend) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::PostReadRequest) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::RecvReadResponse) => Some(StreamPhase::Operational),
        (_, StreamEvent::RecvTerminate) => Some(StreamPhase::Terminated),
        _ => None,
    }
}

/// The RDMAP side of one QP: the oracles that walk this side's outgoing
/// stream through `fsm_next` and judge every move.
pub struct StreamWatch {
    /// The stream's `StreamPhase`; every event has a transition in
    /// `fsm_next` (rule `iwarp.rdmap-state`).
    machine: RefCell<simcheck::FsmOracle<StreamPhase, StreamEvent>>,
    /// Read Responses need an outstanding Read Request (same rule).
    reads: RefCell<simcheck::iwarp::RdmapStateOracle>,
    /// Deliveries admitted by the peer's in-order gate must consume
    /// consecutive tickets (rule `iwarp.ddp-msn` at the verbs layer).
    delivery: RefCell<simcheck::iwarp::DeliveryOrderOracle>,
}

impl StreamWatch {
    /// Advance the stream by `ev`. An event with no legal transition
    /// (posting on a terminated stream) fires the oracle and leaves the
    /// phase unchanged.
    fn step(&self, sim: &Sim, ev: StreamEvent) {
        let _ = self
            .machine
            .borrow_mut()
            .observe(ev, Some(sim.now().as_nanos()));
    }
}

impl QpWatch for StreamWatch {
    #[inline]
    fn observe(&self, sim: &Sim, step: QpStep) {
        match step {
            QpStep::PostSend(op, _) => {
                let ev = match op {
                    CqeOpcode::RdmaRead => StreamEvent::PostReadRequest,
                    CqeOpcode::Send => StreamEvent::PostSend,
                    _ => StreamEvent::PostWrite,
                };
                self.step(sim, ev);
                if ev == StreamEvent::PostReadRequest {
                    self.reads.borrow_mut().on_read_request();
                }
            }
            QpStep::Delivered(ticket) => {
                let now = Some(sim.now().as_nanos());
                let _ = self.delivery.borrow_mut().observe_delivery(ticket, now);
            }
            // The remote protection fault came back as a Terminate.
            QpStep::RemoteFault => self.step(sim, StreamEvent::RecvTerminate),
            QpStep::ReadResponse => {
                self.step(sim, StreamEvent::RecvReadResponse);
                let _ = self
                    .reads
                    .borrow_mut()
                    .observe_read_response(Some(sim.now().as_nanos()));
            }
            _ => {}
        }
    }
}

/// What the shared [`Qp`](etherstack::Qp) leaves to the RNIC: TCP streams
/// keyed by node pair, watched as RDMAP streams. The pipelined engine has
/// no serial per-message stage.
impl VerbsNic for RnicDevice {
    type Watch = StreamWatch;

    fn connect_cost(&self) -> SimDuration {
        self.calib.connect_cpu
    }

    #[inline]
    fn post_cost(&self) -> SimDuration {
        self.calib.post_wqe + self.pcie.doorbell_cost()
    }

    fn stream_key(&self, _qpn: u32, peer: &Self, _peer_qpn: u32) -> u64 {
        ((self.node as u64) << 32) | peer.node as u64
    }

    fn watch(&self, _sim: &Sim, _qpn: u32, stream: u64) -> StreamWatch {
        StreamWatch {
            machine: RefCell::new(simcheck::FsmOracle::new(
                StreamPhase::Operational,
                fsm_next,
                simcheck::Rule::RdmapState,
                "iwarp",
                stream,
            )),
            reads: RefCell::new(simcheck::iwarp::RdmapStateOracle::new(stream)),
            delivery: RefCell::new(simcheck::iwarp::DeliveryOrderOracle::new(stream)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnic::IwarpFabric;
    use etherstack::Qp;
    use hostmodel::cpu::{Cpu, CpuCosts};
    use hostmodel::mem::{MemKey, VirtAddr};
    use hostmodel::nic::{Cqe, CqeStatus};
    use simnet::sync::join2;

    fn setup() -> (Sim, IwarpFabric, Cpu, Cpu) {
        let sim = Sim::new();
        let fab = IwarpFabric::new(&sim, 2);
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        (sim, fab, cpu_a, cpu_b)
    }

    #[test]
    fn rdma_write_small_message_half_rtt_matches_paper() {
        // Paper anchor: 9.78 µs RDMA Write ping-pong half-RTT.
        let (sim, fab, cpu_a, cpu_b) = setup();
        let sim2 = sim.clone();
        let t = sim.block_on(async move {
            let (qa, qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            let buf_a = qa.device().mem.alloc_buffer(64);
            let buf_b = qb.device().mem.alloc_buffer(64);
            let stag_a = qa
                .device()
                .registry
                .register_pinned(&cpu_a, buf_a, 64)
                .await;
            let stag_b = qb
                .device()
                .registry
                .register_pinned(&cpu_b, buf_b, 64)
                .await;
            let iters = 50u64;
            let t0 = sim2.now();
            let ping = async {
                for i in 0..iters {
                    qa.post_send_wr(WorkRequest::RdmaWrite {
                        wr_id: i,
                        len: 4,
                        payload: None,
                        rkey: stag_b,
                        remote_addr: buf_b,
                    })
                    .await;
                    qa.wait_placement().await; // pong arrived
                }
            };
            let pong = async {
                for i in 0..iters {
                    qb.wait_placement().await;
                    qb.post_send_wr(WorkRequest::RdmaWrite {
                        wr_id: i,
                        len: 4,
                        payload: None,
                        rkey: stag_a,
                        remote_addr: buf_a,
                    })
                    .await;
                }
            };
            join2(ping, pong).await;
            (sim2.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        });
        assert!(
            (t - 9.78).abs() < 0.5,
            "iWARP half-RTT {t:.2} µs, paper says 9.78 µs"
        );
    }

    /// Post an RDMA Write under a key the peer never issued; reap its CQE.
    async fn write_with_forged_key(qp: &Qp<RnicDevice>, wr_id: u64) -> Cqe {
        qp.post_send_wr(WorkRequest::RdmaWrite {
            wr_id,
            len: 16,
            payload: None,
            rkey: MemKey(424242),
            remote_addr: VirtAddr(0),
        })
        .await;
        qp.next_cqe().await
    }

    #[test]
    fn remote_protection_fault_terminates_the_stream() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, _qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            assert_eq!(
                qa.watch().machine.borrow().phase(),
                StreamPhase::Operational
            );
            let cqe = write_with_forged_key(&qa, 1).await;
            assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
            assert_eq!(qa.watch().machine.borrow().phase(), StreamPhase::Terminated);
        });
    }

    /// The `iwarp.rdmap-state` oracle judges with this crate's
    /// [`fsm_next`]: the fault's Terminate is legal, one more Write on the
    /// terminated stream fires exactly once.
    #[test]
    fn a_write_on_a_terminated_stream_fires_the_rdmap_oracle_once() {
        // Each write is two checks: its post and the Terminate it draws.
        let counts = || simcheck::take().counts(simcheck::Rule::RdmapState);
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, _qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            write_with_forged_key(&qa, 1).await;
            assert_eq!(counts(), (2, 0), "a remote fault is a legal Terminate");
            write_with_forged_key(&qa, 2).await;
            assert_eq!(counts(), (2, 1));
        });
    }
}
