//! iWARP verbs — what makes the RNIC a [`VerbsNic`].
//!
//! The QP/CQ/STag user-level interface the paper benchmarks through is the
//! shared [`Qp`]: queue pairs over a (simulated) TCP connection, work
//! requests posted to a send queue, completions reaped from a completion
//! queue, and memory registered into STags before the NIC may touch it.
//! This module supplies the iWARP half: the RDMAP stream machine and the
//! connection numbering (the TOE's loss recovery is
//! [`RnicDevice`]'s [`LOSS_RECOVERY`](etherstack::NicModel::LOSS_RECOVERY)).

use std::cell::Cell;
#[cfg(feature = "simcheck")]
use std::cell::RefCell;

use etherstack::{QpStep, QpWatch, VerbsNic};
use hostmodel::nic::CqeOpcode;
use simnet::{Sim, SimDuration};

use crate::rdmap::opcode;
use crate::rnic::RnicDevice;

pub use etherstack::{Qp, WorkRequest};
pub use hostmodel::nic::{Cqe, CqeStatus};

/// Lifecycle phases of one RDMAP stream (one direction of a QP). This is
/// the canonical machine: [`fsm_next`] is the single in-crate statement of
/// which transitions exist, and `simlint` statically diffs it
/// against `simcheck::iwarp::RDMAP_FSM_TABLE` (rule `fsm-drift`) so the
/// model and the conformance oracle cannot disagree silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamPhase {
    /// Connection up; any opcode may be posted.
    Operational,
    /// A Terminate was sent or received; nothing further is legal.
    Terminated,
}

/// Events driving [`StreamPhase`] through [`fsm_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// Tagged RDMA Write posted.
    PostWrite,
    /// Untagged Send posted.
    PostSend,
    /// RDMA Read Request posted.
    PostReadRequest,
    /// Terminate posted (local error path).
    PostTerminate,
    /// Read Response arrived for an outstanding Read Request.
    RecvReadResponse,
    /// Terminate arrived from the peer (remote error path; idempotent).
    RecvTerminate,
}

impl StreamPhase {
    /// Variant spelling as it appears in `simcheck::iwarp::RDMAP_FSM_TABLE`
    /// rows.
    pub fn table_name(self) -> &'static str {
        match self {
            StreamPhase::Operational => "Operational",
            StreamPhase::Terminated => "Terminated",
        }
    }
}

impl StreamEvent {
    /// Event spelling as it appears in `simcheck::iwarp::RDMAP_FSM_TABLE`
    /// rows.
    pub fn table_name(self) -> &'static str {
        match self {
            StreamEvent::PostWrite => "PostWrite",
            StreamEvent::PostSend => "PostSend",
            StreamEvent::PostReadRequest => "PostReadRequest",
            StreamEvent::PostTerminate => "PostTerminate",
            StreamEvent::RecvReadResponse => "RecvReadResponse",
            StreamEvent::RecvTerminate => "RecvTerminate",
        }
    }
}

/// Canonical RDMAP stream transition function: `None` means the event is
/// illegal in `from` (e.g. any post on a terminated stream).
pub fn fsm_next(from: StreamPhase, ev: StreamEvent) -> Option<StreamPhase> {
    match (from, ev) {
        (StreamPhase::Operational, StreamEvent::PostWrite) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::PostSend) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::PostReadRequest) => Some(StreamPhase::Operational),
        (StreamPhase::Operational, StreamEvent::PostTerminate) => Some(StreamPhase::Terminated),
        (StreamPhase::Operational, StreamEvent::RecvReadResponse) => Some(StreamPhase::Operational),
        (_, StreamEvent::RecvTerminate) => Some(StreamPhase::Terminated),
        _ => None,
    }
}

/// Advance a tracked stream phase by `ev`. An event with no legal
/// transition (posting on a terminated stream) leaves the phase unchanged:
/// judging that is the simcheck oracle's job — the tracker only mirrors
/// the legal moves the model makes.
fn fsm_advance(phase: &Cell<StreamPhase>, ev: StreamEvent) {
    if let Some(next) = fsm_next(phase.get(), ev) {
        phase.set(next);
    }
}

/// The RDMAP side of one QP: the always-compiled [`StreamPhase`] of this
/// side's outgoing stream, advanced by [`fsm_next`] as the model moves, and
/// (under `simcheck`) the oracles that additionally *judge* the moves.
pub struct StreamWatch {
    phase: Cell<StreamPhase>,
    /// RDMAP opcode legality on the outgoing stream (rule
    /// `iwarp.rdmap-state`).
    #[cfg(feature = "simcheck")]
    rdmap: RefCell<simcheck::iwarp::RdmapStateOracle>,
    /// Deliveries admitted by the peer's in-order gate must consume
    /// consecutive tickets (rule `iwarp.ddp-msn` at the verbs layer).
    #[cfg(feature = "simcheck")]
    delivery: RefCell<simcheck::iwarp::DeliveryOrderOracle>,
}

impl StreamWatch {
    /// Current [`StreamPhase`] of the watched stream.
    pub fn phase(&self) -> StreamPhase {
        self.phase.get()
    }
}

impl QpWatch for StreamWatch {
    #[inline]
    fn observe(&self, _sim: &Sim, step: QpStep) {
        #[cfg(feature = "simcheck")]
        let now = Some(_sim.now().as_nanos());
        match step {
            QpStep::PostSend(op, _) => {
                let (ev, _wire_op) = match op {
                    CqeOpcode::RdmaRead => (StreamEvent::PostReadRequest, opcode::READ_REQUEST),
                    CqeOpcode::Send => (StreamEvent::PostSend, opcode::SEND),
                    _ => (StreamEvent::PostWrite, opcode::WRITE),
                };
                fsm_advance(&self.phase, ev);
                #[cfg(feature = "simcheck")]
                let _ = self.rdmap.borrow_mut().observe_post(_wire_op, now);
            }
            #[cfg(feature = "simcheck")]
            QpStep::Delivered(ticket) => {
                let _ = self.delivery.borrow_mut().observe_delivery(ticket, now);
            }
            QpStep::RemoteFault => {
                // The remote protection fault came back as a Terminate.
                fsm_advance(&self.phase, StreamEvent::RecvTerminate);
                #[cfg(feature = "simcheck")]
                let _ = self.rdmap.borrow_mut().observe_terminate_received(now);
            }
            QpStep::ReadResponse => {
                fsm_advance(&self.phase, StreamEvent::RecvReadResponse);
                #[cfg(feature = "simcheck")]
                let _ = self.rdmap.borrow_mut().observe_read_response(now);
            }
            _ => {}
        }
    }
}

/// What the shared [`Qp`] leaves to the RNIC: TCP streams keyed by node
/// pair, watched as RDMAP streams. The pipelined engine has no serial
/// per-message stage.
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

    fn watch(&self, _sim: &Sim, _qpn: u32, _stream: u64) -> StreamWatch {
        StreamWatch {
            phase: Cell::new(StreamPhase::Operational),
            #[cfg(feature = "simcheck")]
            rdmap: RefCell::new(simcheck::iwarp::RdmapStateOracle::new(_stream)),
            #[cfg(feature = "simcheck")]
            delivery: RefCell::new(simcheck::iwarp::DeliveryOrderOracle::new(_stream)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnic::IwarpFabric;
    use hostmodel::cpu::{Cpu, CpuCosts};
    use hostmodel::mem::{MemKey, VirtAddr};
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

    #[test]
    fn remote_protection_fault_terminates_the_stream() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, _qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            assert_eq!(qa.watch().phase(), StreamPhase::Operational);
            qa.post_send_wr(WorkRequest::RdmaWrite {
                wr_id: 1,
                len: 16,
                payload: None,
                rkey: MemKey(424242),
                remote_addr: VirtAddr(0),
            })
            .await;
            let cqe = qa.next_cqe().await;
            assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
            assert_eq!(qa.watch().phase(), StreamPhase::Terminated);
        });
    }

    /// The crate machine and the conformance table must agree on every
    /// (phase, event) pair — the runtime complement of the static
    /// `fsm-drift` diff in `simlint`.
    #[cfg(feature = "simcheck")]
    #[test]
    fn stream_machine_matches_simcheck_table_exhaustively() {
        use StreamEvent::{
            PostReadRequest, PostSend, PostTerminate, PostWrite, RecvReadResponse, RecvTerminate,
        };
        use StreamPhase::{Operational, Terminated};
        for from in [Operational, Terminated] {
            for ev in [
                PostWrite,
                PostSend,
                PostReadRequest,
                PostTerminate,
                RecvReadResponse,
                RecvTerminate,
            ] {
                let machine = fsm_next(from, ev).map(StreamPhase::table_name);
                let table = simcheck::fsm_lookup(
                    simcheck::iwarp::RDMAP_FSM_TABLE,
                    from.table_name(),
                    ev.table_name(),
                );
                assert_eq!(machine, table, "{from:?} --{ev:?}--> disagrees");
            }
        }
    }
}
