//! iWARP verbs — the QP/CQ/STag user-level interface to the RNIC.
//!
//! Mirrors the RDMA-consortium verbs semantics the paper benchmarks
//! through: queue pairs over a (simulated) TCP connection, work requests
//! posted to a send queue, completions reaped from a completion queue, and
//! memory registered into STags before the NIC may touch it.
//!
//! Timing: posting charges the caller's CPU (WQE build + doorbell MMIO);
//! everything downstream of the doorbell runs on the RNIC pipeline built by
//! [`crate::rnic::IwarpFabric::data_path`] and costs no host CPU — the
//! OS-bypass property the paper measures.

use std::cell::RefCell;
use std::rc::Rc;

use etherstack::recovery::{transfer_with_recovery, TcpTuning};
use etherstack::RdmaNic;
use hostmodel::cpu::Cpu;
use hostmodel::mem::{MemKey, VirtAddr};
use hostmodel::nic::QpQueues;
use simnet::sync::{mpsc, FifoGate, Notify, Receiver};
use simnet::{Bytes, FaultPlane, Pipeline, Sim};

use crate::rdmap::READ_REQUEST_LEN;
use crate::rnic::{IwarpFabric, RnicDevice};

pub use hostmodel::nic::{Cqe, CqeOpcode, CqeStatus};

/// Lifecycle phases of one RDMAP stream (one direction of a QP). This is
/// the canonical machine: [`fsm_next`] is the single in-crate statement of
/// which transitions exist, and `simlint --dataflow` statically diffs it
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
fn fsm_advance(phase: &std::cell::Cell<StreamPhase>, ev: StreamEvent) {
    if let Some(next) = fsm_next(phase.get(), ev) {
        phase.set(next);
    }
}

/// A work request accepted by [`IwarpQp::post_send_wr`].
#[derive(Clone, Debug)]
pub enum WorkRequest {
    /// One-sided write to remote `(stag, addr)`.
    RdmaWrite {
        /// Completion correlator.
        wr_id: u64,
        /// Bytes to write.
        len: u64,
        /// Real payload (tests) or `None` (timing-only benchmarks).
        payload: Option<Vec<u8>>,
        /// Remote steering tag.
        remote_stag: MemKey,
        /// Remote destination address.
        remote_addr: VirtAddr,
    },
    /// One-sided read from remote `(stag, addr)` into local `addr`.
    RdmaRead {
        /// Completion correlator.
        wr_id: u64,
        /// Bytes to read.
        len: u64,
        /// Local destination.
        local_addr: VirtAddr,
        /// Remote source tag.
        remote_stag: MemKey,
        /// Remote source address.
        remote_addr: VirtAddr,
    },
    /// Two-sided send consuming a posted receive at the peer.
    Send {
        /// Completion correlator.
        wr_id: u64,
        /// Bytes to send.
        len: u64,
        /// Real payload (tests) or `None`.
        payload: Option<Vec<u8>>,
    },
}

/// Receive-side state of one QP endpoint.
struct QpEndpoint {
    /// In-order delivery gate for traffic *arriving at* this endpoint
    /// (the TCP stream guarantee of the underlying connection).
    order: FifoGate,
    /// Posted receives, early sends (the NE010e buffers these in its 256 MB
    /// on-board memory) and the CQ producer.
    queues: QpQueues,
    placement: Notify,
    /// Conformance oracle: deliveries admitted by `order` must consume
    /// consecutive tickets (rule `iwarp.ddp-msn` at the verbs layer).
    #[cfg(feature = "simcheck")]
    delivery: RefCell<simcheck::iwarp::DeliveryOrderOracle>,
}

/// One side of an iWARP queue pair.
pub struct IwarpQp {
    sim: Sim,
    cpu: Cpu,
    dev: Rc<RnicDevice>,
    peer_dev: Rc<RnicDevice>,
    /// Data path local → peer.
    tx_path: Pipeline,
    /// Data path peer → local (used by RDMA Read responses and Terminates).
    rx_path: Pipeline,
    local: Rc<QpEndpoint>,
    remote: Rc<QpEndpoint>,
    cq_rx: RefCell<Receiver<Cqe>>,
    seg_overhead: Bytes,
    /// Fault plane captured from the fabric at connect time (disabled by
    /// default): when enabled, the TOE recovers injected losses with TCP
    /// retransmission (hardware-tight timers).
    fault: FaultPlane,
    /// Stream id of the local → peer TCP direction.
    conn_tx: u64,
    /// Stream id of the peer → local direction (RDMA Read responses).
    conn_rx: u64,
    /// Canonical [`StreamPhase`] of this side's outgoing stream, advanced
    /// by [`fsm_next`] as the model moves (always compiled; the simcheck
    /// oracle below additionally *judges* the moves when enabled).
    phase: Rc<std::cell::Cell<StreamPhase>>,
    /// Conformance oracle: RDMAP opcode legality on this side's outgoing
    /// stream (rule `iwarp.rdmap-state`).
    #[cfg(feature = "simcheck")]
    rdmap_check: Rc<RefCell<simcheck::iwarp::RdmapStateOracle>>,
}

/// Establish a connected QP pair between `a` and `b` (TCP three-way
/// handshake + MPA negotiation + QP transitions), charging each side's CPU.
pub async fn connect(
    fab: &IwarpFabric,
    a: usize,
    b: usize,
    cpu_a: &Cpu,
    cpu_b: &Cpu,
) -> (IwarpQp, IwarpQp) {
    let dev_a = fab.device(a);
    let dev_b = fab.device(b);
    let path_ab = fab.data_path(a, b);
    let path_ba = fab.data_path(b, a);
    let ovh = fab.per_segment_overhead();

    // Handshake: SYN / SYN-ACK / MPA request+reply, plus host-side setup.
    cpu_a.work(dev_a.calib.connect_cpu).await;
    path_ab.transfer(Bytes::new(64), ovh).await;
    cpu_b.work(dev_b.calib.connect_cpu).await;
    path_ba.transfer(Bytes::new(64), ovh).await;

    let (cq_tx_a, cq_rx_a) = mpsc();
    let (cq_tx_b, cq_rx_b) = mpsc();
    // Connection ids, one per stream direction: fault-plane streams and
    // oracle reports share them.
    let (conn_ab, conn_ba) = (((a as u64) << 32) | b as u64, ((b as u64) << 32) | a as u64);
    let fault = fab.fault_plane();
    let ep_a = Rc::new(QpEndpoint {
        order: FifoGate::new(),
        queues: QpQueues::new(cq_tx_a),
        placement: Notify::new(),
        #[cfg(feature = "simcheck")]
        delivery: RefCell::new(simcheck::iwarp::DeliveryOrderOracle::new(conn_ba)),
    });
    let ep_b = Rc::new(QpEndpoint {
        order: FifoGate::new(),
        queues: QpQueues::new(cq_tx_b),
        placement: Notify::new(),
        #[cfg(feature = "simcheck")]
        delivery: RefCell::new(simcheck::iwarp::DeliveryOrderOracle::new(conn_ab)),
    });
    let qp_a = IwarpQp {
        sim: fab.sim().clone(),
        cpu: cpu_a.clone(),
        dev: Rc::clone(&dev_a),
        peer_dev: Rc::clone(&dev_b),
        tx_path: path_ab.clone(),
        rx_path: path_ba.clone(),
        local: Rc::clone(&ep_a),
        remote: Rc::clone(&ep_b),
        cq_rx: RefCell::new(cq_rx_a),
        seg_overhead: ovh,
        fault: fault.clone(),
        conn_tx: conn_ab,
        conn_rx: conn_ba,
        phase: Rc::new(std::cell::Cell::new(StreamPhase::Operational)),
        #[cfg(feature = "simcheck")]
        rdmap_check: Rc::new(RefCell::new(simcheck::iwarp::RdmapStateOracle::new(
            conn_ab,
        ))),
    };
    let qp_b = IwarpQp {
        sim: fab.sim().clone(),
        cpu: cpu_b.clone(),
        dev: dev_b,
        peer_dev: dev_a,
        tx_path: path_ba,
        rx_path: path_ab,
        local: ep_b,
        remote: ep_a,
        cq_rx: RefCell::new(cq_rx_b),
        seg_overhead: ovh,
        fault,
        conn_tx: conn_ba,
        conn_rx: conn_ab,
        phase: Rc::new(std::cell::Cell::new(StreamPhase::Operational)),
        #[cfg(feature = "simcheck")]
        rdmap_check: Rc::new(RefCell::new(simcheck::iwarp::RdmapStateOracle::new(
            conn_ba,
        ))),
    };
    (qp_a, qp_b)
}

impl IwarpQp {
    /// The host this QP lives on.
    pub fn device(&self) -> &Rc<RnicDevice> {
        &self.dev
    }

    /// The process CPU this QP charges for posts.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Charge the host-side cost of posting: WQE build plus doorbell MMIO.
    async fn charge_post(&self) {
        self.cpu.work(self.dev.post_cost()).await;
    }

    /// Post a work request to the send queue. Returns once the WQE is
    /// handed to the NIC; completion arrives on the CQ.
    pub async fn post_send_wr(&self, wr: WorkRequest) {
        self.charge_post().await;
        // Track the canonical stream phase for this post.
        fsm_advance(
            &self.phase,
            match &wr {
                WorkRequest::RdmaWrite { .. } => StreamEvent::PostWrite,
                WorkRequest::RdmaRead { .. } => StreamEvent::PostReadRequest,
                WorkRequest::Send { .. } => StreamEvent::PostSend,
            },
        );
        // Conformance oracle: opcode legality against the stream state.
        #[cfg(feature = "simcheck")]
        {
            let op = match &wr {
                WorkRequest::RdmaWrite { .. } => simcheck::iwarp::opcode::WRITE,
                WorkRequest::RdmaRead { .. } => simcheck::iwarp::opcode::READ_REQUEST,
                WorkRequest::Send { .. } => simcheck::iwarp::opcode::SEND,
            };
            let _ = self
                .rdmap_check
                .borrow_mut()
                .observe_post(op, Some(self.sim.now().as_nanos()));
        }
        // Delivery at the peer follows post order (TCP stream semantics),
        // whatever the relative wire times of the messages.
        let ticket = self.remote.order.ticket();
        let phase = Rc::clone(&self.phase);
        #[cfg(feature = "simcheck")]
        let check_sim = self.sim.clone();
        #[cfg(feature = "simcheck")]
        let rdmap_check = Rc::clone(&self.rdmap_check);
        let tx_path = self.tx_path.clone();
        let rx_path = self.rx_path.clone();
        let ovh = self.seg_overhead;
        let sim = self.sim.clone();
        let fault = self.fault.clone();
        let conn_tx = self.conn_tx;
        let conn_rx = self.conn_rx;
        let mss = self.dev.calib.segment_payload;
        let tuning = TcpTuning::offload();
        let peer_registry = self.peer_dev.registry.clone();
        let peer_mem = self.peer_dev.mem.clone();
        let local_ep = Rc::clone(&self.local);
        let remote_ep = Rc::clone(&self.remote);
        let local_mem = self.dev.mem.clone();
        let local_registry = self.dev.registry.clone();
        self.sim.spawn(async move {
            match wr {
                WorkRequest::RdmaWrite {
                    wr_id,
                    len,
                    payload,
                    remote_stag,
                    remote_addr,
                } => {
                    transfer_with_recovery(
                        &sim,
                        &fault,
                        &tx_path,
                        "iwarp",
                        conn_tx,
                        Bytes::new(len),
                        mss,
                        ovh,
                        &tuning,
                    )
                    .await;
                    remote_ep.order.enter(ticket).await;
                    #[cfg(feature = "simcheck")]
                    let _ = remote_ep
                        .delivery
                        .borrow_mut()
                        .observe_delivery(ticket, Some(check_sim.now().as_nanos()));
                    remote_ep.order.leave();
                    if !peer_registry.check(remote_stag, remote_addr, len) {
                        // Remote protection fault: Terminate flows back.
                        rx_path.transfer(Bytes::new(46), ovh).await;
                        fsm_advance(&phase, StreamEvent::RecvTerminate);
                        #[cfg(feature = "simcheck")]
                        let _ = rdmap_check
                            .borrow_mut()
                            .observe_terminate_received(Some(check_sim.now().as_nanos()));
                        local_ep.queues.complete(Cqe {
                            wr_id,
                            opcode: CqeOpcode::RdmaWrite,
                            status: CqeStatus::RemoteAccessError,
                            len: 0,
                        });
                        return;
                    }
                    if let Some(p) = payload {
                        peer_mem.write(remote_addr, &p);
                    }
                    remote_ep.placement.notify_one();
                    local_ep.queues.complete(Cqe {
                        wr_id,
                        opcode: CqeOpcode::RdmaWrite,
                        status: CqeStatus::Success,
                        len,
                    });
                }
                WorkRequest::RdmaRead {
                    wr_id,
                    len,
                    local_addr,
                    remote_stag,
                    remote_addr,
                } => {
                    // Request travels out (28-byte untagged ULPDU)...
                    transfer_with_recovery(
                        &sim,
                        &fault,
                        &tx_path,
                        "iwarp",
                        conn_tx,
                        Bytes::new(READ_REQUEST_LEN as u64),
                        mss,
                        ovh,
                        &tuning,
                    )
                    .await;
                    remote_ep.order.enter(ticket).await;
                    #[cfg(feature = "simcheck")]
                    let _ = remote_ep
                        .delivery
                        .borrow_mut()
                        .observe_delivery(ticket, Some(check_sim.now().as_nanos()));
                    remote_ep.order.leave();
                    if !peer_registry.check(remote_stag, remote_addr, len) {
                        rx_path.transfer(Bytes::new(46), ovh).await;
                        fsm_advance(&phase, StreamEvent::RecvTerminate);
                        #[cfg(feature = "simcheck")]
                        let _ = rdmap_check
                            .borrow_mut()
                            .observe_terminate_received(Some(check_sim.now().as_nanos()));
                        local_ep.queues.complete(Cqe {
                            wr_id,
                            opcode: CqeOpcode::RdmaRead,
                            status: CqeStatus::RemoteAccessError,
                            len: 0,
                        });
                        return;
                    }
                    // ...the peer RNIC turns it around in hardware and the
                    // response flows back tagged to the sink.
                    let data = peer_mem.read(remote_addr, len);
                    transfer_with_recovery(
                        &sim,
                        &fault,
                        &rx_path,
                        "iwarp",
                        conn_rx,
                        Bytes::new(len),
                        mss,
                        ovh,
                        &tuning,
                    )
                    .await;
                    fsm_advance(&phase, StreamEvent::RecvReadResponse);
                    #[cfg(feature = "simcheck")]
                    let _ = rdmap_check
                        .borrow_mut()
                        .observe_read_response(Some(check_sim.now().as_nanos()));
                    local_mem.write(local_addr, &data);
                    local_ep.placement.notify_one();
                    local_ep.queues.complete(Cqe {
                        wr_id,
                        opcode: CqeOpcode::RdmaRead,
                        status: CqeStatus::Success,
                        len,
                    });
                    let _ = local_registry; // reads validate the local sink lazily
                }
                WorkRequest::Send {
                    wr_id,
                    len,
                    payload,
                } => {
                    transfer_with_recovery(
                        &sim,
                        &fault,
                        &tx_path,
                        "iwarp",
                        conn_tx,
                        Bytes::new(len),
                        mss,
                        ovh,
                        &tuning,
                    )
                    .await;
                    remote_ep.order.enter(ticket).await;
                    #[cfg(feature = "simcheck")]
                    let _ = remote_ep
                        .delivery
                        .borrow_mut()
                        .observe_delivery(ticket, Some(check_sim.now().as_nanos()));
                    remote_ep.order.leave();
                    remote_ep.queues.deliver_send(&peer_mem, len, payload);
                    local_ep.queues.complete(Cqe {
                        wr_id,
                        opcode: CqeOpcode::Send,
                        status: CqeStatus::Success,
                        len,
                    });
                }
            }
        });
    }

    /// Post a receive buffer for incoming Sends.
    pub async fn post_recv(&self, wr_id: u64, addr: VirtAddr, len: u64) {
        self.charge_post().await;
        self.local.queues.post_recv(&self.dev.mem, wr_id, addr, len);
    }

    /// Await the next completion on this QP's CQ.
    ///
    /// CQs are single-consumer: exactly one task may block here per QP (a
    /// second concurrent consumer would panic via `RefCell`, surfacing the
    /// caller bug immediately).
    #[allow(clippy::await_holding_refcell_ref)]
    pub async fn next_cqe(&self) -> Cqe {
        self.cq_rx
            .borrow_mut()
            .recv()
            .await
            .expect("CQ channel closed")
    }

    /// Non-blocking CQ poll.
    pub fn poll_cq(&self) -> Option<Cqe> {
        self.cq_rx.borrow_mut().try_recv()
    }

    /// Wait until an RDMA Write (or Read response) places data locally —
    /// models the "poll the target buffer" completion detection the paper
    /// uses for optimistic latency numbers.
    pub async fn wait_placement(&self) {
        self.local.placement.notified().await;
    }

    /// Current [`StreamPhase`] of this side's outgoing RDMAP stream.
    pub fn stream_phase(&self) -> StreamPhase {
        self.phase.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmodel::cpu::CpuCosts;
    use simnet::sync::join2;

    fn setup() -> (Sim, IwarpFabric, Cpu, Cpu) {
        let sim = Sim::new();
        let fab = IwarpFabric::new(&sim, 2);
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        (sim, fab, cpu_a, cpu_b)
    }

    #[test]
    fn rdma_write_places_data_remotely() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            let dst = qb.device().mem.alloc_buffer(4096);
            let stag = qb
                .device()
                .registry
                .register_pinned(&cpu_b, dst, 4096)
                .await;
            let data = b"rdma over ethernet".to_vec();
            qa.post_send_wr(WorkRequest::RdmaWrite {
                wr_id: 1,
                len: data.len() as u64,
                payload: Some(data.clone()),
                remote_stag: stag,
                remote_addr: dst,
            })
            .await;
            let cqe = qa.next_cqe().await;
            assert_eq!(cqe.status, CqeStatus::Success);
            assert_eq!(cqe.opcode, CqeOpcode::RdmaWrite);
            qb.wait_placement().await;
            assert_eq!(qb.device().mem.read(dst, data.len() as u64), data);
        });
    }

    #[test]
    fn rdma_write_small_message_half_rtt_matches_paper() {
        // Paper anchor: 9.78 µs RDMA Write ping-pong half-RTT.
        let (sim, fab, cpu_a, cpu_b) = setup();
        let t = sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
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
            let sim2 = qa.sim.clone();
            let t0 = sim2.now();
            let ping = async {
                for i in 0..iters {
                    qa.post_send_wr(WorkRequest::RdmaWrite {
                        wr_id: i,
                        len: 4,
                        payload: None,
                        remote_stag: stag_b,
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
                        remote_stag: stag_a,
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
    fn send_recv_roundtrip_with_preposted_receive() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            let rbuf = qb.device().mem.alloc_buffer(1024);
            qb.post_recv(7, rbuf, 1024).await;
            qa.post_send_wr(WorkRequest::Send {
                wr_id: 3,
                len: 11,
                payload: Some(b"hello verbs".to_vec()),
            })
            .await;
            let scqe = qa.next_cqe().await;
            assert_eq!(scqe.status, CqeStatus::Success);
            let rcqe = qb.next_cqe().await;
            assert_eq!(rcqe.wr_id, 7);
            assert_eq!(rcqe.len, 11);
            assert_eq!(qb.device().mem.read(rbuf, 11), b"hello verbs");
        });
    }

    #[test]
    fn unmatched_send_is_buffered_until_receive_posts() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            qa.post_send_wr(WorkRequest::Send {
                wr_id: 1,
                len: 5,
                payload: Some(b"early".to_vec()),
            })
            .await;
            // Let the send arrive before any receive exists.
            qa.next_cqe().await;
            let rbuf = qb.device().mem.alloc_buffer(64);
            qb.post_recv(9, rbuf, 64).await;
            let rcqe = qb.next_cqe().await;
            assert_eq!(rcqe.wr_id, 9);
            assert_eq!(qb.device().mem.read(rbuf, 5), b"early");
        });
    }

    #[test]
    fn send_longer_than_receive_errors() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            let rbuf = qb.device().mem.alloc_buffer(8);
            qb.post_recv(1, rbuf, 8).await;
            qa.post_send_wr(WorkRequest::Send {
                wr_id: 2,
                len: 64,
                payload: None,
            })
            .await;
            let rcqe = qb.next_cqe().await;
            assert_eq!(rcqe.status, CqeStatus::LocalLengthError);
        });
    }

    #[test]
    fn rdma_write_to_unregistered_memory_errors() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, _qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            assert_eq!(qa.stream_phase(), StreamPhase::Operational);
            qa.post_send_wr(WorkRequest::RdmaWrite {
                wr_id: 1,
                len: 16,
                payload: None,
                remote_stag: MemKey(424242),
                remote_addr: VirtAddr(0),
            })
            .await;
            let cqe = qa.next_cqe().await;
            assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
            // The remote protection fault terminated the stream.
            assert_eq!(qa.stream_phase(), StreamPhase::Terminated);
        });
    }

    /// The crate machine and the conformance table must agree on every
    /// (phase, event) pair — the runtime complement of the static
    /// `fsm-drift` diff in `simlint --dataflow`.
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

    #[test]
    fn rdma_read_pulls_remote_data() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        sim.block_on(async move {
            let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
            let src = qb.device().mem.alloc_buffer(256);
            qb.device().mem.write(src, b"pull me across");
            let stag = qb.device().registry.register_pinned(&cpu_b, src, 256).await;
            let dst = qa.device().mem.alloc_buffer(256);
            qa.post_send_wr(WorkRequest::RdmaRead {
                wr_id: 5,
                len: 14,
                local_addr: dst,
                remote_stag: stag,
                remote_addr: src,
            })
            .await;
            let cqe = qa.next_cqe().await;
            assert_eq!(cqe.status, CqeStatus::Success);
            assert_eq!(cqe.opcode, CqeOpcode::RdmaRead);
            assert_eq!(qa.device().mem.read(dst, 14), b"pull me across");
        });
    }

    #[test]
    fn posts_cost_host_cpu_but_transfers_do_not() {
        let (sim, fab, cpu_a, cpu_b) = setup();
        let busy = sim.block_on({
            async move {
                let (qa, qb) = connect(&fab, 0, 1, &cpu_a, &cpu_b).await;
                let dst = qb.device().mem.alloc_buffer(1 << 20);
                let stag = qb
                    .device()
                    .registry
                    .register_pinned(&cpu_b, dst, 1 << 20)
                    .await;
                cpu_a.reset_busy();
                qa.post_send_wr(WorkRequest::RdmaWrite {
                    wr_id: 1,
                    len: 1 << 20,
                    payload: None,
                    remote_stag: stag,
                    remote_addr: dst,
                })
                .await;
                qa.next_cqe().await;
                cpu_a.busy_time()
            }
        });
        // A 1 MB write takes ~1 ms of wire time but only the post cost
        // (<1 µs) of CPU — the zero-copy OS-bypass property.
        assert!(busy.as_micros_f64() < 1.0, "CPU busy {busy}");
    }
}
