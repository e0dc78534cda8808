//! The one verbs queue pair: QP/CQ/memory-key semantics over any
//! [`VerbsNic`].
//!
//! The paper runs one verbs-level test over both RDMA NICs, so everything
//! the two share is stated once here: work requests posted to a send queue,
//! completions reaped from a completion queue, receives matched to sends,
//! in-order delivery per connection direction, and the remote key check
//! before the NIC touches memory. What differs per fabric is behind the
//! hooks of [`VerbsNic`], each called from exactly one place in this file.
//!
//! Timing: posting charges the caller's CPU (WQE build + doorbell MMIO);
//! everything downstream of the doorbell runs on the NIC pipeline built by
//! [`Fabric::data_path`] and costs no host CPU — the OS-bypass property the
//! paper measures.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use hostmodel::cpu::Cpu;
use hostmodel::mem::{MemKey, VirtAddr};
use hostmodel::nic::{Cqe, CqeOpcode, CqeStatus, QpQueues};
use simnet::sync::{mpsc, FifoGate, Notify, Receiver};
use simnet::{Bytes, FaultPlane, Pipeline, Sim, SimDuration};

use crate::fabric::{Fabric, RdmaNic};
use crate::recovery::transfer_reliable;

/// Wire size of an RDMA Read request (the 28-byte RDMAP Read Request
/// ULPDU; an RC RETH-only request packet is the same order).
const READ_REQUEST_LEN: Bytes = Bytes::new(28);

/// Wire size of the notice a remote protection fault sends back to the
/// requester (an RDMAP Terminate; an RC NAK).
const FAULT_NOTICE_LEN: Bytes = Bytes::new(46);

/// Direction of a message through a NIC's per-message processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgDir {
    /// Leaving the NIC.
    Tx,
    /// Arriving at the NIC.
    Rx,
}

/// What a [`QpWatch`] is shown, in the order one work request produces
/// them. `u64` payloads are the request's sequence number on its QP's send
/// queue (post order, from zero).
#[derive(Clone, Copy, Debug)]
pub enum QpStep {
    /// A send-queue work request was posted.
    PostSend(CqeOpcode, u64),
    /// A receive was posted.
    PostRecv,
    /// The request passed the peer's in-order delivery gate.
    Delivered(u64),
    /// The peer refused the key and its notice has arrived back.
    RemoteFault,
    /// The data of an RDMA Read has arrived back.
    ReadResponse,
    /// The request's CQE is about to be raised.
    Completed(u64),
}

/// The observer seam of one QP side: the fabric's conformance oracles.
/// Pure: an implementation never touches simulated time.
pub trait QpWatch: 'static {
    /// See one step of this QP side's life.
    fn observe(&self, sim: &Sim, step: QpStep);
}

/// Which verbs provider — which [`VerbsNic`] — backs a queue pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provider {
    /// NetEffect iWARP RNIC.
    Iwarp,
    /// Mellanox InfiniBand HCA.
    InfiniBand,
}

/// A NIC that carries verbs queue pairs: the per-fabric half of [`Qp`].
pub trait VerbsNic: RdmaNic + 'static {
    /// This fabric's [`QpWatch`].
    type Watch: QpWatch;

    /// Host CPU cost of one side's share of connection setup.
    fn connect_cost(&self) -> SimDuration;

    /// Host CPU cost of posting one work request (WQE build + doorbell).
    fn post_cost(&self) -> SimDuration;

    /// Serial per-message protocol-processor work for connection `qpn`.
    /// `None` — the default — means the NIC has no such stage, and
    /// [`Lane::carry`] skips the await rather than polling a future that
    /// does nothing.
    fn per_message_engine(&self, _qpn: u32, _dir: MsgDir) -> Option<impl Future<Output = ()> + '_> {
        None::<std::future::Ready<()>>
    }

    /// Fault-plane stream key of the connection direction `self`/`qpn` →
    /// `peer`/`peer_qpn`. [`FaultPlane::judge`] draws are keyed on it, so a
    /// fabric's numbering is part of its pinned lossy results.
    fn stream_key(&self, qpn: u32, peer: &Self, peer_qpn: u32) -> u64;

    /// The watch of a freshly connected QP `qpn` whose outgoing direction
    /// is `stream`.
    fn watch(&self, sim: &Sim, qpn: u32, stream: u64) -> Self::Watch;
}

/// One direction of a connection: everything a message needs to get from
/// the `src` NIC into the `dst` host, in order.
pub struct Lane<N: VerbsNic> {
    /// The simulation handle.
    pub sim: Sim,
    /// Fault plane captured from the fabric when the lane was built
    /// (disabled by default).
    pub fault: FaultPlane,
    /// The `src → dst` data path, shared with every other lane between the
    /// same two nodes.
    pub path: Pipeline,
    /// [`VerbsNic::stream_key`] of this direction.
    pub stream: u64,
    /// Sending NIC.
    pub src: Rc<N>,
    /// Receiving NIC.
    pub dst: Rc<N>,
    src_qpn: u32,
    dst_qpn: u32,
    /// Arrivals at `dst` are delivered in post order (the TCP stream / RC
    /// guarantee), whatever the relative wire times of the messages.
    pub order: FifoGate,
}

impl<N: VerbsNic> Lane<N> {
    /// The lane from QP `src_qpn` on node `src` to `dst_qpn` on node `dst`.
    pub fn new(fab: &Fabric<N>, src: usize, src_qpn: u32, dst: usize, dst_qpn: u32) -> Self {
        let (src_dev, dst_dev) = (fab.device(src), fab.device(dst));
        Lane {
            sim: fab.sim().clone(),
            fault: fab.fault_plane(),
            path: fab.data_path(src, dst),
            stream: src_dev.stream_key(src_qpn, &dst_dev, dst_qpn),
            src: src_dev,
            dst: dst_dev,
            src_qpn,
            dst_qpn,
            order: FifoGate::new(),
        }
    }

    /// Carry one `bytes`-long message NIC to NIC: the sender's per-message
    /// processor, the transfer under the NIC's loss recovery (with the fault
    /// plane disabled, [`Pipeline::transfer`]), the receiver's processor.
    ///
    /// A plain `fn` returning an `async move` block, not an `async fn`: the
    /// block keeps `self` and `bytes` once, where an `async fn` would keep
    /// its arguments and a local copy of each.
    #[expect(
        clippy::manual_async_fn,
        reason = "the async block keeps `self` and `bytes` once; an async fn would copy them"
    )]
    #[inline]
    pub fn carry(&self, bytes: Bytes) -> impl Future<Output = ()> + '_ {
        async move {
            // `let … else`, not `if let`: an `if let` keeps the `Option` it
            // matched alive beside the future moved out of it, and the task
            // would store the stage's state twice.
            'tx: {
                let Some(work) = self.src.per_message_engine(self.src_qpn, MsgDir::Tx) else {
                    break 'tx;
                };
                work.await;
            }
            transfer_reliable(
                &self.sim,
                &self.fault,
                &self.path,
                self.stream,
                bytes,
                self.src.segment_payload(),
                self.src.per_segment_overhead(),
                &N::LOSS_RECOVERY,
            )
            .await;
            let Some(work) = self.dst.per_message_engine(self.dst_qpn, MsgDir::Rx) else {
                return;
            };
            work.await;
        }
    }

    /// Land a one-sided write at `dst` if `(rkey, addr, len)` is registered
    /// there; false is a remote protection fault.
    #[inline]
    pub fn place(&self, rkey: MemKey, addr: VirtAddr, len: u64, payload: Option<Vec<u8>>) -> bool {
        let ok = self.dst.registry().check(rkey, addr, len);
        if let (true, Some(p)) = (ok, payload) {
            self.dst.mem().write(addr, &p);
        }
        ok
    }
}

/// A work request accepted by [`Qp::post_send_wr`].
#[derive(Clone, Debug)]
pub enum WorkRequest {
    /// One-sided write to remote `(rkey, addr)`.
    RdmaWrite {
        /// Completion correlator.
        wr_id: u64,
        /// Bytes to write.
        len: u64,
        /// Real payload (tests) or `None` (timing-only benchmarks).
        payload: Option<Vec<u8>>,
        /// Remote key (STag / rkey).
        rkey: MemKey,
        /// Remote destination address.
        remote_addr: VirtAddr,
    },
    /// One-sided read from remote `(rkey, addr)` into local `addr`.
    RdmaRead {
        /// Completion correlator.
        wr_id: u64,
        /// Bytes to read.
        len: u64,
        /// Local destination.
        local_addr: VirtAddr,
        /// Remote key (STag / rkey).
        rkey: MemKey,
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

impl WorkRequest {
    /// `(wr_id, opcode)` of the send-side completion this request raises.
    fn completion(&self) -> (u64, CqeOpcode) {
        match *self {
            WorkRequest::RdmaWrite { wr_id, .. } => (wr_id, CqeOpcode::RdmaWrite),
            WorkRequest::RdmaRead { wr_id, .. } => (wr_id, CqeOpcode::RdmaRead),
            WorkRequest::Send { wr_id, .. } => (wr_id, CqeOpcode::Send),
        }
    }
}

/// Host-visible receive side of one QP.
struct QpEndpoint {
    /// Posted receives, early sends and the CQ producer.
    queues: QpQueues,
    placement: Notify,
}

/// One side of a connected queue pair on fabric `N`.
pub struct Qp<N: VerbsNic> {
    cpu: Cpu,
    /// Local → peer.
    tx: Rc<Lane<N>>,
    /// Peer → local (RDMA Read responses and fault notices).
    rx: Rc<Lane<N>>,
    local: Rc<QpEndpoint>,
    remote: Rc<QpEndpoint>,
    cq_rx: RefCell<Receiver<Cqe>>,
    watch: Rc<N::Watch>,
}

impl<N: VerbsNic> Fabric<N> {
    /// Establish a connected QP pair between nodes `a` and `b` (handshake
    /// round trip plus each side's QP bring-up), charging each side's CPU.
    pub async fn connect(&self, a: usize, b: usize, cpu_a: &Cpu, cpu_b: &Cpu) -> (Qp<N>, Qp<N>) {
        let (qpn_a, qpn_b) = (self.alloc_qpn(), self.alloc_qpn());
        let ab = Rc::new(Lane::new(self, a, qpn_a, b, qpn_b));
        let ba = Rc::new(Lane::new(self, b, qpn_b, a, qpn_a));
        let ovh = self.per_segment_overhead();

        cpu_a.work(ab.src.connect_cost()).await;
        ab.path.transfer(Bytes::new(64), ovh).await;
        cpu_b.work(ba.src.connect_cost()).await;
        ba.path.transfer(Bytes::new(64), ovh).await;

        let (cq_tx_a, cq_rx_a) = mpsc();
        let (cq_tx_b, cq_rx_b) = mpsc();
        let endpoint = |cq_tx| {
            Rc::new(QpEndpoint {
                queues: QpQueues::new(cq_tx),
                placement: Notify::new(),
            })
        };
        let (ep_a, ep_b) = (endpoint(cq_tx_a), endpoint(cq_tx_b));
        let side = |cpu: &Cpu, qpn, tx: &Rc<Lane<N>>, rx, local, remote, cq_rx| Qp {
            cpu: cpu.clone(),
            watch: Rc::new(tx.src.watch(&tx.sim, qpn, tx.stream)),
            tx: Rc::clone(tx),
            rx,
            local,
            remote,
            cq_rx: RefCell::new(cq_rx),
        };
        let qp_a = side(
            cpu_a,
            qpn_a,
            &ab,
            Rc::clone(&ba),
            Rc::clone(&ep_a),
            Rc::clone(&ep_b),
            cq_rx_a,
        );
        let qp_b = side(cpu_b, qpn_b, &ba, ab, ep_b, ep_a, cq_rx_b);
        (qp_a, qp_b)
    }
}

/// The response flight of an RDMA Read the peer accepted: the peer NIC
/// turns the request around in hardware and the data flows back over `rx`
/// to `local_addr`. Returns the bytes moved.
async fn read_response<N: VerbsNic>(
    tx: &Lane<N>,
    rx: &Lane<N>,
    watch: &N::Watch,
    len: u64,
    local_addr: VirtAddr,
    remote_addr: VirtAddr,
) -> u64 {
    let data = tx.dst.mem().read(remote_addr, len);
    rx.carry(Bytes::new(len)).await;
    watch.observe(&tx.sim, QpStep::ReadResponse);
    tx.src.mem().write(local_addr, &data);
    len
}

// The per-message methods are `#[inline]`: a caller generic over, or
// dispatching between, fabrics must not pay a frame per poll for it
// (measured on the uDAPL pass-through: fig2 +17% wall for one).
impl<N: VerbsNic> Qp<N> {
    /// The NIC this QP lives on.
    pub fn device(&self) -> &Rc<N> {
        &self.tx.src
    }

    /// This side's [`QpWatch`].
    pub fn watch(&self) -> &N::Watch {
        &self.watch
    }

    /// Charge the host-side cost of posting: WQE build plus doorbell MMIO.
    #[inline]
    async fn charge_post(&self) {
        self.cpu.work(self.tx.src.post_cost()).await;
    }

    /// Post a work request to the send queue. Returns once the WQE is
    /// handed to the NIC; completion arrives on the CQ.
    #[inline]
    pub async fn post_send_wr(&self, mut wr: WorkRequest) {
        self.charge_post().await;
        let seq = self.tx.order.ticket();
        self.watch
            .observe(&self.tx.sim, QpStep::PostSend(wr.completion().1, seq));
        let tx = Rc::clone(&self.tx);
        let rx = Rc::clone(&self.rx);
        let local = Rc::clone(&self.local);
        let remote = Rc::clone(&self.remote);
        let watch = Rc::clone(&self.watch);
        // Every in-flight message is one of these tasks. Across its first
        // flight it holds only `wr`, `seq` and the five handles, since a
        // value live across two awaits would take a slot of its own: the
        // payload is taken out of `wr` rather than `wr` moved apart, so the
        // completion's fields are read from `wr` at the end, and a read's
        // response flight is boxed (writes and sends never take it).
        self.tx.sim.spawn_detached(async move {
            tx.carry(match wr {
                WorkRequest::RdmaRead { .. } => READ_REQUEST_LEN,
                WorkRequest::RdmaWrite { len, .. } | WorkRequest::Send { len, .. } => {
                    Bytes::new(len)
                }
            })
            .await;
            tx.order.enter(seq).await;
            watch.observe(&tx.sim, QpStep::Delivered(seq));
            tx.order.leave();
            // Bytes moved, or `None` on a remote protection fault.
            let moved = match wr {
                WorkRequest::RdmaWrite {
                    len,
                    ref mut payload,
                    rkey,
                    remote_addr,
                    ..
                } => tx.place(rkey, remote_addr, len, payload.take()).then(|| {
                    remote.placement.notify_one();
                    len
                }),
                WorkRequest::RdmaRead {
                    len,
                    local_addr,
                    rkey,
                    remote_addr,
                    ..
                } => {
                    if tx.dst.registry().check(rkey, remote_addr, len) {
                        let len = Box::pin(read_response(
                            &tx,
                            &rx,
                            &watch,
                            len,
                            local_addr,
                            remote_addr,
                        ))
                        .await;
                        local.placement.notify_one();
                        Some(len)
                    } else {
                        None
                    }
                }
                WorkRequest::Send {
                    len,
                    ref mut payload,
                    ..
                } => {
                    remote
                        .queues
                        .deliver_send(tx.dst.mem(), len, payload.take());
                    Some(len)
                }
            };
            if moved.is_none() {
                rx.path
                    .transfer(FAULT_NOTICE_LEN, rx.src.per_segment_overhead())
                    .await;
                watch.observe(&tx.sim, QpStep::RemoteFault);
            }
            watch.observe(&tx.sim, QpStep::Completed(seq));
            let (wr_id, opcode) = wr.completion();
            local.queues.complete(Cqe {
                wr_id,
                opcode,
                status: if moved.is_some() {
                    CqeStatus::Success
                } else {
                    CqeStatus::RemoteAccessError
                },
                len: moved.unwrap_or(0),
            });
        });
    }

    /// Post a receive buffer for incoming Sends.
    pub async fn post_recv(&self, wr_id: u64, addr: VirtAddr, len: u64) {
        self.charge_post().await;
        self.watch.observe(&self.tx.sim, QpStep::PostRecv);
        self.local
            .queues
            .post_recv(self.tx.src.mem(), wr_id, addr, len);
    }

    /// Await the next completion on this QP's CQ.
    ///
    /// CQs are single-consumer: exactly one task may block here per QP (a
    /// second concurrent consumer would panic via `RefCell`, surfacing the
    /// caller bug immediately).
    #[expect(
        clippy::await_holding_refcell_ref,
        reason = "CQs are single-consumer: a second consumer panics on the borrow, at once"
    )]
    #[inline]
    pub async fn next_cqe(&self) -> Cqe {
        self.cq_rx
            .borrow_mut()
            .recv()
            .await
            .expect("CQ channel closed")
    }

    /// Non-blocking CQ poll.
    #[inline]
    pub fn poll_cq(&self) -> Option<Cqe> {
        self.cq_rx.borrow_mut().try_recv()
    }

    /// Wait until an RDMA Write (or Read response) places data locally —
    /// models the "poll the target buffer" completion detection the paper
    /// uses for optimistic latency numbers.
    #[inline]
    pub async fn wait_placement(&self) {
        self.local.placement.notified().await;
    }
}
