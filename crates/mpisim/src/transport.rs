//! The fabric adapter used by the host-matched MPI engine.
//!
//! The engine needs three timed primitives from a fabric — the put/progress
//! core of an RDMA channel: an ordered two-sided message delivery (eager
//! data and rendezvous control), a one-sided RDMA write (rendezvous data),
//! and cached memory registration. One adapter provides them over any
//! [`RdmaNic`]; the per-fabric differences that matter (InfiniBand's serial
//! per-message processor work, registration cost gaps) come from the device
//! model through that trait.

use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use etherstack::{Fabric, MsgDir, RdmaNic};
use hostmodel::cpu::Cpu;
use hostmodel::mem::{MemKey, VirtAddr};
use simnet::sync::FifoGate;
use simnet::{Bytes, Pipeline, SimDuration};

/// Timed fabric primitives for one rank.
pub struct FabricTransport<N: RdmaNic> {
    cpu: Cpu,
    post_cost: SimDuration,
    dev: Rc<N>,
    /// One cached pipeline per destination. Rendezvous RDMA writes reuse
    /// these paths for every chunk, so an uncontended rendezvous transfer
    /// completes on a single coalesced event via the simnet cut-through
    /// fast path rather than thousands of per-segment timer firings.
    paths: BTreeMap<usize, Pipeline>,
    seg_overhead: Bytes,
    peers: BTreeMap<usize, Rc<N>>,
    /// Per-destination in-order delivery (the TCP stream / RC-QP guarantee).
    order: BTreeMap<usize, FifoGate>,
    /// This rank's node index; connection numbers for the pair (a, b) are
    /// derived deterministically so both sides agree without a handshake.
    node: usize,
}

/// Deterministic QP number for the (src → dst) half of an MPI peer pair.
fn mpi_qpn(src: usize, dst: usize) -> u32 {
    0x4000_0000 | ((src as u32) << 12) | dst as u32
}

impl<N: RdmaNic> FabricTransport<N> {
    /// Build the adapter for `node` over `fab`, bound to process `cpu`.
    pub fn new(fab: &Fabric<N>, node: usize, cpu: &Cpu) -> Self {
        let dev = fab.device(node);
        let mut paths = BTreeMap::new();
        let mut peers = BTreeMap::new();
        let mut order = BTreeMap::new();
        for n in (0..fab.nodes()).filter(|&n| n != node) {
            paths.insert(n, fab.data_path(node, n));
            peers.insert(n, fab.device(n));
            order.insert(n, FifoGate::new());
        }
        FabricTransport {
            cpu: cpu.clone(),
            post_cost: dev.post_cost(),
            dev,
            paths,
            seg_overhead: fab.per_segment_overhead(),
            peers,
            order,
            node,
        }
    }

    /// Post, cross the wire to `dest`, and clear both NICs' per-message
    /// processors where the fabric has them.
    async fn cross(&self, dest: usize, bytes: u64) {
        self.cpu.work(self.post_cost).await;
        let tx = self
            .dev
            .per_message_engine(mpi_qpn(self.node, dest), MsgDir::Tx);
        if let Some(work) = tx {
            work.await;
        }
        self.paths[&dest]
            .transfer(Bytes::new(bytes), self.seg_overhead)
            .await;
        let rx = self.peers[&dest].per_message_engine(mpi_qpn(dest, self.node), MsgDir::Rx);
        if let Some(work) = rx {
            work.await;
        }
    }

    /// Deliver a `wire_bytes`-long two-sided message to `dest`; the future
    /// completes at *arrival* time. Messages to the same destination are
    /// FIFO (connection-ordered).
    pub fn send_to(&self, dest: usize, wire_bytes: u64) -> impl Future<Output = ()> + '_ {
        // Ticket at post time: the connection delivers in post order even
        // when a small late message finishes its wire crossing first.
        let ticket = self.order[&dest].ticket();
        async move {
            self.cross(dest, wire_bytes).await;
            let gate = &self.order[&dest];
            gate.enter(ticket).await;
            gate.leave();
        }
    }

    /// One-sided write of `len` bytes into `(rkey, raddr)` at `dest`;
    /// completes at placement. Returns false on a remote protection fault.
    pub async fn rdma_write_to(
        &self,
        dest: usize,
        len: u64,
        payload: Option<Vec<u8>>,
        rkey: MemKey,
        raddr: VirtAddr,
    ) -> bool {
        self.cross(dest, len).await;
        let peer = &self.peers[&dest];
        if !peer.registry().check(rkey, raddr, len) {
            return false;
        }
        if let Some(p) = payload {
            peer.mem().write(raddr, &p);
        }
        true
    }

    /// Register `buf` through this NIC's pin-down cache, charging `cpu`.
    pub async fn register_cached(&self, cpu: &Cpu, buf: VirtAddr, len: u64) -> MemKey {
        self.dev.registry().register_cached(cpu, buf, len).await.key
    }
}
