//! The fabric adapter used by the host-matched MPI engine.
//!
//! The engine needs three timed primitives from a fabric — the put/progress
//! core of an RDMA channel: an ordered two-sided message delivery (eager
//! data and rendezvous control), a one-sided RDMA write (rendezvous data),
//! and cached memory registration. One adapter provides them over any
//! [`VerbsNic`], crossing the wire on the same [`Lane`] a verbs queue pair
//! uses; the per-fabric differences that matter (InfiniBand's serial
//! per-message processor work, registration cost gaps) come from the device
//! model through that trait.

use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use etherstack::{Fabric, Lane, VerbsNic};
use hostmodel::cpu::Cpu;
use hostmodel::mem::{MemKey, VirtAddr};
use simnet::{Bytes, SimDuration};

/// Timed fabric primitives for one rank.
pub(crate) struct FabricTransport<N: VerbsNic> {
    cpu: Cpu,
    post_cost: SimDuration,
    dev: Rc<N>,
    /// One lane per destination, carrying that peer pair's deterministic
    /// QP numbers (so both sides agree without a handshake). Rendezvous
    /// RDMA writes reuse a lane's cached path for every chunk, so an
    /// uncontended rendezvous transfer completes on a single coalesced
    /// event via the simnet cut-through fast path rather than thousands of
    /// per-segment timer firings.
    lanes: BTreeMap<usize, Lane<N>>,
}

/// Deterministic QP number for the (src → dst) half of an MPI peer pair.
fn mpi_qpn(src: usize, dst: usize) -> u32 {
    0x4000_0000 | ((src as u32) << 12) | dst as u32
}

impl<N: VerbsNic> FabricTransport<N> {
    /// Build the adapter for `node` over `fab`, bound to process `cpu`.
    pub fn new(fab: &Fabric<N>, node: usize, cpu: &Cpu) -> Self {
        let dev = fab.device(node);
        let lanes = (0..fab.nodes())
            .filter(|&n| n != node)
            .map(|n| {
                let lane = Lane::new(fab, node, mpi_qpn(node, n), n, mpi_qpn(n, node));
                (n, lane)
            })
            .collect();
        FabricTransport {
            cpu: cpu.clone(),
            post_cost: dev.post_cost(),
            dev,
            lanes,
        }
    }

    /// Post, then carry `bytes` to `dest` NIC to NIC.
    async fn cross(&self, dest: usize, bytes: Bytes) {
        self.cpu.work(self.post_cost).await;
        self.lanes[&dest].carry(bytes).await;
    }

    /// Deliver a `wire_bytes`-long two-sided message to `dest`; the future
    /// completes at *arrival* time. Messages to the same destination are
    /// FIFO (connection-ordered).
    pub(crate) fn send_to(&self, dest: usize, wire_bytes: Bytes) -> impl Future<Output = ()> + '_ {
        // Ticket at post time: the connection delivers in post order even
        // when a small late message finishes its wire crossing first.
        let gate = &self.lanes[&dest].order;
        let ticket = gate.ticket();
        async move {
            self.cross(dest, wire_bytes).await;
            gate.enter(ticket).await;
            gate.leave();
        }
    }

    /// One-sided write of `len` bytes into `(rkey, raddr)` at `dest`;
    /// completes at placement. Returns false on a remote protection fault.
    pub(crate) async fn rdma_write_to(
        &self,
        dest: usize,
        len: u64,
        payload: Option<Vec<u8>>,
        rkey: MemKey,
        raddr: VirtAddr,
    ) -> bool {
        self.cross(dest, Bytes::new(len)).await;
        self.lanes[&dest].place(rkey, raddr, len, payload)
    }

    /// Register `buf` through this NIC's pin-down cache, charging `cpu`.
    pub async fn register_cached(&self, cpu: &Cpu, buf: VirtAddr, len: u64) -> MemKey {
        self.dev.registry().register_cached(cpu, buf, len).await.key
    }
}
