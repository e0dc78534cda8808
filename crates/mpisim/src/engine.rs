//! The host-matched MPI engine (the MPICH-over-verbs model).
//!
//! Implements exactly the machinery the paper's MPI-level experiments
//! measure:
//!
//! * **Eager protocol** (small messages): copy through pre-registered
//!   bounce buffers — sender completes locally after the copy; the receive
//!   side walks the posted-receive queue on arrival and the unexpected
//!   queue on `MPI_Irecv`, paying a per-entry CPU cost (Figs. 7 and 8).
//! * **Rendezvous protocol** (large messages): RTS → receive-side match +
//!   buffer registration → CTS (carrying rkey) → RDMA Write → FIN. Buffer
//!   registration goes through the NIC's pin-down cache, so the buffer
//!   re-use pattern decides whether the expensive pinning is paid
//!   (Fig. 6).
//! * Copy costs are cache-aware: cycling through many buffers copies cold,
//!   re-using one buffer copies hot — the eager-range effect in Fig. 6.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use etherstack::{Fabric, VerbsNic};
use hostmodel::cpu::Cpu;
use hostmodel::lru::LruCache;
use hostmodel::mem::{HostMem, MemKey, VirtAddr};
use hostmodel::nic::MatchLists;
use simnet::{Bytes, Sim, SimDuration};

use crate::rank::{LocalFuture, MpiRank, Source};
use crate::request::{MpiRequest, MpiStatus};
use crate::transport::FabricTransport;

/// Per-fabric MPI library configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MpiConfig {
    /// Messages of at least this many bytes use the rendezvous protocol.
    pub rndv_threshold: u64,
    /// Wire bytes of the eager header prepended to payload.
    pub eager_header: Bytes,
    /// Wire bytes of a control message (RTS/CTS/FIN).
    pub ctrl_wire: Bytes,
    /// CPU cost per posted-receive-queue entry walked on message arrival.
    pub posted_per_entry: SimDuration,
    /// CPU cost per unexpected-queue entry walked on `MPI_Irecv`.
    pub unexpected_per_entry: SimDuration,
    /// Software overhead of the send path beyond the library call.
    pub send_sw: SimDuration,
    /// Software overhead of arrival processing (progress engine).
    pub recv_sw: SimDuration,
    /// How many distinct buffers stay cache-hot for copy purposes.
    pub hot_buffers: usize,
}

struct Posted {
    src: Source,
    tag: u32,
    buf: VirtAddr,
    len: u64,
    req: MpiRequest,
}

enum UnexKind {
    Eager { payload: Option<Vec<u8>> },
    Rts { rts_id: u64 },
}

/// A message envelope: eager data, or a rendezvous request-to-send.
pub(crate) struct Unex {
    from: usize,
    tag: u32,
    /// Payload length (the full message length for an RTS).
    len: u64,
    kind: UnexKind,
}

/// Does a receive for `(src, tag)` accept the message `u`?
fn accepts(src: Source, tag: u32, u: &Unex) -> bool {
    src.admits(u.from) && (tag == crate::rank::ANY_TAG || tag == u.tag)
}

/// Does the posted receive `p` accept the message `u`?
fn fits(p: &Posted, u: &Unex) -> bool {
    accepts(p.src, p.tag, u)
}

/// Control messages exchanged between engines. Content travels with the
/// simulated message; timing comes from the transport.
pub(crate) enum CtrlMsg {
    /// Eager data or a rendezvous RTS, matched against posted receives.
    Envelope(Unex),
    /// Clear-to-send: receive buffer is registered, go ahead.
    Cts {
        /// Correlator.
        rts_id: u64,
        /// Remote key of the registered receive buffer.
        rkey: MemKey,
        /// Receive buffer address.
        raddr: VirtAddr,
        /// Receiver-side capacity.
        rlen: u64,
    },
    /// Transfer complete.
    Fin {
        /// Correlator.
        rts_id: u64,
    },
}

struct RtsSend {
    dest: usize,
    tag: u32,
    len: u64,
    payload: Option<Vec<u8>>,
    req: MpiRequest,
}

struct FinWait {
    from: usize,
    tag: u32,
    len: u64,
    req: MpiRequest,
    /// When the CTS went out — the receiving process spin-polls its CQ
    /// from here until FIN, and those cycles count as receiver overhead.
    cts_at: simnet::SimTime,
}

/// One host-matched MPI process.
pub(crate) struct HostEngine<N: VerbsNic> {
    sim: Sim,
    rank: usize,
    size: usize,
    cpu: Cpu,
    mem: HostMem,
    cfg: MpiConfig,
    transport: FabricTransport<N>,
    lists: MatchLists<Posted, Unex>,
    rts_send: RefCell<BTreeMap<u64, RtsSend>>,
    fin_wait: RefCell<BTreeMap<u64, FinWait>>,
    next_rts: Cell<u64>,
    hot_bufs: RefCell<LruCache<u64, ()>>,
    peers: RefCell<Vec<Weak<HostEngine<N>>>>,
}

impl<N: VerbsNic> HostEngine<N> {
    /// Build the engine for `rank` (one rank per node of `fab`), bound to
    /// process `cpu`.
    pub fn new(fab: &Fabric<N>, rank: usize, cpu: Cpu, cfg: MpiConfig) -> Rc<Self> {
        Rc::new(HostEngine {
            sim: fab.sim().clone(),
            rank,
            size: fab.nodes(),
            mem: fab.device(rank).mem().clone(),
            transport: FabricTransport::new(fab, rank, &cpu),
            cpu,
            cfg,
            lists: MatchLists::default(),
            rts_send: RefCell::new(BTreeMap::new()),
            fin_wait: RefCell::new(BTreeMap::new()),
            next_rts: Cell::new(1),
            hot_bufs: RefCell::new(LruCache::new(cfg.hot_buffers.max(1))),
            peers: RefCell::new(Vec::new()),
        })
    }

    /// Wire the peer table (called once by the world builder).
    pub(crate) fn set_peers(&self, peers: Vec<Weak<HostEngine<N>>>) {
        *self.peers.borrow_mut() = peers;
    }

    fn peer(&self, rank: usize) -> Rc<HostEngine<N>> {
        self.peers.borrow()[rank]
            .upgrade()
            .expect("peer engine dropped while world in use")
    }

    /// Untimed check: does the unexpected queue hold a matching message?
    pub fn probe_unexpected(&self, src: Source, tag: u32) -> bool {
        self.lists.parked(|u| accepts(src, tag, u))
    }

    /// Copy `len` bytes of `buf` through the CPU, hot or cold depending on
    /// whether the buffer was recently used.
    async fn copy_buffer(&self, buf: VirtAddr, len: u64) {
        let hot = {
            let mut hb = self.hot_bufs.borrow_mut();
            if hb.get(&buf.0).is_some() {
                true
            } else {
                hb.insert(buf.0, ());
                false
            }
        };
        if hot {
            self.cpu.memcpy(simnet::Bytes::new(len)).await;
        } else {
            self.cpu.memcpy_cold(simnet::Bytes::new(len)).await;
        }
    }

    /// `MPI_Isend`.
    pub async fn isend(
        self: &Rc<Self>,
        dest: usize,
        tag: u32,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> MpiRequest {
        let req = MpiRequest::new();
        self.cpu.call().await;
        self.cpu.work(self.cfg.send_sw).await;
        let (wire, kind) = if len < self.cfg.rndv_threshold {
            // Eager: copy into the pre-registered bounce buffer; the user
            // buffer is immediately reusable, so the request completes
            // locally.
            self.copy_buffer(buf, len).await;
            req.complete(MpiStatus {
                len,
                source: self.rank,
                tag,
            });
            let wire = self.cfg.eager_header + Bytes::new(len);
            (wire, UnexKind::Eager { payload })
        } else {
            // Rendezvous: pin the user buffer (cache-aware) and announce.
            self.transport.register_cached(&self.cpu, buf, len).await;
            let rts_id = self.next_rts.get();
            self.next_rts.set(rts_id + 1);
            self.rts_send.borrow_mut().insert(
                rts_id,
                RtsSend {
                    dest,
                    tag,
                    len,
                    payload,
                    req: req.clone(),
                },
            );
            (self.cfg.ctrl_wire, UnexKind::Rts { rts_id })
        };
        let env = Unex {
            from: self.rank,
            tag,
            len,
            kind,
        };
        let me = Rc::clone(self);
        self.sim.spawn_detached(async move {
            me.transport.send_to(dest, wire).await;
            let peer = me.peer(dest);
            peer.handle_arrival(CtrlMsg::Envelope(env)).await;
        });
        req
    }

    /// `MPI_Irecv`.
    pub async fn irecv(
        self: &Rc<Self>,
        src: Source,
        tag: u32,
        buf: VirtAddr,
        len: u64,
    ) -> MpiRequest {
        let req = MpiRequest::new();
        self.cpu.call().await;
        // Walk the unexpected queue (FIFO, per-entry CPU cost); a miss is
        // posted before the walk is charged.
        let posted = Posted {
            src,
            tag,
            buf,
            len,
            req: req.clone(),
        };
        let (walked, hit) = self.lists.post(posted, fits);
        self.cpu
            .work(self.cfg.unexpected_per_entry * walked as u64)
            .await;
        if let Some((p, u)) = hit {
            self.matched(p, u).await;
        }
        req
    }

    /// A posted receive met its message: copy eager data out, or answer
    /// the RTS — register the receive buffer and send CTS.
    async fn matched(self: &Rc<Self>, p: Posted, u: Unex) {
        let n = u.len.min(p.len);
        match u.kind {
            UnexKind::Eager { payload } => {
                self.copy_buffer(p.buf, n).await;
                if let Some(data) = payload {
                    self.mem.write(p.buf, &data[..n as usize]);
                }
                p.req.complete(MpiStatus {
                    len: n,
                    source: u.from,
                    tag: u.tag,
                });
            }
            UnexKind::Rts { rts_id } => {
                let key = self.transport.register_cached(&self.cpu, p.buf, n).await;
                self.fin_wait.borrow_mut().insert(
                    rts_id,
                    FinWait {
                        from: u.from,
                        tag: u.tag,
                        len: n,
                        req: p.req,
                        cts_at: self.sim.now(),
                    },
                );
                let me = Rc::clone(self);
                let wire = self.cfg.ctrl_wire;
                self.sim.spawn_detached(async move {
                    me.transport.send_to(u.from, wire).await;
                    let peer = me.peer(u.from);
                    peer.handle_arrival(CtrlMsg::Cts {
                        rts_id,
                        rkey: key,
                        raddr: p.buf,
                        rlen: n,
                    })
                    .await;
                });
            }
        }
    }

    /// Progress-engine entry point: a control message arrived from the
    /// fabric. Runs at arrival time and charges *this* (receiving) rank's
    /// CPU, as a polling MPI progress engine does.
    pub(crate) async fn handle_arrival(self: &Rc<Self>, msg: CtrlMsg) {
        self.cpu.work(self.cfg.recv_sw).await;
        match msg {
            CtrlMsg::Envelope(u) => {
                // Walk the posted queue; a miss is parked before the walk is
                // charged.
                let (walked, hit) = self.lists.arrive(u, fits);
                self.cpu
                    .work(self.cfg.posted_per_entry * walked as u64)
                    .await;
                if let Some((p, u)) = hit {
                    self.matched(p, u).await;
                }
            }
            CtrlMsg::Cts {
                rts_id,
                rkey,
                raddr,
                rlen,
            } => {
                let rts = self
                    .rts_send
                    .borrow_mut()
                    .remove(&rts_id)
                    .expect("CTS for unknown RTS");
                let me = Rc::clone(self);
                let n = rts.len.min(rlen);
                self.sim.spawn_detached(async move {
                    let ok = me
                        .transport
                        .rdma_write_to(rts.dest, n, rts.payload, rkey, raddr)
                        .await;
                    debug_assert!(ok, "rendezvous write faulted");
                    me.transport.send_to(rts.dest, me.cfg.ctrl_wire).await;
                    let peer = me.peer(rts.dest);
                    peer.handle_arrival(CtrlMsg::Fin { rts_id }).await;
                    rts.req.complete(MpiStatus {
                        len: n,
                        source: me.rank,
                        tag: rts.tag,
                    });
                });
            }
            CtrlMsg::Fin { rts_id } => {
                let fw = self
                    .fin_wait
                    .borrow_mut()
                    .remove(&rts_id)
                    .expect("FIN for unknown rendezvous");
                // The receiving process drove the transfer by polling its
                // completion queue (MPICH-over-verbs has no progression
                // thread); those cycles are real receiver overhead.
                self.cpu.account_busy(self.sim.now() - fw.cts_at);
                fw.req.complete(MpiStatus {
                    len: fw.len,
                    source: fw.from,
                    tag: fw.tag,
                });
            }
        }
    }
}

/// [`MpiRank`] wrapper around a host engine.
pub(crate) struct HostMpiRank<N: VerbsNic> {
    engine: Rc<HostEngine<N>>,
}

impl<N: VerbsNic> HostMpiRank<N> {
    /// Wrap an engine.
    pub fn new(engine: Rc<HostEngine<N>>) -> Self {
        HostMpiRank { engine }
    }
}

impl<N: VerbsNic> MpiRank for HostMpiRank<N> {
    fn rank(&self) -> usize {
        self.engine.rank
    }

    fn size(&self) -> usize {
        self.engine.size
    }

    fn cpu(&self) -> &Cpu {
        &self.engine.cpu
    }

    fn mem(&self) -> &HostMem {
        &self.engine.mem
    }

    fn alloc_buffer(&self, len: u64) -> VirtAddr {
        self.engine.mem.alloc_buffer(len)
    }

    fn isend(
        &self,
        dest: usize,
        tag: u32,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> LocalFuture<'_, MpiRequest> {
        Box::pin(async move { self.engine.isend(dest, tag, buf, len, payload).await })
    }

    fn irecv(&self, src: Source, tag: u32, buf: VirtAddr, len: u64) -> LocalFuture<'_, MpiRequest> {
        Box::pin(async move { self.engine.irecv(src, tag, buf, len).await })
    }

    fn probe_unexpected(&self, src: Source, tag: u32) -> bool {
        self.engine.probe_unexpected(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::ANY_TAG;
    use crate::world::iwarp_mpi_config;
    use hostmodel::cpu::CpuCosts;

    fn two_engines() -> (
        Sim,
        Rc<HostEngine<iwarp::RnicDevice>>,
        Rc<HostEngine<iwarp::RnicDevice>>,
    ) {
        let sim = Sim::new();
        let fab = iwarp::IwarpFabric::new(&sim, 2);
        let cfg = iwarp_mpi_config();
        let mk = |r: usize| HostEngine::new(&fab, r, Cpu::new(&sim, CpuCosts::default()), cfg);
        let e0 = mk(0);
        let e1 = mk(1);
        e0.set_peers(vec![Rc::downgrade(&e0), Rc::downgrade(&e1)]);
        e1.set_peers(vec![Rc::downgrade(&e0), Rc::downgrade(&e1)]);
        (sim, e0, e1)
    }

    #[test]
    fn unmatched_eager_parks_in_unexpected_queue() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e0 = Rc::clone(&e0);
            let e1 = Rc::clone(&e1);
            let sim = sim.clone();
            async move {
                let b = e0.mem.alloc_buffer(64);
                let req = e0.isend(1, 7, b, 16, None).await;
                req.wait().await; // eager completes locally
                sim.sleep(SimDuration::from_micros(100)).await;
                assert_eq!(e1.lists.depths(), (0, 1), "parked unexpected");
                assert!(e1.probe_unexpected(Source::Rank(0), 7));
                assert!(!e1.probe_unexpected(Source::Rank(0), 8));
            }
        });
    }

    #[test]
    fn posted_receive_waits_in_posted_queue() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e1 = Rc::clone(&e1);
            async move {
                let b = e1.mem.alloc_buffer(64);
                let _r = e1.irecv(Source::Rank(0), 3, b, 64).await;
                assert_eq!(e1.lists.depths(), (1, 0));
                let _ = e0;
            }
        });
    }

    #[test]
    fn matching_drains_both_queues() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e0 = Rc::clone(&e0);
            let e1 = Rc::clone(&e1);
            let sim = sim.clone();
            async move {
                let b0 = e0.mem.alloc_buffer(64);
                let b1 = e1.mem.alloc_buffer(64);
                // Unexpected first, then matched by a receive.
                e0.isend(1, 5, b0, 8, None).await.wait().await;
                sim.sleep(SimDuration::from_micros(100)).await;
                let r = e1.irecv(Source::Any, ANY_TAG, b1, 64).await;
                r.wait().await;
                assert_eq!(e1.lists.depths(), (0, 0), "both queues empty");
            }
        });
    }

    #[test]
    fn rendezvous_state_is_cleaned_up_after_fin() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e0 = Rc::clone(&e0);
            let e1 = Rc::clone(&e1);
            async move {
                let n = 128 * 1024u64;
                let b0 = e0.mem.alloc_buffer(n);
                let b1 = e1.mem.alloc_buffer(n);
                let r = e1.irecv(Source::Rank(0), 1, b1, n).await;
                let s = e0.isend(1, 1, b0, n, None).await;
                s.wait().await;
                r.wait().await;
                assert!(e0.rts_send.borrow().is_empty(), "sender RTS table");
                assert!(e1.fin_wait.borrow().is_empty(), "receiver FIN table");
            }
        });
    }

    #[test]
    fn eager_copy_is_cold_for_fresh_buffers_hot_for_reused() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e0 = Rc::clone(&e0);
            let e1 = Rc::clone(&e1);
            let sim = sim.clone();
            async move {
                let n = 4096u64;
                let b = e0.mem.alloc_buffer(n);
                // First use: cold copy.
                e0.cpu.reset_busy();
                e0.isend(1, 1, b, n, None).await.wait().await;
                let cold = e0.cpu.busy_time();
                // Second use of the same buffer: hot copy.
                e0.cpu.reset_busy();
                e0.isend(1, 2, b, n, None).await.wait().await;
                let hot = e0.cpu.busy_time();
                assert!(
                    cold.as_nanos() > hot.as_nanos() + 1000,
                    "cold {cold} must exceed hot {hot}"
                );
                // Drain the two parked messages.
                sim.sleep(SimDuration::from_micros(200)).await;
                let b1 = e1.mem.alloc_buffer(n);
                e1.irecv(Source::Any, ANY_TAG, b1, n).await.wait().await;
                e1.irecv(Source::Any, ANY_TAG, b1, n).await.wait().await;
            }
        });
    }

    #[test]
    fn any_source_matches_first_arrival_in_order() {
        let (sim, e0, e1) = two_engines();
        sim.block_on({
            let e0 = Rc::clone(&e0);
            let e1 = Rc::clone(&e1);
            let sim = sim.clone();
            async move {
                let b = e0.mem.alloc_buffer(64);
                e0.isend(1, 10, b, 4, Some(vec![10; 4])).await.wait().await;
                e0.isend(1, 20, b, 4, Some(vec![20; 4])).await.wait().await;
                sim.sleep(SimDuration::from_micros(100)).await;
                let b1 = e1.mem.alloc_buffer(64);
                let st = e1.irecv(Source::Any, ANY_TAG, b1, 64).await.wait().await;
                assert_eq!(st.tag, 10, "MPI ordering: first arrival matches first");
                let st = e1.irecv(Source::Any, ANY_TAG, b1, 64).await.wait().await;
                assert_eq!(st.tag, 20);
            }
        });
    }
}
