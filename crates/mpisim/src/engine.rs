//! The MPI library over every fabric: one [`MpiRank`] on the
//! [`etherstack::matched`] engine, and the engine's two knobs for MPICH
//! over verbs.
//!
//! The engine is the MPI protocol stated once; the fabric picks its knobs
//! ([`crate::world::FabricKind::nic`]):
//!
//! * over iWARP and InfiniBand, [`Host`] matching and [`Caller`] progress:
//!   the library keeps both queues in host memory and walks them with host
//!   CPU cycles (the per-entry costs of Figs. 7 and 8); eager data is copied
//!   through pre-registered bounce buffers, hot or cold depending on buffer
//!   reuse (the eager range of Fig. 6); a rendezvous is RTS → receive-side
//!   registration through the pin-down cache → CTS (carrying the rkey) →
//!   RDMA Write → FIN, driven by the receiving process, which spin-polls its
//!   completion queue meanwhile (the o_r jump of the LogP figure);
//! * over MX, `mx10g`'s NIC matching and progression-thread rendezvous,
//!   under a thin MPICH-MX glue cost.

use std::cell::RefCell;
use std::future::Future;
use std::marker::PhantomData;
use std::rc::Rc;

use etherstack::{Engine, Lane, Link, MatchInfo, Matcher, Peer, Progress, Request, Rndv, VerbsNic};
use hostmodel::cpu::Cpu;
use hostmodel::lru::LruCache;
use hostmodel::mem::{HostMem, MemKey, VirtAddr};
use simnet::sync::FifoGate;
use simnet::{Bytes, SimDuration, SimTime};

use crate::rank::{LocalFuture, MpiRank, Source, ANY_TAG};

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

/// MPI context id used for all point-to-point traffic.
const CONTEXT: u16 = 1;

/// The match bits and mask a receive for `(src, tag)` posts.
fn recv_bits(src: Source, tag: u32) -> (MatchInfo, u64) {
    let (src_bits, mut mask) = match src {
        Source::Rank(r) => (r as u16, MatchInfo::EXACT),
        Source::Any => (0, MatchInfo::ANY_RANK_MASK),
    };
    let tag_bits = if tag == ANY_TAG {
        mask &= MatchInfo::ANY_TAG_MASK;
        0
    } else {
        tag
    };
    (MatchInfo::mpi(CONTEXT, src_bits, tag_bits), mask)
}

/// One MPI process: its engine and its connection to every other rank.
pub(crate) struct Rank<M: Matcher, P: Progress> {
    pub(crate) engine: Rc<Engine<M, P>>,
    /// Slot `i` holds the connection to rank `i`; the own slot is empty.
    pub(crate) peers: Vec<Option<Peer<M, P>>>,
    pub(crate) rank: usize,
    /// MPI glue cost per call above the engine's own library entry.
    pub(crate) glue: SimDuration,
}

impl<M: Matcher, P: Progress> MpiRank for Rank<M, P> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn cpu(&self) -> &Cpu {
        self.engine.cpu()
    }

    fn mem(&self) -> &HostMem {
        self.engine.mem()
    }

    fn alloc_buffer(&self, len: u64) -> VirtAddr {
        self.engine.mem().alloc_buffer(len)
    }

    fn isend(
        &self,
        dest: usize,
        tag: u32,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> LocalFuture<'_, Request> {
        Box::pin(async move {
            self.engine.cpu().work(self.glue).await;
            let to = self.peers[dest]
                .as_ref()
                .expect("no connection to this rank");
            let bits = MatchInfo::mpi(CONTEXT, self.rank as u16, tag);
            self.engine.isend(to, bits, buf, len, payload).await
        })
    }

    fn irecv(&self, src: Source, tag: u32, buf: VirtAddr, len: u64) -> LocalFuture<'_, Request> {
        Box::pin(async move {
            self.engine.cpu().work(self.glue).await;
            let (bits, mask) = recv_bits(src, tag);
            self.engine.irecv(bits, mask, buf, len).await
        })
    }

    fn probe_unexpected(&self, src: Source, tag: u32) -> bool {
        let (bits, mask) = recv_bits(src, tag);
        self.engine.probe_unexpected(bits, mask)
    }
}

/// Host matching (MPICH over verbs): the library walks its queues with
/// the process's CPU and copies eager data through bounce buffers.
pub(crate) struct Host {
    cfg: MpiConfig,
    /// Buffers recently copied, so cache-hot.
    hot_bufs: RefCell<LruCache<u64, ()>>,
}

impl Host {
    pub(crate) fn new(cfg: MpiConfig) -> Self {
        Host {
            cfg,
            hot_bufs: RefCell::new(LruCache::new(cfg.hot_buffers.max(1))),
        }
    }

    /// Copy `len` bytes of `buf` through the CPU, hot or cold depending on
    /// whether the buffer was recently used.
    fn copy<'a>(&self, cpu: &'a Cpu, buf: VirtAddr, len: u64) -> impl Future<Output = ()> + 'a {
        let mut hot_bufs = self.hot_bufs.borrow_mut();
        let hot = hot_bufs.get(&buf.0).is_some();
        if !hot {
            hot_bufs.insert(buf.0, ());
        }
        let costs = cpu.costs();
        let rate = if hot {
            costs.memcpy_bytes_per_sec
        } else {
            costs.memcpy_cold_bytes_per_sec
        };
        cpu.work(Bytes::new(len) / rate)
    }
}

impl Matcher for Host {
    async fn enter(&self, cpu: &Cpu, send: bool) {
        cpu.call().await;
        if send {
            cpu.work(self.cfg.send_sw).await;
        }
    }

    async fn copy_out(&self, cpu: &Cpu, buf: VirtAddr, len: u64) -> bool {
        // Into the pre-registered bounce buffer: the user buffer is
        // reusable at once, so the send completes locally.
        self.copy(cpu, buf, len).await;
        true
    }

    fn copy_in(
        &self,
        cpu: &Cpu,
        buf: VirtAddr,
        n: u64,
        _expected: bool,
    ) -> impl Future<Output = ()> {
        self.copy(cpu, buf, n)
    }

    #[expect(
        clippy::manual_async_fn,
        reason = "the async block keeps `scan` once; an async fn would copy it"
    )]
    fn arrive<T>(
        &self,
        cpu: &Cpu,
        gate: &FifoGate,
        scan: impl FnOnce() -> (usize, T),
    ) -> impl Future<Output = T> {
        async move {
            // The connection delivered in order; the progress engine then
            // runs on the receiving CPU at arrival, as a polling MPI
            // library does.
            gate.leave();
            cpu.work(self.cfg.recv_sw).await;
            let (walked, hit) = scan();
            cpu.work(self.cfg.posted_per_entry * walked as u64).await;
            hit
        }
    }

    async fn walk_unexpected(&self, cpu: &Cpu, walked: usize) {
        cpu.work(self.cfg.unexpected_per_entry * walked as u64)
            .await;
    }
}

/// Caller-driven rendezvous (MPICH over verbs has no progression thread):
/// the receiver registers its buffer and sends CTS, the sender's progress
/// engine answers with an RDMA Write and a FIN, and the receiving process
/// spin-polls its CQ from CTS to FIN.
pub(crate) struct Caller<N> {
    pub(crate) cfg: MpiConfig,
    pub(crate) nic: PhantomData<fn() -> N>,
}

/// One direction of a verbs connection between two ranks: the lanes both
/// ways (the QP pair) and the sending process's CPU, which posts.
pub(crate) struct Lanes<N: VerbsNic> {
    pub(crate) tx: Rc<Lane<N>>,
    pub(crate) rx: Rc<Lane<N>>,
    pub(crate) cpu: Cpu,
}

/// Post a `bytes`-long two-sided message on `lane` from `cpu`; completes
/// at its in-order arrival. The ticket is taken at the call.
fn send_on<'a, N: VerbsNic>(
    lane: &'a Lane<N>,
    cpu: &'a Cpu,
    bytes: Bytes,
) -> impl Future<Output = ()> + 'a {
    let ticket = lane.order.ticket();
    async move {
        cpu.work(lane.src.post_cost()).await;
        lane.carry(bytes).await;
        lane.order.enter(ticket).await;
        lane.order.leave();
    }
}

impl<N: VerbsNic> Link for Lanes<N> {
    fn order(&self) -> &FifoGate {
        &self.tx.order
    }

    async fn carry(&self, bytes: Bytes) {
        self.cpu.work(self.tx.src.post_cost()).await;
        self.tx.carry(bytes).await;
    }
}

impl<N: VerbsNic> Progress for Caller<N> {
    type Link = Lanes<N>;

    async fn rendezvous<M: Matcher>(to: &Rc<Engine<M, Self>>, rndv: Rndv<Self>) {
        let key = to
            .registry()
            .register_cached(to.cpu(), rndv.raddr, rndv.n)
            .await
            .key;
        let granted = Granted {
            to: Rc::clone(to),
            rndv,
            key,
            cts_at: to.sim().now(),
        };
        to.sim().spawn_detached(cts(granted));
    }
}

/// A rendezvous whose receive buffer is registered: what its CTS and the
/// sender's write carry.
struct Granted<M: Matcher, N: VerbsNic> {
    to: Rc<Engine<M, Caller<N>>>,
    rndv: Rndv<Caller<N>>,
    key: MemKey,
    /// When the CTS went out: the receiving process spin-polls its CQ from
    /// here until FIN.
    cts_at: SimTime,
}

/// The receiver's CTS, which the sender's progress engine takes and
/// answers by starting the write.
#[expect(
    clippy::manual_async_fn,
    reason = "a named future, so the footprint test can size it"
)]
fn cts<M: Matcher, N: VerbsNic>(g: Granted<M, N>) -> impl Future<Output = ()> {
    async move {
        let cfg = g.to.progress().cfg;
        send_on(&g.rndv.link.rx, g.to.cpu(), cfg.ctrl_wire).await;
        g.rndv.link.cpu.work(cfg.recv_sw).await;
        g.to.sim().clone().spawn_detached(write_and_fin(g));
    }
}

/// The sender's RDMA Write and FIN; the receiving process takes the FIN.
#[expect(
    clippy::manual_async_fn,
    reason = "a named future, so the footprint test can size it"
)]
fn write_and_fin<M: Matcher, N: VerbsNic>(mut g: Granted<M, N>) -> impl Future<Output = ()> {
    async move {
        let cfg = g.to.progress().cfg;
        let lanes = Rc::clone(&g.rndv.link);
        lanes.cpu.work(lanes.tx.src.post_cost()).await;
        lanes.tx.carry(Bytes::new(g.rndv.n)).await;
        let payload = g.rndv.payload.take();
        let ok = lanes.tx.place(g.key, g.rndv.raddr, g.rndv.n, payload);
        debug_assert!(ok, "rendezvous write faulted");
        send_on(&lanes.tx, &lanes.cpu, cfg.ctrl_wire).await;
        // The receiving process polled its CQ from CTS to FIN, and those
        // cycles are real receiver overhead.
        g.to.cpu().work(cfg.recv_sw).await;
        g.to.cpu().account_busy(g.to.sim().now() - g.cts_at);
        g.rndv.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{iwarp_mpi_config, mx_ranks, verbs_ranks};
    use simnet::Sim;

    /// Ranks 0 and 1 of `ranks`.
    fn two<R>(ranks: Vec<R>) -> [Rc<R>; 2] {
        let mut ranks = ranks.into_iter().map(Rc::new);
        [ranks.next().unwrap(), ranks.next().unwrap()]
    }

    /// Run `body` once per placement the fabrics pick: host matching with
    /// caller progress (iWARP), NIC matching with a progression thread
    /// (MXoM).
    macro_rules! each_placement {
        (|$sim:ident, $r0:ident, $r1:ident| $body:block) => {{
            let sim = Sim::new();
            let fab = iwarp::IwarpFabric::new(&sim, 2);
            let [$r0, $r1] = two(verbs_ranks(&fab, iwarp_mpi_config()));
            let $sim = sim.clone();
            sim.block_on(async move $body);
            let sim = Sim::new();
            let [$r0, $r1] = two(mx_ranks(&mx10g::MxFabric::new(&sim, 2, mx10g::LinkMode::MxoM)));
            let $sim = sim.clone();
            sim.block_on(async move $body);
        }};
    }

    #[test]
    fn unmatched_eager_parks_in_unexpected_queue() {
        each_placement!(|sim, r0, r1| {
            let b = r0.alloc_buffer(64);
            r0.isend(1, 7, b, 16, None).await.wait().await;
            sim.sleep(SimDuration::from_micros(100)).await;
            assert_eq!(r1.engine.depths(), (0, 1), "parked unexpected");
            assert!(r1.probe_unexpected(Source::Rank(0), 7));
            assert!(!r1.probe_unexpected(Source::Rank(0), 8));
            // A receive for another tag does not take it; the right tag does.
            let rb = r1.alloc_buffer(64);
            let other = r1.irecv(Source::Rank(0), 8, rb, 64).await;
            assert!(other.test().is_none());
            assert_eq!(r1.engine.depths(), (1, 1));
            let st = r1.irecv(Source::Rank(0), 7, rb, 64).await.wait().await;
            assert_eq!(st.len, 16);
            assert_eq!(r1.engine.depths(), (1, 0));
        });
    }

    #[test]
    fn posted_receive_waits_in_posted_queue() {
        each_placement!(|_sim, _r0, r1| {
            let b = r1.alloc_buffer(64);
            let r = r1.irecv(Source::Rank(0), 3, b, 64).await;
            assert!(r.test().is_none());
            assert_eq!(r1.engine.depths(), (1, 0));
        });
    }

    #[test]
    fn matching_drains_both_queues() {
        each_placement!(|sim, r0, r1| {
            let (b0, b1) = (r0.alloc_buffer(64), r1.alloc_buffer(64));
            // Unexpected first, then matched by a receive.
            r0.isend(1, 5, b0, 8, None).await.wait().await;
            sim.sleep(SimDuration::from_micros(100)).await;
            r1.irecv(Source::Any, ANY_TAG, b1, 64).await.wait().await;
            // Posted first, then matched by an arrival.
            let r = r1.irecv(Source::Rank(0), 6, b1, 64).await;
            r0.isend(1, 6, b0, 8, None).await.wait().await;
            r.wait().await;
            assert_eq!(r1.engine.depths(), (0, 0), "both queues empty");
        });
    }

    #[test]
    fn rendezvous_state_is_cleaned_up_after_fin() {
        each_placement!(|sim, r0, r1| {
            let n = 128 * 1024u64;
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let (b0, b1) = (r0.alloc_buffer(n), r1.alloc_buffer(n));
            let s = r0.isend(1, 1, b0, n, Some(data.clone())).await;
            sim.sleep(SimDuration::from_micros(100)).await;
            // The RTS waits for a receive, holding the sender's link.
            let link = r0.peers[1].as_ref().unwrap().link();
            assert!(s.test().is_none(), "no receive yet");
            assert_eq!(Rc::strong_count(link), 2);
            let r = r1.irecv(Source::Rank(0), 1, b1, n).await;
            let (ss, rs) = (s.wait().await, r.wait().await);
            assert_eq!((ss.len, rs.len), (n, n));
            assert_eq!(r1.mem().read(b1, n), data);
            assert_eq!(Rc::strong_count(link), 1, "rendezvous state dropped");
            assert_eq!(r1.engine.depths(), (0, 0));
        });
    }

    #[test]
    fn a_short_receive_truncates_the_message() {
        each_placement!(|_sim, r0, r1| {
            for len in [64u64, 128 * 1024] {
                let (b0, b1) = (r0.alloc_buffer(len), r1.alloc_buffer(len));
                let half = (len / 2) as usize;
                let r = r1.irecv(Source::Rank(0), 4, b1, len / 2).await;
                let payload = Some(vec![0xAB; len as usize]);
                r0.isend(1, 4, b0, len, payload).await.wait().await;
                assert_eq!(r.wait().await.len, len / 2);
                let got = r1.mem().read(b1, len);
                assert!(got[..half].iter().all(|&b| b == 0xAB));
                assert!(
                    got[half..].iter().all(|&b| b == 0),
                    "{len} B: wrote past the receive"
                );
            }
        });
    }

    #[test]
    fn any_source_matches_first_arrival_in_order() {
        each_placement!(|sim, r0, r1| {
            let b = r0.alloc_buffer(64);
            r0.isend(1, 10, b, 4, Some(vec![10; 4])).await.wait().await;
            r0.isend(1, 20, b, 4, Some(vec![20; 4])).await.wait().await;
            sim.sleep(SimDuration::from_micros(100)).await;
            let b1 = r1.alloc_buffer(64);
            for tag in [10, 20] {
                // MPI ordering: the first arrival matches first.
                let st = r1.irecv(Source::Any, ANY_TAG, b1, 64).await.wait().await;
                assert_eq!((st.bits.tag(), st.bits.rank(), st.len), (tag, 0, 4));
                assert_eq!(r1.mem().read(b1, 4), vec![tag as u8; 4]);
            }
        });
    }

    #[test]
    fn eager_copy_is_cold_for_fresh_buffers_hot_for_reused() {
        let sim = Sim::new();
        let [r0, r1] = two(verbs_ranks(
            &iwarp::IwarpFabric::new(&sim, 2),
            iwarp_mpi_config(),
        ));
        sim.block_on({
            let sim = sim.clone();
            async move {
                let n = 4096u64;
                let b = r0.alloc_buffer(n);
                // First use: cold copy.
                r0.cpu().reset_busy();
                r0.isend(1, 1, b, n, None).await.wait().await;
                let cold = r0.cpu().busy_time();
                // Second use of the same buffer: hot copy.
                r0.cpu().reset_busy();
                r0.isend(1, 2, b, n, None).await.wait().await;
                let hot = r0.cpu().busy_time();
                assert!(
                    cold.as_nanos() > hot.as_nanos() + 1000,
                    "cold {cold} must exceed hot {hot}"
                );
                // Drain the two parked messages.
                sim.sleep(SimDuration::from_micros(200)).await;
                let b1 = r1.alloc_buffer(n);
                r1.irecv(Source::Any, ANY_TAG, b1, n).await.wait().await;
                r1.irecv(Source::Any, ANY_TAG, b1, n).await.wait().await;
            }
        });
    }

    /// Bytes of the future `f` returns.
    fn returned<A, R>(_: fn(A) -> R) -> usize {
        std::mem::size_of::<R>()
    }

    #[test]
    fn a_message_in_flight_holds_no_more_than_before() {
        use infiniband::HcaDevice;
        use iwarp::RnicDevice;
        // Thousands of these tasks are alive at once in fig4's windows, so
        // their size is the per-message host footprint. Each bound is the
        // size of the task it replaced; the comment gives today's size.
        let tasks = [
            // 376 B (552 B with the rendezvous hand-off inline); the host
            // engine's send task, which ran the arrival too.
            (
                "iWARP envelope",
                Engine::<Host, Caller<RnicDevice>>::message_footprint(),
                696,
            ),
            (
                "IB envelope",
                Engine::<Host, Caller<HcaDevice>>::message_footprint(),
                696,
            ),
            // 352 B; MX's eager and RTS tasks.
            (
                "MX envelope",
                Engine::<mx10g::Nic, mx10g::Thread>::message_footprint(),
                392,
            ),
            // 336 B each.
            ("CTS", returned(cts::<Host, RnicDevice>), 672),
            (
                "write + FIN",
                returned(write_and_fin::<Host, RnicDevice>),
                704,
            ),
        ];
        // A receive's future lives in its caller until the receive is
        // posted, or matched if its message was waiting: 256 B, 480 B with
        // the rendezvous hand-off inline.
        let sim = Sim::new();
        let fab = iwarp::IwarpFabric::new(&sim, 2);
        let [r, _] = two(verbs_ranks(&fab, iwarp_mpi_config()));
        let (bits, mask) = recv_bits(Source::Any, ANY_TAG);
        let irecv = std::mem::size_of_val(&r.engine.irecv(bits, mask, r.alloc_buffer(64), 64));
        for (task, size, bound) in tasks.into_iter().chain([("verbs irecv", irecv, 360)]) {
            assert!(size <= bound, "{task} task {size} B > {bound} B");
        }
    }
}
