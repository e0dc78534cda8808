//! The MX endpoint API: `mx_isend` / `mx_irecv` / `mx_wait`, a thin front
//! end on the [`etherstack::matched`] engine.
//!
//! Semantics follow the MX-10G library: non-blocking matched send/receive
//! with 64-bit match bits and an internal eager→rendezvous switch at 32 KB.
//! What makes it MX is the engine's two knobs: [`Nic`] matching (the
//! Lanai walks the lists; the NIC reads send buffers and writes expected
//! eager data in place) and [`Thread`] progress (a host progression thread
//! registers the receive buffer and pulls the data over MX's resend path),
//! plus the [`MxLink`] every message crosses.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use etherstack::{
    transfer_reliable, Engine, Link, MatchInfo, Matcher, NicModel, Peer, Progress, Protocol,
    RecoveryStats, Request, Rndv,
};
use hostmodel::cpu::Cpu;
use hostmodel::mem::VirtAddr;
use simnet::sync::FifoGate;
use simnet::{Bytes, FaultPlane, Pipeline, Sim, SimDuration};

use crate::nic::{MxFabric, MxNic};

/// Wire bytes of a rendezvous RTS (a small control message).
const RTS_WIRE: Bytes = Bytes::new(32);

/// NIC-side matching: the RX Lanai walks the lists, the NIC reads the send
/// buffer itself and writes expected eager data in place, and only data
/// that waited unexpected in the host ring is copied by the process.
pub struct Nic(Rc<MxNic>);

impl Matcher for Nic {
    async fn enter(&self, cpu: &Cpu, _send: bool) {
        cpu.work(self.0.calib.post_cost).await;
    }

    async fn copy_out(&self, _cpu: &Cpu, _buf: VirtAddr, _len: u64) -> bool {
        false
    }

    fn copy_in(
        &self,
        cpu: &Cpu,
        _buf: VirtAddr,
        n: u64,
        expected: bool,
    ) -> impl Future<Output = ()> {
        // Unexpected data was parked in the host ring: the process copies
        // it out. Expected data is already in place.
        cpu.memcpy(Bytes::new(if expected { 0 } else { n }))
    }

    fn arrive<T>(
        &self,
        _cpu: &Cpu,
        gate: &FifoGate,
        scan: impl FnOnce() -> (usize, T),
    ) -> impl Future<Output = T> {
        // The match unit takes messages in order, and walks after parking.
        let (walked, hit) = scan();
        gate.leave();
        async move {
            let per_entry = self.0.calib.nic_match_posted_per_entry;
            self.0.match_walk(walked, per_entry).await;
            hit
        }
    }

    async fn walk_unexpected(&self, _cpu: &Cpu, walked: usize) {
        let per_entry = self.0.calib.nic_match_unexpected_per_entry;
        self.0.match_walk(walked, per_entry).await;
    }
}

/// Progression-thread rendezvous: the receiver's MX progression thread (a
/// second core of the SMP hosts) wakes, pins the receive buffer through
/// the cache, sends CTS (folded into its wakeup cost), and the sender NIC
/// streams the data. The receiving process spends nothing, which is why MX
/// shows no receiver-overhead jump at the protocol switch.
pub struct Thread {
    cpu: Cpu,
    wakeup: SimDuration,
}

impl Progress for Thread {
    type Link = MxLink;

    fn rendezvous<M: Matcher>(
        to: &Rc<Engine<M, Self>>,
        rndv: Rndv<Self>,
    ) -> impl Future<Output = ()> {
        to.sim().spawn_detached(pull(Rc::clone(to), rndv));
        std::future::ready(())
    }
}

/// The progression thread's pull of one rendezvous into `to`.
#[expect(
    clippy::manual_async_fn,
    reason = "a named future, so the footprint test can size it"
)]
fn pull<M: Matcher>(to: Rc<Engine<M, Thread>>, mut rndv: Rndv<Thread>) -> impl Future<Output = ()> {
    async move {
        let thread = to.progress();
        thread.cpu.work(thread.wakeup).await;
        let (raddr, n) = (rndv.raddr, rndv.n);
        to.registry().register_cached(&thread.cpu, raddr, n).await;
        // The pull resends like any MX traffic; a duplicate rewrites the
        // same bytes, so it needs no dedup.
        rndv.link.transfer(Bytes::new(n)).await;
        if let Some(data) = rndv.payload.take() {
            to.mem().write(raddr, &data);
        }
        rndv.finish();
    }
}

/// One direction of an MX connection: the NIC-to-NIC data path under the
/// firmware resend, and the in-order matching gate (the MX guarantee).
pub struct MxLink {
    sim: Sim,
    /// local → peer.
    path: Pipeline,
    pkt_overhead: Bytes,
    /// Packet payload of the active link mode (resend granularity).
    pkt: Bytes,
    order: FifoGate,
    /// Connection id: `(src_node << 32) | dst_node`. Keys the fault plane's
    /// per-connection decision counter and tags conformance reports.
    conn_id: u64,
    /// Fault plane captured from the fabric at connect time.
    fault: FaultPlane,
    /// ACK-loss replays the receiving NIC dropped: each arrives behind the
    /// message it repeats, which has already matched.
    duplicates: Cell<u64>,
    /// Conformance oracle: messages from one source match in send order
    /// (rule `mx.match-order`).
    match_check: RefCell<simcheck::mx::MatchOrderOracle>,
}

impl MxLink {
    /// Move `bytes` to the peer NIC under MX's firmware resend. With the
    /// fault plane disabled this is [`Pipeline::transfer`].
    fn transfer(&self, bytes: Bytes) -> impl Future<Output = RecoveryStats> + '_ {
        transfer_reliable(
            &self.sim,
            &self.fault,
            &self.path,
            self.conn_id,
            bytes,
            self.pkt,
            self.pkt_overhead,
            &MxNic::LOSS_RECOVERY,
        )
    }

    /// ACK-loss replays dropped at the receiver so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates.get()
    }
}

impl Link for MxLink {
    fn order(&self) -> &FifoGate {
        &self.order
    }

    async fn carry(&self, bytes: Bytes) {
        let rs = self.transfer(bytes).await;
        self.duplicates.set(self.duplicates.get() + rs.duplicates);
    }

    fn switched(&self, len: u64, threshold: Bytes, eager: bool) {
        let now = Some(self.sim.now().as_nanos());
        let _ = simcheck::mx::check_rndv_switch(len, threshold.get(), eager, self.conn_id, now);
    }

    fn admitted(&self, ticket: u64) {
        let now = Some(self.sim.now().as_nanos());
        let _ = self.match_check.borrow_mut().observe_match(ticket, now);
    }
}

/// Address of a connected peer endpoint (`mx_endpoint_addr_t`).
pub type MxAddr = Peer<Nic, Thread>;

/// An open MX endpoint bound to one process.
pub struct MxEndpoint {
    engine: Rc<Engine<Nic, Thread>>,
}

impl MxEndpoint {
    /// Open an endpoint on `node`, bound to the calling process `cpu`.
    pub fn open(fab: &MxFabric, node: usize, cpu: &Cpu) -> MxEndpoint {
        let nic = fab.device(node);
        let thread = Thread {
            cpu: Cpu::new(fab.sim(), cpu.costs()),
            wakeup: nic.calib.progression_wakeup,
        };
        let proto = Protocol {
            rndv_threshold: nic.calib.rndv_threshold,
            eager_header: Bytes::ZERO,
            rts_wire: RTS_WIRE,
        };
        let engine = Engine::new(cpu, &*nic, proto, Nic(Rc::clone(&nic)), thread);
        MxEndpoint { engine }
    }

    /// Resolve a peer endpoint into a sendable address (`mx_connect`).
    pub fn connect(&self, fab: &MxFabric, peer: &MxEndpoint) -> MxAddr {
        let (src, dst) = (self.nic().node, peer.nic().node);
        let conn_id = ((src as u64) << 32) | dst as u64;
        let link = MxLink {
            sim: fab.sim().clone(),
            path: fab.data_path(src, dst),
            pkt_overhead: fab.per_segment_overhead(),
            pkt: fab.segment_payload(),
            order: FifoGate::new(),
            conn_id,
            fault: fab.fault_plane(),
            duplicates: Cell::new(0),
            match_check: RefCell::new(simcheck::mx::MatchOrderOracle::new(conn_id)),
        };
        Peer::new(&peer.engine, link)
    }

    /// The owning process CPU.
    pub fn cpu(&self) -> &Cpu {
        self.engine.cpu()
    }

    /// The NIC under this endpoint.
    pub fn nic(&self) -> &Rc<MxNic> {
        &self.engine.matcher().0
    }

    /// The matched-message engine under this endpoint.
    pub fn engine(&self) -> &Rc<Engine<Nic, Thread>> {
        &self.engine
    }

    /// Non-blocking matched send (`mx_isend`) of `len` bytes from the
    /// user buffer at `buf`.
    pub fn isend<'a>(
        &'a self,
        dest: &'a MxAddr,
        bits: MatchInfo,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> impl Future<Output = Request> + 'a {
        self.engine.isend(dest, bits, buf, len, payload)
    }

    /// Non-blocking matched receive (`mx_irecv`).
    pub fn irecv(
        &self,
        bits: MatchInfo,
        mask: u64,
        addr: VirtAddr,
        len: u64,
    ) -> impl Future<Output = Request> + '_ {
        self.engine.irecv(bits, mask, addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::MyriCalib;
    use crate::nic::LinkMode;
    use hostmodel::cpu::CpuCosts;
    use simnet::sync::join2;

    fn setup(mode: LinkMode) -> (Sim, MxFabric, MxEndpoint, MxEndpoint) {
        let sim = Sim::new();
        let fab = MxFabric::new(&sim, 2, mode);
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        let ea = MxEndpoint::open(&fab, 0, &cpu_a);
        let eb = MxEndpoint::open(&fab, 1, &cpu_b);
        (sim, fab, ea, eb)
    }

    #[test]
    fn mxom_pingpong_half_rtt_matches_paper() {
        // Paper anchors: 3.05 µs (MXoM), 3.45 µs (MXoE).
        for (mode, want) in [(LinkMode::MxoM, 3.05), (LinkMode::MxoE, 3.45)] {
            let (sim, fab, ea, eb) = setup(mode);
            let t = sim.block_on(async move {
                let addr_b = ea.connect(&fab, &eb);
                let addr_a = eb.connect(&fab, &ea);
                let buf_a = ea.nic().mem.alloc_buffer(64);
                let buf_b = eb.nic().mem.alloc_buffer(64);
                let iters = 50u64;
                let sim2 = fab.sim().clone();
                let t0 = sim2.now();
                let tag = MatchInfo::mpi(0, 0, 1);
                let ping = async {
                    for _ in 0..iters {
                        let s = ea.isend(&addr_b, tag, buf_a, 4, None).await;
                        let r = ea.irecv(tag, MatchInfo::EXACT, buf_a, 64).await;
                        s.wait().await;
                        r.wait().await;
                    }
                };
                let pong = async {
                    for _ in 0..iters {
                        let r = eb.irecv(tag, MatchInfo::EXACT, buf_b, 64).await;
                        r.wait().await;
                        let s = eb.isend(&addr_a, tag, buf_b, 4, None).await;
                        s.wait().await;
                    }
                };
                join2(ping, pong).await;
                (sim2.now() - t0).as_micros_f64() / (2.0 * iters as f64)
            });
            assert!(
                (t - want).abs() < 0.25,
                "{mode:?} half-RTT {t:.2} µs, paper says {want}"
            );
        }
    }

    #[test]
    fn eager_sends_complete_exactly_once_under_loss() {
        // 2% loss: every message still arrives exactly once; ACK-loss
        // replays are dropped at the receiving NIC and counted.
        let run_once = || {
            let sim = Sim::new();
            let fab = MxFabric::new(&sim, 2, LinkMode::MxoM);
            fab.set_fault_plane(simnet::FaultPlane::new(simnet::FaultConfig::loss(
                20_000, 77,
            )));
            let cpu_a = Cpu::new(&sim, CpuCosts::default());
            let cpu_b = Cpu::new(&sim, CpuCosts::default());
            let ea = MxEndpoint::open(&fab, 0, &cpu_a);
            let eb = MxEndpoint::open(&fab, 1, &cpu_b);
            let (elapsed, drops, stats) = sim.block_on({
                let sim2 = sim.clone();
                async move {
                    let addr_b = Rc::new(ea.connect(&fab, &eb));
                    let rbuf = eb.nic().mem.alloc_buffer(256);
                    for i in 0..60u32 {
                        let tag = MatchInfo::mpi(0, 0, i);
                        let r = eb.irecv(tag, MatchInfo::EXACT, rbuf, 256).await;
                        let s = ea
                            .isend(
                                &addr_b,
                                tag,
                                ea.nic().mem.alloc_buffer(64),
                                5,
                                Some(b"lanai".to_vec()),
                            )
                            .await;
                        let st = r.wait().await;
                        assert_eq!(st.len, 5, "message {i} truncated");
                        s.wait().await;
                        assert_eq!(eb.nic().mem.read(rbuf, 5), b"lanai");
                    }
                    assert_eq!(eb.engine().depths(), (0, 0));
                    let drops = addr_b.link().duplicates();
                    (sim2.now().as_nanos(), drops, sim2.stats())
                }
            });
            assert!(stats.faults_injected > 0, "2% over 120 judges hit none");
            (elapsed, drops, stats.faults_injected, stats.retransmits)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "lossy MX run must be deterministic");
    }

    #[test]
    fn ack_loss_replays_are_filtered_by_the_matching_layer() {
        // 20% loss makes ACK drops near-certain over 20 messages; each one
        // replays a message the receiver already matched, and the receiver
        // must drop it (the exactly-once checks above would fail or the
        // posted queue would underflow otherwise).
        let sim = Sim::new();
        let fab = MxFabric::new(&sim, 2, LinkMode::MxoM);
        fab.set_fault_plane(simnet::FaultPlane::new(simnet::FaultConfig::loss(
            200_000, 9,
        )));
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        let ea = MxEndpoint::open(&fab, 0, &cpu_a);
        let eb = MxEndpoint::open(&fab, 1, &cpu_b);
        let drops = sim.block_on(async move {
            let addr_b = Rc::new(ea.connect(&fab, &eb));
            let rbuf = eb.nic().mem.alloc_buffer(64);
            for i in 0..20u32 {
                let tag = MatchInfo::mpi(0, 0, i);
                let r = eb.irecv(tag, MatchInfo::EXACT, rbuf, 64).await;
                let s = ea
                    .isend(
                        &addr_b,
                        tag,
                        ea.nic().mem.alloc_buffer(16),
                        4,
                        Some(b"once".to_vec()),
                    )
                    .await;
                assert_eq!(r.wait().await.len, 4);
                s.wait().await;
            }
            assert_eq!(eb.engine().depths(), (0, 0));
            let drops = addr_b.link().duplicates();
            drops
        });
        assert!(drops > 0, "no ACK loss replay reached the receiver");
    }

    #[test]
    fn posted_queue_walk_is_charged_per_entry() {
        // Pre-post many non-matching receives; the matching one at the back
        // costs a longer NIC walk — the Fig. 8 mechanism.
        let (sim, fab, ea, eb) = setup(LinkMode::MxoM);
        let (t_short, t_long) = sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let sim2 = fab.sim().clone();
            let buf = eb.nic().mem.alloc_buffer(64);
            // Short queue.
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 5), MatchInfo::EXACT, buf, 64)
                .await;
            let t0 = sim2.now();
            ea.isend(&addr_b, MatchInfo::mpi(0, 0, 5), buf, 4, None)
                .await;
            r.wait().await;
            let t_short = sim2.now() - t0;
            // Long queue: 200 decoys in front.
            for i in 0..200u32 {
                eb.irecv(MatchInfo::mpi(1, 0, i), MatchInfo::EXACT, buf, 64)
                    .await;
            }
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 6), MatchInfo::EXACT, buf, 64)
                .await;
            let t0 = sim2.now();
            ea.isend(&addr_b, MatchInfo::mpi(0, 0, 6), buf, 4, None)
                .await;
            r.wait().await;
            (t_short, sim2.now() - t0)
        });
        let per_entry = MyriCalib::default().nic_match_posted_per_entry;
        let delta = (t_long - t_short).as_nanos() as i64;
        let want = (per_entry.as_nanos() * 200) as i64;
        assert!(
            (delta - want).abs() <= want / 5 + 100,
            "queue walk delta {delta} ns, want ≈ {want} ns"
        );
    }

    #[test]
    fn a_pull_holds_no_more_than_before() {
        fn returned<A, B, R>(_: fn(A, B) -> R) -> usize {
            std::mem::size_of::<R>()
        }
        // The progression thread's task per rendezvous: 232 B. The bound
        // is the size of the task it replaced.
        let size = returned(pull::<Nic>);
        assert!(size <= 352, "pull task {size} B > 352 B");
    }
}
