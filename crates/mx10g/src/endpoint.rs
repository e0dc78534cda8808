//! The MX endpoint API: `mx_isend` / `mx_irecv` / `mx_wait`.
//!
//! Semantics follow the MX-10G library: non-blocking matched send/receive
//! with 64-bit match bits, an internal eager→rendezvous switch at 32 KB,
//! NIC-side matching, an internal registration cache, and a host
//! progression thread that starts large transfers on the receive side.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use etherstack::{transfer_reliable, NicModel, RecoveryStats};
use hostmodel::cpu::Cpu;
use hostmodel::mem::VirtAddr;
use hostmodel::nic::MatchLists;
use simnet::sync::{FifoGate, Notify};
use simnet::{Bytes, FaultPlane, Pipeline, Sim};

use crate::matching::{matches, MatchInfo, ReplayFilter};
use crate::nic::{MxFabric, MxNic};

/// Completion status of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MxStatus {
    /// Bytes transferred.
    pub len: u64,
    /// Match bits of the message that satisfied this request (receives
    /// report the sender's bits — how MPI recovers `MPI_ANY_SOURCE`).
    pub bits: MatchInfo,
}

/// Lifecycle phases of one MX send, from matching through protocol
/// selection to completion. [`fsm_next`] is the one statement of which
/// transitions exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MxSendPhase {
    /// Posted; the eager/rendezvous switch has not yet chosen a protocol.
    Matching,
    /// Eager: the payload travels with the envelope.
    EagerData,
    /// Rendezvous: RTS announced, waiting for the receiver's CTS.
    RndvHandshake,
    /// Rendezvous: CTS arrived, the sender NIC streams the bulk data.
    RndvData,
    /// The send request completed.
    Complete,
}

/// Events driving [`MxSendPhase`] through [`fsm_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MxSendEvent {
    /// The switch chose eager (`len < rndv_threshold`).
    SelectEager,
    /// The switch chose rendezvous.
    SelectRndv,
    /// The receiver matched the RTS and its CTS reached the sender.
    CtsArrived,
    /// The payload (eager or pulled) finished delivering.
    DataDelivered,
}

/// MX send transition function: `None` means the event cannot occur in
/// `from` (e.g. a CTS for an eager send).
fn fsm_next(from: MxSendPhase, ev: MxSendEvent) -> Option<MxSendPhase> {
    match (from, ev) {
        (MxSendPhase::Matching, MxSendEvent::SelectEager) => Some(MxSendPhase::EagerData),
        (MxSendPhase::Matching, MxSendEvent::SelectRndv) => Some(MxSendPhase::RndvHandshake),
        (MxSendPhase::RndvHandshake, MxSendEvent::CtsArrived) => Some(MxSendPhase::RndvData),
        (MxSendPhase::EagerData, MxSendEvent::DataDelivered) => Some(MxSendPhase::Complete),
        (MxSendPhase::RndvData, MxSendEvent::DataDelivered) => Some(MxSendPhase::Complete),
        _ => None,
    }
}

struct ReqState {
    done: Cell<bool>,
    len: Cell<u64>,
    bits: Cell<MatchInfo>,
    phase: Cell<MxSendPhase>,
    notify: Notify,
}

/// Handle to a pending non-blocking operation.
#[derive(Clone)]
pub struct MxRequest {
    state: Rc<ReqState>,
}

impl MxRequest {
    fn new() -> Self {
        MxRequest {
            state: Rc::new(ReqState {
                done: Cell::new(false),
                len: Cell::new(0),
                bits: Cell::new(MatchInfo(0)),
                phase: Cell::new(MxSendPhase::Matching),
                notify: Notify::new(),
            }),
        }
    }

    /// Advance the send phase by `ev`, debug-asserting the move is one
    /// [`fsm_next`] admits. Pure bookkeeping: no simulated time is touched.
    fn advance_phase(&self, ev: MxSendEvent) {
        match fsm_next(self.state.phase.get(), ev) {
            Some(next) => self.state.phase.set(next),
            None => debug_assert!(
                false,
                "illegal MX send transition {:?} --{ev:?}",
                self.state.phase.get()
            ),
        }
    }

    fn complete(&self, len: u64, bits: MatchInfo) {
        self.state.len.set(len);
        self.state.bits.set(bits);
        self.state.done.set(true);
        self.state.notify.notify_one();
    }

    /// Block (in virtual time) until complete (`mx_wait`).
    pub async fn wait(&self) -> MxStatus {
        while !self.state.done.get() {
            self.state.notify.notified().await;
        }
        MxStatus {
            len: self.state.len.get(),
            bits: self.state.bits.get(),
        }
    }
}

struct Posted {
    bits: MatchInfo,
    mask: u64,
    addr: VirtAddr,
    len: u64,
    req: MxRequest,
}

enum UnexpectedKind {
    /// Eager data already buffered host-side (ring buffer).
    Eager { payload: Option<Vec<u8>> },
    /// A rendezvous RTS waiting for a matching receive; completing it
    /// triggers the pull.
    Rts {
        pull: Box<dyn FnOnce(VirtAddr, u64, MxRequest)>,
    },
}

struct Unexpected {
    bits: MatchInfo,
    len: u64,
    kind: UnexpectedKind,
}

/// Does the posted receive `p` accept the message `u`?
fn fits(p: &Posted, u: &Unexpected) -> bool {
    matches(u.bits, p.bits, p.mask)
}

/// An endpoint's NIC-side match lists.
type Lists = MatchLists<Posted, Unexpected>;

/// An open MX endpoint bound to one process.
pub struct MxEndpoint {
    sim: Sim,
    nic: Rc<MxNic>,
    cpu: Cpu,
    /// The MX progression thread's CPU context (a second core of the SMP
    /// hosts; rendezvous receive-side work runs here, which is why MX
    /// shows no receiver-overhead jump at the protocol switch).
    progression: Cpu,
    lists: Rc<Lists>,
}

/// Address of a connected peer endpoint: its match lists plus the data
/// path to its NIC. A clone is another handle on the same connection.
#[derive(Clone)]
pub struct MxAddr {
    peer_lists: Rc<Lists>,
    peer_nic: Rc<MxNic>,
    peer_progression: Cpu,
    /// local → peer.
    path_out: Pipeline,
    pkt_overhead: Bytes,
    /// Packet payload of the active link mode (resend granularity).
    pkt: Bytes,
    /// In-order matching per source endpoint (the MX guarantee).
    order: FifoGate,
    /// Connection id: `(src_node << 32) | dst_node`. Keys the fault plane's
    /// per-connection decision counter and tags conformance reports.
    conn_id: u64,
    /// Fault plane captured from the fabric at connect time.
    fault: FaultPlane,
    /// Receiver-side replay filter: drops messages the sender replayed
    /// after an ACK loss.
    replay: Rc<RefCell<ReplayFilter>>,
    /// Conformance oracle: messages from one source match in send order
    /// (rule `mx.match-order`).
    match_check: Rc<RefCell<simcheck::mx::MatchOrderOracle>>,
}

impl MxAddr {
    /// Move `bytes` to the peer NIC under MX's firmware resend. With the
    /// fault plane disabled this is [`Pipeline::transfer`]. Hands back the
    /// engine's own future: an `async fn` here would be one more frame in
    /// every poll of every message.
    #[inline]
    fn transfer_reliable<'a>(
        &'a self,
        sim: &'a Sim,
        bytes: Bytes,
    ) -> impl Future<Output = RecoveryStats> + 'a {
        transfer_reliable(
            sim,
            &self.fault,
            &self.path_out,
            self.conn_id,
            bytes,
            self.pkt,
            self.pkt_overhead,
            &MxNic::LOSS_RECOVERY,
        )
    }

    /// Sequence-number dedup at the receiving NIC's matching layer: the
    /// first arrival of message `ticket` claims it; its `rs.duplicates`
    /// ACK-loss replays (already charged wire time by the resend engine)
    /// arrive behind it and are dropped. False if `ticket` itself was one.
    fn accept(&self, ticket: u64, rs: &RecoveryStats) -> bool {
        let fresh = !self.fault.enabled() || self.replay.borrow_mut().accept(ticket);
        for _ in 0..rs.duplicates {
            let _ = self.replay.borrow_mut().accept(ticket);
        }
        fresh
    }
}

/// A rank-indexed table of connected peer addresses (slot `i` holds the
/// address of rank `i`'s endpoint; the owner's own slot is empty).
pub struct MxAddrTable {
    slots: Vec<Option<Rc<MxAddr>>>,
}

impl MxAddrTable {
    /// Build from per-rank optional addresses.
    pub fn new(slots: Vec<Option<Rc<MxAddr>>>) -> Self {
        MxAddrTable { slots }
    }

    /// The address of rank `dest`.
    pub fn get(&self, dest: usize) -> &MxAddr {
        self.slots[dest]
            .as_deref()
            .expect("no MX address for this rank")
    }
}

impl MxEndpoint {
    /// Open an endpoint on `node`, bound to the calling process `cpu`.
    pub fn open(fab: &MxFabric, node: usize, cpu: &Cpu) -> MxEndpoint {
        let nic = fab.device(node);
        MxEndpoint {
            sim: fab.sim().clone(),
            progression: Cpu::new(fab.sim(), cpu.costs()),
            nic,
            cpu: cpu.clone(),
            lists: Rc::default(),
        }
    }

    /// Resolve a peer endpoint into a sendable address (`mx_connect`).
    pub fn connect(&self, fab: &MxFabric, peer: &MxEndpoint) -> MxAddr {
        let conn_id = ((self.nic.node as u64) << 32) | peer.nic.node as u64;
        MxAddr {
            peer_lists: Rc::clone(&peer.lists),
            peer_nic: Rc::clone(&peer.nic),
            peer_progression: peer.progression.clone(),
            path_out: fab.data_path(self.nic.node, peer.nic.node),
            pkt_overhead: fab.per_segment_overhead(),
            pkt: fab.segment_payload(),
            order: FifoGate::new(),
            conn_id,
            fault: fab.fault_plane(),
            replay: Rc::new(RefCell::new(ReplayFilter::new())),
            match_check: Rc::new(RefCell::new(simcheck::mx::MatchOrderOracle::new(conn_id))),
        }
    }

    /// The owning process CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The NIC under this endpoint.
    pub fn nic(&self) -> &Rc<MxNic> {
        &self.nic
    }

    /// Untimed instrumentation: does the unexpected list hold a message
    /// matching `(bits, mask)`?
    pub fn probe_unexpected(&self, bits: MatchInfo, mask: u64) -> bool {
        self.lists.parked(|u| matches(u.bits, bits, mask))
    }

    /// Non-blocking matched send (`mx_isend`) of `len` bytes from the
    /// user buffer at `buf`.
    pub async fn isend(
        &self,
        dest: &MxAddr,
        bits: MatchInfo,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> MxRequest {
        self.cpu.work(self.nic.calib.post_cost).await;
        let req = MxRequest::new();
        if Bytes::new(len) < self.nic.calib.rndv_threshold {
            req.advance_phase(MxSendEvent::SelectEager);
            self.eager_send(dest, bits, len, payload, req.clone());
        } else {
            req.advance_phase(MxSendEvent::SelectRndv);
            self.rndv_send(dest, bits, buf, len, payload, req.clone())
                .await;
        }
        req
    }

    fn eager_send(
        &self,
        dest: &MxAddr,
        bits: MatchInfo,
        len: u64,
        payload: Option<Vec<u8>>,
        req: MxRequest,
    ) {
        // Conformance oracle: this path is the eager side of the protocol
        // switch (rule `mx.rndv-switch`).
        let _ = simcheck::mx::check_rndv_switch(
            len,
            self.nic.calib.rndv_threshold.get(),
            true,
            dest.conn_id,
            Some(self.sim.now().as_nanos()),
        );
        let dest = dest.clone();
        let ticket = dest.order.ticket();
        let sim = self.sim.clone();
        self.sim.spawn_detached(async move {
            let peer_nic = &dest.peer_nic;
            let rs = dest.transfer_reliable(&sim, Bytes::new(len)).await;
            // MX matches messages from one source in send order.
            dest.order.enter(ticket).await;
            let _ = dest
                .match_check
                .borrow_mut()
                .observe_match(ticket, Some(sim.now().as_nanos()));
            if dest.accept(ticket, &rs) {
                // NIC-side matching at the receiver; the walk time is
                // charged after the scan-and-park step.
                let eager = Unexpected {
                    bits,
                    len,
                    kind: UnexpectedKind::Eager { payload },
                };
                let (walked, hit) = dest.peer_lists.arrive(eager, fits);
                peer_nic
                    .match_walk(walked, peer_nic.calib.nic_match_posted_per_entry)
                    .await;
                if let Some((p, u)) = hit {
                    if let UnexpectedKind::Eager {
                        payload: Some(data),
                    } = u.kind
                    {
                        peer_nic
                            .mem
                            .write(p.addr, &data[..(p.len.min(len)) as usize]);
                    }
                    p.req.complete(len.min(p.len), bits);
                }
                req.advance_phase(MxSendEvent::DataDelivered);
                req.complete(len, bits);
            }
            dest.order.leave();
        });
    }

    async fn rndv_send(
        &self,
        dest: &MxAddr,
        bits: MatchInfo,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
        req: MxRequest,
    ) {
        // Conformance oracle: this path is the rendezvous side of the
        // protocol switch (rule `mx.rndv-switch`).
        let _ = simcheck::mx::check_rndv_switch(
            len,
            self.nic.calib.rndv_threshold.get(),
            false,
            dest.conn_id,
            Some(self.sim.now().as_nanos()),
        );
        // MX pins the send buffer through its registration cache before
        // announcing the message (charged to the sending process).
        self.nic.registry.register_cached(&self.cpu, buf, len).await;
        let dest = dest.clone();
        let ticket = dest.order.ticket();
        let sim = self.sim.clone();
        let sreq = req.clone();
        self.sim.spawn_detached(async move {
            let peer_nic = &dest.peer_nic;
            // RTS travels as a small control message.
            let rs = dest.transfer_reliable(&sim, Bytes::new(32)).await;
            // The RTS envelope matches in send order, like any message.
            dest.order.enter(ticket).await;
            let _ = dest
                .match_check
                .borrow_mut()
                .observe_match(ticket, Some(sim.now().as_nanos()));
            // A replayed RTS (its ACK was lost) must not announce the
            // message twice.
            if !dest.accept(ticket, &rs) {
                dest.order.leave();
                return;
            }
            // Build the pull closure: runs when a matching receive exists.
            let puller = dest.clone();
            let sim2 = sim.clone();
            let pull: Box<dyn FnOnce(VirtAddr, u64, MxRequest)> =
                Box::new(move |raddr, rlen, rreq| {
                    let n = len.min(rlen);
                    let bits = bits;
                    let sim3 = sim2.clone();
                    sim2.spawn_detached(async move {
                        let (peer_nic, peer_progression) =
                            (&puller.peer_nic, &puller.peer_progression);
                        // Progression thread wakes, pins the receive buffer
                        // through the cache, sends CTS (reverse small
                        // message folded into its wakeup cost), and the
                        // sender NIC streams the data.
                        peer_progression
                            .work(peer_nic.calib.progression_wakeup)
                            .await;
                        peer_nic
                            .registry
                            .register_cached(peer_progression, raddr, n)
                            .await;
                        sreq.advance_phase(MxSendEvent::CtsArrived);
                        // The pull data resends like any MX traffic; a
                        // duplicate here rewrites the same bytes, so no
                        // dedup is needed beyond the engine's accounting.
                        puller.transfer_reliable(&sim3, Bytes::new(n)).await;
                        if let Some(data) = payload {
                            peer_nic.mem.write(raddr, &data[..n as usize]);
                        }
                        rreq.complete(n, bits);
                        sreq.advance_phase(MxSendEvent::DataDelivered);
                        sreq.complete(n, bits);
                    });
                });
            // Match the RTS against posted receives like an eager message.
            let rts = Unexpected {
                bits,
                len,
                kind: UnexpectedKind::Rts { pull },
            };
            let (walked, hit) = dest.peer_lists.arrive(rts, fits);
            dest.order.leave();
            peer_nic
                .match_walk(walked, peer_nic.calib.nic_match_posted_per_entry)
                .await;
            if let Some((p, u)) = hit {
                if let UnexpectedKind::Rts { pull } = u.kind {
                    pull(p.addr, p.len, p.req);
                }
            }
        });
    }

    /// Non-blocking matched receive (`mx_irecv`).
    pub async fn irecv(&self, bits: MatchInfo, mask: u64, addr: VirtAddr, len: u64) -> MxRequest {
        self.cpu.work(self.nic.calib.post_cost).await;
        let req = MxRequest::new();
        let posted = Posted {
            bits,
            mask,
            addr,
            len,
            req: req.clone(),
        };
        let (walked, hit) = self.lists.post(posted, fits);
        self.nic
            .match_walk(walked, self.nic.calib.nic_match_unexpected_per_entry)
            .await;
        if let Some((_, u)) = hit {
            match u.kind {
                UnexpectedKind::Eager { payload } => {
                    let n = u.len.min(len);
                    // Unexpected eager data was parked in the host ring;
                    // the receiving process copies it out.
                    self.cpu.memcpy(Bytes::new(n)).await;
                    if let Some(data) = payload {
                        self.nic.mem.write(addr, &data[..n as usize]);
                    }
                    req.complete(n, u.bits);
                }
                UnexpectedKind::Rts { pull } => pull(addr, len, req.clone()),
            }
        }
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn eager_send_recv_delivers_data() {
        let (sim, fab, ea, eb) = setup(LinkMode::MxoM);
        sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let rbuf = eb.nic().mem.alloc_buffer(256);
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 7), MatchInfo::EXACT, rbuf, 256)
                .await;
            let s = ea
                .isend(
                    &addr_b,
                    MatchInfo::mpi(0, 0, 7),
                    ea.nic().mem.alloc_buffer(64),
                    5,
                    Some(b"lanai".to_vec()),
                )
                .await;
            let st = r.wait().await;
            assert_eq!(st.len, 5);
            s.wait().await;
            assert_eq!(eb.nic().mem.read(rbuf, 5), b"lanai");
            assert_eq!(s.state.phase.get(), MxSendPhase::Complete);
        });
    }

    #[test]
    fn tag_mismatch_goes_unexpected_until_matching_recv() {
        let (sim, fab, ea, eb) = setup(LinkMode::MxoM);
        sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let s = ea
                .isend(
                    &addr_b,
                    MatchInfo::mpi(0, 0, 42),
                    ea.nic().mem.alloc_buffer(64),
                    4,
                    Some(b"late".to_vec()),
                )
                .await;
            s.wait().await;
            assert_eq!(eb.lists.depths(), (0, 1));
            // A receive with a different tag must NOT match.
            let rbuf = eb.nic().mem.alloc_buffer(64);
            let r_other = eb
                .irecv(MatchInfo::mpi(0, 0, 1), MatchInfo::EXACT, rbuf, 64)
                .await;
            assert!(!r_other.state.done.get());
            assert_eq!(eb.lists.depths(), (1, 1));
            // The right tag drains the unexpected queue.
            let rbuf2 = eb.nic().mem.alloc_buffer(64);
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 42), MatchInfo::EXACT, rbuf2, 64)
                .await;
            assert_eq!(r.wait().await.len, 4);
            assert_eq!(eb.nic().mem.read(rbuf2, 4), b"late");
            assert_eq!(eb.lists.depths(), (1, 0));
        });
    }

    #[test]
    fn wildcard_mask_matches_any_tag() {
        let (sim, fab, ea, eb) = setup(LinkMode::MxoE);
        sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let rbuf = eb.nic().mem.alloc_buffer(64);
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 0), MatchInfo::ANY_TAG_MASK, rbuf, 64)
                .await;
            ea.isend(
                &addr_b,
                MatchInfo::mpi(0, 0, 999),
                ea.nic().mem.alloc_buffer(64),
                2,
                Some(b"ok".to_vec()),
            )
            .await;
            assert_eq!(r.wait().await.len, 2);
        });
    }

    #[test]
    fn rendezvous_transfers_large_messages_zero_copy() {
        let (sim, fab, ea, eb) = setup(LinkMode::MxoM);
        sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let n = 64 * 1024u64;
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let rbuf = eb.nic().mem.alloc_buffer(n);
            let r = eb
                .irecv(MatchInfo::mpi(0, 0, 3), MatchInfo::EXACT, rbuf, n)
                .await;
            let s = ea
                .isend(
                    &addr_b,
                    MatchInfo::mpi(0, 0, 3),
                    ea.nic().mem.alloc_buffer(n),
                    n,
                    Some(data.clone()),
                )
                .await;
            let (rs, ss) = join2(r.wait(), s.wait()).await;
            assert_eq!(rs.len, n);
            assert_eq!(ss.len, n);
            assert_eq!(eb.nic().mem.read(rbuf, n), data);
        });
    }

    #[test]
    fn rendezvous_rts_waits_for_late_receive() {
        let (sim, fab, ea, eb) = setup(LinkMode::MxoM);
        sim.block_on(async move {
            let addr_b = ea.connect(&fab, &eb);
            let n = 128 * 1024u64;
            let sb = ea.nic().mem.alloc_buffer(n);
            let s = ea
                .isend(&addr_b, MatchInfo::mpi(0, 1, 9), sb, n, None)
                .await;
            // Sender must NOT complete: no receive exists yet.
            assert!(!s.state.done.get());
            let rbuf = eb.nic().mem.alloc_buffer(n);
            let r = eb
                .irecv(MatchInfo::mpi(0, 1, 9), MatchInfo::EXACT, rbuf, n)
                .await;
            let (rs, _ss) = join2(r.wait(), s.wait()).await;
            assert_eq!(rs.len, n);
        });
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
        // replays are dropped by the matching layer's replay filter.
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
                    assert_eq!(eb.lists.depths(), (0, 0));
                    let drops = addr_b.replay.borrow().drops();
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
        // replays a message the receiver already matched, and the replay
        // filter must drop it (the exactly-once checks above would fail or
        // the posted queue would underflow otherwise).
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
            assert_eq!(eb.lists.depths(), (0, 0));
            let drops = addr_b.replay.borrow().drops();
            drops
        });
        assert!(drops > 0, "no ACK loss replay reached the filter");
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

    use crate::calib::MyriCalib;
}
