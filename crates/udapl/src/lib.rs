//! # udapl — a uDAPL-style provider-neutral RDMA interface
//!
//! The paper's future work names uDAPL (the DAT Collaborative's user
//! Direct Access Transport API) as a layer to extend the study to: one
//! API, many RDMA providers. This crate is that layer over the two
//! verbs-based fabrics in the study, and it is the verbs handle the
//! workspace's own harness uses: `netbench`'s user-level ping-pong
//! (Fig. 1) and multi-connection sweep (Fig. 2) post every RDMA Write
//! through an [`Endpoint`], so "which provider" is decided once, here.
//! The DAT vocabulary:
//!
//! * [`Ia`] — interface adapter (`dat_ia_open`): one per process per NIC.
//! * [`Lmr`] / [`Rmr`] — local/remote memory regions
//!   (`dat_lmr_create`), wrapping STag/rkey registration.
//! * [`Endpoint`] — connected endpoint (`dat_ep_connect`), wrapping a QP.
//! * EVD-style event dispatch ([`Endpoint::evd_wait`] blocking,
//!   [`Endpoint::evd_dequeue`] polling), wrapping the CQ.
//!
//! Both providers run the one verbs queue pair, [`etherstack::Qp`],
//! instantiated over their NIC; a DAT call builds its
//! [`etherstack::WorkRequest`] once and posts it. The provider is picked
//! at run time ([`DatFabric::new`] takes a [`Provider`]) while the verbs
//! are generic at compile time, so [`DatFabric`] and [`Endpoint`] are each
//! a two-variant sum over the instantiations, told apart by one
//! `on_provider!` match — statically dispatched, so the layer adds no
//! simulated event and no allocation to a post.
//!
//! ## Conformance checking
//!
//! This crate registers **no oracles of its own**: every DAT call lowers
//! directly onto a verbs call, so the invariants worth checking (QP state,
//! completion order, MR bounds, RDMAP opcode legality) live in each
//! provider's `QpWatch` beneath and are already observed there. The tests
//! assert that DAT traffic is in fact seen by those provider-level oracles.

#![forbid(unsafe_code)]

use etherstack::{Qp, WorkRequest};
use hostmodel::cpu::Cpu;
use hostmodel::mem::{HostMem, MemKey, VirtAddr};
use hostmodel::nic::{Cqe, CqeStatus};
use simnet::FaultPlane;

pub use etherstack::Provider;

/// A provider together with its NIC calibration (ablation studies override
/// single fields to show which mechanism produces which curve).
#[derive(Clone, Copy)]
pub enum ProviderCalib {
    /// NetEffect RNIC with the given calibration.
    Iwarp(iwarp::NetEffectCalib),
    /// Mellanox HCA with the given calibration.
    Ib(infiniband::MellanoxCalib),
}

impl ProviderCalib {
    /// The provider this calibration belongs to.
    pub fn provider(self) -> Provider {
        match self {
            ProviderCalib::Iwarp(_) => Provider::Iwarp,
            ProviderCalib::Ib(_) => Provider::InfiniBand,
        }
    }
}

impl From<Provider> for ProviderCalib {
    /// The paper's testbed calibration for `provider`.
    fn from(provider: Provider) -> Self {
        match provider {
            Provider::Iwarp => ProviderCalib::Iwarp(iwarp::NetEffectCalib::default()),
            Provider::InfiniBand => ProviderCalib::Ib(infiniband::MellanoxCalib::default()),
        }
    }
}

/// An interface adapter: the per-process handle to one NIC.
pub struct Ia {
    provider: Provider,
    cpu: Cpu,
}

impl Ia {
    /// `dat_ia_open` for a given provider, bound to the calling process.
    pub fn open(provider: Provider, cpu: &Cpu) -> Ia {
        Ia {
            provider,
            cpu: cpu.clone(),
        }
    }

    /// The provider behind this adapter.
    pub fn provider(&self) -> Provider {
        self.provider
    }
}

/// A local memory region (`dat_lmr_create` result).
#[derive(Clone, Copy, Debug)]
pub struct Lmr {
    /// Base address.
    pub addr: VirtAddr,
    /// Length in bytes.
    pub len: u64,
    /// Provider key (lkey / STag).
    pub key: MemKey,
}

/// A remote memory region handle, as advertised to peers.
#[derive(Clone, Copy, Debug)]
pub struct Rmr {
    /// Remote base address.
    pub addr: VirtAddr,
    /// Remote key (rkey / STag).
    pub key: MemKey,
    /// Length.
    pub len: u64,
}

impl Lmr {
    /// The remote handle to advertise for this region.
    pub fn as_rmr(&self) -> Rmr {
        Rmr {
            addr: self.addr,
            key: self.key,
            len: self.len,
        }
    }
}

/// A DTO (data transfer operation) completion from the EVD.
#[derive(Clone, Copy, Debug)]
pub struct DtoEvent {
    /// User cookie from the post.
    pub cookie: u64,
    /// Bytes transferred.
    pub len: u64,
    /// Success or the DAT-style error class.
    pub ok: bool,
}

impl From<Cqe> for DtoEvent {
    fn from(cqe: Cqe) -> Self {
        DtoEvent {
            cookie: cqe.wr_id,
            len: cqe.len,
            ok: cqe.status == CqeStatus::Success,
        }
    }
}

/// Run the same expression on whichever provider's fabric or queue pair is
/// live. The provider is chosen at run time and dispatch stays static, so
/// this is the one place the two instantiations of the generic verbs are
/// told apart.
macro_rules! on_provider {
    ($ty:ident, $this:expr, $x:ident => $body:expr) => {
        match $this {
            $ty::Iwarp($x) => $body,
            $ty::Ib($x) => $body,
        }
    };
}

/// A connected endpoint plus its event dispatcher: the provider's [`Qp`].
pub enum Endpoint {
    /// iWARP-backed.
    Iwarp(Qp<iwarp::RnicDevice>),
    /// InfiniBand-backed.
    Ib(Qp<infiniband::HcaDevice>),
}

// The methods the harness calls per message are `#[inline]`: without it each
// poll of a post or wait crosses one more non-inlinable frame than a direct
// verbs call (measured: fig2 +17% wall), which a pass-through must not cost.
impl Endpoint {
    #[inline]
    async fn post(&self, wr: WorkRequest) {
        on_provider!(Endpoint, self, qp => qp.post_send_wr(wr).await);
    }

    /// `dat_ep_post_rdma_write`: one-sided write of `len` bytes from the
    /// local region into the remote one (bounds-checked locally the way
    /// DAT providers do before posting).
    #[expect(clippy::too_many_arguments, reason = "mirrors the DAT call signature")]
    #[inline]
    pub async fn post_rdma_write(
        &self,
        cookie: u64,
        local: &Lmr,
        offset: u64,
        len: u64,
        remote: &Rmr,
        remote_offset: u64,
        payload: Option<Vec<u8>>,
    ) -> Result<(), &'static str> {
        if offset + len > local.len || remote_offset + len > remote.len {
            return Err("DAT_LENGTH_ERROR");
        }
        self.post(WorkRequest::RdmaWrite {
            wr_id: cookie,
            len,
            payload,
            rkey: remote.key,
            remote_addr: remote.addr.offset(remote_offset),
        })
        .await;
        Ok(())
    }

    /// `dat_ep_post_send`: two-sided send consuming a posted receive.
    pub async fn post_send(&self, cookie: u64, len: u64, payload: Option<Vec<u8>>) {
        self.post(WorkRequest::Send {
            wr_id: cookie,
            len,
            payload,
        })
        .await;
    }

    /// `dat_ep_post_recv` into a region slice.
    pub async fn post_recv(&self, cookie: u64, local: &Lmr, offset: u64, len: u64) {
        let addr = local.addr.offset(offset);
        on_provider!(Endpoint, self, qp => qp.post_recv(cookie, addr, len).await);
    }

    /// `dat_evd_wait`: block for the next DTO completion.
    #[inline]
    pub async fn evd_wait(&self) -> DtoEvent {
        on_provider!(Endpoint, self, qp => qp.next_cqe().await).into()
    }

    /// `dat_evd_dequeue`: the next DTO completion if one is already
    /// queued, without blocking (`DAT_QUEUE_EMPTY` is `None`).
    #[inline]
    pub fn evd_dequeue(&self) -> Option<DtoEvent> {
        on_provider!(Endpoint, self, qp => qp.poll_cq()).map(DtoEvent::from)
    }

    /// Wait for a one-sided placement to land locally (polling the target
    /// buffer, as the paper's user-level tests do).
    #[inline]
    pub async fn wait_placement(&self) {
        on_provider!(Endpoint, self, qp => qp.wait_placement().await);
    }

    /// The host memory this endpoint's process sees.
    pub fn mem(&self) -> HostMem {
        on_provider!(Endpoint, self, qp => qp.device().mem.clone())
    }
}

/// Provider-neutral environment: the live fabric of whichever provider.
pub enum DatFabric {
    /// iWARP-backed.
    Iwarp(iwarp::IwarpFabric),
    /// InfiniBand-backed.
    Ib(infiniband::IbFabric),
}

impl DatFabric {
    /// Bring up a fabric of `nodes` hosts for the given provider.
    pub fn new(sim: &simnet::Sim, provider: Provider, nodes: usize) -> DatFabric {
        Self::with_calib(sim, provider.into(), nodes)
    }

    /// As [`DatFabric::new`], with explicit NIC calibration.
    pub fn with_calib(sim: &simnet::Sim, calib: ProviderCalib, nodes: usize) -> DatFabric {
        match calib {
            ProviderCalib::Iwarp(c) => {
                DatFabric::Iwarp(iwarp::IwarpFabric::with_calib(sim, nodes, c))
            }
            ProviderCalib::Ib(c) => DatFabric::Ib(infiniband::IbFabric::with_calib(sim, nodes, c)),
        }
    }

    /// Install a fault plane; endpoints connected *after* this call judge
    /// every transfer against it.
    pub fn set_fault_plane(&self, plane: FaultPlane) {
        on_provider!(DatFabric, self, f => f.set_fault_plane(plane));
    }

    /// `dat_lmr_create`: allocate and register `len` bytes on `node`,
    /// charging `ia`'s process for the pinning.
    pub async fn lmr_create(&self, ia: &Ia, node: usize, len: u64) -> Lmr {
        let (addr, registry) = on_provider!(DatFabric, self, f => {
            let dev = f.device(node);
            (dev.mem.alloc_buffer(len), dev.registry.clone())
        });
        let key = registry.register_pinned(&ia.cpu, addr, len).await;
        Lmr { addr, len, key }
    }

    /// `dat_ep_connect`: establish a connected endpoint pair between two
    /// nodes' processes.
    pub async fn connect(
        &self,
        a: usize,
        b: usize,
        cpu_a: &Cpu,
        cpu_b: &Cpu,
    ) -> (Endpoint, Endpoint) {
        match self {
            DatFabric::Iwarp(f) => {
                let (qa, qb) = f.connect(a, b, cpu_a, cpu_b).await;
                (Endpoint::Iwarp(qa), Endpoint::Iwarp(qb))
            }
            DatFabric::Ib(f) => {
                let (qa, qb) = f.connect(a, b, cpu_a, cpu_b).await;
                (Endpoint::Ib(qa), Endpoint::Ib(qb))
            }
        }
    }
}

#[cfg(test)]
mod verbs_suite;

#[cfg(test)]
mod tests {
    use super::*;
    use hostmodel::cpu::CpuCosts;
    use simnet::Sim;

    /// Loss plane under which the single-packet test message loses its
    /// first attempt on both providers (the draws are deterministic).
    const LOSSY_PPM: u32 = 500_000;
    const LOSSY_SEED: u64 = 3;

    /// A fresh two-node `provider` fabric with `plane` installed: a 1 KiB
    /// region on each node and a connected endpoint pair, side A first.
    async fn dat_pair(
        sim: &Sim,
        provider: Provider,
        plane: FaultPlane,
    ) -> ([Endpoint; 2], [Lmr; 2]) {
        let fab = DatFabric::new(sim, provider, 2);
        fab.set_fault_plane(plane);
        let cpu_a = Cpu::new(sim, CpuCosts::default());
        let cpu_b = Cpu::new(sim, CpuCosts::default());
        let lmr_a = fab.lmr_create(&Ia::open(provider, &cpu_a), 0, 1024).await;
        let lmr_b = fab.lmr_create(&Ia::open(provider, &cpu_b), 1, 1024).await;
        let (ep_a, ep_b) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
        ([ep_a, ep_b], [lmr_a, lmr_b])
    }

    /// One 12-byte RDMA Write over `provider` with `plane` installed before
    /// the endpoints connect: `(latency µs, bytes that landed)`.
    fn run_rdma_roundtrip(provider: Provider, plane: FaultPlane) -> (f64, Vec<u8>) {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let ([ep_a, ep_b], [lmr_a, lmr_b]) = dat_pair(&sim, provider, plane).await;
                let t0 = sim.now();
                ep_a.post_rdma_write(
                    7,
                    &lmr_a,
                    0,
                    12,
                    &lmr_b.as_rmr(),
                    100,
                    Some(b"dat over sim".to_vec()),
                )
                .await
                .expect("in bounds");
                let ev = ep_a.evd_wait().await;
                assert!(ev.ok);
                assert_eq!(ev.cookie, 7);
                ep_b.wait_placement().await;
                let lat = (sim.now() - t0).as_micros_f64();
                (lat, ep_b.mem().read(lmr_b.addr.offset(100), 12))
            }
        })
    }

    #[test]
    fn rdma_write_roundtrips_on_both_providers() {
        for provider in [Provider::Iwarp, Provider::InfiniBand] {
            let (clean, data) = run_rdma_roundtrip(provider, FaultPlane::disabled());
            assert_eq!(data, b"dat over sim", "{provider:?}");
            // The fault plane passes through to the provider: every packet
            // of the first attempt is dropped, the provider's own recovery
            // still lands the bytes, and the retransmission costs time.
            let lossy = FaultPlane::new(simnet::FaultConfig::loss(LOSSY_PPM, LOSSY_SEED));
            let (slow, data) = run_rdma_roundtrip(provider, lossy);
            assert_eq!(data, b"dat over sim", "{provider:?} under loss");
            assert!(slow > clean, "{provider:?}: {slow:.2} µs !> {clean:.2} µs");
        }
    }

    #[test]
    fn evd_dequeue_is_the_nonblocking_evd_wait() {
        for provider in [Provider::Iwarp, Provider::InfiniBand] {
            let sim = Sim::new();
            sim.block_on({
                let sim = sim.clone();
                async move {
                    let ([ep_a, ep_b], [lmr_a, lmr_b]) =
                        dat_pair(&sim, provider, FaultPlane::disabled()).await;
                    assert!(ep_a.evd_dequeue().is_none(), "{provider:?}: empty EVD");
                    ep_a.post_rdma_write(11, &lmr_a, 0, 64, &lmr_b.as_rmr(), 0, None)
                        .await
                        .expect("in bounds");
                    assert!(
                        ep_a.evd_dequeue().is_none(),
                        "{provider:?}: still in flight"
                    );
                    // Placement at the target and the initiator's completion
                    // are raised together, so the CQE `evd_wait` would have
                    // blocked for is now queued.
                    ep_b.wait_placement().await;
                    let ev = ep_a.evd_dequeue().expect("completion is queued");
                    assert!(ev.ok, "{provider:?}");
                    assert_eq!((ev.cookie, ev.len), (11, 64), "{provider:?}");
                    assert!(ep_a.evd_dequeue().is_none(), "{provider:?}: drained");
                }
            });
        }
    }

    #[test]
    fn provider_latency_ordering_shows_through_the_neutral_api() {
        // The uDAPL layer adds nothing to the data path, so the fabric
        // ordering survives: IB beats iWARP on latency.
        let (iw, _) = run_rdma_roundtrip(Provider::Iwarp, FaultPlane::disabled());
        let (ib, _) = run_rdma_roundtrip(Provider::InfiniBand, FaultPlane::disabled());
        assert!(ib < iw, "IB {ib:.2} µs must beat iWARP {iw:.2} µs");
    }

    #[test]
    fn out_of_bounds_writes_are_rejected_locally() {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let ([ep_a, _ep_b], [lmr_a, lmr_b]) =
                    dat_pair(&sim, Provider::Iwarp, FaultPlane::disabled()).await;
                let err = ep_a
                    .post_rdma_write(1, &lmr_a, 0, 2048, &lmr_b.as_rmr(), 0, None)
                    .await;
                assert_eq!(err, Err("DAT_LENGTH_ERROR"));
                let err = ep_a
                    .post_rdma_write(1, &lmr_a, 0, 512, &lmr_b.as_rmr(), 1000, None)
                    .await;
                assert_eq!(err, Err("DAT_LENGTH_ERROR"));
            }
        });
    }

    #[test]
    fn ia_reports_its_provider() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        for provider in [Provider::Iwarp, Provider::InfiniBand] {
            assert_eq!(Ia::open(provider, &cpu).provider(), provider);
        }
    }

    #[test]
    fn as_rmr_preserves_region_geometry() {
        let lmr = Lmr {
            addr: VirtAddr(0x4000),
            len: 8192,
            key: MemKey(17),
        };
        let rmr = lmr.as_rmr();
        assert_eq!(rmr.addr.0, lmr.addr.0);
        assert_eq!(rmr.len, lmr.len);
        assert_eq!(rmr.key.0, lmr.key.0);
    }

    #[test]
    fn writes_filling_the_region_exactly_are_accepted() {
        // offset + len == region length is in bounds; one byte more is not.
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let ([ep_a, _ep_b], [lmr_a, lmr_b]) =
                    dat_pair(&sim, Provider::InfiniBand, FaultPlane::disabled()).await;
                ep_a.post_rdma_write(1, &lmr_a, 512, 512, &lmr_b.as_rmr(), 0, None)
                    .await
                    .expect("exact fit is in bounds");
                assert!(ep_a.evd_wait().await.ok);
                let err = ep_a
                    .post_rdma_write(2, &lmr_a, 513, 512, &lmr_b.as_rmr(), 0, None)
                    .await;
                assert_eq!(err, Err("DAT_LENGTH_ERROR"));
            }
        });
    }

    #[test]
    fn remote_protection_fault_surfaces_as_not_ok_event() {
        // A forged remote key passes the local DAT bounds check but must
        // come back as a failed DTO event from the provider.
        for provider in [Provider::Iwarp, Provider::InfiniBand] {
            let sim = Sim::new();
            sim.block_on({
                let sim = sim.clone();
                async move {
                    let ([ep_a, _ep_b], [lmr_a, _]) =
                        dat_pair(&sim, provider, FaultPlane::disabled()).await;
                    let forged = Rmr {
                        addr: VirtAddr(64),
                        key: MemKey(999_999),
                        len: 1024,
                    };
                    ep_a.post_rdma_write(3, &lmr_a, 0, 256, &forged, 0, None)
                        .await
                        .expect("locally in bounds");
                    let ev = ep_a.evd_wait().await;
                    assert!(!ev.ok, "{provider:?}: forged rkey must fail");
                    assert_eq!(ev.cookie, 3);
                }
            });
        }
    }

    /// The pass-through claim, verified: DAT traffic is observed by the
    /// provider-level oracles (this crate registers none of its own).
    #[test]
    fn dat_traffic_is_observed_by_provider_oracles() {
        // One write: its post, its delivery (iWARP) or completion (IB), and
        // two registrations plus the key check. IB also walks both QPs up
        // RESET → INIT → RTR → RTS.
        let iwarp = "iwarp.ddp-msn 1, iwarp.rdmap-state 1, host.mr-bounds 3";
        let ib = "ib.qp-state 7, ib.cq-order 1, host.mr-bounds 3";
        for (provider, want) in [(Provider::Iwarp, iwarp), (Provider::InfiniBand, ib)] {
            run_rdma_roundtrip(provider, FaultPlane::disabled());
            let s = simcheck::take();
            let seen = s.rules.iter().filter(|r| r.checks > 0);
            let seen: Vec<String> = seen.map(|r| format!("{} {}", r.rule, r.checks)).collect();
            assert_eq!(seen.join(", "), want);
            assert_eq!(s.total_violations(), 0, "{s}");
        }
    }

    #[test]
    fn send_then_rdma_write_flow_through_the_evd_in_post_order() {
        // Every opcode redeems its in-order delivery ticket: a Send that
        // took one without entering the gate would park every later Write
        // on the connection forever.
        for provider in [Provider::Iwarp, Provider::InfiniBand] {
            let sim = Sim::new();
            sim.block_on({
                let sim = sim.clone();
                async move {
                    let ([ep_a, ep_b], [lmr_a, lmr_b]) =
                        dat_pair(&sim, provider, FaultPlane::disabled()).await;
                    ep_b.post_recv(42, &lmr_b, 0, 256).await;
                    ep_a.post_send(2, 5, Some(b"hello".to_vec())).await;
                    ep_a.post_rdma_write(3, &lmr_a, 0, 64, &lmr_b.as_rmr(), 64, None)
                        .await
                        .expect("in bounds");
                    for cookie in [2, 3] {
                        let ev = ep_a.evd_wait().await;
                        assert!(ev.ok, "{provider:?}: DTO {cookie}");
                        assert_eq!(ev.cookie, cookie, "{provider:?}: post order");
                    }
                    let ev = ep_b.evd_wait().await;
                    assert!(ev.ok, "{provider:?}");
                    assert_eq!((ev.cookie, ev.len), (42, 5), "{provider:?}");
                    assert_eq!(ep_b.mem().read(lmr_b.addr, 5), b"hello");
                }
            });
        }
    }
}
