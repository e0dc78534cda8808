//! World builders: a ready-to-benchmark set of MPI ranks over any fabric.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::rc::Rc;

use etherstack::{Engine, Fabric, Lane, Peer, Protocol, Provider, VerbsNic};
use hostmodel::cpu::{Cpu, CpuCosts};
use simnet::{Bytes, Sim, SimDuration};

use crate::engine::{Caller, Host, Lanes, MpiConfig, Rank};
use crate::rank::MpiRank;

/// Which interconnect an MPI world runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FabricKind {
    /// NetEffect iWARP 10-Gigabit Ethernet.
    Iwarp,
    /// Mellanox InfiniBand 4X.
    InfiniBand,
    /// Myri-10G, MX over Ethernet.
    MxoE,
    /// Myri-10G, MX over Myrinet.
    MxoM,
}

impl FabricKind {
    /// All four configurations, in the paper's presentation order.
    pub const ALL: [FabricKind; 4] = [
        FabricKind::Iwarp,
        FabricKind::InfiniBand,
        FabricKind::MxoM,
        FabricKind::MxoE,
    ];

    /// The NIC this configuration runs on: the one place a kind picks
    /// its verbs provider or MX link mode.
    pub fn nic(self) -> Nic {
        match self {
            FabricKind::Iwarp => Nic::Verbs(Provider::Iwarp),
            FabricKind::InfiniBand => Nic::Verbs(Provider::InfiniBand),
            FabricKind::MxoE => Nic::Mx(mx10g::LinkMode::MxoE),
            FabricKind::MxoM => Nic::Mx(mx10g::LinkMode::MxoM),
        }
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::Iwarp => "iWARP",
            FabricKind::InfiniBand => "IB",
            FabricKind::MxoM => "MXoM",
            FabricKind::MxoE => "MXoE",
        }
    }
}

/// A [`FabricKind`]'s NIC: a verbs provider, or a Myri-10G NIC in one of
/// its link modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Nic {
    /// A queue-pair NIC behind the verbs.
    Verbs(Provider),
    /// A Myri-10G NIC under MX.
    Mx(mx10g::LinkMode),
}

impl Nic {
    /// The fabric tag on this NIC's simcheck reports.
    pub fn tag(self) -> &'static str {
        match self {
            Nic::Verbs(Provider::Iwarp) => "iwarp",
            Nic::Verbs(Provider::InfiniBand) => "ib",
            Nic::Mx(_) => "mx10g",
        }
    }
}

/// MPICH-over-iWARP configuration. The eager→rendezvous switch lands
/// between the paper's 4 KB and 8 KB sample points.
pub(crate) fn iwarp_mpi_config() -> MpiConfig {
    MpiConfig {
        rndv_threshold: 6_000,
        eager_header: Bytes::new(32),
        ctrl_wire: Bytes::new(40),
        posted_per_entry: SimDuration::from_nanos(30),
        unexpected_per_entry: SimDuration::from_nanos(15),
        send_sw: SimDuration::from_nanos(250),
        recv_sw: SimDuration::from_nanos(350),
        hot_buffers: 4,
    }
}

/// MVAPICH 0.9.5 configuration. Rendezvous from 8 KB.
pub(crate) fn ib_mpi_config() -> MpiConfig {
    MpiConfig {
        rndv_threshold: 8_192,
        eager_header: Bytes::new(32),
        ctrl_wire: Bytes::new(40),
        posted_per_entry: SimDuration::from_nanos(35),
        unexpected_per_entry: SimDuration::from_nanos(18),
        send_sw: SimDuration::from_nanos(60),
        recv_sw: SimDuration::from_nanos(80),
        hot_buffers: 4,
    }
}

/// A built world: one `MpiRank` per process plus the shared clock.
pub struct MpiWorld {
    /// The simulation driving this world.
    pub sim: Sim,
    /// Fabric in effect.
    pub kind: FabricKind,
    ranks: Vec<Rc<dyn MpiRank>>,
}

impl MpiWorld {
    /// Build an `n`-rank world (one rank per node) over `kind`.
    pub fn build(sim: &Sim, kind: FabricKind, n: usize) -> MpiWorld {
        assert!(n >= 2);
        fn erase<R: MpiRank + 'static>(ranks: Vec<R>) -> Vec<Rc<dyn MpiRank>> {
            ranks
                .into_iter()
                .map(|r| Rc::new(r) as Rc<dyn MpiRank>)
                .collect()
        }
        let ranks = match kind.nic() {
            Nic::Verbs(Provider::Iwarp) => erase(verbs_ranks(
                &iwarp::IwarpFabric::new(sim, n),
                iwarp_mpi_config(),
            )),
            Nic::Verbs(Provider::InfiniBand) => erase(verbs_ranks(
                &infiniband::IbFabric::new(sim, n),
                ib_mpi_config(),
            )),
            Nic::Mx(mode) => erase(mx_ranks(&mx10g::MxFabric::new(sim, n, mode))),
        };
        MpiWorld {
            sim: sim.clone(),
            kind,
            ranks,
        }
    }

    /// Rank `r`'s interface.
    pub fn rank(&self, r: usize) -> &Rc<dyn MpiRank> {
        &self.ranks[r]
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }
}

/// Deterministic QP number for the (src → dst) half of an MPI peer pair,
/// so both sides agree without a handshake.
fn mpi_qpn(src: usize, dst: usize) -> u32 {
    0x4000_0000 | ((src as u32) << 12) | dst as u32
}

/// MPICH-over-verbs ranks, one per node of `fab`, each connected to every
/// other by a lane each way.
pub(crate) fn verbs_ranks<N: VerbsNic>(
    fab: &Fabric<N>,
    cfg: MpiConfig,
) -> Vec<Rank<Host, Caller<N>>> {
    let proto = Protocol {
        rndv_threshold: Bytes::new(cfg.rndv_threshold),
        eager_header: cfg.eager_header,
        rts_wire: cfg.ctrl_wire,
    };
    let nodes = fab.nodes();
    let mut lanes = BTreeMap::new();
    let engines: Vec<_> = (0..nodes)
        .map(|r| {
            let cpu = Cpu::new(fab.sim(), CpuCosts::default());
            for p in (0..nodes).filter(|&p| p != r) {
                let lane = Lane::new(fab, r, mpi_qpn(r, p), p, mpi_qpn(p, r));
                lanes.insert((r, p), Rc::new(lane));
            }
            let caller = Caller {
                cfg,
                nic: PhantomData,
            };
            Engine::new(&cpu, &*fab.device(r), proto, Host::new(cfg), caller)
        })
        .collect();
    (0..nodes)
        .map(|r| {
            let peers = (0..nodes)
                .map(|p| {
                    (p != r).then(|| {
                        let link = Lanes {
                            tx: Rc::clone(&lanes[&(r, p)]),
                            rx: Rc::clone(&lanes[&(p, r)]),
                            cpu: engines[r].cpu().clone(),
                        };
                        Peer::new(&engines[p], link)
                    })
                })
                .collect();
            Rank {
                engine: Rc::clone(&engines[r]),
                peers,
                rank: r,
                glue: SimDuration::ZERO,
            }
        })
        .collect()
}

/// MPICH-MX ranks, one MX endpoint per node of `fab`, each connected to
/// every other; MPICH-MX's glue costs 120 ns a call.
pub(crate) fn mx_ranks(fab: &mx10g::MxFabric) -> Vec<Rank<mx10g::Nic, mx10g::Thread>> {
    let eps: Vec<_> = (0..fab.nodes())
        .map(|r| mx10g::MxEndpoint::open(fab, r, &Cpu::new(fab.sim(), CpuCosts::default())))
        .collect();
    eps.iter()
        .enumerate()
        .map(|(r, ep)| {
            let peers = eps
                .iter()
                .enumerate()
                .map(|(p, to)| (p != r).then(|| ep.connect(fab, to)))
                .collect();
            Rank {
                engine: Rc::clone(ep.engine()),
                peers,
                rank: r,
                glue: SimDuration::from_nanos(120),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{recv, send, Source};

    #[test]
    fn all_fabrics_roundtrip_data() {
        for kind in FabricKind::ALL {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            sim.block_on(async move {
                let sbuf = r0.alloc_buffer(1024);
                let rbuf = r1.alloc_buffer(1024);
                send(&*r0, 1, 7, sbuf, 11, Some(b"mpi payload".to_vec())).await;
                let st = recv(&*r1, Source::Rank(0), 7, rbuf, 1024).await;
                assert_eq!(st.len, 11, "{kind:?}");
                assert_eq!(r1.mem().read(rbuf, 11), b"mpi payload", "{kind:?}");
            });
        }
    }

    #[test]
    fn rendezvous_roundtrips_large_messages_on_all_fabrics() {
        for kind in FabricKind::ALL {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            sim.block_on(async move {
                let n = 256 * 1024u64;
                let data: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
                let sbuf = r0.alloc_buffer(n);
                let rbuf = r1.alloc_buffer(n);
                let rr = r1.irecv(Source::Rank(0), 3, rbuf, n).await;
                send(&*r0, 1, 3, sbuf, n, Some(data.clone())).await;
                let st = rr.wait().await;
                assert_eq!(st.len, n, "{kind:?}");
                assert_eq!(r1.mem().read(rbuf, n), data, "{kind:?}");
            });
        }
    }

    #[test]
    fn tag_and_source_matching_respects_order_and_wildcards() {
        for kind in FabricKind::ALL {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            sim.block_on(async move {
                let b = r0.alloc_buffer(64);
                // Two sends with different tags.
                send(&*r0, 1, 10, b, 4, Some(b"ten!".to_vec())).await;
                send(&*r0, 1, 20, b, 4, Some(b"twen".to_vec())).await;
                // Receive tag 20 first (skips the tag-10 unexpected entry).
                let rb = r1.alloc_buffer(64);
                let st = recv(&*r1, Source::Rank(0), 20, rb, 64).await;
                assert_eq!(st.bits.tag(), 20, "{kind:?}");
                assert_eq!(r1.mem().read(rb, 4), b"twen", "{kind:?}");
                // Wildcard receive picks up the remaining tag-10 message and
                // reports its real tag and source.
                let st = recv(&*r1, Source::Any, crate::rank::ANY_TAG, rb, 64).await;
                assert_eq!(st.len, 4, "{kind:?}");
                assert_eq!((st.bits.tag(), st.bits.rank()), (10, 0), "{kind:?}");
                assert_eq!(r1.mem().read(rb, 4), b"ten!", "{kind:?}");
            });
        }
    }

    #[test]
    fn mpi_pingpong_latencies_match_paper() {
        // Paper Fig. 3 anchors (small-message MPI half-RTT):
        //   iWARP ≈ 10.7 µs, IB ≈ 4.8 µs, MXoM ≈ 3.3 µs, MXoE ≈ 3.6 µs.
        for (kind, want, tol) in [
            (FabricKind::Iwarp, 10.7, 0.5),
            (FabricKind::InfiniBand, 4.8, 0.3),
            (FabricKind::MxoM, 3.3, 0.3),
            (FabricKind::MxoE, 3.6, 0.3),
        ] {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            let t = sim.block_on({
                let sim = sim.clone();
                async move {
                    let iters = 50u64;
                    let b0 = r0.alloc_buffer(64);
                    let b1 = r1.alloc_buffer(64);
                    let t0 = sim.now();
                    let ping = async {
                        for _ in 0..iters {
                            send(&*r0, 1, 1, b0, 4, None).await;
                            recv(&*r0, Source::Rank(1), 2, b0, 64).await;
                        }
                    };
                    let pong = async {
                        for _ in 0..iters {
                            recv(&*r1, Source::Rank(0), 1, b1, 64).await;
                            send(&*r1, 0, 2, b1, 4, None).await;
                        }
                    };
                    simnet::sync::join2(ping, pong).await;
                    (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
                }
            });
            assert!(
                (t - want).abs() < tol,
                "{kind:?} MPI half-RTT {t:.2} µs, paper says {want}"
            );
        }
    }
}
