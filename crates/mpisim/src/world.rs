//! World builders: a ready-to-benchmark set of MPI ranks over any fabric.

use std::rc::Rc;

use etherstack::{Fabric, VerbsNic};
use hostmodel::cpu::{Cpu, CpuCosts};
use simnet::{Bytes, Sim, SimDuration};

use crate::engine::{HostEngine, HostMpiRank, MpiConfig};
use crate::mxrank::MxMpiRank;
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
        let ranks: Vec<Rc<dyn MpiRank>> = match kind {
            FabricKind::Iwarp => host_ranks(&iwarp::IwarpFabric::new(sim, n), iwarp_mpi_config()),
            FabricKind::InfiniBand => {
                host_ranks(&infiniband::IbFabric::new(sim, n), ib_mpi_config())
            }
            FabricKind::MxoE | FabricKind::MxoM => {
                let mode = if kind == FabricKind::MxoE {
                    mx10g::LinkMode::MxoE
                } else {
                    mx10g::LinkMode::MxoM
                };
                let fab = mx10g::MxFabric::new(sim, n, mode);
                let eps: Vec<Rc<mx10g::MxEndpoint>> = (0..n)
                    .map(|r| {
                        let cpu = Cpu::new(sim, CpuCosts::default());
                        Rc::new(mx10g::MxEndpoint::open(&fab, r, &cpu))
                    })
                    .collect();
                (0..n)
                    .map(|r| {
                        let slots = (0..n)
                            .map(|p| (p != r).then(|| Rc::new(eps[r].connect(&fab, &eps[p]))))
                            .collect();
                        Rc::new(MxMpiRank::new(
                            sim,
                            r,
                            n,
                            Rc::clone(&eps[r]),
                            mx10g::MxAddrTable::new(slots),
                            SimDuration::from_nanos(120),
                        )) as Rc<dyn MpiRank>
                    })
                    .collect()
            }
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

/// Host-matched ranks, one per node of `fab`, wired to each other.
fn host_ranks<N: VerbsNic>(fab: &Fabric<N>, cfg: MpiConfig) -> Vec<Rc<dyn MpiRank>> {
    let engines: Vec<_> = (0..fab.nodes())
        .map(|r| HostEngine::new(fab, r, Cpu::new(fab.sim(), CpuCosts::default()), cfg))
        .collect();
    for e in &engines {
        e.set_peers(engines.iter().map(Rc::downgrade).collect());
    }
    engines
        .into_iter()
        .map(|e| Rc::new(HostMpiRank::new(e)) as Rc<dyn MpiRank>)
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
                assert_eq!(st.tag, 20, "{kind:?}");
                assert_eq!(r1.mem().read(rb, 4), b"twen", "{kind:?}");
                // Wildcard receive picks up the remaining tag-10 message and
                // reports its real tag and source.
                let st = recv(&*r1, Source::Any, crate::rank::ANY_TAG, rb, 64).await;
                assert_eq!(st.len, 4, "{kind:?}");
                assert_eq!((st.tag, st.source), (10, 0), "{kind:?}");
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
