//! Fig. 3 — MPI ping-pong latency and its overhead over the user level.

use std::rc::Rc;

use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join2;
use simnet::Sim;

use crate::report::{Figure, Series};
use crate::sweep::{iters_for, paper_sizes};
use crate::userlevel::{self, UserPair};

/// MPI ping-pong half-RTT (µs) for one fabric and size.
///
/// # Panics
///
/// With no iterations: the average would be 0/0.
pub fn mpi_half_rtt_us(kind: FabricKind, size: u64, iters: u64) -> f64 {
    assert!(iters > 0, "MPI half-RTT needs at least one timed iteration");
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size.max(64));
            let b1 = r1.alloc_buffer(size.max(64));
            // Warm once (registration caches, context caches).
            pingpong(&*r0, &*r1, b0, b1, size, 1).await;
            let t0 = sim.now();
            pingpong(&*r0, &*r1, b0, b1, size, iters).await;
            (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        }
    })
}

async fn pingpong(
    r0: &dyn mpisim::MpiRank,
    r1: &dyn mpisim::MpiRank,
    b0: hostmodel::mem::VirtAddr,
    b1: hostmodel::mem::VirtAddr,
    size: u64,
    iters: u64,
) {
    let ping = async {
        for _ in 0..iters {
            send(r0, 1, 1, b0, size, None).await;
            recv(r0, Source::Rank(1), 2, b0, size.max(64)).await;
        }
    };
    let pong = async {
        for _ in 0..iters {
            recv(r1, Source::Rank(0), 1, b1, size.max(64)).await;
            send(r1, 0, 2, b1, size, None).await;
        }
    };
    join2(ping, pong).await;
}

/// Fig. 3 latency panel.
pub fn fig3_latency() -> Figure {
    let mut fig = Figure::new(
        "fig3-latency",
        "MPI inter-node ping-pong latency",
        "bytes",
        "latency us",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(format!("MPI-{}", kind.label()));
        for size in paper_sizes() {
            s.push(size as f64, mpi_half_rtt_us(kind, size, iters_for(size)));
        }
        fig.series.push(s);
    }
    fig
}

/// Fig. 3 overhead panel: `(MPI − user-level) / user-level`, in percent.
pub fn fig3_overhead() -> Figure {
    let mut fig = Figure::new(
        "fig3-overhead",
        "MPI latency overhead over user-level",
        "bytes",
        "overhead %",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(kind.label().to_string());
        for size in paper_sizes() {
            let iters = iters_for(size);
            let mpi = mpi_half_rtt_us(kind, size, iters);
            let user = {
                let sim = Sim::new();
                sim.block_on({
                    let sim = sim.clone();
                    async move {
                        let pair = UserPair::build(&sim, kind).await;
                        pair.half_rtt_us(size, iters).await
                    }
                })
            };
            s.push(size as f64, (mpi - user) / user * 100.0);
        }
        fig.series.push(s);
    }
    let _ = userlevel::MAX_MSG;
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "MPI half-RTT needs at least one timed iteration")]
    fn mpi_half_rtt_rejects_zero_iterations() {
        mpi_half_rtt_us(FabricKind::MxoM, 4, 0);
    }

    #[test]
    fn mpi_latency_ordering_matches_paper() {
        // Paper: MXoM 3.3 < MXoE 3.6 < IB 4.8 < iWARP 10.7 for small msgs.
        let iw = mpi_half_rtt_us(FabricKind::Iwarp, 4, 30);
        let ib = mpi_half_rtt_us(FabricKind::InfiniBand, 4, 30);
        let mxom = mpi_half_rtt_us(FabricKind::MxoM, 4, 30);
        let mxoe = mpi_half_rtt_us(FabricKind::MxoE, 4, 30);
        assert!(
            mxom < mxoe && mxoe < ib && ib < iw,
            "MXoM={mxom:.2} MXoE={mxoe:.2} IB={ib:.2} iWARP={iw:.2}"
        );
    }

    #[test]
    fn mpi_overhead_is_positive_and_mx_lowest_for_small_messages() {
        // Paper: MPICH-MX offers the lowest overhead (its semantics are
        // closest to MPI).
        let over = |kind| {
            let mpi = mpi_half_rtt_us(kind, 16, 20);
            let sim = Sim::new();
            let user = sim.block_on({
                let sim = sim.clone();
                async move {
                    let pair = UserPair::build(&sim, kind).await;
                    pair.half_rtt_us(16, 20).await
                }
            });
            (mpi - user) / user * 100.0
        };
        let iw = over(FabricKind::Iwarp);
        let mxom = over(FabricKind::MxoM);
        assert!(iw > 0.0 && mxom > 0.0);
        assert!(
            mxom < iw,
            "MX overhead {mxom:.1}% must undercut iWARP {iw:.1}%"
        );
    }

    #[test]
    fn eager_rendezvous_dip_visible_in_latency_slope() {
        // Crossing the rendezvous threshold must cost visibly more than
        // the eager slope predicts (the Fig. 4 dip seen from latency side).
        let iw4k = mpi_half_rtt_us(FabricKind::Iwarp, 4096, 10);
        let iw8k = mpi_half_rtt_us(FabricKind::Iwarp, 8192, 10);
        // 8K is rendezvous: extra round-trip + handshake.
        assert!(
            iw8k > iw4k + 5.0,
            "rendezvous switch must show: 4K={iw4k:.1} 8K={iw8k:.1}"
        );
    }
}
