//! Fig. 6 — effect of message-buffer re-use on ping-pong latency.
//!
//! Methodology per the paper: for each message size, statically allocate
//! 24 buffers per side; run the ping-pong either always re-using one buffer
//! (100% re-use) or cycling to a fresh buffer each iteration (0% re-use);
//! report the latency ratio no-re-use / full-re-use. The rendezvous range
//! exposes the pin-down cache (registration) costs; the eager range
//! exposes cache-cold copies.

use std::rc::Rc;

use hostmodel::mem::VirtAddr;
use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join2;
use simnet::Sim;

use crate::report::{Figure, Series};
use crate::sweep::pow2_sizes;

/// Number of statically allocated buffers per side (paper: 24).
pub(crate) const NUM_BUFFERS: usize = 24;

/// Sizes swept (64 B – 4 MB).
pub fn reuse_sizes() -> Vec<u64> {
    pow2_sizes(64, 4 << 20)
}

/// Buffer-selection pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReusePattern {
    /// Always the same buffer (100% re-use).
    Full,
    /// A fresh buffer every iteration, cycling over all 24 (0% re-use).
    None,
}

/// Ping-pong mean half-RTT (µs) under a buffer-re-use pattern.
pub fn latency_with_pattern(kind: FabricKind, size: u64, pattern: ReusePattern, iters: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let bufs0: Vec<VirtAddr> = (0..NUM_BUFFERS).map(|_| r0.alloc_buffer(size)).collect();
            let bufs1: Vec<VirtAddr> = (0..NUM_BUFFERS).map(|_| r1.alloc_buffer(size)).collect();
            let pick = |i: u64| -> usize {
                match pattern {
                    ReusePattern::Full => 0,
                    ReusePattern::None => (i as usize) % NUM_BUFFERS,
                }
            };
            // Warm-up round so the 100% case runs against a warm cache.
            pingpong_once(&*r0, &*r1, bufs0[0], bufs1[0], size).await;
            let t0 = sim.now();
            for i in 0..iters {
                pingpong_once(&*r0, &*r1, bufs0[pick(i)], bufs1[pick(i)], size).await;
            }
            (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        }
    })
}

async fn pingpong_once(
    r0: &dyn mpisim::MpiRank,
    r1: &dyn mpisim::MpiRank,
    b0: VirtAddr,
    b1: VirtAddr,
    size: u64,
) {
    let ping = async {
        send(r0, 1, 1, b0, size, None).await;
        recv(r0, Source::Rank(1), 2, b0, size).await;
    };
    let pong = async {
        recv(r1, Source::Rank(0), 1, b1, size).await;
        send(r1, 0, 2, b1, size, None).await;
    };
    join2(ping, pong).await;
}

/// The Fig. 6 ratio at one size.
pub fn reuse_ratio(kind: FabricKind, size: u64) -> f64 {
    let iters = (2 * NUM_BUFFERS) as u64;
    let no = latency_with_pattern(kind, size, ReusePattern::None, iters);
    let full = latency_with_pattern(kind, size, ReusePattern::Full, iters);
    no / full
}

/// Fig. 6 generator.
pub fn fig6_buffer_reuse() -> Figure {
    let mut fig = Figure::new(
        "fig6-buffer-reuse",
        "Buffer re-use effect on latency (ratio of no re-use to full re-use)",
        "bytes",
        "ratio",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(format!("MPI-{}", kind.label()));
        for size in reuse_sizes() {
            s.push(size as f64, reuse_ratio(kind, size));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_barely_affected() {
        // Paper: < 10% impact up to 256 B.
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand, FabricKind::MxoM] {
            let r = reuse_ratio(kind, 128);
            assert!(r < 1.15, "{kind:?} 128B ratio {r:.2} should be near 1.0");
        }
    }

    #[test]
    fn rendezvous_range_ib_suffers_most() {
        // Paper: ratio ≈ 4.3 for IB at 128 KB, ≈ 2 for iWARP at 256 KB,
        // ≈ 1.4 for Myrinet at 1 MB.
        let ib = reuse_ratio(FabricKind::InfiniBand, 128 * 1024);
        let iw = reuse_ratio(FabricKind::Iwarp, 256 * 1024);
        let mx = reuse_ratio(FabricKind::MxoM, 1 << 20);
        assert!(
            ib > iw && iw > mx,
            "ordering: IB {ib:.2} > iWARP {iw:.2} > MXoM {mx:.2}"
        );
        assert!((3.2..5.5).contains(&ib), "IB@128K ratio {ib:.2}, paper 4.3");
        assert!(
            (1.5..2.8).contains(&iw),
            "iWARP@256K ratio {iw:.2}, paper ~2"
        );
        assert!(
            (1.15..1.8).contains(&mx),
            "MXoM@1M ratio {mx:.2}, paper 1.4"
        );
    }

    #[test]
    fn iwarp_is_best_for_very_large_messages() {
        // Paper: "For very large messages, iWARP performs the best."
        let iw = reuse_ratio(FabricKind::Iwarp, 4 << 20);
        let ib = reuse_ratio(FabricKind::InfiniBand, 4 << 20);
        assert!(iw < ib, "4MB ratios: iWARP {iw:.2} must beat IB {ib:.2}");
    }
}
