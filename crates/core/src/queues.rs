//! Figs. 7 & 8 — the effect of MPI queue usage on latency.
//!
//! Fig. 7 (unexpected-message queue): pre-load the receiver with N small
//! unexpected messages, then measure a ping-pong whose receives are posted
//! *after* arrival (worst case, as in Underwood & Brightwell), so every
//! receive walks the loaded queue.
//!
//! Fig. 8 (posted-receive queue): pre-post N receives with a never-matched
//! tag on both sides, then measure a normal ping-pong; every arrival walks
//! the N decoys before finding its match.

use std::rc::Rc;

use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join2;
use simnet::{Sim, SimDuration};

use crate::report::{Figure, Series};

/// Queue depths swept.
pub fn queue_depths() -> Vec<usize> {
    vec![0, 16, 32, 64, 128, 256, 512]
}

/// Message sizes for the unexpected-queue figure (paper legend: 1 B–64 KB).
pub fn fig7_sizes() -> Vec<u64> {
    vec![1, 1024, 4096, 16384, 65536]
}

/// Message sizes for the receive-queue figure (paper legend: 16 B–128 KB).
pub fn fig8_sizes() -> Vec<u64> {
    vec![16, 256, 1024, 8192, 32768, 131072]
}

const DECOY_TAG: u32 = 7777;
const PING: u32 = 1;
const PONG: u32 = 2;

/// Ping-pong half-RTT with `depth` unexpected messages parked at both
/// sides, receives intentionally posted after arrival.
pub fn unexpected_latency(kind: FabricKind, depth: usize, size: u64, iters: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size.max(64));
            let b1 = r1.alloc_buffer(size.max(64));
            // Pre-load both unexpected queues with small decoys.
            for _ in 0..depth {
                send(&*r0, 1, DECOY_TAG, b0, 8, None).await;
                send(&*r1, 0, DECOY_TAG, b1, 8, None).await;
            }
            // Let every decoy land.
            sim.sleep(SimDuration::from_millis(2)).await;
            let t0 = sim.now();
            let ping = async {
                for _ in 0..iters {
                    send(&*r0, 1, PING, b0, size, None).await;
                    // Post the receive only once the pong is already here.
                    while !r0.probe_unexpected(Source::Rank(1), PONG) {
                        sim.sleep(SimDuration::from_nanos(200)).await;
                    }
                    recv(&*r0, Source::Rank(1), PONG, b0, size.max(1)).await;
                }
            };
            let pong = async {
                for _ in 0..iters {
                    while !r1.probe_unexpected(Source::Rank(0), PING) {
                        sim.sleep(SimDuration::from_nanos(200)).await;
                    }
                    recv(&*r1, Source::Rank(0), PING, b1, size.max(1)).await;
                    send(&*r1, 0, PONG, b1, size, None).await;
                }
            };
            join2(ping, pong).await;
            let elapsed = (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64);
            // Drain the decoys so the world tears down clean.
            for _ in 0..depth {
                recv(&*r0, Source::Rank(1), DECOY_TAG, b0, 64).await;
                recv(&*r1, Source::Rank(0), DECOY_TAG, b1, 64).await;
            }
            elapsed
        }
    })
}

/// Ping-pong half-RTT with `depth` never-matched receives pre-posted on
/// both sides.
pub fn receive_queue_latency(kind: FabricKind, depth: usize, size: u64, iters: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size.max(64));
            let b1 = r1.alloc_buffer(size.max(64));
            let mut decoys = Vec::new();
            for i in 0..depth {
                decoys.push(
                    r0.irecv(Source::Rank(1), DECOY_TAG + 1 + i as u32, b0, 64)
                        .await,
                );
                decoys.push(
                    r1.irecv(Source::Rank(0), DECOY_TAG + 1 + i as u32, b1, 64)
                        .await,
                );
            }
            let t0 = sim.now();
            let ping = async {
                for _ in 0..iters {
                    let r = r0.irecv(Source::Rank(1), PONG, b0, size.max(1)).await;
                    send(&*r0, 1, PING, b0, size, None).await;
                    r.wait().await;
                }
            };
            let pong = async {
                for _ in 0..iters {
                    let r = r1.irecv(Source::Rank(0), PING, b1, size.max(1)).await;
                    r.wait().await;
                    send(&*r1, 0, PONG, b1, size, None).await;
                }
            };
            join2(ping, pong).await;
            let elapsed = (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64);
            // Complete the decoy receives so the world tears down clean.
            for i in 0..depth {
                send(&*r1, 0, DECOY_TAG + 1 + i as u32, b1, 4, None).await;
                send(&*r0, 1, DECOY_TAG + 1 + i as u32, b0, 4, None).await;
            }
            for d in &decoys {
                d.wait().await;
            }
            elapsed
        }
    })
}

/// Ratio loaded / empty for the unexpected-queue experiment.
pub(crate) fn fig7_ratio(kind: FabricKind, depth: usize, size: u64) -> f64 {
    let iters = 10;
    unexpected_latency(kind, depth, size, iters) / unexpected_latency(kind, 0, size, iters)
}

/// Ratio loaded / empty for the receive-queue experiment.
pub fn fig8_ratio(kind: FabricKind, depth: usize, size: u64) -> f64 {
    let iters = 10;
    receive_queue_latency(kind, depth, size, iters) / receive_queue_latency(kind, 0, size, iters)
}

/// Fig. 7 generator: one figure per fabric, one series per message size.
pub fn fig7_unexpected(kind: FabricKind) -> Figure {
    let mut fig = Figure::new(
        format!("fig7-unexpected-{}", kind.label()),
        format!("Unexpected message queue size effect ({})", kind.label()),
        "queue depth",
        "latency ratio",
    );
    for size in fig7_sizes() {
        let mut s = Series::new(format!("{size}B"));
        for d in queue_depths() {
            s.push(d as f64, fig7_ratio(kind, d, size));
        }
        fig.series.push(s);
    }
    fig
}

/// Fig. 8 generator.
pub fn fig8_receive_queue(kind: FabricKind) -> Figure {
    let mut fig = Figure::new(
        format!("fig8-recvqueue-{}", kind.label()),
        format!("Receive queue size effect ({})", kind.label()),
        "queue depth",
        "latency ratio",
    );
    for size in fig8_sizes() {
        let mut s = Series::new(format!("{size}B"));
        for d in queue_depths() {
            s.push(d as f64, fig8_ratio(kind, d, size));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexpected_queue_slows_small_messages() {
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
            let r = fig7_ratio(kind, 256, 1);
            assert!(
                r > 1.15,
                "{kind:?}: 256 unexpected msgs must show: ratio {r:.2}"
            );
        }
    }

    #[test]
    fn myrinet_handles_unexpected_best() {
        // Paper: MPICH-MX offers the best unexpected-queue behaviour (NIC
        // offload).
        let mx = fig7_ratio(FabricKind::MxoM, 256, 1);
        let iw = fig7_ratio(FabricKind::Iwarp, 256, 1);
        let ib = fig7_ratio(FabricKind::InfiniBand, 256, 1);
        assert!(
            mx < iw && mx < ib,
            "MXoM {mx:.2} must beat iWARP {iw:.2} and IB {ib:.2}"
        );
    }

    #[test]
    fn large_messages_are_insignificantly_affected() {
        let r = fig7_ratio(FabricKind::Iwarp, 256, 65536);
        assert!(r < 1.25, "64KB ratio {r:.2} should be small");
    }

    #[test]
    fn receive_queue_hurts_more_than_unexpected_for_small_messages() {
        // Paper: "the receive queue impact on performance is more than
        // twice that of [the unexpected queue] for small messages."
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
            let unex = fig7_ratio(kind, 512, 16) - 1.0;
            let posted = fig8_ratio(kind, 512, 16) - 1.0;
            assert!(
                posted > unex * 1.6,
                "{kind:?}: posted excess {posted:.2} vs unexpected excess {unex:.2}"
            );
        }
    }

    #[test]
    fn myrinet_is_worst_on_receive_queue() {
        // Paper: Myrinet's NIC walks long posted lists slowly.
        let mx = fig8_ratio(FabricKind::MxoM, 256, 16);
        let iw = fig8_ratio(FabricKind::Iwarp, 256, 16);
        let ib = fig8_ratio(FabricKind::InfiniBand, 256, 16);
        assert!(
            mx > iw && mx > ib,
            "MXoM {mx:.2} must be worst (iWARP {iw:.2}, IB {ib:.2})"
        );
    }

    #[test]
    fn iwarp_receive_queue_ratio_is_moderate() {
        // Paper: best implementation caps at ≈ 2.5.
        let iw = fig8_ratio(FabricKind::Iwarp, 512, 16);
        assert!(
            (1.3..3.2).contains(&iw),
            "iWARP fig8 ratio at 512 = {iw:.2}, paper max ≈ 2.5"
        );
    }
}
