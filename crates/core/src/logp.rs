//! Fig. 5 — parameterized LogP parameters: gap g(m), sender overhead
//! o_s(m), receiver overhead o_r(m).
//!
//! The measurement follows Kielmann's parameterized-LogP spirit adapted to
//! the simulator's exact CPU accounting: `o_s(m)` is the host-CPU busy
//! time consumed by an `MPI_Isend` call, `o_r(m)` the busy time consumed
//! receiving an already-arrived message (matching + copies + rendezvous
//! response), and `g(m)` the steady-state per-message interval of a
//! saturated stream.

use std::rc::Rc;

use mpisim::rank::Source;
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join2;
use simnet::{Sim, SimDuration};

use crate::report::{Figure, Series};
use crate::sweep::pow2_sizes;

/// Sizes swept by the LogP figure (1 B – 1 MB, as plotted by the paper).
pub(crate) fn logp_sizes() -> Vec<u64> {
    pow2_sizes(1, 1 << 20)
}

/// One fabric's LogP sample at one size.
#[derive(Clone, Copy, Debug)]
pub struct LogpSample {
    /// Gap: minimum interval between message transmissions (µs).
    pub g: f64,
    /// Sender overhead (µs).
    pub os: f64,
    /// Receiver overhead (µs).
    pub or: f64,
}

/// Measure `(g, os, or)` for one fabric and message size.
pub fn measure(kind: FabricKind, size: u64) -> LogpSample {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size.max(64));
            let b1 = r1.alloc_buffer(size.max(64));
            let k: u64 = if size > (1 << 16) { 8 } else { 24 };

            // --- g(m): saturation stream, time per message. -------------
            // Receiver pre-posts everything; sender fires the whole burst
            // and waits for the last completion.
            let stream = async {
                // Warm-up message.
                let w = r0.isend(1, 1, b0, size, None).await;
                w.wait().await;
                let t0 = sim.now();
                let mut reqs = Vec::new();
                for _ in 0..k {
                    reqs.push(r0.isend(1, 1, b0, size, None).await);
                }
                for r in &reqs {
                    r.wait().await;
                }
                (sim.now() - t0).as_micros_f64() / k as f64
            };
            let drain = async {
                for _ in 0..k + 1 {
                    let r = r1.irecv(Source::Rank(0), 1, b1, size.max(1)).await;
                    r.wait().await;
                }
            };
            let (g, ()) = join2(stream, drain).await;

            // --- o_s(m): CPU busy during the isend call. -----------------
            r0.cpu().reset_busy();
            let req = r0.isend(1, 2, b0, size, None).await;
            let os = r0.cpu().busy_time().as_micros_f64();
            let finish_send = async {
                req.wait().await;
            };
            let finish_recv = async {
                let r = r1.irecv(Source::Rank(0), 2, b1, size.max(1)).await;
                r.wait().await;
            };
            join2(finish_send, finish_recv).await;

            // --- o_r(m): CPU busy handling one arrived message. ----------
            // The message is fully in flight (or parked unexpected) before
            // the receive is posted; busy time then covers the progress
            // engine's matching, copies, and any rendezvous response.
            r1.cpu().reset_busy();
            let snd = async {
                let r = r0.isend(1, 3, b0, size, None).await;
                r.wait().await;
            };
            let rcv = async {
                // Give the message time to arrive (idle wait, not busy).
                sim.sleep(SimDuration::from_micros(300)).await;
                let r = r1.irecv(Source::Rank(0), 3, b1, size.max(1)).await;
                r.wait().await;
            };
            join2(snd, rcv).await;
            let or = r1.cpu().busy_time().as_micros_f64();

            LogpSample { g, os, or }
        }
    })
}

/// Fig. 5 generator: three figures (g, os, or), four fabric series each.
pub fn fig5_logp() -> (Figure, Figure, Figure) {
    let mut fig_g = Figure::new("fig5-gap", "LogP gap g(m)", "bytes", "us");
    let mut fig_os = Figure::new("fig5-os", "LogP sender overhead Os(m)", "bytes", "us");
    let mut fig_or = Figure::new("fig5-or", "LogP receiver overhead Or(m)", "bytes", "us");
    for kind in FabricKind::ALL {
        let mut sg = Series::new(format!("MPI-{}", kind.label()));
        let mut sos = Series::new(format!("MPI-{}", kind.label()));
        let mut sor = Series::new(format!("MPI-{}", kind.label()));
        for size in logp_sizes() {
            let s = measure(kind, size);
            sg.push(size as f64, s.g);
            sos.push(size as f64, s.os);
            sor.push(size as f64, s.or);
        }
        fig_g.series.push(sg);
        fig_os.series.push(sos);
        fig_or.series.push(sor);
    }
    (fig_g, fig_os, fig_or)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_sub_microsecond_for_tiny_messages() {
        // Paper: "the sender and receiver overheads for all of the
        // networks are ~1 µs for very short messages" thanks to offload.
        for kind in FabricKind::ALL {
            let s = measure(kind, 1);
            assert!(s.os < 1.5, "{kind:?} os(1B) = {:.2} µs", s.os);
            assert!(s.or < 1.5, "{kind:?} or(1B) = {:.2} µs", s.or);
        }
    }

    #[test]
    fn receiver_overhead_jumps_at_rendezvous_for_verbs_fabrics() {
        // Paper: dramatic o_r jump at the eager/rendezvous switch for
        // iWARP and IB (the receiver registers and answers CTS)...
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
            let eager = measure(kind, 2048);
            let rndv = measure(kind, 64 * 1024);
            assert!(
                rndv.or > eager.or * 3.0,
                "{kind:?}: or jump missing: eager {:.2} rndv {:.2}",
                eager.or,
                rndv.or
            );
        }
    }

    #[test]
    fn myrinet_progression_thread_avoids_the_or_jump() {
        // ...but not for Myrinet, whose progression thread does the work.
        let eager = measure(FabricKind::MxoM, 2048);
        let rndv = measure(FabricKind::MxoM, 64 * 1024);
        assert!(
            rndv.or < eager.or * 3.0 + 2.0,
            "MXoM or must stay flat: eager {:.2} rndv {:.2}",
            eager.or,
            rndv.or
        );
    }

    #[test]
    fn gap_grows_with_message_size() {
        for kind in FabricKind::ALL {
            let small = measure(kind, 1);
            let large = measure(kind, 1 << 20);
            assert!(
                large.g > small.g * 10.0,
                "{kind:?}: g must grow with size: {:.2} → {:.2}",
                small.g,
                large.g
            );
        }
    }

    #[test]
    fn small_message_gap_is_a_few_microseconds() {
        // Paper: g(1B) ≈ 2 µs for iWARP and Myrinet, ≈ 3 µs for IB.
        let iw = measure(FabricKind::Iwarp, 1).g;
        let ib = measure(FabricKind::InfiniBand, 1).g;
        let mx = measure(FabricKind::MxoM, 1).g;
        assert!((0.5..5.0).contains(&iw), "iWARP g(1)={iw:.2}");
        assert!((0.5..6.0).contains(&ib), "IB g(1)={ib:.2}");
        assert!((0.3..4.0).contains(&mx), "MXoM g(1)={mx:.2}");
    }
}
