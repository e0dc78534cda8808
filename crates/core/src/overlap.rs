//! E9 (extension) — computation/communication overlap and independent
//! progress.
//!
//! The paper's §6 notes these results were measured but cut for space; the
//! authors published them separately a year later. The mechanisms are in
//! the model, so we reproduce the experiment: overlap ability is how much
//! of a message's transfer time can hide behind host computation;
//! independent progress is whether a rendezvous completes while the
//! receiving *application* computes without entering the MPI library.

use std::rc::Rc;

use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join2;
use simnet::{Sim, SimDuration};

use crate::report::{Figure, Series};

/// Measure the sender-side overlap ratio for a `size`-byte message given
/// `compute_us` of overlappable host work: 1.0 = fully hidden, 0.0 = fully
/// serialized.
pub(crate) fn sender_overlap(kind: FabricKind, size: u64, compute_us: u64) -> f64 {
    // t_base: message alone. t_comp: compute alone. t_both: isend +
    // compute + wait. overlap = (t_base + t_comp - t_both) / min(t_base,
    // t_comp), clamped.
    let t_base = timed(kind, size, 0);
    let t_comp = compute_us as f64;
    let t_both = timed(kind, size, compute_us);
    let denom = t_base.min(t_comp).max(1e-9);
    ((t_base + t_comp - t_both) / denom).clamp(0.0, 1.0)
}

fn timed(kind: FabricKind, size: u64, compute_us: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size);
            let b1 = r1.alloc_buffer(size);
            // Warm-up.
            let warm = async {
                send(&*r0, 1, 9, b0, size, None).await;
            };
            let warm_r = async {
                recv(&*r1, Source::Rank(0), 9, b1, size).await;
            };
            join2(warm, warm_r).await;
            let t0 = sim.now();
            let snd = async {
                let req = r0.isend(1, 1, b0, size, None).await;
                r0.cpu().work(SimDuration::from_micros(compute_us)).await;
                req.wait().await;
            };
            let rcv = async {
                recv(&*r1, Source::Rank(0), 1, b1, size).await;
            };
            join2(snd, rcv).await;
            (sim.now() - t0).as_micros_f64()
        }
    })
}

/// Measure independent progress: the receiver posts its receive and then
/// computes (no MPI calls) for `compute_us`; returns the factor by which
/// the sender's rendezvous completion is delayed relative to an idle
/// receiver. 1.0 = fully independent progress.
pub(crate) fn independent_progress_delay(kind: FabricKind, size: u64, compute_us: u64) -> f64 {
    let idle = rndv_sender_completion(kind, size, 0);
    let busy = rndv_sender_completion(kind, size, compute_us);
    busy / idle
}

fn rndv_sender_completion(kind: FabricKind, size: u64, compute_us: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, 2);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let b0 = r0.alloc_buffer(size);
            let b1 = r1.alloc_buffer(size);
            // Warm the registration caches so registration cost does not
            // mask the progress effect.
            let warm_s = async {
                send(&*r0, 1, 9, b0, size, None).await;
            };
            let warm_r = async {
                recv(&*r1, Source::Rank(0), 9, b1, size).await;
            };
            join2(warm_s, warm_r).await;
            let t0 = sim.now();
            let snd = async {
                let req = r0.isend(1, 1, b0, size, None).await;
                req.wait().await;
                (sim.now() - t0).as_micros_f64()
            };
            let rcv = async {
                let req = r1.irecv(Source::Rank(0), 1, b1, size).await;
                // The application computes; the library gets no cycles.
                r1.cpu().work(SimDuration::from_micros(compute_us)).await;
                req.wait().await;
            };
            let (t_send, ()) = join2(snd, rcv).await;
            t_send
        }
    })
}

/// E9 generator: overlap ratio and progress-delay factor per fabric.
pub fn overlap_and_progress() -> (Figure, Figure) {
    let size = 256 * 1024;
    let mut fig_ov = Figure::new(
        "e9-overlap",
        "Sender-side computation/communication overlap (256 KB message)",
        "compute us",
        "overlap ratio",
    );
    let mut fig_ip = Figure::new(
        "e9-progress",
        "Independent progress: rendezvous completion delay under a busy receiver (256 KB)",
        "compute us",
        "delay factor",
    );
    for kind in FabricKind::ALL {
        let mut so = Series::new(format!("MPI-{}", kind.label()));
        let mut sp = Series::new(format!("MPI-{}", kind.label()));
        for compute in [50u64, 100, 200, 400, 800] {
            so.push(compute as f64, sender_overlap(kind, size, compute));
            sp.push(
                compute as f64,
                independent_progress_delay(kind, size, compute),
            );
        }
        fig_ov.series.push(so);
        fig_ip.series.push(sp);
    }
    (fig_ov, fig_ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myrinet_has_independent_progress() {
        // The MX progression thread advances the rendezvous while the
        // receiving application computes.
        let d = independent_progress_delay(FabricKind::MxoM, 256 * 1024, 500);
        assert!(
            d < 1.3,
            "MXoM rendezvous should finish despite busy receiver: factor {d:.2}"
        );
    }

    #[test]
    fn host_matched_mpis_stall_without_receiver_cycles() {
        // MPICH-over-verbs progress engines run inside MPI calls: a busy
        // receiver delays the CTS and the sender stalls.
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
            let d = independent_progress_delay(kind, 256 * 1024, 500);
            assert!(
                d > 1.5,
                "{kind:?} should lack independent progress: factor {d:.2}"
            );
        }
    }

    #[test]
    fn overlap_ratio_is_bounded() {
        for kind in FabricKind::ALL {
            let o = sender_overlap(kind, 256 * 1024, 200);
            assert!((0.0..=1.0).contains(&o), "{kind:?} overlap {o}");
        }
    }
}
