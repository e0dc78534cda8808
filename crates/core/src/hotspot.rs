//! Hot-spot communication (the paper's §6 lists this experiment among
//! those omitted for space): N−1 ranks hammer one hot rank; how does the
//! per-message latency at the hot spot degrade with the number of
//! senders?

use std::rc::Rc;

use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::join_all;
use simnet::Sim;

use crate::report::{Figure, Series};

/// Mean per-message latency (µs) at the hot rank with `senders` peers
/// each sending `msgs` messages of `size` bytes.
pub(crate) fn hotspot_latency(kind: FabricKind, senders: usize, size: u64, msgs: u64) -> f64 {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, senders + 1);
    let hot = Rc::clone(world.rank(0));
    let peers: Vec<_> = (1..=senders).map(|r| Rc::clone(world.rank(r))).collect();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let t0 = sim.now();
            let mut tasks = Vec::new();
            for (i, p) in peers.iter().enumerate() {
                let p = Rc::clone(p);
                tasks.push(async move {
                    let b = p.alloc_buffer(size.max(64));
                    for _ in 0..msgs {
                        // Request to the hot rank, wait for its reply.
                        send(&*p, 0, 1, b, size, None).await;
                        recv(&*p, Source::Rank(0), 2, b, size.max(1)).await;
                    }
                    let _ = i;
                });
            }
            let hot_task = async {
                let b = hot.alloc_buffer(size.max(64));
                for _ in 0..(senders as u64 * msgs) {
                    let st = recv(&*hot, Source::Any, 1, b, size.max(1)).await;
                    send(&*hot, st.bits.rank(), 2, b, size, None).await;
                }
            };
            let all = async {
                join_all(tasks).await;
            };
            simnet::sync::join2(all, hot_task).await;
            (sim.now() - t0).as_micros_f64() / (senders as u64 * msgs) as f64
        }
    })
}

/// Hot-spot figure: per-message service time vs number of senders.
pub fn hotspot_figure(size: u64) -> Figure {
    let mut fig = Figure::new(
        "e10-hotspot",
        format!("Hot-spot request/reply service time ({size} B messages)"),
        "senders",
        "us per message",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(format!("MPI-{}", kind.label()));
        for n in [1usize, 2, 3, 5, 7] {
            s.push(n as f64, hotspot_latency(kind, n, size, 10));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_rank_service_time_grows_then_saturates() {
        for kind in [FabricKind::Iwarp, FabricKind::MxoM] {
            let t1 = hotspot_latency(kind, 1, 1024, 8);
            let t4 = hotspot_latency(kind, 4, 1024, 8);
            // One sender pays the full round trip; four senders pipeline
            // against the hot rank, so per-message service time *drops*
            // toward the hot rank's per-message processing floor.
            assert!(
                t4 < t1,
                "{kind:?}: concurrent senders should pipeline: 1={t1:.2} 4={t4:.2}"
            );
            assert!(t4 > 0.5, "{kind:?}: service time must stay physical");
        }
    }

    #[test]
    fn wildcard_receive_serves_all_senders() {
        // Correctness: every sender gets its reply (the hot loop must not
        // starve anyone).
        let t = hotspot_latency(FabricKind::InfiniBand, 7, 64, 5);
        assert!(t.is_finite() && t > 0.0);
    }
}
