//! A receive posted while the receiving rank walks its posted queue for the
//! very message it wants must still meet that message.
//!
//! Rank 1 pre-posts a non-matching tag-99 receive, so every arrival walks
//! one posted entry. Rank 0 sends tag 1, and rank 1 posts the tag-1 receive
//! at a delay swept over 0–40 µs in 10 ns steps — across the arrival's
//! progress-engine window on every fabric, for an eager message and for a
//! rendezvous RTS. Every receive must complete within 5 ms of simulated
//! time.

use std::rc::Rc;

use mpisim::{FabricKind, MpiWorld, Source};
use simnet::sync::join2;
use simnet::{Sim, SimDuration};

/// Delays (ns after the send is posted) at which the tag-1 receive of a
/// `len`-byte message never completed.
fn lost_delays(kind: FabricKind, len: u64) -> Vec<u64> {
    (0..=4_000u64)
        .map(|step| step * 10)
        .filter(|&delay| {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            sim.block_on({
                let sim = sim.clone();
                async move {
                    let sbuf = r0.alloc_buffer(len);
                    let rbuf = r1.alloc_buffer(len);
                    let _decoy = r1.irecv(Source::Rank(0), 99, rbuf, len).await;
                    let send = async {
                        r0.isend(1, 1, sbuf, len, None).await;
                    };
                    let late_recv = async {
                        sim.sleep(SimDuration::from_nanos(delay)).await;
                        r1.irecv(Source::Rank(0), 1, rbuf, len).await
                    };
                    let ((), req) = join2(send, late_recv).await;
                    sim.sleep(SimDuration::from_millis(5)).await;
                    req.test().is_none()
                }
            })
        })
        .collect()
}

fn assert_none_lost(len: u64) {
    let lost: Vec<String> = FabricKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let at = lost_delays(kind, len);
            (!at.is_empty()).then(|| format!("{kind:?}: {} lost, from {} ns", at.len(), at[0]))
        })
        .collect();
    assert!(lost.is_empty(), "{len} B receives lost: {lost:?}");
}

#[test]
fn eager_receive_posted_during_the_arrival_walk_completes() {
    assert_none_lost(64);
}

#[test]
fn rendezvous_receive_posted_during_the_rts_walk_completes() {
    assert_none_lost(16 * 1024);
}
