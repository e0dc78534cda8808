//! Collective operations over the point-to-point layer.
//!
//! The paper's group followed this study with RDMA-based collectives work
//! (their citation \[22\]); these are the textbook algorithms MPICH-era
//! libraries built from the same send/recv primitives modelled here:
//!
//! * [`barrier`] — dissemination barrier, ⌈log₂ n⌉ rounds.
//! * [`bcast`] — binomial tree broadcast.
//! * [`allreduce_sum`] — recursive doubling (power-of-two ranks fold the
//!   remainder in a pre/post exchange).
//!
//! All ranks must call the same collective in the same order (SPMD), as in
//! MPI. Tags above `COLL_TAG_BASE` are reserved for collective internals.

use hostmodel::mem::VirtAddr;

use crate::rank::{recv, send, MpiRank, Source};

/// Tags at and above this value are reserved for collectives.
pub(crate) const COLL_TAG_BASE: u32 = 0xC011_0000;

/// Dissemination barrier: in round k every rank signals `(me + 2^k) % n`
/// and waits for a signal from `(me − 2^k) mod n`.
pub async fn barrier(rank: &dyn MpiRank, scratch: VirtAddr) {
    let n = rank.size();
    let me = rank.rank();
    if n == 1 {
        return;
    }
    let rounds = usize::BITS - (n - 1).leading_zeros();
    for k in 0..rounds {
        let dist = 1usize << k;
        let to = (me + dist) % n;
        let from = (me + n - dist % n) % n;
        let tag = COLL_TAG_BASE + 0x100 + k;
        let s = rank.isend(to, tag, scratch, 1, None).await;
        recv(rank, Source::Rank(from), tag, scratch, 1).await;
        s.wait().await;
    }
}

/// Binomial-tree broadcast of `len` bytes rooted at `root`. The root
/// passes the payload; every rank returns holding the data in `buf`.
pub async fn bcast(
    rank: &dyn MpiRank,
    root: usize,
    buf: VirtAddr,
    len: u64,
    payload: Option<Vec<u8>>,
) -> Option<Vec<u8>> {
    let n = rank.size();
    // Rotate ranks so the root is virtual rank 0.
    let me = (rank.rank() + n - root) % n;
    let tag = COLL_TAG_BASE + 0x200;
    let mut data = payload;
    // Receive from the parent (highest set bit of `me`).
    if me != 0 {
        let parent_virt = me & (me - 1); // clear lowest set bit
        let parent = (parent_virt + root) % n;
        recv(rank, Source::Rank(parent), tag, buf, len).await;
        // For correctness-tested runs the payload travels in simulated
        // memory; read it back out for forwarding.
        data = Some(rank.mem().read(buf, len));
    } else if let Some(d) = &data {
        rank.mem().write(buf, d);
    }
    // Forward to children: me + 2^k for each k above me's lowest set bit.
    let mut mask = 1usize;
    while mask < n {
        if me & mask != 0 {
            break;
        }
        let child_virt = me | mask;
        if child_virt < n && child_virt != me {
            let child = (child_virt + root) % n;
            send(rank, child, tag, buf, len, data.clone()).await;
        }
        mask <<= 1;
    }
    data
}

/// Recursive-doubling allreduce (sum) over a vector of `f64`s. Returns
/// the reduced vector. Non-power-of-two sizes fold the excess ranks into
/// the power-of-two core before doubling and fan the result back out.
pub async fn allreduce_sum(rank: &dyn MpiRank, buf: VirtAddr, mut values: Vec<f64>) -> Vec<f64> {
    let n = rank.size();
    let me = rank.rank();
    let bytes = (values.len() * 8) as u64;
    let tag = COLL_TAG_BASE + 0x300;
    if n == 1 {
        return values;
    }
    let pof2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
    let rem = n - pof2;
    // Fold: ranks ≥ pof2 send their vector to (me − rem... ) partner.
    let folded_out = me >= pof2;
    if folded_out {
        let partner = me - pof2;
        send(rank, partner, tag, buf, bytes, Some(encode(&values))).await;
    } else if me < rem {
        let partner = me + pof2;
        recv(rank, Source::Rank(partner), tag, buf, bytes).await;
        add_into(&mut values, &rank.mem().read(buf, bytes));
        charge_reduce(rank, values.len()).await;
    }
    // Doubling among the power-of-two core.
    if !folded_out {
        let mut dist = 1usize;
        while dist < pof2 {
            let partner = me ^ dist;
            let round_tag = tag + 1 + dist as u32;
            let s = rank
                .isend(partner, round_tag, buf, bytes, Some(encode(&values)))
                .await;
            recv(rank, Source::Rank(partner), round_tag, buf, bytes).await;
            s.wait().await;
            add_into(&mut values, &rank.mem().read(buf, bytes));
            charge_reduce(rank, values.len()).await;
            dist <<= 1;
        }
    }
    // Unfold: send results back to the folded-out ranks.
    if me < rem {
        send(
            rank,
            me + pof2,
            tag + 0x40,
            buf,
            bytes,
            Some(encode(&values)),
        )
        .await;
    } else if folded_out {
        recv(rank, Source::Rank(me - pof2), tag + 0x40, buf, bytes).await;
        values = decode(&rank.mem().read(buf, bytes));
    }
    values
}

fn encode(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn add_into(acc: &mut [f64], incoming: &[u8]) {
    for (a, b) in acc.iter_mut().zip(decode(incoming)) {
        *a += b;
    }
}

/// Charge the CPU for the reduction arithmetic (8 B loads + add + store
/// per element at memory speed).
async fn charge_reduce(rank: &dyn MpiRank, elems: usize) {
    rank.cpu()
        .memcpy(simnet::Bytes::new((elems * 16) as u64))
        .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{FabricKind, MpiWorld};
    use simnet::sync::join_all;
    use simnet::Sim;
    use std::rc::Rc;

    fn run_all<F, Fut>(kind: FabricKind, n: usize, f: F) -> Vec<Fut::Output>
    where
        F: Fn(Rc<dyn MpiRank>) -> Fut,
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let sim = Sim::new();
        let world = MpiWorld::build(&sim, kind, n);
        let tasks: Vec<_> = (0..n).map(|r| f(Rc::clone(world.rank(r)))).collect();
        sim.block_on(async move { join_all(tasks).await })
    }

    #[test]
    fn barrier_aligns_all_ranks() {
        for kind in [FabricKind::Iwarp, FabricKind::MxoM] {
            let exits = run_all(kind, 5, |r| async move {
                let scratch = r.alloc_buffer(64);
                // Stagger arrivals.
                r.cpu()
                    .work(simnet::SimDuration::from_micros(10 * r.rank() as u64))
                    .await;
                barrier(&*r, scratch).await;
                r.cpu().sim().now().as_nanos()
            });
            let min = exits.iter().min().unwrap();
            let max = exits.iter().max().unwrap();
            // Everyone leaves within one small-message latency of everyone
            // else, despite 0–40 µs staggered arrivals.
            assert!(
                max - min < 40_000,
                "{kind:?}: barrier exits spread {} ns",
                max - min
            );
        }
    }

    #[test]
    fn bcast_delivers_root_payload_to_all() {
        for kind in FabricKind::ALL {
            let data: Vec<u8> = (0..3_000u32).map(|i| (i % 251) as u8).collect();
            let expect = data.clone();
            let got = run_all(kind, 6, move |r| {
                let data = data.clone();
                async move {
                    let buf = r.alloc_buffer(3_000);
                    let payload = (r.rank() == 2).then(|| data.clone());
                    bcast(&*r, 2, buf, 3_000, payload).await;
                    r.mem().read(buf, 3_000)
                }
            });
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &expect, "{kind:?} rank {i}");
            }
        }
    }

    #[test]
    fn allreduce_sums_across_power_of_two_ranks() {
        let got = run_all(FabricKind::InfiniBand, 4, |r| async move {
            let buf = r.alloc_buffer(1024);
            let mine = vec![r.rank() as f64 + 1.0; 8];
            allreduce_sum(&*r, buf, mine).await
        });
        // 1+2+3+4 = 10 at every rank, every element.
        for g in &got {
            assert_eq!(g, &vec![10.0; 8]);
        }
    }

    #[test]
    fn allreduce_handles_non_power_of_two() {
        let got = run_all(FabricKind::MxoE, 5, |r| async move {
            let buf = r.alloc_buffer(256);
            allreduce_sum(&*r, buf, vec![(r.rank() + 1) as f64]).await
        });
        for g in &got {
            assert_eq!(g, &vec![15.0]);
        }
    }

    #[test]
    fn bcast_large_message_uses_rendezvous_and_still_arrives() {
        let n = 200_000u64;
        let data: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        let expect = data.clone();
        let got = run_all(FabricKind::Iwarp, 3, move |r| {
            let data = data.clone();
            async move {
                let buf = r.alloc_buffer(n);
                let payload = (r.rank() == 0).then(|| data.clone());
                bcast(&*r, 0, buf, n, payload).await;
                r.mem().read(buf, n)
            }
        });
        for g in &got {
            assert_eq!(g, &expect);
        }
    }
}
