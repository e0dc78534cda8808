//! Integration tests: end-to-end payload integrity through every protocol
//! stack — the data plane is real, not just a timing model.

use std::rc::Rc;

use mpisim::rank::{recv, send, Source};
use mpisim::{FabricKind, MpiWorld};
use simnet::Sim;

fn patterned(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u64 * 131 + seed as u64) as u8)
        .collect()
}

#[test]
fn eager_and_rendezvous_payloads_arrive_intact_everywhere() {
    for kind in FabricKind::ALL {
        // One eager-sized and one rendezvous-sized message per fabric.
        for (tag, n) in [(1u32, 2_000usize), (2, 300_000)] {
            let sim = Sim::new();
            let world = MpiWorld::build(&sim, kind, 2);
            let r0 = Rc::clone(world.rank(0));
            let r1 = Rc::clone(world.rank(1));
            sim.block_on(async move {
                let data = patterned(n, tag as u8);
                let sbuf = r0.alloc_buffer(n as u64);
                let rbuf = r1.alloc_buffer(n as u64);
                let rr = r1.irecv(Source::Rank(0), tag, rbuf, n as u64).await;
                send(&*r0, 1, tag, sbuf, n as u64, Some(data.clone())).await;
                let st = rr.wait().await;
                assert_eq!(st.len, n as u64, "{kind:?} tag {tag}");
                assert_eq!(r1.mem().read(rbuf, n as u64), data, "{kind:?} tag {tag}");
            });
        }
    }
}

#[test]
fn interleaved_tags_keep_payloads_separate() {
    for kind in FabricKind::ALL {
        let sim = Sim::new();
        let world = MpiWorld::build(&sim, kind, 2);
        let r0 = Rc::clone(world.rank(0));
        let r1 = Rc::clone(world.rank(1));
        sim.block_on(async move {
            let b = r0.alloc_buffer(64);
            for tag in 0..8u32 {
                send(&*r0, 1, tag, b, 8, Some(vec![tag as u8; 8])).await;
            }
            // Receive in reverse tag order: every message must match its
            // own tag's payload.
            for tag in (0..8u32).rev() {
                let rb = r1.alloc_buffer(64);
                let st = recv(&*r1, Source::Rank(0), tag, rb, 64).await;
                assert_eq!(st.len, 8);
                assert_eq!(
                    r1.mem().read(rb, 8),
                    vec![tag as u8; 8],
                    "{kind:?} tag {tag}"
                );
            }
        });
    }
}

#[test]
fn four_rank_ring_passes_a_token_intact() {
    for kind in FabricKind::ALL {
        let sim = Sim::new();
        let world = MpiWorld::build(&sim, kind, 4);
        let ranks: Vec<_> = (0..4).map(|r| Rc::clone(world.rank(r))).collect();
        sim.block_on(async move {
            let token = patterned(10_000, 7);
            let mut tasks = Vec::new();
            #[expect(clippy::needless_range_loop, reason = "r is the MPI rank id")]
            for r in 0..4 {
                let me = Rc::clone(&ranks[r]);
                let token = token.clone();
                tasks.push(async move {
                    let next = (r + 1) % 4;
                    let prev = (r + 3) % 4;
                    let sbuf = me.alloc_buffer(10_000);
                    let rbuf = me.alloc_buffer(10_000);
                    if r == 0 {
                        send(&*me, next, 5, sbuf, 10_000, Some(token.clone())).await;
                        recv(&*me, Source::Rank(prev), 5, rbuf, 10_000).await;
                        assert_eq!(me.mem().read(rbuf, 10_000), token, "token corrupted");
                    } else {
                        recv(&*me, Source::Rank(prev), 5, rbuf, 10_000).await;
                        let got = me.mem().read(rbuf, 10_000);
                        send(&*me, next, 5, sbuf, 10_000, Some(got)).await;
                    }
                });
            }
            simnet::sync::join_all(tasks).await;
        });
    }
}

#[test]
fn verbs_rdma_read_and_write_roundtrip() {
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            use hostmodel::cpu::{Cpu, CpuCosts};
            let fab = iwarp::IwarpFabric::new(&sim, 2);
            let cpu_a = Cpu::new(&sim, CpuCosts::default());
            let cpu_b = Cpu::new(&sim, CpuCosts::default());
            let (qa, qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
            let remote = qb.device().mem.alloc_buffer(8192);
            let stag = qb
                .device()
                .registry
                .register_pinned(&cpu_b, remote, 8192)
                .await;
            // Write a pattern, then read it back over the wire.
            let data = patterned(8192, 3);
            qa.post_send_wr(iwarp::WorkRequest::RdmaWrite {
                wr_id: 1,
                len: 8192,
                payload: Some(data.clone()),
                rkey: stag,
                remote_addr: remote,
            })
            .await;
            qa.next_cqe().await;
            let local = qa.device().mem.alloc_buffer(8192);
            qa.post_send_wr(iwarp::WorkRequest::RdmaRead {
                wr_id: 2,
                len: 8192,
                local_addr: local,
                rkey: stag,
                remote_addr: remote,
            })
            .await;
            qa.next_cqe().await;
            assert_eq!(qa.device().mem.read(local, 8192), data);
        }
    });
}

#[test]
fn outstanding_rdma_writes_complete_in_post_order() {
    // Many outstanding writes of wildly different sizes: the CQ must
    // deliver completions in post order (connection-ordered delivery).
    use hostmodel::cpu::{Cpu, CpuCosts};
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let fab = iwarp::IwarpFabric::new(&sim, 2);
            let ca = Cpu::new(&sim, CpuCosts::default());
            let cb = Cpu::new(&sim, CpuCosts::default());
            let (qa, qb) = fab.connect(0, 1, &ca, &cb).await;
            let dst = qb.device().mem.alloc_buffer(1 << 20);
            let stag = qb
                .device()
                .registry
                .register_pinned(&cb, dst, 1 << 20)
                .await;
            let sizes = [100_000u64, 4, 40_000, 16, 500_000, 8];
            for (i, &n) in sizes.iter().enumerate() {
                qa.post_send_wr(iwarp::WorkRequest::RdmaWrite {
                    wr_id: i as u64,
                    len: n,
                    payload: None,
                    rkey: stag,
                    remote_addr: dst,
                })
                .await;
            }
            for i in 0..sizes.len() as u64 {
                let cqe = qa.next_cqe().await;
                assert_eq!(cqe.wr_id, i, "completion order must follow post order");
            }
        }
    });
}

#[test]
fn simulation_time_is_monotonic_through_mixed_workloads() {
    use mpisim::rank::{recv, send, Source};
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, FabricKind::MxoE, 3);
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    let r2 = Rc::clone(world.rank(2));
    sim.block_on({
        let sim = sim.clone();
        async move {
            let mut last = sim.now();
            let b0 = r0.alloc_buffer(64 << 10);
            let b1 = r1.alloc_buffer(64 << 10);
            let b2 = r2.alloc_buffer(64 << 10);
            for round in 0..5u32 {
                let size = 1u64 << (round * 3);
                let s01 = async {
                    send(&*r0, 1, round, b0, size, None).await;
                };
                let s12 = async {
                    recv(&*r1, Source::Rank(0), round, b1, size).await;
                    send(&*r1, 2, round, b1, size, None).await;
                };
                let s20 = async {
                    recv(&*r2, Source::Rank(1), round, b2, size).await;
                };
                simnet::sync::join2(s01, simnet::sync::join2(s12, s20)).await;
                assert!(sim.now() >= last, "virtual time went backwards");
                last = sim.now();
            }
        }
    });
}
