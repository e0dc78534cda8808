//! Property-based tests over the protocol codecs and core data structures.
//!
//! Each property is an invariant a fuzzer should never break: framing
//! round-trips under arbitrary chunking, reassembly is permutation-proof,
//! the LRU honours recency, matching is mask-algebraic, and the event
//! queue preserves causal order.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MPA framing round-trips arbitrary message sequences under arbitrary
    /// TCP re-chunking, with and without markers.
    #[test]
    fn mpa_roundtrip(
        sizes in proptest::collection::vec(0usize..3000, 1..8),
        chunk in 1usize..97,
        markers in any::<bool>(),
    ) {
        let mut framer = iwarp::mpa::MpaFramer::new(markers);
        let mut deframer = iwarp::mpa::MpaDeframer::new(markers);
        let msgs: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 37 + j) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(framer.frame(m));
        }
        let mut got = Vec::new();
        for c in stream.chunks(chunk) {
            got.extend(deframer.feed(c).expect("valid stream"));
        }
        prop_assert_eq!(got, msgs);
    }

    /// TCP reassembly restores the stream under arbitrary segment
    /// permutations (a lossless fabric can still reorder in our tests).
    #[test]
    fn tcp_reassembly_is_permutation_proof(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        mss in 1usize..700,
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..32),
    ) {
        let mut segr = etherstack::tcp::TcpSegmenter::new(77, mss);
        let mut segs = segr.push(&data);
        let n = segs.len();
        for (a, b) in swaps {
            segs.swap(a % n, b % n);
        }
        let mut rx = etherstack::tcp::TcpReassembler::new(77);
        for s in segs {
            rx.offer(s);
        }
        prop_assert_eq!(rx.take_assembled(), data);
    }

    /// TCP reassembly under loss, reordering *and* duplication: the stream
    /// is segmented twice with different MSS values (a retransmitting
    /// sender re-frames, so replayed segments overlap the originals at
    /// arbitrary offsets), extra duplicate copies are injected, and the
    /// whole pile is delivered in a shuffled order. Losing a segment and
    /// later retransmitting it is the same offer sequence as reordering,
    /// so eventual delivery of both framings covers drop/retransmit too.
    #[test]
    fn tcp_reassembly_survives_loss_reorder_and_duplication(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        mss_a in 1usize..700,
        mss_b in 1usize..700,
        dups in proptest::collection::vec(0usize..1024, 0..12),
        swaps in proptest::collection::vec((0usize..1024, 0usize..1024), 0..64),
    ) {
        let mut segs = etherstack::tcp::TcpSegmenter::new(77, mss_a).push(&data);
        // The "retransmission" framing of the same byte stream.
        segs.extend(etherstack::tcp::TcpSegmenter::new(77, mss_b).push(&data));
        let n = segs.len();
        for &d in &dups {
            segs.push(segs[d % n].clone());
        }
        let n = segs.len();
        for (a, b) in swaps {
            segs.swap(a % n, b % n);
        }
        let mut rx = etherstack::tcp::TcpReassembler::new(77);
        for s in segs {
            rx.offer(s);
        }
        prop_assert_eq!(rx.take_assembled(), data);
    }

    /// DDP segmentation covers the payload exactly once with correct
    /// offsets and exactly one Last segment; reassembly inverts it under
    /// permutation.
    #[test]
    fn ddp_segmentation_invariants(
        len in 0usize..20_000,
        msn in 0u32..100,
        rot in 0usize..32,
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut segs = iwarp::ddp::segment_untagged(3, 0, msn, &payload, 1460);
        prop_assert_eq!(segs.iter().filter(|s| s.last).count(), 1);
        prop_assert!(segs.iter().all(|s| s.encode().len() <= 1460));
        let total: usize = segs.iter().map(|s| s.payload.len()).sum();
        prop_assert_eq!(total, payload.len());
        let n = segs.len();
        if n > 0 {
            segs.rotate_left(rot % n);
        }
        let mut r = iwarp::ddp::UntaggedReassembler::new();
        let mut done = None;
        for s in &segs {
            if let Some(d) = r.offer(s) {
                done = Some(d);
            }
        }
        let (q, m, bytes) = done.expect("completes");
        prop_assert_eq!((q, m), (0, msn));
        prop_assert_eq!(bytes, payload);
        prop_assert_eq!(r.in_flight(), 0);
    }

    /// IB packetization/reassembly inverts for arbitrary payloads.
    #[test]
    fn ib_packetization_roundtrip(
        len in 0usize..20_000,
        va in any::<u32>(),
        psn in any::<u32>(),
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        let pkts = infiniband::packets::packetize_write(
            &payload, va as u64, 9, 3, psn, 2048,
        );
        // Every packet survives an encode/decode cycle.
        for p in &pkts {
            let dec = infiniband::packets::IbPacket::decode(&p.encode());
            prop_assert_eq!(dec.as_ref(), Some(p));
        }
        let (got_va, got) =
            infiniband::packets::reassemble_write(&pkts).expect("reassembles");
        prop_assert_eq!(got_va, va as u64);
        prop_assert_eq!(got, payload);
    }

    /// The LRU never exceeds capacity and always evicts the
    /// least-recently-used key (checked against a naive model).
    #[test]
    fn lru_matches_reference_model(
        ops in proptest::collection::vec((0u8..2, 0u32..24), 1..200),
        cap in 1usize..12,
    ) {
        let mut lru = hostmodel::LruCache::new(cap);
        let mut model: Vec<u32> = Vec::new(); // most recent last
        for (op, key) in ops {
            match op {
                0 => {
                    let hit = lru.get(&key).is_some();
                    let model_hit = model.contains(&key);
                    prop_assert_eq!(hit, model_hit);
                    if model_hit {
                        model.retain(|&k| k != key);
                        model.push(key);
                    }
                }
                _ => {
                    let evicted = lru.insert(key, ());
                    model.retain(|&k| k != key);
                    model.push(key);
                    if model.len() > cap {
                        let victim = model.remove(0);
                        prop_assert_eq!(evicted.map(|(k, _)| k), Some(victim));
                    } else {
                        prop_assert!(evicted.is_none());
                    }
                }
            }
            prop_assert!(lru.len() <= cap);
            prop_assert_eq!(lru.len(), model.len());
        }
    }

    /// MX matching is reflexive under exact masks and monotone under mask
    /// widening: anything that matches a narrow mask matches a wider one.
    #[test]
    fn mx_matching_mask_algebra(
        ctx in any::<u16>(), rank in any::<u16>(), tag in any::<u32>(),
        ctx2 in any::<u16>(), rank2 in any::<u16>(), tag2 in any::<u32>(),
    ) {
        use mx10g::matching::{matches, MatchInfo};
        let a = MatchInfo::mpi(ctx, rank, tag);
        let b = MatchInfo::mpi(ctx2, rank2, tag2);
        prop_assert!(matches(a, a, MatchInfo::EXACT));
        for mask in [MatchInfo::ANY_RANK_MASK, MatchInfo::ANY_TAG_MASK] {
            if matches(a, b, MatchInfo::EXACT) {
                prop_assert!(matches(a, b, mask));
            }
            // Widening by both wildcards keeps any narrower match.
            if matches(a, b, mask) {
                prop_assert!(matches(
                    a, b, mask & MatchInfo::ANY_RANK_MASK & MatchInfo::ANY_TAG_MASK
                ));
            }
        }
    }

    /// Internet checksum verification: any header the encoder produces
    /// verifies, and flipping any single byte breaks it.
    #[test]
    fn ipv4_checksum_detects_any_single_byte_error(
        total_len in 20u16..1500,
        ident in any::<u16>(),
        flip_at in 0usize..20,
        flip_bits in 1u8..=255,
    ) {
        let h = etherstack::ipv4::Ipv4Header {
            total_len,
            ident,
            ttl: 64,
            protocol: 6,
            src: [1, 2, 3, 4],
            dst: [5, 6, 7, 8],
        };
        let mut enc = h.encode();
        prop_assert!(etherstack::ipv4::Ipv4Header::decode(&enc).is_some());
        enc[flip_at] ^= flip_bits;
        // Either the version nibble broke or the checksum catches it.
        prop_assert!(etherstack::ipv4::Ipv4Header::decode(&enc).is_none());
    }

    /// Pipe reservations never overlap and never start before `earliest`.
    #[test]
    fn pipe_reservations_are_disjoint(
        requests in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..50),
    ) {
        let sim = simnet::Sim::new();
        let pipe = simnet::Pipe::new(
            &sim,
            simnet::ByteRate::from_gbps(8),
            simnet::SimDuration::ZERO,
        );
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (earliest, bytes) in requests {
            let (s, e) = pipe.reserve(simnet::SimTime::from_nanos(earliest), simnet::Bytes::new(bytes));
            prop_assert!(s.as_nanos() >= earliest);
            prop_assert!(e > s);
            for &(os, oe) in &intervals {
                prop_assert!(
                    e.as_nanos() <= os || s.as_nanos() >= oe,
                    "overlap: [{},{}) vs [{},{})",
                    s.as_nanos(), e.as_nanos(), os, oe
                );
            }
            intervals.push((s.as_nanos(), e.as_nanos()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MPI non-overtaking: two messages from the same sender with the same
    /// tag are received in send order, for any interleaving of sizes
    /// (eager/rendezvous mixes included) on every fabric.
    #[test]
    fn mpi_messages_do_not_overtake(
        sizes in proptest::collection::vec(
            prop_oneof![1u64..4000, 6_000u64..20_000],
            2..6
        ),
        fabric in 0usize..4,
    ) {
        use mpisim::rank::{recv, send, Source};
        let kind = mpisim::FabricKind::ALL[fabric];
        let sim = simnet::Sim::new();
        let world = mpisim::MpiWorld::build(&sim, kind, 2);
        let r0 = std::rc::Rc::clone(world.rank(0));
        let r1 = std::rc::Rc::clone(world.rank(1));
        let sizes2 = sizes.clone();
        let ok = sim.block_on(async move {
            let max = *sizes2.iter().max().unwrap();
            let b0 = r0.alloc_buffer(max);
            let b1 = r1.alloc_buffer(max);
            let sender = async {
                for (i, &n) in sizes2.iter().enumerate() {
                    // Payload's first byte encodes the sequence number.
                    let mut p = vec![0u8; n as usize];
                    p[0] = i as u8;
                    send(&*r0, 1, 5, b0, n, Some(p)).await;
                }
            };
            let sizes3 = sizes2.clone();
            let receiver = async {
                let mut in_order = true;
                for (i, &n) in sizes3.iter().enumerate() {
                    let st = recv(&*r1, Source::Rank(0), 5, b1, n).await;
                    let first = r1.mem().read(b1, 1)[0];
                    in_order &= st.len == n && first == i as u8;
                }
                in_order
            };
            let ((), in_order) = simnet::sync::join2(sender, receiver).await;
            in_order
        });
        prop_assert!(ok, "{kind:?}: messages overtook each other");
    }
}

proptest! {
    // Each case runs two full cluster exchanges; a small case count keeps
    // the debug-build suite fast while still sweeping shapes and fabrics.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded engine on ANY cluster shape: every payload byte
    /// arrives, every message crosses a shard boundary exactly once, and a
    /// second run of the same spec processes the same events in the same
    /// order (event-order digest) to the same simulated end time. A
    /// failure here means the lookahead bounds dropped or duplicated a
    /// cross-shard event, or something outside the model leaked into the
    /// merge order.
    #[test]
    fn sharded_cluster_matches_serial_for_random_shapes(
        hosts in 2usize..=8,
        endpoints in 1usize..=3,
        messages in 1u64..=4,
        kib in 1u64..=64,
        propagation_ns in 0u64..=30_000,
        fabric in 0usize..4,
    ) {
        let kind = mpisim::FabricKind::ALL[fabric];
        let spec = netbench::cluster::ClusterSpec {
            hosts,
            endpoints,
            messages,
            message_bytes: kib << 10,
            threads: None,
            propagation: simnet::SimDuration::from_nanos(propagation_ns),
        };
        let out = netbench::cluster::cluster_exchange(kind, spec);
        prop_assert_eq!(out.bytes_moved, spec.total_bytes());
        prop_assert_eq!(out.cross_events, hosts as u64 * endpoints as u64 * messages);
        let again = netbench::cluster::cluster_exchange(kind, spec);
        prop_assert_eq!(again.trace_digest, out.trace_digest);
        prop_assert_eq!(again.end_ns, out.end_ns);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The open-loop arrival generator is a pure counter-stream function:
    /// for ANY (seed, stream, mean, process) the i-th interarrival gap is
    /// the same whether evaluated sequentially, in reverse random-access
    /// order, or under a scrambled executor tie-break salt
    /// (`simnet::perturb`) — nothing about evaluation context may leak
    /// into the draw. Arrival times stay nondecreasing in the flow index.
    #[test]
    fn workload_arrival_stream_is_replay_stable(
        seed in proptest::prelude::any::<u64>(),
        stream in proptest::prelude::any::<u64>(),
        mean_us in 1u64..1_000,
        burst in 1u64..16,
        bursty in proptest::prelude::any::<bool>(),
        indices in proptest::collection::vec(0u64..512, 1..24),
        salt in proptest::prelude::any::<u64>(),
    ) {
        use netbench::workload::{ArrivalProcess, ArrivalSpec};
        let spec = ArrivalSpec {
            seed,
            stream,
            mean_gap: simnet::SimDuration::from_micros(mean_us),
            process: if bursty {
                ArrivalProcess::BurstyOnOff { burst }
            } else {
                ArrivalProcess::Poisson
            },
        };
        // Forward pass on the calling thread.
        let forward: Vec<u64> =
            indices.iter().map(|&i| spec.gap(i).as_nanos()).collect();
        // Reverse random-access pass under a perturbed tie-break salt: the
        // salt scrambles executor pop order among ties, and a pure counter
        // stream must not notice.
        let reversed: Vec<u64> = simnet::perturb::with_tie_break_salt(salt, || {
            let mut v: Vec<u64> =
                indices.iter().rev().map(|&i| spec.gap(i).as_nanos()).collect();
            v.reverse();
            v
        });
        prop_assert_eq!(&forward, &reversed);
        // Every gap is finite-by-construction and positive for any draw
        // (the uniform is in (0,1], so -ln(u) never overflows, and the
        // engine's timer math never sees a zero-progress arrival storm...
        // except u == 1.0 exactly, which yields a legal zero gap).
        // Arrival times are nondecreasing prefix sums of those gaps.
        let t_lo = spec.arrival_time(3).as_nanos();
        let t_hi = spec.arrival_time(7).as_nanos();
        prop_assert!(t_lo <= t_hi, "arrival_time not monotone: {t_lo} > {t_hi}");
    }
}
