//! End-to-end conformance run: generate a real figure, run the wire codecs,
//! the loss-recovery engines, and a sharded cluster exchange once, and
//! assert that (a) every `simcheck` oracle actually observed traffic and
//! (b) no invariant fired.

/// Drive the byte-level codecs (MPA framing, TCP segmentation, Ethernet
/// accounting, DDP reassembly) once. The figure runs are timing-only and
/// never materialize frames, so the codec-layer rules light up here.
fn run_codec_workload() {
    use etherstack::tcp::{TcpReassembler, TcpSegmenter};
    use iwarp::ddp::{DdpSegment, UntaggedReassembler};
    use iwarp::mpa::{MpaDeframer, MpaFramer};
    use iwarp::rdmap::RdmapMessage;

    let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
    let msg = RdmapMessage::Send {
        payload: payload.clone(),
    };
    let mut framer = MpaFramer::new(true);
    let mut tcp_tx = TcpSegmenter::new(0x1000, 1460);
    let mut tcp_rx = TcpReassembler::new(0x1000);
    let mut deframer = MpaDeframer::new(true);
    let mut reasm = UntaggedReassembler::new();
    let mut done = None;
    for seg in msg.to_segments(0, 1454) {
        for tcp_seg in tcp_tx.push(&framer.frame(&seg.encode())) {
            let _wire = etherstack::frame::wire_bytes(20 + 20 + tcp_seg.payload.len() as u64);
            tcp_rx.offer(tcp_seg);
        }
    }
    for ulpdu in deframer.feed(&tcp_rx.take_assembled()).expect("mpa") {
        let seg = DdpSegment::decode(&ulpdu).expect("ddp");
        if let Some(d) = reasm.offer(&seg) {
            done = Some(d);
        }
    }
    let (qn, bytes) = {
        let (qn, _msn, bytes) = done.expect("message completes");
        (qn, bytes)
    };
    assert_eq!(
        RdmapMessage::from_untagged(qn, bytes),
        Some(RdmapMessage::Send { payload })
    );
}

/// Drive every fabric's loss-recovery engine once at 1% injected loss.
/// fig1 runs fault-free, so the `fault.delivery` and `fault.retx-bound`
/// oracles only see traffic here.
fn run_fault_workload() {
    use mpisim::FabricKind;
    for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
        let sim = simnet::Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let pair = netbench::userlevel::UserPair::build_with_fault(
                    &sim,
                    kind,
                    netbench::loss::plane_for(ki, 10_000),
                )
                .await;
                pair.half_rtt_us(64 << 10, 4).await
            }
        });
    }
}

/// Drive the sharded cluster exchange once. The 2-node figure runs are
/// single-`Sim` and never cross a shard boundary, so the `shard.*` merge
/// and lookahead oracles only see traffic here (`cluster_exchange` feeds
/// its merged cross-shard trace through `simcheck::shard::check_trace`).
fn run_shard_workload() {
    use mpisim::FabricKind;
    let out = netbench::cluster::cluster_exchange(
        FabricKind::Iwarp,
        netbench::cluster::ClusterSpec::small(4),
    );
    assert!(out.cross_events > 0, "ring exchange must cross shards");
}

/// Drive the open-loop workload engine once. Every paper figure is
/// closed-loop, so the `workload.conservation` shadow tally only sees
/// traffic here (the engine cross-checks its per-tenant counters against
/// the oracle at quiesce).
fn run_openloop_workload() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let spec = netbench::workload::WorkloadSpec::rpc_kv(
        mpisim::FabricKind::Iwarp,
        2,
        8,
        simnet::SimDuration::from_micros(20),
        7,
    );
    let sink: netbench::workload::FlowSink =
        Rc::new(RefCell::new(|_t: usize, _l: simnet::SimDuration| {}));
    let out = netbench::workload::run_workload(&spec, &sink);
    assert_eq!(out.issued, out.completed, "drained run must conserve flows");
}

#[test]
fn fig1_runs_clean_under_conformance_oracles() {
    let mut groups = bench::generate_groups("fig1", 1);
    let fig1 = groups.pop().expect("the fig1 group");
    assert!(!fig1.figures.is_empty(), "fig1 must produce figures");
    assert!(fig1.oracles.total_checks() > 0, "fig1 took no checks");
    run_codec_workload();
    run_fault_workload();
    run_shard_workload();
    run_openloop_workload();

    let mut summary = fig1.oracles;
    summary.merge(simcheck::take());
    assert!(
        summary.total_checks() > 0,
        "oracles saw no traffic — wiring is dead"
    );
    assert_eq!(
        summary.total_violations(),
        0,
        "conformance violations during fig1:\n{summary}"
    );

    // Every rule must have been observed at least once; a rule with zero
    // checks means its hook fell off the hot path.
    for stats in &summary.rules {
        assert!(
            stats.checks > 0,
            "rule {} was never checked (fig1 + codec + fault + shard + open-loop workloads)",
            stats.rule
        );
    }
}
