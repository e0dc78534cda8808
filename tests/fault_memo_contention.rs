//! Fault plane × transfer memo × contention, on both verbs providers.
//!
//! Several QPs between the same two nodes post 64 KiB RDMA Writes at once,
//! so every write contends for the shared data path, under a lossy fault
//! plane, once with the transfer memo on and once with it off. One write
//! alone goes first, so that the memo is consulted on every fabric (a
//! fully contended burst may never find the path idle). Each run
//! must deliver every write exactly once — each CQE once and in post
//! order, each payload byte where it was sent — and the `fault.delivery`
//! oracle must count exactly one delivery per wire unit plus one close per
//! transfer. The memo may change how a transfer is computed, never its
//! outcome: end time and event-order digest agree with it on and off.

use etherstack::{Fabric, VerbsNic, WorkRequest};
use hostmodel::cpu::{Cpu, CpuCosts};
use hostmodel::nic::CqeStatus;
use infiniband::HcaDevice;
use iwarp::RnicDevice;
use simcheck::Rule;
use simnet::sync::join_all;
use simnet::{FaultConfig, FaultPlane, Sim, SimStats};

const QPS: u64 = 4;
const WRITES: u64 = 4;
/// The burst's writes plus the one that goes alone.
const SLOTS: u64 = QPS * WRITES + 1;
const LEN: u64 = 64 << 10;
/// 2 % loss: a 64 KiB write is 45-ish wire units, so most writes lose one.
const LOSS_PPM: u32 = 20_000;

/// The payload of write `slot`, distinct per slot.
fn pattern(slot: u64) -> Vec<u8> {
    (0..LEN)
        .map(|i| ((i * 7 + slot * 31) % 251) as u8)
        .collect()
}

/// What a run leaves to compare.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    end_ns: u64,
    digest: u64,
    stats: SimStats,
    /// What the oracles counted: this thread's counts since the last run
    /// took them.
    oracles: simcheck::Summary,
    /// Wire units per write.
    units: u64,
}

fn lossy_burst<N: VerbsNic>(memo: bool) -> Outcome
where
    N::Calib: Default,
{
    let sim = Sim::new();
    sim.set_transfer_memo(memo);
    let fab = Fabric::<N>::new(&sim, 2);
    fab.set_fault_plane(FaultPlane::new(FaultConfig::loss(LOSS_PPM, 7)));
    let s = sim.clone();
    let units = sim.block_on(async move {
        let cpu_a = Cpu::new(&s, CpuCosts::default());
        let cpu_b = Cpu::new(&s, CpuCosts::default());
        let mut qps = Vec::new();
        for _ in 0..QPS {
            qps.push(fab.connect(0, 1, &cpu_a, &cpu_b).await.0);
        }
        let dst = fab.device(1);
        let sink = dst.mem().alloc_buffer(SLOTS * LEN);
        let rkey = dst
            .registry()
            .register_pinned(&cpu_b, sink, SLOTS * LEN)
            .await;
        let write = |wr_id, slot: u64| WorkRequest::RdmaWrite {
            wr_id,
            len: LEN,
            payload: Some(pattern(slot)),
            rkey,
            remote_addr: sink.offset(slot * LEN),
        };
        qps[0].post_send_wr(write(WRITES, SLOTS - 1)).await;
        assert_eq!(qps[0].next_cqe().await.status, CqeStatus::Success);
        let streams = qps
            .iter()
            .zip(0u64..)
            .map(|(qp, q)| async move {
                for w in 0..WRITES {
                    qp.post_send_wr(write(w, q * WRITES + w)).await;
                }
                for w in 0..WRITES {
                    let cqe = qp.next_cqe().await;
                    assert_eq!(
                        (cqe.wr_id, cqe.status, cqe.len),
                        (w, CqeStatus::Success, LEN)
                    );
                }
                assert!(qp.poll_cq().is_none(), "one CQE per write");
            })
            .collect();
        join_all(streams).await;
        for slot in 0..SLOTS {
            assert!(
                dst.mem().read(sink.offset(slot * LEN), LEN) == pattern(slot),
                "write {slot} landed wrong"
            );
        }
        LEN.div_ceil(fab.device(0).segment_payload().get())
    });
    Outcome {
        end_ns: sim.now().as_nanos(),
        digest: sim.order_trace_digest(),
        stats: sim.stats(),
        oracles: simcheck::take(),
        units,
    }
}

fn assert_once_and_memo_blind<N: VerbsNic>(name: &str)
where
    N::Calib: Default,
{
    let on = lossy_burst::<N>(true);
    let off = lossy_burst::<N>(false);
    for (memo, o) in [("on", &on), ("off", &off)] {
        let writes = SLOTS;
        let oracles = &o.oracles;
        assert_eq!(oracles.total_violations(), 0, "{name}: {oracles}");
        // One delivery per unit and one close per transfer: nothing lost,
        // nothing delivered twice.
        assert_eq!(
            oracles.counts(Rule::FaultDelivery),
            (writes * (o.units + 1), 0),
            "{name}, memo {memo}"
        );
        assert_eq!(oracles.counts(Rule::FaultRetxBound), (writes, 0), "{name}");
        assert!(
            o.stats.faults_injected > 0,
            "{name}: the plane dropped nothing"
        );
        assert!(o.stats.retransmits > 0, "{name}: nothing was recovered");
        assert!(o.stats.slow_path_falls > 0, "{name}: nothing contended");
    }
    assert!(
        on.stats.memo_hits + on.stats.memo_misses > 0,
        "{name}: memo never consulted"
    );
    assert_eq!(off.stats.memo_hits + off.stats.memo_misses, 0);
    assert_eq!(
        (on.end_ns, on.digest),
        (off.end_ns, off.digest),
        "{name}: memo moved the run"
    );
    let memo_free = |s: SimStats| SimStats {
        memo_hits: 0,
        memo_misses: 0,
        memo_evictions: 0,
        ..s
    };
    assert_eq!(memo_free(on.stats), memo_free(off.stats), "{name}");
    assert_eq!(on.oracles, off.oracles, "{name}: oracle counts");
}

#[test]
fn iwarp_lossy_contended_writes_deliver_once_with_the_memo_on_or_off() {
    assert_once_and_memo_blind::<RnicDevice>("iWARP");
}

#[test]
fn ib_lossy_contended_writes_deliver_once_with_the_memo_on_or_off() {
    assert_once_and_memo_blind::<HcaDevice>("IB");
}
