//! TCP loss recovery over a [`Pipeline`]: RTO with exponential backoff plus
//! fast retransmit on triple duplicate ACKs.
//!
//! Both TCP-based fabrics share this engine — the host-stack baseline
//! ([`crate::hostnic`]) and the iWARP RNIC (whose TOE runs the same
//! algorithms in hardware, just with tighter timers). The transfer is judged
//! segment-by-segment against a [`FaultPlane`]; contiguous delivered runs
//! are streamed through the pipeline in one reservation (preserving the
//! cut-through overlap a healthy stream enjoys), and each lost or corrupted
//! segment pays the protocol's real recovery cost:
//!
//! * **Fast retransmit** — a first loss with at least [`DUP_ACK_THRESHOLD`]
//!   segments still to follow is detected by duplicate ACKs from the
//!   out-of-order arrivals behind it, after roughly one round trip
//!   ([`TcpTuning::fast_retx_delay`]).
//! * **RTO** — a tail loss (nothing behind it to clock dup-ACKs out) or a
//!   lost retransmission waits out the retransmission timer, doubling it on
//!   each consecutive attempt up to `rto << max_backoff_exp`.
//!
//! With the plane disabled the engine is one branch and a tail call to
//! [`Pipeline::transfer`] — bit-identical to the pre-fault code path.

use simnet::{Bytes, FaultDecision, FaultPlane, Pipeline, Sim, SimDuration};

/// Duplicate-ACK count that triggers fast retransmit (RFC 5681's three).
pub const DUP_ACK_THRESHOLD: u64 = 3;

/// Send-side phases of one recovering transfer. This is the canonical
/// machine: [`fsm_next`] is the single in-crate statement of which
/// transitions exist, and `simlint --dataflow` statically diffs it against
/// `simcheck::ether::TCP_FSM_TABLE` (rule `fsm-drift`) so the model and
/// the conformance-side restatement cannot disagree silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpSendPhase {
    /// Healthy: contiguous segments stream through the pipeline.
    Streaming,
    /// A loss with enough trailing segments to clock out duplicate ACKs;
    /// retransmission fires after ~one RTT.
    FastRetx,
    /// Tail loss or lost retransmission: waiting out the (backed-off)
    /// retransmission timer.
    RtoWait,
    /// Last byte cleared the pipeline.
    Done,
}

/// Events driving [`TcpSendPhase`] through [`fsm_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpSendEvent {
    /// A segment was judged deliverable.
    SegmentDelivered,
    /// A segment was delayed in flight (queueing, no retransmit).
    SegmentDelayed,
    /// A loss detected by duplicate ACKs (trailing segments exist).
    LossFastRetx,
    /// A tail loss: nothing behind it, only the timer notices.
    LossTail,
    /// A retransmission reached the receiver.
    RetxDelivered,
    /// A retransmission was itself lost.
    RetxLost,
    /// The final segment cleared the pipeline.
    Finish,
}

impl TcpSendPhase {
    /// Variant spelling as it appears in `simcheck::ether::TCP_FSM_TABLE`
    /// rows.
    pub fn table_name(self) -> &'static str {
        match self {
            TcpSendPhase::Streaming => "Streaming",
            TcpSendPhase::FastRetx => "FastRetx",
            TcpSendPhase::RtoWait => "RtoWait",
            TcpSendPhase::Done => "Done",
        }
    }
}

impl TcpSendEvent {
    /// Event spelling as it appears in `simcheck::ether::TCP_FSM_TABLE`
    /// rows.
    pub fn table_name(self) -> &'static str {
        match self {
            TcpSendEvent::SegmentDelivered => "SegmentDelivered",
            TcpSendEvent::SegmentDelayed => "SegmentDelayed",
            TcpSendEvent::LossFastRetx => "LossFastRetx",
            TcpSendEvent::LossTail => "LossTail",
            TcpSendEvent::RetxDelivered => "RetxDelivered",
            TcpSendEvent::RetxLost => "RetxLost",
            TcpSendEvent::Finish => "Finish",
        }
    }
}

/// Canonical recovery transition function: `None` means the event cannot
/// occur in `from` (e.g. a fresh loss while already waiting on the timer —
/// the engine handles one hole at a time).
pub fn fsm_next(from: TcpSendPhase, ev: TcpSendEvent) -> Option<TcpSendPhase> {
    match (from, ev) {
        (TcpSendPhase::Streaming, TcpSendEvent::SegmentDelivered) => Some(TcpSendPhase::Streaming),
        (TcpSendPhase::Streaming, TcpSendEvent::SegmentDelayed) => Some(TcpSendPhase::Streaming),
        (TcpSendPhase::Streaming, TcpSendEvent::LossFastRetx) => Some(TcpSendPhase::FastRetx),
        (TcpSendPhase::Streaming, TcpSendEvent::LossTail) => Some(TcpSendPhase::RtoWait),
        (TcpSendPhase::FastRetx, TcpSendEvent::RetxDelivered) => Some(TcpSendPhase::Streaming),
        (TcpSendPhase::FastRetx, TcpSendEvent::RetxLost) => Some(TcpSendPhase::RtoWait),
        (TcpSendPhase::RtoWait, TcpSendEvent::RetxDelivered) => Some(TcpSendPhase::Streaming),
        (TcpSendPhase::RtoWait, TcpSendEvent::RetxLost) => Some(TcpSendPhase::RtoWait),
        (TcpSendPhase::Streaming, TcpSendEvent::Finish) => Some(TcpSendPhase::Done),
        _ => None,
    }
}

/// Advance a tracked phase, debug-asserting the move is one the machine
/// admits. Pure bookkeeping: no simulated time is touched, so enabling the
/// tracking cannot perturb transfer timing.
fn fsm_step(phase: &mut TcpSendPhase, ev: TcpSendEvent) {
    match fsm_next(*phase, ev) {
        Some(next) => *phase = next,
        None => debug_assert!(false, "illegal recovery transition {phase:?} --{ev:?}"),
    }
}

/// Recovery-timer calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTuning {
    /// Initial retransmission timeout. Real stacks clamp this to hundreds
    /// of milliseconds; the simulated fabrics scale it to their
    /// microsecond RTTs so recovery dynamics (not absolute wall time)
    /// match the protocol.
    pub rto: SimDuration,
    /// Consecutive-backoff ceiling: the timeout doubles per attempt up to
    /// `rto << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// Time from a loss to the third duplicate ACK arriving back — about
    /// one round trip at the fabric's latency.
    pub fast_retx_delay: SimDuration,
    /// Retransmission attempts per segment before the model stops
    /// re-judging and forces the segment through (keeps pathological
    /// configured rates terminating; real stacks reset the connection).
    pub max_retries: u32,
}

impl TcpTuning {
    /// Host-software-stack timers (interrupt-driven, kernel granularity).
    pub fn host_stack() -> Self {
        TcpTuning {
            rto: SimDuration::from_micros(200),
            max_backoff_exp: 6,
            fast_retx_delay: SimDuration::from_micros(40),
            max_retries: 16,
        }
    }

    /// TCP-offload-engine timers (hardware retransmit state machine).
    pub const fn offload() -> Self {
        TcpTuning {
            rto: SimDuration::from_micros(60),
            max_backoff_exp: 6,
            fast_retx_delay: SimDuration::from_micros(12),
            max_retries: 16,
        }
    }
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning::host_stack()
    }
}

/// What one recovering transfer cost, for callers that report per-transfer
/// accounting (the same quantities are accumulated globally in
/// [`simnet::SimStats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults this transfer absorbed (drops + corruptions + delays).
    pub faults: u64,
    /// Segments (IB: packets — go-back-N resends the whole tail)
    /// retransmitted.
    pub retransmits: u64,
    /// Retransmission-timer (IB: Local ACK Timeout) expiries.
    pub rto_fires: u64,
}

/// Stream `bytes` through `path` in `mss`-sized segments with TCP loss
/// recovery against `plane`. Resolves when the last byte clears the
/// pipeline (exactly like [`Pipeline::transfer`], which it becomes when the
/// plane is disabled). `stream` keys the plane's per-connection decision
/// counter and tags conformance reports; `fabric` is the simcheck fabric
/// tag of the caller.
#[allow(clippy::too_many_arguments)]
pub async fn transfer_with_recovery(
    sim: &Sim,
    plane: &FaultPlane,
    path: &Pipeline,
    fabric: &'static str,
    stream: u64,
    bytes: Bytes,
    mss: Bytes,
    per_segment_overhead: Bytes,
    tuning: &TcpTuning,
) -> RecoveryStats {
    let _ = fabric;
    if !plane.enabled() {
        path.transfer(bytes, per_segment_overhead).await;
        return RecoveryStats::default();
    }
    let mss = mss.max(Bytes::new(1));
    let nsegs = bytes.div_ceil(mss).max(1);
    // Byte length of the segment run [lo, hi): all full MSS except a
    // possibly short tail.
    let run_bytes = |lo: u64, hi: u64| -> Bytes {
        if hi == nsegs {
            bytes - mss * lo
        } else {
            mss * (hi - lo)
        }
    };
    let mut stats = RecoveryStats::default();
    #[cfg(feature = "simcheck")]
    let mut oracle = simcheck::fault::DeliveryOracle::new(fabric, stream, nsegs);
    #[cfg(feature = "simcheck")]
    let mut observe_run = |lo: u64, hi: u64, now_ns: u64| {
        for idx in lo..hi {
            let _ = oracle.on_deliver(idx, Some(now_ns));
        }
    };

    let mut phase = TcpSendPhase::Streaming;
    let mut run_start = 0u64;
    let mut i = 0u64;
    while i < nsegs {
        match plane.judge(sim, stream) {
            FaultDecision::Deliver => {
                fsm_step(&mut phase, TcpSendEvent::SegmentDelivered);
                i += 1;
            }
            FaultDecision::Delay => {
                fsm_step(&mut phase, TcpSendEvent::SegmentDelayed);
                stats.faults += 1;
                // Everything up to and including the delayed segment is on
                // the wire; the delay adds queueing latency behind it.
                path.transfer(run_bytes(run_start, i + 1), per_segment_overhead)
                    .await;
                sim.sleep(plane.delay()).await;
                #[cfg(feature = "simcheck")]
                observe_run(run_start, i + 1, sim.now().as_nanos());
                i += 1;
                run_start = i;
            }
            FaultDecision::Drop | FaultDecision::Corrupt => {
                stats.faults += 1;
                // The loss is discovered only after the preceding run (and,
                // for fast retransmit, the segments behind it) reached the
                // receiver: stream out what was sent so far first.
                if run_start < i {
                    path.transfer(run_bytes(run_start, i), per_segment_overhead)
                        .await;
                    #[cfg(feature = "simcheck")]
                    observe_run(run_start, i, sim.now().as_nanos());
                }
                let mut attempt = 0u32;
                loop {
                    let trailing = nsegs - 1 - i;
                    if attempt == 0 && trailing >= DUP_ACK_THRESHOLD {
                        // Out-of-order arrivals behind the hole clock out
                        // duplicate ACKs; the third triggers retransmission
                        // about one RTT after the loss.
                        fsm_step(&mut phase, TcpSendEvent::LossFastRetx);
                        sim.sleep(tuning.fast_retx_delay).await;
                    } else {
                        // Tail loss or lost retransmission: wait out the
                        // timer, doubling per consecutive attempt.
                        if attempt == 0 {
                            fsm_step(&mut phase, TcpSendEvent::LossTail);
                        }
                        let exp = attempt.min(tuning.max_backoff_exp);
                        sim.sleep(tuning.rto * (1u64 << exp)).await;
                        sim.note_rto_fire();
                        stats.rto_fires += 1;
                    }
                    sim.note_retransmits(1);
                    stats.retransmits += 1;
                    attempt += 1;
                    let delivered = attempt > tuning.max_retries
                        || matches!(
                            plane.judge(sim, stream),
                            FaultDecision::Deliver | FaultDecision::Delay
                        );
                    if delivered {
                        fsm_step(&mut phase, TcpSendEvent::RetxDelivered);
                        path.transfer(run_bytes(i, i + 1), per_segment_overhead)
                            .await;
                        #[cfg(feature = "simcheck")]
                        observe_run(i, i + 1, sim.now().as_nanos());
                        break;
                    }
                    fsm_step(&mut phase, TcpSendEvent::RetxLost);
                    stats.faults += 1;
                }
                i += 1;
                run_start = i;
            }
        }
    }
    if run_start < nsegs {
        path.transfer(run_bytes(run_start, nsegs), per_segment_overhead)
            .await;
        #[cfg(feature = "simcheck")]
        observe_run(run_start, nsegs, sim.now().as_nanos());
    }
    fsm_step(&mut phase, TcpSendEvent::Finish);
    debug_assert_eq!(phase, TcpSendPhase::Done, "transfer must end in Done");
    #[cfg(feature = "simcheck")]
    {
        let now = Some(sim.now().as_nanos());
        let _ = oracle.finish(now);
        // Selective repeat: every drop/corrupt costs at most one
        // retransmission (a lost retransmission is itself a new fault).
        let _ = simcheck::fault::check_retransmit_bound(
            fabric,
            stream,
            stats.faults,
            stats.retransmits,
            1,
            now,
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ByteRate, FaultConfig, Pipe, Stage};

    fn test_path(sim: &Sim) -> Pipeline {
        let stages = vec![
            Stage::new(
                Pipe::new(sim, ByteRate::from_gbps(10), SimDuration::ZERO),
                SimDuration::from_nanos(300),
            ),
            Stage::new(
                Pipe::new(sim, ByteRate::from_gbps(10), SimDuration::ZERO),
                SimDuration::from_nanos(500),
            ),
        ];
        Pipeline::new(sim, stages, Bytes::new(1448))
    }

    fn run(plane: FaultPlane, bytes: u64) -> (f64, RecoveryStats, simnet::SimStats) {
        let sim = Sim::new();
        let path = test_path(&sim);
        let stats = sim.block_on({
            let sim2 = sim.clone();
            async move {
                transfer_with_recovery(
                    &sim2,
                    &plane,
                    &path,
                    "ether",
                    7,
                    Bytes::new(bytes),
                    Bytes::new(1448),
                    Bytes::new(98),
                    &TcpTuning::host_stack(),
                )
                .await
            }
        });
        (sim.now().as_micros_f64(), stats, sim.stats())
    }

    /// The crate machine and the conformance table must agree on every
    /// (phase, event) pair — the runtime complement of the static
    /// `fsm-drift` diff in `simlint --dataflow`.
    #[cfg(feature = "simcheck")]
    #[test]
    fn recovery_machine_matches_simcheck_table_exhaustively() {
        use TcpSendEvent::{
            Finish, LossFastRetx, LossTail, RetxDelivered, RetxLost, SegmentDelayed,
            SegmentDelivered,
        };
        use TcpSendPhase::{Done, FastRetx, RtoWait, Streaming};
        for from in [Streaming, FastRetx, RtoWait, Done] {
            for ev in [
                SegmentDelivered,
                SegmentDelayed,
                LossFastRetx,
                LossTail,
                RetxDelivered,
                RetxLost,
                Finish,
            ] {
                let machine = fsm_next(from, ev).map(TcpSendPhase::table_name);
                let table = simcheck::fsm_lookup(
                    simcheck::ether::TCP_FSM_TABLE,
                    from.table_name(),
                    ev.table_name(),
                );
                assert_eq!(machine, table, "{from:?} --{ev:?}--> disagrees");
            }
        }
    }

    #[test]
    fn disabled_plane_is_bit_identical_to_plain_transfer() {
        let sim = Sim::new();
        let path = test_path(&sim);
        sim.block_on(async move {
            path.transfer(Bytes::new(1 << 20), Bytes::new(98)).await;
        });
        let baseline = sim.now().as_nanos();
        let (t, stats, sstats) = run(FaultPlane::disabled(), 1 << 20);
        assert_eq!((t * 1000.0).round() as u64, baseline);
        assert_eq!(stats, RecoveryStats::default());
        assert_eq!(sstats.faults_injected, 0);
        assert_eq!(sstats.retransmits, 0);
        assert_eq!(sstats.rto_fires, 0);
    }

    #[test]
    fn loss_slows_the_transfer_and_counts_recovery_work() {
        let (t_clean, _, _) = run(FaultPlane::disabled(), 1 << 20);
        // 1% loss over ~725 segments: expect several faults.
        let plane = FaultPlane::new(FaultConfig::loss(10_000, 99));
        let (t_lossy, stats, sstats) = run(plane, 1 << 20);
        assert!(stats.faults > 0, "1% loss over 725 segments injected none");
        assert_eq!(stats.retransmits, stats.faults - count_delays(&stats));
        assert!(
            t_lossy > t_clean,
            "recovery must cost time: {t_lossy:.1} vs {t_clean:.1} µs"
        );
        assert_eq!(sstats.faults_injected, stats.faults);
        assert_eq!(sstats.retransmits, stats.retransmits);
        assert_eq!(sstats.rto_fires, stats.rto_fires);
    }

    // Pure-loss configs inject no delays, so every fault is a retransmit.
    fn count_delays(_stats: &RecoveryStats) -> u64 {
        0
    }

    #[test]
    fn tail_loss_pays_an_rto_and_fast_retx_does_not() {
        // Deterministically find a seed whose first fault lands in the
        // fast-retransmit region (plenty of trailing segments): with 20%
        // loss over 100 segments any seed works; verify both paths appear
        // across a few seeds.
        let mut saw_rto = false;
        let mut saw_fast = false;
        for seed in 0..8u64 {
            let plane = FaultPlane::new(FaultConfig::loss(200_000, seed));
            let (_, stats, _) = run(plane, 100 * 1448);
            if stats.retransmits > stats.rto_fires {
                saw_fast = true;
            }
            if stats.rto_fires > 0 {
                saw_rto = true;
            }
        }
        assert!(saw_fast, "no seed exercised fast retransmit");
        assert!(saw_rto, "no seed exercised the RTO path");
    }

    #[test]
    fn recovery_is_deterministic() {
        let mk = || FaultPlane::new(FaultConfig::loss(10_000, 4242));
        let (t1, s1, _) = run(mk(), 1 << 20);
        let (t2, s2, _) = run(mk(), 1 << 20);
        assert!((t1 - t2).abs() < f64::EPSILON);
        assert_eq!(s1, s2);
    }

    #[test]
    fn pathological_rates_still_terminate() {
        // 100% drop: every segment is forced through after max_retries.
        let plane = FaultPlane::new(FaultConfig::loss(1_000_000, 1));
        let (_, stats, _) = run(plane, 4 * 1448);
        assert_eq!(stats.retransmits, 4 * 17); // max_retries + 1 per segment
        assert!(stats.rto_fires > 0);
    }

    #[test]
    fn delay_faults_delay_without_retransmitting() {
        let sim = Sim::new();
        let path = test_path(&sim);
        let plane = FaultPlane::new(FaultConfig {
            drop_ppm: 0,
            corrupt_ppm: 0,
            delay_ppm: 1_000_000,
            delay: SimDuration::from_micros(50),
            seed: 3,
        });
        let stats = sim.block_on({
            let sim2 = sim.clone();
            async move {
                transfer_with_recovery(
                    &sim2,
                    &plane,
                    &path,
                    "ether",
                    1,
                    Bytes::new(2 * 1448),
                    Bytes::new(1448),
                    Bytes::new(98),
                    &TcpTuning::host_stack(),
                )
                .await
            }
        });
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.rto_fires, 0);
        assert_eq!(stats.faults, 2);
        assert!(sim.now().as_micros_f64() >= 100.0, "two 50 µs delays");
    }
}
