//! Loss recovery over a [`Pipeline`]: the one reliable transfer every
//! fabric sends through.
//!
//! The transfer is judged unit-by-unit (TCP segment, IB or MX packet)
//! against a [`FaultPlane`]; contiguous delivered runs are streamed through
//! the pipeline in one reservation (preserving the cut-through overlap a
//! healthy stream enjoys), and each lost unit pays its protocol's real
//! recovery cost. The stacks differ in three facts, which a
//! [`LossRecovery`] states and [`transfer_reliable`] plays out:
//!
//! * **Early signal** — does the receiver report a hole before the sender's
//!   timer fires? TCP's third duplicate ACK and IB's out-of-sequence NAK
//!   arrive about one round trip after a loss that has enough units behind
//!   it to provoke them; MX has no such signal. Without one — a tail loss,
//!   a lost retransmission — the sender waits out its retransmission timer,
//!   doubling it on each consecutive attempt up to
//!   `timeout << max_backoff_exp`.
//! * **Resend the tail** — TCP and MX retransmit the one missing unit; an IB
//!   responder discards everything behind the hole, so go-back-N resends
//!   the whole remaining tail on every attempt.
//! * **ACK replay** — MX judges the message ACK too; losing it replays a
//!   message the receiver already has.
//!
//! The constants live with their protocols: `HOST_TCP` and
//! [`TCP_OFFLOAD`] here, `infiniband::recovery::RC_GO_BACK_N` and
//! `mx10g::recovery::MX_RESEND` beside the explanation of why they have the
//! values they have.
//!
//! With the plane disabled the engine is a tail call to
//! [`Pipeline::transfer`] — bit-identical to the pre-fault code path — and
//! the recovery loop's state is never allocated.

use std::future::Future;

use simnet::{Bytes, FaultDecision, FaultPlane, Pipeline, Sim, SimDuration};

/// Send-side phases of one recovering transfer, named after the TCP sender
/// they were first written for; every protocol's transfer walks them (an
/// early NAK is `FastRetx`, any timer wait `RtoWait`). [`fsm_next`] is the
/// one statement of which transitions exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TcpSendPhase {
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
enum TcpSendEvent {
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

/// Recovery transition function: `None` means the event cannot occur in
/// `from` (e.g. a fresh loss while already waiting on the timer — the
/// engine handles one hole at a time).
fn fsm_next(from: TcpSendPhase, ev: TcpSendEvent) -> Option<TcpSendPhase> {
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

/// How one stack answers a lost unit — the protocol facts in which the
/// paper's four stacks differ under loss. Plain data: the engine never asks
/// which fabric it serves. The instances are `const`s hung on each NIC as
/// [`NicModel::LOSS_RECOVERY`](crate::NicModel::LOSS_RECOVERY).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossRecovery {
    /// Fabric tag on this stack's simcheck conformance reports.
    pub tag: &'static str,
    /// Initial retransmission timeout (TCP RTO, IB Local ACK Timeout, MX
    /// firmware resend timer). Real stacks clamp this to hundreds of
    /// milliseconds; the simulated fabrics scale it to their microsecond
    /// RTTs so recovery dynamics (not absolute wall time) match the
    /// protocol.
    pub timeout: SimDuration,
    /// Consecutive-backoff ceiling: the timeout doubles per attempt up to
    /// `timeout << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// Retransmission attempts per unit (and per message ACK) before the
    /// model stops re-judging and forces progress, so pathological
    /// configured rates terminate; real stacks reset the connection.
    pub max_retries: u32,
    /// Does the receiver report a hole before the timer fires?
    /// `Some((min_trailing_units, delay))`: a first loss with at least that
    /// many units behind it is signalled `delay` (about one round trip)
    /// later — TCP's third duplicate ACK, IB's out-of-sequence NAK. `None`:
    /// every loss waits out the timer.
    pub early_signal: Option<(u64, SimDuration)>,
    /// Go-back-N: the receiver discards everything behind a hole, so each
    /// attempt resends the whole remaining tail, not one unit.
    pub resend_tail: bool,
    /// The message ACK is itself at risk: it is judged after the data, and
    /// losing it replays the whole message (the receiver must drop
    /// [`RecoveryStats::duplicates`] replays).
    pub ack_replay: bool,
}

/// Host software TCP: fast retransmit on the third duplicate ACK, timers
/// at interrupt-driven kernel granularity.
pub(crate) const HOST_TCP: LossRecovery = LossRecovery {
    tag: "ether",
    timeout: SimDuration::from_micros(200),
    max_backoff_exp: 6,
    max_retries: 16,
    early_signal: Some((3, SimDuration::from_micros(40))),
    resend_tail: false,
    ack_replay: false,
};

/// The iWARP RNIC's TCP offload engine: the same algorithms as
/// `HOST_TCP` in a hardware retransmit state machine, so tighter timers.
pub const TCP_OFFLOAD: LossRecovery = LossRecovery {
    tag: "iwarp",
    timeout: SimDuration::from_micros(60),
    early_signal: Some((3, SimDuration::from_micros(12))),
    ..HOST_TCP
};

/// What one recovering transfer cost, for callers that report per-transfer
/// accounting (the same quantities are accumulated globally in
/// [`simnet::SimStats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults this transfer absorbed (data and ACK; drops + delays).
    pub faults: u64,
    /// Units retransmitted (go-back-N counts the whole tail per attempt,
    /// an ACK replay the whole message).
    pub retransmits: u64,
    /// Retransmission-timer expiries.
    pub rto_fires: u64,
    /// Whole-message replays caused by lost ACKs — already charged wire
    /// time here; the caller's matching layer must drop them by sequence.
    pub duplicates: u64,
}

/// Wait out the retransmission timer's `attempt`-th consecutive expiry.
async fn timer_expiry(sim: &Sim, policy: &LossRecovery, attempt: u32, stats: &mut RecoveryStats) {
    let exp = attempt.min(policy.max_backoff_exp);
    sim.sleep(policy.timeout * (1u64 << exp)).await;
    sim.note_rto_fire();
    stats.rto_fires += 1;
}

/// Stream `bytes` through `path` in `unit`-sized segments (TCP segments,
/// IB/MX packets), recovering from the losses `plane` injects the way
/// `policy` describes. Resolves when the last byte (of the final replay, if
/// ACKs were lost) clears the pipeline — exactly like
/// [`Pipeline::transfer`], which it becomes when the plane is disabled.
/// `stream` keys the plane's per-connection decision counter and tags
/// conformance reports.
///
/// A plain `fn`: whether the plane is enabled is fixed for the borrow, so
/// it is decided here and the returned future holds only the branch it
/// takes — the short fault-free one, or the recovery loop behind a `Box`
/// (every in-flight message holds this future; only a lossy run needs the
/// loop's state).
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is an independent input of one transfer, borrowed or copied as is"
)]
pub fn transfer_reliable<'a>(
    sim: &'a Sim,
    plane: &'a FaultPlane,
    path: &'a Pipeline,
    stream: u64,
    bytes: Bytes,
    unit: Bytes,
    per_unit_overhead: Bytes,
    policy: &'a LossRecovery,
) -> impl Future<Output = RecoveryStats> + 'a {
    let recovering = plane.enabled().then(|| {
        Box::pin(transfer_recovering(
            sim,
            plane,
            path,
            stream,
            bytes,
            unit,
            per_unit_overhead,
            policy,
        ))
    });
    async move {
        match recovering {
            Some(run) => run.await,
            None => {
                path.transfer(bytes, per_unit_overhead).await;
                RecoveryStats::default()
            }
        }
    }
}

/// [`transfer_reliable`] with the fault plane enabled.
#[expect(
    clippy::too_many_arguments,
    reason = "the arguments of `transfer_reliable`, passed through"
)]
async fn transfer_recovering(
    sim: &Sim,
    plane: &FaultPlane,
    path: &Pipeline,
    stream: u64,
    bytes: Bytes,
    unit: Bytes,
    per_unit_overhead: Bytes,
    policy: &LossRecovery,
) -> RecoveryStats {
    let unit = unit.max(Bytes::new(1));
    let n = bytes.div_ceil(unit).max(1);
    let mut stats = RecoveryStats::default();
    let mut oracle = simcheck::fault::DeliveryOracle::new(policy.tag, stream, n);
    let mut observe_run = |lo: u64, hi: u64, now_ns: u64| {
        for idx in lo..hi {
            let _ = oracle.on_deliver(idx, Some(now_ns));
        }
    };
    // Byte length of the unit run [lo, hi): all full units except a
    // possibly short tail. `move`: by-reference captures would be three
    // more words in the boxed state of every lossy transfer.
    let run_bytes = move |lo: u64, hi: u64| -> Bytes {
        if hi == n {
            bytes - unit * lo
        } else {
            unit * (hi - lo)
        }
    };

    let mut phase = TcpSendPhase::Streaming;
    let mut run_start = 0u64;
    let mut i = 0u64;
    while i < n {
        let mut verdict = plane.judge(sim, stream);
        let lost = verdict == FaultDecision::Drop;
        if lost {
            stats.faults += 1;
            // The loss is discovered only after the preceding run (and,
            // for an early signal, the units behind it) reached the
            // receiver: stream out what was sent so far first.
            if run_start < i {
                path.transfer(run_bytes(run_start, i), per_unit_overhead)
                    .await;
                observe_run(run_start, i, sim.now().as_nanos());
                run_start = i;
            }
            let resent = if policy.resend_tail { n - i } else { 1 };
            let mut attempt = 0u32;
            verdict = loop {
                match policy.early_signal {
                    Some((min_trailing, delay)) if attempt == 0 && n - 1 - i >= min_trailing => {
                        // Out-of-order arrivals behind the hole make the
                        // receiver report it about one RTT after the loss.
                        fsm_step(&mut phase, TcpSendEvent::LossFastRetx);
                        sim.sleep(delay).await;
                    }
                    _ => {
                        // Tail loss, lost retransmission or a receiver that
                        // never signals: wait out the timer, doubling per
                        // consecutive attempt.
                        if attempt == 0 {
                            fsm_step(&mut phase, TcpSendEvent::LossTail);
                        }
                        timer_expiry(sim, policy, attempt, &mut stats).await;
                    }
                }
                sim.note_retransmits(resent);
                stats.retransmits += resent;
                attempt += 1;
                let retx = if attempt > policy.max_retries {
                    FaultDecision::Deliver
                } else {
                    plane.judge(sim, stream)
                };
                if retx != FaultDecision::Drop {
                    fsm_step(&mut phase, TcpSendEvent::RetxDelivered);
                    break retx;
                }
                fsm_step(&mut phase, TcpSendEvent::RetxLost);
                stats.faults += 1;
            };
        } else if verdict == FaultDecision::Delay {
            fsm_step(&mut phase, TcpSendEvent::SegmentDelayed);
        } else {
            fsm_step(&mut phase, TcpSendEvent::SegmentDelivered);
        }
        // A retransmitted or delayed unit ends its run like the last one
        // does: everything up to and including it goes on the wire in one
        // reservation (a healthy stream keeps its cut-through overlap), and
        // a delay adds queueing latency behind it.
        let delayed = verdict == FaultDecision::Delay;
        if lost || delayed || i + 1 == n {
            path.transfer(run_bytes(run_start, i + 1), per_unit_overhead)
                .await;
            if delayed {
                stats.faults += 1;
                sim.sleep(plane.delay()).await;
            }
            observe_run(run_start, i + 1, sim.now().as_nanos());
            run_start = i + 1;
        }
        i += 1;
    }
    fsm_step(&mut phase, TcpSendEvent::Finish);
    debug_assert_eq!(phase, TcpSendPhase::Done, "transfer must end in Done");

    // The message ACK rides back to the sender. Losing it replays the whole
    // message: the sender cannot tell a lost message from a lost ACK, and
    // the receiver's replay filter absorbs the duplicate.
    if policy.ack_replay {
        let mut attempt = 0u32;
        loop {
            let verdict = plane.judge(sim, stream);
            if verdict == FaultDecision::Deliver {
                break;
            }
            stats.faults += 1;
            if verdict == FaultDecision::Delay {
                sim.sleep(plane.delay()).await;
                break;
            }
            if attempt >= policy.max_retries {
                break;
            }
            timer_expiry(sim, policy, attempt, &mut stats).await;
            // Duplicate flight of the whole message: real wire time,
            // dropped at the receiver's matching layer.
            path.transfer(bytes, per_unit_overhead).await;
            sim.note_retransmits(n);
            stats.retransmits += n;
            stats.duplicates += 1;
            attempt += 1;
        }
    }
    let now = Some(sim.now().as_nanos());
    let _ = oracle.finish(now);
    // Selective repeat spends at most one retransmission per fault (a
    // lost retransmission is itself a new fault); a go-back-N attempt
    // or an ACK replay at most the whole message.
    let budget = if policy.resend_tail || policy.ack_replay {
        n
    } else {
        1
    };
    let _ = simcheck::fault::check_retransmit_bound(
        policy.tag,
        stream,
        stats.faults,
        stats.retransmits,
        budget,
        now,
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ByteRate, FaultConfig, Pipe, SimStats, Stage};

    const UNIT: u64 = 1448;

    /// Go-back-N behind an early NAK: covers `resend_tail`.
    const GO_BACK_N: LossRecovery = LossRecovery {
        early_signal: Some((1, SimDuration::from_micros(10))),
        resend_tail: true,
        ..HOST_TCP
    };

    /// Timer-only sender whose ACKs are at risk: covers `early_signal: None`
    /// and `ack_replay`.
    const TIMER_ONLY: LossRecovery = LossRecovery {
        early_signal: None,
        ack_replay: true,
        ..HOST_TCP
    };

    /// Between them every field takes every kind of value.
    const POLICIES: [LossRecovery; 4] = [HOST_TCP, TCP_OFFLOAD, GO_BACK_N, TIMER_ONLY];

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
        Pipeline::new(sim, stages, Bytes::new(UNIT))
    }

    /// Elapsed nanoseconds and both sets of counters of one transfer.
    fn run(policy: &LossRecovery, plane: FaultPlane, bytes: u64) -> (u64, RecoveryStats, SimStats) {
        let sim = Sim::new();
        let path = test_path(&sim);
        let stats = sim.block_on({
            let sim = sim.clone();
            let policy = *policy;
            async move {
                transfer_reliable(
                    &sim,
                    &plane,
                    &path,
                    7,
                    Bytes::new(bytes),
                    Bytes::new(UNIT),
                    Bytes::new(98),
                    &policy,
                )
                .await
            }
        });
        (sim.now().as_nanos(), stats, sim.stats())
    }

    /// The transfer's own accounting is the executor's, counter by counter.
    fn assert_counters_agree(stats: &RecoveryStats, sstats: &SimStats) {
        assert_eq!(sstats.faults_injected, stats.faults);
        assert_eq!(sstats.retransmits, stats.retransmits);
        assert_eq!(sstats.rto_fires, stats.rto_fires);
    }

    #[test]
    fn disabled_plane_is_bit_identical_to_plain_transfer() {
        let sim = Sim::new();
        let path = test_path(&sim);
        sim.block_on(async move {
            path.transfer(Bytes::new(1 << 20), Bytes::new(98)).await;
        });
        let baseline = sim.now().as_nanos();
        for policy in &POLICIES {
            let (t, stats, sstats) = run(policy, FaultPlane::disabled(), 1 << 20);
            assert_eq!(t, baseline);
            assert_eq!(stats, RecoveryStats::default());
            assert_counters_agree(&stats, &sstats);
        }
    }

    #[test]
    fn loss_slows_the_transfer_and_counts_recovery_work() {
        let n = (1u64 << 20).div_ceil(UNIT);
        for policy in &POLICIES {
            let (t_clean, _, _) = run(policy, FaultPlane::disabled(), 1 << 20);
            // 1% loss over ~725 units: expect several faults.
            let plane = FaultPlane::new(FaultConfig::loss(10_000, 99));
            let (t_lossy, stats, sstats) = run(policy, plane, 1 << 20);
            assert!(stats.faults > 0, "1% loss over {n} units injected none");
            assert!(
                t_lossy > t_clean,
                "recovery must cost time: {t_lossy} vs {t_clean} ns"
            );
            assert_counters_agree(&stats, &sstats);
            if policy.resend_tail {
                assert!(stats.retransmits > stats.faults, "whole tails are resent");
            } else {
                // Pure loss injects no delays, so every fault is one resent
                // unit, or one replay of all n when it hit the ACK.
                assert_eq!(stats.retransmits - (n - 1) * stats.duplicates, stats.faults);
            }
            if policy.early_signal.is_none() {
                assert_eq!(stats.rto_fires, stats.faults, "only the timer notices");
            }
            if !policy.ack_replay {
                assert_eq!(stats.duplicates, 0, "no ACK is judged, so none replays");
            }
        }
    }

    #[test]
    fn tail_loss_pays_an_rto_and_fast_retx_does_not() {
        // With 20% loss over 100 units some seeds put a first fault where
        // plenty of units trail it (early signal) and some lose a tail unit
        // or a retransmission (timer): both paths must appear.
        for policy in POLICIES.iter().filter(|p| p.early_signal.is_some()) {
            let mut saw_rto = false;
            let mut saw_fast = false;
            for seed in 0..8u64 {
                let plane = FaultPlane::new(FaultConfig::loss(200_000, seed));
                let (_, stats, _) = run(policy, plane, 100 * UNIT);
                // Every fault is one recovery attempt; those that fired no
                // timer were signalled early.
                saw_fast |= stats.faults > stats.rto_fires;
                saw_rto |= stats.rto_fires > 0;
            }
            assert!(
                saw_fast,
                "{}: no seed exercised the early signal",
                policy.tag
            );
            assert!(saw_rto, "{}: no seed exercised the timer", policy.tag);
        }
    }

    #[test]
    fn recovery_is_deterministic() {
        for policy in &POLICIES {
            let mk = || FaultPlane::new(FaultConfig::loss(10_000, 4242));
            assert_eq!(run(policy, mk(), 1 << 20), run(policy, mk(), 1 << 20));
        }
    }

    #[test]
    fn pathological_rates_still_terminate() {
        // 100% drop over 4 units: each is forced through after its initial
        // fault and max_retries failed re-judges, every attempt resending
        // it (or, go-back-N, the 4, 3, 2, 1 units from it on). An ACK at
        // risk then fails as often, replaying the message max_retries times.
        for policy in &POLICIES {
            let plane = FaultPlane::new(FaultConfig::loss(1_000_000, 1));
            let (_, stats, sstats) = run(policy, plane, 4 * UNIT);
            let retries = u64::from(policy.max_retries);
            let resent = if policy.resend_tail { 4 + 3 + 2 + 1 } else { 4 };
            let replays = if policy.ack_replay { retries } else { 0 };
            assert_eq!(
                stats.faults,
                (retries + 1) * (4 + u64::from(policy.ack_replay))
            );
            assert_eq!(stats.retransmits, (retries + 1) * resent + replays * 4);
            assert_eq!(stats.duplicates, replays);
            assert!(stats.rto_fires > 0);
            assert_counters_agree(&stats, &sstats);
        }
    }

    fn delay_plane(drop_ppm: u32, delay_ppm: u32, delay_us: u64, seed: u64) -> FaultPlane {
        FaultPlane::new(FaultConfig {
            drop_ppm,
            delay_ppm,
            delay: SimDuration::from_micros(delay_us),
            seed,
        })
    }

    #[test]
    fn delay_faults_delay_without_retransmitting() {
        for policy in &POLICIES {
            let (t, stats, _) = run(policy, delay_plane(0, 1_000_000, 50, 3), 2 * UNIT);
            assert_eq!(stats.retransmits, 0);
            assert_eq!(stats.rto_fires, 0);
            assert_eq!(stats.duplicates, 0);
            // Both data units, and the ACK where it is judged.
            assert_eq!(stats.faults, 2 + u64::from(policy.ack_replay));
            assert!(t >= stats.faults * 50_000, "one 50 µs delay per fault");
        }
    }

    /// A retransmission judged `Delay` is a fault like any other: counted
    /// in the transfer's own stats and slept, not folded into "delivered".
    #[test]
    fn delayed_retransmissions_are_counted_and_slept() {
        for policy in &POLICIES {
            for seed in 0..32u64 {
                let lossy = |delay_us| delay_plane(200_000, 300_000, delay_us, seed);
                let (t, stats, sstats) = run(policy, lossy(50), 100 * UNIT);
                assert_counters_agree(&stats, &sstats);
                // The verdict stream does not depend on the configured
                // delay, so against a zero-delay twin the elapsed time
                // differs by exactly one delay per `Delay` verdict. Under
                // selective repeat the drops are the retransmits.
                if !policy.resend_tail && !policy.ack_replay {
                    let (t0, stats0, _) = run(policy, lossy(0), 100 * UNIT);
                    assert_eq!(stats0, stats);
                    assert_eq!(t - t0, (stats.faults - stats.retransmits) * 50_000);
                }
            }
        }
    }
}
