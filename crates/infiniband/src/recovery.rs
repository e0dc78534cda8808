//! RC go-back-N retransmission over a [`Pipeline`]: PSN-based NAK recovery
//! with a transport ACK timer and RNR-style exponential backoff.
//!
//! InfiniBand reliable-connected QPs do not do TCP's selective repeat. The
//! responder accepts packets only in PSN order; a hole makes it discard
//! everything after the missing packet and return an out-of-sequence NAK,
//! and the requester then **rewinds to the lost PSN and resends the whole
//! tail** (go-back-N). A lost *tail* packet produces no NAK at all — the
//! requester's Local ACK Timeout fires instead, and repeated expiries back
//! off exponentially the way an RNR NAK schedule does.
//!
//! The transfer is judged packet-by-packet (at the path MTU) against a
//! [`FaultPlane`]; contiguous delivered runs are streamed through the
//! pipeline in one reservation so a healthy stream keeps the cut-through
//! fast path. Each recovery event charges the protocol's real latency
//! (NAK round trip or ACK timeout) and counts `tail_len` retransmissions —
//! the go-back-N inefficiency the `fig-loss` experiment contrasts against
//! TCP's one-segment fast retransmit.
//!
//! With the plane disabled the function is one branch and a tail call to
//! [`Pipeline::transfer`] — bit-identical to the pre-fault code path.

use etherstack::RecoveryStats;
use simnet::{Bytes, FaultDecision, FaultPlane, Pipeline, Sim, SimDuration};

/// RC retransmission-timer calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbTuning {
    /// Requester Local ACK Timeout: fires when a tail packet (or its ACK)
    /// vanishes and no NAK can be generated.
    pub ack_timeout: SimDuration,
    /// Time from a mid-stream loss to the responder's out-of-sequence NAK
    /// arriving back — about one round trip.
    pub nak_delay: SimDuration,
    /// Consecutive-timeout ceiling: the ACK timer doubles per attempt up to
    /// `ack_timeout << max_backoff_exp` (the RNR backoff schedule).
    pub max_backoff_exp: u32,
    /// Retry budget per packet (the QP's Retry Count). Past it the model
    /// forces the packet through so pathological configured rates still
    /// terminate; real hardware would transition the QP to the error state.
    pub max_retries: u32,
}

impl IbTuning {
    /// Timers scaled to the MHEA28-XT fabric's ~9 µs RTT.
    pub const fn mellanox() -> Self {
        IbTuning {
            ack_timeout: SimDuration::from_micros(40),
            nak_delay: SimDuration::from_micros(10),
            max_backoff_exp: 6,
            max_retries: 16,
        }
    }
}

impl Default for IbTuning {
    fn default() -> Self {
        IbTuning::mellanox()
    }
}

/// Stream `bytes` through `path` in `mtu`-sized packets with RC go-back-N
/// recovery against `plane`. Resolves when the last byte clears the
/// pipeline (exactly like [`Pipeline::transfer`], which it becomes when the
/// plane is disabled). `stream` keys the plane's per-connection decision
/// counter and tags conformance reports.
#[allow(clippy::too_many_arguments)]
pub async fn transfer_go_back_n(
    sim: &Sim,
    plane: &FaultPlane,
    path: &Pipeline,
    stream: u64,
    bytes: Bytes,
    mtu: Bytes,
    per_packet_overhead: Bytes,
    tuning: &IbTuning,
) -> RecoveryStats {
    if !plane.enabled() {
        path.transfer(bytes, per_packet_overhead).await;
        return RecoveryStats::default();
    }
    let mtu = mtu.max(Bytes::new(1));
    let npkts = bytes.div_ceil(mtu).max(1);
    // Byte length of the packet run [lo, hi): full MTUs plus a short tail.
    let run_bytes = |lo: u64, hi: u64| -> Bytes {
        if hi == npkts {
            bytes - mtu * lo
        } else {
            mtu * (hi - lo)
        }
    };
    let mut stats = RecoveryStats::default();
    #[cfg(feature = "simcheck")]
    let mut oracle = simcheck::fault::DeliveryOracle::new("ib", stream, npkts);
    #[cfg(feature = "simcheck")]
    let mut observe_run = |lo: u64, hi: u64, now_ns: u64| {
        for idx in lo..hi {
            let _ = oracle.on_deliver(idx, Some(now_ns));
        }
    };

    let mut run_start = 0u64;
    let mut i = 0u64;
    while i < npkts {
        match plane.judge(sim, stream) {
            FaultDecision::Deliver => {
                i += 1;
            }
            FaultDecision::Delay => {
                stats.faults += 1;
                path.transfer(run_bytes(run_start, i + 1), per_packet_overhead)
                    .await;
                sim.sleep(plane.delay()).await;
                #[cfg(feature = "simcheck")]
                observe_run(run_start, i + 1, sim.now().as_nanos());
                i += 1;
                run_start = i;
            }
            FaultDecision::Drop | FaultDecision::Corrupt => {
                stats.faults += 1;
                // The responder saw (and ACKed) everything up to the hole;
                // stream that prefix out before recovering.
                if run_start < i {
                    path.transfer(run_bytes(run_start, i), per_packet_overhead)
                        .await;
                    #[cfg(feature = "simcheck")]
                    observe_run(run_start, i, sim.now().as_nanos());
                }
                // Go-back-N: the responder discards the out-of-order tail,
                // so the whole span [i, npkts) is resent on every attempt.
                let tail = npkts - i;
                let mut attempt = 0u32;
                loop {
                    if attempt == 0 && tail > 1 {
                        // Packets behind the hole arrive out of PSN order;
                        // the responder NAKs the missing PSN after ~RTT.
                        sim.sleep(tuning.nak_delay).await;
                    } else {
                        // Tail loss (no later packet to trigger a NAK) or a
                        // lost retransmission: the Local ACK Timeout fires,
                        // backing off per consecutive expiry.
                        let exp = attempt.min(tuning.max_backoff_exp);
                        sim.sleep(tuning.ack_timeout * (1u64 << exp)).await;
                        sim.note_rto_fire();
                        stats.rto_fires += 1;
                    }
                    sim.note_retransmits(tail);
                    stats.retransmits += tail;
                    attempt += 1;
                    let delivered = attempt > tuning.max_retries
                        || matches!(
                            plane.judge(sim, stream),
                            FaultDecision::Deliver | FaultDecision::Delay
                        );
                    if delivered {
                        path.transfer(run_bytes(i, i + 1), per_packet_overhead)
                            .await;
                        #[cfg(feature = "simcheck")]
                        observe_run(i, i + 1, sim.now().as_nanos());
                        break;
                    }
                    stats.faults += 1;
                }
                i += 1;
                run_start = i;
            }
        }
    }
    if run_start < npkts {
        path.transfer(run_bytes(run_start, npkts), per_packet_overhead)
            .await;
        #[cfg(feature = "simcheck")]
        observe_run(run_start, npkts, sim.now().as_nanos());
    }
    #[cfg(feature = "simcheck")]
    {
        let now = Some(sim.now().as_nanos());
        let _ = oracle.finish(now);
        // Go-back-N resends at most the whole message per recovery event.
        let _ = simcheck::fault::check_retransmit_bound(
            "ib",
            stream,
            stats.faults,
            stats.retransmits,
            npkts,
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
                Pipe::new(sim, ByteRate::from_gbps(8), SimDuration::ZERO),
                SimDuration::from_nanos(740),
            ),
            Stage::new(
                Pipe::new(sim, ByteRate::from_gbps(8), SimDuration::ZERO),
                SimDuration::from_nanos(100),
            ),
        ];
        Pipeline::new(sim, stages, Bytes::new(2048))
    }

    fn run(plane: FaultPlane, bytes: u64) -> (f64, RecoveryStats, simnet::SimStats) {
        let sim = Sim::new();
        let path = test_path(&sim);
        let stats = sim.block_on({
            let sim2 = sim.clone();
            async move {
                transfer_go_back_n(
                    &sim2,
                    &plane,
                    &path,
                    11,
                    Bytes::new(bytes),
                    Bytes::new(2048),
                    Bytes::new(42),
                    &IbTuning::mellanox(),
                )
                .await
            }
        });
        (sim.now().as_micros_f64(), stats, sim.stats())
    }

    #[test]
    fn disabled_plane_is_bit_identical_to_plain_transfer() {
        let sim = Sim::new();
        let path = test_path(&sim);
        sim.block_on(async move {
            path.transfer(Bytes::new(1 << 20), Bytes::new(42)).await;
        });
        let baseline = sim.now().as_nanos();
        let (t, stats, sstats) = run(FaultPlane::disabled(), 1 << 20);
        assert_eq!((t * 1000.0).round() as u64, baseline);
        assert_eq!(stats, RecoveryStats::default());
        assert_eq!(sstats.faults_injected, 0);
        assert_eq!(sstats.retransmits, 0);
    }

    #[test]
    fn loss_slows_the_transfer_and_resends_whole_tails() {
        let (t_clean, _, _) = run(FaultPlane::disabled(), 1 << 20);
        // 1% loss over 512 packets: expect several recovery events.
        let plane = FaultPlane::new(FaultConfig::loss(10_000, 99));
        let (t_lossy, stats, sstats) = run(plane, 1 << 20);
        assert!(stats.faults > 0, "1% loss over 512 packets injected none");
        assert!(
            stats.retransmits > stats.faults,
            "go-back-N must resend more than one packet per fault \
             ({} retransmits for {} faults)",
            stats.retransmits,
            stats.faults
        );
        assert!(
            t_lossy > t_clean,
            "recovery must cost time: {t_lossy:.1} vs {t_clean:.1} µs"
        );
        assert_eq!(sstats.faults_injected, stats.faults);
        assert_eq!(sstats.retransmits, stats.retransmits);
        assert_eq!(sstats.rto_fires, stats.rto_fires);
    }

    #[test]
    fn nak_and_ack_timeout_paths_both_appear_across_seeds() {
        let mut saw_nak = false;
        let mut saw_timeout = false;
        for seed in 0..8u64 {
            let plane = FaultPlane::new(FaultConfig::loss(200_000, seed));
            let (_, stats, _) = run(plane, 100 * 2048);
            // A mid-stream loss recovered on the first attempt costs no
            // timeout; its retransmits show up without an rto_fire.
            if stats.rto_fires > 0 {
                saw_timeout = true;
            }
            if stats.faults > stats.rto_fires {
                saw_nak = true;
            }
        }
        assert!(saw_nak, "no seed exercised the NAK path");
        assert!(saw_timeout, "no seed exercised the ACK-timeout path");
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
    fn pathological_rates_still_terminate_with_exact_accounting() {
        // 100% drop, 4 packets. Each packet i: 1 initial fault + 16 failed
        // re-judges, then forced through after max_retries + 1 = 17
        // attempts, each resending the tail of npkts - i packets.
        let plane = FaultPlane::new(FaultConfig::loss(1_000_000, 1));
        let (_, stats, _) = run(plane, 4 * 2048);
        assert_eq!(stats.faults, 4 * 17);
        assert_eq!(stats.retransmits, 17 * (4 + 3 + 2 + 1));
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
                transfer_go_back_n(
                    &sim2,
                    &plane,
                    &path,
                    1,
                    Bytes::new(2 * 2048),
                    Bytes::new(2048),
                    Bytes::new(42),
                    &IbTuning::mellanox(),
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
