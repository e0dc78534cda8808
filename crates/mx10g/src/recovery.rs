//! MX sender-side resend: timeout-driven retransmission with whole-message
//! replays on ACK loss, as the [`LossRecovery`] that
//! [`etherstack::transfer_reliable`] plays out for the Myri-10G NIC.
//!
//! Myrinet's link layer is reliable in practice but MX does not assume it:
//! the Lanai firmware keeps every sent message until the receiver's ACK
//! returns and **resends on a timer** (`timeout`) — there is no receiver
//! NAK and no duplicate-ACK machinery (`early_signal: None`), so every loss
//! (data *or* ACK) costs a resend timeout, backed off exponentially on
//! consecutive expiries. Past the retry budget real firmware declares the
//! peer dead. A lost ACK makes the sender replay a message the receiver
//! already has (`ack_replay`); the receiving NIC drops each such replay
//! behind the message it repeats (counted by
//! [`MxLink::duplicates`](crate::MxLink::duplicates)), so the application
//! sees each message exactly once.
//!
//! The transfer is judged packet-by-packet; after the data lands the ACK is
//! judged too, and each lost ACK charges a timeout and one full-message
//! replay on the wire (reported in [`RecoveryStats::duplicates`] for the
//! caller to drop).
//!
//! [`RecoveryStats::duplicates`]: etherstack::RecoveryStats::duplicates

use etherstack::LossRecovery;
use simnet::SimDuration;

/// Firmware resend with timers scaled to the Myri-10G fabric's ~3 µs RTT.
pub const MX_RESEND: LossRecovery = LossRecovery {
    tag: "mx",
    timeout: SimDuration::from_micros(25),
    max_backoff_exp: 6,
    max_retries: 16,
    early_signal: None,
    resend_tail: false,
    ack_replay: true,
};

#[cfg(test)]
mod tests {
    use super::*;
    use etherstack::{transfer_reliable, RecoveryStats};
    use simnet::{ByteRate, Bytes, FaultConfig, FaultPlane, Pipe, Pipeline, Sim, Stage};

    fn run(plane: FaultPlane, bytes: u64) -> RecoveryStats {
        let sim = Sim::new();
        let stages = vec![
            Stage::new(
                Pipe::new(&sim, ByteRate::from_gbps(10), SimDuration::ZERO),
                SimDuration::from_nanos(400),
            ),
            Stage::new(
                Pipe::new(&sim, ByteRate::from_gbps(10), SimDuration::ZERO),
                SimDuration::from_nanos(200),
            ),
        ];
        let path = Pipeline::new(&sim, stages, Bytes::new(4096));
        sim.block_on({
            let sim = sim.clone();
            async move {
                transfer_reliable(
                    &sim,
                    &plane,
                    &path,
                    5,
                    Bytes::new(bytes),
                    Bytes::new(4096),
                    Bytes::new(16),
                    &MX_RESEND,
                )
                .await
            }
        })
    }

    #[test]
    fn ack_loss_replays_the_whole_message_across_seeds() {
        let mut saw_duplicate = false;
        for seed in 0..64u64 {
            let stats = run(FaultPlane::new(FaultConfig::loss(200_000, seed)), 4 * 4096);
            if stats.duplicates > 0 {
                saw_duplicate = true;
                assert!(
                    stats.retransmits >= 4 * stats.duplicates,
                    "each duplicate must account a whole-message replay"
                );
            }
        }
        assert!(saw_duplicate, "no seed exercised the ACK-loss replay path");
    }

    #[test]
    fn total_loss_terminates_with_exact_accounting() {
        // 100% drop, 2 packets. Each packet: 1 initial fault + 16 failed
        // re-judges = 17 faults, 17 timer-driven resends. The ACK then
        // fails 17 times (16 replays of the 2-packet message before the
        // retry budget forces completion).
        let stats = run(FaultPlane::new(FaultConfig::loss(1_000_000, 1)), 2 * 4096);
        assert_eq!(stats.faults, 17 + 17 + 17);
        assert_eq!(stats.retransmits, 17 + 17 + 16 * 2);
        assert_eq!(stats.duplicates, 16);
        assert_eq!(stats.rto_fires, 17 + 17 + 16);
    }
}
