//! RC go-back-N retransmission: PSN-based NAK recovery with a transport
//! ACK timer and RNR-style exponential backoff, as the [`LossRecovery`]
//! that [`etherstack::transfer_reliable`] plays out for the HCA.
//!
//! InfiniBand reliable-connected QPs do not do TCP's selective repeat. The
//! responder accepts packets only in PSN order; a hole makes it discard
//! everything after the missing packet and return an out-of-sequence NAK,
//! and the requester then **rewinds to the lost PSN and resends the whole
//! tail** (go-back-N, `resend_tail`). One later packet is enough to provoke
//! the NAK, which arrives about a round trip after the loss
//! (`early_signal`). A lost *tail* packet produces no NAK at all — the
//! requester's Local ACK Timeout fires instead (`timeout`), and repeated
//! expiries back off exponentially the way an RNR NAK schedule does. The
//! retry budget is the QP's Retry Count; past it real hardware would move
//! the QP to the error state.
//!
//! The transfer is judged packet-by-packet at the path MTU, and every
//! recovery attempt counts the whole remaining tail as retransmitted — the
//! go-back-N inefficiency the `fig-loss` experiment contrasts against TCP's
//! one-segment fast retransmit.

use etherstack::LossRecovery;
use simnet::SimDuration;

/// RC recovery with timers scaled to the MHEA28-XT fabric's ~9 µs RTT.
pub const RC_GO_BACK_N: LossRecovery = LossRecovery {
    tag: "ib",
    timeout: SimDuration::from_micros(40),
    max_backoff_exp: 6,
    max_retries: 16,
    early_signal: Some((1, SimDuration::from_micros(10))),
    resend_tail: true,
    ack_replay: false,
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
                Pipe::new(&sim, ByteRate::from_gbps(8), SimDuration::ZERO),
                SimDuration::from_nanos(740),
            ),
            Stage::new(
                Pipe::new(&sim, ByteRate::from_gbps(8), SimDuration::ZERO),
                SimDuration::from_nanos(100),
            ),
        ];
        let path = Pipeline::new(&sim, stages, Bytes::new(2048));
        sim.block_on({
            let sim = sim.clone();
            async move {
                transfer_reliable(
                    &sim,
                    &plane,
                    &path,
                    11,
                    Bytes::new(bytes),
                    Bytes::new(2048),
                    Bytes::new(42),
                    &RC_GO_BACK_N,
                )
                .await
            }
        })
    }

    #[test]
    fn loss_resends_whole_tails() {
        // 1% loss over 512 packets: expect several recovery events.
        let stats = run(FaultPlane::new(FaultConfig::loss(10_000, 99)), 1 << 20);
        assert!(stats.faults > 0, "1% loss over 512 packets injected none");
        assert!(
            stats.retransmits > stats.faults,
            "go-back-N must resend more than one packet per fault \
             ({} retransmits for {} faults)",
            stats.retransmits,
            stats.faults
        );
    }

    #[test]
    fn total_loss_resends_the_tail_on_every_attempt() {
        // 100% drop, 4 packets. Each packet i: 1 initial fault + 16 failed
        // re-judges, then forced through after max_retries + 1 = 17
        // attempts, each resending the tail of npkts - i packets.
        let stats = run(FaultPlane::new(FaultConfig::loss(1_000_000, 1)), 4 * 2048);
        assert_eq!(stats.faults, 4 * 17);
        assert_eq!(stats.retransmits, 17 * (4 + 3 + 2 + 1));
        assert!(stats.rto_fires > 0);
    }
}
