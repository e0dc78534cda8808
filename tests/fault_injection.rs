//! Integration tests for the deterministic fault plane (ISSUE 5): with
//! loss rates up to 1e-2, every fabric's recovery protocol completes the
//! user-level ping-pong (each message delivered exactly once — the
//! simcheck `fault.delivery` oracle inside each engine enforces the
//! byte-level claim), the new `SimStats`
//! counters are populated, lossy runs are bit-deterministic, and a
//! disabled plane leaves both timing and counters untouched.

use etherstack::{LossRecovery, NicModel};
use mpisim::FabricKind;
use netbench::loss::plane_for;
use netbench::userlevel::UserPair;
use simnet::{Bytes, FaultConfig, FaultPlane, Sim, SimStats};

const MSG: u64 = 64 << 10;
const ITERS: u64 = 10;

/// One ping-pong run of `iters` round trips under `plane`: returns the
/// half-RTT and the executor's counter snapshot (faults, retransmits, RTO
/// fires included).
fn run_under(kind: FabricKind, plane: FaultPlane, iters: u64) -> (f64, SimStats) {
    let sim = Sim::new();
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            let pair = UserPair::build_with_fault(&sim, kind, plane).await;
            pair.half_rtt_us(MSG, iters).await
        }
    });
    (t, sim.stats())
}

/// One lossy run at `ppm` on the fig-loss plane of fabric `ki`.
fn lossy_run(kind: FabricKind, ki: usize, ppm: u32) -> (f64, SimStats) {
    run_under(kind, plane_for(ki, ppm), ITERS)
}

/// Wire-unit payload and loss-recovery description of an `N` NIC.
fn wire_unit<N: NicModel>(calib: N::Calib) -> (Bytes, LossRecovery) {
    (
        N::new(&Sim::new(), 0, calib).segment_payload(),
        N::LOSS_RECOVERY,
    )
}

/// Hostile input: at loss = 1.0 nothing is ever delivered on its merits,
/// so every recovery must terminate by exhausting its retry budget — one
/// initial fault plus `max_retries` failed re-judges per judged unit,
/// exactly.
#[test]
fn total_loss_terminates_with_every_unit_forced_through() {
    const ROUND_TRIPS: u64 = 2;
    for (seed, kind) in FabricKind::ALL.into_iter().enumerate() {
        let (unit, policy) = match kind {
            FabricKind::Iwarp => wire_unit::<iwarp::RnicDevice>(Default::default()),
            FabricKind::InfiniBand => wire_unit::<infiniband::HcaDevice>(Default::default()),
            FabricKind::MxoM => {
                wire_unit::<mx10g::MxNic>((mx10g::LinkMode::MxoM, Default::default()))
            }
            FabricKind::MxoE => {
                wire_unit::<mx10g::MxNic>((mx10g::LinkMode::MxoE, Default::default()))
            }
        };
        let data_units = Bytes::new(MSG).div_ceil(unit);
        // MX puts its ACKs at risk too, and at this size sends a one-packet
        // rendezvous RTS ahead of the data: one more packet and two ACKs.
        let judged_per_msg = if policy.ack_replay {
            data_units + 3
        } else {
            data_units
        };
        let plane = FaultPlane::new(FaultConfig::loss(1_000_000, seed as u64));
        let (_, stats) = run_under(kind, plane, ROUND_TRIPS);
        assert_eq!(
            stats.faults_injected,
            judged_per_msg * (u64::from(policy.max_retries) + 1) * 2 * ROUND_TRIPS,
            "{kind:?}: {data_units} data units per message"
        );
        assert!(stats.rto_fires > 0);
    }
    // Forced progress is still exactly-once delivery within the
    // retransmit budget.
    use simcheck::Rule::{FaultDelivery, FaultRetxBound};
    let oracles = simcheck::take();
    for rule in [FaultDelivery, FaultRetxBound] {
        let (checks, violations) = oracles.counts(rule);
        assert_eq!((checks > 0, violations), (true, 0), "{rule}");
    }
}

#[test]
fn every_fabric_completes_and_recovers_at_one_percent_loss() {
    for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
        let (clean, clean_stats) = lossy_run(kind, ki, 0);
        let (lossy, stats) = lossy_run(kind, ki, 10_000);
        // The run returned at all, so every transfer completed; recovery
        // must have been exercised and must have cost simulated time.
        assert!(
            stats.faults_injected > 0,
            "{kind:?}: 1% loss injected no faults over {ITERS} x {MSG} B"
        );
        assert!(
            stats.retransmits >= stats.faults_injected,
            "{kind:?}: fewer retransmits ({}) than faults ({})",
            stats.retransmits,
            stats.faults_injected
        );
        assert!(
            lossy > clean,
            "{kind:?}: recovery cost no time ({lossy:.1} vs {clean:.1} us)"
        );
        // The clean baseline must not touch the fault counters.
        assert_eq!(
            (
                clean_stats.faults_injected,
                clean_stats.retransmits,
                clean_stats.rto_fires
            ),
            (0, 0, 0),
            "{kind:?}: disabled plane bumped fault counters"
        );
    }
}

#[test]
fn recovery_protocols_differ_in_the_counters_they_burn() {
    // The three recovery designs leave distinct fingerprints at 1% loss:
    // MX has no NAK or dup-ACK signalling, so *every* recovery event
    // waits out the resend timer, while IB's go-back-N replays the whole
    // tail and so retransmits more packets than it loses.
    let kinds: Vec<(usize, FabricKind)> = FabricKind::ALL.into_iter().enumerate().collect();
    for &(ki, kind) in &kinds {
        if matches!(kind, FabricKind::MxoM | FabricKind::MxoE) {
            let (_, stats) = lossy_run(kind, ki, 10_000);
            assert!(
                stats.rto_fires > 0 && stats.rto_fires >= stats.faults_injected / 2,
                "{kind:?}: MX recovery is timeout-only, yet only {} RTOs \
                 fired for {} faults",
                stats.rto_fires,
                stats.faults_injected
            );
        }
        if matches!(kind, FabricKind::InfiniBand) {
            let (_, stats) = lossy_run(kind, ki, 10_000);
            assert!(
                stats.retransmits > stats.faults_injected,
                "IB go-back-N must replay whole tails: {} retransmits for {} faults",
                stats.retransmits,
                stats.faults_injected
            );
        }
    }
}

#[test]
fn lossy_runs_are_bit_deterministic_per_fabric() {
    for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
        let (t_a, s_a) = lossy_run(kind, ki, 1_000);
        let (t_b, s_b) = lossy_run(kind, ki, 1_000);
        assert_eq!(
            t_a.to_bits(),
            t_b.to_bits(),
            "{kind:?}: lossy timing differs across identical runs"
        );
        assert_eq!(s_a, s_b, "{kind:?}: counters differ across identical runs");
    }
}

#[test]
fn loss_rate_sweep_is_monotone_in_injected_faults() {
    // More loss means more injected faults — the sweep axis of fig-loss
    // is meaningful only if the plane actually scales with the rate.
    for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
        let (_, low) = lossy_run(kind, ki, 100);
        let (_, high) = lossy_run(kind, ki, 10_000);
        assert!(
            high.faults_injected > low.faults_injected,
            "{kind:?}: 1e-2 loss injected {} faults, 1e-4 injected {}",
            high.faults_injected,
            low.faults_injected
        );
    }
}
