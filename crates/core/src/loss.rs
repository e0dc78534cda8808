//! fig-loss — latency and bandwidth versus injected loss rate.
//!
//! The paper's testbed fabrics are effectively lossless, so its figures say
//! nothing about how each stack *degrades*. This experiment fills that gap
//! with the deterministic fault plane ([`simnet::fault`]): the user-level
//! ping-pong of Fig. 1 is re-run at packet-loss rates of 0, 10⁻⁴, 10⁻³ and
//! 10⁻² per packet, and each fabric recovers with its own protocol —
//! TCP selective repeat with fast retransmit (iWARP's TOE), RC go-back-N
//! with NAK/ACK-timeout (InfiniBand), and timeout-driven sender resend with
//! receiver-side replay filtering (MX).
//!
//! At rate 0 the plane is disabled and every number is bit-identical to
//! Fig. 1's machinery; that invariant is what lets the CI fig1 digest gate
//! coexist with fault injection in the same binary.

use mpisim::FabricKind;
use simnet::{FaultConfig, FaultPlane, Sim};

use crate::report::{Figure, Series};
use crate::userlevel::{user_label, UserPair};

/// Loss rates swept, in parts per million: 0, 10⁻⁴, 10⁻³, 10⁻².
pub(crate) const LOSS_RATES_PPM: [u32; 4] = [0, 100, 1_000, 10_000];

/// Message size for the sweep: large enough that every stack segments it
/// into many packets (and MX takes its rendezvous path).
pub const LOSS_MSG: u64 = 64 << 10;

const ITERS: u64 = 30;

/// The fault plane for one `(fabric, rate)` sweep point: disabled at rate
/// zero, otherwise pure loss with a seed derived from the point so each
/// cell of the figure draws an independent deterministic stream.
pub fn plane_for(kind_index: usize, ppm: u32) -> FaultPlane {
    if ppm == 0 {
        FaultPlane::disabled()
    } else {
        FaultPlane::new(FaultConfig::loss(
            ppm,
            0xF1_60_05 + (kind_index as u64) * 31 + u64::from(ppm),
        ))
    }
}

fn half_rtt_at(kind: FabricKind, kind_index: usize, ppm: u32) -> f64 {
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let pair = UserPair::build_with_fault(&sim, kind, plane_for(kind_index, ppm)).await;
            pair.half_rtt_us(LOSS_MSG, ITERS).await
        }
    })
}

/// Generate the fig-loss latency panel (64 KB half-RTT vs loss rate).
pub fn fig_loss_latency() -> Figure {
    let mut fig = Figure::new(
        "fig-loss-latency",
        "User-level 64 KB ping-pong latency vs injected loss rate",
        "loss ppm",
        "latency us",
    );
    for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
        let mut series = Series::new(user_label(kind));
        for ppm in LOSS_RATES_PPM {
            series.push(f64::from(ppm), half_rtt_at(kind, ki, ppm));
        }
        fig.series.push(series);
    }
    fig
}

/// Generate the fig-loss bandwidth panel, computed from latency exactly as
/// Fig. 1 does: `MB/s = bytes / half_rtt_us`.
pub fn fig_loss_bandwidth() -> Figure {
    let lat = fig_loss_latency();
    let mut fig = Figure::new(
        "fig-loss-bandwidth",
        "User-level 64 KB bandwidth vs injected loss rate (computed from latency)",
        "loss ppm",
        "MB/s",
    );
    for s in &lat.series {
        let mut out = Series::new(s.label.clone());
        for (x, t_us) in &s.points {
            out.push(*x, LOSS_MSG as f64 / t_us);
        }
        fig.series.push(out);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_bit_identical_to_the_clean_build() {
        for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
            let clean = {
                let sim = Sim::new();
                sim.block_on({
                    let sim = sim.clone();
                    async move {
                        let pair = UserPair::build(&sim, kind).await;
                        pair.half_rtt_us(LOSS_MSG, 3).await
                    }
                })
            };
            let gated = {
                let sim = Sim::new();
                sim.block_on({
                    let sim = sim.clone();
                    async move {
                        let pair = UserPair::build_with_fault(&sim, kind, plane_for(ki, 0)).await;
                        pair.half_rtt_us(LOSS_MSG, 3).await
                    }
                })
            };
            assert!(
                (clean - gated).abs() < f64::EPSILON,
                "{kind:?}: disabled plane changed timing {clean} vs {gated}"
            );
        }
    }

    #[test]
    fn one_percent_loss_costs_latency_on_every_fabric() {
        for (ki, kind) in FabricKind::ALL.into_iter().enumerate() {
            let clean = half_rtt_at(kind, ki, 0);
            let lossy = half_rtt_at(kind, ki, 10_000);
            assert!(
                lossy > clean,
                "{kind:?}: 1% loss must cost time ({lossy:.1} vs {clean:.1} µs)"
            );
        }
    }

    #[test]
    fn lossy_sweep_is_deterministic() {
        let a = half_rtt_at(FabricKind::Iwarp, 0, 10_000);
        let b = half_rtt_at(FabricKind::Iwarp, 0, 10_000);
        assert!((a - b).abs() < f64::EPSILON);
    }
}
