//! Ablation studies: which mechanism produces which curve.
//!
//! The paper *speculates* about the architectural causes of its
//! multi-connection results ("we speculate that the processor-based
//! communication in IB NIC core hardware is the main reason behind the
//! serialization"). In a simulation the speculation is testable: switch
//! the mechanism off and watch the curve change.
//!
//! * [`iwarp_pipelining`] — collapse the NetEffect engine's TX/RX stages
//!   onto one serial pipe: multi-connection overlap should degrade toward
//!   IB-like behaviour.
//! * [`ib_context_cache`] — grow the Mellanox QP-context cache from 8 to
//!   256 entries: the Fig. 2 knee should disappear.
//! * [`mx_matching_location`] — give the Myri-10G NIC host-like matching
//!   costs: its Fig. 7 advantage and Fig. 8 disadvantage should both
//!   shrink.

use crate::multiconn::{normalized_latency_spec, FabricSpec};
use crate::report::{Figure, Series};
use crate::userlevel::MxPair;

/// Normalized-latency curves for the real (pipelined) and ablated
/// (serialized) NetEffect engine.
pub fn iwarp_pipelining(size: u64) -> Figure {
    let mut fig = Figure::new(
        "ablation-iwarp-pipelining",
        "iWARP multi-connection scaling with and without engine pipelining",
        "connections",
        "normalized latency us",
    );
    for (label, pipelined) in [("pipelined (real)", true), ("serialized (ablated)", false)] {
        let calib = iwarp::NetEffectCalib {
            pipelined_engine: pipelined,
            ..iwarp::NetEffectCalib::default()
        };
        let mut s = Series::new(label);
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            s.push(
                n as f64,
                normalized_latency_spec(FabricSpec::Iwarp(calib), n, size, 5),
            );
        }
        fig.series.push(s);
    }
    fig
}

/// Normalized-latency curves for the real (8-entry) and enlarged
/// (256-entry) Mellanox QP-context cache.
pub fn ib_context_cache(size: u64) -> Figure {
    let mut fig = Figure::new(
        "ablation-ib-context-cache",
        "IB multi-connection scaling vs QP-context cache capacity",
        "connections",
        "normalized latency us",
    );
    for (label, entries) in [
        ("8 contexts (real)", 8usize),
        ("256 contexts (ablated)", 256),
    ] {
        let calib = infiniband::MellanoxCalib {
            context_cache_entries: entries,
            ..infiniband::MellanoxCalib::default()
        };
        let mut s = Series::new(label);
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            s.push(
                n as f64,
                normalized_latency_spec(FabricSpec::Ib(calib), n, size, 5),
            );
        }
        fig.series.push(s);
    }
    fig
}

/// Fig. 7/8-style ratios for the real (NIC-matched) and ablated
/// (host-cost-matched) Myri-10G NIC. Returns `(unexpected_ratio,
/// receive_queue_ratio)` per variant at queue depth 256.
pub fn mx_matching_location() -> Figure {
    let mut fig = Figure::new(
        "ablation-mx-matching",
        "MX queue-usage ratios vs matching-engine cost profile (depth 256)",
        "variant",
        "latency ratio",
    );
    let mut unex = Series::new("unexpected queue");
    let mut posted = Series::new("receive queue");
    for (x, label_costs) in [(0.0, "nic"), (1.0, "hostlike")] {
        let calib = if label_costs == "nic" {
            mx10g::MyriCalib::default()
        } else {
            mx10g::MyriCalib {
                // Host-CPU-like per-entry walks: fast posted-list walks,
                // slower unexpected handling than the NIC's pipelined
                // matcher.
                nic_match_posted_per_entry: simnet::SimDuration::from_nanos(30),
                nic_match_unexpected_per_entry: simnet::SimDuration::from_nanos(15),
                ..mx10g::MyriCalib::default()
            }
        };
        unex.push(x, mx_fig7_ratio_with(calib, 256, 1));
        posted.push(x, mx_fig8_ratio_with(calib, 256, 16));
    }
    fig.series.push(unex);
    fig.series.push(posted);
    fig
}

/// Fig. 7 ratio over an MX fabric with explicit calibration.
pub(crate) fn mx_fig7_ratio_with(calib: mx10g::MyriCalib, depth: usize, size: u64) -> f64 {
    mx_queue_ratio(calib, depth, size, QueueTest::Unexpected)
}

/// Fig. 8 ratio over an MX fabric with explicit calibration.
pub(crate) fn mx_fig8_ratio_with(calib: mx10g::MyriCalib, depth: usize, size: u64) -> f64 {
    mx_queue_ratio(calib, depth, size, QueueTest::Posted)
}

#[derive(Clone, Copy)]
enum QueueTest {
    Unexpected,
    Posted,
}

fn mx_queue_ratio(calib: mx10g::MyriCalib, depth: usize, size: u64, which: QueueTest) -> f64 {
    let loaded = mx_queue_latency(calib, depth, size, which);
    let empty = mx_queue_latency(calib, 0, size, which);
    loaded / empty
}

/// Direct MX-level queue-usage ping-pong (bypasses the MPI wrapper so the
/// ablation isolates the NIC matching engine).
fn mx_queue_latency(calib: mx10g::MyriCalib, depth: usize, size: u64, which: QueueTest) -> f64 {
    use hostmodel::cpu::{Cpu, CpuCosts};
    use mx10g::matching::MatchInfo;
    use simnet::Sim;
    let sim = Sim::new();
    let fab = mx10g::MxFabric::with_calib(&sim, 2, mx10g::LinkMode::MxoM, calib);
    sim.block_on({
        let sim = sim.clone();
        async move {
            let cpu_a = Cpu::new(&sim, CpuCosts::default());
            let cpu_b = Cpu::new(&sim, CpuCosts::default());
            let pair = MxPair::open(&fab, &cpu_a, &cpu_b, size.max(64));
            let MxPair {
                ea,
                eb,
                ab,
                ba,
                buf_a,
                buf_b,
                ..
            } = &pair;
            let decoy = |i: u32| MatchInfo::mpi(9, 0, i);
            match which {
                QueueTest::Unexpected => {
                    // Park `depth` unexpected messages at each side.
                    for i in 0..depth as u32 {
                        ea.isend(ab, decoy(i), *buf_a, 8, None).await.wait().await;
                        eb.isend(ba, decoy(i), *buf_b, 8, None).await.wait().await;
                    }
                }
                QueueTest::Posted => {
                    for i in 0..depth as u32 {
                        ea.irecv(decoy(i), MatchInfo::EXACT, *buf_a, 64).await;
                        eb.irecv(decoy(i), MatchInfo::EXACT, *buf_b, 64).await;
                    }
                }
            }
            let iters = 10u64;
            let t0 = sim.now();
            pair.pingpong(size, iters).await;
            (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializing_the_iwarp_engine_kills_multiconn_scaling() {
        let real = iwarp::NetEffectCalib::default();
        let ablated = iwarp::NetEffectCalib {
            pipelined_engine: false,
            ..real
        };
        let real_32 = normalized_latency_spec(FabricSpec::Iwarp(real), 32, 128, 5);
        let abl_32 = normalized_latency_spec(FabricSpec::Iwarp(ablated), 32, 128, 5);
        assert!(
            abl_32 > real_32 * 1.3,
            "serialized engine must scale worse: real {real_32:.2} ablated {abl_32:.2}"
        );
    }

    #[test]
    fn enlarging_the_ib_context_cache_removes_the_knee() {
        let small = infiniband::MellanoxCalib::default();
        let big = infiniband::MellanoxCalib {
            context_cache_entries: 256,
            ..small
        };
        let knee_small = normalized_latency_spec(FabricSpec::Ib(small), 32, 128, 5)
            / normalized_latency_spec(FabricSpec::Ib(small), 8, 128, 5);
        let knee_big = normalized_latency_spec(FabricSpec::Ib(big), 32, 128, 5)
            / normalized_latency_spec(FabricSpec::Ib(big), 8, 128, 5);
        assert!(
            knee_small > 1.15,
            "8-entry cache must show the knee: ratio {knee_small:.2}"
        );
        assert!(
            knee_big < knee_small,
            "256-entry cache must soften it: {knee_big:.2} vs {knee_small:.2}"
        );
    }

    #[test]
    fn host_like_matching_costs_flip_the_mx_queue_tradeoff() {
        let nic = mx10g::MyriCalib::default();
        let host = mx10g::MyriCalib {
            nic_match_posted_per_entry: simnet::SimDuration::from_nanos(30),
            nic_match_unexpected_per_entry: simnet::SimDuration::from_nanos(15),
            ..nic
        };
        // NIC matching: great on unexpected, poor on long posted lists.
        let nic_unex = mx_fig7_ratio_with(nic, 256, 1);
        let nic_posted = mx_fig8_ratio_with(nic, 256, 16);
        // Host-like costs narrow the gap between the two.
        let host_unex = mx_fig7_ratio_with(host, 256, 1);
        let host_posted = mx_fig8_ratio_with(host, 256, 16);
        assert!(
            nic_posted - nic_unex > host_posted - host_unex,
            "NIC profile must show the asymmetry: nic ({nic_unex:.2},{nic_posted:.2}) host ({host_unex:.2},{host_posted:.2})"
        );
    }
}
