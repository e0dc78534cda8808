//! Fig. 2 — multi-connection scalability: normalized latency and
//! throughput over 1–256 connections, iWARP vs InfiniBand.
//!
//! Methodology per the paper: pre-establish N connections between two
//! processes on two nodes; ping-pong over all connections in parallel in
//! round-robin batches; report the cumulative half-RTT divided by
//! (connections x messages) as the normalized multi-connection latency.
//! For throughput, both sides stream messages over all connections and the
//! aggregate byte rate is reported.

use hostmodel::cpu::{Cpu, CpuCosts};
use mpisim::FabricKind;
use simnet::sync::{join2, TaskGroup};
use simnet::Sim;
use udapl::{DatFabric, Provider};

use crate::report::{Figure, Series};
use crate::userlevel::{connect_rdma_pair, RdmaPair, A, B};

/// Connection counts swept (the paper goes to 256).
pub(crate) fn connection_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
}

/// Message sizes for the latency panel (paper legend: 128 B – 16 KB).
pub(crate) fn latency_sizes() -> Vec<u64> {
    vec![128, 1024, 2048, 4096, 8192, 16384]
}

/// Message sizes for the throughput panel (paper legend: 512 B – 16 KB).
pub(crate) fn throughput_sizes() -> Vec<u64> {
    vec![512, 1024, 2048, 4096, 8192, 16384]
}

pub use udapl::ProviderCalib as FabricSpec;

/// Registered buffer per side of every connection (the largest swept size).
const CONN_BUF: u64 = 16384;

/// Default calibration for a fabric kind (iWARP/IB only).
fn spec_for(kind: FabricKind) -> FabricSpec {
    match kind {
        FabricKind::Iwarp => Provider::Iwarp.into(),
        FabricKind::InfiniBand => Provider::InfiniBand.into(),
        _ => panic!("multi-connection study covers iWARP and IB only"),
    }
}

async fn build_pairs_spec(sim: &Sim, spec: FabricSpec, n: usize) -> Vec<RdmaPair> {
    let cpu_a = Cpu::new(sim, CpuCosts::default());
    let cpu_b = Cpu::new(sim, CpuCosts::default());
    let fab = DatFabric::with_calib(sim, spec, 2);
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(connect_rdma_pair(&fab, spec.provider(), &cpu_a, &cpu_b, CONN_BUF).await);
    }
    pairs
}

/// Normalized multi-connection latency (µs) for `n` connections at `size`.
pub fn normalized_latency(kind: FabricKind, n: usize, size: u64, rounds: u64) -> f64 {
    normalized_latency_spec(spec_for(kind), n, size, rounds)
}

/// As [`normalized_latency`], with explicit calibration (ablations).
///
/// # Panics
///
/// With no connections or no rounds: the average would be 0/0.
pub(crate) fn normalized_latency_spec(spec: FabricSpec, n: usize, size: u64, rounds: u64) -> f64 {
    assert!(n > 0, "multi-connection run needs at least one connection");
    assert!(
        rounds > 0,
        "normalized latency needs at least one timed round"
    );
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let pairs = build_pairs_spec(&sim, spec, n).await;
            // Warm one round (fills context caches the way a running system
            // would be warm).
            run_batched_rounds(&pairs, size, 1).await;
            let t0 = sim.now();
            run_batched_rounds(&pairs, size, rounds).await;
            (sim.now() - t0).as_micros_f64() / (2.0 * rounds as f64 * n as f64)
        }
    })
}

async fn run_batched_rounds(pairs: &[RdmaPair], size: u64, rounds: u64) {
    for _ in 0..rounds {
        // Side A posts a ping on every connection; side B answers each;
        // the round completes when every pong has landed.
        let a = async {
            for p in pairs {
                p[A].write(0, size).await;
            }
            for p in pairs {
                p[A].ep.wait_placement().await;
            }
        };
        let b = async {
            for p in pairs {
                p[B].ep.wait_placement().await;
                p[B].write(0, size).await;
            }
        };
        join2(a, b).await;
    }
}

/// Aggregate both-way streaming throughput (MB/s) for `n` connections.
pub fn throughput(kind: FabricKind, n: usize, size: u64, msgs_per_conn: u64) -> f64 {
    throughput_spec(spec_for(kind), n, size, msgs_per_conn)
}

/// As [`throughput`], with explicit calibration (ablations).
///
/// # Panics
///
/// With no connections or no messages: the rate would be 0/0.
pub(crate) fn throughput_spec(spec: FabricSpec, n: usize, size: u64, msgs_per_conn: u64) -> f64 {
    assert!(n > 0, "multi-connection run needs at least one connection");
    assert!(
        msgs_per_conn > 0,
        "throughput needs at least one message per connection"
    );
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let pairs = std::rc::Rc::new(build_pairs_spec(&sim, spec, n).await);
            let t0 = sim.now();
            let streams = TaskGroup::new();
            for (i, _) in pairs.iter().enumerate() {
                // One stream per direction on connection i, A→B first: post
                // everything, then reap every completion (completion =
                // remote placement).
                for from in [A, B] {
                    let ps = std::rc::Rc::clone(&pairs);
                    streams.spawn(&sim, async move {
                        let side = &ps[i][from];
                        for _ in 0..msgs_per_conn {
                            side.write(0, size).await;
                        }
                        for _ in 0..msgs_per_conn {
                            side.ep.evd_wait().await;
                        }
                    });
                }
            }
            streams.wait().await;
            let bytes = 2 * n as u64 * msgs_per_conn * size;
            bytes as f64 / (sim.now() - t0).as_secs_f64() / 1e6
        }
    })
}

/// Fig. 2 normalized-latency panels (one per fabric).
pub fn fig2_latency(kind: FabricKind) -> Figure {
    let mut fig = Figure::new(
        format!("fig2-latency-{}", kind.label()),
        format!(
            "Effect of multiple connections on {} (normalized latency)",
            kind.label()
        ),
        "connections",
        "normalized latency us",
    );
    for size in latency_sizes() {
        let mut s = Series::new(format!("Msg={}", human(size)));
        for n in connection_counts() {
            s.push(n as f64, normalized_latency(kind, n, size, 6));
        }
        fig.series.push(s);
    }
    fig
}

/// Fig. 2 throughput panels (one per fabric).
pub fn fig2_throughput(kind: FabricKind) -> Figure {
    let mut fig = Figure::new(
        format!("fig2-throughput-{}", kind.label()),
        format!(
            "Effect of multiple connections on {} (aggregate throughput)",
            kind.label()
        ),
        "connections",
        "MB/s",
    );
    for size in throughput_sizes() {
        let mut s = Series::new(format!("Msg={}", human(size)));
        for n in connection_counts() {
            s.push(n as f64, throughput(kind, n, size, 20));
        }
        fig.series.push(s);
    }
    fig
}

fn human(size: u64) -> String {
    if size >= 1024 {
        format!("{}KB", size / 1024)
    } else {
        format!("{size}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iwarp_normalized_latency_decreases_with_connections() {
        let n1 = normalized_latency(FabricKind::Iwarp, 1, 128, 5);
        let n8 = normalized_latency(FabricKind::Iwarp, 8, 128, 5);
        let n64 = normalized_latency(FabricKind::Iwarp, 64, 128, 5);
        assert!(
            n1 > n8 && n8 > n64,
            "iWARP must keep improving: 1conn={n1:.2} 8conn={n8:.2} 64conn={n64:.2}"
        );
    }

    #[test]
    fn ib_normalized_latency_knees_at_context_cache() {
        let n1 = normalized_latency(FabricKind::InfiniBand, 1, 128, 5);
        let n8 = normalized_latency(FabricKind::InfiniBand, 8, 128, 5);
        let n32 = normalized_latency(FabricKind::InfiniBand, 32, 128, 5);
        let n128 = normalized_latency(FabricKind::InfiniBand, 128, 128, 5);
        assert!(
            n8 < n1,
            "IB improves up to 8 connections: {n1:.2} → {n8:.2}"
        );
        assert!(
            n32 > n8,
            "IB degrades past the context cache: 8conn={n8:.2} 32conn={n32:.2}"
        );
        assert!(
            (n128 - n32).abs() < n32 * 0.5,
            "IB stays roughly constant beyond the knee: {n32:.2} vs {n128:.2}"
        );
    }

    #[test]
    fn large_messages_scale_similarly_on_both_fabrics() {
        // Paper: "the behavior of both networks is very similar for
        // messages larger than 4KB" — wire time dominates.
        let iw1 = normalized_latency(FabricKind::Iwarp, 1, 16384, 4);
        let iw32 = normalized_latency(FabricKind::Iwarp, 32, 16384, 4);
        let ib32 = normalized_latency(FabricKind::InfiniBand, 32, 16384, 4);
        // Both converge to their wire-limited floor.
        assert!(iw32 < iw1);
        let ratio = iw32 / ib32;
        assert!(
            (0.4..2.5).contains(&ratio),
            "large-message floors should be same order: iWARP {iw32:.2} IB {ib32:.2}"
        );
    }

    #[test]
    fn ib_small_message_throughput_drops_past_8_connections() {
        let t8 = throughput(FabricKind::InfiniBand, 8, 512, 30);
        let t32 = throughput(FabricKind::InfiniBand, 32, 512, 30);
        assert!(
            t32 < t8,
            "IB 512B throughput must drop past 8 conns: 8={t8:.0} 32={t32:.0} MB/s"
        );
    }

    #[test]
    #[should_panic(expected = "multi-connection run needs at least one connection")]
    fn throughput_rejects_zero_connections() {
        throughput(FabricKind::Iwarp, 0, 512, 4);
    }

    #[test]
    #[should_panic(expected = "throughput needs at least one message per connection")]
    fn throughput_rejects_zero_messages() {
        throughput(FabricKind::InfiniBand, 2, 512, 0);
    }

    #[test]
    #[should_panic(expected = "multi-connection run needs at least one connection")]
    fn normalized_latency_rejects_zero_connections() {
        normalized_latency(FabricKind::InfiniBand, 0, 128, 2);
    }

    #[test]
    #[should_panic(expected = "normalized latency needs at least one timed round")]
    fn normalized_latency_rejects_zero_rounds() {
        normalized_latency(FabricKind::Iwarp, 2, 128, 0);
    }

    #[test]
    fn iwarp_small_message_throughput_sustains() {
        let t8 = throughput(FabricKind::Iwarp, 8, 512, 30);
        let t64 = throughput(FabricKind::Iwarp, 64, 512, 30);
        assert!(
            t64 >= t8 * 0.85,
            "iWARP sustains throughput: 8conn={t8:.0} 64conn={t64:.0} MB/s"
        );
    }
}
