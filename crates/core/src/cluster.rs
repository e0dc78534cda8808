//! Sharded multi-host cluster exchange — the multi-endpoint scenario that
//! drives `simnet::shard`'s conservative-lookahead engine across every
//! fabric (see DESIGN.md §9).
//!
//! Each host is one shard owning its own event calendar. A host runs `E`
//! endpoint tasks, each streaming `M` messages of `S` bytes through the
//! host-local *egress* half of the fabric's data path (DMA, NIC engines,
//! wire serialization), then hands the message to the ring successor
//! through the engine's deterministic cross-shard channel; the receiving
//! host pumps each arrival through its *ingress* half (switch egress port,
//! RX engines, host DMA). The split data path comes from
//! `fabric::host_at`, cut at the switch hop so the switch
//! forwarding latency (plus any declared propagation span) becomes the
//! cross-shard link latency — and therefore the lookahead window.
//!
//! The scenario exists for three reasons: it is the workload the
//! `--threads` flag shards within a figure (near-linear speedup on
//! multi-core hosts), its [`ClusterOutcome::trace_digest`] is what the
//! determinism tests compare across thread counts, and its merged trace
//! feeds `simcheck`'s shard oracles.

use mpisim::FabricKind;
use simnet::sync::join_all;
use simnet::{ShardedSim, SimDuration, SimStats};

use crate::fabric::{host_at, wire_latency};
use crate::report::{Figure, Series};

/// Shape of one cluster-exchange run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Hosts in the ring; one shard each. At least 2.
    pub hosts: usize,
    /// Endpoint tasks per host, all sharing the host's egress path.
    pub endpoints: usize,
    /// Messages each endpoint streams to the ring successor.
    pub messages: u64,
    /// Payload bytes per message.
    pub message_bytes: u64,
    /// Worker-thread override; `None` uses the process default
    /// (`simnet::shard::default_threads`). Output is identical either way.
    pub threads: Option<usize>,
    /// Propagation delay added on top of the switch forwarding latency —
    /// zero for hosts on one switch, microseconds for inter-rack or
    /// campus fiber spans (5 ns/m). This is also the knob that sets the
    /// lookahead window: conservative synchronization amortizes its
    /// barrier only when the window is comparable to the workload's event
    /// cadence, so same-switch rings (200–450 ns) are synchronization-
    /// bound while campus spans parallelize near-linearly.
    pub propagation: SimDuration,
}

impl ClusterSpec {
    /// A small, fast shape for tests and figures: 2 endpoints x 4
    /// messages x 64 KiB per host.
    pub fn small(hosts: usize) -> Self {
        ClusterSpec {
            hosts,
            endpoints: 2,
            messages: 4,
            message_bytes: 64 << 10,
            threads: None,
            propagation: SimDuration::ZERO,
        }
    }

    /// A heavier shape for wall-clock scaling benchmarks: hosts a campus
    /// apart (20 us of fiber — 4 km at 5 ns/m), so the lookahead window
    /// spans many event bursts and the barrier cost amortizes — the
    /// regime where sharding pays (see the `propagation` field).
    pub fn scaling(hosts: usize) -> Self {
        ClusterSpec {
            hosts,
            endpoints: 4,
            messages: 6,
            message_bytes: 256 << 10,
            threads: None,
            propagation: SimDuration::from_micros(20),
        }
    }

    /// Total payload bytes the whole ring moves.
    pub fn total_bytes(&self) -> u64 {
        self.hosts as u64 * self.endpoints as u64 * self.messages * self.message_bytes
    }
}

/// What one cluster-exchange run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Payload bytes received across all hosts (= [`ClusterSpec::total_bytes`]).
    pub bytes_moved: u64,
    /// Simulated end time, nanoseconds.
    pub end_ns: u64,
    /// Event-order digest of the run (cross-shard merge order folded with
    /// every shard's local ordering) — identical across thread counts.
    pub trace_digest: u64,
    /// Cross-shard events exchanged.
    pub cross_events: u64,
    /// Conservative-lookahead barrier rounds the run took.
    pub lookahead_rounds: u64,
    /// Aggregated executor statistics across the shards.
    pub stats: SimStats,
}

impl ClusterOutcome {
    /// Aggregate payload bandwidth over the run, MB/s (decimal).
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bytes_moved as f64 / (self.end_ns as f64 / 1e9) / 1e6
    }
}

/// Run one sharded cluster exchange. Deterministic for any thread count;
/// panics if `spec.hosts < 2`.
pub fn cluster_exchange(kind: FabricKind, spec: ClusterSpec) -> ClusterOutcome {
    assert!(spec.hosts >= 2, "a ring needs at least two hosts");
    let lat = wire_latency(kind) + spec.propagation;
    let mut ss: ShardedSim<u64, u64> = ShardedSim::new();
    for _ in 0..spec.hosts {
        ss.add_shard(move |ctx| async move {
            let path = host_at(kind, ctx.sim(), 0).path;
            let next = (ctx.id() + 1) % spec.hosts;
            let prev = (ctx.id() + spec.hosts - 1) % spec.hosts;
            let rx = ctx.receiver(prev);
            let ovh = path.overhead_bytes;

            // E endpoints stream M messages each through the shared egress
            // pipeline, handing every completed message to the successor.
            let mut tasks = Vec::new();
            for _ in 0..spec.endpoints {
                let egress = path.egress.clone();
                let ctx = ctx.clone();
                tasks.push(ctx.sim().clone().spawn(async move {
                    for _ in 0..spec.messages {
                        egress
                            .transfer(simnet::Bytes::new(spec.message_bytes), ovh)
                            .await;
                        ctx.send(next, spec.message_bytes);
                    }
                }));
            }

            // Pump every arrival from the predecessor through ingress.
            // Transfers overlap (the pipeline serializes at its pipes),
            // so recv stays hot while earlier messages drain.
            let expect = spec.endpoints as u64 * spec.messages;
            let mut received = 0u64;
            let mut pumps = Vec::new();
            for _ in 0..expect {
                let bytes = rx.recv().await;
                received += bytes;
                let ingress = path.ingress.clone();
                pumps.push(ctx.sim().spawn(async move {
                    ingress.transfer(simnet::Bytes::new(bytes), ovh).await;
                }));
            }
            join_all(tasks).await;
            join_all(pumps).await;
            received
        });
    }
    for s in 0..spec.hosts {
        ss.link(s, (s + 1) % spec.hosts, lat);
    }
    if let Some(t) = spec.threads {
        ss.threads(t);
    }
    let out = ss.run();

    let trace: Vec<simcheck::shard::CrossEventRecord> = out
        .trace
        .iter()
        .map(|r| simcheck::shard::CrossEventRecord {
            at_ns: r.at_ns,
            sent_ns: r.sent_ns,
            src: r.src,
            dst: r.dst,
            seq: r.seq,
        })
        .collect();
    let lookahead_ns = out.lookahead.map(simnet::SimDuration::as_nanos);
    for v in simcheck::shard::check_trace(&trace, lookahead_ns) {
        debug_assert!(false, "shard oracle violation: {v}");
    }

    ClusterOutcome {
        bytes_moved: out.results.iter().sum(),
        end_ns: out.end.as_nanos(),
        trace_digest: out.trace_digest,
        cross_events: out.stats.cross_shard_events,
        lookahead_rounds: out.stats.lookahead_rounds,
        stats: out.stats,
    }
}

/// Sharded-cluster figure: aggregate exchange bandwidth vs ring size, one
/// series per fabric. Runs on the process-default thread count — the
/// `--threads` flag shards *within* this figure.
pub fn fig_cluster_bandwidth() -> Figure {
    let mut fig = Figure::new(
        "s1-cluster",
        "Sharded cluster exchange: aggregate bandwidth vs hosts (64 KiB messages)",
        "hosts in ring",
        "aggregate MB/s",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(kind.label());
        for hosts in [2usize, 4, 8] {
            let out = cluster_exchange(kind, ClusterSpec::small(hosts));
            s.push(hosts as f64, out.bandwidth_mbps());
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_moves_every_byte() {
        let spec = ClusterSpec::small(3);
        let out = cluster_exchange(FabricKind::Iwarp, spec);
        assert_eq!(out.bytes_moved, spec.total_bytes());
        assert!(out.end_ns > 0);
        assert_eq!(
            out.cross_events,
            spec.hosts as u64 * spec.endpoints as u64 * spec.messages
        );
        assert!(out.lookahead_rounds > 0);
        assert_eq!(out.stats.shards, spec.hosts as u64);
    }

    #[test]
    fn exchange_is_thread_count_invariant() {
        let run = |threads| {
            let mut spec = ClusterSpec::small(4);
            spec.threads = Some(threads);
            let out = cluster_exchange(FabricKind::MxoM, spec);
            (out.trace_digest, out.end_ns, out.bytes_moved)
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "divergence at {threads} threads");
        }
    }

    #[test]
    fn every_fabric_completes_and_orders_plausibly() {
        // MXoM (largest payload per packet, fastest switch) should beat the
        // TCP-framed MXoE ring on the same NIC hardware.
        let spec = ClusterSpec::small(2);
        let mxom = cluster_exchange(FabricKind::MxoM, spec);
        let mxoe = cluster_exchange(FabricKind::MxoE, spec);
        let ib = cluster_exchange(FabricKind::InfiniBand, spec);
        let iw = cluster_exchange(FabricKind::Iwarp, spec);
        for (label, out) in [
            ("mxom", &mxom),
            ("mxoe", &mxoe),
            ("ib", &ib),
            ("iwarp", &iw),
        ] {
            assert_eq!(out.bytes_moved, spec.total_bytes(), "{label}");
            assert!(
                out.bandwidth_mbps() > 100.0,
                "{label}: {}",
                out.bandwidth_mbps()
            );
        }
        assert!(
            mxom.end_ns < mxoe.end_ns,
            "{} !< {}",
            mxom.end_ns,
            mxoe.end_ns
        );
    }
}
