//! Open-loop workload engine: seeded arrival processes driving RPC/KV and
//! DAQ-style streaming flow mixes over the fabric data paths (DESIGN.md
//! §13).
//!
//! Every other generator in this crate is a *closed-loop* ping-pong: the
//! next operation waits for the previous one, so offered load can never
//! exceed service rate and tail latency never includes queueing. This
//! module is the open-loop counterpart — the "heavy traffic from millions
//! of users" axis of the ROADMAP. A seeded deterministic arrival-process
//! generator (Poisson or bursty on/off) issues flows at its own cadence
//! regardless of service progress; a per-tenant service loop drains them
//! through the host data paths of [`crate::cluster`]'s fabrics; per-flow
//! latency (completion − arrival, queueing included) is handed to a caller
//! sink, which is where the knee and p99/p999 shape comes from.
//!
//! Arrivals are a **counter-based PRNG** in the `simnet::fault` idiom: the
//! i-th gap on stream `s` hashes `(seed, s, i)` through a SplitMix64
//! finalizer — no ambient state, no iteration-order dependence, so the
//! sequence is replay-stable under schedule perturbation, thread count and
//! memoization by construction ([`ArrivalSpec::gap`] is a pure function).
//!
//! Conservation is checked two ways: [`simnet::SimStats`] carries
//! `flows_issued`/`flows_completed`/`gen_backlog_peak` for any run, and
//! the `simcheck` `workload.conservation` oracle shadows
//! the per-tenant tallies and cross-checks them at quiesce.

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::FabricKind;
use simnet::stats::Counter;
use simnet::sync::join_all;
use simnet::{Bytes, Pipeline, Sim, SimDuration, SimStats, SimTime};

/// SplitMix64 finalizer — the same strong 64-bit mix (standard constants)
/// the fault plane's counter-based PRNG uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shape of an arrival process, around a configured mean gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential interarrival gaps — a Poisson process.
    Poisson,
    /// Bursty on/off: `burst` flows arrive back-to-back at a quarter of
    /// the mean gap, then an exponentially-jittered off period balances
    /// the cycle so the long-run mean gap is preserved. The DAQ shape:
    /// a detector readout delivers a train of fragments, then idles.
    BurstyOnOff {
        /// Flows per on-period (at least 1; 1 degenerates to Poisson).
        burst: u64,
    },
}

/// A seeded arrival-process generator: gap `i` is a pure function of
/// `(seed, stream, i)`, so the whole schedule is replay-stable across
/// threads, memoization and schedule perturbation.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSpec {
    /// Workload-level seed shared by every tenant of a run.
    pub seed: u64,
    /// Per-tenant stream id — distinct streams are statistically
    /// independent under the SplitMix64 mix.
    pub stream: u64,
    /// Mean interarrival gap (the reciprocal of offered load).
    pub mean_gap: SimDuration,
    /// Process shape.
    pub process: ArrivalProcess,
}

impl ArrivalSpec {
    /// The i-th uniform draw in `(0, 1]`, from the counter-based stream.
    fn unit(&self, i: u64) -> f64 {
        let h = splitmix64(
            splitmix64(self.seed)
                .wrapping_add(splitmix64(self.stream))
                .wrapping_add(i),
        );
        // Top 53 bits → (0, 1]: never 0, so ln() below is always finite.
        ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// The gap between arrival `i-1` and arrival `i` (gap 0 delays the
    /// first flow past t=0). Pure in `(self, i)` — random access and
    /// sequential iteration agree, which the replay proptest locks in.
    pub fn gap(&self, i: u64) -> SimDuration {
        let mean_secs = self.mean_gap.as_secs_f64();
        let exp = -self.unit(i).ln();
        match self.process {
            ArrivalProcess::Poisson => SimDuration::from_secs_f64(mean_secs * exp),
            ArrivalProcess::BurstyOnOff { burst } => {
                let b = burst.max(1);
                if b > 1 && !i.is_multiple_of(b) {
                    // Within a burst: fixed quarter-mean spacing.
                    SimDuration::from_secs_f64(mean_secs / 4.0)
                } else {
                    // Off period opening each cycle, jittered so cycles
                    // don't phase-lock; sized so the cycle's mean gap is
                    // the configured mean: (b-1)·mean/4 + off = b·mean.
                    let off = mean_secs * (b as f64 - (b as f64 - 1.0) / 4.0);
                    SimDuration::from_secs_f64(off * exp)
                }
            }
        }
    }

    /// Absolute arrival time of flow `i` (the prefix sum of gaps). O(i):
    /// meant for tests and spot checks, not the hot path — the generator
    /// task accumulates gaps incrementally.
    pub fn arrival_time(&self, i: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for k in 0..=i {
            t += self.gap(k);
        }
        t
    }
}

/// What one flow is, on the wire.
#[derive(Debug, Clone, Copy)]
pub enum FlowClass {
    /// RPC/KV request–response: latency is measured arrival → response
    /// delivered back at the client.
    Rpc {
        /// Request payload.
        request: Bytes,
        /// Response payload.
        response: Bytes,
    },
    /// DAQ-style one-way streaming: latency is arrival → message landed
    /// in the server's host memory.
    Stream {
        /// Message payload.
        message: Bytes,
    },
}

/// One tenant: an arrival generator feeding a serial service loop, both
/// sharing the run's client/server data paths with every other tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Flow shape.
    pub class: FlowClass,
    /// Arrival schedule.
    pub arrivals: ArrivalSpec,
    /// Flows this tenant issues before quiescing.
    pub flows: u64,
}

/// Shape of one open-loop workload run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which fabric's host paths carry the flows.
    pub kind: FabricKind,
    /// The tenants, all contending on one client/server host pair.
    pub tenants: Vec<TenantSpec>,
}

impl WorkloadSpec {
    /// An RPC/KV mix: `tenants` Poisson generators, each issuing `flows`
    /// 512 B requests answered by 4 KiB responses at `mean_gap`.
    pub fn rpc_kv(
        kind: FabricKind,
        tenants: usize,
        flows: u64,
        mean_gap: SimDuration,
        seed: u64,
    ) -> Self {
        let tenants = (0..tenants)
            .map(|t| TenantSpec {
                class: FlowClass::Rpc {
                    request: Bytes::new(512),
                    response: Bytes::from_kib(4),
                },
                arrivals: ArrivalSpec {
                    seed,
                    stream: t as u64,
                    mean_gap,
                    process: ArrivalProcess::Poisson,
                },
                flows,
            })
            .collect();
        WorkloadSpec { kind, tenants }
    }

    /// A mixed production shape: even tenants run the RPC/KV class on
    /// Poisson arrivals; odd tenants stream 64 KiB DAQ fragments on a
    /// bursty on/off process (bursts of 8).
    pub fn mixed(
        kind: FabricKind,
        tenants: usize,
        flows: u64,
        mean_gap: SimDuration,
        seed: u64,
    ) -> Self {
        let tenants = (0..tenants)
            .map(|t| {
                let (class, process) = if t.is_multiple_of(2) {
                    (
                        FlowClass::Rpc {
                            request: Bytes::new(512),
                            response: Bytes::from_kib(4),
                        },
                        ArrivalProcess::Poisson,
                    )
                } else {
                    (
                        FlowClass::Stream {
                            message: Bytes::from_kib(64),
                        },
                        ArrivalProcess::BurstyOnOff { burst: 8 },
                    )
                };
                TenantSpec {
                    class,
                    arrivals: ArrivalSpec {
                        seed,
                        stream: t as u64,
                        mean_gap,
                        process,
                    },
                    flows,
                }
            })
            .collect();
        WorkloadSpec { kind, tenants }
    }
}

/// What one workload run produced. Latencies are *not* stored here — they
/// stream through the caller's [`FlowSink`] as flows complete, so engine
/// memory stays O(tenants) regardless of flow count.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Flows issued, per tenant.
    pub issued: Vec<u64>,
    /// Flows completed, per tenant (equal to `issued` at quiesce — the
    /// conservation invariant).
    pub completed: Vec<u64>,
    /// Simulated end time.
    pub end: SimTime,
    /// Executor statistics, including `flows_issued`/`flows_completed`/
    /// `gen_backlog_peak`.
    pub stats: SimStats,
}

/// Per-flow latency sink: called once per completed flow with the tenant
/// index and the arrival→completion latency (queueing included). Shared
/// with every service task, hence the `Rc<RefCell<…>>`.
pub type FlowSink = Rc<RefCell<dyn FnMut(usize, SimDuration)>>;

/// Per-tenant pipeline handles cloned into the service task (clones share
/// stage calendars, so tenants contend on the same pipes).
struct PathHandles {
    client_egress: Pipeline,
    client_ingress: Pipeline,
    server_egress: Pipeline,
    server_ingress: Pipeline,
    client_overhead: Bytes,
    server_overhead: Bytes,
}

/// Run one open-loop workload to quiesce: every tenant's generator issues
/// its configured flow count, every service loop drains them, and the run
/// ends when the last response lands. Deterministic for a given spec.
pub fn run_workload(spec: &WorkloadSpec, sink: &FlowSink) -> WorkloadOutcome {
    let sim = Sim::new();
    // Client and server at distinct node indices on one calendar.
    let client = crate::fabric::host_at(spec.kind, &sim, 0).path;
    let server = crate::fabric::host_at(spec.kind, &sim, 1).path;
    let wire = client.wire_latency;

    let n = spec.tenants.len();
    let issued: Vec<Counter> = (0..n).map(|_| Counter::new()).collect();
    let completed: Vec<Counter> = (0..n).map(|_| Counter::new()).collect();
    let oracle = Rc::new(RefCell::new(simcheck::workload::ConservationOracle::new(
        spec.kind.nic().tag(),
        n,
    )));

    let mut tasks = Vec::new();
    for (tenant, t) in spec.tenants.iter().copied().enumerate() {
        let (tx, mut rx) = simnet::sync::mpsc::<SimTime>();

        // Generator: sleeps to each arrival instant and hands the arrival
        // timestamp to the service queue — open loop, so it never waits
        // for service progress and the queue may grow.
        let s = sim.clone();
        let iss = issued[tenant].clone();
        let com = completed[tenant].clone();
        let orc = Rc::clone(&oracle);
        tasks.push(sim.spawn(async move {
            for i in 0..t.flows {
                s.sleep(t.arrivals.gap(i)).await;
                iss.inc();
                s.note_flow_issued();
                orc.borrow_mut().on_issue(tenant);
                s.note_gen_backlog(iss.get() - com.get());
                let _ = tx.send(s.now());
            }
        }));

        // Service loop: serial per tenant (one connection's worth of
        // concurrency), contending with every other tenant on the shared
        // host paths.
        let s = sim.clone();
        let com = completed[tenant].clone();
        let paths = PathHandles {
            client_egress: client.egress.clone(),
            client_ingress: client.ingress.clone(),
            server_egress: server.egress.clone(),
            server_ingress: server.ingress.clone(),
            client_overhead: client.overhead_bytes,
            server_overhead: server.overhead_bytes,
        };
        let sink = Rc::clone(sink);
        let orc = Rc::clone(&oracle);
        tasks.push(sim.spawn(async move {
            for _ in 0..t.flows {
                let Some(arrived) = rx.recv().await else {
                    break;
                };
                match t.class {
                    FlowClass::Rpc { request, response } => {
                        paths
                            .client_egress
                            .transfer(request, paths.client_overhead)
                            .await;
                        s.sleep(wire).await;
                        paths
                            .server_ingress
                            .transfer(request, paths.server_overhead)
                            .await;
                        paths
                            .server_egress
                            .transfer(response, paths.server_overhead)
                            .await;
                        s.sleep(wire).await;
                        paths
                            .client_ingress
                            .transfer(response, paths.client_overhead)
                            .await;
                    }
                    FlowClass::Stream { message } => {
                        paths
                            .client_egress
                            .transfer(message, paths.client_overhead)
                            .await;
                        s.sleep(wire).await;
                        paths
                            .server_ingress
                            .transfer(message, paths.server_overhead)
                            .await;
                    }
                }
                com.inc();
                s.note_flow_completed();
                orc.borrow_mut().on_complete(tenant);
                let latency = s.now().duration_since(arrived);
                (sink.borrow_mut())(tenant, latency);
            }
        }));
    }
    sim.block_on(async move {
        join_all(tasks).await;
    });

    let issued: Vec<u64> = issued.iter().map(Counter::get).collect();
    let completed: Vec<u64> = completed.iter().map(Counter::get).collect();

    let violations =
        oracle
            .borrow()
            .check_quiesce(&issued, &completed, true, Some(sim.now().as_nanos()));
    for v in violations {
        debug_assert!(false, "workload oracle violation: {v}");
    }

    WorkloadOutcome {
        issued,
        completed,
        end: sim.now(),
        stats: sim.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::rpc_kv(
            FabricKind::Iwarp,
            2,
            8,
            SimDuration::from_micros(50),
            0xC0FFEE,
        )
    }

    fn null_sink() -> FlowSink {
        Rc::new(RefCell::new(|_t: usize, _l: SimDuration| {}))
    }

    #[test]
    fn gaps_are_pure_and_replay_stable() {
        let a = ArrivalSpec {
            seed: 7,
            stream: 3,
            mean_gap: SimDuration::from_micros(10),
            process: ArrivalProcess::Poisson,
        };
        // Random access agrees with sequential evaluation.
        let sequential: Vec<u64> = (0..64).map(|i| a.gap(i).as_nanos()).collect();
        for i in (0..64).rev() {
            assert_eq!(a.gap(i).as_nanos(), sequential[i as usize]);
        }
        // Distinct streams diverge; identical specs agree.
        let b = ArrivalSpec { stream: 4, ..a };
        assert_ne!(a.gap(0), b.gap(0));
        assert_eq!(a.gap(5), ArrivalSpec { ..a }.gap(5));
        // Every gap is finite and positive-or-zero by construction.
        assert!(sequential.iter().all(|&ns| ns < u64::MAX));
    }

    #[test]
    fn poisson_mean_gap_is_roughly_configured() {
        let a = ArrivalSpec {
            seed: 42,
            stream: 0,
            mean_gap: SimDuration::from_micros(10),
            process: ArrivalProcess::Poisson,
        };
        let n = 4096u64;
        let total: u64 = (0..n).map(|i| a.gap(i).as_nanos()).sum();
        let mean = total / n;
        // Exponential with mean 10 us; 4096 samples keep the sample mean
        // within ~5% with overwhelming probability for a fixed seed.
        assert!((9_000..11_000).contains(&mean), "mean {mean} ns");
    }

    #[test]
    fn bursty_preserves_long_run_mean() {
        let a = ArrivalSpec {
            seed: 11,
            stream: 1,
            mean_gap: SimDuration::from_micros(10),
            process: ArrivalProcess::BurstyOnOff { burst: 8 },
        };
        let n = 4096u64;
        let total: u64 = (0..n).map(|i| a.gap(i).as_nanos()).sum();
        let mean = total / n;
        assert!((8_500..11_500).contains(&mean), "mean {mean} ns");
        // Within-burst gaps are the fixed quarter-mean spacing.
        assert_eq!(a.gap(1).as_nanos(), 2_500);
        assert_eq!(a.gap(9).as_nanos(), 2_500);
        // Cycle openers are jittered off-periods, an order larger.
        assert!(a.gap(8).as_nanos() > 2_500);
    }

    #[test]
    fn run_conserves_flows_and_counts_stats() {
        let latencies = Rc::new(RefCell::new(0u64));
        let sink: FlowSink = {
            let latencies = Rc::clone(&latencies);
            Rc::new(RefCell::new(move |_t: usize, l: SimDuration| {
                assert!(!l.is_zero());
                *latencies.borrow_mut() += 1;
            }))
        };
        let out = run_workload(&spec(), &sink);
        assert_eq!(out.issued, vec![8, 8]);
        assert_eq!(out.completed, vec![8, 8]);
        assert_eq!(out.stats.flows_issued, 16);
        assert_eq!(out.stats.flows_completed, 16);
        assert!(out.stats.gen_backlog_peak >= 1);
        assert_eq!(*latencies.borrow(), 16);
        assert!(out.end > SimTime::ZERO);
    }

    /// FNV-1a over a u64, matching the figure digests in the
    /// integration tests.
    fn fnv1a(mut digest: u64, value: u64) -> u64 {
        for b in value.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let digest = Rc::new(RefCell::new(0xcbf2_9ce4_8422_2325u64));
            let sink: FlowSink = {
                let digest = Rc::clone(&digest);
                Rc::new(RefCell::new(move |t: usize, l: SimDuration| {
                    let mut d = digest.borrow_mut();
                    *d = fnv1a(*d, (t as u64) ^ l.as_nanos());
                }))
            };
            let out = run_workload(&spec(), &sink);
            let d = *digest.borrow();
            (out.end, d)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_fabric_completes() {
        for kind in FabricKind::ALL {
            let out = run_workload(
                &WorkloadSpec::mixed(kind, 3, 4, SimDuration::from_micros(40), 1),
                &null_sink(),
            );
            assert_eq!(out.issued, out.completed, "{kind:?}");
            assert_eq!(out.stats.flows_issued, 12, "{kind:?}");
        }
    }

    #[test]
    fn overload_grows_backlog() {
        // Offered load far past service rate: the open-loop queue must
        // visibly grow — the behavior a closed-loop ping-pong cannot show.
        let spec = WorkloadSpec::rpc_kv(FabricKind::Iwarp, 4, 32, SimDuration::from_nanos(200), 9);
        let out = run_workload(&spec, &null_sink());
        assert!(
            out.stats.gen_backlog_peak >= 8,
            "backlog peak {}",
            out.stats.gen_backlog_peak
        );
    }
}
