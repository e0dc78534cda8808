//! Runtime protocol-conformance oracles for the fabric simulations.
//!
//! `simcheck` is the dynamic half of the workspace's correctness tooling:
//! where clippy.toml's bans statically reject *sources* of nondeterminism, the
//! oracles in this crate verify at runtime that the simulated fabrics obey
//! the protocol rules the paper's comparisons rest on — MPA framing and DDP
//! MSN ordering for iWARP, QP state legality and completion ordering for
//! InfiniBand, in-order tag matching for MX-10G, TCP sequence continuity for
//! the Ethernet stack, and memory-registration bounds for the host model.
//!
//! # Design rules
//!
//! - **Always on.** Every build wires the oracles into the fabric crates;
//!   the `figures` binary prints the [`summary`] and fails on a violation.
//! - **Pure observers.** Oracles never advance simulated time, never await,
//!   and never influence model state. On the uncontended fast path they do
//!   bounded arithmetic plus one relaxed atomic increment; allocation is
//!   permitted only on the violation path (building the report) and on
//!   first-touch state insertion (steady state is allocation-free).
//! - **Structured reports.** A violation carries the rule id, simulated time
//!   (when the call site has a clock), fabric tag, and connection id. All
//!   violations are counted per rule; the first 64 are retained verbatim
//!   for the process-level [`summary`].
//! - **Deliberately dependency-free** so the fabric crates can depend on it
//!   without cycles. Simulated time crosses the boundary as plain
//!   nanoseconds, and a protocol state machine as the fabric's own
//!   `fsm_next` function ([`FsmOracle`]): no machine is restated here.
//!
//! Each oracle has a mutation-style unit test in its module: seed a deliberate
//! corruption, assert the oracle fires.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub mod ether;
pub mod fault;
pub mod host;
pub mod ib;
pub mod iwarp;
pub mod mx;
pub mod shard;
pub mod workload;

/// Conformance rules, one per oracle check. The string ids are stable and
/// appear in reports, CI output, and DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// MPA markers every 512 stream bytes with correct back-pointers, and
    /// framed FPDU length = 2 (len) + ULPDU + pad + 4 (CRC).
    MpaFraming,
    /// DDP untagged-queue MSN is strictly increasing per queue (at the codec
    /// layer) and deliveries are consecutive per stream (at the verbs layer).
    DdpMsn,
    /// RDMAP stream legality: every event has a transition in
    /// `iwarp::verbs::fsm_next` (no posts after Terminate), and no Read
    /// Response arrives without an outstanding Read Request.
    RdmapState,
    /// IB QP state machine: every bring-up step and post has a transition
    /// in `infiniband::verbs::fsm_next` (sends need RTS, receives INIT or
    /// later).
    IbQpState,
    /// WQE -> CQE completion ordering per QP: completions are reported in
    /// post order.
    IbCqOrder,
    /// Memory-registration bounds: every RDMA access validated against an
    /// independently maintained shadow of the registry.
    MrBounds,
    /// MX-10G matching order: receives match in the order sends entered the
    /// in-order delivery gate.
    MxMatchOrder,
    /// MX-10G eager/rendezvous switchover agrees with the calibrated
    /// threshold.
    MxRndvSwitch,
    /// TCP sequence continuity: segmenter emits contiguous sequence numbers;
    /// reassembler's expected-sequence advances exactly by delivered bytes.
    TcpSeq,
    /// Ethernet frame accounting covers header + FCS (CRC) + preamble + IFG
    /// and the 64-byte minimum frame.
    EthFrame,
    /// Loss-recovery delivery: under fault injection every transfer unit is
    /// delivered exactly once — no unit twice, none lost.
    FaultDelivery,
    /// Loss-recovery effort: retransmissions stay within the per-fault
    /// budget the recovery scheme implies (no retransmit storms).
    FaultRetxBound,
    /// Cross-shard merge channels: per (src, dst) channel the sequence
    /// numbers are contiguous from 0 and delivery timestamps never run
    /// backwards, and the merged trace itself is nondecreasing in time.
    ShardMergeOrder,
    /// Conservative lookahead: every cross-shard delivery lands at least
    /// one lookahead window after its send time — the invariant that makes
    /// barrier-synchronous sharded execution safe.
    ShardLookahead,
    /// Open-loop workload conservation: per tenant, every flow the arrival
    /// generator issued is either completed or still in flight at quiesce
    /// (`issued == completed + in_flight`), and a drained run has zero
    /// in-flight flows.
    WorkloadConservation,
}

impl Rule {
    /// All rules, in report order.
    pub(crate) const ALL: [Rule; 15] = [
        Rule::MpaFraming,
        Rule::DdpMsn,
        Rule::RdmapState,
        Rule::IbQpState,
        Rule::IbCqOrder,
        Rule::MrBounds,
        Rule::MxMatchOrder,
        Rule::MxRndvSwitch,
        Rule::TcpSeq,
        Rule::EthFrame,
        Rule::FaultDelivery,
        Rule::FaultRetxBound,
        Rule::ShardMergeOrder,
        Rule::ShardLookahead,
        Rule::WorkloadConservation,
    ];

    /// Stable string id, `<fabric>.<rule>`.
    pub(crate) fn id(self) -> &'static str {
        match self {
            Rule::MpaFraming => "iwarp.mpa-framing",
            Rule::DdpMsn => "iwarp.ddp-msn",
            Rule::RdmapState => "iwarp.rdmap-state",
            Rule::IbQpState => "ib.qp-state",
            Rule::IbCqOrder => "ib.cq-order",
            Rule::MrBounds => "host.mr-bounds",
            Rule::MxMatchOrder => "mx.match-order",
            Rule::MxRndvSwitch => "mx.rndv-switch",
            Rule::TcpSeq => "ether.tcp-seq",
            Rule::EthFrame => "ether.frame-accounting",
            Rule::FaultDelivery => "fault.delivery",
            Rule::FaultRetxBound => "fault.retx-bound",
            Rule::ShardMergeOrder => "shard.merge-order",
            Rule::ShardLookahead => "shard.lookahead",
            Rule::WorkloadConservation => "workload.conservation",
        }
    }

    /// Counter slot: the declaration order, which [`Rule::ALL`] follows.
    fn idx(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A single conformance violation, as reported by an oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub(crate) rule: Rule,
    /// Simulated time in nanoseconds, when the call site has a clock.
    /// Codec-layer sites (byte-level framing checks) pass `None`.
    pub(crate) sim_time_ns: Option<u64>,
    /// Fabric tag (`"iwarp"`, `"ib"`, `"mx10g"`, `"ether"`, `"host"`).
    pub(crate) fabric: &'static str,
    /// Connection identifier (QPN, node pair, stream id — fabric-specific;
    /// 0 when the check is not connection-scoped).
    pub(crate) conn: u64,
    /// Human-readable description of the observed inconsistency.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] fabric={} conn={}",
            self.rule, self.fabric, self.conn
        )?;
        match self.sim_time_ns {
            Some(t) => write!(f, " t={t}ns")?,
            None => write!(f, " t=-")?,
        }
        write!(f, ": {}", self.detail)
    }
}

/// A protocol state machine judged by the fabric's own transition function.
///
/// The fabric passes its `fsm_next` in when it builds the oracle, so the
/// machine is stated once, in the fabric, and this crate never restates it.
/// Every observed event counts one check against `rule`; an event the
/// machine has no transition for in the current phase records one
/// violation and leaves the phase where it was.
#[derive(Debug)]
pub struct FsmOracle<S, E> {
    phase: S,
    next: fn(S, E) -> Option<S>,
    rule: Rule,
    fabric: &'static str,
    conn: u64,
}

impl<S: Copy + fmt::Debug, E: Copy + fmt::Debug> FsmOracle<S, E> {
    /// A machine in phase `initial`, advanced by `next`.
    pub fn new(
        initial: S,
        next: fn(S, E) -> Option<S>,
        rule: Rule,
        fabric: &'static str,
        conn: u64,
    ) -> Self {
        FsmOracle {
            phase: initial,
            next,
            rule,
            fabric,
            conn,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> S {
        self.phase
    }

    /// Observe event `ev`: advance, or fire if the machine has no row for
    /// it in the current phase.
    pub fn observe(&mut self, ev: E, now_ns: Option<u64>) -> Option<Violation> {
        note_check(self.rule);
        match (self.next)(self.phase, ev) {
            Some(next) => {
                self.phase = next;
                None
            }
            None => Some(record(Violation {
                rule: self.rule,
                sim_time_ns: now_ns,
                fabric: self.fabric,
                conn: self.conn,
                detail: format!("event {ev:?} is illegal in phase {:?}", self.phase),
            })),
        }
    }
}

/// Violations beyond this many are counted but not retained verbatim.
pub(crate) const MAX_LOGGED: usize = 64;

const RULE_COUNT: usize = Rule::ALL.len();

static CHECKS: [AtomicU64; RULE_COUNT] = [const { AtomicU64::new(0) }; RULE_COUNT];
static VIOLATIONS: [AtomicU64; RULE_COUNT] = [const { AtomicU64::new(0) }; RULE_COUNT];
static LOG: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

/// Count one oracle check against `rule`. Called on every observation —
/// a single relaxed atomic increment, no allocation.
#[inline]
pub(crate) fn note_check(rule: Rule) {
    CHECKS[rule.idx()].fetch_add(1, Ordering::Relaxed);
}

/// Record a violation in the global registry (violation path only — this
/// allocates). Returns the violation back so call sites and tests can
/// inspect it.
pub(crate) fn record(v: Violation) -> Violation {
    VIOLATIONS[v.rule.idx()].fetch_add(1, Ordering::Relaxed);
    let mut log = LOG.lock().expect("simcheck log poisoned");
    if log.len() < MAX_LOGGED {
        log.push(v.clone());
    }
    v
}

/// Per-rule counters for the process-level summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    pub rule: Rule,
    pub checks: u64,
    pub violations: u64,
}

/// Snapshot of the global registry.
#[derive(Debug, Clone)]
pub struct Summary {
    pub rules: Vec<RuleStats>,
    /// The first [`MAX_LOGGED`] violations, verbatim.
    pub(crate) logged: Vec<Violation>,
}

impl Summary {
    pub fn total_checks(&self) -> u64 {
        self.rules.iter().map(|r| r.checks).sum()
    }

    pub fn total_violations(&self) -> u64 {
        self.rules.iter().map(|r| r.violations).sum()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simcheck: {} checks, {} violations",
            self.total_checks(),
            self.total_violations()
        )?;
        for r in &self.rules {
            if r.checks != 0 || r.violations != 0 {
                writeln!(
                    f,
                    "  {:<24} checks={:<10} violations={}",
                    r.rule.id(),
                    r.checks,
                    r.violations
                )?;
            }
        }
        for v in &self.logged {
            writeln!(f, "  {v}")?;
        }
        let dropped = self
            .total_violations()
            .saturating_sub(self.logged.len() as u64);
        if dropped > 0 {
            writeln!(f, "  ... {dropped} further violations not retained")?;
        }
        Ok(())
    }
}

/// Snapshot the global counters and retained violations.
pub fn summary() -> Summary {
    let rules = Rule::ALL
        .iter()
        .map(|&rule| RuleStats {
            rule,
            checks: CHECKS[rule.idx()].load(Ordering::Relaxed),
            violations: VIOLATIONS[rule.idx()].load(Ordering::Relaxed),
        })
        .collect();
    let logged = LOG.lock().expect("simcheck log poisoned").clone();
    Summary { rules, logged }
}

/// Reset all counters and drop retained violations (test isolation).
pub fn reset() {
    for i in 0..RULE_COUNT {
        CHECKS[i].store(0, Ordering::Relaxed);
        VIOLATIONS[i].store(0, Ordering::Relaxed);
    }
    LOG.lock().expect("simcheck log poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len(), "duplicate rule id");
    }

    /// A two-state test machine: `Go` moves Idle → Busy, `Stop` moves it
    /// back, and nothing else is a row.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Phase {
        Idle,
        Busy,
    }

    #[derive(Clone, Copy, Debug)]
    enum Event {
        Go,
        Stop,
    }

    fn next(from: Phase, ev: Event) -> Option<Phase> {
        match (from, ev) {
            (Phase::Idle, Event::Go) => Some(Phase::Busy),
            (Phase::Busy, Event::Stop) => Some(Phase::Idle),
            _ => None,
        }
    }

    fn counts(rule: Rule) -> (u64, u64) {
        let s = summary();
        let r = s
            .rules
            .iter()
            .find(|r| r.rule == rule)
            .expect("rule present");
        (r.checks, r.violations)
    }

    #[test]
    fn fsm_oracle_fires_once_on_a_missing_row_and_keeps_its_phase() {
        // Seeded illegal event: `Go` while Busy. The registry is
        // process-global, so compare deltas on a rule no other test in
        // this crate records against.
        let rule = Rule::IbQpState;
        let (checks0, violations0) = counts(rule);
        let mut o = FsmOracle::new(Phase::Idle, next, rule, "test", 5);
        assert_eq!(o.observe(Event::Go, None), None);
        assert_eq!(o.phase(), Phase::Busy);
        let v = o.observe(Event::Go, Some(9)).expect("no Busy --Go--> row");
        assert_eq!((v.rule, v.conn, v.sim_time_ns), (rule, 5, Some(9)));
        assert!(
            v.detail.contains("Go") && v.detail.contains("Busy"),
            "{}",
            v.detail
        );
        assert_eq!(
            o.phase(),
            Phase::Busy,
            "an illegal event does not move the phase"
        );
        assert_eq!(o.observe(Event::Stop, None), None);
        assert_eq!(o.phase(), Phase::Idle);
        assert_eq!(counts(rule), (checks0 + 3, violations0 + 1));
    }

    #[test]
    fn record_counts_and_caps_log() {
        // The registry is process-global; scope this test to one rule and
        // use relative deltas so it composes with the oracle module tests.
        let before = summary();
        let base = before
            .rules
            .iter()
            .find(|r| r.rule == Rule::EthFrame)
            .expect("rule present")
            .violations;
        let v = record(Violation {
            rule: Rule::EthFrame,
            sim_time_ns: Some(42),
            fabric: "ether",
            conn: 7,
            detail: "seeded".to_owned(),
        });
        assert_eq!(v.conn, 7);
        let after = summary();
        let now = after
            .rules
            .iter()
            .find(|r| r.rule == Rule::EthFrame)
            .expect("rule present")
            .violations;
        assert_eq!(now, base + 1);
        assert!(after.logged.len() <= MAX_LOGGED);
        let line = format!("{v}");
        assert!(line.contains("ether.frame-accounting"), "{line}");
        assert!(line.contains("t=42ns"), "{line}");
    }
}
