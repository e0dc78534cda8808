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
//!   the `figures` binary prints each figure group's counts and their
//!   merged [`Summary`], and fails on a violation.
//! - **Pure observers.** Oracles never advance simulated time, never await,
//!   and never influence model state. On the uncontended fast path they do
//!   bounded arithmetic plus one add to a thread-local counter; allocation is
//!   permitted only on the violation path (building the report) and on
//!   first-touch state insertion (steady state is allocation-free).
//! - **Structured reports.** A violation carries the rule id, simulated time
//!   (when the call site has a clock), fabric tag, and connection id. All
//!   violations are counted per rule; the first 64 are retained verbatim.
//! - **One registry per thread.** Counts land on the thread that runs the
//!   oracle, which is the thread that runs its simulation; [`take`] hands
//!   that thread's counts over and clears them, so a caller that runs one
//!   workload per thread can attribute every count to it.
//! - **Deliberately dependency-free** so the fabric crates can depend on it
//!   without cycles. Simulated time crosses the boundary as plain
//!   nanoseconds, and a protocol state machine as the fabric's own
//!   `fsm_next` function ([`FsmOracle`]): no machine is restated here.
//!
//! Each oracle has a mutation-style unit test in its module: seed a deliberate
//! corruption, assert the oracle fires.

use std::cell::{Cell, RefCell};
use std::fmt;

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

// The registry is per thread. A simulation never leaves the thread that
// built it (`simnet::Sim` is `!Send`), and the codec oracles run on their
// caller's thread, so a thread's counts are exactly the runs it drove.
thread_local! {
    /// Checks per rule: the hot path, one add per observation.
    static CHECKS: [Cell<u64>; RULE_COUNT] = const { [const { Cell::new(0) }; RULE_COUNT] };
    /// Violations per rule and the first [`MAX_LOGGED`] of them verbatim,
    /// touched only when an oracle fires.
    static FIRED: RefCell<([u64; RULE_COUNT], Vec<Violation>)> =
        const { RefCell::new(([0; RULE_COUNT], Vec::new())) };
}

/// Count one oracle check against `rule` on this thread. Called on every
/// observation: one add, no allocation.
#[inline]
pub(crate) fn note_check(rule: Rule) {
    CHECKS.with(|c| {
        let n = &c[rule.idx()];
        n.set(n.get() + 1);
    });
}

/// Record a violation in this thread's registry (violation path only:
/// this allocates). Returns the violation back so call sites and tests
/// can inspect it.
pub(crate) fn record(v: Violation) -> Violation {
    FIRED.with_borrow_mut(|(counts, log)| {
        counts[v.rule.idx()] += 1;
        if log.len() < MAX_LOGGED {
            log.push(v.clone());
        }
    });
    v
}

/// Per-rule counters of a [`Summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    pub rule: Rule,
    pub checks: u64,
    pub violations: u64,
}

/// What one thread's oracles counted between two [`take`]s, or several
/// such takes [merged](Summary::merge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Every rule, in the order [`Rule`] declares them.
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

    /// `(checks, violations)` of `rule`.
    pub fn counts(&self, rule: Rule) -> (u64, u64) {
        let r = self.rules[rule.idx()];
        (r.checks, r.violations)
    }

    /// Add `other`'s counts to this one's; the log keeps this one's
    /// violations, then `other`'s, up to the 64 a summary retains.
    pub fn merge(&mut self, other: Summary) {
        for (r, o) in self.rules.iter_mut().zip(other.rules) {
            r.checks += o.checks;
            r.violations += o.violations;
        }
        let room = MAX_LOGGED.saturating_sub(self.logged.len());
        self.logged.extend(other.logged.into_iter().take(room));
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

/// This thread's counts and retained violations since its last `take`,
/// leaving its registry empty.
pub fn take() -> Summary {
    let (violations, logged) = FIRED.take();
    let rules = Rule::ALL
        .iter()
        .map(|&rule| RuleStats {
            rule,
            checks: CHECKS.with(|c| c[rule.idx()].take()),
            violations: violations[rule.idx()],
        })
        .collect();
    Summary { rules, logged }
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

    #[test]
    fn fsm_oracle_fires_once_on_a_missing_row_and_keeps_its_phase() {
        // Seeded illegal event: `Go` while Busy.
        let rule = Rule::IbQpState;
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
        let s = take();
        assert_eq!((s.counts(rule), s.total_checks()), ((3, 1), 3));
        assert_eq!(s.logged, [v]);
    }

    #[test]
    fn record_counts_and_caps_log() {
        let seeded = |conn| Violation {
            rule: Rule::EthFrame,
            sim_time_ns: Some(42),
            fabric: "ether",
            conn,
            detail: "seeded".to_owned(),
        };
        let v = record(seeded(7));
        let line = format!("{v}");
        assert!(line.contains("ether.frame-accounting"), "{line}");
        assert!(line.contains("t=42ns"), "{line}");
        let one = take();
        assert_eq!((one.total_checks(), one.total_violations()), (0, 1));
        assert_eq!(one.logged, [v]);
        assert_eq!(take().total_violations(), 0, "take empties the registry");

        for conn in 0..MAX_LOGGED as u64 + 1 {
            record(seeded(conn));
        }
        let mut all = take();
        assert_eq!(all.counts(Rule::EthFrame), (0, MAX_LOGGED as u64 + 1));
        assert_eq!(all.logged.len(), MAX_LOGGED);
        // A merge adds the counts and keeps the earlier log first.
        all.merge(one);
        assert_eq!(all.counts(Rule::EthFrame), (0, MAX_LOGGED as u64 + 2));
        assert_eq!((all.logged.len(), all.logged[0].conn), (MAX_LOGGED, 0));
        assert!(format!("{all}").contains("2 further violations not retained"));
    }
}
