//! Cross-shard merge-channel conformance oracles for the sharded
//! simulation engine (`simnet::shard`): deterministic per-channel ordering
//! (`shard.merge-order`) and the conservative-lookahead delivery bound
//! (`shard.lookahead`).
//!
//! The sharded engine exchanges events between shards through per
//! `(src, dst)` channels and merges them into one deterministic delivery
//! order. Two invariants make that safe and reproducible, and both are
//! checkable from the merged trace alone:
//!
//! 1. **Merge order** — within each channel, sequence numbers are
//!    contiguous from 0 (nothing dropped, duplicated, or reordered) and
//!    delivery timestamps never decrease; across channels, the merged
//!    trace itself is nondecreasing in delivery time.
//! 2. **Lookahead** — every delivery lands at least one lookahead window
//!    (the minimum declared link latency) after its send time. A delivery
//!    inside the window would mean a shard could receive an event *before*
//!    its local clock reached the event's timestamp — the exact failure
//!    conservative synchronization exists to rule out.
//!
//! simcheck is dependency-free, so the trace crosses the boundary as plain
//! integers ([`CrossEventRecord`], mirroring `simnet::shard::CrossRecord`).
//! [`check_trace`] validates a complete merged trace after a run.

use std::collections::BTreeMap;

use crate::{note_check, record, Rule, Violation};

/// One cross-shard delivery, as plain integers: delivery time, send time,
/// source shard, destination shard, per-channel sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEventRecord {
    /// Simulated delivery time at the destination shard, nanoseconds.
    pub at_ns: u64,
    /// Simulated send time at the source shard, nanoseconds.
    pub sent_ns: u64,
    /// Source shard id.
    pub src: u64,
    /// Destination shard id.
    pub dst: u64,
    /// Sequence number within the `(src, dst)` channel, from 0.
    pub seq: u64,
}

/// Encode a channel as a connection id for violation reports.
fn chan_conn(src: u64, dst: u64) -> u64 {
    (src << 32) | (dst & 0xFFFF_FFFF)
}

/// Incremental merge-channel oracle. Feed it every delivery in merge
/// order; it tracks per-channel sequence continuity and the two
/// monotonicity invariants.
#[derive(Debug, Default)]
struct MergeOracle {
    /// Next expected seq and last delivery time per `(src, dst)` channel.
    chans: BTreeMap<(u64, u64), (u64, u64)>,
    /// Last delivery time seen in the merged order.
    last_at: u64,
}

impl MergeOracle {
    /// Observe the next delivery in merge order. Fires `shard.merge-order`
    /// on a sequence gap/duplicate, a per-channel time regression, or a
    /// merged-order time regression.
    fn on_deliver(&mut self, r: &CrossEventRecord) -> Option<Violation> {
        note_check(Rule::ShardMergeOrder);
        let conn = chan_conn(r.src, r.dst);
        if r.at_ns < self.last_at {
            let last = self.last_at;
            return Some(record(Violation {
                rule: Rule::ShardMergeOrder,
                sim_time_ns: Some(r.at_ns),
                fabric: "shard",
                conn,
                detail: format!(
                    "merged trace ran backwards: delivery at {}ns after one at {last}ns",
                    r.at_ns
                ),
            }));
        }
        self.last_at = r.at_ns;
        let (expect_seq, last_at) = self
            .chans
            .entry((r.src, r.dst))
            .or_insert((0, 0))
            .to_owned();
        if r.seq != expect_seq {
            return Some(record(Violation {
                rule: Rule::ShardMergeOrder,
                sim_time_ns: Some(r.at_ns),
                fabric: "shard",
                conn,
                detail: format!(
                    "channel {}->{} expected seq {expect_seq}, saw {}",
                    r.src, r.dst, r.seq
                ),
            }));
        }
        if r.at_ns < last_at {
            return Some(record(Violation {
                rule: Rule::ShardMergeOrder,
                sim_time_ns: Some(r.at_ns),
                fabric: "shard",
                conn,
                detail: format!(
                    "channel {}->{} delivery time regressed: {}ns after {last_at}ns",
                    r.src, r.dst, r.at_ns
                ),
            }));
        }
        self.chans.insert((r.src, r.dst), (expect_seq + 1, r.at_ns));
        None
    }
}

/// Check the lookahead bound for one delivery: `at >= sent + lookahead`.
/// Fires `shard.lookahead` on a delivery inside the window (or one that
/// travels backwards in time).
fn check_lookahead(r: &CrossEventRecord, lookahead_ns: u64) -> Option<Violation> {
    note_check(Rule::ShardLookahead);
    let earliest = r.sent_ns.saturating_add(lookahead_ns);
    if r.at_ns < earliest {
        return Some(record(Violation {
            rule: Rule::ShardLookahead,
            sim_time_ns: Some(r.at_ns),
            fabric: "shard",
            conn: chan_conn(r.src, r.dst),
            detail: format!(
                "delivery inside the lookahead window: sent {}ns + lookahead {lookahead_ns}ns \
                 > delivered {}ns",
                r.sent_ns, r.at_ns
            ),
        }));
    }
    None
}

/// Validate a complete merged trace: every delivery through a
/// `MergeOracle`, and — when the run had links (`lookahead_ns` is
/// `Some`) — every delivery against `check_lookahead`. Returns all
/// violations found (empty for a conforming trace).
pub fn check_trace(trace: &[CrossEventRecord], lookahead_ns: Option<u64>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut merge = MergeOracle::default();
    for r in trace {
        if let Some(v) = merge.on_deliver(r) {
            out.push(v);
        }
        if let Some(l) = lookahead_ns {
            if let Some(v) = check_lookahead(r, l) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, sent: u64, src: u64, dst: u64, seq: u64) -> CrossEventRecord {
        CrossEventRecord {
            at_ns: at,
            sent_ns: sent,
            src,
            dst,
            seq,
        }
    }

    #[test]
    fn conforming_trace_passes() {
        // Two interleaved channels, each contiguous, merged order sorted.
        let trace = vec![
            rec(1_000, 500, 0, 1, 0),
            rec(1_000, 500, 1, 0, 0),
            rec(2_000, 1_500, 0, 1, 1),
            rec(2_500, 2_000, 1, 0, 1),
        ];
        assert!(check_trace(&trace, Some(500)).is_empty());
    }

    #[test]
    fn seq_gap_fires() {
        let trace = vec![rec(1_000, 500, 0, 1, 0), rec(2_000, 1_500, 0, 1, 2)];
        let vs = check_trace(&trace, None);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::ShardMergeOrder);
        assert!(vs[0].detail.contains("expected seq 1"), "{}", vs[0].detail);
    }

    #[test]
    fn duplicate_seq_fires() {
        let trace = vec![rec(1_000, 500, 0, 1, 0), rec(2_000, 1_500, 0, 1, 0)];
        let vs = check_trace(&trace, None);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::ShardMergeOrder);
    }

    #[test]
    fn merged_time_regression_fires() {
        let trace = vec![rec(2_000, 1_500, 0, 1, 0), rec(1_000, 500, 1, 0, 0)];
        let vs = check_trace(&trace, None);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("ran backwards"), "{}", vs[0].detail);
    }

    #[test]
    fn lookahead_violation_fires() {
        // Sent at 900, lookahead 500 => earliest legal delivery 1400.
        let trace = vec![rec(1_200, 900, 0, 1, 0)];
        let vs = check_trace(&trace, Some(500));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::ShardLookahead);
        assert_eq!(vs[0].conn, 1);
    }

    #[test]
    fn lookahead_boundary_is_legal() {
        let trace = vec![rec(1_400, 900, 0, 1, 0)];
        assert!(check_trace(&trace, Some(500)).is_empty());
    }
}
