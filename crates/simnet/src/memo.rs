//! Whole-transfer memoization: fingerprint-keyed replay of steady-state
//! pipeline traversals.
//!
//! The paper's figures are dominated by *repeated identical transfers*: a
//! bandwidth sweep pushes the same (src, dst, size) message thousands of
//! times through a pipeline that is idle between repetitions. In a
//! deterministic DES, a transfer whose full input state is identical must
//! produce an identical (duration, stats-delta, trace-digest-delta)
//! outcome — so the cut-through fast path computes the closed-form plan
//! **once** per fingerprint and replays the cached outcome on every
//! subsequent hit.
//!
//! ## The state fingerprint
//!
//! A cache entry is only valid when the *entire* input state of the
//! transfer matches. The fingerprint has two halves:
//!
//! * **Cache identity.** Each [`Pipeline`] owns its cache, shared by
//!   clones of that pipeline but by nothing else. The fabric crates hand
//!   out cached per-(src, dst) path handles (and per-shard host paths), so
//!   fabric, endpoints, protocol mode, stage geometry and shard id are all
//!   encoded by *which* cache is consulted — two paths can never observe
//!   each other's entries.
//! * **`MemoKey`.** Within one cache, entries are keyed by the byte
//!   count and the per-segment header overhead — the only per-call
//!   inputs that vary. Nothing else an entry depends on can change under
//!   one cache: the tie-break perturbation salt is captured once at
//!   [`Sim::new`], each pipeline (and so each cache) belongs to one
//!   `Sim`, and a nonzero salt turns the fast path (and with it the memo)
//!   off. Fault judgement happens outside [`Pipeline::transfer`], one unit
//!   at a time in the fabric's recovery engine, so a cached plan never
//!   depends on the fault plane: installing one mid-run leaves every
//!   entry valid (`tests/transfer_diff.rs` pins this).
//!
//! The *calendar occupancy class* is not a key field because only one
//! class is cacheable at all: the fast path (and therefore the memo) only
//! engages when every stage calendar is entirely in the past — the idle
//! steady state. Any occupancy makes the transfer take the regular
//! fast/slow path, and any contention arriving mid-window demotes the
//! replay and **evicts** the entry (see `Speculation::demote` in
//! [`crate::pipe`]).
//!
//! ## Why replay is exact
//!
//! The closed-form plan is a pure function of (stage geometry, chunk
//! partition) *relative to the entry instant*: every operation in it is a
//! max/add over offsets from `now`, and the single saturating subtraction
//! (the cut-through `floor`) can only clamp when the true value is
//! negative — in which case the following `max` discards it either way.
//! So a plan computed at base `t0` is the plan at base `t1` shifted by
//! `t1 - t0`, and caching (completion − base, per-stage totals) replays
//! bit-identically at any later hit. `tests/transfer_diff.rs` checks this
//! over a 100k-case differential sweep, each case replayed against the
//! per-segment walk as well as the memo-off fast path.
//!
//! [`Pipeline`]: crate::Pipeline
//! [`Pipeline::transfer`]: crate::Pipeline::transfer
//! [`Sim::new`]: crate::Sim::new

use crate::units::Bytes;

/// Fingerprint of one memoizable transfer within a pipeline's cache.
///
/// The cache instance itself already pins fabric, src/dst path, protocol
/// mode, stage geometry and shard (see the module docs); the key pins the
/// per-call inputs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct MemoKey {
    /// Message payload length.
    pub(crate) bytes: Bytes,
    /// Per-segment header overhead.
    pub(crate) overhead: Bytes,
}

/// Maximum entries per pipeline cache. Steady-state workloads use a
/// handful of distinct message sizes per path; the cap only matters for
/// adversarial size sweeps, where oldest-key eviction (counted in
/// `SimStats::memo_evictions`) keeps memory bounded.
pub(crate) const MEMO_CAPACITY: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_and_compares_by_value() {
        let a = MemoKey {
            bytes: Bytes::new(1),
            overhead: Bytes::new(2),
        };
        let b = MemoKey {
            bytes: Bytes::new(2),
            ..a
        };
        assert!(a < b);
        assert_eq!(a, a);
    }
}
