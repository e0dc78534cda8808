//! Lightweight shared counters for instrumenting simulated components,
//! plus the executor-level [`SimStats`] snapshot.

use std::cell::Cell;
use std::rc::Rc;

use crate::time::SimDuration;

/// Snapshot of the executor's event/poll/wake counters, taken with
/// [`crate::Sim::stats`]. All counts are cumulative since `Sim::new`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Tasks spawned.
    pub spawns: u64,
    /// Task polls executed (each is one scheduling event).
    pub polls: u64,
    /// Wakes observed, each addressed to a task by slab id: by a fired
    /// timer, or by a primitive (channel, notify, join, …) that parked the
    /// task. A wake of a task that has finished is counted and dropped.
    pub wakes: u64,
    /// Wakes coalesced away because the task was already scheduled.
    pub redundant_wakes: u64,
    /// Timers that reached their deadline and fired.
    pub timer_events: u64,
    /// Timers armed (`sleep` registrations that actually hit the heap).
    pub timers_set: u64,
    /// Sleeps dropped before firing (reclaimed lazily at heap pop).
    pub timers_cancelled: u64,
    /// Tasks currently alive (spawned, not yet completed).
    pub tasks_live: u64,
    /// High-water mark of `tasks_live`: the most tasks alive at once, each
    /// holding a slab slot and its boxed future.
    pub tasks_peak: u64,
    /// Heap entries outstanding (pending + not-yet-reclaimed cancelled).
    pub timers_pending: u64,
    /// Pipeline transfers completed by the cut-through fast path: the whole
    /// traversal was computed in closed form and finished on a single
    /// completion event.
    pub fast_path_hits: u64,
    /// Pipeline transfers that took the per-segment walk, either because a
    /// stage calendar was busy at entry or because a competing reservation
    /// arrived mid-traversal and demoted the speculation.
    pub slow_path_falls: u64,
    /// Scheduling events (timer firings + task spawns) avoided by committed
    /// fast-path traversals.
    pub events_coalesced: u64,
    /// First-fit calendar searches on live pipe calendars: one per pipe
    /// reservation (a segment batch of the per-segment walk, a plain pipe
    /// transfer, an `occupy`), and one per stage for a short message
    /// whose stages are distinct pipes, each stage taking the message's
    /// segments as one train. A fast-path plan, computed or replayed from
    /// the memo, writes its reservations without booking, so it adds none.
    pub bookings: u64,
    /// High-water mark of any pipe calendar's interval count; guards
    /// against unbounded calendar growth under multi-connection load.
    pub calendar_peak_len: u64,
    /// Memo-eligible pipeline transfers replayed from the whole-transfer
    /// cache ([`crate::memo`]): the closed-form plan was not recomputed,
    /// the cached (duration, counter-delta) outcome was applied instead.
    pub memo_hits: u64,
    /// Memo-eligible transfers whose fingerprint was not cached — the
    /// plan was computed fresh and inserted.
    pub memo_misses: u64,
    /// Memo entries evicted: a replayed transfer was demoted by mid-window
    /// contention (the entry is no longer trusted), or the per-pipeline
    /// capacity cap pushed out the oldest key.
    pub memo_evictions: u64,
    /// Units a [`crate::fault::FaultPlane`] judged lost (delivered units
    /// are not counted).
    pub faults_injected: u64,
    /// Units retransmitted by the fabric recovery engines (TCP segments,
    /// IB packets, MX messages — whatever the fabric's resend granularity).
    pub retransmits: u64,
    /// Retransmission-timeout expiries (timer-driven recovery, as opposed
    /// to feedback-driven fast retransmit).
    pub rto_fires: u64,
    /// Cross-shard events delivered into this simulation through the
    /// sharded engine's merge channels ([`crate::shard`]). 0 for a plain
    /// single-calendar `Sim`.
    pub cross_shard_events: u64,
    /// Shards the run was partitioned into. 0 for a plain `Sim`; set by
    /// the sharded engine when aggregating per-shard snapshots.
    pub shards: u64,
    /// Conservative-lookahead barrier rounds the sharded run took to
    /// drain every calendar. 0 for a plain `Sim`.
    pub lookahead_rounds: u64,
    /// High-water mark of cross-shard events buffered at any one barrier
    /// (the merge queue): bounds the memory the exchange can pin and, like
    /// `calendar_peak_len`, guards against unbounded growth.
    pub merge_queue_peak: u64,
    /// Flows issued by an open-loop workload generator (`netbench::workload`):
    /// every arrival the generator handed to a service queue, whether or
    /// not it has completed yet.
    pub flows_issued: u64,
    /// Flows whose response (or final streaming byte) completed — at
    /// quiesce the conservation oracle requires
    /// `flows_issued == flows_completed + in-flight`.
    pub flows_completed: u64,
    /// High-water mark of any one tenant's generator backlog (arrivals
    /// issued but not yet picked up by the service loop): the open-loop
    /// queue depth that closed-loop ping-pongs structurally cannot grow.
    pub gen_backlog_peak: u64,
}

impl SimStats {
    /// Total discrete events processed: task polls plus timer firings.
    /// This is the numerator of the events/second throughput figure.
    pub fn events(&self) -> u64 {
        self.polls + self.timer_events
    }

    /// Fold another snapshot into this one: counters add, high-water marks
    /// take the max. Used by the sharded engine to aggregate per-shard
    /// executor snapshots into one run-level view (which then overrides
    /// `shards`, `lookahead_rounds` and `merge_queue_peak` with
    /// run-level values).
    pub(crate) fn absorb(&mut self, other: &SimStats) {
        self.spawns += other.spawns;
        self.polls += other.polls;
        self.wakes += other.wakes;
        self.redundant_wakes += other.redundant_wakes;
        self.timer_events += other.timer_events;
        self.timers_set += other.timers_set;
        self.timers_cancelled += other.timers_cancelled;
        self.tasks_live += other.tasks_live;
        self.tasks_peak = self.tasks_peak.max(other.tasks_peak);
        self.timers_pending += other.timers_pending;
        self.fast_path_hits += other.fast_path_hits;
        self.slow_path_falls += other.slow_path_falls;
        self.events_coalesced += other.events_coalesced;
        self.bookings += other.bookings;
        self.calendar_peak_len = self.calendar_peak_len.max(other.calendar_peak_len);
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
        self.faults_injected += other.faults_injected;
        self.retransmits += other.retransmits;
        self.rto_fires += other.rto_fires;
        self.cross_shard_events += other.cross_shard_events;
        self.shards += other.shards;
        self.lookahead_rounds = self.lookahead_rounds.max(other.lookahead_rounds);
        self.merge_queue_peak = self.merge_queue_peak.max(other.merge_queue_peak);
        self.flows_issued += other.flows_issued;
        self.flows_completed += other.flows_completed;
        self.gen_backlog_peak = self.gen_backlog_peak.max(other.gen_backlog_peak);
    }
}

/// A shared monotonically-increasing counter.
#[derive(Clone, Default, Debug)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A shared accumulator of simulated durations (e.g. CPU busy time, which is
/// the quantity the LogP overhead benchmarks measure).
#[derive(Clone, Default, Debug)]
pub struct TimeAccumulator(Rc<Cell<SimDuration>>);

impl TimeAccumulator {
    /// New accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate a span.
    #[inline]
    pub fn add(&self, d: SimDuration) {
        self.0.set(self.0.get() + d);
    }

    /// Total accumulated time.
    #[inline]
    pub fn get(&self) -> SimDuration {
        self.0.get()
    }

    /// The total so far, leaving zero behind.
    #[inline]
    pub fn take(&self) -> SimDuration {
        self.0.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shares_state_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.get(), 5);
    }

    #[test]
    fn time_accumulator_sums() {
        let t = TimeAccumulator::new();
        t.add(SimDuration::from_micros(2));
        t.add(SimDuration::from_nanos(500));
        assert_eq!(t.get().as_nanos(), 2_500);
    }
}
