//! The busy calendar behind a [`Pipe`](crate::pipe::Pipe): which stretches
//! of virtual time are already reserved, and where the next reservation
//! fits.
//!
//! The calendar is a time-ordered list of disjoint, non-touching busy
//! *runs* (touching reservations merge on insert). The one question asked
//! of it on the hot path is first-fit: the earliest `t ≥ earliest` with
//! `[t, t + dur)` free. A pipe that both directions of a NIC stage through
//! collects thousands of runs separated by sub-segment slivers that fit
//! nothing, and a plain ordered map has to step over every one of them.
//!
//! So the runs live in blocks of at most [`BLOCK_CAP`], and each block
//! caches the largest free gap that *starts* inside it — after one of its
//! runs, up to the next run, which for the block's last run is the first
//! run of the following block (the last block's final gap is unbounded).
//! A block whose cached gap is shorter than `dur` is skipped with one
//! comparison. A reservation costs a search for `earliest` (galloping
//! back from the tail, where most reservations are asked for, then
//! bisecting), one scan of at most a block and one summary per skipped
//! block: `O(B + n/B)` for `n` runs in blocks of `B`, against `O(n)`.
//! Keeping the summaries costs a rescan of one block only when its
//! summary may have fallen — the gap that shrank or vanished was its
//! largest, it split, or it stopped being the last block — and never for
//! the last block, whose summary is its unbounded tail gap. FIFO growth
//! therefore rescans once per block created, not once per run.
//!
//! A full block splits in two when a run lands inside it; a run later than
//! every other starts a new block instead, so FIFO growth leaves full
//! blocks behind it. Blocks disappear when pruned or bridged empty and are
//! never re-merged: the `n/B` term counts blocks, which bridging can leave
//! under-full until pruning reaches them.

#[cfg(test)]
use std::cell::Cell;

use crate::time::{SimDuration, SimTime};

/// Most runs one block holds. Every block's `Vec` is allocated at this
/// capacity, so it never regrows. Measured on fig2's 256-connection
/// points: 64 beats 32 and 128 (scan and shift lengths against the number
/// of summaries to step over).
const BLOCK_CAP: usize = 64;

/// One busy stretch `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    start: SimTime,
    end: SimTime,
}

#[derive(Debug)]
struct Block {
    /// Time-ordered, disjoint, non-touching; never empty.
    runs: Vec<Run>,
    /// Largest free gap following one of `runs` (see the module docs);
    /// `SimDuration::MAX` in the last block. Maintained by
    /// [`Calendar::refresh`].
    max_gap: SimDuration,
}

impl Block {
    fn holding(runs: &[Run]) -> Self {
        let mut v = Vec::with_capacity(BLOCK_CAP);
        v.extend_from_slice(runs);
        Block {
            runs: v,
            max_gap: SimDuration::MAX,
        }
    }

    fn last(&self) -> Run {
        self.runs[self.runs.len() - 1]
    }

    /// Index of the first run at or after `from` that is followed by at
    /// least `dur` of free time. `tail_gap` is the gap after the last run.
    fn first_gap_from(
        &self,
        from: usize,
        dur: SimDuration,
        tail_gap: SimDuration,
    ) -> Option<usize> {
        self.runs[from..]
            .windows(2)
            .position(|w| w[1].start - w[0].end >= dur)
            .map(|k| from + k)
            .or_else(|| (tail_gap >= dur).then(|| self.runs.len() - 1))
    }
}

/// A pipe's reserved busy time. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Calendar {
    blocks: Vec<Block>,
    /// Total runs across all blocks.
    len: usize,
    /// Runs and block summaries examined so far (scaling tests only).
    #[cfg(test)]
    probes: Cell<u64>,
    /// Block summaries recomputed so far (scaling tests only).
    #[cfg(test)]
    refreshes: Cell<u64>,
}

impl Calendar {
    /// Number of (merged) busy runs currently held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// End of the latest reservation, `None` when the calendar is empty.
    pub(crate) fn last_end(&self) -> Option<SimTime> {
        self.blocks.last().map(|blk| blk.last().end)
    }

    /// Reserve the first `dur` free at or after `earliest` and return its
    /// start. Runs that ended at or before `now` are dropped first: nothing
    /// can be placed there any more. A calendar booked only at or after
    /// one `now` never drops a run (each ends after `now`), which is how
    /// the pipe's closed-form plan books its virtual stages.
    pub(crate) fn book(&mut self, now: SimTime, earliest: SimTime, dur: SimDuration) -> SimTime {
        debug_assert!(!dur.is_zero(), "zero-length reservation");
        self.prune(now);
        let (mut b, mut i) = self.seek(earliest);
        let mut start = earliest;
        let blocked = self
            .blocks
            .get(b)
            .is_some_and(|blk| start + dur > blk.runs[i].start);
        if blocked {
            // `earliest` falls in or too close before run `(b, i)`, so the
            // reservation starts where some run ends: the first one, from
            // here on, followed by a gap of `dur`. The unbounded gap after
            // the very last run ends the search.
            loop {
                self.probe(1);
                let blk = &self.blocks[b];
                if blk.max_gap >= dur {
                    let found = blk.first_gap_from(i, dur, self.tail_gap(b));
                    self.probe(found.map_or(blk.runs.len(), |j| j + 1) - i);
                    if let Some(j) = found {
                        start = blk.runs[j].end;
                        (b, i) = if j + 1 < blk.runs.len() {
                            (b, j + 1)
                        } else {
                            (b + 1, 0)
                        };
                        break;
                    }
                }
                b += 1;
                i = 0;
            }
        }
        self.place(b, i, start, start + dur);
        start
    }

    /// Mark `[start, end)` busy. The interval must be free; it may touch
    /// its neighbours, which then merge with it.
    pub(crate) fn insert(&mut self, start: SimTime, end: SimTime) {
        debug_assert!(start < end, "empty calendar interval");
        let (b, i) = self.seek(start);
        self.place(b, i, start, end);
    }

    /// Drop every run that ended at or before `now`. Ends are sorted, so
    /// those form a prefix: whole blocks first, then the head of one.
    fn prune(&mut self, now: SimTime) {
        if self.blocks.first().is_none_or(|blk| blk.runs[0].end > now) {
            return;
        }
        let whole = self.blocks.partition_point(|blk| blk.last().end <= now);
        self.len -= self.blocks[..whole]
            .iter()
            .map(|blk| blk.runs.len())
            .sum::<usize>();
        self.blocks.drain(..whole);
        if let Some(head) = self.blocks.first_mut() {
            let past = head.runs.partition_point(|r| r.end <= now);
            if past > 0 {
                // The gaps after the dropped runs go with them.
                let dropped = head.runs[..=past]
                    .windows(2)
                    .map(|w| w[1].start - w[0].end)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                head.runs.drain(..past);
                self.len -= past;
                self.lost_gap(0, dropped);
            }
        }
    }

    /// Position `(block, index)` of the first run ending after `t`;
    /// `(self.blocks.len(), 0)` when there is none.
    fn seek(&self, t: SimTime) -> (usize, usize) {
        let ended = |blk: &Block| {
            self.probe(1);
            blk.last().end <= t
        };
        // Most reservations are asked for at or near the tail of the
        // queue, so start there: every block from `hi` on ends after `t`;
        // gallop `hi` back until the block stepped to has ended by `t`,
        // then bisect the stretch stepped over.
        let mut hi = self.blocks.len();
        let mut step = 1;
        let lo = loop {
            if hi == 0 {
                break 0;
            }
            let k = hi.saturating_sub(step);
            if ended(&self.blocks[k]) {
                break k + 1;
            }
            hi = k;
            step *= 2;
        };
        let b = lo + self.blocks[lo..hi].partition_point(ended);
        let i = self.blocks.get(b).map_or(0, |blk| {
            blk.runs.partition_point(|r| {
                self.probe(1);
                r.end <= t
            })
        });
        (b, i)
    }

    /// Free time between the last run of block `b` and the next block.
    fn tail_gap(&self, b: usize) -> SimDuration {
        self.blocks.get(b + 1).map_or(SimDuration::MAX, |next| {
            next.runs[0].start - self.blocks[b].last().end
        })
    }

    /// Recompute block `b`'s cached gap from its runs. Only due when the
    /// summary may have fallen: see [`Self::lost_gap`], and a block that
    /// stops being the last or splits.
    fn refresh(&mut self, b: usize) {
        #[cfg(test)]
        self.refreshes.set(self.refreshes.get() + 1);
        let tail = self.tail_gap(b);
        let blk = &mut self.blocks[b];
        let inner = blk.runs.windows(2).map(|w| w[1].start - w[0].end).max();
        blk.max_gap = inner.map_or(tail, |g| g.max(tail));
    }

    /// Block `b`'s gap of width `old` shrank or vanished. The summary
    /// falls only if that gap was the largest, and never in the last
    /// block, whose unbounded tail gap is always the largest.
    fn lost_gap(&mut self, b: usize, old: SimDuration) {
        if b + 1 < self.blocks.len() && old == self.blocks[b].max_gap {
            self.refresh(b);
        }
    }

    /// Block `b` gained a gap of width `gap`.
    fn gained_gap(&mut self, b: usize, gap: SimDuration) {
        let blk = &mut self.blocks[b];
        blk.max_gap = blk.max_gap.max(gap);
    }

    /// Make the free interval `[start, end)` busy, given the position
    /// `(b, i)` of the first run ending after `start` (which therefore
    /// starts at or after `end`). Touching neighbours are merged.
    fn place(&mut self, b: usize, i: usize, start: SimTime, end: SimTime) {
        let next = self.blocks.get(b).map(|blk| blk.runs[i]);
        debug_assert!(
            next.is_none_or(|n| end <= n.start),
            "calendar interval [{start:?}, {end:?}) overlaps busy run {next:?}"
        );
        let prev = if i > 0 {
            Some((b, i - 1))
        } else {
            b.checked_sub(1).map(|p| (p, self.blocks[p].runs.len() - 1))
        };
        let joins_prev = prev.filter(|&(pb, pi)| self.blocks[pb].runs[pi].end == start);
        let joins_next = next.filter(|n| n.start == end);
        match (joins_prev, joins_next) {
            (Some((pb, pi)), Some(n)) => {
                // Bridges the two: the earlier run swallows the later, the
                // gap between them vanishes and the one after `n` is now
                // the merged run's.
                let after_n = match self.blocks[b].runs.get(i + 1) {
                    Some(r) => r.start - n.end,
                    None => self.tail_gap(b),
                };
                self.blocks[pb].runs[pi].end = n.end;
                self.blocks[b].runs.remove(i);
                self.len -= 1;
                if pb != b {
                    // `after_n` moves from `b` (its first run's) to `pb`.
                    if self.blocks[b].runs.is_empty() {
                        self.blocks.remove(b);
                    } else {
                        self.lost_gap(b, after_n);
                    }
                    self.gained_gap(pb, after_n);
                }
                self.lost_gap(pb, end - start);
            }
            (Some((pb, pi)), None) => {
                let run = &mut self.blocks[pb].runs[pi];
                let old_gap = next.map_or(SimDuration::MAX, |n| n.start - run.end);
                run.end = end;
                self.lost_gap(pb, old_gap);
            }
            (None, Some(n)) => {
                self.blocks[b].runs[i].start = start;
                // The gap that shrank is owned by the run before it.
                if let Some((pb, pi)) = prev {
                    let old_gap = n.start - self.blocks[pb].runs[pi].end;
                    self.lost_gap(pb, old_gap);
                }
            }
            (None, None) => self.insert_run(b, i, Run { start, end }),
        }
    }

    /// Insert a run that touches neither neighbour at position `(b, i)`.
    fn insert_run(&mut self, b: usize, i: usize, run: Run) {
        self.len += 1;
        if b == self.blocks.len() {
            // Later than every run. A full last block is left as it is and
            // a new one started: FIFO growth leaves full blocks, not halves.
            // Within the last block the summary stays unbounded; a block
            // that stops being the last gets its real one.
            match self.blocks.last_mut() {
                Some(last) if last.runs.len() < BLOCK_CAP => last.runs.push(run),
                _ => {
                    self.blocks.push(Block::holding(&[run]));
                    if let Some(p) = b.checked_sub(1) {
                        self.refresh(p);
                    }
                }
            }
            return;
        }
        // `run` lands in the gap before run `(b, i)`: the part in front of
        // it stays with that gap's owner, the part behind it is `run`'s.
        let next_start = self.blocks[b].runs[i].start;
        let lost = if i > 0 {
            Some((b, next_start - self.blocks[b].runs[i - 1].end))
        } else {
            b.checked_sub(1)
                .map(|p| (p, next_start - self.blocks[p].last().end))
        };
        let half = BLOCK_CAP / 2;
        if self.blocks[b].runs.len() == BLOCK_CAP {
            let upper = Block::holding(&self.blocks[b].runs[half..]);
            self.blocks[b].runs.truncate(half);
            self.blocks.insert(b + 1, upper);
            if i > half {
                self.blocks[b + 1].runs.insert(i - half, run);
            } else {
                self.blocks[b].runs.insert(i, run);
            }
            // Each half holds a share of the old block's gaps; an upper
            // half that is the last block keeps the unbounded summary.
            self.refresh(b);
            if b + 2 < self.blocks.len() {
                self.refresh(b + 1);
            }
            if let Some((p, old)) = lost.filter(|&(p, _)| p < b) {
                self.lost_gap(p, old);
            }
            return;
        }
        self.blocks[b].runs.insert(i, run);
        if let Some((p, old)) = lost {
            self.lost_gap(p, old);
        }
        // Both parts are narrower than the gap they came from, so only a
        // new first run can raise its block's summary.
        if i == 0 {
            self.gained_gap(b, next_start - run.end);
        }
    }

    #[inline]
    fn probe(&self, _entries: usize) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + _entries as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The ordered-map calendar this module replaced, kept as the
    /// reference model: the three functions as they stood in `pipe.rs`
    /// (one map entry per run, a linear walk over them), `first_fit`
    /// also counting the entries it walks.
    mod reference {
        use std::collections::BTreeMap;

        pub fn prune_past(iv: &mut BTreeMap<u64, u64>, now_ns: u64) {
            match iv.iter().find(|&(_, &en)| en > now_ns).map(|(&st, _)| st) {
                Some(first_live) => {
                    if iv.first_key_value().is_some_and(|(&st, _)| st < first_live) {
                        *iv = iv.split_off(&first_live);
                    }
                }
                None => iv.clear(),
            }
        }

        /// Returns the start and the number of entries walked to find it.
        pub fn first_fit(iv: &BTreeMap<u64, u64>, earliest_ns: u64, dur: u64) -> (u64, u64) {
            let mut t = earliest_ns;
            let mut walked = 0;
            let scan_from = iv
                .range(..=t)
                .next_back()
                .map_or(0, |(&st, &en)| if en > t { st } else { st + 1 });
            for (&st, &en) in iv.range(scan_from..) {
                walked += 1;
                if en <= t {
                    continue;
                }
                if t + dur <= st {
                    break;
                }
                t = t.max(en);
            }
            (t, walked)
        }

        pub fn insert_merged(iv: &mut BTreeMap<u64, u64>, st: u64, en: u64) {
            let mut merged_st = st;
            let mut merged_en = en;
            if let Some((&pst, &pen)) = iv.range(..=merged_st).next_back() {
                if pen == merged_st {
                    iv.remove(&pst);
                    merged_st = pst;
                }
            }
            if let Some((&sst, &sen)) = iv.range(merged_en..).next() {
                if sst == merged_en {
                    iv.remove(&sst);
                    merged_en = sen;
                }
            }
            iv.insert(merged_st, merged_en);
        }
    }

    /// splitmix64: seeded, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The calendar in the reference model's raw nanoseconds.
    impl Calendar {
        fn book_ns(&mut self, now: u64, earliest: u64, dur: u64) -> u64 {
            self.book(
                SimTime::from_nanos(now),
                SimTime::from_nanos(earliest),
                SimDuration::from_nanos(dur),
            )
            .as_nanos()
        }

        fn insert_ns(&mut self, start: u64, end: u64) {
            self.insert(SimTime::from_nanos(start), SimTime::from_nanos(end));
        }

        fn last_end_ns(&self) -> Option<u64> {
            self.last_end().map(SimTime::as_nanos)
        }

        fn flat(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.blocks.iter().flat_map(|blk| {
                blk.runs
                    .iter()
                    .map(|r| (r.start.as_nanos(), r.end.as_nanos()))
            })
        }

        /// Every structural invariant, each cached gap recomputed from
        /// scratch, and run-for-run equality with `model`.
        fn assert_matches(&self, model: &BTreeMap<u64, u64>) {
            assert_eq!(self.len(), model.len());
            assert_eq!(
                self.last_end_ns(),
                model.last_key_value().map(|(_, &en)| en)
            );
            let mut expected = model.iter();
            let mut prev_end = None;
            for (b, blk) in self.blocks.iter().enumerate() {
                assert!(!blk.runs.is_empty(), "block {b} is empty");
                assert!(blk.runs.len() <= BLOCK_CAP, "block {b} is overfull");
                assert_eq!(blk.runs.capacity(), BLOCK_CAP, "block {b} regrew");
                let next_first = self.blocks.get(b + 1).map(|n| n.runs[0]);
                let mut max_gap = SimDuration::ZERO;
                for (j, &r) in blk.runs.iter().enumerate() {
                    let (start, end) = (r.start.as_nanos(), r.end.as_nanos());
                    assert_eq!(expected.next(), Some((&start, &end)));
                    assert!(r.start < r.end, "empty run {r:?}");
                    assert!(
                        prev_end.is_none_or(|e| e < r.start),
                        "{r:?} overlaps or touches the run ending at {prev_end:?}"
                    );
                    prev_end = Some(r.end);
                    let next = blk.runs.get(j + 1).copied().or(next_first);
                    max_gap = max_gap.max(next.map_or(SimDuration::MAX, |n| n.start - r.end));
                }
                assert_eq!(blk.max_gap, max_gap, "stale gap summary on block {b}");
            }
            assert_eq!(expected.next(), None);
        }

        /// [`Self::assert_matches`] without a model: structure only.
        fn check(&self) {
            self.assert_matches(&self.flat().collect());
        }
    }

    enum Op {
        Reserve { now: u64, earliest: u64, dur: u64 },
        Insert { start: u64, end: u64 },
    }

    /// One segment's service time in the generated streams, ns.
    const SEG: u64 = 1_200;

    /// Seeded operation stream shaped like a shared NIC stage: reservations
    /// of 1 ns to many segments, asked for anywhere from `now` to far past
    /// the tail, plus `insert`s of intervals that are free in `model` —
    /// loose, touching the run before, or filling a gap exactly. `now`
    /// creeps forward while the calendar is shorter than `target` runs and
    /// jumps up to half-way to the tail once it is longer, so the length
    /// hovers around `target` and prunes take whole blocks plus part of
    /// one. `target == None` pins `now` at zero and emits no `insert`: the
    /// prune-free stream the pipe's closed-form plan books.
    fn next_op(
        rng: &mut Rng,
        now: &mut u64,
        target: Option<usize>,
        model: &BTreeMap<u64, u64>,
    ) -> Op {
        let tail = model.last_key_value().map_or(*now, |(_, &en)| en.max(*now));
        if let Some(target) = target {
            if rng.below(4) == 0 {
                *now += if model.len() > target {
                    rng.below((tail - *now) / 2 + 1)
                } else {
                    rng.below(SEG)
                };
            }
        }
        let earliest = match rng.below(8) {
            0 | 1 => *now,
            2 => *now + rng.below(SEG),
            3..=5 => *now + rng.below(tail - *now + 1),
            6 => tail + rng.below(4),
            _ => tail + rng.below(4 * SEG),
        };
        let dur = match rng.below(8) {
            0 => 1,
            1 | 2 => 1 + rng.below(SEG),
            3..=5 => SEG,
            6 => 8 * SEG,
            _ => 1 + rng.below(24 * SEG),
        };
        if target.is_none() || rng.below(8) != 0 {
            return Op::Reserve {
                now: *now,
                earliest,
                dur,
            };
        }
        // A free slot, as first-fit finds it: it starts at `earliest` or
        // touching the run before it. Sometimes stretch it to the next run.
        let (start, _) = reference::first_fit(model, earliest, dur);
        let end = match model.range(start..).next() {
            Some((&next_start, _)) if rng.below(3) == 0 => next_start,
            _ => start + dur,
        };
        Op::Insert { start, end }
    }

    /// Operations per seeded stream in the differential test: the full
    /// 6 × 34 000 in release (`ci.sh` runs it), under a quarter of that in
    /// debug, where checking every block after every operation dominates.
    const OPS_PER_STREAM: u64 = if cfg!(debug_assertions) {
        8_000
    } else {
        34_000
    };

    /// Whole blocks the streams must prune between them. Pruning starts
    /// once a stream has grown to its target length, so the shorter debug
    /// run prunes far fewer.
    const MIN_BLOCKS_PRUNED: usize = if cfg!(debug_assertions) { 60 } else { 300 };

    #[test]
    fn matches_the_ordered_map_reference_on_random_streams() {
        let mut ops = 0u64;
        let mut peak = 0;
        let mut blocks_pruned = 0;
        for (seed, target) in [
            (1, 40),
            (2, 300),
            (3, 300),
            (4, 1_000),
            (5, 1_000),
            (6, 2_000),
        ] {
            let mut rng = Rng(seed);
            let mut cal = Calendar::default();
            let mut model = BTreeMap::new();
            let mut now = 0;
            for _ in 0..OPS_PER_STREAM {
                match next_op(&mut rng, &mut now, Some(target), &model) {
                    Op::Reserve { now, earliest, dur } => {
                        let blocks_before = cal.blocks.len();
                        let got = cal.book_ns(now, earliest, dur);
                        blocks_pruned += blocks_before.saturating_sub(cal.blocks.len());
                        reference::prune_past(&mut model, now);
                        let (want, _) = reference::first_fit(&model, earliest, dur);
                        reference::insert_merged(&mut model, want, want + dur);
                        assert_eq!(got, want, "seed {seed}: book({now}, {earliest}, {dur})");
                    }
                    Op::Insert { start, end } => {
                        cal.insert_ns(start, end);
                        reference::insert_merged(&mut model, start, end);
                    }
                }
                cal.assert_matches(&model);
                peak = peak.max(cal.len());
                ops += 1;
            }
        }
        assert_eq!(ops, 6 * OPS_PER_STREAM);
        // The streams must reach the multi-block machinery, not just pass
        // on calendars of a handful of runs.
        assert!(peak > 12 * BLOCK_CAP, "peak calendar length only {peak}");
        assert!(
            blocks_pruned > MIN_BLOCKS_PRUNED,
            "only {blocks_pruned} blocks pruned"
        );
    }

    #[test]
    fn unpruned_booking_matches_the_reference() {
        for seed in [11, 12, 13] {
            let mut rng = Rng(seed);
            let mut cal = Calendar::default();
            let mut model = BTreeMap::new();
            let mut now = 0;
            for step in 0..20_000 {
                let Op::Reserve { now, earliest, dur } = next_op(&mut rng, &mut now, None, &model)
                else {
                    unreachable!("the prune-free stream has no inserts");
                };
                let (want, _) = reference::first_fit(&model, earliest, dur);
                reference::insert_merged(&mut model, want, want + dur);
                assert_eq!(cal.book_ns(now, earliest, dur), want);
                assert_eq!(cal.len(), model.len());
                if step % 500 == 0 {
                    cal.assert_matches(&model);
                }
            }
            cal.assert_matches(&model);
        }
    }

    /// `n` runs of 9 ns separated by 1 ns slivers, the first starting at
    /// 100 — the shape two interleaved segment streams leave behind.
    fn slivered(n: u64) -> (Calendar, BTreeMap<u64, u64>) {
        let mut cal = Calendar::default();
        let mut model = BTreeMap::new();
        for k in 0..n {
            cal.insert_ns(100 + 10 * k, 109 + 10 * k);
            model.insert(100 + 10 * k, 109 + 10 * k);
        }
        (cal, model)
    }

    #[test]
    fn a_reservation_that_fits_only_at_the_tail_skips_saturated_blocks() {
        for (n, budget) in [(16_384, 1_024), (65_536, 2_560)] {
            let (mut cal, model) = slivered(n);
            cal.check();
            let (want, walked) = reference::first_fit(&model, 99, 2);
            assert_eq!(want, 99 + 10 * n);
            assert_eq!(walked, n, "the reference steps over every run");
            cal.probes.set(0);
            assert_eq!(cal.book_ns(0, 99, 2), want);
            let probes = cal.probes.get();
            assert!(probes <= budget, "{probes} entries examined for {n} runs");
            assert_eq!(cal.len() as u64, n, "merged into the last run");
            cal.check();
        }
    }

    #[test]
    fn appends_recompute_one_summary_per_block_created() {
        // FIFO growth, half by `insert` and half by `book`: every run lands
        // behind the last one, so only a block that stops being the last
        // needs its summary recomputed.
        let mut cal = Calendar::default();
        for k in 0..10_000u64 {
            if k % 2 == 0 {
                cal.insert_ns(10 * k, 10 * k + 5);
            } else {
                assert_eq!(cal.book_ns(0, 10 * k, 5), 10 * k);
            }
        }
        let created = cal.blocks.len() as u64;
        assert_eq!(created, 10_000u64.div_ceil(BLOCK_CAP as u64));
        let refreshes = cal.refreshes.get();
        assert!(
            refreshes <= created,
            "{refreshes} summaries recomputed for {created} blocks created"
        );
        cal.check();
    }

    #[test]
    fn empty_calendar_takes_the_reservation_where_asked() {
        let mut cal = Calendar::default();
        assert_eq!((cal.len(), cal.last_end_ns()), (0, None));
        assert_eq!(cal.book_ns(50, 70, 5), 70);
        assert_eq!((cal.len(), cal.last_end_ns()), (1, Some(75)));
        cal.check();
    }

    #[test]
    fn earliest_inside_at_the_end_of_and_beyond_a_run() {
        let mut cal = Calendar::default();
        cal.insert_ns(100, 200);
        cal.insert_ns(300, 400);
        // Inside a run: waits for it, and the 100 ns gap behind it fits.
        assert_eq!(cal.book_ns(0, 150, 40), 200);
        assert_eq!(cal.flat().collect::<Vec<_>>(), [(100, 240), (300, 400)]);
        // Inside a run whose gap is now too short: on to the next gap.
        assert_eq!(cal.book_ns(0, 150, 61), 400);
        assert_eq!(cal.flat().collect::<Vec<_>>(), [(100, 240), (300, 461)]);
        // Exactly at a run's end: starts there and merges.
        assert_eq!(cal.book_ns(0, 240, 10), 240);
        assert_eq!(cal.flat().collect::<Vec<_>>(), [(100, 250), (300, 461)]);
        // Fills the gap exactly: bridges both neighbours.
        assert_eq!(cal.book_ns(0, 0, 50), 0);
        assert_eq!(cal.book_ns(0, 250, 50), 250);
        assert_eq!(cal.flat().collect::<Vec<_>>(), [(0, 50), (100, 461)]);
        // Beyond the last end: a new run where asked.
        assert_eq!(cal.book_ns(0, 500, 7), 500);
        assert_eq!((cal.len(), cal.last_end_ns()), (3, Some(507)));
        cal.check();
    }

    #[test]
    fn a_full_block_splits_for_a_run_inside_it_and_is_left_whole_by_one_behind_it() {
        // 10 ns runs 30 ns apart: room for a loose 1 ns run in every gap.
        let mut cal = Calendar::default();
        for k in 0..BLOCK_CAP as u64 {
            cal.insert_ns(100 + 40 * k, 110 + 40 * k);
        }
        assert_eq!((cal.blocks.len(), cal.len()), (1, BLOCK_CAP));
        // Behind the last run: the full block stays, a new one starts.
        cal.insert_ns(100 + 40 * BLOCK_CAP as u64, 110 + 40 * BLOCK_CAP as u64);
        assert_eq!(cal.blocks[0].runs.len(), BLOCK_CAP);
        assert_eq!(cal.blocks[1].runs.len(), 1);
        assert_eq!(cal.blocks[0].max_gap, SimDuration::from_nanos(30));
        cal.check();
        // Inside the full block, once in each half.
        cal.insert_ns(120, 121);
        assert_eq!(cal.blocks.len(), 3);
        cal.insert_ns(
            120 + 40 * (BLOCK_CAP as u64 - 2),
            121 + 40 * (BLOCK_CAP as u64 - 2),
        );
        let sizes: Vec<usize> = cal.blocks.iter().map(|blk| blk.runs.len()).collect();
        assert_eq!(sizes, [BLOCK_CAP / 2 + 1, BLOCK_CAP / 2 + 1, 1]);
        assert_eq!(cal.len(), BLOCK_CAP + 3);
        cal.check();
        // In front of a block's first run: the block before owns that gap.
        let first = cal.blocks[1].runs[0].start.as_nanos();
        cal.insert_ns(first - 3, first - 2);
        assert_eq!(cal.blocks[1].runs[0].start.as_nanos(), first - 3);
        cal.check();
    }

    #[test]
    fn bridging_across_a_block_boundary_merges_and_can_empty_a_block() {
        let (mut cal, mut model) = slivered(BLOCK_CAP as u64 + 3);
        assert_eq!(cal.blocks.len(), 2);
        // Fill the sliver between the last run of block 0 and the first of
        // block 1, over and over: block 0's last run swallows block 1 one
        // run at a time until the block is gone.
        while cal.blocks.len() == 2 {
            let sliver = cal.blocks[0].last().end.as_nanos();
            assert_eq!(cal.blocks[1].runs[0].start.as_nanos(), sliver + 1);
            cal.insert_ns(sliver, sliver + 1);
            reference::insert_merged(&mut model, sliver, sliver + 1);
            cal.check();
            cal.assert_matches(&model);
        }
        assert_eq!(cal.len(), BLOCK_CAP);
        assert_eq!(
            cal.blocks[0].max_gap,
            SimDuration::MAX,
            "block 0 is the last again"
        );
    }

    #[test]
    fn pruning_whole_blocks_and_part_of_one_keeps_the_summaries_exact() {
        // Full blocks of 1 ns slivers, except for one wide gap early in the
        // third block.
        let mut cal = Calendar::default();
        let mut model = BTreeMap::new();
        let mut t = 100;
        for k in 0..(5 * BLOCK_CAP + 10) {
            cal.insert_ns(t, t + 9);
            model.insert(t, t + 9);
            t += if k == 2 * BLOCK_CAP + 2 { 509 } else { 10 };
        }
        assert_eq!(cal.blocks.len(), 6);
        assert_eq!(cal.blocks[2].max_gap, SimDuration::from_nanos(500));
        // `now` lands past the wide gap: two blocks and the head of the
        // third go, and the third's summary must fall back to a sliver.
        let now = cal.blocks[2].runs[10].start.as_nanos();
        reference::prune_past(&mut model, now);
        let (want, _) = reference::first_fit(&model, now, 300);
        reference::insert_merged(&mut model, want, want + 300);
        assert_eq!(cal.book_ns(now, now, 300), want);
        assert_eq!(cal.blocks.len(), 4);
        assert_eq!(cal.blocks[0].max_gap, SimDuration::from_nanos(1));
        cal.check();
        cal.assert_matches(&model);
    }
}
