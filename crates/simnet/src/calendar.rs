//! The busy calendar behind a [`Pipe`](crate::pipe::Pipe): which stretches
//! of virtual time are already reserved, and where the next reservation
//! fits.
//!
//! The calendar is a time-ordered list of disjoint busy *runs* (touching
//! reservations merge on insert). The one question asked of it on the hot
//! path is first-fit: the earliest `t ≥ earliest` with `[t, t + dur)`
//! free. A pipe that both directions of a NIC stage through collects
//! thousands of runs separated by sub-segment slivers that fit nothing,
//! and a plain ordered map has to step over every one of them.
//!
//! So the runs live in blocks of at most [`BLOCK_CAP`], and each block
//! caches the largest free gap that *starts* inside it — after one of its
//! runs, up to the next run, which for the block's last run is the first
//! run of the following block (the last block's final gap is unbounded).
//! A block whose cached gap is shorter than `dur` is skipped with one
//! comparison. A reservation costs a search for `earliest` (one look at
//! the first block, where a reservation asked for at `now` lands, else
//! galloping back from the tail, where most others are asked for, then
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
//!
//! Most pipes are idle between reservations: every run has ended by the
//! next booking. Such a booking lands where asked, so it resets the
//! calendar to that one run in the first block's storage without a
//! search: an idle pipe allocates nothing per booking.
//!
//! **Runs are 8 bytes.** A block stores each run as two `u32` nanosecond
//! offsets from its own `base` instant, so a full block is one 512-byte
//! allocation. Every run in a block ends within [`SPAN`] (`u32::MAX` ns,
//! 4.29 s) of the base. Where a run would not fit — a run later than the
//! last block's reach, one in front of a block that cannot reach back to
//! it, or a single reservation longer than `SPAN` — a new block starts, and
//! touching runs merge only while the merged run still fits. A busy
//! stretch that does not fit stays as touching pieces in neighbouring
//! blocks; first-fit needs nothing new for them, since the zero gap
//! between two pieces fits no reservation. Offsets never leave [`Block`]:
//! the calendar's interface is [`SimTime`] and [`SimDuration`].
//!
//! **Trains.** [`Calendar::book_train`] books a run of reservations in
//! order, each exactly where [`Calendar::book`] would put it, with one
//! prune for the lot and each search continued forward from the previous
//! one's position (a fresh search only for an `earliest` before the
//! previous one): how a pipeline stage takes a message's segments.

#[cfg(test)]
use std::cell::Cell;

use crate::time::{SimDuration, SimTime};

/// Most runs one block holds. Every block's `Vec` is allocated at this
/// capacity, so it never regrows. Measured on fig2's 256-connection
/// points: 64 beats 32 and 128 (scan and shift lengths against the number
/// of summaries to step over).
const BLOCK_CAP: usize = 64;

/// Furthest a run's end may lie from its block's base: what a `u32`
/// offset holds.
const SPAN: SimDuration = SimDuration::from_nanos(u32::MAX as u64);

/// One busy stretch `[start, end)`, in nanoseconds from its block's base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    start: u32,
    end: u32,
}

/// `off` nanoseconds.
fn nanos(off: u32) -> SimDuration {
    SimDuration::from_nanos(u64::from(off))
}

#[derive(Debug)]
struct Block {
    /// What the runs' offsets count from: at or before the first run's
    /// start, and at most [`SPAN`] before the last run's end.
    base: SimTime,
    /// Time-ordered, disjoint, never touching; never empty.
    runs: Vec<Run>,
    /// Largest free gap following one of `runs` (see the module docs);
    /// `SimDuration::MAX` in the last block. Maintained by
    /// [`Calendar::refresh`].
    max_gap: SimDuration,
}

impl Block {
    /// Move runs `at..` into a block of their own with the same base.
    fn split_off(&mut self, at: usize) -> Block {
        let mut runs = Vec::with_capacity(BLOCK_CAP);
        runs.extend_from_slice(&self.runs[at..]);
        self.runs.truncate(at);
        Block {
            base: self.base,
            runs,
            max_gap: SimDuration::MAX,
        }
    }

    fn len(&self) -> usize {
        self.runs.len()
    }

    fn start(&self, i: usize) -> SimTime {
        self.base + nanos(self.runs[i].start)
    }

    fn end(&self, i: usize) -> SimTime {
        self.base + nanos(self.runs[i].end)
    }

    fn last_end(&self) -> SimTime {
        self.end(self.len() - 1)
    }

    /// Free time between runs `i` and `i + 1`.
    fn gap_after(&self, i: usize) -> SimDuration {
        nanos(self.runs[i + 1].start - self.runs[i].end)
    }

    /// The widest free time between two of the runs, `None` for one run.
    fn widest_gap(&self) -> Option<SimDuration> {
        self.runs
            .windows(2)
            .map(|w| w[1].start - w[0].end)
            .max()
            .map(nanos)
    }

    /// `t` as an offset, if this block can hold an instant there.
    fn offset(&self, t: SimTime) -> Option<u32> {
        if t < self.base {
            return None;
        }
        u32::try_from((t - self.base).as_nanos()).ok()
    }

    /// How many runs ended at or before `t`.
    fn ended_by(&self, t: SimTime) -> usize {
        if t < self.base {
            return 0;
        }
        match u32::try_from((t - self.base).as_nanos()) {
            // Most often none has: a booking asked for at `now`, once
            // the calendar is pruned to `now`.
            Ok(off) if self.runs[0].end > off => 0,
            Ok(off) => self.runs.partition_point(|r| r.end <= off),
            Err(_) => self.len(),
        }
    }

    /// Index of the first run at or after `from` that is followed by at
    /// least `dur` of free time before the next run of this block.
    fn first_gap_from(&self, from: usize, dur: SimDuration) -> Option<usize> {
        // A gap between two runs is narrower than `SPAN`, so a longer
        // `dur` fits none.
        let dur = u32::try_from(dur.as_nanos()).ok()?;
        self.runs[from..]
            .windows(2)
            .position(|w| w[1].start - w[0].end >= dur)
            .map(|k| from + k)
    }

    /// Move the base back to `t` unless it is already there or earlier.
    /// `false`, leaving the block as it was, when the last run would then
    /// end beyond [`SPAN`].
    fn reach_back(&mut self, t: SimTime) -> bool {
        if t >= self.base {
            return true;
        }
        let last = self.runs[self.len() - 1].end;
        let Some(shift) = u32::try_from((self.base - t).as_nanos())
            .ok()
            .filter(|&shift| last.checked_add(shift).is_some())
        else {
            return false;
        };
        for r in &mut self.runs {
            r.start += shift;
            r.end += shift;
        }
        self.base = t;
        true
    }

    /// Move run `i`'s end to `t`; `false` if the block cannot reach it.
    fn set_end(&mut self, i: usize, t: SimTime) -> bool {
        self.offset(t).map(|off| self.runs[i].end = off).is_some()
    }

    /// Move run `i`'s start back to `t`; `false` if the block cannot
    /// reach back to it.
    fn set_start(&mut self, i: usize, t: SimTime) -> bool {
        if !self.reach_back(t) {
            return false;
        }
        self.runs[i].start = self.offset(t).expect("the base is at or before t");
        true
    }

    /// Insert `[start, end)` as run `i`; the block must reach both ends.
    fn insert(&mut self, i: usize, start: SimTime, end: SimTime) {
        let run = self
            .offset(start)
            .zip(self.offset(end))
            .map(|(start, end)| Run { start, end })
            .expect("the block reaches the run");
        self.runs.insert(i, run);
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
    /// Number of busy runs currently held: merged, except where a
    /// stretch stays in pieces (see the module docs).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// End of the latest reservation, `None` when the calendar is empty.
    pub(crate) fn last_end(&self) -> Option<SimTime> {
        self.blocks.last().map(Block::last_end)
    }

    /// Reserve the first `dur` free at or after `earliest` and return its
    /// start. Runs that ended at or before `now` are dropped first: nothing
    /// can be placed there any more. A calendar booked only at or after
    /// one `now` never drops a run (each ends after `now`), which is how
    /// the pipe's closed-form plan books its virtual stages.
    pub(crate) fn book(&mut self, now: SimTime, earliest: SimTime, dur: SimDuration) -> SimTime {
        if self.restart(now, earliest, dur) {
            return earliest;
        }
        self.prune(now);
        let (b, i) = self.seek(earliest);
        self.book_at(b, i, earliest, dur)
    }

    /// The booking an idle pipe makes: when every run ended by `now`, the
    /// calendar becomes the one run `[earliest, earliest + dur)`, in the
    /// first block's storage. `false`, changing nothing, otherwise or for
    /// a `dur` longer than [`SPAN`].
    fn restart(&mut self, now: SimTime, earliest: SimTime, dur: SimDuration) -> bool {
        debug_assert!(!dur.is_zero(), "zero-length reservation");
        let idle = self.last_end().is_some_and(|end| end <= now);
        let Some(end) = u32::try_from(dur.as_nanos()).ok().filter(|_| idle) else {
            return false;
        };
        self.blocks.truncate(1);
        let blk = &mut self.blocks[0];
        blk.base = earliest;
        blk.runs.clear();
        blk.runs.push(Run { start: 0, end });
        blk.max_gap = SimDuration::MAX;
        self.len = 1;
        true
    }

    /// Book `train` in order, each `(earliest, dur)` exactly as [`Self::book`]
    /// at `now` would, and overwrite each `earliest` with where its
    /// reservation starts. Returns the most runs the calendar held after
    /// any one of the bookings.
    pub(crate) fn book_train(
        &mut self,
        now: SimTime,
        train: &mut [(SimTime, SimDuration)],
    ) -> usize {
        let mut peak = 0;
        // `(b, t)`: every block before `b` ended by `t`, an earlier
        // `earliest`, so a later one is sought from `b` on.
        let mut sought: Option<(usize, SimTime)> = None;
        let mut booked = 0;
        if let Some(&(earliest, dur)) = train.first() {
            if self.restart(now, earliest, dur) {
                (peak, sought, booked) = (1, Some((0, earliest)), 1);
            }
        }
        self.prune(now);
        for (at, dur) in &mut train[booked..] {
            let earliest = *at;
            let (b, i) = match sought {
                Some((from, t)) if earliest >= t => self.seek_from(from, earliest),
                _ => self.seek(earliest),
            };
            let start = self.book_at(b, i, earliest, *dur);
            peak = peak.max(self.len);
            // Booking changes blocks from `b - 1` on (a run of the block
            // before the one it lands in can grow).
            sought = Some((b.saturating_sub(1), earliest));
            if start + *dur <= now {
                // Only an `earliest` before `now` gets here, and `book`
                // would drop the run on its next call.
                self.prune(now);
                sought = None;
            }
            *at = start;
        }
        peak
    }

    /// Mark `[start, end)` busy. The interval must be free; it may touch
    /// its neighbours, which then merge with it.
    pub(crate) fn insert(&mut self, start: SimTime, end: SimTime) {
        debug_assert!(start < end, "empty calendar interval");
        let (b, i) = self.seek(start);
        self.place(b, i, start, end);
    }

    /// Reserve the first `dur` free at or after `earliest`, given the
    /// position `(b, i)` of the first run ending after `earliest`, and
    /// return its start.
    fn book_at(&mut self, b: usize, i: usize, earliest: SimTime, dur: SimDuration) -> SimTime {
        debug_assert!(!dur.is_zero(), "zero-length reservation");
        let (b, i, start) = self.first_fit(b, i, earliest, dur);
        self.place(b, i, start, start + dur);
        start
    }

    /// Where first-fit puts `dur` at or after `earliest`, given the
    /// position `(b, i)` of the first run ending after `earliest`: the
    /// position of the first run ending after the start, and the start.
    fn first_fit(
        &self,
        mut b: usize,
        mut i: usize,
        earliest: SimTime,
        dur: SimDuration,
    ) -> (usize, usize, SimTime) {
        let blocked = self
            .blocks
            .get(b)
            .is_some_and(|blk| earliest + dur > blk.start(i));
        if !blocked {
            return (b, i, earliest);
        }
        // `earliest` falls in or too close before run `(b, i)`, so the
        // reservation starts where some run ends: the first one, from
        // here on, followed by a gap of `dur`. The unbounded gap after
        // the very last run ends the search.
        loop {
            self.probe(1);
            let blk = &self.blocks[b];
            if blk.max_gap >= dur {
                // The gap behind the last run is read only if no gap
                // inside the block fits: it is in the next block.
                let found = blk
                    .first_gap_from(i, dur)
                    .or_else(|| (self.tail_gap(b) >= dur).then(|| blk.len() - 1));
                self.probe(found.map_or(blk.len(), |j| j + 1) - i);
                if let Some(j) = found {
                    let next = if j + 1 < blk.len() {
                        (b, j + 1)
                    } else {
                        (b + 1, 0)
                    };
                    return (next.0, next.1, blk.end(j));
                }
            }
            b += 1;
            i = 0;
        }
    }

    /// Drop every run that ended at or before `now`. Ends are sorted, so
    /// those form a prefix: whole blocks first, then the head of one.
    #[inline]
    fn prune(&mut self, now: SimTime) {
        if self.blocks.first().is_some_and(|blk| blk.end(0) <= now) {
            self.prune_past(now);
        }
    }

    /// [`Self::prune`] once the first run has ended by `now`.
    fn prune_past(&mut self, now: SimTime) {
        // Counted from the front: a prune usually takes no whole block or
        // one, and a bisection would touch a dozen blocks to find that.
        let whole = self
            .blocks
            .iter()
            .take_while(|blk| blk.last_end() <= now)
            .count();
        self.len -= self.blocks[..whole].iter().map(Block::len).sum::<usize>();
        self.blocks.drain(..whole);
        if let Some(head) = self.blocks.first_mut() {
            let past = head.ended_by(now);
            if past > 0 {
                // The gaps after the dropped runs go with them.
                let dropped = (0..past)
                    .map(|k| head.gap_after(k))
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                head.runs.drain(..past);
                self.len -= past;
                self.lost_gap(0, dropped);
            }
        }
    }

    /// Whether block `blk`'s last run ended by `t`.
    fn ended(&self, blk: &Block, t: SimTime) -> bool {
        self.probe(1);
        blk.last_end() <= t
    }

    /// Position `(block, index)` of the first run ending after `t`;
    /// `(self.blocks.len(), 0)` when there is none.
    fn seek(&self, t: SimTime) -> (usize, usize) {
        // A reservation asked for at `now` falls in the first block once
        // the calendar is pruned to `now`, so check that block first.
        if self.blocks.first().is_some_and(|head| !self.ended(head, t)) {
            return self.seek_between(0, 0, t);
        }
        // Most others are asked for at or near the tail of the queue, so
        // start there: every block from `hi` on ends after `t`; gallop
        // `hi` back until the block stepped to has ended by `t` (block 0
        // has), then bisect the stretch stepped over.
        let mut hi = self.blocks.len();
        let mut step = 1;
        let lo = loop {
            if hi <= 1 {
                break hi;
            }
            let k = hi.saturating_sub(step).max(1);
            if self.ended(&self.blocks[k], t) {
                break k + 1;
            }
            hi = k;
            step *= 2;
        };
        self.seek_between(lo, hi, t)
    }

    /// [`Self::seek`] given that every block before `lo` ended by `t`:
    /// gallop forward from `lo`, then bisect.
    fn seek_from(&self, mut lo: usize, t: SimTime) -> (usize, usize) {
        let mut step = 1;
        let hi = loop {
            let k = lo + step - 1;
            match self.blocks.get(k) {
                None => break self.blocks.len(),
                Some(blk) if !self.ended(blk, t) => break k,
                Some(_) => {}
            }
            lo = k + 1;
            step *= 2;
        };
        self.seek_between(lo, hi, t)
    }

    /// [`Self::seek`] given that every block before `lo` ended by `t` and
    /// none from `hi` on did.
    fn seek_between(&self, lo: usize, hi: usize, t: SimTime) -> (usize, usize) {
        let b = lo + self.blocks[lo..hi].partition_point(|blk| self.ended(blk, t));
        let i = self.blocks.get(b).map_or(0, |blk| {
            // A bisection of the block's runs.
            self.probe((usize::BITS - blk.len().leading_zeros()) as usize);
            blk.ended_by(t)
        });
        (b, i)
    }

    /// Free time between the last run of block `b` and the next block.
    fn tail_gap(&self, b: usize) -> SimDuration {
        self.blocks.get(b + 1).map_or(SimDuration::MAX, |next| {
            next.start(0) - self.blocks[b].last_end()
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
        blk.max_gap = blk.widest_gap().map_or(tail, |g| g.max(tail));
    }

    /// Block `b`'s gap of width `old` shrank or vanished. The summary
    /// falls only if that gap was the largest, and never in the last
    /// block, whose unbounded tail gap is always the largest.
    fn lost_gap(&mut self, b: usize, old: SimDuration) {
        if b + 1 < self.blocks.len() && old == self.blocks[b].max_gap {
            self.refresh(b);
        }
    }

    /// Insert a block at index `b` holding the one run `[start, end)`,
    /// which spans at most [`SPAN`].
    fn new_block(&mut self, b: usize, start: SimTime, end: SimTime) {
        self.blocks.insert(
            b,
            Block {
                base: start,
                runs: Vec::with_capacity(BLOCK_CAP),
                max_gap: SimDuration::MAX,
            },
        );
        // Filled in place: a block filled first and then moved costs a
        // load of the length just stored, which the store cannot forward.
        self.blocks[b].insert(0, start, end);
    }

    /// Block `b` gained a gap of width `gap`.
    fn gained_gap(&mut self, b: usize, gap: SimDuration) {
        let blk = &mut self.blocks[b];
        blk.max_gap = blk.max_gap.max(gap);
    }

    /// Make the free interval `[start, end)` busy, given the position
    /// `(b, i)` of the first run ending after `start` (which therefore
    /// starts at or after `end`). Touching neighbours are merged. An
    /// interval longer than [`SPAN`] is placed as touching pieces.
    fn place(&mut self, mut b: usize, mut i: usize, mut start: SimTime, end: SimTime) {
        loop {
            let cut = end.min(start + SPAN);
            self.place_piece(b, i, start, cut);
            if cut == end {
                return;
            }
            start = cut;
            (b, i) = self.seek(start);
        }
    }

    /// [`Self::place`] for an interval no longer than [`SPAN`]. A merge
    /// that the block holding the merged run cannot reach is skipped, and
    /// the run stays a piece touching its neighbour.
    fn place_piece(&mut self, b: usize, i: usize, start: SimTime, end: SimTime) {
        let next = self.blocks.get(b).map(|blk| (blk.start(i), blk.end(i)));
        debug_assert!(
            next.is_none_or(|(n_start, _)| end <= n_start),
            "calendar interval [{start:?}, {end:?}) overlaps busy run {next:?}"
        );
        let prev = if i > 0 {
            Some((b, i - 1))
        } else {
            b.checked_sub(1).map(|p| (p, self.blocks[p].len() - 1))
        };
        let joins_prev = prev.filter(|&(pb, pi)| self.blocks[pb].end(pi) == start);
        let joins_next = next.filter(|&(n_start, _)| n_start == end);
        if let (Some((pb, pi)), Some((_, n_end))) = (joins_prev, joins_next) {
            // Bridges the two: the earlier run swallows the later, the
            // gap between them vanishes and the one after the later run
            // is now the merged run's.
            let after_n = if i + 1 < self.blocks[b].len() {
                self.blocks[b].gap_after(i)
            } else {
                self.tail_gap(b)
            };
            if self.blocks[pb].set_end(pi, n_end) {
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
                return;
            }
        }
        if let Some((pb, pi)) = joins_prev {
            let old_gap = next.map_or(SimDuration::MAX, |(n_start, _)| n_start - start);
            if self.blocks[pb].set_end(pi, end) {
                self.lost_gap(pb, old_gap);
                return;
            }
        }
        if let Some((n_start, _)) = joins_next {
            if self.blocks[b].set_start(i, start) {
                // The gap that shrank is owned by the run before it.
                if let Some((pb, pi)) = prev {
                    let old_gap = n_start - self.blocks[pb].end(pi);
                    self.lost_gap(pb, old_gap);
                }
                return;
            }
        }
        self.insert_run(b, i, start, end);
    }

    /// Insert `[start, end)`, which no neighbour it touches could take,
    /// as a run of its own at position `(b, i)`.
    fn insert_run(&mut self, b: usize, i: usize, start: SimTime, end: SimTime) {
        self.len += 1;
        if b == self.blocks.len() {
            // Later than every run. A full last block, or one that cannot
            // reach `end`, is left as it is and a new one started: FIFO
            // growth leaves full blocks, not halves. Within the last block
            // the summary stays unbounded; a block that stops being the
            // last gets its real one.
            match self.blocks.last_mut() {
                Some(last) if last.len() < BLOCK_CAP && last.offset(end).is_some() => {
                    let at = last.len();
                    last.insert(at, start, end);
                }
                _ => {
                    self.new_block(b, start, end);
                    if let Some(p) = b.checked_sub(1) {
                        self.refresh(p);
                    }
                }
            }
            return;
        }
        // The run lands in the gap before run `(b, i)`: the part in front
        // of it stays with that gap's owner, the part behind it is the
        // run's.
        let next_start = self.blocks[b].start(i);
        let lost = if i > 0 {
            Some((b, next_start - self.blocks[b].end(i - 1)))
        } else {
            b.checked_sub(1)
                .map(|p| (p, next_start - self.blocks[p].last_end()))
        };
        if i == 0 && !self.blocks[b].reach_back(start) {
            // Block `b` cannot reach back this far: the run starts a block
            // of its own in front of it.
            self.new_block(b, start, end);
            self.refresh(b);
            if let Some((p, old)) = lost {
                self.lost_gap(p, old);
            }
            return;
        }
        let half = BLOCK_CAP / 2;
        if self.blocks[b].len() == BLOCK_CAP {
            let upper = self.blocks[b].split_off(half);
            self.blocks.insert(b + 1, upper);
            if i > half {
                self.blocks[b + 1].insert(i - half, start, end);
            } else {
                self.blocks[b].insert(i, start, end);
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
        self.blocks[b].insert(i, start, end);
        if let Some((p, old)) = lost {
            self.lost_gap(p, old);
        }
        // Both parts are narrower than the gap they came from, so only a
        // new first run can raise its block's summary.
        if i == 0 {
            self.gained_gap(b, next_start - end);
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

        /// Every stored run, pieces and all, in raw nanoseconds.
        fn flat(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.blocks.iter().flat_map(|blk| {
                (0..blk.len()).map(|i| (blk.start(i).as_nanos(), blk.end(i).as_nanos()))
            })
        }

        /// Every structural invariant, each cached gap recomputed from
        /// scratch, and the busy time run for run equal to `model`'s once
        /// touching pieces are joined. Pieces may touch only across a
        /// block boundary.
        fn assert_covers(&self, model: &BTreeMap<u64, u64>) {
            assert_eq!(self.len(), self.flat().count());
            assert_eq!(
                self.last_end_ns(),
                model.last_key_value().map(|(_, &en)| en)
            );
            let mut joined: Vec<(u64, u64)> = Vec::new();
            let mut prev_end = None;
            for (b, blk) in self.blocks.iter().enumerate() {
                assert!(!blk.runs.is_empty(), "block {b} is empty");
                assert!(blk.runs.len() <= BLOCK_CAP, "block {b} is overfull");
                assert_eq!(blk.runs.capacity(), BLOCK_CAP, "block {b} regrew");
                assert_eq!(
                    blk.runs.capacity() * std::mem::size_of::<Run>(),
                    512,
                    "block {b} allocates other than 512 B"
                );
                let next_first = self.blocks.get(b + 1).map(|n| n.start(0));
                let mut max_gap = SimDuration::ZERO;
                for j in 0..blk.len() {
                    let (start, end) = (blk.start(j), blk.end(j));
                    assert!(start < end, "empty run [{start:?}, {end:?})");
                    assert!(
                        prev_end.is_none_or(|e| e < start || (j == 0 && e == start)),
                        "[{start:?}, {end:?}) overlaps, or touches within block {b}, \
                         the run ending at {prev_end:?}"
                    );
                    prev_end = Some(end);
                    match joined.last_mut() {
                        Some(last) if last.1 == start.as_nanos() => last.1 = end.as_nanos(),
                        _ => joined.push((start.as_nanos(), end.as_nanos())),
                    }
                    let next = if j + 1 < blk.len() {
                        Some(blk.start(j + 1))
                    } else {
                        next_first
                    };
                    max_gap = max_gap.max(next.map_or(SimDuration::MAX, |n| n - end));
                }
                assert_eq!(blk.max_gap, max_gap, "stale gap summary on block {b}");
            }
            // A stretch held in pieces may have lost its first pieces to a
            // prune that the reference, which prunes whole stretches, has
            // not made: the first run may start later than the model's.
            let mut model = model.iter().map(|(&s, &e)| (s, e));
            if let (Some(first), Some((s, e))) = (joined.first_mut(), model.next()) {
                assert!(
                    first.0 >= s && first.1 == e,
                    "first run {first:?} is not ({s}, {e})"
                );
                first.0 = s;
            }
            assert!(
                joined.into_iter().skip(1).eq(model),
                "the busy time differs"
            );
        }

        /// [`Self::assert_covers`], and no stretch left in pieces.
        fn assert_matches(&self, model: &BTreeMap<u64, u64>) {
            self.assert_covers(model);
            assert_eq!(self.len(), model.len(), "a busy stretch stayed in pieces");
        }

        /// [`Self::assert_matches`] without a model: structure only.
        fn check(&self) {
            self.assert_matches(&self.flat().collect());
        }
    }

    #[derive(Clone, Copy)]
    enum Op {
        Reserve { now: u64, earliest: u64, dur: u64 },
        Insert { start: u64, end: u64 },
    }

    /// One segment's service time in the generated streams, ns.
    const SEG: u64 = 1_200;

    /// The unit of the long-span streams, ns: a quarter second, so runs,
    /// gaps and busy stretches last seconds, a reservation can outlast
    /// [`SPAN`], and a stream passes 2^32 ns in a few dozen operations.
    const LONG: u64 = 250_000_000;

    /// Seeded operation stream shaped like a shared NIC stage, in units of
    /// one segment time `seg`: reservations of 1 ns to many segments,
    /// asked for anywhere from `now` to far past the tail, plus `insert`s
    /// of intervals that are free in `model` — loose, touching the run
    /// before, or filling a gap exactly. `now`
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
        seg: u64,
    ) -> Op {
        let tail = model.last_key_value().map_or(*now, |(_, &en)| en.max(*now));
        if let Some(target) = target {
            if rng.below(4) == 0 {
                *now += if model.len() > target {
                    rng.below((tail - *now) / 2 + 1)
                } else {
                    rng.below(seg)
                };
            }
        }
        // A creep can pass a tail that was close.
        let tail = tail.max(*now);
        let earliest = match rng.below(8) {
            0 | 1 => *now,
            2 => *now + rng.below(seg),
            3..=5 => *now + rng.below(tail - *now + 1),
            6 => tail + rng.below(4),
            _ => tail + rng.below(4 * seg),
        };
        let dur = match rng.below(8) {
            0 => 1,
            1 | 2 => 1 + rng.below(seg),
            3..=5 => seg,
            6 => 8 * seg,
            _ => 1 + rng.below(24 * seg),
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

    /// Apply `op` to `cal` and to the reference `model`, check that a
    /// booking lands where the reference puts it, and return how many
    /// whole blocks it pruned.
    fn apply(cal: &mut Calendar, model: &mut BTreeMap<u64, u64>, op: Op, seed: u64) -> usize {
        let blocks_before = cal.blocks.len();
        match op {
            Op::Reserve { now, earliest, dur } => {
                let got = cal.book_ns(now, earliest, dur);
                reference::prune_past(model, now);
                let (want, _) = reference::first_fit(model, earliest, dur);
                reference::insert_merged(model, want, want + dur);
                assert_eq!(got, want, "seed {seed}: book({now}, {earliest}, {dur})");
            }
            Op::Insert { start, end } => {
                cal.insert_ns(start, end);
                reference::insert_merged(model, start, end);
            }
        }
        blocks_before.saturating_sub(cal.blocks.len())
    }

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
                let op = next_op(&mut rng, &mut now, Some(target), &model, SEG);
                blocks_pruned += apply(&mut cal, &mut model, op, seed);
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
                let Op::Reserve { now, earliest, dur } =
                    next_op(&mut rng, &mut now, None, &model, SEG)
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

    /// Streams counted in quarter seconds: busy runs, gaps and stretches
    /// of seconds, reservations longer than a block can span, times far
    /// past 2^32 ns, and prunes. Every booking lands where the reference
    /// puts it; a stretch may be held as touching pieces.
    #[test]
    fn matches_the_reference_on_streams_of_seconds_past_u32_offsets() {
        let mut latest = 0;
        let mut most_pieces = 0;
        let mut blocks_pruned = 0;
        for (seed, target) in [(21, 40), (22, 300), (23, 1_000)] {
            let mut rng = Rng(seed);
            let mut cal = Calendar::default();
            let mut model = BTreeMap::new();
            let mut now = 0;
            for _ in 0..OPS_PER_STREAM / 4 {
                let op = next_op(&mut rng, &mut now, Some(target), &model, LONG);
                blocks_pruned += apply(&mut cal, &mut model, op, seed);
                cal.assert_covers(&model);
                most_pieces = most_pieces.max(cal.len() - model.len());
                latest = latest.max(cal.last_end_ns().unwrap_or(0));
            }
        }
        assert!(
            latest > 100 * u64::from(u32::MAX),
            "the streams end at only {latest} ns"
        );
        assert!(most_pieces > 0, "no stretch was ever held in pieces");
        assert!(blocks_pruned > 10, "only {blocks_pruned} blocks pruned");
    }

    /// A pipe that goes idle between bookings: `now` often passes the end
    /// of the last run, and such a booking restarts the calendar in its
    /// first block.
    #[test]
    fn bookings_on_an_idle_calendar_match_the_reference() {
        let mut idle = 0;
        for seed in [41, 42] {
            let mut rng = Rng(seed);
            let mut cal = Calendar::default();
            let mut model = BTreeMap::new();
            let mut now = 0;
            for _ in 0..4_000 {
                now += rng.below(3 * SEG);
                let earliest = now + rng.below(SEG);
                let dur = 1 + rng.below(2 * SEG);
                idle += u32::from(cal.last_end_ns().is_some_and(|end| end <= now));
                apply(
                    &mut cal,
                    &mut model,
                    Op::Reserve { now, earliest, dur },
                    seed,
                );
                cal.assert_matches(&model);
            }
        }
        assert!(idle > 1_000, "only {idle} bookings found the calendar idle");
    }

    /// Trains per seed in [`a_train_books_what_the_same_bookings_in_a_row_do`].
    const TRAINS: u64 = if cfg!(debug_assertions) { 1_000 } else { 4_000 };

    /// [`Calendar::book_train`] against the same bookings made one
    /// [`Calendar::book`] at a time on a twin calendar and in the
    /// reference: the same starts, the same runs after every train, and
    /// the longest the twin got. Between trains both calendars take the
    /// same random stream.
    #[test]
    fn a_train_books_what_the_same_bookings_in_a_row_do() {
        for (seed, seg) in [(31, SEG), (32, SEG), (33, LONG)] {
            let mut rng = Rng(seed);
            let (mut train_cal, mut twin) = (Calendar::default(), Calendar::default());
            let mut model = BTreeMap::new();
            let mut now = 0;
            for _ in 0..TRAINS {
                for _ in 0..1 + rng.below(4) {
                    let op = next_op(&mut rng, &mut now, Some(300), &model, seg);
                    apply(&mut twin, &mut model.clone(), op, seed);
                    apply(&mut train_cal, &mut model, op, seed);
                }
                if rng.below(8) == 0 {
                    // The pipe goes idle before the message.
                    now = model.last_key_value().map_or(now, |(_, &en)| en.max(now));
                }
                // A stage's view of one message: equal segments but the
                // last, each asked for at `now` (a first stage) or at its
                // upstream end, which runs ahead of the segment before or,
                // where upstream slotted it into an earlier gap, behind.
                let n = 1 + rng.below(10);
                let dur = 1 + rng.below(seg);
                let mut at = now + rng.below(2) * rng.below(4 * seg);
                let mut train = Vec::new();
                for k in 0..n {
                    let d = if k + 1 == n { 1 + rng.below(dur) } else { dur };
                    train.push((SimTime::from_nanos(at), SimDuration::from_nanos(d)));
                    at = match rng.below(6) {
                        0 => at,
                        1 => at.saturating_sub(rng.below(2 * seg)).max(now),
                        _ => at + rng.below(2 * seg),
                    };
                }
                let (mut want, mut peak) = (Vec::new(), 0);
                for &(earliest, dur) in &train {
                    let (earliest, dur) = (earliest.as_nanos(), dur.as_nanos());
                    let got = twin.book_ns(now, earliest, dur);
                    peak = peak.max(twin.len());
                    reference::prune_past(&mut model, now);
                    let (fit, _) = reference::first_fit(&model, earliest, dur);
                    reference::insert_merged(&mut model, fit, fit + dur);
                    assert_eq!(got, fit, "seed {seed}: book({now}, {earliest}, {dur})");
                    want.push(got);
                }
                let got_peak = train_cal.book_train(SimTime::from_nanos(now), &mut train);
                let got: Vec<u64> = train.iter().map(|&(start, _)| start.as_nanos()).collect();
                assert_eq!(got, want, "seed {seed}: train at {now}");
                assert_eq!(got_peak, peak, "seed {seed}: peak length of a train");
                assert!(train_cal.flat().eq(twin.flat()), "seed {seed}: runs differ");
                train_cal.assert_covers(&model);
            }
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
        let first = cal.blocks[1].start(0).as_nanos();
        cal.insert_ns(first - 3, first - 2);
        assert_eq!(cal.blocks[1].start(0).as_nanos(), first - 3);
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
            let sliver = cal.blocks[0].last_end().as_nanos();
            assert_eq!(cal.blocks[1].start(0).as_nanos(), sliver + 1);
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
        let now = cal.blocks[2].start(10).as_nanos();
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
