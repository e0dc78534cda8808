//! The executor's pending timers: a slab of timer slots with a monotone
//! radix queue threaded through it.
//!
//! Timers fire in `(deadline, armed, ord)` order: deadline first, then
//! the instant the timer counts as armed, then `ord`, the arm sequence
//! number (scrambled under a schedule-perturbation salt, see
//! [`crate::perturb`]). Each slot carries its own deadline, arm instant,
//! sequence number and one `next` link, so queueing a timer allocates
//! nothing beyond its slot and the queue holds no second array.
//!
//! **Buckets.** A queued slot sits in one of 64 singly linked buckets,
//! filed by the highest bit in which its deadline differs from `last`, the
//! deadline of the most recent refill. Bucket `b` holds deadlines that
//! agree with `last` above bit `b` and have bit `b` set where `last` has
//! it clear, so every deadline in bucket `b` is earlier than every
//! deadline in any bucket above it, and the lowest nonempty bucket (one
//! `trailing_zeros` of the nonempty mask) holds the earliest timer. Each
//! bucket keeps its head and the earliest deadline in it.
//!
//! **Refill.** When the slots due at `last` are used up, the lowest
//! nonempty bucket is relinked in one pass: `last` becomes its recorded
//! minimum, the slots at that minimum form the *run*, and every other slot
//! moves to the bucket its deadline now maps to, which is always a lower
//! one. A slot is therefore relinked at most 64 times over its life.
//!
//! **Arm order for free.** Every bucket lists its slots newest first: an
//! arm pushes at the head, and a timer armed later has a later sequence
//! number; a refill walks its bucket newest first and appends to the tail
//! of buckets it has just found empty, so they keep that order. The slots
//! due at the minimum therefore reach the run oldest last, and each goes
//! in at the front — its `(armed, ord)` place unless an arm instant was
//! back-dated or the salt scrambled `ord`, and only then does it walk the
//! run to find it. (That walk makes a run of `k` cost up to `k²/2` steps
//! under a salt; the longest run `figures all` builds is 8 timers.) An arm
//! touches its own slot and its bucket, and no other slot.
//!
//! **Legality.** The queue is monotone: a refill moves `last` to the
//! earliest pending deadline, and a timer may only be armed later than
//! `last`, or it would belong in a bucket below the one that was just
//! emptied. The executor arms a timer only for a deadline strictly after
//! `now` (an earlier one is ready at once), and only a pop moves `now` —
//! to the deadline it fires, which is `last` from the refill before it.
//! So every arm lands after `last`, and no deadline ever equals it: the
//! run takes no late arrivals and stays in order until it is used up.
//!
//! **Horizons.** A bounded pop that finds the earliest deadline at or past
//! its bound reports that deadline from the run or from the lowest
//! bucket's recorded minimum, and refills nothing. A sharded round may
//! still arm a timer between `now` and that deadline; had the refill
//! moved `last` up to it, the timer would land below `last`.
//!
//! **Cancellation is lazy.** A dropped [`Sleep`](crate::executor::Sleep)
//! marks its slot cancelled and leaves it queued; the pop that reaches it
//! advances the clock to its deadline, as a fired timer's would, and frees
//! the slot. The pop order is the one the binary heap this replaced had,
//! so the fired `(deadline, seq)` sequence, and with it every figure, is
//! unchanged.

use crate::time::SimTime;

/// No slot: the end of a bucket, the run or the free list.
const NIL: u32 = u32::MAX;

/// One bucket per bit of a `u64` deadline.
const BUCKETS: usize = 64;

/// Slab address of a timer slot: index plus an ABA-guarding generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct TimerKey {
    index: u32,
    gen: u32,
}

/// A timer slab slot, lifecycle `Pending → Fired → freed` (or
/// `Pending → Cancelled → freed at pop` when its sleep is dropped). `gen`
/// survives vacancy so recycled slots invalidate stale keys.
pub(crate) struct TimerSlot<T> {
    at: SimTime,
    /// Instant the timer counts as armed: when it was, or, for a demoted
    /// fast-path continuation, when the walk armed the sleep it stands in
    /// for. `SimTime::ZERO` under a perturbation salt, so that the
    /// scrambled `ord` alone ranks ties.
    armed: SimTime,
    /// Arm sequence number; `ord` is [`scramble_ord`] of it.
    seq: u64,
    /// While queued, the next slot of its bucket or of the run; while
    /// vacant, the next free slot.
    next: u32,
    gen: u32,
    state: TimerState<T>,
}

enum TimerState<T> {
    Vacant,
    /// Queued; firing hands back `T`, whoever polled the sleep last.
    Pending(T),
    /// The deadline was reached; the sleep will observe and free it.
    Fired,
    /// Queued, but the sleep was dropped: the pop frees it.
    Cancelled,
}

/// One bucket: the earliest deadline filed in it and the newest slot of
/// its list. Meaningful only while the bucket's bit in the nonempty mask
/// is set.
#[derive(Clone, Copy)]
pub(crate) struct Bucket {
    min: SimTime,
    head: u32,
    /// The last slot a refill appended: the list's tail during a refill,
    /// stale after it.
    tail: u32,
}

/// What [`TimerQueue::pop`] found.
pub(crate) enum Popped<T> {
    /// No timer is queued.
    Quiescent,
    /// The earliest deadline is at or past the bound; nothing was popped.
    AtHorizon(SimTime),
    /// The earliest timer left the queue: `waiter` is `Some` if it fired
    /// (its slot stays for the sleep to observe) and `None` if it had been
    /// cancelled (its slot is free again).
    Due {
        at: SimTime,
        armed: SimTime,
        seq: u64,
        waiter: Option<T>,
    },
}

/// Injective tie-break scramble: XOR with the salt then multiply by an odd
/// constant (a bijection on `u64`). With `salt == 0` the identity is
/// deliberately preserved (`ord == seq`) so production runs keep the
/// arm-order contract bit-for-bit.
fn scramble_ord(seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        seq
    } else {
        (seq ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The bucket a deadline `at` after `last` is filed in: the highest bit in
/// which the two differ.
fn bucket_of(at: SimTime, last: SimTime) -> usize {
    debug_assert!(at > last, "a timer filed at or before the last refill");
    63 - (at.as_nanos() ^ last.as_nanos()).leading_zeros() as usize
}

/// Pending timers in `(deadline, armed, ord)` order. See the module docs.
pub(crate) struct TimerQueue<T> {
    slots: Vec<TimerSlot<T>>,
    free: u32,
    /// The slots due at `last`, in firing order.
    run: u32,
    /// Bit `b` set: bucket `b` holds a slot.
    nonempty: u64,
    /// Deadline of the most recent refill; every queued deadline outside
    /// the run is later.
    last: SimTime,
    next_seq: u64,
    /// Schedule-perturbation salt; 0 = arm-order tie-breaks.
    salt: u64,
    /// Reached only through a bucket index, so kept out of line.
    buckets: Box<[Bucket; BUCKETS]>,
}

impl<T: Copy> TimerQueue<T> {
    pub(crate) fn new(salt: u64) -> Self {
        TimerQueue {
            slots: Vec::new(),
            free: NIL,
            run: NIL,
            nonempty: 0,
            last: SimTime::ZERO,
            next_seq: 0,
            salt,
            buckets: Box::new(
                [Bucket {
                    min: SimTime::ZERO,
                    head: NIL,
                    tail: NIL,
                }; BUCKETS],
            ),
        }
    }

    /// The perturbation salt the queue ranks ties under.
    pub(crate) fn salt(&self) -> u64 {
        self.salt
    }

    /// Timers queued, cancelled ones included: each still moves the clock
    /// when it pops.
    pub(crate) fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, TimerState::Pending(_) | TimerState::Cancelled))
            .count()
    }

    /// Queue a timer at `at`, ranked among equal deadlines as armed at
    /// `armed`, that hands back `waiter` when it fires. `at` must be later
    /// than every deadline popped so far (see the module docs).
    pub(crate) fn arm(&mut self, at: SimTime, armed: SimTime, waiter: T) -> TimerKey {
        let index = if self.free == NIL {
            self.slots.push(TimerSlot {
                at,
                armed,
                seq: 0,
                next: NIL,
                gen: 0,
                state: TimerState::Vacant,
            });
            u32::try_from(self.slots.len() - 1).expect("timer slab outgrew u32 indices")
        } else {
            let index = self.free;
            self.free = self.slots[index as usize].next;
            index
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = bucket_of(at, self.last);
        let bucket = &mut self.buckets[b];
        let slot = &mut self.slots[index as usize];
        slot.at = at;
        slot.armed = if self.salt == 0 { armed } else { SimTime::ZERO };
        slot.seq = seq;
        slot.state = TimerState::Pending(waiter);
        if self.nonempty & (1 << b) == 0 {
            self.nonempty |= 1 << b;
            bucket.min = at;
            slot.next = NIL;
        } else {
            bucket.min = bucket.min.min(at);
            slot.next = bucket.head;
        }
        bucket.head = index;
        TimerKey {
            index,
            gen: slot.gen,
        }
    }

    /// Take the earliest timer, unless `bound` is set and it is due at or
    /// after it.
    pub(crate) fn pop(&mut self, bound: Option<SimTime>) -> Popped<T> {
        if self.run == NIL {
            if self.nonempty == 0 {
                return Popped::Quiescent;
            }
            let b = self.nonempty.trailing_zeros() as usize;
            let min = self.buckets[b].min;
            // Reported without a refill: a timer may still be armed
            // before `min`, and must then file above `last`.
            if bound.is_some_and(|bound| min >= bound) {
                return Popped::AtHorizon(min);
            }
            self.refill(b, min);
        } else if bound.is_some_and(|bound| self.last >= bound) {
            return Popped::AtHorizon(self.last);
        }
        let index = self.run;
        let slot = &mut self.slots[index as usize];
        self.run = slot.next;
        let (at, armed, seq) = (slot.at, slot.armed, slot.seq);
        let waiter = match std::mem::replace(&mut slot.state, TimerState::Fired) {
            TimerState::Pending(waiter) => Some(waiter),
            TimerState::Cancelled => {
                self.release(index);
                None
            }
            TimerState::Vacant | TimerState::Fired => {
                unreachable!("a queued timer was not pending")
            }
        };
        Popped::Due {
            at,
            armed,
            seq,
            waiter,
        }
    }

    /// Empty bucket `b`, whose earliest deadline is `min`: its slots due
    /// at `min` become the run, in `(armed, ord)` order, and the rest file
    /// below it, newest first as they were.
    fn refill(&mut self, b: usize, min: SimTime) {
        self.last = min;
        self.nonempty &= !(1 << b);
        let mut next = self.buckets[b].head;
        while next != NIL {
            let index = next;
            let slot = &self.slots[index as usize];
            next = slot.next;
            let at = slot.at;
            if at == min {
                self.enrun(index);
                continue;
            }
            // Every bucket below `b` was empty when the refill began.
            let j = bucket_of(at, min);
            let bucket = &mut self.buckets[j];
            if self.nonempty & (1 << j) == 0 {
                self.nonempty |= 1 << j;
                bucket.min = at;
                bucket.head = index;
            } else {
                bucket.min = bucket.min.min(at);
                self.slots[bucket.tail as usize].next = index;
            }
            bucket.tail = index;
            self.slots[index as usize].next = NIL;
        }
    }

    /// Put slot `index` in the run at its `(armed, ord)` place: the front,
    /// unless its arm instant was back-dated or the salt is set.
    fn enrun(&mut self, index: u32) {
        let rank = self.rank(index);
        let mut prev = NIL;
        let mut next = self.run;
        while next != NIL && self.rank(next) < rank {
            prev = next;
            next = self.slots[next as usize].next;
        }
        self.slots[index as usize].next = next;
        if prev == NIL {
            self.run = index;
        } else {
            self.slots[prev as usize].next = index;
        }
    }

    /// Where slot `index` fires among timers of its deadline.
    fn rank(&self, index: u32) -> (SimTime, u64) {
        let slot = &self.slots[index as usize];
        (slot.armed, scramble_ord(slot.seq, self.salt))
    }

    /// Whether the timer at `key` has fired, freeing its slot if so; if
    /// not, `waiter` replaces whoever it was to hand back.
    pub(crate) fn poll(&mut self, key: TimerKey, waiter: T) -> bool {
        let slot = &mut self.slots[key.index as usize];
        debug_assert_eq!(slot.gen, key.gen, "sleep outlived its timer slot");
        match &mut slot.state {
            TimerState::Fired => {
                self.release(key.index);
                true
            }
            TimerState::Pending(w) => {
                *w = waiter;
                false
            }
            TimerState::Vacant | TimerState::Cancelled => {
                unreachable!("armed sleep found vacant/cancelled slot")
            }
        }
    }

    /// Forget the timer at `key`: a fired one's slot is freed now, a
    /// pending one stays queued as cancelled. True if it was pending.
    pub(crate) fn cancel(&mut self, key: TimerKey) -> bool {
        let slot = &mut self.slots[key.index as usize];
        if slot.gen != key.gen {
            return false;
        }
        match slot.state {
            TimerState::Fired => {
                self.release(key.index);
                false
            }
            TimerState::Pending(_) => {
                slot.state = TimerState::Cancelled;
                true
            }
            TimerState::Vacant | TimerState::Cancelled => false,
        }
    }

    /// Return slot `index` to the free list under a new generation.
    fn release(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = TimerState::Vacant;
        slot.next = self.free;
        self.free = index;
    }

    /// Slots the slab has grown to.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is vacant.
    #[cfg(test)]
    pub(crate) fn all_vacant(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, TimerState::Vacant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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

    /// Operations per seeded stream: all of them in release (`ci.sh` runs
    /// the module there), a tenth in debug.
    const OPS_PER_STREAM: u64 = if cfg!(debug_assertions) {
        50_000
    } else {
        500_000
    };

    /// Most timers a stream queues: once it gets there, arms turn into
    /// pops until a handful are left, so the queue swings between dense
    /// and sparse.
    const MAX_QUEUED: usize = 4_000;

    /// Deadlines from here on are popped only by the final drain: once the
    /// clock reaches one, nothing later can be armed.
    const FAR: u64 = 1 << 62;

    /// A queued timer's rank, `(at, armed, ord)`.
    type Rank = (u64, u64, u64);

    /// The queue beside the reference it must agree with: an ordered map
    /// from rank to `(seq, key, cancelled)`.
    struct Model {
        queue: TimerQueue<u64>,
        reference: BTreeMap<Rank, (u64, TimerKey, bool)>,
        now: u64,
        next_seq: u64,
        /// The deadline the last horizon report named, until the next pop.
        horizon: Option<u64>,
        /// Timers at or past [`FAR`], queued until the final drain.
        far: usize,
        fired: u64,
        /// Pops at the deadline of the pop before.
        ties: u64,
        horizons: u64,
        late_arms: u64,
    }

    impl Model {
        fn new(salt: u64) -> Self {
            Model {
                queue: TimerQueue::new(salt),
                reference: BTreeMap::new(),
                now: 0,
                next_seq: 0,
                horizon: None,
                far: 0,
                fired: 0,
                ties: 0,
                horizons: 0,
                late_arms: 0,
            }
        }

        fn arm(&mut self, at: u64, armed: u64) {
            assert!(at > self.now && armed <= self.now);
            if self.horizon.is_some_and(|h| at < h) {
                self.late_arms += 1;
            }
            self.far += usize::from(at >= FAR);
            let seq = self.next_seq;
            self.next_seq += 1;
            let key = self
                .queue
                .arm(SimTime::from_nanos(at), SimTime::from_nanos(armed), seq);
            let salt = self.queue.salt();
            let armed = if salt == 0 { armed } else { 0 };
            self.reference
                .insert((at, armed, scramble_ord(seq, salt)), (seq, key, false));
        }

        /// The first queued rank from deadline `from` on.
        fn first_from(&self, from: u64) -> Option<(&Rank, &(u64, TimerKey, bool))> {
            self.reference.range((from, 0, 0)..).next()
        }

        /// Cancel the first live timer from deadline `from` on, if any.
        fn cancel(&mut self, from: u64) {
            let Some((_, entry)) = self
                .reference
                .range_mut((from, 0, 0)..)
                .find(|(_, (_, _, cancelled))| !cancelled)
            else {
                return;
            };
            entry.2 = true;
            assert!(self.queue.cancel(entry.1), "a live timer cancels");
            assert!(!self.queue.cancel(entry.1), "a timer cancels once");
        }

        fn pop(&mut self, bound: Option<u64>) {
            let head = self
                .reference
                .first_key_value()
                .map(|(&rank, &e)| (rank, e));
            match (head, self.queue.pop(bound.map(SimTime::from_nanos))) {
                (None, Popped::Quiescent) => {}
                (Some(((first, ..), _)), Popped::AtHorizon(at)) => {
                    assert!(
                        bound.is_some_and(|bound| first >= bound),
                        "a horizon at {at:?} with {first} queued under bound {bound:?}"
                    );
                    assert_eq!(
                        at.as_nanos(),
                        first,
                        "a horizon names the earliest deadline"
                    );
                    self.horizon = Some(first);
                    self.horizons += 1;
                }
                (
                    Some(((first, armed, _), (seq, key, cancelled))),
                    Popped::Due {
                        at,
                        armed: got_armed,
                        seq: got_seq,
                        waiter,
                    },
                ) => {
                    assert!(
                        bound.is_none_or(|bound| first < bound),
                        "popped past the bound"
                    );
                    assert_eq!(
                        (at.as_nanos(), got_armed.as_nanos(), got_seq),
                        (first, armed, seq),
                        "pop out of order"
                    );
                    assert_eq!(waiter, (!cancelled).then_some(seq));
                    self.reference.pop_first();
                    if !cancelled {
                        assert!(self.queue.poll(key, seq), "a popped timer has fired");
                        self.fired += 1;
                    }
                    self.ties += u64::from(first == self.now);
                    self.now = first;
                    self.horizon = None;
                }
                (head, _) => panic!("the queue disagrees with the reference head {head:?}"),
            }
        }
    }

    /// Drive `model` through `ops` seeded arms, cancels and pops, then
    /// drain it. `span` draws how far past `now` a fresh timer is armed.
    fn stream(model: &mut Model, seed: u64, ops: u64, span: fn(&mut Rng) -> u64) {
        let mut rng = Rng(seed);
        let mut full = false;
        for _ in 0..ops {
            let now = model.now;
            let head = model.reference.first_key_value().map(|(rank, _)| rank.0);
            let queued = model.reference.len() - model.far;
            full = queued >= MAX_QUEUED || (full && queued > 8);
            let reach = span(&mut rng).max(1);
            match rng.below(16) {
                // A fresh deadline, armed now or back-dated.
                0..=4 if !full => {
                    let at = now.saturating_add(reach).min(FAR - 1);
                    let back = if rng.below(2) == 0 {
                        0
                    } else {
                        rng.below(now + 1)
                    };
                    if at > now {
                        model.arm(at, now - back);
                    }
                }
                // A tie with a queued deadline: same-instant-heavy.
                5..=7 if !full => {
                    let from = (now + 1).saturating_add(rng.below(reach));
                    if let Some(at) = model.first_from(from).map(|(rank, _)| rank.0) {
                        let back = if rng.below(4) == 0 {
                            rng.below(now + 1)
                        } else {
                            0
                        };
                        model.arm(at, now - back);
                    }
                }
                // A saturated deadline.
                8 if rng.below(16) == 0 => model.arm(u64::MAX, now),
                // After a horizon report, a timer before the reported head.
                9 => {
                    if let Some(h) = model.horizon.filter(|&h| h > now + 1) {
                        model.arm(now + 1 + rng.below(h - now - 1), now);
                    }
                }
                10 => model.cancel(now.saturating_add(rng.below(reach))),
                // A bound below, at or above the head.
                11 | 12 => {
                    let head = head.unwrap_or(now + 1);
                    let bound = match rng.below(3) {
                        0 => head - rng.below(head - now + 1),
                        1 => head,
                        _ if head >= FAR => head,
                        _ => head.saturating_add(1 + rng.below(reach)),
                    };
                    model.pop(Some(bound));
                    // Often, straight away, a timer before the head it named.
                    if let Some(h) = model.horizon.filter(|&h| h > now + 1 && rng.below(2) == 0) {
                        model.arm(now + 1 + rng.below(h - now - 1), now);
                    }
                }
                _ if head.is_some_and(|h| h >= FAR) => model.pop(Some(FAR)),
                _ => model.pop(None),
            }
        }
        while !model.reference.is_empty() {
            model.pop(None);
        }
        model.pop(None);
        assert!(model.queue.all_vacant(), "every slot is freed");
    }

    #[test]
    fn pops_what_an_ordered_map_pops() {
        // `(name, span, late)`: a stream of nanosecond spans is all ties,
        // with the head at `now` too often to arm under a horizon (`late`
        // false); the wider ones arm under horizons, and the widest spans
        // more than 2^32 ns between one timer and the next.
        type Span = fn(&mut Rng) -> u64;
        let streams: [(&str, Span, bool); 3] = [
            ("nanoseconds", |rng| rng.below(40), false),
            (
                "up to 2^24 ns",
                |rng| {
                    let bits = rng.below(24);
                    rng.below(2 << bits)
                },
                true,
            ),
            (
                "up to 2^44 ns",
                |rng| {
                    let bits = rng.below(44);
                    rng.below(2 << bits)
                },
                true,
            ),
        ];
        for (i, (name, span, late)) in (0u64..).zip(streams) {
            for salt in [0, 0x5EED] {
                let mut model = Model::new(salt);
                stream(
                    &mut model,
                    0xC0FFEE ^ (i << 16) ^ salt,
                    OPS_PER_STREAM,
                    span,
                );
                let what = format!("{name}, salt {salt:#x}");
                assert!(
                    model.fired > OPS_PER_STREAM / 8,
                    "{what}: {} fired",
                    model.fired
                );
                assert!(model.ties > model.fired / 4, "{what}: {} ties", model.ties);
                assert!(
                    model.horizons > OPS_PER_STREAM / 100,
                    "{what}: {} horizons",
                    model.horizons
                );
                assert!(
                    !late || model.late_arms > OPS_PER_STREAM / 100,
                    "{what}: {} arms under a horizon",
                    model.late_arms
                );
                assert_eq!(
                    model.now,
                    u64::MAX,
                    "{what}: the drain reaches saturated deadlines"
                );
            }
        }
    }
}
