//! Bandwidth-limited, FIFO-serializing resources.
//!
//! A [`Pipe`] models any component that serializes data at a finite rate: a
//! wire, a PCIe direction, a DMA engine, an on-NIC bus, a protocol-engine
//! stage. Transfers reserve the pipe first-come-first-served; a transfer of
//! `n` bytes occupies the pipe for `n / bandwidth` (plus a fixed per-transfer
//! overhead), which is the standard store-and-forward service model.
//!
//! A [`Pipeline`] chains stages and moves a message through them at
//! *segment* granularity, so a long message overlaps its own stages the
//! way wormhole/cut-through hardware does — this is what produces
//! realistic `1/(a + b/m)` bandwidth curves without closed-form shortcuts.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::{Rc, Weak};

use crate::calendar::Calendar;
use crate::executor::Sim;
use crate::memo::{MemoKey, MEMO_CAPACITY};
use crate::sync::TaskGroup;
use crate::time::{SimDuration, SimTime};
use crate::units::{ByteRate, Bytes};

#[derive(Debug)]
struct PipeState {
    rate: ByteRate,
    per_transfer_overhead: SimDuration,
    /// Reserved busy time. Kept sparse: runs entirely in the past are
    /// pruned on every reserve, and exactly-abutting reservations merge.
    calendar: RefCell<Calendar>,
    /// Live cut-through speculation registered on this pipe, if any.
    /// Weak: the transfer future owns the speculation; a dropped future
    /// must not leak a registration.
    spec: RefCell<Option<Weak<Speculation>>>,
}

/// Shortest occupancy a reservation takes: a zero-length service still
/// books 1 ns, so a calendar never holds an empty run.
const MIN_OCCUPANCY: SimDuration = SimDuration::from_nanos(1);

/// A FIFO bandwidth resource. Clonable handle; clones share the resource.
#[derive(Clone, Debug)]
pub struct Pipe {
    sim: Sim,
    state: Rc<PipeState>,
}

impl Pipe {
    /// Create a pipe with the given bandwidth and a fixed per-transfer
    /// overhead charged before the serialization time.
    pub fn new(sim: &Sim, rate: ByteRate, per_transfer_overhead: SimDuration) -> Self {
        assert!(!rate.is_zero(), "pipe requires nonzero bandwidth");
        Pipe {
            sim: sim.clone(),
            state: Rc::new(PipeState {
                rate,
                per_transfer_overhead,
                calendar: RefCell::new(Calendar::default()),
                spec: RefCell::new(None),
            }),
        }
    }

    /// Two handles to the same underlying resource?
    pub(crate) fn same_resource(&self, other: &Pipe) -> bool {
        Rc::ptr_eq(&self.state, &other.state)
    }

    /// Occupancy of `n` back-to-back transfers totalling `bytes`: one
    /// per-transfer overhead each, one contiguous serialization.
    fn bulk_service(&self, bytes: Bytes, n_transfers: u64) -> SimDuration {
        self.state.per_transfer_overhead * n_transfers + bytes / self.state.rate
    }

    /// If a live speculation is registered here, demote it to the
    /// per-segment walk: a competing reservation is about to land, so the
    /// closed-form prediction is no longer safe.
    fn demote_speculation(&self) {
        let slot = self.state.spec.borrow_mut().take();
        if let Some(spec) = slot.and_then(|weak| weak.upgrade()) {
            spec.demote();
        }
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> ByteRate {
        self.state.rate
    }

    /// Service time for `bytes` on this pipe (overhead + serialization),
    /// without reserving anything.
    pub(crate) fn service_time(&self, bytes: Bytes) -> SimDuration {
        self.state.per_transfer_overhead + bytes / self.state.rate
    }

    /// Reserve the pipe for `bytes` starting no earlier than `earliest`.
    /// Returns the `(start, end)` of the reserved occupancy. This is the
    /// primitive used by [`Pipeline`]; most callers want [`Pipe::transfer`].
    ///
    /// Reservation is calendar-based: the transfer takes the first gap in
    /// the pipe's busy schedule that fits its service time at or after
    /// `earliest`. A pipelined flow may reserve slightly into the future
    /// (its later segments arrive later); calendar scheduling lets a
    /// competing flow slot its *present* segments into the gaps instead of
    /// queueing behind those future reservations — which is how real
    /// store-and-forward hardware interleaves independent flows.
    pub fn reserve(&self, earliest: SimTime, bytes: Bytes) -> (SimTime, SimTime) {
        self.reserve_service(earliest, self.service_time(bytes))
    }

    /// Calendar-insert an occupancy of exactly `service` length at or after
    /// now (first fit), independent of byte counts. Models per-message
    /// processing time on a serial engine (e.g. an HCA's embedded
    /// processor working on a WQE or a connection context).
    pub fn occupy(&self, service: SimDuration) -> (SimTime, SimTime) {
        self.reserve_service(self.sim.now(), service)
    }

    /// Reserve a train of transfers in order, each exactly as
    /// [`Pipe::reserve`] would, with one calendar booking: entry `k` holds
    /// transfer `k`'s earliest start and service time, and on return its
    /// `.0` is where the transfer's occupancy ends.
    fn reserve_train(&self, train: &mut [(SimTime, SimDuration)]) {
        self.demote_speculation();
        for (_, service) in train.iter_mut() {
            *service = (*service).max(MIN_OCCUPANCY);
        }
        let peak = self
            .state
            .calendar
            .borrow_mut()
            .book_train(self.sim.now(), train);
        self.sim.note_booking(peak as u64);
        for (at, dur) in train.iter_mut() {
            *at += *dur;
        }
    }

    /// Calendar-insert a reservation of `service` length at or after
    /// `earliest` (first fit).
    fn reserve_service(&self, earliest: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        // A competing reservation invalidates any closed-form traversal in
        // flight on this pipe; it must fall back before we touch the
        // calendar so we land exactly where the per-segment walk would put
        // us. (The demoted speculation's continuation tasks re-enter here,
        // but only after the registration below has been cleared.)
        self.demote_speculation();
        let mut cal = self.state.calendar.borrow_mut();
        let dur = service.max(MIN_OCCUPANCY);
        let start = cal.book(self.sim.now(), earliest, dur);
        self.sim.note_booking(cal.len() as u64);
        (start, start + dur)
    }

    /// Transfer `bytes` through the pipe: reserves capacity now (FIFO behind
    /// earlier reservations) and completes when the serialization finishes.
    ///
    /// The reservation is made when this method is *called*, not when the
    /// returned future is first polled, so ordering between competing
    /// transfers is determined by deterministic program order.
    pub async fn transfer(&self, bytes: Bytes) {
        let (_start, end) = self.reserve(self.sim.now(), bytes);
        self.sim.sleep_until(end).await;
    }
}

/// One stage of a [`Pipeline`]: a shared pipe plus the latency to reach the
/// next stage.
#[derive(Clone, Debug)]
pub struct Stage {
    /// The serializing resource for this stage (shared across connections).
    pub pipe: Pipe,
    /// Fixed delay between this stage finishing a segment and the next stage
    /// being able to start it.
    pub latency: SimDuration,
}

impl Stage {
    /// Convenience constructor.
    pub fn new(pipe: Pipe, latency: SimDuration) -> Self {
        Stage { pipe, latency }
    }
}

/// Number of segments reserved per pacing quantum in
/// [`Pipeline::transfer`]; bounds how far one flow can run ahead of a
/// competitor on a shared stage (8 segments ≈ 12 KB at Ethernet MSS).
pub const PACE_CHUNK_SEGMENTS: u64 = 8;

/// Segments a stage books per train in [`Pipeline::reserve_message`]:
/// [`PACE_CHUNK_SEGMENTS`], so a message of at most one default pacing
/// chunk is one train.
const TRAIN_SEGMENTS: usize = 8;

/// A chain of stages that a message crosses at segment granularity.
///
/// Each stage's pipe is a *shared* resource: two connections pushing
/// messages through the same pipeline contend stage-by-stage, which is
/// exactly how a pipelined RNIC overlaps independent connections while a
/// serial engine (a pipeline with one dominant stage) does not.
#[derive(Clone, Debug)]
pub struct Pipeline {
    stages: Rc<[Stage]>,
    /// No two stages share a pipe, so each stage's calendar can take a
    /// message's segments on its own (see [`Pipeline::reserve_message`])
    /// and the closed-form plan can book them on virtual calendars.
    distinct: bool,
    segment: Bytes,
    chunk: u64,
    sim: Sim,
    /// Whole-transfer memo cache (see [`crate::memo`]): fingerprint →
    /// cached closed-form plan outcome. Shared by clones of this pipeline
    /// — which is exactly the fabric crates' cached per-(src, dst) data
    /// path handles — and by nothing else, so path identity (fabric,
    /// endpoints, geometry, shard) is encoded by cache identity.
    memo: MemoCache,
}

type MemoCache = Rc<RefCell<BTreeMap<MemoKey, MemoEntry>>>;

/// One cached whole-transfer outcome.
#[derive(Clone, Debug)]
enum MemoEntry {
    /// The closed-form plan succeeded; replay it by offset from the entry
    /// instant.
    Plan(Rc<PlanSummary>),
    /// The closed-form replay refused this geometry (wall-monotonicity):
    /// skip straight to the per-segment walk without recomputing — the
    /// refusal is a pure function of the partition, so it is as cacheable
    /// as a success.
    Refused(Rc<[ChunkMeta]>),
}

/// The translation-invariant digest of a computed plan: everything a
/// replay needs, stored as offsets from the plan's base instant. The full
/// per-(chunk, stage) op vector is deliberately *not* kept — a hit only
/// needs it if the window is demoted, and then it is rebuilt
/// bit-identically by [`compute_plan`] (see [`Speculation::ensure_ops`]).
#[derive(Debug)]
struct PlanSummary {
    /// The chunk partition (pure function of byte counts; cached to skip
    /// recomputing it on every hit).
    metas: Rc<[ChunkMeta]>,
    /// Completion instant minus base.
    completion_off: SimDuration,
    /// Scheduling events the plan coalesces (pre-adjustment; see
    /// [`Speculation::coalesced`]).
    coalesced: u64,
    /// Length of the chunk-0/stage-0 occupancy — the one reservation a
    /// hit makes eagerly (the calendar is idle, so it lands at `now`).
    first_dur: SimDuration,
}

/// Per-chunk wire geometry, fixed by the message partition alone (never by
/// contention) — so it can be computed once and reused by the closed-form
/// replay, the live walk, and any fallback continuation.
#[derive(Clone, Copy, Debug)]
struct ChunkMeta {
    csegs: u64,
    cwire: Bytes,
    seg_wire: Bytes,
}

/// One (chunk, stage) reservation in a speculated traversal: the wall time
/// at which the per-segment walk would have made it, the instant the sleep
/// driving it would have been armed, and the occupancy it would have
/// claimed.
///
/// `arm` settles same-instant ordering: timers at equal deadlines fire in
/// arm (seq) order, so when a competing reservation lands at exactly
/// `wall`, the walk's reserve would precede it iff the walk's timer was
/// armed strictly before the competitor's ([`Sim::last_fired_timer`]).
#[derive(Clone, Copy, Debug)]
struct PlanOp {
    wall: SimTime,
    arm: SimTime,
    start: SimTime,
    end: SimTime,
}

/// The reservation a chunk block holds on the stage it last crossed: its
/// `(start, end)` there, one segment's service there, and the latency on
/// to the next stage.
#[derive(Clone, Copy, Debug)]
struct Hop {
    start: SimTime,
    end: SimTime,
    seg: SimDuration,
    lat: SimDuration,
}

impl Hop {
    /// The hop a block of `meta` holds once booked at `(start, end)` on
    /// `stage`.
    fn held(stage: &Stage, meta: ChunkMeta, (start, end): (SimTime, SimTime)) -> Hop {
        Hop {
            start,
            end,
            seg: stage.pipe.service_time(meta.seg_wire),
            lat: stage.latency,
        }
    }

    /// Enter the first stage: `book` places the block of `meta` at or
    /// after `earliest` and returns its `(start, end)`.
    fn enter(
        stage: &Stage,
        meta: ChunkMeta,
        earliest: SimTime,
        book: impl FnOnce(SimTime, SimDuration) -> (SimTime, SimTime),
    ) -> Hop {
        let block = stage.pipe.bulk_service(meta.cwire, meta.csegs);
        Hop::held(stage, meta, book(earliest, block))
    }

    /// When the block's first segment, cleared from this stage, reaches
    /// the next: the walk books the next stage no earlier.
    fn by_start(&self) -> SimTime {
        self.start + self.seg + self.lat
    }

    /// When the block's last segment leaves the stage chain, if this is
    /// the last stage.
    fn exit(&self) -> SimTime {
        self.end + self.lat
    }

    /// Cross on to `stage` at wall `now` (at or after [`Hop::by_start`]):
    /// `book` places the block of `meta` at or after the earliest start
    /// there and returns its `(start, end)`.
    fn step(
        &self,
        stage: &Stage,
        meta: ChunkMeta,
        now: SimTime,
        book: impl FnOnce(SimTime, SimDuration) -> (SimTime, SimTime),
    ) -> Hop {
        debug_assert!(now >= self.by_start(), "a block crosses before it arrives");
        let seg = stage.pipe.service_time(meta.seg_wire);
        let block = stage.pipe.bulk_service(meta.cwire, meta.csegs);
        // The block may not drain here before it drained upstream.
        let floor = (self.end + seg + self.lat) - block;
        let (start, end) = book(now.max(floor), block);
        Hop {
            start,
            end,
            seg,
            lat: stage.latency,
        }
    }
}

/// The pacing loop of the per-segment walk: each chunk enters stage 0 as
/// soon as the one before it has cleared stage 0 (FIFO behind this flow's
/// earlier chunks), and one [`chunk_walk`] task carries it through the
/// later stages. Resolves when every chunk has left the last stage.
async fn pace_chunks(sim: &Sim, stages: &Rc<[Stage]>, metas: &[ChunkMeta]) {
    let stage0 = &stages[0];
    let chunks = TaskGroup::new();
    for (c, &meta) in metas.iter().enumerate() {
        let hop = Hop::enter(stage0, meta, sim.now(), |earliest, block| {
            stage0.pipe.reserve_service(earliest, block)
        });
        chunks.spawn(
            sim,
            chunk_walk(sim.clone(), Rc::clone(stages), 1, hop, meta),
        );
        if c + 1 < metas.len() && hop.end > sim.now() {
            sim.sleep_until(hop.end).await;
        }
    }
    chunks.wait().await;
}

/// Walk one chunk block through `stages[from..]` in wall-clock step with
/// the data, exactly as cut-through hardware drains it. `hop` is the
/// reservation the block already holds on stage `from - 1`.
///
/// A plain `fn` returning an `async move` block, not an `async fn`: the
/// block advances its captured arguments in place (`from` is the stage
/// cursor), where an `async fn` would keep them and a second, local copy
/// in every walk task.
#[expect(
    clippy::manual_async_fn,
    reason = "the async block advances its arguments in place; an async fn would copy them"
)]
fn chunk_walk(
    sim: Sim,
    stages: Rc<[Stage]>,
    mut from: usize,
    mut hop: Hop,
    meta: ChunkMeta,
) -> impl Future<Output = ()> {
    async move {
        while let Some(stage) = stages.get(from) {
            from += 1;
            let by_start = hop.by_start();
            if by_start > sim.now() {
                sim.sleep_until(by_start).await;
            }
            hop = hop.step(stage, meta, sim.now(), |earliest, block| {
                stage.pipe.reserve_service(earliest, block)
            });
        }
        let exit = hop.exit();
        if exit > sim.now() {
            sim.sleep_until(exit).await;
        }
    }
}

impl Pipeline {
    /// Build a pipeline with the given maximum segment size (e.g. the TCP
    /// MSS or the InfiniBand path MTU) and the default pacing chunk.
    pub fn new(sim: &Sim, stages: Vec<Stage>, segment: Bytes) -> Self {
        Self::with_chunk(sim, stages, segment, PACE_CHUNK_SEGMENTS)
    }

    /// Build a pipeline with an explicit pacing-chunk size (segments per
    /// block reservation). Finer chunks interleave competing flows more
    /// tightly on shared stages at the cost of more scheduling events; the
    /// right value depends on the ratio of the shared stage's service time
    /// to the wire's.
    pub fn with_chunk(sim: &Sim, stages: Vec<Stage>, segment: Bytes, chunk: u64) -> Self {
        assert!(!segment.is_zero(), "pipeline requires nonzero segment size");
        assert!(!stages.is_empty(), "pipeline requires at least one stage");
        assert!(chunk > 0, "pipeline requires nonzero pacing chunk");
        let distinct = stages.iter().enumerate().all(|(i, st)| {
            stages[..i]
                .iter()
                .all(|other| !st.pipe.same_resource(&other.pipe))
        });
        Pipeline {
            stages: stages.into(),
            distinct,
            segment,
            chunk,
            sim: sim.clone(),
            memo: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Cut the message into pacing-chunk blocks. The partition depends only
    /// on the byte count, never on calendar state, so the closed-form
    /// replay and the live walk always agree on it.
    fn chunk_partition(&self, bytes: Bytes, per_segment_overhead_bytes: Bytes) -> Vec<ChunkMeta> {
        let nsegs = bytes.div_ceil(self.segment).max(1);
        // A capacity hint only: a chunk count past `usize` fails on the pushes.
        let chunks = usize::try_from(nsegs.div_ceil(self.chunk)).unwrap_or(0);
        let mut metas = Vec::with_capacity(chunks);
        let mut segs_left = nsegs;
        let mut payload_left = bytes;
        while segs_left > 0 {
            let csegs = segs_left.min(self.chunk);
            let cpayload = payload_left.min(self.segment * csegs);
            payload_left -= cpayload;
            segs_left -= csegs;
            let cwire = cpayload + per_segment_overhead_bytes * csegs;
            metas.push(ChunkMeta {
                csegs,
                cwire,
                seg_wire: cwire.div_ceil_count(csegs),
            });
        }
        metas
    }

    /// The segment size used to cut messages.
    pub fn segment_size(&self) -> Bytes {
        self.segment
    }

    /// Stage list.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Compute and reserve the passage of a `bytes`-long message (plus
    /// `per_segment_overhead_bytes` of headers on every segment) through all
    /// stages, starting now. Returns the completion time at the pipeline
    /// exit without sleeping — used when the caller wants to overlap.
    pub(crate) fn reserve_message(
        &self,
        bytes: Bytes,
        per_segment_overhead_bytes: Bytes,
    ) -> SimTime {
        let now = self.sim.now();
        let nsegs = bytes.div_ceil(self.segment).max(1);
        let wire = |j: u64| {
            let payload = if j == nsegs - 1 {
                bytes - self.segment * (nsegs - 1)
            } else {
                self.segment
            };
            payload + per_segment_overhead_bytes
        };
        // Stage by stage, each stage's calendar taking the segments as one
        // train. A calendar answers the same requests in the same order as
        // segment by segment — segment `j` asks for where it left the
        // stage before — so every reservation lands where it would there.
        // A pipe that serves two stages must see the segments in the
        // order they cross it, one at a time: a train of one.
        let per_train = if self.distinct { TRAIN_SEGMENTS } else { 1 };
        let mut exit = now;
        let mut first = 0;
        while first < nsegs {
            let mut buf = [(now, SimDuration::ZERO); TRAIN_SEGMENTS];
            let n = usize::try_from(nsegs - first).map_or(per_train, |n| n.min(per_train));
            let train = &mut buf[..n];
            for stage in self.stages.iter() {
                for (j, (_, service)) in (first..).zip(train.iter_mut()) {
                    *service = stage.pipe.service_time(wire(j));
                }
                stage.pipe.reserve_train(train);
                for (t, _) in train.iter_mut() {
                    *t += stage.latency;
                }
            }
            exit = train.iter().fold(exit, |exit, &(t, _)| exit.max(t));
            first += n as u64;
        }
        exit
    }

    /// Transfer a message through the pipeline and wait for the last
    /// segment to exit.
    ///
    /// Short messages (≤ one pacing chunk) are reserved analytically per
    /// segment through the stage chain. Longer messages move as contiguous
    /// chunk *blocks*, each driven by its own task that walks the stages
    /// in wall-clock step with the data:
    ///
    /// * a block reserves stage `j+1` only when its first segment has
    ///   cleared stage `j` (cut-through, so per-message latency is
    ///   pipeline-accurate), and
    /// * the reservation is made at that *wall time*, so competing flows
    ///   pack shared stages work-conservingly instead of fragmenting the
    ///   future schedule with rigid pre-reservations.
    ///
    /// The block also may not finish stage `j+1` before one segment-time
    /// after it finished stage `j` (data cannot overtake itself).
    pub async fn transfer(&self, bytes: Bytes, per_segment_overhead_bytes: Bytes) {
        let nsegs = bytes.div_ceil(self.segment).max(1);
        if nsegs <= self.chunk {
            let done = self.reserve_message(bytes, per_segment_overhead_bytes);
            self.sim.sleep_until(done).await;
        } else {
            // Boxed: every in-flight message holds this future, and only
            // the ones longer than a pacing chunk ever enter the block walk.
            Box::pin(self.transfer_blocks(bytes, per_segment_overhead_bytes)).await;
        }
    }

    /// The part of [`Pipeline::transfer`] for messages longer than one
    /// pacing chunk: the fast path, the memo, or one walk task per block.
    async fn transfer_blocks(&self, bytes: Bytes, per_segment_overhead_bytes: Bytes) {
        // The chunk partition is computed lazily: a memo hit replays the
        // cached one, and only fast-path-ineligible transfers (or misses)
        // pay for a fresh partition.
        let mut part: Option<Rc<[ChunkMeta]>> = None;
        if self.sim.fast_path_enabled() {
            if let Some(spec) = self.try_fast_path(bytes, per_segment_overhead_bytes, &mut part) {
                // Single completion event for the whole traversal. If a
                // competing reservation demotes the speculation while we
                // sleep, the continuation tasks it spawned finish the walk
                // live; the real completion is never earlier than the
                // prediction, so we wait out the prediction and then wait
                // for them, as the walk waits for its chunks.
                self.sim.sleep_until(spec.completion).await;
                match spec.rest.get() {
                    None => {
                        spec.commit();
                        self.sim.note_fast_path_hit(spec.coalesced);
                    }
                    Some(rest) => rest.wait().await,
                }
                return;
            }
            self.sim.note_slow_path_fall();
        }
        let metas: Rc<[ChunkMeta]> = match part {
            Some(m) => m,
            None => self
                .chunk_partition(bytes, per_segment_overhead_bytes)
                .into(),
        };
        pace_chunks(&self.sim, &self.stages, &metas).await;
    }

    /// Attempt the uncontended cut-through fast path: replay the whole
    /// per-segment walk in closed form against virtual calendars, without
    /// touching any real state. Legal only when every stage is a distinct,
    /// currently-idle resource with no other speculation in flight — then
    /// no competing reservation exists that could interleave, and the
    /// replay's arithmetic is exactly the walk's (same expressions, same
    /// saturating `SimTime`/`SimDuration` ops, same first-fit placement).
    ///
    /// With the transfer memo enabled, the legality gate doubles as the
    /// memo's validity gate (the only cacheable occupancy class is "every
    /// calendar idle"): a cached fingerprint replays the stored outcome
    /// without recomputing the plan, a miss computes and caches it, and a
    /// cached refusal skips straight to the walk. On a miss (or with the
    /// memo disabled) the partition is handed back through `part` so the
    /// walk does not recompute it.
    ///
    /// On success the returned speculation is registered on every stage
    /// pipe; a competing reservation arriving mid-traversal finds it there
    /// and demotes it (see [`Speculation::demote`]).
    fn try_fast_path(
        &self,
        bytes: Bytes,
        per_segment_overhead_bytes: Bytes,
        part: &mut Option<Rc<[ChunkMeta]>>,
    ) -> Option<Rc<Speculation>> {
        let now = self.sim.now();
        // The replay inserts each stage's reservations independently,
        // which is only order-exact when no two stages share a calendar.
        if !self.distinct {
            return None;
        }
        for st in self.stages.iter() {
            // A live registration is a speculation in flight: `commit` and
            // `demote` clear theirs before anything else runs.
            let live = matches!(&*st.pipe.state.spec.borrow(), Some(w) if w.strong_count() > 0);
            // Idle over the whole horizon: any live reservation could
            // overlap ours, so require the calendar to be entirely past.
            let last_end = st.pipe.state.calendar.borrow().last_end();
            if live || last_end.is_some_and(|en| en > now) {
                return None;
            }
        }

        let memo_on = self.sim.transfer_memo_enabled();
        let key = MemoKey {
            bytes,
            overhead: per_segment_overhead_bytes,
        };
        if memo_on {
            let cached = self.memo.borrow().get(&key).cloned();
            if let Some(entry) = cached {
                self.sim.note_memo_hit();
                match entry {
                    // O(stages): no chunk partition, no virtual-calendar
                    // walk. The speculation starts with an empty op vector
                    // and rebuilds it only if the window is demoted
                    // ([`Speculation::ensure_ops`]).
                    MemoEntry::Plan(sum) => {
                        return Some(self.speculate(now, &sum, Vec::new(), Some(key)))
                    }
                    MemoEntry::Refused(metas) => {
                        *part = Some(metas);
                        return None;
                    }
                }
            }
            self.sim.note_memo_miss();
        }

        let metas: Rc<[ChunkMeta]> = self
            .chunk_partition(bytes, per_segment_overhead_bytes)
            .into();
        let Some(plan) = compute_plan(&self.stages, &metas, now) else {
            if memo_on {
                self.memo_insert(key, MemoEntry::Refused(Rc::clone(&metas)));
            }
            *part = Some(metas);
            return None;
        };
        let first = plan.ops[0];
        let sum = PlanSummary {
            metas,
            completion_off: plan.completion - now,
            coalesced: plan.coalesced,
            first_dur: first.end - first.start,
        };
        let spec = self.speculate(now, &sum, plan.ops, memo_on.then_some(key));
        if memo_on {
            self.memo_insert(key, MemoEntry::Plan(Rc::new(sum)));
        }
        Some(spec)
    }

    /// Start a speculated traversal along the plan `sum` digests, entering
    /// at `now`. `ops` is the plan's op vector, or empty for
    /// [`Speculation::ensure_ops`] to rebuild; `key` is the memo entry the
    /// plan is kept under, if any.
    ///
    /// The walk reserves chunk 0 on stage 0 synchronously, before its
    /// first await — in program order ahead of anything else this instant.
    /// Mirror that for real (placement equals the plan's: the calendar was
    /// idle and first-fit is deterministic), so only timer-driven
    /// reservations are ever subject to the due rule; then register on
    /// every stage pipe.
    fn speculate(
        &self,
        now: SimTime,
        sum: &PlanSummary,
        ops: Vec<PlanOp>,
        key: Option<MemoKey>,
    ) -> Rc<Speculation> {
        let meta = sum.metas[0];
        let stage0 = &self.stages[0].pipe;
        let booked = stage0.reserve_service(now, stage0.bulk_service(meta.cwire, meta.csegs));
        debug_assert_eq!(
            booked,
            (now, now + sum.first_dur),
            "the eager stage-0 reservation must land where the plan put it"
        );
        let spec = Rc::new(Speculation {
            sim: self.sim.clone(),
            stages: Rc::clone(&self.stages),
            metas: Rc::clone(&sum.metas),
            ops: RefCell::new(ops),
            base: now,
            completion: now + sum.completion_off,
            coalesced: sum.coalesced.saturating_sub(1),
            memo: key.map(|key| (Rc::clone(&self.memo), key)),
            rest: OnceCell::new(),
        });
        for st in self.stages.iter() {
            *st.pipe.state.spec.borrow_mut() = Some(Rc::downgrade(&spec));
        }
        spec
    }

    /// Insert a memo entry, evicting the oldest key at the capacity cap.
    fn memo_insert(&self, key: MemoKey, entry: MemoEntry) {
        let mut cache = self.memo.borrow_mut();
        if cache.len() >= MEMO_CAPACITY && !cache.contains_key(&key) {
            cache.pop_first();
            self.sim.note_memo_eviction();
        }
        cache.insert(key, entry);
    }
}

/// The virtual calendars and walls [`compute_plan`] books on, one per
/// stage. Every plan starts each calendar over and writes each wall before
/// it reads it, so one scratch serves every plan and a plan allocates only
/// its op vector.
#[derive(Debug, Default)]
struct PlanScratch {
    cals: Vec<Calendar>,
    /// Last reservation wall per stage: insertion order into a calendar
    /// must match the walk's wall-clock order, so walls must strictly
    /// increase chunk-over-chunk on every stage.
    last_wall: Vec<SimTime>,
}

/// The computed closed-form plan for one traversal: the per-(chunk, stage)
/// op vector plus its summary quantities.
struct PlanOut {
    ops: Vec<PlanOp>,
    completion: SimTime,
    coalesced: u64,
}

/// Replay the whole per-segment walk in closed form against one virtual
/// [`Calendar`] per stage, starting at `now`. Every booking is at or after
/// `now`, so no virtual calendar ever prunes and each places exactly where
/// the stage's real, idle calendar would. Pure: touches no real calendar,
/// so it can run speculatively (fast path) or retroactively
/// (rebuilding a memoized plan's ops at its original base).
///
/// **Translation invariance.** Every quantity in the plan is an offset
/// from `now` composed with `max` and saturating add; the one subtraction
/// (the cut-through `floor`) saturates at zero only when its true value is
/// negative, and `earliest = max(tw, floor)` with `tw ≥ now` then ignores
/// it either way. Hence `compute_plan(stages, metas, b)` equals
/// `compute_plan(stages, metas, 0)` shifted by `b` — including the `None`
/// refusals, whose wall-monotonicity comparisons are between same-base
/// offsets. This is what makes whole-transfer memoization exact: a plan
/// summary cached at one instant replays bit-identically at any other.
fn compute_plan(stages: &[Stage], metas: &[ChunkMeta], now: SimTime) -> Option<PlanOut> {
    thread_local! {
        /// One per thread: a plan is computed start to finish without
        /// yielding, so every pipeline of the thread can share it.
        static SCRATCH: RefCell<PlanScratch> = RefCell::default();
    }
    SCRATCH.with_borrow_mut(|scratch| plan_on(stages, metas, now, scratch))
}

/// [`compute_plan`] on `scratch`'s calendars.
fn plan_on(
    stages: &[Stage],
    metas: &[ChunkMeta],
    now: SimTime,
    scratch: &mut PlanScratch,
) -> Option<PlanOut> {
    let nstages = stages.len();
    let PlanScratch { cals, last_wall } = scratch;
    cals.resize_with(nstages, Calendar::default);
    last_wall.resize(nstages, SimTime::ZERO);
    // Stage `s`'s booking of chunk `c`'s block, as a real pipe's. Chunk 0
    // starts each stage's calendar over, empty of the last plan.
    let mut book = |s: usize, c: usize, earliest: SimTime, block: SimDuration| {
        let dur = block.max(MIN_OCCUPANCY);
        let start = if c == 0 {
            cals[s].book_afresh(earliest, dur)
        } else {
            cals[s].book(now, earliest, dur)
        };
        (start, start + dur)
    };
    let mut ops: Vec<PlanOp> = Vec::with_capacity(metas.len() * nstages);
    let mut completion = now;
    let mut coalesced: u64 = 0;
    let mut w_main = now;
    // Arm instant of the sleep currently driving the pacing loop; the
    // creation instant stands in before the first pacing sleep.
    let mut arm_main = now;
    for (c, &meta) in metas.iter().enumerate() {
        if c > 0 && w_main <= last_wall[0] {
            return None;
        }
        let hop0 = Hop::enter(&stages[0], meta, w_main, |at, block| book(0, c, at, block));
        last_wall[0] = w_main;
        ops.push(PlanOp {
            wall: w_main,
            arm: arm_main,
            start: hop0.start,
            end: hop0.end,
        });
        coalesced += 1; // the chunk task spawn
        let mut tw = w_main;
        // The chunk task is polled inside the pacing loop's drive
        // segment, so until its first own sleep it is ordered by the
        // pacing loop's driving timer.
        let mut arm_task = arm_main;
        let mut hop = hop0;
        for (s, stage) in stages.iter().enumerate().skip(1) {
            let by_start = hop.by_start();
            if by_start > tw {
                arm_task = tw;
                tw = by_start;
                coalesced += 1; // the by_start sleep
            }
            if c > 0 && tw <= last_wall[s] {
                return None;
            }
            hop = hop.step(stage, meta, tw, |at, block| book(s, c, at, block));
            last_wall[s] = tw;
            ops.push(PlanOp {
                wall: tw,
                arm: arm_task,
                start: hop.start,
                end: hop.end,
            });
        }
        let exit = hop.exit();
        if exit > tw {
            tw = exit;
            coalesced += 1; // the exit sleep
        }
        completion = completion.max(tw);
        if c + 1 < metas.len() && hop0.end > w_main {
            arm_main = w_main;
            w_main = hop0.end;
            coalesced += 1; // the pacing sleep in the main loop
        }
    }
    Some(PlanOut {
        ops,
        completion,
        coalesced,
    })
}

/// A speculated cut-through traversal: the full reservation plan the
/// per-segment walk *would* execute, computed up front, plus enough state
/// to lazily materialize or abandon it.
///
/// While active, real calendars deliberately lag the plan: only chunk 0's
/// stage-0 reservation is booked. The first competing reservation on a
/// stage pipe goes through [`Pipe::demote_speculation`], which replays the
/// plan's prefix up to the present before it books.
struct Speculation {
    sim: Sim,
    stages: Rc<[Stage]>,
    metas: Rc<[ChunkMeta]>,
    /// Chunk-major plan: `ops[c * stages.len() + s]`. Empty on a memo hit —
    /// the cached summary carries everything an undisturbed traversal
    /// needs, and [`Speculation::ensure_ops`] rebuilds the full plan only
    /// if the window is demoted.
    ops: RefCell<Vec<PlanOp>>,
    /// The traversal's entry instant — the base every plan offset is
    /// relative to, and the `now` a deferred [`compute_plan`] rebuild
    /// must run at.
    base: SimTime,
    /// Predicted completion — exact unless demoted, a lower bound if so.
    completion: SimTime,
    /// Scheduling events (sleeps + spawns) the plan avoids, minus the one
    /// completion sleep the fast path still takes.
    coalesced: u64,
    /// The cache this traversal was served from (or inserted into): a
    /// demotion means the cached outcome is no longer trustworthy for the
    /// occupancy class it was keyed under, so the entry is evicted.
    memo: Option<(MemoCache, MemoKey)>,
    /// The continuation tasks of a demoted speculation, which finish the
    /// walk live; the owning transfer future waits for them. Empty while
    /// the prediction holds.
    rest: OnceCell<TaskGroup>,
}

impl Speculation {
    fn op(&self, c: usize, s: usize) -> PlanOp {
        self.ops.borrow()[c * self.stages.len() + s]
    }

    /// Rebuild the op vector of a memo-hit speculation on first demand.
    /// [`compute_plan`] is pure and translation-invariant, so replaying it
    /// at this speculation's own `base` reproduces the exact plan the
    /// original miss computed — the cached summary quantities double as a
    /// cross-check.
    fn ensure_ops(&self) {
        if !self.ops.borrow().is_empty() {
            return;
        }
        let plan = compute_plan(&self.stages, &self.metas, self.base)
            .expect("memoized plan must recompute at its own base");
        debug_assert_eq!(plan.completion, self.completion);
        debug_assert_eq!(plan.coalesced.saturating_sub(1), self.coalesced);
        *self.ops.borrow_mut() = plan.ops;
    }

    /// Would the walk's reservation behind `op` already have executed, as
    /// seen from the currently running event? Strictly-past walls: yes.
    /// Walls at exactly `now`: only if the walk's driving timer was armed
    /// strictly before the one that fired most recently — at equal
    /// deadlines the earlier-armed timer fires first, and the current
    /// event runs within the drive segment of that last firing.
    fn op_due(&self, op: &PlanOp, now: SimTime) -> bool {
        if op.wall < now {
            return true;
        }
        if op.wall > now {
            return false;
        }
        matches!(
            self.sim.last_fired_timer(),
            Some((deadline, armed)) if deadline == now && op.arm < armed
        )
    }

    /// Write the planned reservations on stage `s` from chunk `done` on
    /// that are due into the real calendar, in plan order (which the
    /// strict-wall guard made equal to wall order). Returns how many of the
    /// stage's chunks the real calendar now holds.
    fn materialize_due(&self, s: usize, done: usize, now: SimTime) -> usize {
        let mut c = done;
        while c < self.metas.len() && self.op_due(&self.op(c, s), now) {
            c += 1;
        }
        let mut cal = self.stages[s].pipe.state.calendar.borrow_mut();
        for k in done..c {
            let op = self.op(k, s);
            cal.insert(op.start, op.end);
        }
        c
    }

    /// Clear this speculation's registration from one pipe (leaving any
    /// unrelated or newer registration alone).
    fn unregister(self: &Rc<Self>, pipe: &Pipe) {
        let mut slot = pipe.state.spec.borrow_mut();
        let ours = match slot.as_ref() {
            Some(w) => match w.upgrade() {
                Some(sp) => Rc::ptr_eq(&sp, self),
                None => true,
            },
            None => false,
        };
        if ours {
            *slot = None;
        }
    }

    /// The prediction held to the end: unregister. No calendar writes —
    /// every planned interval now lies in the past, where it can never
    /// influence a first-fit placement again (the walk's own intervals
    /// would be pruned at the next reserve anyway).
    fn commit(self: &Rc<Self>) {
        for stage in self.stages.iter() {
            self.unregister(&stage.pipe);
        }
    }

    /// A competing reservation is about to land: abandon the prediction
    /// and hand the rest of the traversal back to the per-segment walk,
    /// reconstructed exactly where the lazy run would be right now —
    /// due reservations materialized, one continuation task per in-flight
    /// chunk (each parked where its walk task would be parked, on a sleep
    /// ranked among equal deadlines where the walk armed it), and a
    /// resumed pacing loop for chunks that have not entered stage 0.
    fn demote(self: &Rc<Self>) {
        self.sim.note_slow_path_fall();
        // The cached outcome assumed an undisturbed window; mid-window
        // contention invalidates it for this fingerprint.
        if let Some((cache, key)) = &self.memo {
            if cache.borrow_mut().remove(key).is_some() {
                self.sim.note_memo_eviction();
            }
        }
        self.ensure_ops();
        // Unregister everywhere first: the continuations below re-enter
        // `reserve_service`, which must not demote us again.
        for stage in self.stages.iter() {
            self.unregister(&stage.pipe);
        }
        let now = self.sim.now();
        let nstages = self.stages.len();
        // Per stage, the chunks the real calendar holds. Until now the only
        // real booking was `speculate`'s: chunk 0 on stage 0.
        let mat: Vec<usize> = (0..nstages)
            .map(|s| self.materialize_due(s, usize::from(s == 0), now))
            .collect();
        let started = mat[0];
        let rest = TaskGroup::new();
        for (c, &meta) in self.metas[..started].iter().enumerate() {
            // Stages already holding this chunk's reservation are exactly
            // the ones `materialize_due` wrote — due-ness is monotone down
            // the stage chain (walls are non-decreasing, and equal walls
            // share a driving timer), so the done set is a prefix.
            let mut done = 1;
            while done < nstages && c < mat[done] {
                done += 1;
            }
            let prev_op = self.op(c, done - 1);
            let hop = Hop::held(&self.stages[done - 1], meta, (prev_op.start, prev_op.end));
            if done == nstages {
                // Fully reserved; only the exit sleep remains, armed at the
                // last reservation's wall.
                rest.spawn(
                    &self.sim,
                    self.sim.sleep_until_armed_at(hop.exit(), prev_op.wall),
                );
            } else {
                // Parked until the next stage's planned wall.
                let next = self.op(c, done);
                let wait = self.sim.sleep_until_armed_at(next.wall, next.arm);
                let walk = chunk_walk(self.sim.clone(), Rc::clone(&self.stages), done, hop, meta);
                rest.spawn(&self.sim, async move {
                    wait.await;
                    walk.await;
                });
            }
        }
        if started < self.metas.len() {
            let spec = Rc::clone(self);
            rest.spawn(&self.sim, async move {
                spec.resume_main(started).await;
            });
        }
        assert!(self.rest.set(rest).is_ok(), "a speculation demotes once");
    }

    /// Continue the pacing loop for chunks that had not yet entered
    /// stage 0. The lazy loop would be parked waiting for the last started
    /// chunk to clear stage 0: the next chunk's planned wall.
    async fn resume_main(&self, started: usize) {
        let next = self.op(started, 0);
        self.sim.sleep_until_armed_at(next.wall, next.arm).await;
        pace_chunks(&self.sim, &self.stages, &self.metas[started..]).await;
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of_val;

    use super::*;
    use crate::sync::join_all;
    use crate::Tier;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn gbps(n: u64) -> ByteRate {
        ByteRate::from_gbps(n)
    }

    /// Every block of a contended long message is one walk task; its size
    /// is bounded beside the other per-message futures in the root
    /// `tests/future_sizes.rs`.
    #[test]
    fn a_chunk_walk_stores_its_arguments_once() {
        let sim = Sim::new();
        let stage = Stage::new(Pipe::new(&sim, gbps(10), SimDuration::ZERO), us(1));
        let meta = ChunkMeta {
            csegs: 8,
            cwire: b(8 * 1500),
            seg_wire: b(1500),
        };
        let t = SimTime::ZERO;
        let hop = Hop {
            start: t,
            end: t,
            seg: us(1),
            lat: us(1),
        };
        let walk = chunk_walk(sim, vec![stage].into(), 1, hop, meta);
        // Was 240 B, with the arguments kept as upvars and again as locals.
        assert!(size_of_val(&walk) <= 152, "{} B", size_of_val(&walk));
    }

    /// A pipe is its calendar, its rates and one speculation slot.
    #[test]
    fn a_pipe_holds_its_calendar_and_speculation_slot_only() {
        assert!(
            std::mem::size_of::<PipeState>() <= 88,
            "a pipe grew to {} bytes",
            std::mem::size_of::<PipeState>()
        );
    }

    /// A speculation is its plan and, once demoted, the group of tasks
    /// finishing it. Was 160 B, with a phase flag and a parked waiter.
    #[test]
    fn a_speculation_holds_its_plan_and_continuations_only() {
        assert!(
            std::mem::size_of::<Speculation>() <= 128,
            "a speculation grew to {} bytes",
            std::mem::size_of::<Speculation>()
        );
    }

    #[test]
    fn pipe_serializes_back_to_back() {
        let sim = Sim::new();
        // 1 GB/s → 1000 bytes take 1 µs.
        let pipe = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let p = pipe;
        let s = sim.clone();
        sim.block_on(async move {
            p.transfer(b(1000)).await;
            assert_eq!(s.now().as_nanos(), 1_000);
            p.transfer(b(1000)).await;
            assert_eq!(s.now().as_nanos(), 2_000);
        });
    }

    #[test]
    fn pipe_fifo_under_contention() {
        let sim = Sim::new();
        let pipe = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let p = pipe.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                p.transfer(b(500)).await;
                s.now().as_nanos()
            }));
        }
        let ends = sim.block_on(async move { join_all(handles).await });
        // Three 0.5 µs transfers complete at 0.5, 1.0, 1.5 µs.
        assert_eq!(ends, vec![500, 1_000, 1_500]);
    }

    #[test]
    fn pipe_overhead_charged_per_transfer() {
        let sim = Sim::new();
        let p = Pipe::new(&sim, gbps(8), SimDuration::from_nanos(200));
        let s = sim.clone();
        sim.block_on(async move {
            p.transfer(b(100)).await; // 200 + 100 ns
            assert_eq!(s.now().as_nanos(), 300);
        });
    }

    #[test]
    fn pipeline_single_segment_sums_stage_times() {
        let sim = Sim::new();
        let a = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let b = Pipe::new(&sim, gbps(16), SimDuration::ZERO);
        let pl = Pipeline::new(
            &sim,
            vec![Stage::new(a, us(1)), Stage::new(b, SimDuration::ZERO)],
            Bytes::new(1500),
        );
        let s = sim.clone();
        sim.block_on(async move {
            pl.transfer(Bytes::new(1000), Bytes::ZERO).await;
            // 1000ns (stage a) + 1000ns latency + 500ns (stage b)
            assert_eq!(s.now().as_nanos(), 2_500);
        });
    }

    #[test]
    fn pipeline_long_message_is_bottleneck_limited() {
        let sim = Sim::new();
        let fast = Pipe::new(&sim, gbps(16), SimDuration::ZERO);
        let slow = Pipe::new(&sim, gbps(8), SimDuration::ZERO); // bottleneck
        let pl = Pipeline::new(
            &sim,
            vec![
                Stage::new(fast, SimDuration::ZERO),
                Stage::new(slow, SimDuration::ZERO),
            ],
            b(1000),
        );
        let s = sim.clone();
        sim.block_on(async move {
            // 80 segments of 1000B move as ten 8-segment cut-through
            // chunks: the first segment exits the fast stage at 500 ns and
            // the remaining 80 drain at the bottleneck rate — the ideal
            // wormhole-pipelined completion time.
            pl.transfer(b(80_000), Bytes::ZERO).await;
            assert_eq!(s.now().as_nanos(), 500 + 80 * 1_000);
        });
        let eff = 80_000.0 / sim.now().as_secs_f64() / 1e9;
        assert!(eff > 0.90 && eff < 1.0, "effective {eff} GB/s");
    }

    #[test]
    fn pipeline_short_message_pipelines_at_segment_granularity() {
        // At or below one pacing chunk, segments overlap stages exactly.
        let sim = Sim::new();
        let fast = Pipe::new(&sim, gbps(16), SimDuration::ZERO);
        let slow = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let pl = Pipeline::new(
            &sim,
            vec![
                Stage::new(fast, SimDuration::ZERO),
                Stage::new(slow, SimDuration::ZERO),
            ],
            b(1000),
        );
        let s = sim.clone();
        sim.block_on(async move {
            // 8 segments: first exits at 500+1000; the rest drain at the
            // bottleneck (1000 ns each).
            pl.transfer(b(8_000), Bytes::ZERO).await;
            assert_eq!(s.now().as_nanos(), 1_500 + 7 * 1_000);
        });
    }

    #[test]
    fn pipeline_cross_connection_overlap() {
        // Two connections share a 3-stage pipeline. Ping-pongs on one
        // connection leave stages idle; with both connections active the
        // aggregate completes in less than 2x the single-connection time.
        let sim = Sim::new();
        let stages: Vec<Stage> = (0..3)
            .map(|_| Stage::new(Pipe::new(&sim, gbps(8), us(1)), SimDuration::ZERO))
            .collect();
        let pl = Pipeline::new(&sim, stages, b(1500));

        // Serial: two messages one after the other.
        let serial = {
            let sim2 = Sim::new();
            let stages: Vec<Stage> = (0..3)
                .map(|_| Stage::new(Pipe::new(&sim2, gbps(8), us(1)), SimDuration::ZERO))
                .collect();
            let pl2 = Pipeline::new(&sim2, stages, pl.segment_size());
            let s = sim2.clone();
            sim2.block_on(async move {
                pl2.transfer(b(1000), Bytes::ZERO).await;
                pl2.transfer(b(1000), Bytes::ZERO).await;
                s.now()
            })
        };

        // Overlapped: both messages enter together.
        let h1 = {
            let pl = pl.clone();
            sim.spawn(async move { pl.transfer(b(1000), Bytes::ZERO).await })
        };
        let h2 = { sim.spawn(async move { pl.transfer(b(1000), Bytes::ZERO).await }) };
        sim.block_on(async move {
            join_all(vec![h1, h2]).await;
        });
        let overlapped = sim.now();
        assert!(
            overlapped < serial,
            "overlap {overlapped} should beat serial {serial}"
        );
    }

    #[test]
    fn pipeline_per_segment_overhead_inflates_wire_time() {
        let sim = Sim::new();
        let pipe = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let pl = Pipeline::new(&sim, vec![Stage::new(pipe, SimDuration::ZERO)], b(1000));
        let s = sim.clone();
        sim.block_on(async move {
            // 2 segments x (1000 payload + 100 header) = 2200 ns.
            pl.transfer(b(2000), b(100)).await;
            assert_eq!(s.now().as_nanos(), 2_200);
        });
    }

    /// A 3-stage pipeline with asymmetric rates, overheads, and
    /// inter-stage latencies — awkward enough that any arithmetic drift
    /// between the closed-form replay and the walk shows up.
    fn crooked_pipeline(sim: &Sim) -> Pipeline {
        let a = Pipe::new(
            sim,
            ByteRate::from_bytes_per_sec(1_700_000_000),
            SimDuration::from_nanos(37),
        );
        let b = Pipe::new(
            sim,
            ByteRate::from_bytes_per_sec(900_000_000),
            SimDuration::from_nanos(11),
        );
        let c = Pipe::new(
            sim,
            ByteRate::from_bytes_per_sec(2_300_000_000),
            SimDuration::ZERO,
        );
        Pipeline::new(
            sim,
            vec![
                Stage::new(a, SimDuration::from_nanos(713)),
                Stage::new(b, SimDuration::ZERO),
                Stage::new(c, SimDuration::from_nanos(92)),
            ],
            Bytes::new(1464),
        )
    }

    /// What the tiers must agree on: each transfer's completion time, then
    /// the end time.
    fn observe(mut completions: Vec<u64>, end: SimTime) -> Vec<u64> {
        completions.push(end.as_nanos());
        completions
    }

    #[test]
    fn fast_path_commits_when_uncontended() {
        let sim = Sim::new();
        let fast = Pipe::new(&sim, gbps(16), SimDuration::ZERO);
        let slow = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let pl = Pipeline::new(
            &sim,
            vec![
                Stage::new(fast, SimDuration::ZERO),
                Stage::new(slow, SimDuration::ZERO),
            ],
            b(1000),
        );
        let s = sim.clone();
        sim.block_on(async move {
            pl.transfer(b(80_000), Bytes::ZERO).await;
            // Same pinned wormhole completion the per-segment walk gives.
            assert_eq!(s.now().as_nanos(), 500 + 80 * 1_000);
        });
        let st = sim.stats();
        assert_eq!(st.fast_path_hits, 1);
        assert_eq!(st.slow_path_falls, 0);
        assert!(st.events_coalesced > 0, "stats: {st:?}");
    }

    #[test]
    fn fast_path_matches_walk_exactly_uncontended() {
        let run = |enable: bool| {
            let sim = Sim::new();
            sim.set_fast_path(enable);
            let pl = crooked_pipeline(&sim);
            let s = sim.clone();
            sim.block_on(async move {
                pl.transfer(b(123_456), b(40)).await;
                observe(Vec::new(), s.now())
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn demoted_fast_path_matches_walk() {
        // A second message enters the shared pipeline mid-traversal of the
        // first; with the fast path on, the first message's speculation
        // must demote and finish on the live walk with identical timing.
        let run = |enable: bool| {
            let sim = Sim::new();
            sim.set_fast_path(enable);
            let pl = crooked_pipeline(&sim);
            let pa = pl.clone();
            let pb = pl;
            let sa = sim.clone();
            let sb = sim.clone();
            let h1 = sim.spawn(async move {
                pa.transfer(b(200_000), Bytes::ZERO).await;
                sa.now().as_nanos()
            });
            let h2 = sim.spawn(async move {
                sb.sleep(SimDuration::from_micros(30)).await;
                pb.transfer(b(64_000), Bytes::ZERO).await;
                sb.now().as_nanos()
            });
            let ends = sim.block_on(async move { join_all(vec![h1, h2]).await });
            (observe(ends, sim.now()), sim.stats().slow_path_falls)
        };
        let (on, falls_on) = run(true);
        let (off, _) = run(false);
        assert_eq!(on, off);
        assert!(falls_on > 0, "second message should demote the first");
    }

    #[test]
    fn a_reservation_on_any_stage_demotes_where_the_walk_would_be() {
        // 40 µs into a 300 KB transfer, a 1-byte reservation lands on one
        // stage's pipe: the first, a middle or the last. The fast path
        // must demote and book it exactly where the walk does; the memo
        // run replays a primed plan and must rebuild the same ops.
        for stage in 0..3 {
            let run = |tier: Tier| {
                let sim = Sim::new();
                sim.set_fast_path(tier != Tier::Walk);
                sim.set_transfer_memo(tier == Tier::Memo);
                let pl = crooked_pipeline(&sim);
                let pipe = pl.stages()[stage].pipe.clone();
                let s = sim.clone();
                let v = sim.block_on(async move {
                    pl.transfer(b(300_000), b(20)).await; // primes the memo
                    let (pt, st) = (pl.clone(), s.clone());
                    let h = s.spawn(async move {
                        pt.transfer(b(300_000), b(20)).await;
                        st.now()
                    });
                    s.sleep(us(40)).await;
                    let (start, end) = pipe.reserve(s.now(), b(1));
                    let done = h.await;
                    vec![start.as_nanos(), end.as_nanos(), done.as_nanos()]
                });
                (v, sim.stats())
            };
            let (walk, _) = run(Tier::Walk);
            let (fast, st_fast) = run(Tier::Fast);
            let (memo, st_memo) = run(Tier::Memo);
            assert_eq!(fast, walk, "stage {stage}: fast path");
            assert_eq!(memo, walk, "stage {stage}: memo");
            assert_eq!(st_fast.slow_path_falls, 1, "stage {stage}: {st_fast:?}");
            assert_eq!(st_memo.memo_hits, 1, "stage {stage}: {st_memo:?}");
            assert_eq!(st_memo.slow_path_falls, 1, "stage {stage}: {st_memo:?}");
        }
    }

    #[test]
    fn a_demotion_that_delays_nothing_spawns_only_the_walks_tasks() {
        // 80 segments of 1000 B: ten chunks, entering the 2 GB/s stage 0
        // every 4 µs and draining at 1 GB/s on stage 1. At 10 µs chunks
        // 0-2 have entered stage 0; a 1-byte booking on stage 1 far past
        // the transfer's end demotes the speculation without moving it.
        let run = |tier: Tier| {
            let sim = Sim::new();
            sim.set_fast_path(tier != Tier::Walk);
            let fast = Pipe::new(&sim, gbps(16), SimDuration::ZERO);
            let slow = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
            let pl = Pipeline::new(
                &sim,
                vec![
                    Stage::new(fast, SimDuration::ZERO),
                    Stage::new(slow.clone(), SimDuration::ZERO),
                ],
                b(1000),
            );
            let s = sim.clone();
            let (done, spawned) = sim.block_on(async move {
                let st = s.clone();
                let h = s.spawn(async move {
                    pl.transfer(b(80_000), Bytes::ZERO).await;
                    st.now()
                });
                s.sleep(us(10)).await;
                let before = s.stats().spawns;
                slow.reserve(s.now() + us(1_000), b(1));
                let spawned = s.stats().spawns - before;
                (h.await, spawned)
            });
            (done.as_nanos(), spawned, sim.stats())
        };
        let (walk, _, _) = run(Tier::Walk);
        let (fast, spawned, st) = run(Tier::Fast);
        assert_eq!(walk, 500 + 80 * 1_000);
        assert_eq!(fast, walk);
        assert_eq!(st.slow_path_falls, 1, "{st:?}");
        assert_eq!(st.fast_path_hits, 0, "{st:?}");
        // One continuation per chunk that has entered stage 0, and one
        // resumed pacing loop for the seven that have not: the owner
        // waits for them itself.
        assert_eq!(spawned, 3 + 1);
    }

    #[test]
    fn memo_hit_replays_bit_identically() {
        // Steady state: the same message shape back to back. The second
        // transfer must hit the memo and still produce exactly the
        // observables of a memo-off run.
        let run = |memo: bool| {
            let sim = Sim::new();
            sim.set_transfer_memo(memo);
            let pl = crooked_pipeline(&sim);
            let s = sim.clone();
            let obs = sim.block_on(async move {
                for _ in 0..4 {
                    pl.transfer(b(123_456), b(40)).await;
                }
                observe(Vec::new(), s.now())
            });
            (obs, sim.stats())
        };
        let (on, st_on) = run(true);
        let (off, st_off) = run(false);
        assert_eq!(on, off);
        assert_eq!(st_on.memo_misses, 1, "stats: {st_on:?}");
        assert_eq!(st_on.memo_hits, 3, "stats: {st_on:?}");
        assert_eq!(
            st_off.memo_hits + st_off.memo_misses,
            0,
            "stats: {st_off:?}"
        );
        // Hit or miss, the traversal still completes on one coalesced event.
        assert_eq!(st_on.fast_path_hits, 4);
        assert_eq!(st_on.timer_events, st_off.timer_events);
    }

    #[test]
    fn demotion_evicts_memo_entry_and_matches_walk() {
        // Prime the cache with an uncontended transfer, then replay the
        // same shape into a window a competitor disturbs: the replayed
        // speculation must demote, evict its entry, and finish with the
        // walk's exact observables.
        let run = |memo: bool| {
            let sim = Sim::new();
            sim.set_transfer_memo(memo);
            let pl = crooked_pipeline(&sim);
            let pa = pl.clone();
            let pb = pl;
            let sa = sim.clone();
            let sb = sim.clone();
            let h1 = sim.spawn(async move {
                pa.transfer(b(200_000), Bytes::ZERO).await; // primes the memo
                pa.transfer(b(200_000), Bytes::ZERO).await; // memo hit, then demoted
                sa.now().as_nanos()
            });
            let h2 = sim.spawn(async move {
                // Lands mid-window of the *second* (memoized) transfer:
                // the first 200 kB transfer drains at the ~0.9 GB/s
                // bottleneck in ~225 µs, so 250 µs is inside [~225, ~450].
                sb.sleep(SimDuration::from_micros(250)).await;
                pb.transfer(b(64_000), Bytes::ZERO).await;
                sb.now().as_nanos()
            });
            let ends = sim.block_on(async move { join_all(vec![h1, h2]).await });
            (observe(ends, sim.now()), sim.stats())
        };
        let (on, st_on) = run(true);
        let (off, st_off) = run(false);
        assert_eq!(on, off);
        assert!(st_on.memo_hits >= 1, "stats: {st_on:?}");
        assert!(st_on.memo_evictions >= 1, "stats: {st_on:?}");
        assert_eq!(st_on.slow_path_falls, st_off.slow_path_falls);
        assert!(st_on.slow_path_falls > 0, "competitor should demote");
    }

    #[test]
    fn memo_capacity_cap_evicts_oldest() {
        let sim = Sim::new();
        sim.set_transfer_memo(true);
        let pl = crooked_pipeline(&sim);
        let pl2 = pl;
        let s = sim.clone();
        sim.block_on(async move {
            // More distinct multi-chunk shapes than MEMO_CAPACITY (sizes
            // all above one 8-segment pacing chunk, so every transfer is
            // memo-eligible): each is a miss and the overflow evicts the
            // oldest key.
            for i in 0..(MEMO_CAPACITY as u64 + 8) {
                pl2.transfer(b(30_000 + i * 971), Bytes::ZERO).await;
            }
            let _ = &s;
        });
        let st = sim.stats();
        assert_eq!(st.memo_hits, 0, "stats: {st:?}");
        assert_eq!(st.memo_misses, MEMO_CAPACITY as u64 + 8);
        assert_eq!(st.memo_evictions, 8);
    }

    #[test]
    fn calendar_peak_len_is_tracked() {
        let sim = Sim::new();
        let pipe = Pipe::new(&sim, gbps(8), SimDuration::ZERO);
        let p = pipe;
        sim.block_on(async move {
            p.transfer(b(1000)).await;
        });
        assert!(sim.stats().calendar_peak_len >= 1);
    }

    #[test]
    fn zero_byte_message_still_occupies_one_segment_slot() {
        let sim = Sim::new();
        let pipe = Pipe::new(&sim, gbps(8), SimDuration::from_nanos(40));
        let pl = Pipeline::new(&sim, vec![Stage::new(pipe, SimDuration::ZERO)], b(1000));
        let s = sim.clone();
        sim.block_on(async move {
            pl.transfer(Bytes::ZERO, b(60)).await; // one segment of pure header
            assert_eq!(s.now().as_nanos(), 100);
        });
    }
}
