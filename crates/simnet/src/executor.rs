//! The deterministic single-threaded executor and virtual clock.
//!
//! [`Sim`] is a cheaply-clonable handle to the simulation core. Components
//! capture a clone; every clone sees the same clock, run queue and timer
//! queue. The executor is strictly single-threaded: tasks are `!Send`
//! futures, and determinism follows from (a) a FIFO ready queue, (b) a timer
//! queue totally ordered by `(deadline, arm instant, registration
//! sequence)` (see [`crate::timers`]), and (c) the absence of any other
//! event source.
//!
//! ## Waking by slab id
//!
//! Every poll gets [`Waker::noop`]. A future that parks its task records
//! the task itself: a [`Sleep`] stores the polling task's slab id in its
//! timer slot, and the `sync` primitives, the shard inbox and
//! [`JoinHandle`] store a `TaskHandle` (the task's core and id). A wake
//! is `Core::wake_task` on that id. A future that parks
//! on `cx.waker()` instead is never woken; [`Sim::block_on`] then panics
//! with a deadlock that names it.
//!
//! ## Allocation-free steady state
//!
//! The hot path — poll a task, arm a timer, fire it, wake the task — does
//! not allocate once the simulation has warmed up:
//!
//! * tasks live in a **generational slab** (`Vec` + intrusive free list),
//!   so a task lookup is an index, not a hash, and completed slots are
//!   recycled with a bumped generation that invalidates stale wakes; a
//!   slot holds the boxed future and the task's flags, nothing else;
//! * each task carries a **`scheduled` flag**, so redundant wakes coalesce:
//!   a task already in the ready queue is never pushed (or polled) twice;
//! * timer slots live in a second generational slab instead of per-sleep
//!   `Rc<RefCell<_>>` allocations, and the timer queue is threaded through
//!   them; a dropped [`Sleep`] cancels **lazily** — the slot is reclaimed
//!   when the queue pops it;
//! * a wake is a slab lookup, a flag test and a push on the one FIFO
//!   `run_queue`: no refcount, lock or atomic between a deadline or a
//!   send and the poll it causes;
//! * timers fire **one queue entry per drain cycle**, even when several
//!   share an instant: each sleeper's continuation runs to exhaustion before
//!   the next timer fires.
//!
//! Event/poll/wake counters for all of the above are exposed through
//! [`Sim::stats`].

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::stats::SimStats;
use crate::tier::Tier;
use crate::time::{SimDuration, SimTime};
use crate::timers::{Popped, TimerKey, TimerQueue};

/// A spawned future as the task slab holds it: boxed as-is, its output
/// type erased. A wrapper future (`async move { tx.send(fut.await) }`)
/// would store `fut` twice — once as the wrapper's capture, once as the
/// value it awaits — so the output is handed over here instead.
trait Task {
    /// Poll the future in place. Once it is ready, move its output into
    /// `joiner` (if it wants one) and return `Ready`.
    fn poll_task(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        joiner: Option<&dyn Joiner>,
    ) -> Poll<()>;

    /// The future's type, for the deadlock diagnostic. A vtable entry,
    /// so naming a task costs no bytes per task.
    fn name(&self) -> &'static str;
}

impl<F: Future> Task for F
where
    F::Output: 'static,
{
    fn poll_task(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        joiner: Option<&dyn Joiner>,
    ) -> Poll<()> {
        let Poll::Ready(out) = self.poll(cx) else {
            return Poll::Pending;
        };
        if let Some(j) = joiner {
            j.store(&mut Some(out));
        }
        Poll::Ready(())
    }

    fn name(&self) -> &'static str {
        std::any::type_name::<F>()
    }
}

/// Who hears about a finished task: a [`JoinHandle`]'s slot or a
/// [`TaskGroup`](crate::sync::TaskGroup).
pub(crate) trait Joiner {
    /// Take the task's output from `out`, an `Option<F::Output>`. The
    /// default discards it.
    fn store(&self, _out: &mut dyn Any) {}

    /// The task's future returned and has been dropped: wake whoever
    /// waits on it.
    fn finish(&self);
}

/// Slab address of a task: index plus an ABA-guarding generation. A wake
/// addressed to a completed (recycled) slot compares generations and is
/// dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TaskId {
    index: u32,
    gen: u32,
}

thread_local! {
    /// The core this thread is driving: set by each drive loop for its
    /// duration and restored after it, so a drive nested in a poll (of
    /// another `Sim`, or re-entrant) sees its own.
    static CURRENT: RefCell<Option<Rc<RefCell<Core>>>> = const { RefCell::new(None) };
}

/// A parked task, as the primitive that parks it records it: its `Sim`'s
/// core and its slab id. [`TaskHandle::wake`] queues the task on that
/// core, exactly where a wake at this point of the run belongs. The core
/// is held weakly: a primitive that outlives its simulation, or a parked
/// task that holds the primitive, does not keep the core alive.
#[derive(Clone)]
pub(crate) struct TaskHandle {
    core: Weak<RefCell<Core>>,
    id: TaskId,
}

impl TaskHandle {
    /// The task this thread is polling.
    ///
    /// # Panics
    ///
    /// Outside a poll by a [`Sim`]'s executor: a simnet primitive is
    /// awaited only by simnet tasks.
    pub(crate) fn current() -> Self {
        CURRENT.with_borrow(|current| {
            let core = current
                .as_ref()
                .expect("a simnet primitive was polled outside a Sim's executor");
            let id = core.borrow().polling_task();
            TaskHandle {
                core: Rc::downgrade(core),
                id,
            }
        })
    }

    /// Wake the task (see [`Core::wake_task`]); nothing if its simulation
    /// is gone.
    pub(crate) fn wake(&self) {
        if let Some(core) = self.core.upgrade() {
            core.borrow_mut().wake_task(self.id);
        }
    }
}

/// Makes `core` the thread's current one until dropped, then restores the
/// previous one (also on unwind).
struct CurrentCore(Option<Rc<RefCell<Core>>>);

impl CurrentCore {
    fn enter(core: &Rc<RefCell<Core>>) -> Self {
        CurrentCore(CURRENT.replace(Some(Rc::clone(core))))
    }
}

impl Drop for CurrentCore {
    fn drop(&mut self) {
        CURRENT.set(self.0.take());
    }
}

/// A task slab slot. `gen` survives vacancy so recycled slots invalidate
/// stale ids.
struct TaskSlot {
    gen: u32,
    state: TaskState,
}

enum TaskState {
    Vacant { next_free: Option<u32> },
    Occupied(TaskEntry),
}

struct TaskEntry {
    /// `None` while checked out for polling.
    body: Option<TaskBody>,
    /// Queued on `run_queue` and not yet polled: a further wake is
    /// redundant. Cleared immediately before each poll, so a wake that
    /// lands during the poll queues the task again.
    scheduled: bool,
    /// A ready-queue entry for this task was consumed while its body was
    /// checked out (re-entrant `drive`); re-enqueue after the poll returns.
    repoll: bool,
}

/// What a poll checks out of the task's slot and puts back.
struct TaskBody {
    fut: Pin<Box<dyn Task>>,
    /// Told when the future returns (`None` for a detached task).
    joiner: Option<Rc<dyn Joiner>>,
}

/// Outcome of one bounded timer-queue pop (see `Sim::pop_due_timer`).
enum TimerPop {
    /// Queue empty: no pending timers at all.
    Quiescent,
    /// Earliest queued timer is at or past the bound; nothing was popped.
    /// Carries that entry's deadline — the shard's next-event report.
    AtHorizon(SimTime),
    /// One entry was consumed (fired, or a cancelled slot reclaimed); a
    /// fired timer has queued its task.
    Fired,
}

struct Core {
    now: SimTime,
    /// Pending timers, each waking the task that last polled its sleep.
    timers: TimerQueue<TaskId>,
    tasks: Vec<TaskSlot>,
    task_free: Option<u32>,
    /// Runnable ids, polled FIFO: spawns, wakes and fired timers all push
    /// at the back.
    run_queue: VecDeque<TaskId>,
    /// The task being polled: whom a primitive polled now parks.
    polling: Option<TaskId>,
    /// The counters [`Sim::stats`] reports, bumped in place by the
    /// executor, `pipe`, `fault`, the fabric recovery engines and
    /// `netbench::workload`. Its `timers_pending` stays zero: `stats`
    /// counts the queued timers.
    stats: SimStats,
    /// Pipeline cut-through fast path (see `pipe`).
    fast_path_enabled: bool,
    /// Whole-transfer memoization (see `crate::memo` and `pipe`).
    transfer_memo_enabled: bool,
    /// `(deadline, armed)` of the most recently fired timer.
    last_fired: Option<(SimTime, SimTime)>,
    /// FNV-1a digest over `(deadline, seq)` of every fired timer, in firing
    /// order — the executor's event-ordering trace. Two runs of the same
    /// workload fire the same timer *set*; the digest differs iff the
    /// *order* did (e.g. under a perturbation salt).
    trace_digest: u64,
}

/// FNV-1a offset basis / prime (64-bit), shared with the figure digests in
/// the integration tests and the cross-shard merge trace.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a_u64(mut digest: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// Handle to the simulation: clock, spawner and executor in one.
///
/// Cloning is cheap (`Rc` bump). All clones refer to the same simulation.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sim@{}", self.now())
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at [`SimTime::ZERO`].
    ///
    /// Captures the thread's transfer tier ([`crate::tier::default_tier`])
    /// and schedule-perturbation salt (see
    /// [`crate::perturb::with_tie_break_salt`]); a nonzero salt permutes
    /// same-instant timer tie-breaks and disables the pipeline cut-through
    /// fast path whatever the tier (the fast path replays arm-order
    /// tie-breaks and so must not run under a perturbed schedule).
    pub fn new() -> Self {
        let tie_salt = crate::perturb::current_salt();
        let tier = crate::tier::default_tier();
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                timers: TimerQueue::new(tie_salt),
                tasks: Vec::new(),
                task_free: None,
                run_queue: VecDeque::new(),
                polling: None,
                stats: SimStats::default(),
                fast_path_enabled: tie_salt == 0 && tier != Tier::Walk,
                transfer_memo_enabled: tier == Tier::Memo,
                last_fired: None,
                trace_digest: FNV_OFFSET,
            })),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Snapshot of the executor's event/poll/wake counters.
    pub fn stats(&self) -> SimStats {
        let core = self.core.borrow();
        // `shards`, `lookahead_rounds` and `merge_queue_peak` describe a
        // sharded run as a whole: zero here, filled in by
        // `shard::ShardOutcome::stats`.
        SimStats {
            timers_pending: core.timers.len() as u64,
            ..core.stats
        }
    }

    /// Enable or disable the pipeline cut-through fast path (on unless the
    /// creating thread's default tier is [`Tier::Walk`] or a tie-break salt
    /// is set). Disabling forces every [`crate::Pipeline`] transfer down
    /// the per-segment walk; the differential tests run the same workload
    /// both ways and assert identical timing.
    pub fn set_fast_path(&self, enabled: bool) {
        self.core.borrow_mut().fast_path_enabled = enabled;
    }

    /// Whether the pipeline cut-through fast path is enabled.
    pub(crate) fn fast_path_enabled(&self) -> bool {
        self.core.borrow().fast_path_enabled
    }

    /// Record a committed cut-through traversal and the scheduling events
    /// (timer firings + task spawns) it avoided.
    pub(crate) fn note_fast_path_hit(&self, coalesced: u64) {
        let mut core = self.core.borrow_mut();
        core.stats.fast_path_hits += 1;
        core.stats.events_coalesced += coalesced;
    }

    /// Record a transfer that took (or was demoted to) the per-segment walk.
    pub(crate) fn note_slow_path_fall(&self) {
        self.core.borrow_mut().stats.slow_path_falls += 1;
    }

    /// Enable or disable the whole-transfer memo cache (see
    /// [`crate::memo`]). On when the creating thread's default tier
    /// ([`crate::tier::set_default_tier`]) is [`Tier::Memo`], as it is
    /// unless changed; captured at [`Sim::new`]. Disabling forces every
    /// fast-path transfer to recompute its closed-form plan — output is
    /// byte-identical either way, which ci.sh's `--tier fast` pin and
    /// `tests/transfer_diff.rs` assert.
    pub fn set_transfer_memo(&self, enabled: bool) {
        self.core.borrow_mut().transfer_memo_enabled = enabled;
    }

    /// Whether the whole-transfer memo cache is enabled.
    pub fn transfer_memo_enabled(&self) -> bool {
        self.core.borrow().transfer_memo_enabled
    }

    /// Record a transfer replayed from the memo cache (including cached
    /// "plan refused" outcomes that skip straight to the walk).
    pub(crate) fn note_memo_hit(&self) {
        self.core.borrow_mut().stats.memo_hits += 1;
    }

    /// Record a memo-eligible transfer whose fingerprint was not cached.
    pub(crate) fn note_memo_miss(&self) {
        self.core.borrow_mut().stats.memo_misses += 1;
    }

    /// Record a memo entry evicted — either by a mid-window demotion of a
    /// replayed transfer or by the capacity cap.
    pub(crate) fn note_memo_eviction(&self) {
        self.core.borrow_mut().stats.memo_evictions += 1;
    }

    /// Count one booking on a live pipe calendar, which now holds `len`
    /// intervals, and track the high-water mark of that length.
    pub(crate) fn note_booking(&self, len: u64) {
        let mut core = self.core.borrow_mut();
        core.stats.bookings += 1;
        if len > core.stats.calendar_peak_len {
            core.stats.calendar_peak_len = len;
        }
    }

    /// Record a unit a [`crate::fault::FaultPlane`] judged lost.
    pub(crate) fn note_fault_injected(&self) {
        self.core.borrow_mut().stats.faults_injected += 1;
    }

    /// Record `n` retransmitted units (segments, packets or messages,
    /// whatever granularity the fabric's recovery engine works in).
    pub fn note_retransmits(&self, n: u64) {
        self.core.borrow_mut().stats.retransmits += n;
    }

    /// Record one retransmission-timeout expiry (as opposed to a fast
    /// retransmit triggered by feedback such as dup-ACKs or NAKs).
    pub fn note_rto_fire(&self) {
        self.core.borrow_mut().stats.rto_fires += 1;
    }

    /// Record one cross-shard event delivered into this simulation through
    /// the sharded engine's merge channels (see [`crate::shard`]).
    pub(crate) fn note_cross_shard_event(&self) {
        self.core.borrow_mut().stats.cross_shard_events += 1;
    }

    /// Record one flow issued by an open-loop workload generator. Public
    /// because the workload engine (`netbench::workload`) drives the
    /// fabric data paths from outside `simnet`.
    pub fn note_flow_issued(&self) {
        self.core.borrow_mut().stats.flows_issued += 1;
    }

    /// Record one flow whose response (or final streaming byte) completed.
    /// At quiesce the `workload.conservation` oracle requires
    /// `flows_issued == flows_completed + in-flight`.
    pub fn note_flow_completed(&self) {
        self.core.borrow_mut().stats.flows_completed += 1;
    }

    /// Track the high-water mark of a workload generator's backlog (flows
    /// issued but not yet picked up by a service loop).
    pub fn note_gen_backlog(&self, depth: u64) {
        let mut core = self.core.borrow_mut();
        if depth > core.stats.gen_backlog_peak {
            core.stats.gen_backlog_peak = depth;
        }
    }

    /// `(deadline, armed)` of the most recently fired timer. At equal
    /// deadlines timers fire in arm order, so a speculated sleep armed
    /// strictly before this one would already have fired by now — the
    /// pipeline fast path consults this to replay same-instant ordering
    /// against sleeps it never actually armed.
    pub(crate) fn last_fired_timer(&self) -> Option<(SimTime, SimTime)> {
        self.core.borrow().last_fired
    }

    /// The schedule-perturbation salt this simulation was created under
    /// (0 = unperturbed arm-order tie-breaks).
    pub fn tie_break_salt(&self) -> u64 {
        self.core.borrow().timers.salt()
    }

    /// FNV-1a digest of the executor's event-ordering trace: every fired
    /// timer's `(deadline, arm-sequence)` pair, in firing order. Identical
    /// workloads produce identical digests; a perturbation salt that
    /// actually reordered a same-instant tie group produces a different
    /// one. See [`crate::perturb`].
    pub fn order_trace_digest(&self) -> u64 {
        self.core.borrow().trace_digest
    }

    /// Spawn a task whose output the returned [`JoinHandle`] yields. It
    /// will not run until the executor is driven, e.g. by [`Sim::block_on`].
    /// A caller that drops the handle wants [`Sim::spawn_detached`], which
    /// skips the result slot.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_handle(fut).0
    }

    /// [`Sim::spawn`], also returning the task's id.
    fn spawn_handle<F>(&self, fut: F) -> (JoinHandle<F::Output>, TaskId)
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let slot = Rc::new(JoinSlot {
            value: Cell::new(None),
            waiter: Cell::new(None),
        });
        let id = self.insert_task(Box::pin(fut), Some(Rc::clone(&slot) as Rc<dyn Joiner>));
        (JoinHandle { slot }, id)
    }

    /// Spawn a task nobody joins: the future is boxed as-is, with no
    /// result slot. Polled in spawn order with [`Sim::spawn`]'s tasks.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_joined(fut, None);
    }

    /// Box `fut` into a fresh task slot and queue it; `joiner` hears when
    /// it returns.
    pub(crate) fn spawn_joined<F>(&self, fut: F, joiner: Option<Rc<dyn Joiner>>)
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.insert_task(Box::pin(fut), joiner);
    }

    /// The part of a spawn that does not depend on the future's type, kept
    /// out of line so each spawned type adds only its boxing to the binary.
    /// The task is born scheduled, at the back of the run queue.
    #[inline(never)]
    fn insert_task(&self, fut: Pin<Box<dyn Task>>, joiner: Option<Rc<dyn Joiner>>) -> TaskId {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        core.stats.spawns += 1;
        core.stats.tasks_live += 1;
        core.stats.tasks_peak = core.stats.tasks_peak.max(core.stats.tasks_live);
        let index = match core.task_free {
            Some(i) => {
                let TaskState::Vacant { next_free } = core.tasks[i as usize].state else {
                    unreachable!("task free list points at occupied slot");
                };
                core.task_free = next_free;
                i
            }
            None => {
                core.tasks.push(TaskSlot {
                    gen: 0,
                    state: TaskState::Vacant { next_free: None },
                });
                u32::try_from(core.tasks.len() - 1).expect("task slab outgrew u32 indices")
            }
        };
        let slot = &mut core.tasks[index as usize];
        let id = TaskId {
            index,
            gen: slot.gen,
        };
        slot.state = TaskState::Occupied(TaskEntry {
            body: Some(TaskBody { fut, joiner }),
            scheduled: true,
            repoll: false,
        });
        core.run_queue.push_back(id);
        id
    }

    /// Sleep for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleep until the given virtual instant (completes immediately if it is
    /// already in the past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            at,
            key: None,
        }
    }

    /// A sleep until `at` (done at once if that is not in the future) that
    /// fires among equal deadlines as if it had been armed at `armed`, not
    /// after its first poll: a demoted pipeline speculation's continuation
    /// takes it in place of the sleep the walk armed back then, so it
    /// fires before any timer armed since, the demoting task's included.
    pub(crate) fn sleep_until_armed_at(&self, at: SimTime, armed: SimTime) -> SleepArmedAt {
        SleepArmedAt {
            sleep: self.sleep_until(at),
            armed,
        }
    }

    /// Yield to every other currently-runnable task once, without advancing
    /// time. Useful to model "post then immediately test" API patterns.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Drive the simulation until `fut` completes, then return its output.
    ///
    /// Background tasks that are still pending when `fut` completes are left
    /// in place (they resume if `block_on` is called again).
    ///
    /// # Panics
    ///
    /// Panics on deadlock: no runnable task, no pending timer, and `fut`
    /// still incomplete. In a deterministic simulation this is always a bug
    /// in the simulated protocol (or a future that parked on `cx.waker()`,
    /// which nothing wakes), so failing fast with a diagnostic that names
    /// every live task beats hanging.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let (handle, root) = self.spawn_handle(fut);
        let mut out = None;
        self.drive(|sim| {
            if let Some(v) = handle.try_take(sim) {
                out = Some(v);
                true
            } else {
                false
            }
        });
        match out {
            Some(v) => v,
            None => panic!(
                "simnet deadlock at {}: root task blocked with no runnable task and no \
                 timer; live tasks:{}",
                self.now(),
                self.core.borrow().live_tasks(root),
            ),
        }
    }

    /// Drive the simulation until no task is runnable and no timer is
    /// pending. Returns the final virtual time.
    #[cfg(test)]
    pub(crate) fn run_until_quiescent(&self) -> SimTime {
        self.drive(|_| false);
        self.now()
    }

    /// Drive the simulation up to (but excluding) virtual time `bound`:
    /// drain the ready queue, then fire timers strictly below `bound`,
    /// exactly as an unbounded run would have fired them.
    ///
    /// Returns the deadline of the earliest still-queued timer (`>=
    /// bound`), or `None` if the shard is quiescent. The returned
    /// deadline may belong to a lazily-cancelled sleep — that is
    /// deliberate: a serial run advances the clock through cancelled
    /// timers too, so reporting them keeps the sharded round schedule a
    /// pure function of simulation state, independent of thread count.
    ///
    /// This is the per-round workhorse of [`crate::shard`]'s conservative
    /// lookahead loop: events below the bound cannot be affected by
    /// cross-shard traffic that has not arrived yet, so each shard may
    /// process them without synchronization.
    pub(crate) fn run_until_horizon(&self, bound: SimTime) -> Option<SimTime> {
        let _current = CurrentCore::enter(&self.core);
        loop {
            self.run_ready();
            match self.pop_due_timer(Some(bound)) {
                TimerPop::Quiescent => return None,
                TimerPop::AtHorizon(at) => return Some(at),
                TimerPop::Fired => {}
            }
        }
    }

    /// Core event loop. `done` is checked after each batch of polls; when it
    /// returns true the loop exits early.
    fn drive(&self, mut done: impl FnMut(&Sim) -> bool) {
        let _current = CurrentCore::enter(&self.core);
        loop {
            self.run_ready();
            if done(self) {
                return;
            }
            match self.pop_due_timer(None) {
                TimerPop::Quiescent => return,
                TimerPop::AtHorizon(_) => unreachable!("unbounded pop hit a horizon"),
                TimerPop::Fired => {}
            }
        }
    }

    /// Poll every runnable task, FIFO, until none is left. Tasks woken
    /// meanwhile are appended and polled in the same pass. The caller has
    /// made this core the thread's current one ([`CurrentCore`]), so the
    /// primitives its tasks poll can find the task to park.
    fn run_ready(&self) {
        loop {
            let next = self.core.borrow_mut().run_queue.pop_front();
            let Some(id) = next else { return };
            self.poll_task(id);
        }
    }

    /// Advance virtual time to the next timer and fire it. Exactly one
    /// queued timer is consumed per call so that, when several timers share
    /// an instant, each sleeper's continuation runs to exhaustion before the
    /// next timer fires — the `(deadline, armed, ord)` interleaving every
    /// model above us was validated against. With `bound` set, timers at or
    /// past the bound are left in place and reported instead of fired.
    fn pop_due_timer(&self, bound: Option<SimTime>) -> TimerPop {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        let (at, armed, seq, waiter) = match core.timers.pop(bound) {
            Popped::Quiescent => return TimerPop::Quiescent,
            Popped::AtHorizon(at) => return TimerPop::AtHorizon(at),
            Popped::Due {
                at,
                armed,
                seq,
                waiter,
            } => (at, armed, seq, waiter),
        };
        debug_assert!(at >= core.now, "timer queue went backwards");
        // A cancelled timer advances the clock too, exactly as the seed
        // executor did for orphaned timers.
        core.now = core.now.max(at);
        if let Some(task) = waiter {
            core.stats.timer_events += 1;
            // Event-ordering trace: digest `(deadline, seq)` in firing
            // order.
            core.trace_digest = fnv1a_u64(fnv1a_u64(core.trace_digest, at.as_nanos()), seq);
            core.last_fired = Some((at, armed));
            debug_assert!(
                core.run_queue.is_empty(),
                "a timer fired with tasks still runnable"
            );
            core.wake_task(task);
        }
        TimerPop::Fired
    }

    fn poll_task(&self, id: TaskId) {
        // Check the body out of the slab so the task may re-borrow the core
        // (spawn, sleep, wake) without RefCell re-entrancy.
        let (body, outer) = {
            let mut guard = self.core.borrow_mut();
            let core = &mut *guard;
            let Some(slot) = core.tasks.get_mut(id.index as usize) else {
                return;
            };
            if slot.gen != id.gen {
                return; // task completed; stale wake
            }
            let TaskState::Occupied(entry) = &mut slot.state else {
                return;
            };
            let Some(body) = entry.body.take() else {
                // Checked out by an outer poll (re-entrant drive). Mark for
                // re-enqueue when that poll restores the body, so the wake
                // this queue entry represents is not lost.
                entry.repoll = true;
                return;
            };
            // Clear the flag *before* polling: a wake that lands mid-poll
            // must re-enqueue the task.
            entry.scheduled = false;
            core.stats.polls += 1;
            (body, core.polling.replace(id))
        };
        let TaskBody { mut fut, joiner } = body;
        let poll = fut
            .as_mut()
            .poll_task(&mut Context::from_waker(Waker::noop()), joiner.as_deref());
        match poll {
            Poll::Ready(()) => {
                // The future goes before its joiner is told, the order a
                // wrapper that awaited it and then sent the output had.
                drop(fut);
                {
                    let mut core = self.core.borrow_mut();
                    core.polling = outer;
                    core.stats.tasks_live -= 1;
                    let free = core.task_free;
                    let slot = &mut core.tasks[id.index as usize];
                    slot.gen = slot.gen.wrapping_add(1);
                    slot.state = TaskState::Vacant { next_free: free };
                    core.task_free = Some(id.index);
                }
                if let Some(j) = joiner {
                    j.finish();
                }
            }
            Poll::Pending => {
                let mut core = self.core.borrow_mut();
                core.polling = outer;
                let TaskState::Occupied(entry) = &mut core.tasks[id.index as usize].state else {
                    unreachable!("pending task's slot vanished during poll");
                };
                entry.body = Some(TaskBody { fut, joiner });
                if entry.repoll {
                    entry.repoll = false;
                    entry.scheduled = true;
                    core.run_queue.push_back(id);
                }
            }
        }
    }
}

impl Core {
    /// The task being polled.
    ///
    /// # Panics
    ///
    /// Between polls: a future of this simulation was polled by something
    /// other than one of its tasks.
    fn polling_task(&self) -> TaskId {
        self.polling
            .expect("a simnet future was polled outside a task of its own Sim")
    }

    /// Count one wake of task `id` and, if it is idle, mark it scheduled
    /// and queue it at the back of `run_queue`. A wake of a task already
    /// queued is redundant; a task that has since completed (slot vacant
    /// or recycled) counts the wake and is not queued.
    fn wake_task(&mut self, id: TaskId) {
        self.stats.wakes += 1;
        let Some(TaskSlot {
            gen,
            state: TaskState::Occupied(entry),
        }) = self.tasks.get_mut(id.index as usize)
        else {
            return;
        };
        if *gen != id.gen {
            return;
        }
        if entry.scheduled {
            self.stats.redundant_wakes += 1;
        } else {
            entry.scheduled = true;
            self.run_queue.push_back(id);
        }
    }

    /// `" #index name"` per live task, `(root)` marking `root`: the body
    /// of [`Sim::block_on`]'s deadlock report.
    fn live_tasks(&self, root: TaskId) -> String {
        let mut out = String::new();
        for (index, slot) in self.tasks.iter().enumerate() {
            let TaskState::Occupied(entry) = &slot.state else {
                continue;
            };
            let root = if (index, slot.gen) == (root.index as usize, root.gen) {
                " (root)"
            } else {
                ""
            };
            let name = entry
                .body
                .as_ref()
                .map_or("<being polled>", |body| body.fut.name());
            write!(out, " #{index}{root} {name}").expect("writing to a String");
        }
        out
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    core: Rc<RefCell<Core>>,
    at: SimTime,
    key: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        self.poll_armed_at(None)
    }
}

impl Sleep {
    /// [`Future::poll`], with the timer (if this poll arms it) ranked as
    /// armed at `armed` rather than now.
    #[inline]
    fn poll_armed_at(&mut self, armed: Option<SimTime>) -> Poll<()> {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        let Some(key) = self.key else {
            if core.now >= self.at {
                return Poll::Ready(());
            }
            let armed = armed.map_or(core.now, |a| a.min(core.now));
            let task = core.polling_task();
            core.stats.timers_set += 1;
            self.key = Some(core.timers.arm(self.at, armed, task));
            return Poll::Pending;
        };
        // A poll by another task (the sleep was handed over) re-targets
        // the timer.
        let polling = core.polling_task();
        if core.timers.poll(key, polling) {
            self.key = None;
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by `Sim::sleep_until_armed_at`: a [`Sleep`] whose timer,
/// armed at its first poll like any other (so arm sequence numbers, and
/// with them the event-ordering trace, are those of a plain sleep), ranks
/// among equal deadlines as armed at `armed`.
pub(crate) struct SleepArmedAt {
    sleep: Sleep,
    armed: SimTime,
}

impl Future for SleepArmedAt {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        this.sleep.poll_armed_at(Some(this.armed))
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        let mut core = self.core.borrow_mut();
        // Lazy cancel: a pending timer stays queued, and the pop that
        // reaches it reclaims the slot.
        if core.timers.cancel(key) {
            core.stats.timers_cancelled += 1;
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            TaskHandle::current().wake();
            Poll::Pending
        }
    }
}

/// A joinable task's result, shared by its slab entry (as the task's
/// [`Joiner`]) and its [`JoinHandle`].
struct JoinSlot<T> {
    value: Cell<Option<T>>,
    /// The task awaiting the handle, woken once when the output lands.
    waiter: Cell<Option<TaskHandle>>,
}

impl<T: 'static> Joiner for JoinSlot<T> {
    fn store(&self, out: &mut dyn Any) {
        let out = out
            .downcast_mut::<Option<T>>()
            .expect("join slot typed by `Sim::spawn`");
        self.value.set(out.take());
    }

    fn finish(&self) {
        if let Some(task) = self.waiter.take() {
            task.wake();
        }
    }
}

/// Handle to a spawned task's result.
///
/// Await it inside the simulation, or hand it to [`Sim::block_on`].
pub struct JoinHandle<T> {
    slot: Rc<JoinSlot<T>>,
}

impl<T> JoinHandle<T> {
    /// Non-blocking: returns the task output if it has completed.
    pub(crate) fn try_take(&self, _sim: &Sim) -> Option<T> {
        self.slot.value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.slot.value.take() {
            return Poll::Ready(v);
        }
        self.slot.waiter.set(Some(TaskHandle::current()));
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timers::{Bucket, TimerSlot};
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(SimDuration::from_micros(7)).await;
            s.now()
        });
        assert_eq!(t.as_nanos(), 7_000);
    }

    #[test]
    fn nested_sleeps_accumulate() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
            s.sleep(SimDuration::from_nanos(5)).await;
            assert_eq!(s.now().as_nanos(), 15);
        });
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(100)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run_until_quiescent();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spawn_runs_concurrently_with_root() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(3)).await;
            h.set(h.get() + 1);
        });
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
        });
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(1)).await;
            42u32
        });
        let got = sim.block_on(h);
        assert_eq!(got, 42);
    }

    #[test]
    fn yield_now_interleaves_without_time() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..2 {
                    log.borrow_mut().push(format!("{name}{round}"));
                    s.yield_now().await;
                }
            });
        }
        let end = sim.run_until_quiescent();
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1"]);
    }

    #[test]
    fn run_until_quiescent_returns_last_event_time() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(3)).await;
            s.sleep(SimDuration::from_micros(4)).await;
        });
        assert_eq!(sim.run_until_quiescent().as_nanos(), 7_000);
    }

    #[test]
    #[should_panic(
        expected = "deadlock at 0.000us: root task blocked with no runnable task and no timer; \
                    live tasks: #0 (root) simnet::executor::tests::deadlock_panics_with_diagnostic::{{closure}}"
    )]
    fn deadlock_panics_with_diagnostic() {
        let sim = Sim::new();
        let (_tx, mut rx) = crate::sync::mpsc::<()>();
        // _tx is alive, so the receive can never complete and no timer exists.
        sim.block_on(async move {
            rx.recv().await;
        });
    }

    #[test]
    #[should_panic(expected = "live tasks: #0 core::future::poll_fn::PollFn<\
                simnet::executor::tests::a_task_parked_on_its_context_waker_is_named_in_the_deadlock\
                ::{{closure}}> #1 (root) ")]
    fn a_task_parked_on_its_context_waker_is_named_in_the_deadlock() {
        // Every poll gets a no-op waker: a future that parks on it is
        // never woken, and the deadlock report names it instead of the run
        // hanging or finishing early.
        let sim = Sim::new();
        let parked = Rc::new(RefCell::new(None::<Waker>));
        let p = Rc::clone(&parked);
        let stuck = sim.spawn(std::future::poll_fn(move |cx| {
            *p.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(5)).await;
            parked.borrow().as_ref().expect("parked").wake_by_ref();
            stuck.await;
        });
    }

    #[test]
    fn a_task_slot_holds_its_future_and_flags_only() {
        assert!(
            std::mem::size_of::<TaskSlot>() <= 48,
            "a task slot grew to {} bytes",
            std::mem::size_of::<TaskSlot>()
        );
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run() -> Vec<(u64, u32)> {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let s = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    // Deliberately interleaved deadlines.
                    s.sleep(SimDuration::from_nanos(((i * 37) % 11) as u64 * 10))
                        .await;
                    log.borrow_mut().push((s.now().as_nanos(), i));
                });
            }
            sim.run_until_quiescent();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(run(), run());
    }

    /// A future that records every poll and parks its task where the test
    /// can reach it.
    struct Probe {
        polls: Rc<Cell<u32>>,
        parked: Rc<RefCell<Option<TaskHandle>>>,
        done: Rc<Cell<bool>>,
    }

    impl Future for Probe {
        type Output = ();
        fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.done.get() {
                Poll::Ready(())
            } else {
                *self.parked.borrow_mut() = Some(TaskHandle::current());
                Poll::Pending
            }
        }
    }

    #[test]
    fn redundant_wakes_coalesce_into_a_single_poll() {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0u32));
        let parked = Rc::new(RefCell::new(None::<TaskHandle>));
        let done = Rc::new(Cell::new(false));
        sim.spawn(Probe {
            polls: Rc::clone(&polls),
            parked: Rc::clone(&parked),
            done: Rc::clone(&done),
        });
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 1, "probe should have parked after one poll");

        // Wake the parked task N times; only ONE further poll may result.
        done.set(true);
        let task = parked.borrow().clone().expect("probe parked its task");
        const N: u32 = 7;
        for _ in 0..N {
            task.wake();
        }
        sim.run_until_quiescent();
        assert_eq!(
            polls.get(),
            2,
            "{N} wakes of one task must coalesce into a single poll"
        );
        let st = sim.stats();
        assert_eq!(st.wakes, N as u64);
        assert_eq!(st.redundant_wakes, (N - 1) as u64);
    }

    #[test]
    fn stale_wake_after_completion_is_ignored() {
        let sim = Sim::new();
        let parked = Rc::new(RefCell::new(None::<TaskHandle>));
        let done = Rc::new(Cell::new(false));
        let polls = Rc::new(Cell::new(0u32));
        sim.spawn(Probe {
            polls: Rc::clone(&polls),
            parked: Rc::clone(&parked),
            done: Rc::clone(&done),
        });
        sim.run_until_quiescent();
        done.set(true);
        let task = parked.borrow().clone().unwrap();
        task.wake();
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 2);
        // The task completed and its slot is recycled below; this wake
        // must be dropped on generation mismatch, not poll a stranger.
        let s = sim.clone();
        let next = sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(1)).await;
        });
        task.wake();
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 2, "stale wake must not reach a recycled slot");
        assert!(next.try_take(&sim).is_some());
        let st = sim.stats();
        assert_eq!((st.wakes, st.redundant_wakes), (3, 0));
    }

    #[test]
    fn task_slots_are_recycled_not_grown() {
        let sim = Sim::new();
        for _ in 0..100 {
            let s = sim.clone();
            sim.block_on(async move {
                s.sleep(SimDuration::from_nanos(1)).await;
            });
        }
        // block_on spawns one root task per call; sequential tasks must
        // reuse one slot (plus the slot vacated between iterations).
        assert!(
            sim.core.borrow().tasks.len() <= 2,
            "sequential tasks must recycle slab slots, got {}",
            sim.core.borrow().tasks.len()
        );
        assert_eq!(sim.stats().spawns, 100);
        assert_eq!(sim.stats().tasks_live, 0);
        assert_eq!(sim.stats().tasks_peak, 1);
    }

    #[test]
    fn timer_slots_are_recycled_not_grown() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..1000 {
                s.sleep(SimDuration::from_nanos(3)).await;
            }
        });
        let core = sim.core.borrow();
        assert!(
            core.timers.slab_len() <= 2,
            "sequential sleeps must recycle timer slots, got {}",
            core.timers.slab_len()
        );
        drop(core);
        assert_eq!(sim.stats().timers_set, 1000);
        assert_eq!(sim.stats().timer_events, 1000);
        // A queued timer costs its slot and nothing else: deadline, arm
        // instant, sequence number, link, generation and waiter.
        assert!(
            std::mem::size_of::<TimerSlot<TaskId>>() <= 48,
            "a timer slot grew to {} bytes",
            std::mem::size_of::<TimerSlot<TaskId>>()
        );
        // A bucket is its minimum and the two ends of a list threaded
        // through the slots: no allocation of its own.
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            std::mem::size_of::<SimTime>() + 2 * std::mem::size_of::<u32>()
        );
        // The 64 buckets sit behind one pointer, out of `Core`'s way.
        assert!(
            std::mem::size_of::<TimerQueue<TaskId>>() <= 72,
            "the timer queue holds {} bytes inline",
            std::mem::size_of::<TimerQueue<TaskId>>()
        );
    }

    #[test]
    fn dropped_sleep_cancels_lazily_and_slot_is_reclaimed() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            // Race a short sleep against a long one; the loser is dropped.
            let short = s.sleep(SimDuration::from_nanos(10));
            let long = s.sleep(SimDuration::from_micros(50));
            assert!(race(short, long).await, "the short sleep wins");
        });
        // The long timer is cancelled but still queued; draining to
        // quiescence pops it and reclaims the slot.
        assert_eq!(sim.stats().timers_cancelled, 1);
        let end = sim.run_until_quiescent();
        // Seed semantics: orphaned timers still advance the clock at pop.
        assert_eq!(end.as_nanos(), 50_000);
        assert!(sim.core.borrow().timers.all_vacant());
    }

    #[test]
    fn same_instant_timers_interleave_continuations_in_seq_order() {
        // When many timers share an instant, each sleeper's continuation —
        // including any task it spawns — must run to exhaustion before the
        // next timer fires. Batching the wakes up front would instead
        // produce [0, 1, ..., 15, 100, 101, ...].
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(100)).await;
                order.borrow_mut().push(i);
                let order = Rc::clone(&order);
                s.spawn(async move {
                    order.borrow_mut().push(100 + i);
                });
            });
        }
        sim.run_until_quiescent();
        let expect: Vec<i32> = (0..16).flat_map(|i| [i, 100 + i]).collect();
        assert_eq!(*order.borrow(), expect);
        assert_eq!(sim.stats().timer_events, 16);
    }

    /// Heap bytes of the future task `index` holds.
    fn boxed_size(sim: &Sim, index: usize) -> usize {
        let core = sim.core.borrow();
        let TaskState::Occupied(entry) = &core.tasks[index].state else {
            panic!("task slot {index} is vacant");
        };
        std::mem::size_of_val(&*entry.body.as_ref().expect("future checked in").fut)
    }

    #[test]
    fn a_spawned_future_is_boxed_once() {
        let sim = Sim::new();
        let s = sim.clone();
        // A 600-byte buffer held across an await, as a verbs send task's
        // state is: a wrapper that awaited it would store it twice.
        let fut = async move {
            let buf = [7u8; 600];
            s.sleep(SimDuration::from_nanos(1)).await;
            buf.iter().map(|&b| u32::from(b)).sum::<u32>()
        };
        let own = std::mem::size_of_val(&fut);
        let h = sim.spawn(fut);
        assert!(
            boxed_size(&sim, 0) <= own + 16,
            "joinable task boxes {} bytes for a {own}-byte future",
            boxed_size(&sim, 0)
        );
        let s = sim.clone();
        let fut = async move {
            let buf = [1u8; 600];
            s.sleep(SimDuration::from_nanos(1)).await;
            std::hint::black_box(&buf);
        };
        let own = std::mem::size_of_val(&fut);
        sim.spawn_detached(fut);
        assert_eq!(
            boxed_size(&sim, 1),
            own,
            "a detached task boxes its future as-is"
        );
        assert_eq!(sim.block_on(h), 7 * 600);
    }

    #[test]
    fn spawn_and_spawn_detached_are_first_polled_in_spawn_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let order = Rc::clone(&order);
            if i % 3 == 0 {
                handles.push(sim.spawn(async move { order.borrow_mut().push(i) }));
            } else {
                sim.spawn_detached(async move { order.borrow_mut().push(i) });
            }
        }
        sim.run_until_quiescent();
        assert_eq!(*order.borrow(), (0..8).collect::<Vec<_>>());
        assert!(handles.iter().all(|h| h.try_take(&sim).is_some()));
    }

    #[test]
    fn a_join_handle_wakes_its_waiter_once_and_drops_the_future_first() {
        // The finished future is dropped before the joiner is woken, so a
        // wake its destructor makes is queued ahead of the joiner's.
        struct WakeOnDrop(Rc<RefCell<Option<TaskHandle>>>);
        impl Future for WakeOnDrop {
            type Output = u8;
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u8> {
                Poll::Ready(3)
            }
        }
        impl Drop for WakeOnDrop {
            fn drop(&mut self) {
                if let Some(task) = self.0.borrow_mut().take() {
                    task.wake();
                }
            }
        }
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let parked = Rc::new(RefCell::new(None::<TaskHandle>));
        {
            let (log, parked) = (Rc::clone(&log), Rc::clone(&parked));
            let mut first = true;
            sim.spawn_detached(std::future::poll_fn(move |_| {
                if std::mem::take(&mut first) {
                    *parked.borrow_mut() = Some(TaskHandle::current());
                    return Poll::Pending;
                }
                log.borrow_mut().push("dropped");
                Poll::Ready(())
            }));
        }
        let s = sim.clone();
        let l = Rc::clone(&log);
        let p = Rc::clone(&parked);
        sim.spawn_detached(async move {
            // Wait once so the joinee runs after the handle is polled.
            let h = s.spawn(WakeOnDrop(p));
            let v = h.await;
            l.borrow_mut().push("joined");
            assert_eq!(v, 3);
        });
        let wakes_before = sim.stats().wakes;
        sim.run_until_quiescent();
        assert_eq!(*log.borrow(), ["dropped", "joined"]);
        assert_eq!(sim.stats().wakes - wakes_before, 2);
    }

    #[test]
    fn stats_reflect_a_simple_run() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(5)).await;
        });
        let st = sim.stats();
        assert_eq!(st.spawns, 1);
        assert_eq!(st.timers_set, 1);
        assert_eq!(st.timer_events, 1);
        // Poll #1 arms the timer, poll #2 observes it fired.
        assert_eq!(st.polls, 2);
        assert_eq!(st.tasks_live, 0);
        assert_eq!(st.tasks_peak, 1);
        assert_eq!(st.timers_pending, 0);
    }

    /// Await whichever of `a` and `b` finishes first and drop the other;
    /// true if `a` won.
    async fn race(a: impl Future, b: impl Future) -> bool {
        let (mut a, mut b) = (std::pin::pin!(a), std::pin::pin!(b));
        std::future::poll_fn(|cx| {
            if a.as_mut().poll(cx).is_ready() {
                Poll::Ready(true)
            } else if b.as_mut().poll(cx).is_ready() {
                Poll::Ready(false)
            } else {
                Poll::Pending
            }
        })
        .await
    }

    /// Poll `sleep` once with `cx`; it must still be pending.
    fn arm(sleep: &mut Sleep, cx: &mut Context<'_>) {
        assert!(Pin::new(sleep).poll(cx).is_pending());
    }

    #[test]
    fn a_sleep_handed_to_another_task_wakes_that_task() {
        let sim = Sim::new();
        let (tx, mut rx) = crate::sync::mpsc::<Sleep>();
        // A arms the sleep for itself, hands it over and parks.
        let a_polls = Rc::new(Cell::new(0u32));
        let (s, polls) = (sim.clone(), Rc::clone(&a_polls));
        let mut handoff = Some(tx);
        sim.spawn_detached(std::future::poll_fn(move |cx| {
            polls.set(polls.get() + 1);
            if let Some(tx) = handoff.take() {
                let mut sleep = s.sleep(SimDuration::from_nanos(50));
                arm(&mut sleep, cx);
                assert!(tx.send(sleep).is_ok(), "B holds the receiver");
            }
            Poll::Pending
        }));
        let s = sim.clone();
        let woke_at = sim.block_on(async move {
            rx.recv().await.expect("A sends the sleep").await;
            s.now()
        });
        assert_eq!(woke_at.as_nanos(), 50, "B is woken when the timer fires");
        assert_eq!(a_polls.get(), 1, "A, which armed the timer, is not woken");
    }

    #[test]
    fn a_timer_armed_by_a_finished_task_does_not_wake_its_slots_next_occupant() {
        let sim = Sim::new();
        let orphan = Rc::new(RefCell::new(None::<Sleep>));
        // A arms two timers addressed to itself by id: it drops one
        // (cancelled) and leaves the other behind, then finishes.
        let (s, o) = (sim.clone(), Rc::clone(&orphan));
        sim.spawn_detached(std::future::poll_fn(move |cx| {
            let mut cancelled = s.sleep(SimDuration::from_nanos(100));
            let mut left = s.sleep(SimDuration::from_nanos(200));
            arm(&mut cancelled, cx);
            arm(&mut left, cx);
            *o.borrow_mut() = Some(left);
            Poll::Ready(())
        }));
        assert_eq!(
            sim.run_until_horizon(SimTime::from_nanos(1)),
            Some(SimTime::from_nanos(100))
        );
        assert_eq!(sim.stats().timers_cancelled, 1);
        // B takes A's slot under the next generation and parks.
        let polls = Rc::new(Cell::new(0u32));
        sim.spawn(Probe {
            polls: Rc::clone(&polls),
            parked: Rc::new(RefCell::new(None)),
            done: Rc::new(Cell::new(false)),
        });
        assert_eq!(sim.core.borrow().tasks.len(), 1, "B reuses A's slot");
        assert_eq!(sim.run_until_quiescent().as_nanos(), 200);
        assert_eq!(polls.get(), 1, "neither timer reaches B");
        let st = sim.stats();
        assert_eq!(st.timer_events, 1, "the cancelled timer does not fire");
        assert_eq!(
            (st.wakes, st.redundant_wakes),
            (1, 0),
            "the stale wake is counted"
        );
    }

    /// Timers (with same-instant ties and a lost race), `Notify`, `mpsc`, a
    /// `TaskGroup`, a joined task, a yield and a redundant wake in one
    /// fixed run. Returns the counters and the order-trace digest.
    fn mixed_run() -> ([u64; 7], u64) {
        use crate::sync::{mpsc, Notify, TaskGroup};
        let sim = Sim::new();
        let notify = Notify::new();
        let (tx, mut rx) = mpsc::<u64>();
        let group = TaskGroup::new();
        for i in 0..6u64 {
            let (s, tx, n) = (sim.clone(), tx.clone(), notify.clone());
            group.spawn(&sim, async move {
                // All six tie at 10 ns, then three pairs tie again.
                s.sleep(SimDuration::from_nanos(10)).await;
                s.sleep(SimDuration::from_nanos(i % 3 * 5)).await;
                tx.send(i).expect("consumer alive");
                if i % 2 == 0 {
                    n.notify_one();
                }
            });
        }
        drop(tx);
        let s = sim.clone();
        let consumer = sim.spawn(async move {
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
                s.sleep(SimDuration::from_nanos(3)).await;
            }
            sum
        });
        let (s, n) = (sim.clone(), notify);
        sim.spawn_detached(async move {
            for _ in 0..2 {
                n.notified().await;
                // A race the notification wins against a sleep it cancels.
                let lost = s.sleep(SimDuration::from_nanos(1_000));
                race(n.notified(), lost).await;
                s.yield_now().await;
                // Two wakes of a task already queued: one is redundant.
                let mut woke = false;
                std::future::poll_fn(|_| {
                    if std::mem::replace(&mut woke, true) {
                        return Poll::Ready(());
                    }
                    let task = TaskHandle::current();
                    task.wake();
                    task.wake();
                    Poll::Pending
                })
                .await;
            }
        });
        let s = sim.clone();
        let sum = sim.block_on(async move {
            group.wait().await;
            s.sleep(SimDuration::from_nanos(7)).await;
            consumer.await
        });
        assert_eq!(sum, 15);
        sim.run_until_quiescent();
        let st = sim.stats();
        (
            [
                st.polls,
                st.wakes,
                st.redundant_wakes,
                st.timer_events,
                st.timers_set,
                st.timers_cancelled,
                st.spawns,
            ],
            sim.order_trace_digest(),
        )
    }

    #[test]
    fn a_mixed_run_keeps_the_counters_and_order_trace_of_waking_through_wakers() {
        // Taken from the executor in which every wake, a fired timer's
        // included, went through the task's cloned `Waker`.
        let (counts, digest) = mixed_run();
        // [polls, wakes, redundant_wakes, timer_events, timers_set,
        //  timers_cancelled, spawns]
        assert_eq!(counts, [42, 35, 2, 18, 19, 1, 9]);
        assert_eq!(digest, 0xaa68_052c_d448_5f7a);
    }
}
