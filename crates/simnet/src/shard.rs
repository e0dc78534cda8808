//! Sharded multi-core simulation engine with conservative-lookahead
//! synchronization.
//!
//! A [`crate::Sim`] is deliberately single-threaded: its determinism
//! contract (FIFO ready queue, `(deadline, seq)` timer order) is defined
//! per calendar. This module scales *across* calendars instead: the
//! simulation is partitioned into shards — one `Sim` per host or switch —
//! and shards synchronize with a null-message-free, barrier-synchronous
//! variant of conservative lookahead (Chandy–Misra–Bryant by window, YAWNS
//! style):
//!
//! 1. Every shard reports the deadline of its earliest pending event.
//!    Folding in cross-shard events still awaiting delivery gives
//!    `eff[s]`, a lower bound on shard `s`'s next activity of any kind.
//! 2. The coordinator computes each shard's *earliest send time*
//!    `est[s]` — the classic lower bound on timestamp (LBTS): the
//!    fixpoint of `est[s] = min(eff[s], min over links s'->s of
//!    (est[s'] + L(s'->s)))`, relaxed Bellman-Ford style (it converges
//!    because every declared latency is positive). A shard cannot emit a
//!    cross-shard event before `est[s]`, even transitively through
//!    chains of not-yet-sent messages.
//! 3. Each shard's round bound is `B[s] = min over links s'->s of
//!    (est[s'] + L(s'->s))` (unbounded for shards with no incoming
//!    links): nothing anyone can still send arrives at `s` below `B[s]`,
//!    so events below it are closed under cross-shard influence. Each
//!    shard with work below its bound runs
//!    `Sim::run_until_horizon(B[s])` on its owning worker thread,
//!    buffering outgoing cross-shard events; shards with nothing to do
//!    are skipped without a thread hand-off.
//! 4. At the barrier the coordinator collects the buffered events and
//!    re-delivers them at the next round's start, globally ordered by the
//!    merge key `(timestamp, tie-break rank, src shard, dst shard, seq)`.
//!    Repeat from 1 until every calendar is quiescent and nothing is in
//!    flight.
//!
//! Per-shard bounds matter for throughput: a single global window
//! `min(eff) + min(L)` would couple every shard to the globally densest
//! calendar, shrinking rounds to the lookahead window. With per-shard
//! bounds a shard is throttled only by its *upstream* neighbours (in a
//! ring, each shard advances by its predecessor's event spacing per
//! round), so rounds carry more events and the barrier cost amortizes.
//! Safety is unchanged: an event sent by `s'` during round `r` executes at
//! `t >= eff_r[s'] >= est_r[s']`, so it arrives at `t + L >= B_r[s]`,
//! beyond everything its receiver processed this round; `est` (and hence
//! every bound) is nondecreasing across rounds, so later rounds can never
//! have let the receiver run past it either.
//!
//! # Determinism
//!
//! Thread count is *presentation*, never semantics: `--threads 8` and
//! `--threads 1` must produce byte-identical figures. The argument is
//! inductive. A shard's evolution is a pure function of (a) the sequence
//! of round bounds and (b) the merge-ordered deliveries it receives at
//! each barrier. The bounds are computed from shard-reported next-event
//! times only; the deliveries are sorted by the merge key, which mentions
//! no thread identity; and delivery *spawn order equals fire order* on the
//! receiving calendar (FIFO ready queue, then `(deadline, arm-seq)` timer
//! order). So neither quantity can observe how shards were packed onto
//! workers, and by induction every round — hence every figure byte — is
//! identical for any thread count. The schedule-perturbation harness
//! ([`crate::perturb`]) extends into the merge: a nonzero salt permutes
//! the rank of same-instant cross-shard deliveries exactly as it permutes
//! same-instant timer ties, so the perturbation suite can prove models
//! indifferent to same-instant merge order too.
//!
//! # Ownership rules
//!
//! Sim state never crosses a shard boundary: each worker thread creates
//! and drives its own `Sim`s (`Rc`-based, `!Send` by construction — the
//! compiler enforces the partition). The only cross-shard channel is the
//! typed event payload `M: Send`, timestamped at send with the declared
//! link latency. `simlint`'s `cross-shard-state` rule guards the gap the
//! type system cannot see: shared mutable state smuggled around the merge
//! through `Arc<Mutex<_>>` and friends.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Waker};

use crate::executor::Sim;
use crate::pipe::Pipeline;
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};

/// Index of a shard within a [`ShardedSim`], assigned by
/// [`ShardedSim::add_shard`] in call order.
pub type ShardId = usize;

// ---------------------------------------------------------------------------
// Default thread count (process-wide plumbing for `figures --threads N`)
// ---------------------------------------------------------------------------

/// 0 = auto (one worker per available core, capped at the shard count).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker-thread count used by
/// [`ShardedSim::run`] when the builder does not override it. `0` restores
/// auto (available parallelism). Safe to flip between runs precisely
/// because thread count never affects simulation output — it only sets how
/// many cores a sharded run may occupy.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::SeqCst);
}

/// The process-wide default worker-thread count for sharded runs.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::SeqCst) {
        // simlint: allow(thread-spawn) -- querying core count for worker sizing, not spawning sim-side threads
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Host-local data-path halves (endpoint-to-shard placement)
// ---------------------------------------------------------------------------

/// A fabric's end-to-end data path split at the wire, for placing one host
/// per shard: the sending shard owns `egress` (host-side TX stages up to
/// and including its NIC's wire serialization), the receiving shard owns
/// `ingress` (its switch egress port, then the RX stages down to host
/// memory), and `wire_latency` — the switch's cut-through forwarding delay
/// — is the cross-shard link latency, i.e. the conservative lookahead
/// window. `etherstack::Fabric::host_path` builds it from the same TX/RX
/// stage lists as the fabric's monolithic cached `data_path`.
///
/// Both pipelines live in the *shard's own* [`Sim`]; clones share stage
/// calendars exactly like the fabrics' cached path handles, so every
/// endpoint on a shard contends on (and fast-paths through) the same
/// pipes.
pub struct HostPath {
    /// TX half, in the sending shard's calendar.
    pub egress: Pipeline,
    /// RX half, in the receiving shard's calendar.
    pub ingress: Pipeline,
    /// Cut-through hop between the halves: declare cross-shard links with
    /// this latency and timestamp payloads across it.
    pub wire_latency: SimDuration,
    /// Per-segment wire/header overhead for both halves.
    pub overhead_bytes: crate::units::Bytes,
}

// ---------------------------------------------------------------------------
// Cross-shard events and the merge key
// ---------------------------------------------------------------------------

/// One cross-shard event in flight: a typed payload leaving `src` at
/// `sent`, due at `dst` at `at = sent + link latency`.
struct CrossEvent<M> {
    at: SimTime,
    sent: SimTime,
    src: ShardId,
    dst: ShardId,
    /// Per-`(src, dst)` channel sequence number, assigned in send order.
    seq: u64,
    payload: M,
}

/// A delivered cross-shard event, as plain integers: the merged trace
/// entry handed to oracles (e.g. `simcheck`'s shard rules) and tests.
/// Deliberately dependency-free — nanoseconds and indices only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossRecord {
    /// Delivery deadline at the destination shard (ns).
    pub at_ns: u64,
    /// Send time at the source shard (ns).
    pub sent_ns: u64,
    /// Source shard id.
    pub src: u64,
    /// Destination shard id.
    pub dst: u64,
    /// Per-`(src, dst)` channel sequence number (0-based, contiguous).
    pub seq: u64,
}

/// Same-instant tie-break rank for the cross-shard merge. With no
/// perturbation salt every rank is 0 and the merge key degenerates to the
/// canonical `(timestamp, src, dst, seq)`. Under a salt the rank is an
/// injective scramble of the channel coordinates, permuting same-instant
/// delivery order — the orderings a correct model must be indifferent to —
/// while never reordering distinct timestamps.
fn merge_rank(src: ShardId, dst: ShardId, seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        return 0;
    }
    let mut h = crate::executor::fnv1a_u64(crate::executor::FNV_OFFSET, src as u64);
    h = crate::executor::fnv1a_u64(h, dst as u64);
    h = crate::executor::fnv1a_u64(h, seq);
    (h ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---------------------------------------------------------------------------
// Link table
// ---------------------------------------------------------------------------

/// Directed cross-shard latency matrix. Immutable after build; shared
/// read-only across workers.
struct LinkTable {
    shards: usize,
    /// Row-major `[src * shards + dst]`; `None` = no link declared.
    latency: Vec<Option<SimDuration>>,
}

impl LinkTable {
    fn build(shards: usize, links: &[(ShardId, ShardId, SimDuration)]) -> Self {
        let mut latency = vec![None; shards * shards];
        for &(src, dst, lat) in links {
            assert!(
                src < shards && dst < shards,
                "link ({src} -> {dst}) names a shard out of range (have {shards})"
            );
            assert_ne!(src, dst, "cross-shard link ({src} -> {src}) is a self-loop");
            assert!(
                !lat.is_zero(),
                "link ({src} -> {dst}) has zero latency: conservative lookahead \
                 requires a positive window or rounds cannot make progress"
            );
            let slot = &mut latency[src * shards + dst];
            // Duplicate declarations keep the smaller (more conservative)
            // latency.
            *slot = Some(slot.map_or(lat, |old: SimDuration| old.min(lat)));
        }
        LinkTable { shards, latency }
    }

    fn get(&self, src: ShardId, dst: ShardId) -> Option<SimDuration> {
        self.latency[src * self.shards + dst]
    }

    /// The lookahead window: minimum declared latency, `None` if the
    /// shards are fully disconnected (each then runs to quiescence in one
    /// round).
    fn min_latency(&self) -> Option<SimDuration> {
        self.latency.iter().flatten().min().copied()
    }
}

// ---------------------------------------------------------------------------
// Per-shard context handed to the user's setup closure
// ---------------------------------------------------------------------------

/// Send side of a shard's outgoing cross-shard traffic, buffered until the
/// next barrier.
struct Outbox<M> {
    events: Vec<CrossEvent<M>>,
    /// Next sequence number per destination shard.
    seqs: Vec<u64>,
}

/// Receive side of one `(src -> this shard)` channel.
struct Inbox<M> {
    queue: VecDeque<M>,
    waker: Option<Waker>,
}

struct CtxInner<M> {
    id: ShardId,
    shards: usize,
    sim: Sim,
    links: Arc<LinkTable>,
    out: RefCell<Outbox<M>>,
    inboxes: RefCell<BTreeMap<ShardId, Rc<RefCell<Inbox<M>>>>>,
}

/// A shard's handle to the sharded run: its own [`Sim`] plus the typed
/// merge channels to and from other shards. Cheap to clone; `!Send` like
/// the `Sim` it wraps — a context never leaves its worker thread.
pub struct ShardCtx<M> {
    inner: Rc<CtxInner<M>>,
}

impl<M> Clone for ShardCtx<M> {
    fn clone(&self) -> Self {
        ShardCtx {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> ShardCtx<M> {
    fn new(id: ShardId, sim: Sim, links: Arc<LinkTable>) -> Self {
        let shards = links.shards;
        ShardCtx {
            inner: Rc::new(CtxInner {
                id,
                shards,
                sim,
                links,
                out: RefCell::new(Outbox {
                    events: Vec::new(),
                    seqs: vec![0; shards],
                }),
                inboxes: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// This shard's own simulation: clock, spawner, executor.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// This shard's id.
    pub fn id(&self) -> ShardId {
        self.inner.id
    }

    /// Total number of shards in the run.
    pub fn shard_count(&self) -> usize {
        self.inner.shards
    }

    /// Send `payload` to shard `dst` over the declared link. The event is
    /// timestamped `now + link latency` and delivered through the ordered
    /// merge at the next barrier; the destination observes it (via
    /// [`ShardCtx::receiver`]) exactly at that virtual instant.
    ///
    /// # Panics
    ///
    /// Panics if no `link(self.id(), dst, ..)` was declared on the
    /// builder: an undeclared link would invalidate the lookahead window.
    pub fn send(&self, dst: ShardId, payload: M) {
        let inner = &self.inner;
        let Some(lat) = inner.links.get(inner.id, dst) else {
            panic!(
                "shard {src} sent to shard {dst} without a declared link; \
                 every cross-shard edge must be declared up front so the \
                 lookahead window stays sound",
                src = inner.id
            );
        };
        let sent = inner.sim.now();
        let mut out = inner.out.borrow_mut();
        let seq = out.seqs[dst];
        out.seqs[dst] = seq + 1;
        out.events.push(CrossEvent {
            at: sent + lat,
            sent,
            src: inner.id,
            dst,
            seq,
            payload,
        });
    }

    /// The receive end of the `(src -> this shard)` channel. One consumer
    /// per channel: a later `receiver(src)` call returns a handle to the
    /// same queue, and only the most recent pending `recv` is woken.
    pub fn receiver(&self, src: ShardId) -> CrossReceiver<M> {
        assert!(
            self.inner.links.get(src, self.inner.id).is_some(),
            "shard {dst} asked to receive from shard {src} but no link \
             ({src} -> {dst}) was declared",
            dst = self.inner.id
        );
        CrossReceiver {
            inbox: self.inbox(src),
        }
    }

    fn inbox(&self, src: ShardId) -> Rc<RefCell<Inbox<M>>> {
        Rc::clone(
            self.inner
                .inboxes
                .borrow_mut()
                .entry(src)
                .or_insert_with(|| {
                    Rc::new(RefCell::new(Inbox {
                        queue: VecDeque::new(),
                        waker: None,
                    }))
                }),
        )
    }

    /// Inject one merge-ordered delivery: a tiny task sleeps until the
    /// event's deadline, then enqueues the payload and wakes the receiver.
    /// Called at round start in global merge order, so spawn order (hence
    /// FIFO poll order, hence timer arm order, hence same-instant fire
    /// order) *is* the merge order.
    fn schedule_delivery(&self, ev: CrossEvent<M>) {
        debug_assert_eq!(ev.dst, self.inner.id);
        let inbox = self.inbox(ev.src);
        let sim = self.inner.sim.clone();
        sim.note_cross_shard_event();
        let at = ev.at;
        let payload = ev.payload;
        self.inner.sim.spawn_detached(async move {
            sim.sleep_until(at).await;
            let mut inbox = inbox.borrow_mut();
            inbox.queue.push_back(payload);
            if let Some(w) = inbox.waker.take() {
                w.wake();
            }
        });
    }

    fn drain_outgoing(&self) -> Vec<CrossEvent<M>> {
        std::mem::take(&mut self.inner.out.borrow_mut().events)
    }
}

/// Receive handle for one `(src -> dst)` cross-shard channel; obtained
/// from [`ShardCtx::receiver`].
pub struct CrossReceiver<M> {
    inbox: Rc<RefCell<Inbox<M>>>,
}

impl<M> CrossReceiver<M> {
    /// Await the next payload from this channel, delivered at its merge
    /// timestamp. The future never resolves if the peer sends nothing
    /// more; a *root* task blocked here at global quiescence is reported
    /// as a deadlock, while a background task parked forever is dropped
    /// with its shard, exactly like a pending task at `block_on` exit.
    pub fn recv(&self) -> Recv<'_, M> {
        Recv { inbox: &self.inbox }
    }

    /// Non-blocking poll of the channel queue.
    pub fn try_recv(&self) -> Option<M> {
        self.inbox.borrow_mut().queue.pop_front()
    }
}

/// Future returned by [`CrossReceiver::recv`].
pub struct Recv<'a, M> {
    inbox: &'a Rc<RefCell<Inbox<M>>>,
}

impl<M> Future for Recv<'_, M> {
    type Output = M;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<M> {
        let mut inbox = self.inbox.borrow_mut();
        if let Some(m) = inbox.queue.pop_front() {
            Poll::Ready(m)
        } else {
            inbox.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

type Setup<M, R> = Box<dyn FnOnce(ShardCtx<M>) -> Pin<Box<dyn Future<Output = R>>> + Send>;

/// Builder for a sharded run: declare shards and links, then [`run`].
///
/// `M` is the cross-shard payload type (must be `Send`: it is the only
/// thing that crosses threads); `R` is each shard root's result.
///
/// [`run`]: ShardedSim::run
pub struct ShardedSim<M, R> {
    setups: Vec<Setup<M, R>>,
    links: Vec<(ShardId, ShardId, SimDuration)>,
    threads: Option<usize>,
}

impl<M: Send + 'static, R: Send + 'static> Default for ShardedSim<M, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static, R: Send + 'static> ShardedSim<M, R> {
    /// Empty partition: no shards, no links, auto thread count.
    pub fn new() -> Self {
        ShardedSim {
            setups: Vec::new(),
            links: Vec::new(),
            threads: None,
        }
    }

    /// Declare a shard. `setup` runs on the owning worker thread and
    /// returns the shard's root future; the run completes when every root
    /// has resolved and every calendar is quiescent. Returns the new
    /// shard's id (assigned in call order).
    pub fn add_shard<F, Fut>(&mut self, setup: F) -> ShardId
    where
        F: FnOnce(ShardCtx<M>) -> Fut + Send + 'static,
        Fut: Future<Output = R> + 'static,
    {
        self.setups.push(Box::new(move |ctx| Box::pin(setup(ctx))));
        self.setups.len() - 1
    }

    /// Declare a directed cross-shard link with the given (positive)
    /// latency. The minimum declared latency across all links is the
    /// conservative lookahead window. Duplicate declarations keep the
    /// smaller latency.
    pub fn link(&mut self, src: ShardId, dst: ShardId, latency: SimDuration) -> &mut Self {
        self.links.push((src, dst, latency));
        self
    }

    /// Override the worker-thread count for this run (default: the
    /// process-wide [`default_threads`], capped at the shard count).
    /// Output is byte-identical for every value.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.threads = Some(n);
        self
    }

    /// Execute the sharded run to completion and return every root's
    /// result plus run-level statistics and the merged cross-shard trace.
    ///
    /// # Panics
    ///
    /// Panics if no shard was declared, if a link names an unknown shard
    /// or has zero latency, on global deadlock (every calendar quiescent,
    /// nothing in flight, yet some root incomplete), or if a worker thread
    /// panics.
    pub fn run(self) -> ShardOutcome<R> {
        let shard_count = self.setups.len();
        assert!(shard_count > 0, "sharded run declared no shards");
        let links = Arc::new(LinkTable::build(shard_count, &self.links));
        let lookahead = links.min_latency();
        let salt = crate::perturb::current_salt();
        let workers = self
            .threads
            .unwrap_or_else(default_threads)
            .clamp(1, shard_count);

        // Deterministic contiguous partition: worker `w` owns
        // `base + (w < extra)` consecutive shards. The partition affects
        // wall-clock only, never output.
        let base = shard_count / workers;
        let extra = shard_count % workers;
        let mut owner_of = Vec::with_capacity(shard_count);
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            owner_of.extend((0..len).map(|_| w));
        }

        let mut setups: Vec<Option<Setup<M, R>>> = self.setups.into_iter().map(Some).collect();
        let (up_tx, up_rx) = mpsc::channel::<Up<M, R>>();

        // simlint: allow(thread-spawn) -- the sharded engine's worker pool: each worker owns its shards' calendars whole; scheduling affects wall-clock only, and the determinism suite proves it
        std::thread::scope(|scope| {
            let mut cmd_txs = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Command<M>>();
                cmd_txs.push(cmd_tx);
                let owned: Vec<(ShardId, Setup<M, R>)> = (0..shard_count)
                    .filter(|&s| owner_of[s] == w)
                    .map(|s| (s, setups[s].take().expect("shard setup taken twice")))
                    .collect();
                let links = Arc::clone(&links);
                let up = up_tx.clone();
                // simlint: allow(thread-spawn) -- worker creation for the conservative-lookahead barrier loop; see module docs for the determinism argument
                let handle = std::thread::Builder::new()
                    .name(format!("simnet-shard-w{w}"))
                    .spawn_scoped(scope, move || {
                        // Every worker holds a sender of the one upward
                        // channel, so a dying worker never disconnects it:
                        // it has to say so itself, or the coordinator
                        // waits for its report for ever. Nothing of the
                        // worker's state is looked at after a panic.
                        let body = AssertUnwindSafe(|| {
                            worker_main(owned, &links, salt, &cmd_rx, &up);
                        });
                        if let Err(payload) = std::panic::catch_unwind(body) {
                            // The coordinator may itself be gone by now.
                            let _ = up.send(Up::Panicked(payload));
                        }
                    })
                    .expect("spawn shard worker");
                handles.push(handle);
            }
            drop(up_tx);

            let coordinator = Coordinator {
                shard_count,
                workers,
                owner_of: &owner_of,
                links: &links,
                lookahead,
                salt,
                cmd_txs: &cmd_txs,
                up_rx: &up_rx,
            };
            let result = coordinator.run();
            // Disconnect the command channels so every worker exits its
            // loop, and join them all before a worker's panic — which it
            // caught and sent up as `Up::Panicked` — is re-raised here
            // with its original payload. On coordinator *panic* (deadlock
            // diagnostic) the unwind drops `cmd_txs` too, the workers exit
            // cleanly, and the original panic propagates.
            drop(cmd_txs);
            for h in handles {
                h.join().expect("shard workers catch their own panics");
            }
            let payload = match result {
                Ok(out) => return out,
                // A command to a dead worker can fail before the
                // coordinator has read what the worker died of.
                Err(Aborted(payload)) => payload.or_else(|| {
                    up_rx.try_iter().find_map(|up| match up {
                        Up::Panicked(payload) => Some(payload),
                        _ => None,
                    })
                }),
            };
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => {
                    panic!("sharded run aborted: a worker thread disconnected without panicking")
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Coordinator / worker protocol
// ---------------------------------------------------------------------------

enum Command<M> {
    /// Run one lookahead round: deliver the (merge-ordered) events, then
    /// advance each listed shard to its own bound. Owned shards absent
    /// from `bounds` have nothing below their bound this round and are
    /// not touched (their last report stands).
    Round {
        bounds: Vec<(ShardId, SimTime)>,
        deliveries: Vec<CrossEvent<M>>,
    },
    /// Harvest results and per-shard statistics; the worker exits after
    /// replying.
    Finish,
}

enum Up<M, R> {
    Round(RoundReport<M>),
    Final(Vec<ShardFinal<R>>),
    /// The sending worker panicked; this is what it panicked with.
    Panicked(Box<dyn Any + Send>),
}

struct RoundReport<M> {
    /// `(shard, earliest pending deadline)` for every owned shard; `None`
    /// = that calendar is quiescent.
    next: Vec<(ShardId, Option<SimTime>)>,
    /// Cross-shard events buffered during the round.
    outgoing: Vec<CrossEvent<M>>,
}

struct ShardFinal<R> {
    id: ShardId,
    result: Option<R>,
    stats: SimStats,
    /// The shard executor's event-ordering trace digest.
    trace: u64,
    end: SimTime,
}

/// Worker body: build the owned shards, then serve lookahead rounds until
/// told to finish (or the coordinator hangs up).
fn worker_main<M: Send + 'static, R: Send + 'static>(
    owned: Vec<(ShardId, Setup<M, R>)>,
    links: &Arc<LinkTable>,
    salt: u64,
    cmds: &mpsc::Receiver<Command<M>>,
    up: &mpsc::Sender<Up<M, R>>,
) {
    struct WorkerShard<M, R> {
        id: ShardId,
        ctx: ShardCtx<M>,
        root: crate::executor::JoinHandle<R>,
        result: Option<R>,
    }

    // The perturbation salt is thread-local and these `Sim`s are created
    // on the worker, so re-install the salt captured on the builder's
    // thread — `figures` under `with_tie_break_salt` must perturb the
    // shards too.
    let mut shards: Vec<WorkerShard<M, R>> = owned
        .into_iter()
        .map(|(id, setup)| {
            let sim = crate::perturb::with_tie_break_salt(salt, Sim::new);
            let ctx = ShardCtx::new(id, sim, Arc::clone(links));
            let root = ctx.sim().spawn(setup(ctx.clone()));
            WorkerShard {
                id,
                ctx,
                root,
                result: None,
            }
        })
        .collect();

    loop {
        match cmds.recv() {
            // Coordinator gone (normal teardown or unwinding): exit.
            Err(mpsc::RecvError) => return,
            Ok(Command::Round { bounds, deliveries }) => {
                let mut report = RoundReport {
                    next: Vec::with_capacity(bounds.len()),
                    outgoing: Vec::new(),
                };
                // Deliveries arrive globally merge-ordered; a stable
                // filter per shard preserves that order, and shards are
                // visited in ascending id so the walk itself is
                // deterministic. Any shard with deliveries is guaranteed
                // a `bounds` entry by the coordinator.
                let mut deliveries: Vec<Option<CrossEvent<M>>> =
                    deliveries.into_iter().map(Some).collect();
                for ws in &mut shards {
                    let Some(&(_, bound)) = bounds.iter().find(|(id, _)| *id == ws.id) else {
                        continue;
                    };
                    for slot in &mut deliveries {
                        if slot.as_ref().is_some_and(|ev| ev.dst == ws.id) {
                            let ev = slot.take().expect("delivery taken twice");
                            ws.ctx.schedule_delivery(ev);
                        }
                    }
                    let next = ws.ctx.sim().run_until_horizon(bound);
                    if ws.result.is_none() {
                        ws.result = ws.root.try_take(ws.ctx.sim());
                    }
                    report.outgoing.extend(ws.ctx.drain_outgoing());
                    report.next.push((ws.id, next));
                }
                if up.send(Up::Round(report)).is_err() {
                    return;
                }
            }
            Ok(Command::Finish) => {
                let finals = shards
                    .into_iter()
                    .map(|mut ws| ShardFinal {
                        id: ws.id,
                        result: ws.result.take().or_else(|| ws.root.try_take(ws.ctx.sim())),
                        stats: ws.ctx.sim().stats(),
                        trace: ws.ctx.sim().order_trace_digest(),
                        end: ws.ctx.sim().now(),
                    })
                    .collect();
                let _ = up.send(Up::Final(finals));
                return;
            }
        }
    }
}

/// A worker left mid-protocol: it panicked (with this payload, re-raised
/// once every worker is joined) or otherwise hung up.
struct Aborted(Option<Box<dyn Any + Send>>);

struct Coordinator<'a, M, R> {
    shard_count: usize,
    workers: usize,
    owner_of: &'a [usize],
    links: &'a LinkTable,
    lookahead: Option<SimDuration>,
    salt: u64,
    cmd_txs: &'a [mpsc::Sender<Command<M>>],
    up_rx: &'a mpsc::Receiver<Up<M, R>>,
}

/// `t + l` in nanoseconds, saturating at the far future (an unbounded
/// horizon, not an overflow).
fn horizon_after(t: SimTime, l: SimDuration) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_add(l.as_nanos()))
}

impl<M: Send + 'static, R: Send + 'static> Coordinator<'_, M, R> {
    /// Next upward message from any worker.
    fn recv(&self) -> Result<Up<M, R>, Aborted> {
        match self.up_rx.recv() {
            Ok(Up::Panicked(payload)) => Err(Aborted(Some(payload))),
            Err(mpsc::RecvError) => Err(Aborted(None)),
            Ok(up) => Ok(up),
        }
    }

    fn run(self) -> Result<ShardOutcome<R>, Aborted> {
        let mut next: Vec<Option<SimTime>> = vec![Some(SimTime::ZERO); self.shard_count];
        let mut pending: Vec<CrossEvent<M>> = Vec::new();
        let mut rounds: u64 = 0;
        let mut merge_queue_peak: u64 = 0;
        let mut cross_total: u64 = 0;
        let mut trace_digest = crate::executor::FNV_OFFSET;
        let mut trace: Vec<CrossRecord> = Vec::new();

        loop {
            // eff[s]: lower bound on shard s's next activity of any kind —
            // its calendar's earliest deadline, or an in-flight cross
            // event addressed to it.
            let mut eff: Vec<Option<SimTime>> = next.clone();
            for ev in &pending {
                eff[ev.dst] = Some(eff[ev.dst].map_or(ev.at, |n| n.min(ev.at)));
            }
            if eff.iter().all(Option::is_none) {
                break;
            }
            // est[s]: earliest possible cross-shard *send* time (the
            // classic LBTS), the fixpoint of
            //   est[s] = min(eff[s], min over links s'->s (est[s'] + L)).
            // Relax Bellman-Ford style; every latency is positive, so a
            // shortest influence chain has at most shard_count - 1 hops
            // and the sweep converges within shard_count passes. `None`
            // survives the fixpoint only for shards no chain of events
            // can ever reach — they can never send.
            let mut est = eff.clone();
            for _ in 0..self.shard_count {
                let mut changed = false;
                for src in 0..self.shard_count {
                    let Some(t) = est[src] else { continue };
                    for (dst, slot) in est.iter_mut().enumerate() {
                        let Some(l) = self.links.get(src, dst) else {
                            continue;
                        };
                        let cand = horizon_after(t, l);
                        if slot.is_none_or(|cur| cand < cur) {
                            *slot = Some(cand);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // Per-shard round bound: nothing anyone can still send
            // arrives at `dst` before `min over incoming links
            // (est[src] + L)`, so events below that are closed under
            // cross-shard influence. No incoming influence at all (no
            // incoming links, or every upstream est is `None`) means an
            // unbounded horizon: run to quiescence.
            let mut bound_of = Vec::with_capacity(self.shard_count);
            for dst in 0..self.shard_count {
                let mut b: Option<SimTime> = None;
                for (src, &e) in est.iter().enumerate() {
                    let (Some(l), Some(t)) = (self.links.get(src, dst), e) else {
                        continue;
                    };
                    let cand = horizon_after(t, l);
                    b = Some(b.map_or(cand, |cur: SimTime| cur.min(cand)));
                }
                bound_of.push(b.unwrap_or(SimTime::from_nanos(u64::MAX)));
            }
            rounds += 1;

            // Global merge: order every pending delivery by
            // (timestamp, rank, src, dst, seq) and record the merged trace.
            pending.sort_by_key(|ev| {
                (
                    ev.at,
                    merge_rank(ev.src, ev.dst, ev.seq, self.salt),
                    ev.src,
                    ev.dst,
                    ev.seq,
                )
            });
            merge_queue_peak = merge_queue_peak.max(pending.len() as u64);
            cross_total += pending.len() as u64;
            for ev in &pending {
                for v in [ev.at.as_nanos(), ev.src as u64, ev.dst as u64, ev.seq] {
                    trace_digest = crate::executor::fnv1a_u64(trace_digest, v);
                }
                trace.push(CrossRecord {
                    at_ns: ev.at.as_nanos(),
                    sent_ns: ev.sent.as_nanos(),
                    src: ev.src as u64,
                    dst: ev.dst as u64,
                    seq: ev.seq,
                });
            }

            // Split the merged batch per worker (order-preserving), pick
            // which shards actually have work below their bound — a
            // delivery to schedule or a deadline inside the window — and
            // run the round on just the workers owning one. Idle workers
            // are not woken at all; their shards' last reports stand.
            let mut per_worker: Vec<Vec<CrossEvent<M>>> =
                (0..self.workers).map(|_| Vec::new()).collect();
            let mut has_delivery = vec![false; self.shard_count];
            for ev in pending.drain(..) {
                has_delivery[ev.dst] = true;
                per_worker[self.owner_of[ev.dst]].push(ev);
            }
            let mut worker_bounds: Vec<Vec<(ShardId, SimTime)>> =
                (0..self.workers).map(|_| Vec::new()).collect();
            for s in 0..self.shard_count {
                if has_delivery[s] || next[s].is_some_and(|n| n < bound_of[s]) {
                    worker_bounds[self.owner_of[s]].push((s, bound_of[s]));
                }
            }
            let mut awaiting = 0usize;
            let dispatch = worker_bounds.into_iter().zip(per_worker);
            for (tx, (bounds, deliveries)) in self.cmd_txs.iter().zip(dispatch) {
                if bounds.is_empty() {
                    continue;
                }
                awaiting += 1;
                if tx.send(Command::Round { bounds, deliveries }).is_err() {
                    return Err(Aborted(None));
                }
            }
            for _ in 0..awaiting {
                let Up::Round(report) = self.recv()? else {
                    unreachable!("worker sent Final before Finish");
                };
                for (shard, at) in report.next {
                    next[shard] = at;
                }
                pending.extend(report.outgoing);
            }
        }

        // Every calendar quiescent, nothing in flight: harvest.
        for tx in self.cmd_txs {
            if tx.send(Command::Finish).is_err() {
                return Err(Aborted(None));
            }
        }
        let mut finals: Vec<Option<ShardFinal<R>>> = (0..self.shard_count).map(|_| None).collect();
        for _ in 0..self.workers {
            let Up::Final(batch) = self.recv()? else {
                unreachable!("worker sent Round after Finish");
            };
            for f in batch {
                let id = f.id;
                finals[id] = Some(f);
            }
        }

        let mut results = Vec::with_capacity(self.shard_count);
        let mut end = SimTime::ZERO;
        let mut agg = SimStats::default();
        let mut incomplete = Vec::new();
        for (id, f) in finals.into_iter().enumerate() {
            let f = f.expect("worker never reported its shard");
            // Fold each shard's own event-ordering trace into the run
            // digest (shard-id order) so the differential tests cover
            // *intra*-shard ordering too, not just the merge.
            trace_digest = crate::executor::fnv1a_u64(trace_digest, f.trace);
            agg.absorb(&f.stats);
            end = end.max(f.end);
            match f.result {
                Some(r) => results.push(r),
                None => incomplete.push(id),
            }
        }
        assert!(
            incomplete.is_empty(),
            "sharded deadlock: every calendar is quiescent with nothing in \
             flight after {rounds} round(s), but shard root(s) {incomplete:?} \
             never completed (blocked on a cross-shard recv nobody will send?)"
        );
        agg.shards = self.shard_count as u64;
        agg.lookahead_rounds = rounds;
        agg.merge_queue_peak = merge_queue_peak;
        agg.cross_shard_events = cross_total;

        Ok(ShardOutcome {
            results,
            stats: agg,
            end,
            lookahead: self.lookahead,
            trace_digest,
            trace,
        })
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// Everything a sharded run produced.
pub struct ShardOutcome<R> {
    /// Each shard root's result, indexed by shard id.
    pub results: Vec<R>,
    /// Aggregated executor statistics: per-shard counters summed
    /// (high-water marks maxed), with the shard-level fields (`shards`,
    /// `cross_shard_events`, `lookahead_rounds`, `merge_queue_peak`) set
    /// from the coordinator's own bookkeeping.
    pub stats: SimStats,
    /// Latest virtual end time across the shards.
    pub end: SimTime,
    /// The conservative lookahead window used (minimum declared link
    /// latency), `None` for a disconnected partition.
    pub lookahead: Option<SimDuration>,
    /// FNV-1a digest over the merged cross-shard trace (every delivery's
    /// `(timestamp, src, dst, seq)` in merge order) folded with every
    /// shard's own event-ordering trace digest in shard-id order. Two runs
    /// agree on this iff they processed the same events in the same order
    /// — the quantity the sharded-vs-serial differential tests compare.
    pub trace_digest: u64,
    /// The merged cross-shard trace itself, in delivery order, as plain
    /// integers for external oracles (`simcheck`'s shard rules).
    pub trace: Vec<CrossRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-shard ping-pong over a 1 µs link; returns (per-shard results,
    /// trace digest, rounds, cross events, end ns).
    fn ping_pong(threads: usize, rtts: u64) -> (Vec<u64>, u64, u64, u64, u64) {
        let mut ss: ShardedSim<u64, u64> = ShardedSim::new();
        let lat = SimDuration::from_micros(1);
        let a = ss.add_shard(move |ctx| async move {
            let rx = ctx.receiver(1);
            for i in 0..rtts {
                ctx.send(1, i);
                let echoed = rx.recv().await;
                assert_eq!(echoed, i);
            }
            ctx.sim().now().as_nanos()
        });
        let b = ss.add_shard(move |ctx| async move {
            let rx = ctx.receiver(0);
            for _ in 0..rtts {
                let v = rx.recv().await;
                ctx.send(0, v);
            }
            ctx.sim().now().as_nanos()
        });
        ss.link(a, b, lat).link(b, a, lat).threads(threads);
        let out = ss.run();
        (
            out.results,
            out.trace_digest,
            out.stats.lookahead_rounds,
            out.stats.cross_shard_events,
            out.end.as_nanos(),
        )
    }

    #[test]
    fn ping_pong_timing_is_exact() {
        let (results, _, rounds, crossed, end) = ping_pong(2, 10);
        // 10 RTTs of 2 µs each; the initiator finishes at 20 µs.
        assert_eq!(results[0], 20_000);
        assert_eq!(end, 20_000);
        assert_eq!(crossed, 20, "10 pings + 10 pongs");
        assert!(rounds >= 20, "each leg needs its own lookahead round");
    }

    #[test]
    fn output_is_identical_for_any_thread_count() {
        let base = ping_pong(1, 25);
        for threads in [2, 3, 8] {
            assert_eq!(ping_pong(threads, 25), base, "threads={threads}");
        }
    }

    #[test]
    fn disconnected_shards_run_in_one_round() {
        let mut ss: ShardedSim<(), u64> = ShardedSim::new();
        for i in 0..4u64 {
            ss.add_shard(move |ctx| async move {
                ctx.sim()
                    .sleep(SimDuration::from_micros(10 * (i + 1)))
                    .await;
                ctx.sim().now().as_nanos()
            });
        }
        ss.threads(2);
        let out = ss.run();
        assert_eq!(out.results, vec![10_000, 20_000, 30_000, 40_000]);
        assert_eq!(out.stats.lookahead_rounds, 1);
        assert_eq!(out.stats.cross_shard_events, 0);
        assert_eq!(out.stats.shards, 4);
        assert!(out.lookahead.is_none());
    }

    #[test]
    fn merge_order_groups_same_instant_sends_deterministically() {
        // Four senders fire a message at the same virtual instant into one
        // sink; the sink must observe them in (src, seq) merge order.
        let run = |threads: usize| {
            let mut ss: ShardedSim<(usize, u64), Vec<(usize, u64)>> = ShardedSim::new();
            let sink = ss.add_shard(|ctx| async move {
                let mut got = Vec::new();
                let rxs: Vec<_> = (1..5).map(|s| ctx.receiver(s)).collect();
                // 4 sources x 3 messages, all at the same instants.
                for _ in 0..12 {
                    let (v, idx) = race_any(&rxs).await;
                    got.push((idx, v.1));
                }
                got
            });
            for _ in 1..5usize {
                let src = ss.add_shard(move |ctx| async move {
                    for i in 0..3u64 {
                        ctx.sim().sleep(SimDuration::from_micros(5)).await;
                        ctx.send(0, (ctx.id(), i));
                    }
                    Vec::new()
                });
                ss.link(src, sink, SimDuration::from_micros(2));
            }
            ss.threads(threads);
            let out = ss.run();
            (out.results[0].clone(), out.trace_digest)
        };
        let (order1, digest1) = run(1);
        let (order4, digest4) = run(4);
        assert_eq!(order1, order4);
        assert_eq!(digest1, digest4);
        // Same instant (7, 12, 17 µs): sources drained in src order.
        assert_eq!(
            order1[..4],
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            "same-instant merge must order by source shard"
        );
    }

    /// Poll a set of receivers round-robin until one yields; returns the
    /// payload and the receiver's index. Deterministic: lowest index wins
    /// among simultaneously-ready channels.
    async fn race_any(rxs: &[CrossReceiver<(usize, u64)>]) -> ((usize, u64), usize) {
        std::future::poll_fn(|cx| {
            for (i, rx) in rxs.iter().enumerate() {
                if let Some(v) = rx.try_recv() {
                    return Poll::Ready((v, i));
                }
            }
            for rx in rxs {
                let mut inbox = rx.inbox.borrow_mut();
                inbox.waker = Some(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }

    #[test]
    fn perturbation_salt_is_installed_on_workers() {
        let salts = crate::perturb::with_tie_break_salt(0x5EED, || {
            let mut ss: ShardedSim<(), u64> = ShardedSim::new();
            for _ in 0..3 {
                ss.add_shard(|ctx| async move { ctx.sim().tie_break_salt() });
            }
            ss.threads(3);
            ss.run().results
        });
        assert_eq!(salts, vec![0x5EED, 0x5EED, 0x5EED]);
    }

    #[test]
    #[should_panic(expected = "without a declared link")]
    fn send_without_link_panics() {
        let mut ss: ShardedSim<(), ()> = ShardedSim::new();
        ss.add_shard(|ctx| async move { ctx.send(1, ()) });
        ss.add_shard(|_| async {});
        ss.run();
    }

    /// The same with the panicking shard on a worker of its own: the other
    /// worker stays alive and keeps the upward channel connected, so the
    /// run must hear of the death some other way — whatever `nproc` is.
    #[test]
    #[should_panic(expected = "without a declared link")]
    fn worker_panic_reaches_the_caller_past_a_live_second_worker() {
        let mut ss: ShardedSim<(), ()> = ShardedSim::new();
        ss.add_shard(|ctx| async move { ctx.send(1, ()) });
        ss.add_shard(|_| async {});
        ss.threads(2);
        ss.run();
    }

    /// A shard whose *setup* panics dies before its worker serves a single
    /// command, so the coordinator's first send to it may fail outright.
    #[test]
    #[should_panic(expected = "setup exploded")]
    fn setup_panic_reaches_the_caller() {
        let mut ss: ShardedSim<(), ()> = ShardedSim::new();
        ss.add_shard(|_| -> std::future::Ready<()> { panic!("setup exploded") });
        ss.add_shard(|_| async {});
        ss.threads(2);
        ss.run();
    }

    #[test]
    #[should_panic(expected = "sharded deadlock")]
    fn recv_that_can_never_resolve_deadlocks() {
        let mut ss: ShardedSim<(), ()> = ShardedSim::new();
        let a = ss.add_shard(|ctx| async move {
            ctx.receiver(1).recv().await;
        });
        let b = ss.add_shard(|_| async {});
        ss.link(b, a, SimDuration::from_micros(1));
        ss.run();
    }

    #[test]
    #[should_panic(expected = "zero latency")]
    fn zero_latency_link_is_rejected() {
        let mut ss: ShardedSim<(), ()> = ShardedSim::new();
        let a = ss.add_shard(|_| async {});
        let b = ss.add_shard(|_| async {});
        ss.link(a, b, SimDuration::ZERO);
        ss.run();
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut ss: ShardedSim<u64, u64> = ShardedSim::new();
        let a = ss.add_shard(|ctx| async move {
            ctx.sim().sleep(SimDuration::from_micros(3)).await;
            ctx.send(1, 7);
            0
        });
        let b = ss.add_shard(|ctx| async move { ctx.receiver(0).recv().await });
        ss.link(a, b, SimDuration::from_micros(2));
        let out = ss.run();
        assert_eq!(out.results, vec![0, 7]);
        assert_eq!(out.stats.shards, 2);
        assert_eq!(out.stats.cross_shard_events, 1);
        assert_eq!(out.stats.merge_queue_peak, 1);
        assert_eq!(out.end.as_nanos(), 5_000);
        assert_eq!(out.trace.len(), 1);
        let rec = out.trace[0];
        assert_eq!((rec.src, rec.dst, rec.seq), (0, 1, 0));
        assert_eq!(rec.sent_ns, 3_000);
        assert_eq!(rec.at_ns, 5_000);
    }
}
