//! Intra-simulation synchronization primitives: mpsc channel, notify cell,
//! barrier, FIFO gate and task group.
//!
//! All primitives are `!Send`; they live entirely inside the single-threaded
//! simulation and synchronize *tasks*, not threads. Wake-ups are mediated by
//! the executor's FIFO ready queue, so ordering stays deterministic.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::Joiner;
use crate::Sim;

// ---------------------------------------------------------------------------
// mpsc (unbounded)
// ---------------------------------------------------------------------------

struct MpscState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of an unbounded mpsc channel. Clonable.
pub struct Sender<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Receiving half of an unbounded mpsc channel.
pub struct Receiver<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Create an unbounded multi-producer single-consumer channel.
///
/// Unbounded is the right model here: queue *occupancy* in the simulated
/// protocols is bounded by credit/window schemes implemented at the protocol
/// layer, where the paper's systems bound it too.
pub fn mpsc<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(MpscState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: Rc::clone(&state),
        },
        Receiver { state },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            if let Some(w) = s.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a message and wake the receiver. Returns `Err(msg)` if the
    /// receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let mut s = self.state.borrow_mut();
        if !s.receiver_alive {
            return Err(msg);
        }
        s.queue.push_back(msg);
        if let Some(w) = s.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Await the next message; `None` once every sender has dropped and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.rx.state.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        // Same-task re-poll: keep the cached waker, skip the clone.
        if !s
            .recv_waker
            .as_ref()
            .is_some_and(|w| w.will_wake(cx.waker()))
        {
            s.recv_waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyState {
    permit: bool,
    waiters: VecDeque<Waker>,
}

/// Edge-triggered notification cell: `notify_one` stores at most one permit;
/// `notified().await` consumes it or waits.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create an empty notify cell.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                permit: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Store a permit (coalescing with any already stored) and wake the
    /// longest-waiting task, which will consume the permit when polled.
    pub fn notify_one(&self) {
        let mut s = self.state.borrow_mut();
        s.permit = true;
        if let Some(w) = s.waiters.pop_front() {
            w.wake();
        }
    }

    /// Wait for a notification (or consume a stored permit immediately).
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.notify.state.borrow_mut();
        if s.permit {
            s.permit = false;
            return Poll::Ready(());
        }
        s.waiters.push_back(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    waiters: VecDeque<Waker>,
}

/// A reusable rendezvous barrier for `n` tasks: phase-aligns ranks
/// out-of-band, at no simulated cost (`examples/mpi_halo_exchange.rs`).
#[derive(Clone)]
pub struct Barrier {
    state: Rc<RefCell<BarrierState>>,
}

impl Barrier {
    /// Create a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Barrier {
            state: Rc::new(RefCell::new(BarrierState {
                n,
                arrived: 0,
                generation: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Wait until all `n` participants have arrived, then release together.
    pub async fn wait(&self) {
        let gen = {
            let mut s = self.state.borrow_mut();
            s.arrived += 1;
            if s.arrived == s.n {
                s.arrived = 0;
                s.generation += 1;
                for w in s.waiters.drain(..) {
                    w.wake();
                }
                return;
            }
            s.generation
        };
        std::future::poll_fn(move |cx| {
            let mut s = self.state.borrow_mut();
            if s.generation != gen {
                Poll::Ready(())
            } else {
                s.waiters.push_back(cx.waker().clone());
                Poll::Pending
            }
        })
        .await;
    }
}

// ---------------------------------------------------------------------------
// FifoGate
// ---------------------------------------------------------------------------

struct FifoGateState {
    issued: u64,
    next: u64,
    waiters: VecDeque<Waker>,
}

/// An ordering gate: callers take a numbered ticket, and `enter` admits
/// tickets strictly in issue order. Models in-order delivery guarantees
/// (a TCP byte stream, an InfiniBand reliable connection): an operation
/// that physically finishes early still may not take effect before its
/// predecessors on the same connection.
#[derive(Clone)]
pub struct FifoGate {
    state: Rc<RefCell<FifoGateState>>,
}

impl Default for FifoGate {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoGate {
    /// Create a gate with no outstanding tickets.
    pub fn new() -> Self {
        FifoGate {
            state: Rc::new(RefCell::new(FifoGateState {
                issued: 0,
                next: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Take the next ticket (issue order = program order).
    pub fn ticket(&self) -> u64 {
        let mut s = self.state.borrow_mut();
        let t = s.issued;
        s.issued += 1;
        t
    }

    /// Wait until every earlier ticket has left the gate.
    pub async fn enter(&self, ticket: u64) {
        std::future::poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if s.next == ticket {
                Poll::Ready(())
            } else {
                s.waiters.push_back(cx.waker().clone());
                Poll::Pending
            }
        })
        .await;
    }

    /// Release the gate for the next ticket.
    pub fn leave(&self) {
        let mut s = self.state.borrow_mut();
        s.next += 1;
        for w in s.waiters.drain(..) {
            w.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

struct GroupState {
    /// Members spawned and not yet finished.
    pending: Cell<usize>,
    /// The waiter, registered by its first pending poll of
    /// [`TaskGroup::wait`] and kept: every later finish wakes it.
    waiter: RefCell<Option<Waker>>,
}

impl Joiner for GroupState {
    fn finish(&self) {
        self.pending.set(self.pending.get() - 1);
        if let Some(w) = self.waiter.borrow().as_ref() {
            w.wake_by_ref();
        }
    }
}

/// Spawned tasks one waiter awaits as a whole, in O(1) per wake.
///
/// Members are detached tasks (their outputs are `()`); [`TaskGroup::wait`]
/// completes once all have finished. The waiter is woken once per member
/// that finishes after its first pending poll — exactly the wakes
/// [`join_all`] over the members' [`JoinHandle`](crate::JoinHandle)s
/// delivers, so swapping one for the other keeps every ready-queue
/// position and armed timer.
pub struct TaskGroup {
    state: Rc<GroupState>,
}

impl Default for TaskGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskGroup {
    /// An empty group.
    pub fn new() -> Self {
        TaskGroup {
            state: Rc::new(GroupState {
                pending: Cell::new(0),
                waiter: RefCell::new(None),
            }),
        }
    }

    /// Spawn `fut` on `sim` as a member. Polled in spawn order with every
    /// other task, like [`Sim::spawn_detached`].
    pub fn spawn<F>(&self, sim: &Sim, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.state.pending.set(self.state.pending.get() + 1);
        sim.spawn_joined(fut, Some(Rc::clone(&self.state) as Rc<dyn Joiner>));
    }

    /// Wait until every member spawned so far has finished.
    pub async fn wait(&self) {
        std::future::poll_fn(|cx| {
            if self.state.pending.get() == 0 {
                return Poll::Ready(());
            }
            let mut waiter = self.state.waiter.borrow_mut();
            if !waiter.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                *waiter = Some(cx.waker().clone());
            }
            Poll::Pending
        })
        .await;
    }
}

// ---------------------------------------------------------------------------
// join helpers
// ---------------------------------------------------------------------------

/// Await two futures concurrently, returning both outputs.
pub async fn join2<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    let mut a = Box::pin(a);
    let mut b = Box::pin(b);
    let mut ra = None;
    let mut rb = None;
    std::future::poll_fn(move |cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready((
                ra.take().expect("is_some() checked above"),
                rb.take().expect("is_some() checked above"),
            ))
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Await every future in the vector, returning outputs in input order.
///
/// Every wake re-polls every still-pending future, so a wait costs
/// O(pending) per wake: awaiting `n` [`JoinHandle`](crate::JoinHandle)s
/// that finish one by one is O(n²) polls. Tasks whose outputs nobody
/// needs belong in a [`TaskGroup`], whose wait is O(1) per wake.
pub async fn join_all<F: Future>(futs: Vec<F>) -> Vec<F::Output> {
    let mut pinned: Vec<_> = futs.into_iter().map(Box::pin).collect();
    let mut outs: Vec<Option<F::Output>> = pinned.iter().map(|_| None).collect();
    std::future::poll_fn(move |cx| {
        let mut all = true;
        for (fut, out) in pinned.iter_mut().zip(outs.iter_mut()) {
            if out.is_none() {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => *out = Some(v),
                    Poll::Pending => all = false,
                }
            }
        }
        if all {
            Poll::Ready(
                outs.iter_mut()
                    .map(|o| o.take().expect("`all` implies every slot resolved"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn mpsc_preserves_fifo_order_across_senders() {
        let sim = Sim::new();
        let (tx, mut rx) = mpsc::<u32>();
        for i in 0..4u32 {
            let tx = tx.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(10 * (i as u64 + 1))).await;
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let got = sim.block_on(async move {
            let mut v = Vec::new();
            while let Some(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mpsc_recv_returns_none_after_senders_drop() {
        let sim = Sim::new();
        let (tx, mut rx) = mpsc::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        let got = sim.block_on(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(got, (Some(1), None));
    }

    #[test]
    fn mpsc_send_to_dead_receiver_errors() {
        let (tx, rx) = mpsc::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn notify_stores_one_permit() {
        let sim = Sim::new();
        let n = Notify::new();
        n.notify_one();
        n.notify_one(); // coalesces
        let n2 = n.clone();
        sim.block_on(async move {
            n2.notified().await; // consumes stored permit
        });
        // Second wait must block until notified again.
        let n3 = n.clone();
        sim.spawn({
            let s = sim.clone();
            async move {
                s.sleep(SimDuration::from_nanos(50)).await;
                n.notify_one();
            }
        });
        let t = sim.block_on({
            let s = sim.clone();
            async move {
                n3.notified().await;
                s.now().as_nanos()
            }
        });
        assert_eq!(t, 50);
    }

    #[test]
    fn join2_waits_for_both() {
        let sim = Sim::new();
        let s = sim.clone();
        let (a, b) = sim.block_on(async move {
            join2(
                {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(30)).await;
                        "a"
                    }
                },
                {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(70)).await;
                        "b"
                    }
                },
            )
            .await
        });
        assert_eq!((a, b), ("a", "b"));
        assert_eq!(sim.now().as_nanos(), 70);
    }

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new();
        let futs: Vec<_> = (0..5u64)
            .map(|i| {
                let s = sim.clone();
                async move {
                    // Reverse deadlines: later index finishes earlier.
                    s.sleep(SimDuration::from_nanos(100 - i * 10)).await;
                    i
                }
            })
            .collect();
        let out = sim.block_on(async move { join_all(futs).await });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_task_group_wakes_its_waiter_as_join_all_over_handles_does() {
        // Members finishing before the waiter waits, at one instant
        // together, and one by one after it; each finish also arms a
        // timer, so a moved wake would show in the trace digest.
        fn run(group: bool) -> (u64, u64, u64, u64, u64, u64) {
            let sim = Sim::new();
            let s = sim.clone();
            sim.block_on(async move {
                let tasks = TaskGroup::new();
                let mut handles = Vec::new();
                for d in [0u64, 5, 10, 10, 30, 7, 10] {
                    let s2 = s.clone();
                    let member = async move {
                        s2.sleep(SimDuration::from_nanos(d)).await;
                        s2.spawn_detached({
                            let s3 = s2.clone();
                            async move { s3.sleep(SimDuration::from_nanos(1)).await }
                        });
                    };
                    if group {
                        tasks.spawn(&s, member);
                    } else {
                        handles.push(s.spawn(member));
                    }
                }
                s.sleep(SimDuration::from_nanos(7)).await;
                if group {
                    tasks.wait().await;
                } else {
                    join_all(handles).await;
                }
            });
            let st = sim.stats();
            (
                st.wakes,
                st.redundant_wakes,
                st.polls,
                sim.order_trace_digest(),
                sim.now().as_nanos(),
                sim.run_until_quiescent().as_nanos(),
            )
        }
        assert_eq!(run(true), run(false));
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn barrier_releases_all_participants_together() {
        let sim = Sim::new();
        let bar = Barrier::new(3);
        let mut handles = Vec::new();
        for i in 0..3u64 {
            let bar = bar.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                s.sleep(SimDuration::from_micros(i * 10)).await;
                bar.wait().await;
                s.now().as_nanos()
            }));
        }
        let ends = sim.block_on(async move { join_all(handles).await });
        // Everyone leaves at the last arrival (20 µs).
        assert_eq!(ends, vec![20_000, 20_000, 20_000]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sim = Sim::new();
        let bar = Barrier::new(2);
        let log = std::rc::Rc::new(RefCell::new(Vec::new()));
        for id in 0..2 {
            let bar = bar.clone();
            let s = sim.clone();
            let log = std::rc::Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..3 {
                    s.sleep(SimDuration::from_nanos(10 * (id + 1))).await;
                    bar.wait().await;
                    log.borrow_mut().push((round, id));
                }
            });
        }
        sim.run_until_quiescent();
        // Rounds complete in order; within a round both ids appear.
        let log = log.borrow();
        assert_eq!(log.len(), 6);
        for r in 0..3 {
            let ids: Vec<u64> = log
                .iter()
                .filter(|(round, _)| *round == r)
                .map(|(_, id)| *id)
                .collect();
            assert_eq!(ids.len(), 2, "round {r}");
        }
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let sim = Sim::new();
        let bar = Barrier::new(1);
        sim.block_on(async move {
            bar.wait().await;
            bar.wait().await;
        });
    }
}
