//! The one matched-message engine: two-sided send and receive on 64-bit
//! match bits with an eager/rendezvous switch, written once for every
//! fabric (the CH3 layer of MPICH2, over a channel).
//!
//! MPICH over verbs and MPICH-MX run this same protocol. The paper's
//! queue-usage figures and its LogP receiver overhead contrast two
//! settings of it, and those are the engine's two knobs, each a type the
//! fabric picks:
//!
//! * a [`Matcher`]: where the posted and unexpected lists are walked and
//!   who pays for the walk (the host CPU, or the NIC's match unit), and
//!   which eager copies that placement makes;
//! * a [`Progress`]: who drives a rendezvous once its RTS has met a
//!   receive (the receiving process's MPI calls, or a progression
//!   thread), over its [`Link`].
//!
//! Everything else is here once: the lists (on [`MatchLists`]), the match
//! predicate ([`matches()`]), the switch ([`Protocol`]), `isend` / `irecv`,
//! matching arrivals in connection order, and the [`Request`] both return.

use std::future::Future;
use std::rc::Rc;

use hostmodel::cpu::Cpu;
use hostmodel::mem::{HostMem, MemoryRegistry, VirtAddr};
use hostmodel::nic::MatchLists;
use simnet::sync::FifoGate;
use simnet::{Bytes, Sim};

use crate::fabric::RdmaNic;
use crate::matching::{matches, MatchInfo};
use crate::request::Request;

/// Where matching runs, and what it and the eager copies cost. Every
/// method charges the engine's process `cpu` or the matcher's own unit.
pub trait Matcher: 'static {
    /// Charge the library call that posts a send (`send`) or a receive.
    fn enter(&self, cpu: &Cpu, send: bool) -> impl Future<Output = ()>;

    /// Take an eager send's `len` bytes from the user buffer `buf`: true
    /// if that completes the send (a copy into a bounce buffer), false if
    /// the NIC reads the user buffer and the send completes on delivery.
    fn copy_out(&self, cpu: &Cpu, buf: VirtAddr, len: u64) -> impl Future<Output = bool>;

    /// Copy `n` bytes of matched eager data into the receive buffer `buf`.
    /// `expected`: a posted receive met the message on arrival, rather
    /// than the receive finding it unexpected.
    fn copy_in(&self, cpu: &Cpu, buf: VirtAddr, n: u64, expected: bool)
        -> impl Future<Output = ()>;

    /// Match a message that has passed its connection's in-order `gate`:
    /// `scan` walks the posted list (parking the message on a miss) and
    /// returns the entries walked. The matcher charges the walk and lets
    /// the next message through the gate.
    fn arrive<T>(
        &self,
        cpu: &Cpu,
        gate: &FifoGate,
        scan: impl FnOnce() -> (usize, T),
    ) -> impl Future<Output = T>;

    /// Charge a receive's walk of `walked` unexpected entries.
    fn walk_unexpected(&self, cpu: &Cpu, walked: usize) -> impl Future<Output = ()>;
}

/// Who drives a rendezvous once its RTS has met a receive, and over what.
pub trait Progress: Sized + 'static {
    /// One direction of a connection: what envelopes travel on, and what
    /// this progress moves rendezvous data over.
    type Link: Link;

    /// The RTS of `rndv` met a receive at `to`: move the data, then
    /// [`Rndv::finish`].
    fn rendezvous<M: Matcher>(
        to: &Rc<Engine<M, Self>>,
        rndv: Rndv<Self>,
    ) -> impl Future<Output = ()>;
}

/// One direction of a connection between two engines.
pub trait Link: 'static {
    /// Messages enter matching at the receiver in this gate's ticket order.
    fn order(&self) -> &FifoGate;

    /// Post a `bytes`-long envelope and carry it to the receiving NIC.
    fn carry(&self, bytes: Bytes) -> impl Future<Output = ()>;

    /// Observer: the switch chose `eager` for a `len`-byte send under
    /// `threshold`.
    fn switched(&self, _len: u64, _threshold: Bytes, _eager: bool) {}

    /// Observer: the message holding `ticket` entered matching.
    fn admitted(&self, _ticket: u64) {}
}

/// The eager/rendezvous switch and the wire sizes of one library.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    /// Messages of at least this many bytes go by rendezvous.
    pub rndv_threshold: Bytes,
    /// Wire bytes an eager message adds to its payload.
    pub eager_header: Bytes,
    /// Wire bytes of a rendezvous RTS.
    pub rts_wire: Bytes,
}

/// A rendezvous whose RTS met its receive: what the [`Progress`] moves,
/// and the two requests [`Rndv::finish`] completes.
pub struct Rndv<P: Progress> {
    /// The sender's link to the receiver.
    pub link: Rc<P::Link>,
    /// Real bytes (tests) or `None` (timing-only runs), `n` of them.
    pub payload: Option<Vec<u8>>,
    /// The receive buffer.
    pub raddr: VirtAddr,
    /// Bytes to move: the shorter of the message and the receive buffer.
    pub n: u64,
    bits: MatchInfo,
    sreq: Request,
    rreq: Request,
}

impl<P: Progress> Rndv<P> {
    /// The data has landed: complete the receive, then the send.
    pub fn finish(self) {
        self.rreq.complete(self.n, self.bits);
        self.sreq.complete(self.n, self.bits);
    }
}

struct Posted {
    bits: MatchInfo,
    mask: u64,
    buf: VirtAddr,
    len: u64,
    req: Request,
}

/// A message at the receiver: eager data, or a rendezvous RTS carrying
/// what its progress needs from the sender.
struct Envelope<P: Progress> {
    bits: MatchInfo,
    /// Payload length (the whole message for an RTS).
    len: u64,
    body: Body<P>,
}

enum Body<P: Progress> {
    Eager(Option<Vec<u8>>),
    Rts {
        link: Rc<P::Link>,
        payload: Option<Vec<u8>>,
        sreq: Request,
    },
}

/// Does the posted receive `p` accept the message `e`?
fn fits<P: Progress>(p: &Posted, e: &Envelope<P>) -> bool {
    matches(e.bits, p.bits, p.mask)
}

/// One process's matched-message engine.
pub struct Engine<M: Matcher, P: Progress> {
    sim: Sim,
    cpu: Cpu,
    mem: HostMem,
    registry: MemoryRegistry,
    proto: Protocol,
    matcher: M,
    progress: P,
    lists: MatchLists<Posted, Envelope<P>>,
}

/// A sender's handle on a connection to a remote engine (`mx_endpoint_addr_t`).
pub struct Peer<M: Matcher, P: Progress> {
    to: Rc<Engine<M, P>>,
    link: Rc<P::Link>,
}

impl<M: Matcher, P: Progress> Peer<M, P> {
    /// The connection to `to` over `link`.
    pub fn new(to: &Rc<Engine<M, P>>, link: P::Link) -> Self {
        Peer {
            to: Rc::clone(to),
            link: Rc::new(link),
        }
    }

    /// This direction's link.
    pub fn link(&self) -> &Rc<P::Link> {
        &self.link
    }
}

#[expect(
    clippy::manual_async_fn,
    reason = "a per-message step's async block keeps each argument once; an async fn would copy them"
)]
impl<M: Matcher, P: Progress> Engine<M, P> {
    /// The engine of the process on `cpu`, whose NIC is `nic`.
    pub fn new(
        cpu: &Cpu,
        nic: &impl RdmaNic,
        proto: Protocol,
        matcher: M,
        progress: P,
    ) -> Rc<Self> {
        Rc::new(Engine {
            sim: cpu.sim().clone(),
            cpu: cpu.clone(),
            mem: nic.mem().clone(),
            registry: nic.registry().clone(),
            proto,
            matcher,
            progress,
            lists: MatchLists::default(),
        })
    }

    /// The simulation this engine runs in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The process CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The process's host memory.
    pub fn mem(&self) -> &HostMem {
        &self.mem
    }

    /// The NIC's registration cache.
    pub fn registry(&self) -> &MemoryRegistry {
        &self.registry
    }

    /// The matcher knob.
    pub fn matcher(&self) -> &M {
        &self.matcher
    }

    /// The progress knob.
    pub fn progress(&self) -> &P {
        &self.progress
    }

    /// Untimed: does the unexpected list hold a message `(bits, mask)`
    /// accepts?
    pub fn probe_unexpected(&self, bits: MatchInfo, mask: u64) -> bool {
        self.lists.parked(|e| matches(e.bits, bits, mask))
    }

    /// Bytes one message's task holds while in flight: the future of
    /// the envelope that carries eager data or an RTS and matches it at
    /// the receiver. This is the per-message host footprint.
    pub fn message_footprint() -> usize {
        fn returned<A, B, C, D, E, R>(_: fn(A, B, C, D, E) -> R) -> usize {
            std::mem::size_of::<R>()
        }
        returned(deliver::<M, P>)
    }

    /// Current list lengths `(posted, unexpected)`.
    pub fn depths(&self) -> (usize, usize) {
        self.lists.depths()
    }

    /// Non-blocking send of `len` bytes from `buf` to `to`, matched on
    /// `bits`. `payload` carries real bytes in correctness tests.
    ///
    /// This and the engine's other per-message steps are plain `fn`s
    /// returning an `async move` block: the block keeps each argument
    /// once, where an `async fn` keeps it and a local copy.
    pub fn isend<'a>(
        &'a self,
        to: &'a Peer<M, P>,
        bits: MatchInfo,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> impl Future<Output = Request> + 'a {
        async move {
            self.matcher.enter(&self.cpu, true).await;
            let req = Request::new();
            let eager = Bytes::new(len) < self.proto.rndv_threshold;
            to.link.switched(len, self.proto.rndv_threshold, eager);
            let (wire, body, sreq) = if eager {
                let done = self.matcher.copy_out(&self.cpu, buf, len).await;
                if done {
                    req.complete(len, bits);
                }
                let wire = self.proto.eager_header + Bytes::new(len);
                (wire, Body::Eager(payload), (!done).then(|| req.clone()))
            } else {
                // Pin the user buffer through the NIC's cache, then announce.
                self.registry.register_cached(&self.cpu, buf, len).await;
                let link = Rc::clone(&to.link);
                let sreq = req.clone();
                let rts = Body::Rts {
                    link,
                    payload,
                    sreq,
                };
                (self.proto.rts_wire, rts, None)
            };
            let env = Envelope { bits, len, body };
            let (to, link) = (Rc::clone(&to.to), Rc::clone(&to.link));
            self.sim.spawn_detached(deliver(to, link, env, wire, sreq));
            req
        }
    }

    /// Non-blocking receive of up to `len` bytes into `buf`, of a message
    /// whose bits match `bits` under `mask`.
    pub fn irecv(
        self: &Rc<Self>,
        bits: MatchInfo,
        mask: u64,
        buf: VirtAddr,
        len: u64,
    ) -> impl Future<Output = Request> + '_ {
        async move {
            self.matcher.enter(&self.cpu, false).await;
            let req = Request::new();
            let posted = Posted {
                bits,
                mask,
                buf,
                len,
                req: req.clone(),
            };
            // A miss is posted before the walk is charged.
            let (walked, hit) = self.lists.post(posted, fits);
            self.matcher.walk_unexpected(&self.cpu, walked).await;
            self.matched(hit, false).await;
            req
        }
    }

    /// A posted receive met its message (if `hit`): copy eager data in,
    /// or hand the RTS to the progress knob.
    fn matched(
        self: &Rc<Self>,
        mut hit: Option<(Posted, Envelope<P>)>,
        expected: bool,
    ) -> impl Future<Output = ()> + '_ {
        async move {
            // Matched in place: moving the pair out would store it twice.
            let Some((p, e)) = &mut hit else { return };
            let n = e.len.min(p.len);
            match &mut e.body {
                Body::Eager(payload) => {
                    self.matcher.copy_in(&self.cpu, p.buf, n, expected).await;
                    if let Some(data) = payload.take() {
                        self.mem.write(p.buf, &data[..n as usize]);
                    }
                    p.req.complete(n, e.bits);
                }
                Body::Rts {
                    link,
                    payload,
                    sreq,
                } => {
                    let rndv = Rndv {
                        link: Rc::clone(link),
                        // A receive shorter than the message truncates it.
                        payload: payload.take().map(|mut data| {
                            data.truncate(n as usize);
                            data
                        }),
                        raddr: p.buf,
                        n,
                        bits: e.bits,
                        sreq: sreq.clone(),
                        rreq: p.req.clone(),
                    };
                    // Boxed: a receive's future holds this step, and only
                    // a rendezvous match needs the progress knob's state.
                    Box::pin(P::rendezvous(self, rndv)).await;
                }
            }
        }
    }
}

/// The task of one envelope on `link` to `to`: carry it, enter matching at
/// the receiver in connection order, match it, and complete an eager send
/// the copy did not.
#[expect(
    clippy::manual_async_fn,
    reason = "the async block keeps each argument once; an async fn would copy them"
)]
fn deliver<M: Matcher, P: Progress>(
    to: Rc<Engine<M, P>>,
    link: Rc<P::Link>,
    env: Envelope<P>,
    wire: Bytes,
    sreq: Option<Request>,
) -> impl Future<Output = ()> {
    async move {
        let gate = link.order();
        // Ticket when the task first runs: the connection delivers in that
        // order even when a small late message finishes its crossing first.
        let ticket = gate.ticket();
        link.carry(wire).await;
        gate.enter(ticket).await;
        link.admitted(ticket);
        let (bits, len) = (env.bits, env.len);
        let scan = || to.lists.arrive(env, fits);
        let hit = to.matcher.arrive(&to.cpu, gate, scan).await;
        to.matched(hit, true).await;
        if let Some(req) = sreq {
            req.complete(len, bits);
        }
    }
}
