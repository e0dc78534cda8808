//! Fabric-independent NIC completion vocabulary.
//!
//! All three modelled NICs complete work through completion queues with the
//! same shape of entry; sharing the types keeps the MPI layer and the
//! benchmark suite fabric-generic. Two-sided matching — a posted-receive
//! list and an unexpected-message list — is stated once in [`MatchLists`],
//! under the verbs [`QpQueues`] and the matched-message engine that MPI
//! and MX share (`etherstack::matched`).

use std::cell::RefCell;
use std::collections::VecDeque;

use simnet::sync::Sender;

use crate::mem::{HostMem, VirtAddr};

/// Completion status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CqeStatus {
    /// Operation completed successfully.
    Success,
    /// Remote protection fault (bad key / out-of-bounds access).
    RemoteAccessError,
    /// Incoming message longer than the posted receive buffer.
    LocalLengthError,
}

/// Completed operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CqeOpcode {
    /// One-sided write completion (source side).
    RdmaWrite,
    /// One-sided read completion (data landed locally).
    RdmaRead,
    /// Two-sided send completion (source side).
    Send,
    /// A send consumed this posted receive.
    Recv,
}

/// A completion-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct Cqe {
    /// Work-request correlator supplied at post time.
    pub wr_id: u64,
    /// What completed.
    pub opcode: CqeOpcode,
    /// Outcome.
    pub status: CqeStatus,
    /// Bytes transferred.
    pub len: u64,
}

struct PostedRecv {
    wr_id: u64,
    addr: VirtAddr,
    len: u64,
}

/// A posted-receive list and an unexpected-message list, oldest first.
///
/// A message arriving scans the posted list, and a receive being posted
/// scans the unexpected list; on a miss the newcomer is parked in the same
/// synchronous step, so whatever the other side posts while the caller
/// charges the walk finds it. `fits(recv, msg)`
/// decides a match; among fitting entries the oldest wins. The `walked`
/// count returned is what the caller charges per entry — `i + 1` for a hit
/// at index `i`, the whole list for a miss — on its own clock (host CPU or
/// NIC matching engine).
pub struct MatchLists<R, M> {
    posted: RefCell<VecDeque<R>>,
    unexpected: RefCell<VecDeque<M>>,
}

impl<R, M> Default for MatchLists<R, M> {
    fn default() -> Self {
        MatchLists {
            posted: RefCell::new(VecDeque::new()),
            unexpected: RefCell::new(VecDeque::new()),
        }
    }
}

impl<R, M> MatchLists<R, M> {
    /// `msg` arrived: take the oldest posted receive it fits, or park it.
    pub fn arrive(&self, msg: M, fits: impl Fn(&R, &M) -> bool) -> (usize, Option<(R, M)>) {
        let mut posted = self.posted.borrow_mut();
        match posted.iter().position(|r| fits(r, &msg)) {
            Some(i) => (i + 1, posted.remove(i).map(|r| (r, msg))),
            None => {
                self.unexpected.borrow_mut().push_back(msg);
                (posted.len(), None)
            }
        }
    }

    /// `recv` is posted: take the oldest parked message it fits, or park it.
    pub fn post(&self, recv: R, fits: impl Fn(&R, &M) -> bool) -> (usize, Option<(R, M)>) {
        let mut unexpected = self.unexpected.borrow_mut();
        match unexpected.iter().position(|m| fits(&recv, m)) {
            Some(i) => (i + 1, unexpected.remove(i).map(|m| (recv, m))),
            None => {
                self.posted.borrow_mut().push_back(recv);
                (unexpected.len(), None)
            }
        }
    }

    /// Untimed: does the unexpected list hold a message `want` accepts?
    pub fn parked(&self, want: impl Fn(&M) -> bool) -> bool {
        self.unexpected.borrow().iter().any(want)
    }

    /// Current lengths `(posted, unexpected)`.
    pub fn depths(&self) -> (usize, usize) {
        (self.posted.borrow().len(), self.unexpected.borrow().len())
    }
}

/// The host-visible queues of one verbs QP endpoint: posted receives,
/// sends that arrived before a receive was posted, and the producer side of
/// the completion queue. A send needs a posted receive; one that arrives
/// early waits (the NE010e buffers it on board, an RC HCA retries after an
/// RNR NAK — the timing effect at microbenchmark scale is the same wait)
/// and completes a receive as soon as one is posted.
pub struct QpQueues {
    lists: MatchLists<PostedRecv, (u64, Option<Vec<u8>>)>,
    cq_tx: Sender<Cqe>,
}

impl QpQueues {
    /// Empty queues completing onto `cq_tx`.
    pub fn new(cq_tx: Sender<Cqe>) -> Self {
        QpQueues {
            lists: MatchLists::default(),
            cq_tx,
        }
    }

    /// Raise a completion (dropped if the consumer is gone).
    pub fn complete(&self, cqe: Cqe) {
        let _ = self.cq_tx.send(cqe);
    }

    /// A `len`-byte send arrived: consume the oldest posted receive, or
    /// wait for one. At most `len` bytes of `payload` land.
    pub fn deliver_send(&self, mem: &HostMem, len: u64, payload: Option<Vec<u8>>) {
        if let (_, Some((pr, (len, payload)))) = self.lists.arrive((len, payload), |_, _| true) {
            self.complete_recv(mem, &pr, len, payload);
        }
    }

    /// Post a receive buffer; a send already waiting completes it now.
    pub fn post_recv(&self, mem: &HostMem, wr_id: u64, addr: VirtAddr, len: u64) {
        let pr = PostedRecv { wr_id, addr, len };
        if let (_, Some((pr, (len, payload)))) = self.lists.post(pr, |_, _| true) {
            self.complete_recv(mem, &pr, len, payload);
        }
    }

    fn complete_recv(&self, mem: &HostMem, pr: &PostedRecv, len: u64, payload: Option<Vec<u8>>) {
        if len > pr.len {
            self.complete(Cqe {
                wr_id: pr.wr_id,
                opcode: CqeOpcode::Recv,
                status: CqeStatus::LocalLengthError,
                len: 0,
            });
            return;
        }
        if let Some(p) = payload {
            mem.write(pr.addr, &p[..p.len().min(len as usize)]);
        }
        self.complete(Cqe {
            wr_id: pr.wr_id,
            opcode: CqeOpcode::Recv,
            status: CqeStatus::Success,
            len,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tags a receive accepts (`None` = any) and message tags, with an id
    /// so the test can tell which entry matched.
    type Lists = MatchLists<(u32, Option<u32>), (u32, u32)>;

    fn fits(r: &(u32, Option<u32>), m: &(u32, u32)) -> bool {
        r.1.is_none_or(|t| t == m.1)
    }

    #[test]
    fn match_lists_walk_count_oldest_wins_and_mirror() {
        let l = Lists::default();
        for (i, tag) in [10, 20, 30].into_iter().enumerate() {
            assert_eq!(l.post((i as u32, Some(tag)), fits), (0, None));
        }
        assert_eq!(l.depths(), (3, 0));
        // A hit at index i walks i + 1 entries; a miss walks the whole
        // list and parks.
        assert_eq!(l.arrive((7, 20), fits), (2, Some(((1, Some(20)), (7, 20)))));
        assert_eq!(l.arrive((8, 99), fits), (2, None));
        assert_eq!(l.depths(), (2, 1));
        assert!(l.parked(|m| m.1 == 99) && !l.parked(|m| m.1 == 10));

        // The mirror image: messages parked first, receives scan them, and
        // the oldest fitting message wins over a younger one.
        let l = Lists::default();
        for (i, tag) in [5, 6, 5].into_iter().enumerate() {
            assert_eq!(l.arrive((i as u32, tag), fits), (0, None));
        }
        assert_eq!(l.depths(), (0, 3));
        assert_eq!(
            l.post((9, Some(5)), fits),
            (1, Some(((9, Some(5)), (0, 5))))
        );
        assert_eq!(l.post((9, None), fits), (1, Some(((9, None), (1, 6)))));
        assert_eq!(l.post((9, Some(4)), fits), (1, None));
        assert_eq!(l.depths(), (1, 1));
    }

    #[test]
    fn cqe_is_small_and_copyable() {
        // CQEs are produced per message on hot paths; keep them register
        // sized (2 words payload + discriminants).
        assert!(std::mem::size_of::<Cqe>() <= 32);
        let c = Cqe {
            wr_id: 1,
            opcode: CqeOpcode::Send,
            status: CqeStatus::Success,
            len: 8,
        };
        let d = c; // Copy
        assert_eq!(d.wr_id, c.wr_id);
    }
}
