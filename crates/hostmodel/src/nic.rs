//! Fabric-independent NIC completion vocabulary.
//!
//! All three modelled NICs complete work through completion queues with the
//! same shape of entry; sharing the types keeps the MPI layer and the
//! benchmark suite fabric-generic. The two verbs fabrics also share their
//! two-sided receive semantics, stated once in [`QpQueues`].

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

/// The host-visible queues of one verbs QP endpoint: posted receives,
/// sends that arrived before a receive was posted, and the producer side of
/// the completion queue. A send needs a posted receive; one that arrives
/// early waits (the NE010e buffers it on board, an RC HCA retries after an
/// RNR NAK — the timing effect at microbenchmark scale is the same wait)
/// and completes a receive as soon as one is posted.
pub struct QpQueues {
    posted: RefCell<VecDeque<PostedRecv>>,
    unmatched: RefCell<VecDeque<(u64, Option<Vec<u8>>)>>,
    cq_tx: Sender<Cqe>,
}

impl QpQueues {
    /// Empty queues completing onto `cq_tx`.
    pub fn new(cq_tx: Sender<Cqe>) -> Self {
        QpQueues {
            posted: RefCell::new(VecDeque::new()),
            unmatched: RefCell::new(VecDeque::new()),
            cq_tx,
        }
    }

    /// Raise a completion (dropped if the consumer is gone).
    pub fn complete(&self, cqe: Cqe) {
        let _ = self.cq_tx.send(cqe);
    }

    /// A `len`-byte send arrived: consume the oldest posted receive, or
    /// wait for one.
    pub fn deliver_send(&self, mem: &HostMem, len: u64, payload: Option<Vec<u8>>) {
        let posted = self.posted.borrow_mut().pop_front();
        match posted {
            Some(pr) => self.complete_recv(mem, &pr, len, payload),
            None => self.unmatched.borrow_mut().push_back((len, payload)),
        }
    }

    /// Post a receive buffer; a send already waiting completes it now.
    pub fn post_recv(&self, mem: &HostMem, wr_id: u64, addr: VirtAddr, len: u64) {
        let pr = PostedRecv { wr_id, addr, len };
        let pending = self.unmatched.borrow_mut().pop_front();
        match pending {
            Some((slen, payload)) => self.complete_recv(mem, &pr, slen, payload),
            None => self.posted.borrow_mut().push_back(pr),
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
            mem.write(pr.addr, &p);
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
