//! The non-blocking request handle of the [`crate::matched`] engine: what
//! `isend` / `irecv` return, on every fabric (`MPI_Request`, `mx_request_t`).

use std::cell::Cell;
use std::rc::Rc;

use simnet::sync::Notify;

use crate::matching::MatchInfo;

/// Completion record of a finished request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Bytes transferred.
    pub len: u64,
    /// Match bits of the message: a receive reports the sender's (how MPI
    /// recovers `MPI_ANY_SOURCE` and `MPI_ANY_TAG`), a send its own.
    pub bits: MatchInfo,
}

struct ReqState {
    done: Cell<bool>,
    status: Cell<Status>,
    notify: Notify,
}

/// A non-blocking operation handle. Only the engine completes one.
#[derive(Clone)]
pub struct Request {
    state: Rc<ReqState>,
}

impl Request {
    /// A pending request.
    pub(crate) fn new() -> Self {
        Request {
            state: Rc::new(ReqState {
                done: Cell::new(false),
                status: Cell::new(Status {
                    len: 0,
                    bits: MatchInfo(0),
                }),
                notify: Notify::new(),
            }),
        }
    }

    /// Mark complete and wake the waiter.
    pub(crate) fn complete(&self, len: u64, bits: MatchInfo) {
        self.state.status.set(Status { len, bits });
        self.state.done.set(true);
        self.state.notify.notify_one();
    }

    /// `MPI_Test`: non-blocking completion probe.
    pub fn test(&self) -> Option<Status> {
        self.state.done.get().then(|| self.state.status.get())
    }

    /// `MPI_Wait` / `mx_wait`: block (in virtual time) until complete.
    pub async fn wait(&self) -> Status {
        while !self.state.done.get() {
            self.state.notify.notified().await;
        }
        self.state.status.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Sim, SimDuration};

    #[test]
    fn test_returns_none_until_complete() {
        let r = Request::new();
        assert!(r.test().is_none());
        r.complete(5, MatchInfo(9));
        assert_eq!(r.test().unwrap().len, 5);
    }

    #[test]
    fn wait_blocks_until_completion() {
        let sim = Sim::new();
        let r = Request::new();
        let r2 = r.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(3)).await;
            r2.complete(1, MatchInfo(0));
        });
        let t = sim.block_on({
            let sim = sim.clone();
            async move {
                r.wait().await;
                sim.now().as_nanos()
            }
        });
        assert_eq!(t, 3_000);
    }

    #[test]
    fn wait_after_completion_is_immediate() {
        let sim = Sim::new();
        let r = Request::new();
        r.complete(2, MatchInfo(7));
        let st = sim.block_on(async move { r.wait().await });
        assert_eq!(st.bits, MatchInfo(7));
    }
}
