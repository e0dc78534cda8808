//! InfiniBand conformance oracle: WQE→CQE completion ordering. QP
//! state-machine legality (rule `ib.qp-state`) is a [`crate::FsmOracle`]
//! over `infiniband::verbs::fsm_next`.

use crate::{note_check, record, Rule, Violation};

const FABRIC: &str = "ib";

/// WQE→CQE ordering oracle: completions on a QP's send queue must be
/// reported in post order. Each post takes a sequence number; each
/// completion must carry the next unconsumed one.
#[derive(Debug, Default)]
pub struct CqOrderOracle {
    next_post: u64,
    next_completion: u64,
    qpn: u64,
}

impl CqOrderOracle {
    pub fn new(qpn: u64) -> Self {
        CqOrderOracle {
            next_post: 0,
            next_completion: 0,
            qpn,
        }
    }

    /// Record a posted WQE; returns its sequence number for the matching
    /// [`observe_completion`](Self::observe_completion) call.
    pub fn on_post(&mut self) -> u64 {
        let seq = self.next_post;
        self.next_post += 1;
        seq
    }

    /// Observe a CQE for the WQE posted as `seq`.
    pub fn observe_completion(&mut self, seq: u64, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::IbCqOrder);
        let fired = if seq != self.next_completion {
            Some(record(Violation {
                rule: Rule::IbCqOrder,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn: self.qpn,
                detail: format!(
                    "CQE for WQE #{seq} but #{} completes next (out of post order)",
                    self.next_completion
                ),
            }))
        } else {
            None
        };
        self.next_completion = seq + 1;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cq_oracle_accepts_in_order_completions() {
        let mut o = CqOrderOracle::new(7);
        let a = o.on_post();
        let b = o.on_post();
        assert_eq!(o.observe_completion(a, None), None);
        assert_eq!(o.observe_completion(b, None), None);
    }

    #[test]
    fn cq_oracle_fires_on_reordered_completion() {
        // Seeded corruption: complete the second WQE before the first.
        let mut o = CqOrderOracle::new(7);
        let _a = o.on_post();
        let b = o.on_post();
        let v = o.observe_completion(b, Some(10)).expect("must fire");
        assert_eq!(v.rule, Rule::IbCqOrder);
        assert!(v.detail.contains("out of post order"), "{}", v.detail);
    }
}
