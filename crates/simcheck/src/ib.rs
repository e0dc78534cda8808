//! InfiniBand conformance oracles: QP state-machine legality and WQE→CQE
//! completion ordering.

use crate::{note_check, record, Rule, Violation};

const FABRIC: &str = "ib";

/// IB QP states (the subset the connected-RC model traverses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    Reset,
    Init,
    Rtr,
    Rts,
    Error,
}

impl QpState {
    fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::Init => "INIT",
            QpState::Rtr => "RTR",
            QpState::Rts => "RTS",
            QpState::Error => "ERROR",
        }
    }

    /// Variant spelling as it appears in [`QP_FSM_TABLE`] rows (and in the
    /// `infiniband` crate's `QpPhase` machine).
    fn table_name(self) -> &'static str {
        match self {
            QpState::Reset => "Reset",
            QpState::Init => "Init",
            QpState::Rtr => "Rtr",
            QpState::Rts => "Rts",
            QpState::Error => "Error",
        }
    }
}

/// Legal QP transitions, `(from, event, to)` with `"*"` matching any state:
/// the bring-up ladder RESET → INIT → RTR → RTS, a fall to ERROR from
/// anywhere, and a tear-down back to RESET from anywhere. This table is the
/// oracle's single source of legality ([`QpStateOracle::observe_transition`]
/// consults it via [`crate::fsm_legal_transition`]), and simlint
/// statically diffs it against `infiniband::verbs::fsm_next`
/// (rule `fsm-drift`).
pub const QP_FSM_TABLE: crate::FsmTable = &[
    ("Reset", "BringUp", "Init"),
    ("Init", "BringUp", "Rtr"),
    ("Rtr", "BringUp", "Rts"),
    ("*", "Fatal", "Error"),
    ("*", "TearDown", "Reset"),
];

/// QP state-machine oracle: transitions must follow
/// RESET → INIT → RTR → RTS (any state may fall to ERROR); work requests
/// are only legal in states that admit them.
#[derive(Debug)]
pub struct QpStateOracle {
    state: QpState,
    qpn: u64,
}

impl QpStateOracle {
    /// A freshly created QP starts in RESET.
    pub fn new(qpn: u64) -> Self {
        QpStateOracle {
            state: QpState::Reset,
            qpn,
        }
    }

    fn fire(&self, detail: String, now_ns: Option<u64>) -> Violation {
        record(Violation {
            rule: Rule::IbQpState,
            sim_time_ns: now_ns,
            fabric: FABRIC,
            conn: self.qpn,
            detail,
        })
    }

    /// Observe a modify-QP transition to `to`. Legality is read off
    /// [`QP_FSM_TABLE`]: a modify-QP call does not name its event, so any
    /// row admitting `from → to` makes the transition legal.
    pub fn observe_transition(&mut self, to: QpState, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::IbQpState);
        let legal =
            crate::fsm_legal_transition(QP_FSM_TABLE, self.state.table_name(), to.table_name());
        let fired = if legal {
            None
        } else {
            Some(self.fire(
                format!(
                    "illegal QP transition {} -> {}",
                    self.state.name(),
                    to.name()
                ),
                now_ns,
            ))
        };
        self.state = to;
        fired
    }

    /// Observe a send-side work request (send queue posts require RTS).
    pub fn observe_post_send(&mut self, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::IbQpState);
        if self.state == QpState::Rts {
            None
        } else {
            Some(self.fire(
                format!("send WR posted in state {}", self.state.name()),
                now_ns,
            ))
        }
    }

    /// Observe a receive-side post (legal from INIT onward).
    pub fn observe_post_recv(&mut self, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::IbQpState);
        if matches!(self.state, QpState::Init | QpState::Rtr | QpState::Rts) {
            None
        } else {
            Some(self.fire(
                format!("recv WR posted in state {}", self.state.name()),
                now_ns,
            ))
        }
    }
}

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
    fn qp_bringup_sequence_is_clean() {
        let mut o = QpStateOracle::new(1);
        assert_eq!(
            o.observe_post_send(None).map(|v| v.rule),
            Some(Rule::IbQpState)
        );
        let mut o = QpStateOracle::new(1);
        assert_eq!(o.observe_transition(QpState::Init, None), None);
        assert_eq!(o.observe_post_recv(None), None);
        assert_eq!(o.observe_transition(QpState::Rtr, None), None);
        assert_eq!(o.observe_transition(QpState::Rts, None), None);
        assert_eq!(o.observe_post_send(Some(5)), None);
    }

    #[test]
    fn qp_oracle_fires_on_skipped_state() {
        // Seeded corruption: jump RESET -> RTS without INIT/RTR.
        let mut o = QpStateOracle::new(3);
        let v = o
            .observe_transition(QpState::Rts, Some(1))
            .expect("must fire");
        assert_eq!(v.rule, Rule::IbQpState);
        assert!(v.detail.contains("RESET -> RTS"), "{}", v.detail);
    }

    #[test]
    fn qp_oracle_fires_on_send_before_rts() {
        let mut o = QpStateOracle::new(3);
        o.observe_transition(QpState::Init, None);
        let v = o.observe_post_send(None).expect("must fire");
        assert!(v.detail.contains("state INIT"), "{}", v.detail);
    }

    #[test]
    fn qp_table_reproduces_legacy_legality_exactly() {
        // The table-driven check must be extensionally identical to the
        // hand-written `matches!` it replaced, over all 25 state pairs.
        use QpState::{Error, Init, Reset, Rtr, Rts};
        for from in [Reset, Init, Rtr, Rts, Error] {
            for to in [Reset, Init, Rtr, Rts, Error] {
                let legacy = matches!(
                    (from, to),
                    (Reset, Init) | (Init, Rtr) | (Rtr, Rts) | (_, Error) | (_, Reset)
                );
                assert_eq!(
                    crate::fsm_legal_transition(QP_FSM_TABLE, from.table_name(), to.table_name()),
                    legacy,
                    "{from:?} -> {to:?}"
                );
            }
        }
    }

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
