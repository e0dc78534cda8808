//! MX-10G conformance oracles: matching order and eager/rendezvous
//! switchover.

use crate::{note_check, record, Rule, Violation};

const FABRIC: &str = "mx10g";

/// Matching-order oracle: MX guarantees receives match sends in posted
/// order per source — the model enforces it with an in-order delivery gate,
/// and the oracle mirrors the gate's ticket sequence.
#[derive(Debug, Default)]
pub struct MatchOrderOracle {
    next: u64,
    conn: u64,
}

impl MatchOrderOracle {
    pub fn new(conn: u64) -> Self {
        MatchOrderOracle { next: 0, conn }
    }

    /// Observe a send admitted to matching with `ticket`; tickets must be
    /// consecutive from zero.
    pub fn observe_match(&mut self, ticket: u64, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::MxMatchOrder);
        let fired = if ticket != self.next {
            Some(record(Violation {
                rule: Rule::MxMatchOrder,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn: self.conn,
                detail: format!(
                    "send matched with ticket {ticket}, expected {} (matching out of order)",
                    self.next
                ),
            }))
        } else {
            None
        };
        self.next = ticket + 1;
        fired
    }
}

/// Eager/rendezvous switchover oracle: the protocol choice must agree with
/// the calibrated threshold — eager iff `len < threshold`.
pub fn check_rndv_switch(
    len: u64,
    threshold: u64,
    chose_eager: bool,
    conn: u64,
    now_ns: Option<u64>,
) -> Option<Violation> {
    note_check(Rule::MxRndvSwitch);
    let want_eager = len < threshold;
    if chose_eager != want_eager {
        return Some(record(Violation {
            rule: Rule::MxRndvSwitch,
            sim_time_ns: now_ns,
            fabric: FABRIC,
            conn,
            detail: format!(
                "{} chosen for len {len} with rndv threshold {threshold}",
                if chose_eager { "eager" } else { "rendezvous" }
            ),
        }));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_order_oracle_accepts_consecutive_tickets() {
        let mut o = MatchOrderOracle::new(1);
        for t in 0..5 {
            assert_eq!(o.observe_match(t, None), None);
        }
    }

    #[test]
    fn match_order_oracle_fires_on_reorder() {
        // Seeded corruption: ticket 2 matches before ticket 1.
        let mut o = MatchOrderOracle::new(1);
        assert_eq!(o.observe_match(0, None), None);
        let v = o.observe_match(2, Some(30)).expect("must fire");
        assert_eq!(v.rule, Rule::MxMatchOrder);
        assert!(v.detail.contains("out of order"), "{}", v.detail);
    }

    #[test]
    fn rndv_switch_oracle_respects_threshold_boundary() {
        // len below threshold must be eager, at/above must be rendezvous.
        assert_eq!(check_rndv_switch(31, 32, true, 0, None), None);
        assert_eq!(check_rndv_switch(32, 32, false, 0, None), None);
        assert_eq!(check_rndv_switch(100_000, 32_768, false, 0, None), None);
    }

    #[test]
    fn rndv_switch_oracle_fires_on_wrong_protocol() {
        // Seeded corruption: eager chosen at the threshold.
        let v = check_rndv_switch(32, 32, true, 5, Some(2)).expect("must fire");
        assert_eq!(v.rule, Rule::MxRndvSwitch);
        assert!(v.detail.contains("eager chosen"), "{}", v.detail);
        let v = check_rndv_switch(8, 32, false, 5, None).expect("must fire");
        assert!(v.detail.contains("rendezvous chosen"), "{}", v.detail);
    }
}
