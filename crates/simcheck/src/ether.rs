//! Ethernet-stack conformance oracles: TCP sequence continuity and frame
//! wire accounting (FCS/CRC coverage).

use crate::{note_check, record, Rule, Violation};

const FABRIC: &str = "ether";

/// Ethernet wire constants, mirrored from `etherstack::frame` (simcheck is
/// dependency-free, and an independent restatement is the point).
const ETH_HEADER_LEN: u64 = 14;
const ETH_FCS_LEN: u64 = 4;
const ETH_MIN_FRAME: u64 = 64;
const ETH_PREAMBLE_LEN: u64 = 8;
const ETH_IFG_LEN: u64 = 12;

/// Transmit-side TCP sequence oracle: the segmenter must emit contiguous
/// sequence numbers, each segment starting where the previous ended
/// (mod 2^32).
#[derive(Debug, Default)]
pub struct TcpTxOracle {
    next: Option<u32>,
    conn: u64,
}

impl TcpTxOracle {
    /// An oracle whose cursor starts at the stream's initial sequence
    /// number: the very first emitted segment is checked against the true
    /// origin (the `Default` oracle accepts it blindly).
    pub fn with_origin(conn: u64, isn: u32) -> Self {
        TcpTxOracle {
            next: Some(isn),
            conn,
        }
    }

    /// Observe one emitted segment `(seq, len)`.
    pub fn observe_segment(
        &mut self,
        seq: u32,
        len: u32,
        now_ns: Option<u64>,
    ) -> Option<Violation> {
        note_check(Rule::TcpSeq);
        let fired = match self.next {
            Some(want) if want != seq => Some(record(Violation {
                rule: Rule::TcpSeq,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn: self.conn,
                detail: format!("segment seq {seq} but stream continues at {want}"),
            })),
            _ => None,
        };
        self.next = Some(seq.wrapping_add(len));
        fired
    }
}

/// Receive-side TCP sequence oracle: the reassembler's expected-sequence
/// cursor must advance exactly by the bytes it delivered, and never move
/// backwards between calls.
#[derive(Debug, Default)]
pub struct TcpRxOracle {
    expected: Option<u32>,
    conn: u64,
}

impl TcpRxOracle {
    /// An oracle whose cursor starts at the stream's initial sequence
    /// number: the first `observe_advance` is checked against the true
    /// origin (the `Default` oracle accepts it blindly).
    pub fn with_origin(conn: u64, isn: u32) -> Self {
        TcpRxOracle {
            expected: Some(isn),
            conn,
        }
    }

    /// Observe one `offer()` call: `before`/`after` are the reassembler's
    /// expected-sequence cursor around the call, `delivered` the bytes it
    /// appended to the assembled stream.
    pub fn observe_advance(
        &mut self,
        before: u32,
        after: u32,
        delivered: u32,
        now_ns: Option<u64>,
    ) -> Option<Violation> {
        note_check(Rule::TcpSeq);
        let mk = |detail: String, conn: u64| {
            record(Violation {
                rule: Rule::TcpSeq,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn,
                detail,
            })
        };
        let mut fired = None;
        if let Some(want) = self.expected {
            if before != want {
                fired = Some(mk(
                    format!("expected-seq cursor jumped from {want} to {before} between offers"),
                    self.conn,
                ));
            }
        }
        if fired.is_none() && after != before.wrapping_add(delivered) {
            fired = Some(mk(
                format!(
                    "expected-seq advanced {before} -> {after} but {delivered} bytes delivered"
                ),
                self.conn,
            ));
        }
        self.expected = Some(after);
        fired
    }
}

/// Frame wire-accounting oracle: `wire` must equal the independently
/// recomputed on-the-wire cost of an `l2_payload`-byte frame — header,
/// FCS (the CRC trailer), padding to the 64-byte minimum frame, preamble
/// and inter-frame gap. A `wire` value that drops the 4 FCS bytes (CRC not
/// covered by the timing model) fires here.
pub fn check_wire_accounting(l2_payload: u64, wire: u64, now_ns: Option<u64>) -> Option<Violation> {
    note_check(Rule::EthFrame);
    let framed = (l2_payload + ETH_HEADER_LEN + ETH_FCS_LEN).max(ETH_MIN_FRAME);
    let want = framed + ETH_PREAMBLE_LEN + ETH_IFG_LEN;
    if wire != want {
        return Some(record(Violation {
            rule: Rule::EthFrame,
            sim_time_ns: now_ns,
            fabric: FABRIC,
            conn: 0,
            detail: format!(
                "wire accounting for {l2_payload}-byte payload is {wire}, \
                 recomputed {want} (header {ETH_HEADER_LEN} + FCS {ETH_FCS_LEN} + \
                 min-frame {ETH_MIN_FRAME} pad + preamble {ETH_PREAMBLE_LEN} + IFG {ETH_IFG_LEN})"
            ),
        }));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_oracle_accepts_contiguous_segments() {
        let mut o = TcpTxOracle::default();
        assert_eq!(o.observe_segment(0, 1460, None), None);
        assert_eq!(o.observe_segment(1460, 1460, None), None);
        assert_eq!(o.observe_segment(2920, 40, None), None);
    }

    #[test]
    fn tx_oracle_accepts_wraparound() {
        let mut o = TcpTxOracle::default();
        assert_eq!(o.observe_segment(u32::MAX - 99, 100, None), None);
        assert_eq!(o.observe_segment(0, 10, None), None);
    }

    #[test]
    fn tx_oracle_fires_on_gap() {
        // Seeded corruption: skip 100 bytes of sequence space.
        let mut o = TcpTxOracle::default();
        assert_eq!(o.observe_segment(0, 1460, None), None);
        let v = o.observe_segment(1560, 1460, Some(4)).expect("must fire");
        assert_eq!(v.rule, Rule::TcpSeq);
        assert!(v.detail.contains("continues at 1460"), "{}", v.detail);
    }

    #[test]
    fn tx_oracle_with_origin_fires_when_first_segment_misses_isn() {
        // Seeded corruption: stream claims ISN 5000 but first segment
        // starts at 0 — the blind `Default` oracle would accept this.
        let mut o = TcpTxOracle::with_origin(1, 5000);
        let v = o.observe_segment(0, 100, None).expect("must fire");
        assert!(v.detail.contains("continues at 5000"), "{}", v.detail);
        let mut ok = TcpTxOracle::with_origin(1, 5000);
        assert_eq!(ok.observe_segment(5000, 100, None), None);
    }

    #[test]
    fn rx_oracle_with_origin_fires_when_first_advance_misses_isn() {
        let mut o = TcpRxOracle::with_origin(2, 5000);
        let v = o.observe_advance(0, 100, 100, None).expect("must fire");
        assert!(v.detail.contains("jumped"), "{}", v.detail);
        let mut ok = TcpRxOracle::with_origin(2, 5000);
        assert_eq!(ok.observe_advance(5000, 5100, 100, None), None);
    }

    #[test]
    fn rx_oracle_accepts_exact_advance() {
        let mut o = TcpRxOracle::default();
        assert_eq!(o.observe_advance(0, 1460, 1460, None), None);
        assert_eq!(o.observe_advance(1460, 1460, 0, None), None); // out-of-order hold
        assert_eq!(o.observe_advance(1460, 4380, 2920, None), None); // drain
    }

    #[test]
    fn rx_oracle_fires_on_phantom_advance() {
        // Seeded corruption: cursor advances without delivering bytes.
        let mut o = TcpRxOracle::default();
        assert_eq!(o.observe_advance(0, 1460, 1460, None), None);
        let v = o
            .observe_advance(1460, 2920, 0, Some(8))
            .expect("must fire");
        assert!(v.detail.contains("0 bytes delivered"), "{}", v.detail);
    }

    #[test]
    fn rx_oracle_fires_on_cursor_jump_between_offers() {
        let mut o = TcpRxOracle::default();
        assert_eq!(o.observe_advance(0, 1460, 1460, None), None);
        let v = o.observe_advance(2000, 2000, 0, None).expect("must fire");
        assert!(v.detail.contains("jumped"), "{}", v.detail);
    }

    #[test]
    fn wire_accounting_accepts_correct_values() {
        // 1460B payload: 1460 + 18 framing, + 20 preamble/IFG.
        assert_eq!(check_wire_accounting(1460, 1498, None), None);
        // Tiny payload pads to the 64B minimum frame.
        assert_eq!(check_wire_accounting(1, 84, None), None);
        assert_eq!(check_wire_accounting(46, 84, None), None);
        assert_eq!(check_wire_accounting(47, 85, None), None);
    }

    #[test]
    fn wire_accounting_fires_when_fcs_dropped() {
        // Seeded corruption: accounting that forgets the 4-byte CRC trailer.
        let v = check_wire_accounting(1460, 1494, Some(11)).expect("must fire");
        assert_eq!(v.rule, Rule::EthFrame);
        assert!(v.detail.contains("recomputed 1498"), "{}", v.detail);
    }
}
