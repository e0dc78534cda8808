//! iWARP conformance oracles: MPA framing, DDP MSN ordering, RDMAP Read
//! accounting. The RDMAP stream phase (rule `iwarp.rdmap-state`) is a
//! [`crate::FsmOracle`] over `iwarp::verbs::fsm_next`.
//!
//! The framing check recomputes the MPA invariants (RFC 5044) independently
//! of `iwarp::mpa` — marker placement, back-pointers, pad, and CRC-32C —
//! so a regression in the framer cannot hide behind the deframer agreeing
//! with it.

use crate::{note_check, record, Rule, Violation};
use std::collections::BTreeMap;

const FABRIC: &str = "iwarp";

/// MPA marker spacing (RFC 5044). Mirrored locally — simcheck is
/// dependency-free by design, so constants are restated rather than
/// imported from `iwarp`.
const MARKER_INTERVAL: u64 = 512;
const MARKER_LEN: usize = 4;

/// Bitwise CRC-32C (Castagnoli, reflected polynomial 0x82F63B78). Slow but
/// independent of `etherstack::crc` — the point of the oracle is to verify
/// the production framer against a second implementation.
fn crc32c_ref(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0x82F6_3B78 & mask);
        }
    }
    !crc
}

fn violation(rule: Rule, conn: u64, detail: String) -> Violation {
    record(Violation {
        rule,
        sim_time_ns: None,
        fabric: FABRIC,
        conn,
        detail,
    })
}

/// Verify one framed FPDU as emitted by the MPA framer.
///
/// `fpdu_start` is the TCP stream position at which the FPDU begins (the
/// framer's `stream_pos` before the call), `out` the emitted stream bytes,
/// `markers` whether marker insertion was negotiated. Checks, in order:
/// marker placement at every 512-byte stream position with a correct
/// back-pointer and zeroed reserved bytes, the framed length equation
/// `2 + ULPDU + pad + 4`, zero padding, and the CRC-32C trailer.
pub fn check_mpa_frame(fpdu_start: u64, out: &[u8], markers: bool, conn: u64) -> Option<Violation> {
    note_check(Rule::MpaFraming);
    // Walk the emitted bytes, stripping (and checking) markers to recover
    // the logical FPDU.
    let mut logical: Vec<u8> = Vec::with_capacity(out.len());
    let mut pos = fpdu_start;
    let mut idx = 0usize;
    while idx < out.len() {
        if markers && pos.is_multiple_of(MARKER_INTERVAL) && pos != 0 {
            if idx + MARKER_LEN > out.len() {
                return Some(violation(
                    Rule::MpaFraming,
                    conn,
                    format!("truncated marker at stream pos {pos}"),
                ));
            }
            if out[idx] != 0 || out[idx + 1] != 0 {
                return Some(violation(
                    Rule::MpaFraming,
                    conn,
                    format!("marker reserved bytes nonzero at stream pos {pos}"),
                ));
            }
            let back = u64::from(u16::from_be_bytes([out[idx + 2], out[idx + 3]]));
            if pos.checked_sub(back) != Some(fpdu_start) {
                return Some(violation(
                    Rule::MpaFraming,
                    conn,
                    format!(
                        "marker back-pointer {back} at stream pos {pos} does not reach \
                         FPDU start {fpdu_start}"
                    ),
                ));
            }
            idx += MARKER_LEN;
            pos += MARKER_LEN as u64;
            continue;
        }
        logical.push(out[idx]);
        idx += 1;
        pos += 1;
    }
    if logical.len() < 6 {
        return Some(violation(
            Rule::MpaFraming,
            conn,
            format!("FPDU shorter than minimal framing: {} bytes", logical.len()),
        ));
    }
    let ulen = u16::from_be_bytes([logical[0], logical[1]]) as usize;
    let pad = (4 - (2 + ulen) % 4) % 4;
    let want = 2 + ulen + pad + 4;
    if logical.len() != want {
        return Some(violation(
            Rule::MpaFraming,
            conn,
            format!(
                "framed length {} != 2 + {ulen} (ULPDU) + {pad} (pad) + 4 (CRC) = {want}",
                logical.len()
            ),
        ));
    }
    if logical[2 + ulen..2 + ulen + pad].iter().any(|&b| b != 0) {
        return Some(violation(
            Rule::MpaFraming,
            conn,
            "nonzero pad bytes".to_owned(),
        ));
    }
    let (body, crc_bytes) = logical.split_at(want - 4);
    let got = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let want_crc = crc32c_ref(body);
    if got != want_crc {
        return Some(violation(
            Rule::MpaFraming,
            conn,
            format!("CRC-32C mismatch: frame carries {got:#010x}, recomputed {want_crc:#010x}"),
        ));
    }
    None
}

/// Codec-level DDP untagged MSN oracle: completed messages on each queue
/// must carry strictly increasing MSNs.
#[derive(Debug, Default)]
pub struct DdpMsnOracle {
    last: BTreeMap<u32, u32>,
    conn: u64,
}

impl DdpMsnOracle {
    /// Observe a completed untagged message on queue `qn` with sequence
    /// number `msn`.
    pub fn observe_complete(&mut self, qn: u32, msn: u32) -> Option<Violation> {
        note_check(Rule::DdpMsn);
        let fired = match self.last.get(&qn) {
            Some(&prev) if msn <= prev => Some(violation(
                Rule::DdpMsn,
                self.conn,
                format!("queue {qn}: completed MSN {msn} after MSN {prev} (not increasing)"),
            )),
            _ => None,
        };
        self.last.insert(qn, msn);
        fired
    }
}

/// Verbs-level delivery-order oracle: the in-order gate admits exactly one
/// delivery per issued ticket, in issue order — the timing-model analogue
/// of consecutive MSNs on an untagged queue.
#[derive(Debug, Default)]
pub struct DeliveryOrderOracle {
    next: u64,
    conn: u64,
}

impl DeliveryOrderOracle {
    pub fn new(conn: u64) -> Self {
        DeliveryOrderOracle { next: 0, conn }
    }

    /// Observe a delivery admitted with `ticket`; tickets must be
    /// consecutive from zero.
    pub fn observe_delivery(&mut self, ticket: u64, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::DdpMsn);
        let fired = if ticket != self.next {
            Some(record(Violation {
                rule: Rule::DdpMsn,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn: self.conn,
                detail: format!("delivery ticket {ticket}, expected {} (MSN gap)", self.next),
            }))
        } else {
            None
        };
        self.next = ticket + 1;
        fired
    }
}

/// The part of RDMAP legality a stream phase cannot express: a Read
/// Response needs an outstanding Read Request on its stream.
#[derive(Debug)]
pub struct RdmapStateOracle {
    outstanding_reads: u64,
    conn: u64,
}

impl RdmapStateOracle {
    pub fn new(conn: u64) -> Self {
        RdmapStateOracle {
            outstanding_reads: 0,
            conn,
        }
    }

    /// A Read Request was posted on the stream.
    pub fn on_read_request(&mut self) {
        self.outstanding_reads += 1;
    }

    /// Observe a Read Response arriving for this stream's requester.
    pub fn observe_read_response(&mut self, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::RdmapState);
        if self.outstanding_reads == 0 {
            return Some(record(Violation {
                rule: Rule::RdmapState,
                sim_time_ns: now_ns,
                fabric: FABRIC,
                conn: self.conn,
                detail: "Read Response without outstanding Read Request".to_owned(),
            }));
        }
        self.outstanding_reads -= 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a well-formed FPDU byte stream the way the production framer
    /// does, with markers relative to `fpdu_start`.
    fn good_frame(fpdu_start: u64, ulpdu: &[u8], markers: bool) -> Vec<u8> {
        let pad = (4 - (2 + ulpdu.len()) % 4) % 4;
        let mut fpdu = Vec::new();
        fpdu.extend_from_slice(&(ulpdu.len() as u16).to_be_bytes());
        fpdu.extend_from_slice(ulpdu);
        fpdu.extend(std::iter::repeat_n(0u8, pad));
        let crc = crc32c_ref(&fpdu);
        fpdu.extend_from_slice(&crc.to_be_bytes());
        if !markers {
            return fpdu;
        }
        let mut pos = fpdu_start;
        let mut out = Vec::new();
        for &b in &fpdu {
            if pos.is_multiple_of(MARKER_INTERVAL) && pos != 0 {
                let back = (pos - fpdu_start) as u16;
                out.extend_from_slice(&0u16.to_be_bytes());
                out.extend_from_slice(&back.to_be_bytes());
                pos += MARKER_LEN as u64;
            }
            out.push(b);
            pos += 1;
        }
        out
    }

    #[test]
    fn mpa_oracle_accepts_well_formed_frames() {
        for (start, len, markers) in [(0u64, 100usize, false), (0, 600, true), (500, 700, true)] {
            let ulpdu: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let out = good_frame(start, &ulpdu, markers);
            assert_eq!(check_mpa_frame(start, &out, markers, 1), None);
        }
    }

    #[test]
    fn mpa_oracle_fires_on_corrupt_marker_back_pointer() {
        // Seeded corruption: flip the back-pointer of the first marker.
        let ulpdu = vec![7u8; 600];
        let mut out = good_frame(0, &ulpdu, true);
        // First marker sits at stream pos 512 => byte offset 512; its
        // back-pointer occupies bytes 514..516.
        out[515] ^= 0x01;
        let v = check_mpa_frame(0, &out, true, 1).expect("oracle must fire");
        assert_eq!(v.rule, Rule::MpaFraming);
        assert!(v.detail.contains("back-pointer"), "{}", v.detail);
    }

    #[test]
    fn mpa_oracle_fires_on_corrupt_crc() {
        let ulpdu = vec![3u8; 100];
        let mut out = good_frame(0, &ulpdu, false);
        let n = out.len();
        out[n - 1] ^= 0xFF;
        let v = check_mpa_frame(0, &out, false, 1).expect("oracle must fire");
        assert!(v.detail.contains("CRC-32C"), "{}", v.detail);
    }

    #[test]
    fn mpa_oracle_fires_on_length_mismatch() {
        let ulpdu = vec![3u8; 100];
        let mut out = good_frame(0, &ulpdu, false);
        out.push(0); // trailing garbage byte
        let v = check_mpa_frame(0, &out, false, 1).expect("oracle must fire");
        assert!(v.detail.contains("framed length"), "{}", v.detail);
    }

    #[test]
    fn ddp_msn_oracle_fires_on_regression() {
        let mut o = DdpMsnOracle::default();
        assert_eq!(o.observe_complete(0, 1), None);
        assert_eq!(o.observe_complete(0, 2), None);
        assert_eq!(o.observe_complete(1, 1), None); // independent queue
        let v = o.observe_complete(0, 2).expect("repeat MSN must fire");
        assert_eq!(v.rule, Rule::DdpMsn);
        let v = o.observe_complete(0, 1).expect("regressing MSN must fire");
        assert!(v.detail.contains("not increasing"), "{}", v.detail);
    }

    #[test]
    fn delivery_order_oracle_fires_on_gap() {
        let mut o = DeliveryOrderOracle::new(4);
        assert_eq!(o.observe_delivery(0, None), None);
        assert_eq!(o.observe_delivery(1, Some(10)), None);
        let v = o
            .observe_delivery(3, Some(20))
            .expect("skipped ticket must fire");
        assert_eq!(v.rule, Rule::DdpMsn);
        assert_eq!(v.sim_time_ns, Some(20));
    }

    #[test]
    fn rdmap_oracle_fires_on_orphan_read_response() {
        let mut o = RdmapStateOracle::new(2);
        let v = o.observe_read_response(None).expect("must fire");
        assert!(v.detail.contains("without outstanding"), "{}", v.detail);
        // With an outstanding request it passes.
        o.on_read_request();
        assert_eq!(o.observe_read_response(None), None);
    }
}
