//! DDP — Direct Data Placement (RFC 5041).
//!
//! DDP lets the NIC place incoming payload directly into its final buffer
//! with no intermediate copy. Two addressing models exist:
//!
//! * **Tagged**: the segment names a remote STag + tagged offset (TO); the
//!   *source* chose the destination address. Used by RDMA Write and Read
//!   Response.
//! * **Untagged**: the segment names a queue number (QN), message sequence
//!   number (MSN) and message offset (MO); the *target* chose the buffer
//!   (a posted receive). Used by Send, Read Request and Terminate.
//!
//! Messages larger than the MULPDU (maximum ULPDU, derived from the TCP
//! MSS) are cut into multiple segments; the final one carries the Last bit.

/// Tagged DDP header bytes: control(2) + STag(4) + TO(8).
pub const TAGGED_HEADER_LEN: usize = 14;
/// Untagged DDP header bytes: control(2) + QN(4) + MSN(4) + MO(4) + rsvd(4).
pub const UNTAGGED_HEADER_LEN: usize = 18;

/// A DDP segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DdpSegment {
    /// RDMAP opcode carried in the control field's ULP bits.
    pub opcode: u8,
    /// Last segment of its DDP message.
    pub last: bool,
    /// Addressing: tagged or untagged.
    pub addr: DdpAddr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Segment addressing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DdpAddr {
    /// Source-addressed placement.
    Tagged {
        /// Steering tag naming the remote memory region.
        stag: u32,
        /// Tagged offset within the region.
        to: u64,
    },
    /// Target-addressed placement.
    Untagged {
        /// Queue number (0 = Send, 1 = Read Request, 2 = Terminate).
        qn: u32,
        /// Message sequence number within the queue.
        msn: u32,
        /// Byte offset of this segment within its message.
        mo: u32,
    },
}

impl DdpSegment {
    /// Header length for this segment's addressing mode.
    pub fn header_len(&self) -> usize {
        match self.addr {
            DdpAddr::Tagged { .. } => TAGGED_HEADER_LEN,
            DdpAddr::Untagged { .. } => UNTAGGED_HEADER_LEN,
        }
    }

    /// Serialize to wire bytes (the ULPDU handed to MPA).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + self.payload.len());
        // Control: bit7 = tagged, bit6 = last, low 4 bits = RDMAP opcode,
        // second byte = DDP/RDMAP version (1).
        let tagged = matches!(self.addr, DdpAddr::Tagged { .. });
        let ctrl = ((tagged as u8) << 7) | ((self.last as u8) << 6) | (self.opcode & 0x0F);
        out.push(ctrl);
        out.push(1);
        match self.addr {
            DdpAddr::Tagged { stag, to } => {
                out.extend_from_slice(&stag.to_be_bytes());
                out.extend_from_slice(&to.to_be_bytes());
            }
            DdpAddr::Untagged { qn, msn, mo } => {
                out.extend_from_slice(&qn.to_be_bytes());
                out.extend_from_slice(&msn.to_be_bytes());
                out.extend_from_slice(&mo.to_be_bytes());
                out.extend_from_slice(&0u32.to_be_bytes());
            }
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse from wire bytes; `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<DdpSegment> {
        if data.len() < 2 || data[1] != 1 {
            return None;
        }
        let ctrl = data[0];
        let tagged = ctrl & 0x80 != 0;
        let last = ctrl & 0x40 != 0;
        let opcode = ctrl & 0x0F;
        if tagged {
            if data.len() < TAGGED_HEADER_LEN {
                return None;
            }
            let stag = u32::from_be_bytes(data[2..6].try_into().ok()?);
            let to = u64::from_be_bytes(data[6..14].try_into().ok()?);
            Some(DdpSegment {
                opcode,
                last,
                addr: DdpAddr::Tagged { stag, to },
                payload: data[TAGGED_HEADER_LEN..].to_vec(),
            })
        } else {
            if data.len() < UNTAGGED_HEADER_LEN {
                return None;
            }
            let qn = u32::from_be_bytes(data[2..6].try_into().ok()?);
            let msn = u32::from_be_bytes(data[6..10].try_into().ok()?);
            let mo = u32::from_be_bytes(data[10..14].try_into().ok()?);
            Some(DdpSegment {
                opcode,
                last,
                addr: DdpAddr::Untagged { qn, msn, mo },
                payload: data[UNTAGGED_HEADER_LEN..].to_vec(),
            })
        }
    }
}

/// Cut a tagged message into MULPDU-sized segments.
pub fn segment_tagged(
    opcode: u8,
    stag: u32,
    to: u64,
    payload: &[u8],
    mulpdu: usize,
) -> Vec<DdpSegment> {
    assert!(mulpdu > TAGGED_HEADER_LEN);
    let chunk = mulpdu - TAGGED_HEADER_LEN;
    if payload.is_empty() {
        return vec![DdpSegment {
            opcode,
            last: true,
            addr: DdpAddr::Tagged { stag, to },
            payload: Vec::new(),
        }];
    }
    let n = payload.len().div_ceil(chunk);
    payload
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| DdpSegment {
            opcode,
            last: i == n - 1,
            addr: DdpAddr::Tagged {
                stag,
                to: to + (i * chunk) as u64,
            },
            payload: c.to_vec(),
        })
        .collect()
}

/// Cut an untagged message into MULPDU-sized segments.
pub fn segment_untagged(
    opcode: u8,
    qn: u32,
    msn: u32,
    payload: &[u8],
    mulpdu: usize,
) -> Vec<DdpSegment> {
    assert!(mulpdu > UNTAGGED_HEADER_LEN);
    let chunk = mulpdu - UNTAGGED_HEADER_LEN;
    if payload.is_empty() {
        return vec![DdpSegment {
            opcode,
            last: true,
            addr: DdpAddr::Untagged { qn, msn, mo: 0 },
            payload: Vec::new(),
        }];
    }
    let n = payload.len().div_ceil(chunk);
    payload
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| DdpSegment {
            opcode,
            last: i == n - 1,
            addr: DdpAddr::Untagged {
                qn,
                msn,
                mo: (i * chunk) as u32,
            },
            payload: c.to_vec(),
        })
        .collect()
}

/// Reassembles untagged DDP messages per (QN, MSN).
#[derive(Debug, Default)]
pub struct UntaggedReassembler {
    partial: std::collections::BTreeMap<(u32, u32), PartialMsg>,
    /// Conformance oracle: per-queue completion MSNs must be strictly
    /// increasing (rule `iwarp.ddp-msn`).
    check: simcheck::iwarp::DdpMsnOracle,
}

#[derive(Debug, Default)]
struct PartialMsg {
    bytes: Vec<u8>,
    have_last: bool,
    received: usize,
    total: Option<usize>,
}

impl UntaggedReassembler {
    /// Create an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a segment; returns the complete `(qn, msn, message)` if this
    /// segment finished one.
    pub fn offer(&mut self, seg: &DdpSegment) -> Option<(u32, u32, Vec<u8>)> {
        let DdpAddr::Untagged { qn, msn, mo } = seg.addr else {
            return None;
        };
        let p = self.partial.entry((qn, msn)).or_default();
        let end = mo as usize + seg.payload.len();
        if p.bytes.len() < end {
            p.bytes.resize(end, 0);
        }
        p.bytes[mo as usize..end].copy_from_slice(&seg.payload);
        p.received += seg.payload.len();
        if seg.last {
            p.have_last = true;
            p.total = Some(end);
        }
        if p.have_last && p.total == Some(p.received) {
            let msg = self
                .partial
                .remove(&(qn, msn))
                .expect("entry was just updated under this key")
                .bytes;
            let _ = self.check.observe_complete(qn, msn);
            Some((qn, msn, msg))
        } else {
            None
        }
    }

    /// Number of in-flight partial messages (for leak assertions).
    pub fn in_flight(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_roundtrip() {
        let seg = DdpSegment {
            opcode: 0,
            last: true,
            addr: DdpAddr::Tagged {
                stag: 0xABCD_1234,
                to: 0x10_0000,
            },
            payload: b"rdma write payload".to_vec(),
        };
        assert_eq!(DdpSegment::decode(&seg.encode()), Some(seg));
    }

    #[test]
    fn untagged_roundtrip() {
        let seg = DdpSegment {
            opcode: 3,
            last: false,
            addr: DdpAddr::Untagged {
                qn: 0,
                msn: 7,
                mo: 4096,
            },
            payload: vec![9u8; 64],
        };
        assert_eq!(DdpSegment::decode(&seg.encode()), Some(seg));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut b = DdpSegment {
            opcode: 0,
            last: true,
            addr: DdpAddr::Tagged { stag: 1, to: 0 },
            payload: vec![],
        }
        .encode();
        b[1] = 2;
        assert_eq!(DdpSegment::decode(&b), None);
    }

    #[test]
    fn segmentation_respects_mulpdu_and_offsets() {
        let payload: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let segs = segment_tagged(0, 42, 1000, &payload, 1460);
        assert!(segs.iter().all(|s| s.encode().len() <= 1460));
        assert!(segs.iter().rev().skip(1).all(|s| !s.last));
        assert!(segs.last().unwrap().last);
        // Offsets advance by the payload chunk size.
        let chunk = 1460 - TAGGED_HEADER_LEN;
        for (i, s) in segs.iter().enumerate() {
            let DdpAddr::Tagged { to, .. } = s.addr else {
                panic!()
            };
            assert_eq!(to, 1000 + (i * chunk) as u64);
        }
    }

    #[test]
    fn zero_length_message_is_single_last_segment() {
        let segs = segment_untagged(3, 0, 5, &[], 1460);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].last);
        assert!(segs[0].payload.is_empty());
    }

    #[test]
    fn untagged_reassembly_in_order_and_out_of_order() {
        let payload: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let segs = segment_untagged(3, 0, 1, &payload, 1460);
        // In order.
        let mut r = UntaggedReassembler::new();
        let mut done = None;
        for s in &segs {
            if let Some(d) = r.offer(s) {
                done = Some(d);
            }
        }
        assert_eq!(done, Some((0, 1, payload.clone())));
        assert_eq!(r.in_flight(), 0);
        // Out of order (tagged placement semantics allow it; untagged
        // placement is by MO so order also does not matter).
        let mut r = UntaggedReassembler::new();
        let mut rev = segs.clone();
        rev.reverse();
        let mut done = None;
        for s in &rev {
            if let Some(d) = r.offer(s) {
                done = Some(d);
            }
        }
        assert_eq!(done, Some((0, 1, payload)));
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let a: Vec<u8> = vec![1; 3000];
        let b: Vec<u8> = vec![2; 3000];
        let sa = segment_untagged(3, 0, 1, &a, 1460);
        let sb = segment_untagged(3, 0, 2, &b, 1460);
        let mut r = UntaggedReassembler::new();
        let mut out = Vec::new();
        for (x, y) in sa.iter().zip(sb.iter()) {
            if let Some(d) = r.offer(x) {
                out.push(d);
            }
            if let Some(d) = r.offer(y) {
                out.push(d);
            }
        }
        assert_eq!(out, vec![(0, 1, a), (0, 2, b)]);
    }
}
