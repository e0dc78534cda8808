//! RDMAP — the RDMA Protocol layer (RFC 5040).
//!
//! RDMAP defines the operations verbs expose — RDMA Write, RDMA Read
//! (request/response), Send, and Terminate — and maps each onto DDP
//! tagged/untagged messages:
//!
//! | operation      | DDP model | queue |
//! |----------------|-----------|-------|
//! | RDMA Write     | tagged    |   —   |
//! | Read Response  | tagged    |   —   |
//! | Send           | untagged  | QN 0  |
//! | Read Request   | untagged  | QN 1  |
//! | Terminate      | untagged  | QN 2  |

use crate::ddp::{segment_tagged, segment_untagged, DdpAddr, DdpSegment};

/// RDMAP opcode values (RFC 5040 §4.3).
pub mod opcode {
    /// RDMA Write (tagged).
    pub const WRITE: u8 = 0b0000;
    /// RDMA Read Request (untagged, QN 1).
    pub const READ_REQUEST: u8 = 0b0001;
    /// RDMA Read Response (tagged).
    pub const READ_RESPONSE: u8 = 0b0010;
    /// Send (untagged, QN 0).
    pub const SEND: u8 = 0b0011;
    /// Terminate (untagged, QN 2).
    pub const TERMINATE: u8 = 0b0110;
}

/// Untagged queue numbers (RFC 5040 §5).
pub mod queue {
    /// Send queue.
    pub const SEND: u32 = 0;
    /// Read-request queue.
    pub const READ_REQUEST: u32 = 1;
    /// Terminate queue.
    pub const TERMINATE: u32 = 2;
}

/// An RDMAP message as submitted by the verbs layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RdmapMessage {
    /// One-sided write into remote `(stag, to)`.
    Write {
        /// Remote steering tag.
        stag: u32,
        /// Remote tagged offset.
        to: u64,
        /// Data to place.
        payload: Vec<u8>,
    },
    /// Request the peer to transfer `len` bytes from its `(src_stag,
    /// src_to)` into our `(sink_stag, sink_to)`.
    ReadRequest {
        /// Local sink region the response will land in.
        sink_stag: u32,
        /// Sink offset.
        sink_to: u64,
        /// Remote source region.
        src_stag: u32,
        /// Source offset.
        src_to: u64,
        /// Bytes to read.
        len: u32,
    },
    /// The data flowing back for a read (tagged to the sink).
    ReadResponse {
        /// Sink steering tag from the request.
        sink_stag: u32,
        /// Sink offset from the request.
        sink_to: u64,
        /// The data.
        payload: Vec<u8>,
    },
    /// Two-sided send consuming a posted receive.
    Send {
        /// Payload.
        payload: Vec<u8>,
    },
    /// Connection teardown on a fatal error (e.g. remote protection fault).
    Terminate {
        /// Error code surfaced to the ULP.
        code: u16,
    },
}

/// The read-request ULP payload layout: sink STag(4) + sink TO(8) +
/// len(4) + src STag(4) + src TO(8) = 28 bytes.
pub const READ_REQUEST_LEN: usize = 28;

impl RdmapMessage {
    /// Lower the message onto DDP segments. `msn` supplies the untagged
    /// sequence number for the target queue; `mulpdu` bounds segment size.
    pub fn to_segments(&self, msn: u32, mulpdu: usize) -> Vec<DdpSegment> {
        match self {
            RdmapMessage::Write { stag, to, payload } => {
                segment_tagged(opcode::WRITE, *stag, *to, payload, mulpdu)
            }
            RdmapMessage::ReadResponse {
                sink_stag,
                sink_to,
                payload,
            } => segment_tagged(opcode::READ_RESPONSE, *sink_stag, *sink_to, payload, mulpdu),
            RdmapMessage::ReadRequest {
                sink_stag,
                sink_to,
                src_stag,
                src_to,
                len,
            } => {
                let mut p = Vec::with_capacity(READ_REQUEST_LEN);
                p.extend_from_slice(&sink_stag.to_be_bytes());
                p.extend_from_slice(&sink_to.to_be_bytes());
                p.extend_from_slice(&len.to_be_bytes());
                p.extend_from_slice(&src_stag.to_be_bytes());
                p.extend_from_slice(&src_to.to_be_bytes());
                segment_untagged(opcode::READ_REQUEST, queue::READ_REQUEST, msn, &p, mulpdu)
            }
            RdmapMessage::Send { payload } => {
                segment_untagged(opcode::SEND, queue::SEND, msn, payload, mulpdu)
            }
            RdmapMessage::Terminate { code } => segment_untagged(
                opcode::TERMINATE,
                queue::TERMINATE,
                msn,
                &code.to_be_bytes(),
                mulpdu,
            ),
        }
    }

    /// Reconstruct a message from a completed untagged reassembly.
    pub fn from_untagged(qn: u32, bytes: Vec<u8>) -> Option<RdmapMessage> {
        match qn {
            queue::SEND => Some(RdmapMessage::Send { payload: bytes }),
            queue::READ_REQUEST => {
                if bytes.len() != READ_REQUEST_LEN {
                    return None;
                }
                Some(RdmapMessage::ReadRequest {
                    sink_stag: u32::from_be_bytes(bytes[0..4].try_into().ok()?),
                    sink_to: u64::from_be_bytes(bytes[4..12].try_into().ok()?),
                    len: u32::from_be_bytes(bytes[12..16].try_into().ok()?),
                    src_stag: u32::from_be_bytes(bytes[16..20].try_into().ok()?),
                    src_to: u64::from_be_bytes(bytes[20..28].try_into().ok()?),
                })
            }
            queue::TERMINATE => {
                if bytes.len() != 2 {
                    return None;
                }
                Some(RdmapMessage::Terminate {
                    code: u16::from_be_bytes([bytes[0], bytes[1]]),
                })
            }
            _ => None,
        }
    }
}

/// Tagged-placement sink: applies tagged segments into a flat byte sink for
/// verification (the RNIC model applies them to host memory instead).
pub fn apply_tagged(seg: &DdpSegment, region: &mut [u8]) -> bool {
    let DdpAddr::Tagged { to, .. } = seg.addr else {
        return false;
    };
    let start = to as usize;
    let end = start + seg.payload.len();
    if end > region.len() {
        return false;
    }
    region[start..end].copy_from_slice(&seg.payload);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddp::UntaggedReassembler;

    #[test]
    fn write_lowers_to_tagged_segments() {
        let m = RdmapMessage::Write {
            stag: 7,
            to: 64,
            payload: vec![3u8; 4000],
        };
        let segs = m.to_segments(0, 1460);
        assert!(segs.len() >= 3);
        assert!(segs
            .iter()
            .all(|s| matches!(s.addr, DdpAddr::Tagged { stag: 7, .. })));
        assert!(segs.iter().all(|s| s.opcode == opcode::WRITE));
    }

    #[test]
    fn read_request_roundtrips_through_untagged_queue() {
        let m = RdmapMessage::ReadRequest {
            sink_stag: 11,
            sink_to: 256,
            src_stag: 22,
            src_to: 512,
            len: 8192,
        };
        let segs = m.to_segments(3, 1460);
        assert_eq!(segs.len(), 1);
        let mut r = UntaggedReassembler::new();
        let (qn, msn, bytes) = r.offer(&segs[0]).expect("complete");
        assert_eq!((qn, msn), (queue::READ_REQUEST, 3));
        assert_eq!(RdmapMessage::from_untagged(qn, bytes), Some(m));
    }

    #[test]
    fn send_roundtrips() {
        let m = RdmapMessage::Send {
            payload: (0..2000u32).map(|i| (i % 255) as u8).collect(),
        };
        let segs = m.to_segments(9, 1460);
        let mut r = UntaggedReassembler::new();
        let mut got = None;
        for s in &segs {
            if let Some(d) = r.offer(s) {
                got = Some(d);
            }
        }
        let (qn, msn, bytes) = got.expect("complete");
        assert_eq!((qn, msn), (queue::SEND, 9));
        assert_eq!(RdmapMessage::from_untagged(qn, bytes), Some(m));
    }

    #[test]
    fn terminate_roundtrips() {
        let m = RdmapMessage::Terminate { code: 0x0203 };
        let segs = m.to_segments(0, 1460);
        let mut r = UntaggedReassembler::new();
        let (qn, _msn, bytes) = r.offer(&segs[0]).expect("complete");
        assert_eq!(RdmapMessage::from_untagged(qn, bytes), Some(m));
    }

    #[test]
    fn tagged_placement_into_region() {
        let m = RdmapMessage::Write {
            stag: 1,
            to: 100,
            payload: (0..300).map(|i| i as u8).collect(),
        };
        let mut region = vec![0u8; 500];
        for s in m.to_segments(0, 128) {
            assert!(apply_tagged(&s, &mut region));
        }
        assert_eq!(
            region[100..400],
            (0..300).map(|i| i as u8).collect::<Vec<_>>()[..]
        );
        assert_eq!(region[..100], vec![0u8; 100][..]);
    }

    #[test]
    fn tagged_placement_out_of_bounds_fails() {
        let m = RdmapMessage::Write {
            stag: 1,
            to: 450,
            payload: vec![1u8; 100],
        };
        let mut region = vec![0u8; 500];
        let segs = m.to_segments(0, 1460);
        assert!(!apply_tagged(&segs[0], &mut region));
    }
}
