//! TCP header codec plus a sequence-number-accurate segmenter/reassembler.
//!
//! The simulated fabric is lossless and the round-trip time is microseconds,
//! so congestion control and retransmission never engage; what *does* matter
//! for iWARP is byte-stream semantics: DDP segments ride a stream that the
//! receiver may see re-chunked, which is why MPA needs markers. The
//! [`TcpSegmenter`]/[`TcpReassembler`] pair model exactly that: an ordered,
//! reliable byte stream cut into MSS-sized segments.

/// TCP header length without options.
pub const TCP_HEADER_LEN: usize = 20;
/// Maximum segment size on a 1500-byte MTU: 1500 − 20 (IP) − 20 (TCP).
pub const TCP_MSS: u64 = 1460;

/// A TCP header (the fields the offload engines actually vary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement.
    pub ack: u32,
    /// Flags: bit 4 = ACK, bit 3 = PSH, bit 1 = SYN, bit 0 = FIN.
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Serialize into 20 bytes (checksum left to the caller's pseudo-header
    /// pass, as TOE hardware does it last).
    pub fn encode(&self) -> [u8; TCP_HEADER_LEN] {
        let mut out = [0u8; TCP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 5 << 4; // data offset = 5 words
        out[13] = self.flags;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out
    }

    /// Parse from bytes; `None` if too short.
    pub fn decode(data: &[u8]) -> Option<TcpHeader> {
        if data.len() < TCP_HEADER_LEN {
            return None;
        }
        Some(TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: data[13],
            window: u16::from_be_bytes([data[14], data[15]]),
        })
    }
}

/// One segment produced by the segmenter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Stream sequence number of the first byte.
    pub seq: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Cuts an outgoing byte stream into ≤MSS segments with correct sequence
/// numbers (wrapping arithmetic, as on the wire).
#[derive(Debug)]
pub struct TcpSegmenter {
    next_seq: u32,
    mss: usize,
    /// Conformance oracle: emitted segments must be sequence-contiguous
    /// (rule `ether.tcp-seq`).
    check: simcheck::ether::TcpTxOracle,
}

impl TcpSegmenter {
    /// Start a stream at initial sequence number `isn` with segment size
    /// `mss`.
    pub fn new(isn: u32, mss: usize) -> Self {
        assert!(mss > 0);
        TcpSegmenter {
            next_seq: isn,
            mss,
            check: simcheck::ether::TcpTxOracle::with_origin(u64::from(isn), isn),
        }
    }

    /// Append `data` to the stream, producing the segments it occupies.
    pub fn push(&mut self, data: &[u8]) -> Vec<TcpSegment> {
        let mut out = Vec::with_capacity(data.len() / self.mss + 1);
        for chunk in data.chunks(self.mss) {
            let _ = self
                .check
                .observe_segment(self.next_seq, chunk.len() as u32, None);
            out.push(TcpSegment {
                seq: self.next_seq,
                payload: chunk.to_vec(),
            });
            self.next_seq = self.next_seq.wrapping_add(chunk.len() as u32);
        }
        out
    }

    /// Sequence number the next pushed byte will get.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }
}

/// Reassembles segments (possibly out of order) back into the byte stream.
#[derive(Debug)]
pub struct TcpReassembler {
    expected: u32,
    /// Out-of-order segments keyed by sequence number.
    pending: std::collections::BTreeMap<u32, Vec<u8>>,
    assembled: Vec<u8>,
    /// Conformance oracle: the expected-seq cursor advances exactly by the
    /// bytes delivered (rule `ether.tcp-seq`).
    check: simcheck::ether::TcpRxOracle,
}

impl TcpReassembler {
    /// Start expecting sequence number `isn`.
    pub fn new(isn: u32) -> Self {
        TcpReassembler {
            expected: isn,
            pending: std::collections::BTreeMap::new(),
            assembled: Vec::new(),
            check: simcheck::ether::TcpRxOracle::with_origin(u64::from(isn), isn),
        }
    }

    /// Offer a segment; in-order data (including data unlocked from the
    /// out-of-order store) is appended to the assembled stream. Segments
    /// entirely before the expected sequence number (duplicates) are
    /// dropped; a segment overlapping the cut has its stale prefix trimmed,
    /// and a segment overlapping buffered out-of-order data is trimmed
    /// against the neighbouring `pending` entries before insertion, so a
    /// retransmission re-chunked at different boundaries can neither shrink
    /// previously buffered data nor strand an entry the in-order drain will
    /// never reach.
    pub fn offer(&mut self, seg: TcpSegment) {
        let mut seq = seg.seq;
        let mut payload = seg.payload;
        if wrap_lt(seq, self.expected) {
            let stale = self.expected.wrapping_sub(seq) as usize;
            if stale >= payload.len() {
                return; // entirely duplicate
            }
            payload.drain(..stale);
            seq = self.expected;
        }
        // Work in offsets relative to `expected` so overlap comparisons are
        // wrap-safe: every live byte sits within 2^32 of the cursor, and the
        // store never holds data behind it (the invariant this trim keeps).
        let base = self.expected;
        let mut start = u64::from(seq.wrapping_sub(base));
        let mut end = start + payload.len() as u64;
        let overlaps: Vec<(u64, u64, u32)> = self
            .pending
            .iter()
            .map(|(&k, v)| {
                let s = u64::from(k.wrapping_sub(base));
                (s, s + v.len() as u64, k)
            })
            .filter(|&(s, e, _)| s < end && start < e)
            .collect();
        for (ps, pe, key) in overlaps {
            if ps <= start && end <= pe {
                // Entirely within buffered data: nothing new to keep. The
                // buffered entry wins — it is at least as long.
                payload.clear();
                break;
            } else if ps <= start {
                // Buffered entry covers our head: drop the covered prefix.
                payload.drain(..(pe - start) as usize);
                start = pe;
            } else if end <= pe {
                // Buffered entry covers our tail: drop the covered suffix.
                payload.truncate((ps - start) as usize);
                end = ps;
            } else {
                // We strictly cover the buffered (shorter) entry: replace
                // it, rather than letting an exact-key insert shadow it or
                // a key mismatch orphan it behind the advancing cursor.
                self.pending.remove(&key);
            }
        }
        if !payload.is_empty() {
            self.pending
                .insert(base.wrapping_add(start as u32), payload);
        }
        let before = self.expected;
        let mut delivered: u32 = 0;
        while let Some(p) = self.pending.remove(&self.expected) {
            self.expected = self.expected.wrapping_add(p.len() as u32);
            delivered = delivered.wrapping_add(p.len() as u32);
            self.assembled.extend_from_slice(&p);
        }
        let _ = self
            .check
            .observe_advance(before, self.expected, delivered, None);
    }

    /// Drain the in-order assembled bytes.
    pub fn take_assembled(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.assembled)
    }

    /// Next expected sequence number (the cumulative ACK value).
    pub fn expected(&self) -> u32 {
        self.expected
    }
}

#[inline]
fn wrap_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = TcpHeader {
            src_port: 5001,
            dst_port: 4096,
            seq: 0xDEADBEEF,
            ack: 42,
            flags: 0x18,
            window: 65535,
        };
        assert_eq!(TcpHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn segmenter_respects_mss_and_sequences() {
        let mut seg = TcpSegmenter::new(1000, 4);
        let segs = seg.push(b"abcdefghij");
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].seq, 1000);
        assert_eq!(segs[1].seq, 1004);
        assert_eq!(segs[2].seq, 1008);
        assert_eq!(segs[2].payload, b"ij");
        assert_eq!(seg.next_seq(), 1010);
    }

    #[test]
    fn reassembly_in_order() {
        let mut seg = TcpSegmenter::new(0, 3);
        let mut rea = TcpReassembler::new(0);
        for s in seg.push(b"hello world") {
            rea.offer(s);
        }
        assert_eq!(rea.take_assembled(), b"hello world");
        assert_eq!(rea.expected(), 11);
    }

    #[test]
    fn reassembly_out_of_order() {
        let mut seg = TcpSegmenter::new(500, 2);
        let mut rea = TcpReassembler::new(500);
        let mut segs = seg.push(b"abcdef");
        segs.reverse();
        for s in segs {
            rea.offer(s);
        }
        assert_eq!(rea.take_assembled(), b"abcdef");
    }

    #[test]
    fn sequence_wraparound() {
        let isn = u32::MAX - 2;
        let mut seg = TcpSegmenter::new(isn, 2);
        let mut rea = TcpReassembler::new(isn);
        for s in seg.push(b"wrap!") {
            rea.offer(s);
        }
        assert_eq!(rea.take_assembled(), b"wrap!");
        assert_eq!(rea.expected(), isn.wrapping_add(5));
    }

    #[test]
    fn duplicate_segment_is_ignored() {
        let mut seg = TcpSegmenter::new(0, 4);
        let segs = seg.push(b"abcd1234");
        let mut rea = TcpReassembler::new(0);
        rea.offer(segs[0].clone());
        rea.offer(segs[0].clone()); // duplicate
        rea.offer(segs[1].clone());
        assert_eq!(rea.take_assembled(), b"abcd1234");
    }

    #[test]
    fn wrap_lt_orders_across_the_seam() {
        assert!(wrap_lt(u32::MAX, 0));
        assert!(wrap_lt(u32::MAX - 10, u32::MAX));
        assert!(wrap_lt(u32::MAX, 5));
        assert!(!wrap_lt(0, u32::MAX));
        assert!(!wrap_lt(5, u32::MAX));
        assert!(!wrap_lt(7, 7));
        // Half-window boundary: 2^31 apart is "greater", one less is "less".
        assert!(wrap_lt(0, (1 << 31) - 1));
        assert!(!wrap_lt(0, 1 << 31));
    }

    #[test]
    fn shorter_retransmission_does_not_shrink_buffered_data() {
        // Buffer the long out-of-order segment [4, 12), then replay a
        // shorter one at the same key. The exact-key insert used to replace
        // the 8-byte payload with the 3-byte one, losing [7, 12) forever.
        let mut rea = TcpReassembler::new(0);
        rea.offer(TcpSegment {
            seq: 4,
            payload: b"efghijkl".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 4,
            payload: b"efg".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 0,
            payload: b"abcd".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"abcdefghijkl");
        assert_eq!(rea.expected(), 12);
    }

    #[test]
    fn segment_inside_pending_range_is_not_orphaned() {
        // A replay whose seq falls strictly inside a buffered range used to
        // be inserted at its own key; once `expected` jumped past that key
        // via the longer entry, the orphan sat in `pending` forever.
        let mut rea = TcpReassembler::new(0);
        rea.offer(TcpSegment {
            seq: 10,
            payload: b"klmnopqrst".to_vec(), // [10, 20)
        });
        rea.offer(TcpSegment {
            seq: 12,
            payload: b"mno".to_vec(), // strictly inside [10, 20)
        });
        rea.offer(TcpSegment {
            seq: 0,
            payload: b"abcdefghij".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"abcdefghijklmnopqrst");
        assert_eq!(rea.expected(), 20);
        assert!(rea.pending.is_empty(), "no orphaned entries may remain");
    }

    #[test]
    fn partial_overlaps_are_trimmed_against_neighbours() {
        // Stream "abcdefghij"; buffer [2,5) and [7,9), then offer [3,8),
        // which overlaps both neighbours: head and tail must be trimmed so
        // only [5,7) is newly inserted.
        let mut rea = TcpReassembler::new(0);
        rea.offer(TcpSegment {
            seq: 2,
            payload: b"cde".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 7,
            payload: b"hi".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 3,
            payload: b"defgh".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 0,
            payload: b"ab".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 9,
            payload: b"j".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"abcdefghij");
        assert!(rea.pending.is_empty());
    }

    #[test]
    fn superset_retransmission_replaces_covered_entries() {
        // A wide replay that strictly covers two disjoint buffered shards
        // replaces both (same stream bytes, one entry).
        let mut rea = TcpReassembler::new(0);
        rea.offer(TcpSegment {
            seq: 3,
            payload: b"de".to_vec(), // [3, 5)
        });
        rea.offer(TcpSegment {
            seq: 7,
            payload: b"h".to_vec(), // [7, 8)
        });
        rea.offer(TcpSegment {
            seq: 2,
            payload: b"cdefghi".to_vec(), // [2, 9) covers both
        });
        assert_eq!(rea.pending.len(), 1);
        rea.offer(TcpSegment {
            seq: 0,
            payload: b"ab".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"abcdefghi");
        assert!(rea.pending.is_empty());
    }

    #[test]
    fn overlap_trim_is_wrap_safe_near_u32_max() {
        // Same shapes as above, but the live window straddles the sequence
        // seam: isn = MAX - 3, so buffered entries sit on both sides of 0.
        let isn = u32::MAX - 3;
        let mut rea = TcpReassembler::new(isn);
        // Buffer [isn+2, isn+10) = "cdefghij" (crosses the seam).
        rea.offer(TcpSegment {
            seq: isn.wrapping_add(2),
            payload: b"cdefghij".to_vec(),
        });
        // Shorter replay at the same key must not shrink it...
        rea.offer(TcpSegment {
            seq: isn.wrapping_add(2),
            payload: b"cde".to_vec(),
        });
        // ...and an interior replay crossing the seam must not orphan.
        rea.offer(TcpSegment {
            seq: isn.wrapping_add(3),
            payload: b"defg".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: isn,
            payload: b"ab".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"abcdefghij");
        assert_eq!(rea.expected(), isn.wrapping_add(10));
        assert!(rea.pending.is_empty());
    }

    #[test]
    fn stale_prefix_trim_is_wrap_safe() {
        // expected sits just past the seam; a retransmission from before the
        // seam overlapping the cut keeps only its fresh suffix.
        let isn = u32::MAX - 1;
        let mut seg = TcpSegmenter::new(isn, 4);
        let segs = seg.push(b"wxyzabcd");
        let mut rea = TcpReassembler::new(isn);
        rea.offer(segs[0].clone()); // [MAX-1, 2): expected -> 2
                                    // Replay of [MAX-1, 3): 4 stale bytes, 1 fresh ("a" at seq 2).
        rea.offer(TcpSegment {
            seq: isn,
            payload: b"wxyza".to_vec(),
        });
        rea.offer(TcpSegment {
            seq: 3,
            payload: b"bcd".to_vec(),
        });
        assert_eq!(rea.take_assembled(), b"wxyzabcd");
        assert_eq!(rea.expected(), isn.wrapping_add(8));
    }
}
