//! MPA — Marker PDU Aligned framing (RFC 5044 / MPA spec v1.0).
//!
//! DDP hands MPA discrete segments; TCP provides an undelimited byte
//! stream. MPA bridges the two by wrapping each DDP segment into an FPDU
//! (`[2-byte ULPDU length][ULPDU][pad][CRC-32C]`) and, when markers are
//! enabled, inserting a 4-byte marker at every 512-byte position of the TCP
//! stream. The marker carries the distance back to the start of the FPDU it
//! lands in, letting a receiver that joins mid-stream (or one re-segmented
//! by middleboxes) re-find FPDU boundaries without buffering the whole
//! stream.

use etherstack::crc::crc32c;

/// Marker spacing mandated by the MPA specification.
pub const MARKER_INTERVAL: u64 = 512;
/// Marker size: 2 reserved bytes + 2-byte FPDU pointer.
pub const MARKER_LEN: usize = 4;
/// Bytes of framing around a ULPDU: 2-byte length header + 4-byte CRC.
pub const FPDU_OVERHEAD: usize = 6;

/// Stateful framer for one half-connection (one TCP direction).
#[derive(Debug)]
pub struct MpaFramer {
    /// Absolute position in the TCP stream (drives marker placement).
    stream_pos: u64,
    markers_enabled: bool,
}

impl MpaFramer {
    /// Create a framer; `markers_enabled` per the MPA connection setup
    /// negotiation (the NetEffect RNIC enables them).
    pub fn new(markers_enabled: bool) -> Self {
        MpaFramer {
            stream_pos: 0,
            markers_enabled,
        }
    }

    /// Current TCP stream position.
    pub fn stream_pos(&self) -> u64 {
        self.stream_pos
    }

    /// Frame one ULPDU (DDP segment) into stream bytes, inserting markers
    /// as stream positions require.
    pub fn frame(&mut self, ulpdu: &[u8]) -> Vec<u8> {
        assert!(ulpdu.len() <= u16::MAX as usize, "ULPDU too large for MPA");
        let pad = (4 - (2 + ulpdu.len()) % 4) % 4;
        // Build the unmarked FPDU: len + ulpdu + pad + crc.
        let mut fpdu = Vec::with_capacity(2 + ulpdu.len() + pad + 4);
        fpdu.extend_from_slice(&(ulpdu.len() as u16).to_be_bytes());
        fpdu.extend_from_slice(ulpdu);
        fpdu.extend(std::iter::repeat_n(0u8, pad));
        let crc = crc32c(&fpdu);
        fpdu.extend_from_slice(&crc.to_be_bytes());

        if !self.markers_enabled {
            // Conformance oracle (rule `iwarp.mpa-framing`): independent
            // re-verification of the emitted framing.
            let _ = simcheck::iwarp::check_mpa_frame(self.stream_pos, &fpdu, false, 0);
            self.stream_pos += fpdu.len() as u64;
            return fpdu;
        }

        let fpdu_start = self.stream_pos;
        let mut out = Vec::with_capacity(fpdu.len() + 2 * MARKER_LEN);
        for &b in &fpdu {
            if self.stream_pos.is_multiple_of(MARKER_INTERVAL) && self.stream_pos != 0 {
                // Marker pointer: bytes from the marker back to the FPDU
                // start (the MPA "FPDU ptr" field).
                let back = (self.stream_pos - fpdu_start) as u16;
                out.extend_from_slice(&0u16.to_be_bytes());
                out.extend_from_slice(&back.to_be_bytes());
                self.stream_pos += MARKER_LEN as u64;
            }
            out.push(b);
            self.stream_pos += 1;
        }
        // A marker can also land exactly at the end of the FPDU; it belongs
        // to the *next* FPDU's preamble, so we leave it to the next call.
        let _ = simcheck::iwarp::check_mpa_frame(fpdu_start, &out, true, 0);
        out
    }
}

/// Error from the deframer.
#[derive(Debug, PartialEq, Eq)]
pub enum MpaError {
    /// CRC-32C mismatch on an FPDU.
    BadCrc,
    /// A marker's FPDU pointer disagreed with the actual FPDU boundary.
    BadMarker,
}

/// Stateful deframer for one half-connection.
#[derive(Debug)]
pub struct MpaDeframer {
    stream_pos: u64,
    markers_enabled: bool,
    buf: Vec<u8>,
    /// Stream position of `buf[0]`.
    buf_base: u64,
    /// Stream position where the current FPDU began.
    fpdu_start: u64,
}

impl MpaDeframer {
    /// Create a deframer matching the peer's framer configuration.
    pub fn new(markers_enabled: bool) -> Self {
        MpaDeframer {
            stream_pos: 0,
            markers_enabled,
            buf: Vec::new(),
            buf_base: 0,
            fpdu_start: 0,
        }
    }

    /// Feed stream bytes (as TCP delivers them, in order but arbitrarily
    /// chunked); returns every complete ULPDU recovered.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Vec<u8>>, MpaError> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            match self.try_parse_one()? {
                Some(ulpdu) => out.push(ulpdu),
                None => return Ok(out),
            }
        }
    }

    /// Attempt to parse one FPDU from the front of `buf`.
    fn try_parse_one(&mut self) -> Result<Option<Vec<u8>>, MpaError> {
        // Collect the logical (marker-stripped) FPDU while walking the raw
        // buffer; stop when we have length + payload + pad + CRC.
        let mut logical: Vec<u8> = Vec::new();
        let mut pos = self.buf_base; // stream position cursor
        let mut idx = 0usize; // index into buf
        let mut need: Option<usize> = None; // total logical FPDU size once known
        while idx < self.buf.len() {
            if self.markers_enabled && pos.is_multiple_of(MARKER_INTERVAL) && pos != 0 {
                // A marker occupies the next 4 raw bytes.
                if idx + MARKER_LEN > self.buf.len() {
                    return Ok(None); // incomplete marker
                }
                let back = u16::from_be_bytes([self.buf[idx + 2], self.buf[idx + 3]]) as u64;
                if pos - back != self.fpdu_start {
                    return Err(MpaError::BadMarker);
                }
                idx += MARKER_LEN;
                pos += MARKER_LEN as u64;
                continue;
            }
            logical.push(self.buf[idx]);
            idx += 1;
            pos += 1;
            if need.is_none() && logical.len() == 2 {
                let ulen = u16::from_be_bytes([logical[0], logical[1]]) as usize;
                let pad = (4 - (2 + ulen) % 4) % 4;
                need = Some(2 + ulen + pad + 4);
            }
            if let Some(n) = need {
                if logical.len() == n {
                    // Verify CRC over everything but the trailing 4 bytes.
                    let (body, crc_bytes) = logical.split_at(n - 4);
                    let want = u32::from_be_bytes([
                        crc_bytes[0],
                        crc_bytes[1],
                        crc_bytes[2],
                        crc_bytes[3],
                    ]);
                    if crc32c(body) != want {
                        return Err(MpaError::BadCrc);
                    }
                    let ulen = u16::from_be_bytes([body[0], body[1]]) as usize;
                    let ulpdu = body[2..2 + ulen].to_vec();
                    // Consume the raw bytes.
                    self.buf.drain(..idx);
                    self.buf_base = pos;
                    self.stream_pos = pos;
                    self.fpdu_start = pos;
                    return Ok(Some(ulpdu));
                }
            }
        }
        Ok(None)
    }
}

/// Stream bytes an ULPDU of `len` occupies, counting framing and the
/// amortized marker overhead — used by the timing model to compute wire
/// bytes without materializing payloads.
pub fn framed_len(ulpdu_len: u64, markers: bool) -> u64 {
    let pad = (4 - (2 + ulpdu_len) % 4) % 4;
    let fpdu = 2 + ulpdu_len + pad + 4;
    if markers {
        fpdu + (fpdu / MARKER_INTERVAL) * MARKER_LEN as u64
    } else {
        fpdu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sizes: &[usize], markers: bool, chunk: usize) {
        let mut framer = MpaFramer::new(markers);
        let mut deframer = MpaDeframer::new(markers);
        let msgs: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 131 + j) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(framer.frame(m));
        }
        let mut got = Vec::new();
        for c in stream.chunks(chunk.max(1)) {
            got.extend(deframer.feed(c).expect("deframe"));
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn roundtrip_without_markers() {
        roundtrip(&[1, 5, 100, 1460, 0, 7], false, 9);
    }

    #[test]
    fn roundtrip_with_markers_small() {
        roundtrip(&[1, 2, 3, 4, 5], true, 3);
    }

    #[test]
    fn roundtrip_with_markers_straddling() {
        // Sizes chosen so markers land inside length fields, payloads and
        // CRCs.
        roundtrip(&[500, 510, 513, 1024, 1460, 300], true, 7);
    }

    #[test]
    fn roundtrip_byte_at_a_time() {
        roundtrip(&[511, 512, 513], true, 1);
    }

    #[test]
    fn crc_corruption_detected() {
        let mut framer = MpaFramer::new(false);
        let mut bytes = framer.frame(b"hello iwarp");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // corrupt CRC
        let mut deframer = MpaDeframer::new(false);
        assert_eq!(deframer.feed(&bytes), Err(MpaError::BadCrc));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut framer = MpaFramer::new(true);
        let mut bytes = framer.frame(&vec![7u8; 600]);
        bytes[100] ^= 0x01;
        let mut deframer = MpaDeframer::new(true);
        assert!(deframer.feed(&bytes).is_err());
    }

    #[test]
    fn framed_len_accounts_framing_and_markers() {
        // 10-byte ULPDU: 2 + 10 + pad(0) + 4 = 16.
        assert_eq!(framed_len(10, false), 16);
        // Large ULPDU gains one marker per 512 framed bytes.
        assert_eq!(framed_len(1460, false), 2 + 1460 + 2 + 4);
        assert!(framed_len(1460, true) > framed_len(1460, false));
    }

    #[test]
    fn marker_positions_are_stream_global() {
        // Frame two messages; the second message's markers must account for
        // the stream position left by the first.
        let mut framer = MpaFramer::new(true);
        let a = framer.frame(&vec![1u8; 300]);
        let b = framer.frame(&vec![2u8; 300]);
        let mut deframer = MpaDeframer::new(true);
        let mut all = Vec::new();
        all.extend(deframer.feed(&a).unwrap());
        all.extend(deframer.feed(&b).unwrap());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], vec![1u8; 300]);
        assert_eq!(all[1], vec![2u8; 300]);
    }
}
