//! Ethernet II framing: header codec and wire-overhead accounting.

/// Length of an Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const ETH_HEADER_LEN: usize = 14;
/// Frame check sequence length.
pub const ETH_FCS_LEN: usize = 4;
/// Preamble (7) + start-of-frame delimiter (1).
pub const ETH_PREAMBLE_LEN: usize = 8;
/// Minimum inter-frame gap in byte times.
pub const ETH_IFG_LEN: usize = 12;
/// Total per-frame wire overhead beyond the payload carried above L2:
/// header + FCS + preamble + IFG = 38 bytes. This is what separates the
/// 1250 MB/s line rate from the ~1.2 GB/s maximum IP payload rate.
pub const ETH_WIRE_OVERHEAD: u64 =
    (ETH_HEADER_LEN + ETH_FCS_LEN + ETH_PREAMBLE_LEN + ETH_IFG_LEN) as u64;
/// Standard Ethernet MTU (the CX4 deployments in the study ran 1500).
pub const ETH_MTU: u64 = 1500;
/// Ethertype for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Deterministic per-node test address.
    pub fn for_node(n: u8) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, n])
    }
}

/// An Ethernet II header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Serialize into 14 bytes.
    pub fn encode(&self) -> [u8; ETH_HEADER_LEN] {
        let mut out = [0u8; ETH_HEADER_LEN];
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
        out
    }

    /// Parse from bytes; `None` if too short.
    pub fn decode(data: &[u8]) -> Option<EthernetHeader> {
        if data.len() < ETH_HEADER_LEN {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        Some(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([data[12], data[13]]),
        })
    }
}

/// Bytes occupied on the wire by a frame carrying `l2_payload` bytes
/// (header through FCS plus preamble and IFG; enforces the 64-byte minimum
/// frame size).
pub fn wire_bytes(l2_payload: u64) -> u64 {
    let frame = (l2_payload + ETH_HEADER_LEN as u64 + ETH_FCS_LEN as u64).max(64);
    let wire = frame + (ETH_PREAMBLE_LEN + ETH_IFG_LEN) as u64;
    // Conformance oracle (rule `ether.frame-accounting`): cross-check that
    // the accounting covers header + FCS (CRC) + min-frame pad + preamble +
    // IFG against simcheck's independent restatement.
    let _ = simcheck::ether::check_wire_accounting(l2_payload, wire, None);
    wire
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::for_node(2),
            src: MacAddr::for_node(1),
            ethertype: ETHERTYPE_IPV4,
        };
        assert_eq!(EthernetHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn decode_rejects_short_input() {
        assert_eq!(EthernetHeader::decode(&[0u8; 13]), None);
    }

    #[test]
    fn wire_overhead_is_38_bytes() {
        assert_eq!(ETH_WIRE_OVERHEAD, 38);
        assert_eq!(wire_bytes(1500), 1538);
    }

    #[test]
    fn minimum_frame_is_enforced() {
        // A 1-byte payload still occupies 64 + 20 byte times.
        assert_eq!(wire_bytes(1), 84);
        // 46 bytes payload exactly fills the minimum.
        assert_eq!(wire_bytes(46), 84);
        assert_eq!(wire_bytes(47), 85);
    }

    #[test]
    fn full_size_frame_efficiency_matches_line_rate_math() {
        // 1460 TCP payload / 1538 wire bytes = 94.9% of line rate; with
        // 10GbE at 1250 MB/s that is ~1186 MB/s of TCP payload.
        let eff = 1460.0 / wire_bytes(1500) as f64;
        assert!((eff - 0.949).abs() < 0.001);
    }
}
