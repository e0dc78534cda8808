//! 64-bit match-bits semantics (pure logic): the one match predicate of
//! the [`crate::matched`] engine, whatever the fabric.
//!
//! A receive supplies `(match_info, mask)`; a send supplies `match_info`.
//! They match when the masked bits agree. MPI maps `(context, rank, tag)`
//! into the 64 bits, as MPICH-MX does onto MX's; wildcard receives widen
//! the mask.

/// A 64-bit match descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MatchInfo(pub u64);

impl MatchInfo {
    /// The MPI-ish packing used by the MPICH-MX port: context(16) |
    /// rank(16) | tag(32).
    pub fn mpi(context: u16, rank: u16, tag: u32) -> MatchInfo {
        MatchInfo(((context as u64) << 48) | ((rank as u64) << 32) | tag as u64)
    }

    /// The rank field of the MPI packing (`MPI_SOURCE` of a receive).
    pub fn rank(self) -> usize {
        ((self.0 >> 32) & 0xFFFF) as usize
    }

    /// The tag field of the MPI packing (`MPI_TAG` of a receive).
    pub fn tag(self) -> u32 {
        self.0 as u32
    }

    /// Mask matching any rank (MPI_ANY_SOURCE).
    pub const ANY_RANK_MASK: u64 = !(0xFFFFu64 << 32);
    /// Mask matching any tag (MPI_ANY_TAG).
    pub const ANY_TAG_MASK: u64 = !0xFFFF_FFFFu64;
    /// Exact-match mask.
    pub const EXACT: u64 = !0u64;
}

/// Does a send with `send_bits` satisfy a receive `(recv_bits, mask)`?
#[inline]
pub fn matches(send_bits: MatchInfo, recv_bits: MatchInfo, mask: u64) -> bool {
    (send_bits.0 & mask) == (recv_bits.0 & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_requires_all_fields() {
        let s = MatchInfo::mpi(1, 3, 42);
        assert!(matches(s, MatchInfo::mpi(1, 3, 42), MatchInfo::EXACT));
        assert!(!matches(s, MatchInfo::mpi(1, 3, 43), MatchInfo::EXACT));
        assert!(!matches(s, MatchInfo::mpi(1, 4, 42), MatchInfo::EXACT));
        assert!(!matches(s, MatchInfo::mpi(2, 3, 42), MatchInfo::EXACT));
    }

    #[test]
    fn any_source_ignores_rank() {
        let s = MatchInfo::mpi(1, 9, 42);
        assert!(matches(
            s,
            MatchInfo::mpi(1, 0, 42),
            MatchInfo::ANY_RANK_MASK
        ));
        assert!(!matches(
            s,
            MatchInfo::mpi(1, 0, 41),
            MatchInfo::ANY_RANK_MASK
        ));
    }

    #[test]
    fn any_tag_ignores_tag() {
        let s = MatchInfo::mpi(1, 2, 977);
        assert!(matches(s, MatchInfo::mpi(1, 2, 0), MatchInfo::ANY_TAG_MASK));
        assert!(!matches(
            s,
            MatchInfo::mpi(1, 3, 0),
            MatchInfo::ANY_TAG_MASK
        ));
    }

    #[test]
    fn packing_is_disjoint() {
        let m = MatchInfo::mpi(0xABCD, 0x1234, 0xDEADBEEF);
        assert_eq!(m.0 >> 48, 0xABCD);
        assert_eq!((m.0 >> 32) & 0xFFFF, 0x1234);
        assert_eq!(m.0 & 0xFFFF_FFFF, 0xDEADBEEF);
        assert_eq!((m.rank(), m.tag()), (0x1234, 0xDEADBEEF));
    }
}
