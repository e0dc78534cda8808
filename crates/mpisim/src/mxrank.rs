//! MPI over MX: matching delegated to the NIC (the MPICH-MX model).
//!
//! MX's send/receive semantics are already MPI-shaped, so this adapter is
//! thin — which is precisely the paper's observation that MPICH-MX has the
//! lowest MPI-over-user-level overhead. Queue-usage behaviour comes from
//! the `mx10g` NIC matching engine rather than host-side queues.

use std::rc::Rc;

use hostmodel::cpu::Cpu;
use hostmodel::mem::{HostMem, VirtAddr};
use mx10g::matching::MatchInfo;
use mx10g::{MxAddrTable, MxEndpoint};
use simnet::{Sim, SimDuration};

use crate::rank::{LocalFuture, MpiRank, Source, ANY_TAG};
use crate::request::{MpiRequest, MpiStatus};

/// MPI context id used for all point-to-point traffic.
const CONTEXT: u16 = 1;

/// The MX match bits and mask a receive for `(src, tag)` posts.
fn recv_bits(src: Source, tag: u32) -> (MatchInfo, u64) {
    let (src_bits, mut mask) = match src {
        Source::Rank(r) => (r as u16, MatchInfo::EXACT),
        Source::Any => (0, MatchInfo::ANY_RANK_MASK),
    };
    let tag_bits = if tag == ANY_TAG {
        mask &= MatchInfo::ANY_TAG_MASK;
        0
    } else {
        tag
    };
    (MatchInfo::mpi(CONTEXT, src_bits, tag_bits), mask)
}

/// One MPI process over an MX endpoint.
pub(crate) struct MxMpiRank {
    sim: Sim,
    rank: usize,
    size: usize,
    ep: Rc<MxEndpoint>,
    addrs: MxAddrTable,
    /// Thin MPICH-MX glue cost per call.
    glue: SimDuration,
}

impl MxMpiRank {
    /// Build rank `rank` of `size` over an opened endpoint and its
    /// connected address table.
    pub fn new(
        sim: &Sim,
        rank: usize,
        size: usize,
        ep: Rc<MxEndpoint>,
        addrs: MxAddrTable,
        glue: SimDuration,
    ) -> Self {
        MxMpiRank {
            sim: sim.clone(),
            rank,
            size,
            ep,
            addrs,
            glue,
        }
    }
}

impl MpiRank for MxMpiRank {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn cpu(&self) -> &Cpu {
        self.ep.cpu()
    }

    fn mem(&self) -> &HostMem {
        &self.ep.nic().mem
    }

    fn alloc_buffer(&self, len: u64) -> VirtAddr {
        self.ep.nic().mem.alloc_buffer(len)
    }

    fn isend(
        &self,
        dest: usize,
        tag: u32,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> LocalFuture<'_, MpiRequest> {
        Box::pin(async move {
            self.ep.cpu().work(self.glue).await;
            let bits = MatchInfo::mpi(CONTEXT, self.rank as u16, tag);
            let mx_req = self
                .ep
                .isend(self.addrs.get(dest), bits, buf, len, payload)
                .await;
            let req = MpiRequest::new();
            let bridge = req.clone();
            let me_rank = self.rank;
            self.sim.spawn_detached(async move {
                let st = mx_req.wait().await;
                bridge.complete(MpiStatus {
                    len: st.len,
                    source: me_rank,
                    tag,
                });
            });
            req
        })
    }

    fn irecv(&self, src: Source, tag: u32, buf: VirtAddr, len: u64) -> LocalFuture<'_, MpiRequest> {
        Box::pin(async move {
            self.ep.cpu().work(self.glue).await;
            let (bits, mask) = recv_bits(src, tag);
            let mx_req = self.ep.irecv(bits, mask, buf, len).await;
            let req = MpiRequest::new();
            let bridge = req.clone();
            self.sim.spawn_detached(async move {
                let st = mx_req.wait().await;
                // The sender's rank and tag ride in the match bits.
                bridge.complete(MpiStatus {
                    len: st.len,
                    source: ((st.bits.0 >> 32) & 0xFFFF) as usize,
                    tag: st.bits.0 as u32,
                });
            });
            req
        })
    }

    fn probe_unexpected(&self, src: Source, tag: u32) -> bool {
        let (bits, mask) = recv_bits(src, tag);
        self.ep.probe_unexpected(bits, mask)
    }
}
