//! The user-facing MPI rank interface.

use std::future::Future;
use std::pin::Pin;

use hostmodel::cpu::Cpu;
use hostmodel::mem::{HostMem, VirtAddr};

use etherstack::Request;

/// Wildcard tag (`MPI_ANY_TAG`).
pub(crate) const ANY_TAG: u32 = u32::MAX;

/// Receive source selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Match only this rank.
    Rank(usize),
    /// `MPI_ANY_SOURCE`.
    Any,
}

/// Boxed local future (the trait must be object-safe; everything runs on
/// the single-threaded simulation executor).
pub(crate) type LocalFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// One MPI process. Implemented once, over the matched-message engine,
/// whatever the fabric.
pub trait MpiRank {
    /// This process's rank.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// The core this process is bound to (LogP overhead accounting).
    fn cpu(&self) -> &Cpu;
    /// This process's host memory.
    fn mem(&self) -> &HostMem;
    /// Allocate a page-aligned message buffer.
    fn alloc_buffer(&self, len: u64) -> VirtAddr;
    /// Non-blocking send of `len` bytes from `buf` to `(dest, tag)`.
    /// `payload` carries real bytes in correctness tests and `None` in
    /// timing-only benchmarks.
    fn isend(
        &self,
        dest: usize,
        tag: u32,
        buf: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> LocalFuture<'_, Request>;
    /// Non-blocking receive into `buf`.
    fn irecv(&self, src: Source, tag: u32, buf: VirtAddr, len: u64) -> LocalFuture<'_, Request>;
    /// Instrumentation (not timed): is a matching message already waiting
    /// in the unexpected queue? Benchmarks use this to force worst-case
    /// late receives, as the queue-usage methodology requires.
    fn probe_unexpected(&self, src: Source, tag: u32) -> bool;
}

/// Blocking send (`MPI_Send`): post and wait.
pub async fn send(
    rank: &dyn MpiRank,
    dest: usize,
    tag: u32,
    buf: VirtAddr,
    len: u64,
    payload: Option<Vec<u8>>,
) {
    rank.isend(dest, tag, buf, len, payload).await.wait().await;
}

/// Blocking receive (`MPI_Recv`): post and wait.
pub async fn recv(
    rank: &dyn MpiRank,
    src: Source,
    tag: u32,
    buf: VirtAddr,
    len: u64,
) -> etherstack::Status {
    rank.irecv(src, tag, buf, len).await.wait().await
}
