//! # hostmodel — host-side hardware models
//!
//! The compute node under every fabric in the reproduced study is the same:
//! a dual-Xeon server with PCI-Express slots. This crate models the pieces
//! of that node the benchmarks are sensitive to:
//!
//! * [`cpu::Cpu`] — a processor core as a serializing resource, with busy
//!   time accounting (the quantity LogP `o_s`/`o_r` measure).
//! * [`mem`] — a per-host virtual address space with real byte storage
//!   (so RDMA data integrity is testable end-to-end), plus the memory
//!   registration model: pinning costs proportional to page count and a
//!   pin-down (registration) cache whose hit/miss behaviour drives the
//!   paper's buffer-reuse experiment.
//! * [`pcie::PciePort`] — a PCI-Express slot: per-direction DMA bandwidth
//!   pipes, DMA latency, and programmed-I/O doorbell cost.
//! * [`lru::LruCache`] — the small LRU used by the registration cache and
//!   by the InfiniBand HCA's QP-context cache.
//! * [`nic`] — the completion-queue vocabulary every NIC shares, and
//!   two-sided matching stated once: [`nic::MatchLists`] (posted and
//!   unexpected lists, under the MPI host engine, the MX NIC and the verbs
//!   receive queue) and [`nic::QpQueues`] (a verbs QP's receive side).

#![forbid(unsafe_code)]

pub mod cpu;
pub mod lru;
pub mod mem;
pub mod nic;
pub mod pcie;

pub use cpu::Cpu;
pub use lru::LruCache;
pub use mem::{HostMem, MemoryRegistry, RegistrationCosts, VirtAddr};
pub use nic::{Cqe, CqeOpcode, CqeStatus};
pub use pcie::{PcieConfig, PciePort};
