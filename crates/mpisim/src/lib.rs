//! # mpisim — an MPI-like message-passing layer over the simulated fabrics
//!
//! Models the three MPI implementations the paper benchmarks — NetEffect's
//! MPICH port, MVAPICH 0.9.5, and MPICH-MX — as one MPI rank on one
//! protocol engine (`etherstack::matched`): eager messages below a
//! per-library threshold, a rendezvous above it, posted and unexpected
//! queues, and a registration cache. The fabric picks the engine's two
//! knobs, and they carry the paper's MPI-level contrasts:
//!
//! * **Matching** (Figs. 7 and 8). Over iWARP and InfiniBand the library
//!   walks its queues in host memory with host CPU cycles and copies eager
//!   data through bounce buffers (`Host`); over MX the queues live on the
//!   NIC (`mx10g::Nic`), which is why MPICH-MX wins the unexpected-queue
//!   test and loses the posted-queue test.
//! * **Rendezvous progress** (the LogP o_r jump). Over verbs the receiving
//!   process drives RTS → registration → CTS → RDMA Write → FIN and polls
//!   its CQ meanwhile (`Caller`); MX's progression thread pulls the data
//!   instead (`mx10g::Thread`).
//!
//! [`world::MpiWorld`] builds a ready-to-use set of ranks over any of the
//! four fabric configurations (iWARP, IB, MXoE, MXoM).

#![forbid(unsafe_code)]

pub mod collectives;
pub(crate) mod engine;
pub mod rank;
pub mod world;

pub use etherstack::{Request, Status};
pub use rank::{MpiRank, Source};
pub use world::{FabricKind, MpiWorld, Nic};
