//! # mpisim — an MPI-like message-passing layer over the simulated fabrics
//!
//! Models the three MPI implementations the paper benchmarks — NetEffect's
//! MPICH port, MVAPICH 0.9.5, and MPICH-MX — as one engine with per-fabric
//! configuration plus one structural switch:
//!
//! * **Host-matched mode** (iWARP, InfiniBand): the MPI library keeps the
//!   posted-receive and unexpected-message queues in host memory and walks
//!   them with host CPU cycles ([`engine`]). Small messages go **eager**
//!   (copied through pre-registered bounce buffers); large messages use a
//!   **rendezvous** (RTS → registration → CTS → RDMA Write → FIN) with a
//!   pin-down cache, exactly the machinery Figs. 3–8 measure.
//! * **NIC-matched mode** (MX): MPI matching maps directly onto MX match
//!   bits and the queues live on the NIC (`mxrank`) — which is why
//!   MPICH-MX wins the unexpected-queue test and loses the posted-queue
//!   test in the paper.
//!
//! [`world::MpiWorld`] builds a ready-to-use set of ranks over any of the
//! four fabric configurations (iWARP, IB, MXoE, MXoM).

#![forbid(unsafe_code)]

pub mod collectives;
pub mod engine;
pub(crate) mod mxrank;
pub mod rank;
pub mod request;
pub mod transport;
pub mod world;

pub use rank::{MpiRank, Source};
pub use request::{MpiRequest, MpiStatus};
pub use world::{FabricKind, MpiWorld};
