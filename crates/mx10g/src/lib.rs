//! # mx10g — Myricom MX-10G message-passing library model
//!
//! The third fabric of the comparison. MX (Myrinet Express) differs from
//! the verbs-based fabrics in kind, not just constants:
//!
//! * The API is **two-sided matched send/receive** (`mx_isend` /
//!   `mx_irecv` with 64-bit match bits) — semantically close to MPI, which
//!   is why MPICH-MX shows the lowest MPI-over-user-level overhead in the
//!   paper.
//! * **Matching runs on the NIC**: the Lanai processor walks the posted
//!   and unexpected lists. That makes unexpected-message handling cheap
//!   (Fig. 7, MX best) but long posted-receive lists expensive (Fig. 8,
//!   MX worst) because the embedded processor walks them slowly.
//! * Large messages switch to an internal **rendezvous** at 32 KB with an
//!   internal registration cache — the paper's Fig. 1 bandwidth dip and the
//!   small Fig. 6 buffer-reuse effect both come from here.
//! * The same NIC and library run over a Myrinet switch (**MXoM**) or a
//!   10GbE switch (**MXoE**); the paper measures both.
//!
//! The send/receive protocol itself is `etherstack::matched`'s engine, the
//! one MPI runs on over every fabric; MX is that engine with the [`Nic`]
//! matcher and the [`Thread`] progress ([`endpoint`]).

#![forbid(unsafe_code)]

pub mod calib;
pub mod endpoint;
pub mod nic;
pub mod recovery;

pub use calib::MyriCalib;
pub use endpoint::{MxAddr, MxEndpoint, MxLink, Nic, Thread};
pub use etherstack::matching;
pub use etherstack::{matches, MatchInfo, Request, Status};
pub use nic::{LinkMode, MxFabric, MxNic};
