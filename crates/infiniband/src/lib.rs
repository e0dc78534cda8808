//! # infiniband — IB verbs over a simulated Mellanox 4X HCA
//!
//! Models the InfiniBand side of the comparison: the verbs interface
//! (QP/CQ/MR with lkey/rkey, reliable-connected transport), the wire format
//! (LRH/BTH/RETH packetization at the 2 KB path MTU), and — crucially for
//! the paper's multi-connection experiment — the **processor-based** HCA
//! core:
//!
//! * every message, in both directions, passes through one serial protocol
//!   processor ([`hca::HcaDevice::engine`]);
//! * QP context lives in *host* memory (the MHEA28-XT is a MemFree card);
//!   the processor keeps only a small context cache, so cycling over more
//!   than [`calib::MellanoxCalib::context_cache_entries`] connections
//!   faults a context fetch on every message.
//!
//! That pair of properties is the paper's explanation for why the Mellanox
//! card stops scaling past 8 connections while the pipelined NetEffect RNIC
//! keeps improving, and here it is a mechanism, not a curve fit.

#![forbid(unsafe_code)]

pub mod calib;
pub mod hca;
pub mod packets;
pub mod recovery;
pub mod verbs;

pub use calib::MellanoxCalib;
pub use hca::{HcaDevice, IbFabric};
