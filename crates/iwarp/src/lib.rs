//! # iwarp — the iWARP protocol suite over simulated 10-Gigabit Ethernet
//!
//! Implements the RDMA-over-Ethernet stack standardized by the RDMA
//! Consortium, layered exactly as the specifications describe and as the
//! NetEffect NE010e channel adapter implements in hardware:
//!
//! ```text
//!   verbs        — QP/CQ/STag user interface               [`verbs`]
//!   RDMAP        — RDMA Write / Read / Send semantics      [`rdmap`]
//!   DDP          — direct data placement, tagged/untagged  [`ddp`]
//!   MPA          — FPDU framing, markers, CRC-32C          [`mpa`]
//!   TCP/IP/Eth   — via the `etherstack` crate
//! ```
//!
//! The protocol codecs ([`mpa`], [`ddp`], [`rdmap`]) are pure logic with
//! byte-accurate wire formats. The [`rnic`] module provides the NetEffect
//! hardware timing model: a fully *pipelined* protocol engine (the property
//! the paper credits for the card's multi-connection scalability) bridged to
//! the host by an internal PCI-X bus, with per-connection state held in
//! on-board memory. [`calib`] holds every timing constant with the paper
//! value that anchors it.

#![forbid(unsafe_code)]

pub mod calib;
pub mod ddp;
pub mod mpa;
pub mod rdmap;
pub mod rnic;
pub mod verbs;

pub use calib::NetEffectCalib;
pub use rnic::{IwarpFabric, RnicDevice};
pub use verbs::WorkRequest;
