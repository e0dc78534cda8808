//! # etherstack — Ethernet, IPv4 and TCP substrate
//!
//! The iWARP stack in the reproduced study rides on ordinary TCP/IP over
//! 10-Gigabit Ethernet (offloaded to the NIC's TOE), and the Myri-10G NIC
//! speaks Ethernet framing in its MXoE mode. This crate provides that
//! substrate:
//!
//! * [`frame`] — Ethernet II framing with real encode/decode and the wire
//!   overhead constants (preamble, FCS, inter-frame gap) that determine
//!   achievable payload bandwidth on a 10 Gb/s line.
//! * [`ipv4`] — IPv4 header codec with the Internet checksum.
//! * [`tcp`] — TCP header codec and a sequence-number-accurate segmenter /
//!   reassembler (the part of TCP that matters on a lossless fabric).
//! * [`crc`] — CRC-32 (Ethernet FCS) and CRC-32C (iWARP MPA) from scratch.
//! * [`switch`] — a cut-through Ethernet switch timing model.
//! * [`fabric`] — the NIC-per-node container every interconnect model in
//!   the workspace instantiates with its own [`NicModel`].
//! * [`qp`] — the one verbs queue pair, [`Qp`], over any [`VerbsNic`]: what
//!   the iWARP RNIC and the InfiniBand HCA share above their transports.
//! * [`recovery`] — the one reliable transfer over a `simnet` pipeline,
//!   [`transfer_reliable`], which every fabric sends through under fault
//!   injection, each with its own [`LossRecovery`] description (host TCP
//!   and the iWARP TOE here; RC go-back-N and MX resend in their crates).
//!
//! Timing (who waits how long) is handled by `simnet` pipes in the NIC
//! models; this crate's codecs are pure logic, which makes them directly
//! property-testable.

#![forbid(unsafe_code)]

pub mod crc;
pub mod fabric;
pub mod frame;
pub mod hostnic;
pub mod ipv4;
pub mod qp;
pub mod recovery;
pub mod switch;
pub mod tcp;

pub use fabric::{Fabric, NicModel, RdmaNic};
pub use frame::{EthernetHeader, ETHERTYPE_IPV4, ETH_HEADER_LEN, ETH_MTU, ETH_WIRE_OVERHEAD};
pub use hostnic::{HostTcpCalib, HostTcpFabric, HostTcpNic};
pub use ipv4::Ipv4Header;
pub use qp::{Lane, MsgDir, Provider, Qp, QpStep, QpWatch, VerbsNic, WorkRequest};
pub use recovery::{transfer_reliable, LossRecovery, RecoveryStats};
pub use switch::{CutThroughSwitch, SwitchConfig};
pub use tcp::{TcpHeader, TcpReassembler, TcpSegmenter, TCP_MSS};
