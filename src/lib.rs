//! # iwarp10g-repro
//!
//! A simulation-based reproduction of *"10-Gigabit iWARP Ethernet:
//! Comparative Performance Analysis with InfiniBand and Myrinet-10G"*
//! (Rashti & Afsahi, 2007).
//!
//! The original study benchmarked three physical interconnects; the
//! hardware is proprietary and long obsolete, so this crate re-creates the
//! study over deterministic discrete-event models of the same devices —
//! full protocol stacks included — and regenerates every figure of the
//! paper's evaluation.
//!
//! ## Crate map
//!
//! * [`simnet`] — deterministic simulated-time async runtime.
//! * [`hostmodel`] — CPU, memory registration, PCIe models.
//! * [`etherstack`] — Ethernet / IPv4 / TCP substrate, and the generic
//!   `Fabric<NicModel>` container every interconnect instantiates.
//! * [`iwarp`] — MPA, DDP, RDMAP, verbs, NetEffect RNIC model.
//! * [`infiniband`] — IB verbs, packets, Mellanox HCA model.
//! * [`mx10g`] — MX-10G endpoints with NIC-side matching.
//! * [`mpisim`] — MPI-like layer over all fabrics.
//! * [`udapl`] — uDAPL-style provider-neutral verbs handle (what the
//!   benchmark suite posts iWARP and InfiniBand RDMA Writes through).
//! * [`netbench`] — the paper's benchmark suite (Figs. 1–8 + extensions).
//!
//! ## Quickstart
//!
//! ```
//! use simnet::Sim;
//! use hostmodel::cpu::{Cpu, CpuCosts};
//!
//! let sim = Sim::new();
//! let fabric = iwarp::IwarpFabric::new(&sim, 2);
//! let cpu0 = Cpu::new(&sim, CpuCosts::default());
//! let cpu1 = Cpu::new(&sim, CpuCosts::default());
//! let latency_us = sim.block_on({
//!     let sim = sim.clone();
//!     async move {
//!         let (qa, qb) = fabric.connect(0, 1, &cpu0, &cpu1).await;
//!         let buf = qb.device().mem.alloc_buffer(64);
//!         let stag = qb.device().registry.register_pinned(&cpu1, buf, 64).await;
//!         let t0 = sim.now();
//!         qa.post_send_wr(iwarp::WorkRequest::RdmaWrite {
//!             wr_id: 1, len: 8, payload: None,
//!             rkey: stag, remote_addr: buf,
//!         }).await;
//!         qb.wait_placement().await;
//!         (sim.now() - t0).as_micros_f64()
//!     }
//! });
//! assert!(latency_us > 5.0 && latency_us < 15.0);
//! ```

#![forbid(unsafe_code)]

pub use etherstack;
pub use hostmodel;
pub use infiniband;
pub use iwarp;
pub use mpisim;
pub use mx10g;
pub use netbench;
pub use simnet;
pub use udapl;
