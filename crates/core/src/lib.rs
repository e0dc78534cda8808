//! # netbench — the comparative interconnect microbenchmark suite
//!
//! The paper's contribution is a methodology: a fixed set of user-level and
//! MPI-level microbenchmarks run identically over three 10-Gigabit
//! interconnects. This crate is that methodology as a library. Every figure
//! of the paper's evaluation section has a generator here:
//!
//! | paper | generator | what it measures |
//! |-------|-----------|------------------|
//! | Fig. 1 | [`userlevel::fig1_latency`] / [`userlevel::fig1_bandwidth`] | verbs/MX ping-pong |
//! | Fig. 2 | [`multiconn::fig2_latency`] / [`multiconn::fig2_throughput`] | 1–256 connections |
//! | Fig. 3 | [`mpi_latency::fig3_latency`] / [`mpi_latency::fig3_overhead`] | MPI ping-pong + overhead |
//! | Fig. 4 | [`bandwidth::fig4_bandwidth`] | uni/bi/both-way MPI bandwidth |
//! | Fig. 5 | [`logp::fig5_logp`] | parameterized LogP g/os/or |
//! | Fig. 6 | [`reuse::fig6_buffer_reuse`] | pin-down cache / buffer re-use |
//! | Fig. 7 | [`queues::fig7_unexpected`] | unexpected-message queue |
//! | Fig. 8 | [`queues::fig8_receive_queue`] | posted-receive queue |
//! | (§6, omitted for space) | [`overlap::overlap_and_progress`] | overlap & independent progress |
//! | (§7, speculation) | [`ablation`] | mechanism ablations |
//! | (§6, omitted for space) | [`hotspot::hotspot_figure`] | hot-spot communication |
//! | (beyond the paper) | [`loss::fig_loss_latency`] / [`loss::fig_loss_bandwidth`] | recovery under injected loss |
//! | (beyond the paper) | [`cluster::fig_cluster_bandwidth`] | sharded multi-host exchange |
//! | (beyond the paper) | [`workload::run_workload`] | open-loop tail latency vs offered load |
//!
//! Each generator builds a fresh deterministic simulation, runs the
//! workload, and returns a [`report::Figure`] whose series carry the same
//! labels the paper's legends use.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod bandwidth;
pub mod cluster;
pub mod fabric;
pub mod hotspot;
pub mod logp;
pub mod loss;
pub mod mpi_latency;
pub mod multiconn;
pub mod overlap;
pub mod queues;
pub mod registration;
pub mod report;
pub mod reuse;
pub mod sweep;
pub mod userlevel;
pub mod workload;

pub use report::{Figure, Series};
