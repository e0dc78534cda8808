//! # simnet — deterministic simulated-time async runtime
//!
//! A single-threaded discrete-event simulation core. Simulation processes are
//! ordinary `async fn`s; awaiting [`Sim::sleep`] (or any primitive built on
//! it, such as [`pipe::Pipe`] transfers or channel receives) advances virtual
//! time instead of blocking a thread.
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — two runs of the same program produce bit-identical
//!    event orderings. The run queue is FIFO, timers fire in
//!    `(deadline, armed, ord)` order (arm instant, then arm sequence number,
//!    for equal deadlines), and nothing consults wall-clock time or ambient
//!    randomness.
//! 2. **Nanosecond-resolution virtual time** — the quantities measured by the
//!    reproduced paper are microseconds; 1 ns resolution keeps quantization
//!    error three orders of magnitude below the signal.
//! 3. **Zero dependencies** — the executor, channels and bandwidth pipes
//!    are hand-rolled so the simulation core is fully auditable.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let (tx, mut rx) = simnet::sync::mpsc::<u64>();
//! sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(SimDuration::from_micros(5)).await;
//!         tx.send(sim.now().as_nanos()).unwrap();
//!     }
//! });
//! let got = sim.block_on(async move { rx.recv().await.unwrap() });
//! assert_eq!(got, 5_000);
//! ```

#![forbid(unsafe_code)]
// Virtual time is computed here: a narrowing `as` cast of a nanosecond
// count wraps silently, so every narrowing is a checked conversion.
#![deny(clippy::cast_possible_truncation)]

mod calendar;
mod executor;
pub mod fault;
pub mod memo;
pub mod perturb;
pub mod pipe;
pub mod shard;
pub mod stats;
pub mod sync;
pub mod tier;
pub mod time;
mod timers;
mod units;

pub use executor::{JoinHandle, Sim};
pub use fault::{FaultConfig, FaultPlane};
pub use pipe::{Pipe, Pipeline, Stage};
pub use shard::ShardedSim;
pub use stats::SimStats;
pub use tier::Tier;
pub use time::{SimDuration, SimTime};
pub use units::{ByteRate, Bytes};
