//! A processor core as a serializing resource with busy-time accounting.
//!
//! Benchmarked processes in the paper are bound to cores ("we bind the
//! affinity of processes to processors"), so each simulated process owns a
//! [`Cpu`]. Work items execute FIFO; overlapping work issued while the core
//! is busy queues behind it, exactly like instructions behind a busy core.
//!
//! The distinction between `work` (CPU busy — counted in LogP overhead) and
//! plain waiting (blocked on NIC/wire — *not* CPU busy) is what lets the
//! LogP benchmark separate `o_s`/`o_r` from end-to-end latency.

use std::cell::Cell;
use std::rc::Rc;

use simnet::stats::TimeAccumulator;
use simnet::{ByteRate, Bytes, Sim, SimDuration, SimTime};

/// Per-core cost calibration.
#[derive(Clone, Copy, Debug)]
pub struct CpuCosts {
    /// Sustained memory-copy bandwidth for eager-protocol copies. A 2007
    /// Xeon sustains roughly 2.5 GB/s on cached copies.
    pub memcpy_bytes_per_sec: ByteRate,
    /// Copy bandwidth when the source/destination is cold in cache (the
    /// buffer-cycling patterns of the paper's Fig. 6 run at this rate).
    pub memcpy_cold_bytes_per_sec: ByteRate,
    /// Fixed cost of any library call (function-call + argument checking).
    pub call_overhead: SimDuration,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            memcpy_bytes_per_sec: ByteRate::from_bytes_per_sec(2_500_000_000),
            memcpy_cold_bytes_per_sec: ByteRate::from_bytes_per_sec(1_100_000_000),
            call_overhead: SimDuration::from_nanos(60),
        }
    }
}

struct CpuState {
    next_free: Cell<SimTime>,
    busy: TimeAccumulator,
    costs: CpuCosts,
}

/// One processor core.
#[derive(Clone)]
pub struct Cpu {
    sim: Sim,
    state: Rc<CpuState>,
}

impl Cpu {
    /// Create a core with the given cost calibration.
    pub fn new(sim: &Sim, costs: CpuCosts) -> Self {
        Cpu {
            sim: sim.clone(),
            state: Rc::new(CpuState {
                next_free: Cell::new(SimTime::ZERO),
                busy: TimeAccumulator::new(),
                costs,
            }),
        }
    }

    /// The simulation this core belongs to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Cost calibration in effect.
    pub fn costs(&self) -> CpuCosts {
        self.state.costs
    }

    /// Execute `d` of CPU work: occupies the core FIFO and accumulates busy
    /// time. Completes when the work retires.
    pub async fn work(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let start = self.sim.now().max(self.state.next_free.get());
        let end = start + d;
        self.state.next_free.set(end);
        self.state.busy.add(d);
        self.sim.sleep_until(end).await;
    }

    /// Copy `bytes` through the core (eager-protocol buffer copies).
    pub async fn memcpy(&self, bytes: Bytes) {
        if bytes.is_zero() {
            return;
        }
        self.work(bytes / self.state.costs.memcpy_bytes_per_sec)
            .await;
    }

    /// Copy `bytes` through the core from/to cache-cold buffers.
    pub async fn memcpy_cold(&self, bytes: Bytes) {
        if bytes.is_zero() {
            return;
        }
        self.work(bytes / self.state.costs.memcpy_cold_bytes_per_sec)
            .await;
    }

    /// Record `d` as CPU-busy without occupying the core's timeline.
    /// Models spin-polling concurrent with an ongoing transfer: the wall
    /// time has already elapsed elsewhere, but the cycles were burned (the
    /// quantity LogP receiver-overhead measurements see).
    pub fn account_busy(&self, d: SimDuration) {
        self.state.busy.add(d);
    }

    /// Charge the fixed library-call overhead.
    pub async fn call(&self) {
        self.work(self.state.costs.call_overhead).await;
    }

    /// Total busy time since creation (or the last [`Cpu::reset_busy`]).
    pub fn busy_time(&self) -> SimDuration {
        self.state.busy.get()
    }

    /// Reset the busy-time accumulator (between benchmark phases).
    pub fn reset_busy(&self) {
        self.state.busy.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_advances_time_and_accounts_busy() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let c = cpu.clone();
        let s = sim.clone();
        sim.block_on(async move {
            c.work(SimDuration::from_micros(2)).await;
            assert_eq!(s.now().as_nanos(), 2_000);
        });
        assert_eq!(cpu.busy_time().as_nanos(), 2_000);
    }

    #[test]
    fn concurrent_work_serializes_on_one_core() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let h1 = {
            let c = cpu.clone();
            let s = sim.clone();
            sim.spawn(async move {
                c.work(SimDuration::from_micros(1)).await;
                s.now().as_nanos()
            })
        };
        let h2 = {
            let c = cpu;
            let s = sim.clone();
            sim.spawn(async move {
                c.work(SimDuration::from_micros(1)).await;
                s.now().as_nanos()
            })
        };
        let (a, b) = sim.block_on(async move { simnet::sync::join2(h1, h2).await });
        assert_eq!((a, b), (1_000, 2_000));
    }

    #[test]
    fn memcpy_charges_by_bandwidth() {
        let sim = Sim::new();
        let cpu = Cpu::new(
            &sim,
            CpuCosts {
                memcpy_bytes_per_sec: ByteRate::from_bytes_per_sec(1_000_000_000),
                ..CpuCosts::default()
            },
        );
        let c = cpu;
        let s = sim.clone();
        sim.block_on(async move {
            c.memcpy(Bytes::new(4096)).await;
            assert_eq!(s.now().as_nanos(), 4_096);
        });
    }

    #[test]
    fn zero_work_is_free() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let c = cpu.clone();
        sim.block_on(async move {
            c.work(SimDuration::ZERO).await;
            c.memcpy(Bytes::ZERO).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn busy_reset_clears_accumulator() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let c = cpu.clone();
        sim.block_on(async move {
            c.work(SimDuration::from_nanos(100)).await;
        });
        cpu.reset_busy();
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
    }
}
