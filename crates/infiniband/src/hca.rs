//! The Mellanox MHEA28-XT HCA hardware model and fabric wiring.
//!
//! Unlike the NetEffect RNIC's deep pipeline, this HCA routes every message
//! through one serial protocol **processor**. Two consequences the paper
//! measures:
//!
//! 1. The processor serves both directions, so both-way traffic contends
//!    for it (IB both-way tops out near 89% of 2x link rate).
//! 2. Per-QP connection context lives in host memory (MemFree); the
//!    processor caches only a few contexts. Round-robin over more
//!    connections than the cache holds faults a context fetch on *every*
//!    message — the paper's Fig. 2 knee at 8 connections.

use std::cell::RefCell;

use etherstack::switch::SwitchConfig;
use etherstack::{Fabric, LossRecovery, NicModel, RdmaNic};
use hostmodel::lru::LruCache;
use hostmodel::mem::HostMem;
use hostmodel::pcie::PciePort;
use hostmodel::MemoryRegistry;
use simnet::{Bytes, Pipe, Sim, SimDuration, Stage};

use crate::calib::MellanoxCalib;
use crate::recovery::RC_GO_BACK_N;

/// One Mellanox HCA installed in one host.
pub struct HcaDevice {
    sim: Sim,
    /// Node index within the fabric.
    pub node: usize,
    /// Calibration in effect.
    pub calib: MellanoxCalib,
    /// The PCIe slot.
    pub pcie: PciePort,
    /// Host memory of this node.
    pub mem: HostMem,
    /// MR registry (lkey/rkey space).
    pub registry: MemoryRegistry,
    /// The serial protocol processor — shared by both directions.
    pub engine: Pipe,
    /// Host-to-switch wire.
    pub link_tx: Pipe,
    /// QP-context cache (keyed by QP number).
    context_cache: RefCell<LruCache<u32, ()>>,
}

impl NicModel for HcaDevice {
    type Calib = MellanoxCalib;

    fn new(sim: &Sim, node: usize, calib: MellanoxCalib) -> Self {
        HcaDevice {
            sim: sim.clone(),
            node,
            calib,
            pcie: PciePort::new(sim, calib.pcie),
            mem: HostMem::new(),
            registry: MemoryRegistry::new(calib.registration),
            engine: Pipe::new(
                sim,
                calib.engine_bytes_per_sec,
                calib.engine_packet_overhead,
            ),
            link_tx: Pipe::new(sim, calib.link_bytes_per_sec, SimDuration::ZERO),
            context_cache: RefCell::new(LruCache::new(calib.context_cache_entries)),
        }
    }

    fn switch_config(&self) -> SwitchConfig {
        SwitchConfig::mellanox_ib()
    }

    fn tx_stages(&self) -> Vec<Stage> {
        vec![
            self.pcie.to_device_stage(),
            // The serial processor is a *stage* for data movement too: its
            // bandwidth bounds both-way aggregate.
            Stage::new(self.engine.clone(), self.calib.engine_latency),
            Stage::new(self.link_tx.clone(), self.calib.link_latency),
        ]
    }

    /// Both directions stage through the *same* `engine` pipe, so a host's
    /// send and receive traffic contend for the processor.
    fn rx_stages(&self) -> Vec<Stage> {
        vec![
            Stage::new(self.engine.clone(), self.calib.engine_latency),
            self.pcie.to_host_stage(),
        ]
    }

    fn segment_payload(&self) -> Bytes {
        self.calib.mtu_payload
    }

    /// A 4-packet pacing chunk: the shared protocol processor interleaves
    /// the two directions tightly only at fine grain (its service time is
    /// half the wire's).
    fn pacing_chunk(&self) -> u64 {
        4
    }

    fn per_segment_overhead(&self) -> Bytes {
        self.calib.per_packet_overhead_bytes
    }

    const LOSS_RECOVERY: LossRecovery = RC_GO_BACK_N;
}

impl RdmaNic for HcaDevice {
    fn mem(&self) -> &HostMem {
        &self.mem
    }

    fn registry(&self) -> &MemoryRegistry {
        &self.registry
    }
}

impl HcaDevice {
    /// Occupy the protocol processor for one message's worth of work on
    /// `qpn`, including a context fetch if the QP's context is not cached.
    /// Returns when the processor has finished this message's bookkeeping.
    ///
    /// On a miss, the context fetch from host memory (MemFree) stalls the
    /// processor *while it holds the engine* — the fetch round-trip is
    /// part of the occupancy, which both serializes competing messages
    /// (the Fig. 2 mechanism) and keeps per-QP message order intact.
    pub async fn engine_message(&self, qpn: u32, base_cost: SimDuration) {
        let miss = {
            let mut cache = self.context_cache.borrow_mut();
            if cache.get(&qpn).is_none() {
                cache.insert(qpn, ());
                true
            } else {
                false
            }
        };
        let cost = if miss {
            base_cost
                + self.calib.context_miss_penalty
                + self.calib.pcie.dma_latency
                + self.calib.pcie.dma_overhead
        } else {
            base_cost
        };
        let (_s, end) = self.engine.occupy(cost);
        self.sim.sleep_until(end).await;
    }

    /// Context-cache statistics `(hits, misses, evictions)`.
    pub fn context_stats(&self) -> (u64, u64, u64) {
        self.context_cache.borrow().stats()
    }
}

/// A multi-node InfiniBand fabric: one HCA per node, one 4X switch.
pub type IbFabric = Fabric<HcaDevice>;

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::sync::join2;
    use std::rc::Rc;

    #[test]
    fn unidirectional_bandwidth_is_link_limited_near_970() {
        let sim = Sim::new();
        let fab = IbFabric::new(&sim, 2);
        let path = fab.data_path(0, 1);
        let ovh = fab.per_segment_overhead();
        let bytes: u64 = 8 << 20;
        sim.block_on(async move { path.transfer(simnet::Bytes::new(bytes), ovh).await });
        let mbps = bytes as f64 / sim.now().as_secs_f64() / 1e6;
        assert!(
            (940.0..1000.0).contains(&mbps),
            "IB unidirectional {mbps:.0} MB/s, want ~970"
        );
    }

    #[test]
    fn bothway_is_processor_limited_near_1780() {
        let sim = Sim::new();
        let fab = IbFabric::new(&sim, 2);
        let p01 = fab.data_path(0, 1);
        let p10 = fab.data_path(1, 0);
        let ovh = fab.per_segment_overhead();
        let bytes: u64 = 8 << 20;
        let h1 = sim.spawn(async move { p01.transfer(simnet::Bytes::new(bytes), ovh).await });
        let h2 = sim.spawn(async move { p10.transfer(simnet::Bytes::new(bytes), ovh).await });
        sim.block_on(async move { join2(h1, h2).await });
        let agg = (2 * bytes) as f64 / sim.now().as_secs_f64() / 1e6;
        assert!(
            (1650.0..1900.0).contains(&agg),
            "IB both-way {agg:.0} MB/s, want ~1780 (89% of 2 GB/s)"
        );
    }

    #[test]
    fn context_cache_hits_within_capacity_misses_beyond() {
        let sim = Sim::new();
        let fab = IbFabric::new(&sim, 2);
        let dev = fab.device(0);
        let cost = SimDuration::from_nanos(100);
        // Warm 8 QPs, then cycle them: all hits.
        sim.block_on({
            let dev = Rc::clone(&dev);
            async move {
                for qpn in 0..8u32 {
                    dev.engine_message(qpn, cost).await;
                }
                let before = dev.context_stats();
                for _round in 0..3 {
                    for qpn in 0..8u32 {
                        dev.engine_message(qpn, cost).await;
                    }
                }
                let after = dev.context_stats();
                assert_eq!(after.1, before.1, "no new misses within capacity");

                // Cycling 16 QPs round-robin misses every time.
                let before = dev.context_stats();
                for _round in 0..2 {
                    for qpn in 100..116u32 {
                        dev.engine_message(qpn, cost).await;
                    }
                }
                let after = dev.context_stats();
                assert_eq!(after.1 - before.1, 32, "every access misses");
            }
        });
    }

    #[test]
    fn context_miss_costs_more_time() {
        let sim = Sim::new();
        let fab = IbFabric::new(&sim, 2);
        let dev = fab.device(0);
        let cost = SimDuration::from_nanos(100);
        let (hit_time, miss_time) = sim.block_on({
            let dev = Rc::clone(&dev);
            let sim = sim.clone();
            async move {
                dev.engine_message(1, cost).await; // warm
                let t0 = sim.now();
                dev.engine_message(1, cost).await; // hit
                let hit = sim.now() - t0;
                // Evict qpn 1 by warming 8 others.
                for q in 10..18 {
                    dev.engine_message(q, cost).await;
                }
                let t0 = sim.now();
                dev.engine_message(1, cost).await; // miss
                (hit, sim.now() - t0)
            }
        });
        assert!(
            miss_time.as_nanos() > hit_time.as_nanos() + 1_000,
            "miss {miss_time} must exceed hit {hit_time} by the penalty"
        );
    }
}
