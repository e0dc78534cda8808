//! PCI-Express slot model: per-direction DMA bandwidth, DMA latency, and
//! programmed-I/O doorbell cost.
//!
//! All three NICs in the study sit in PCIe slots of the same hosts: the
//! NetEffect RNIC and Mellanox HCA in x8 slots, the Myri-10G NIC forced to
//! x4 ("for effective performance on the nodes' Intel E7520 chipset"). The
//! x4 restriction is what caps Myrinet's achievable bandwidth at ~75% of the
//! 10G line rate in the paper, so lane count is a first-class parameter.

use simnet::{ByteRate, Bytes, Pipe, Sim, SimDuration, Stage};

/// PCIe configuration for one slot.
#[derive(Clone, Copy, Debug)]
pub struct PcieConfig {
    /// Effective per-direction data bandwidth, after 8b/10b and TLP header
    /// overheads. PCIe 1.1 x8 ≈ 1.8 GB/s effective; x4 half.
    pub bytes_per_sec: ByteRate,
    /// Latency of a DMA transaction crossing the bus (round-trip for reads).
    pub dma_latency: SimDuration,
    /// Per-DMA-transaction setup overhead (TLP assembly, credit check).
    pub dma_overhead: SimDuration,
    /// Cost of a programmed-I/O doorbell write from the CPU (write-combining
    /// MMIO store reaching the device).
    pub doorbell: SimDuration,
}

impl PcieConfig {
    /// PCIe 1.1 x8 slot (NetEffect RNIC, Mellanox HCA).
    pub fn gen1_x8() -> Self {
        PcieConfig {
            bytes_per_sec: ByteRate::from_bytes_per_sec(1_800_000_000),
            dma_latency: SimDuration::from_nanos(350),
            dma_overhead: SimDuration::from_nanos(120),
            doorbell: SimDuration::from_nanos(250),
        }
    }

    /// PCIe 1.1 x4 operation (the Myri-10G card on these hosts).
    pub fn gen1_x4() -> Self {
        PcieConfig {
            bytes_per_sec: ByteRate::from_bytes_per_sec(900_000_000),
            ..Self::gen1_x8()
        }
    }
}

/// A PCIe slot: two independent DMA directions plus doorbell path.
#[derive(Clone)]
pub struct PciePort {
    sim: Sim,
    config: PcieConfig,
    /// Device-initiated reads of host memory (NIC pulling send data).
    to_device: Pipe,
    /// Device-initiated writes to host memory (NIC placing received data).
    to_host: Pipe,
}

impl PciePort {
    /// Create a slot with the given configuration.
    pub fn new(sim: &Sim, config: PcieConfig) -> Self {
        PciePort {
            sim: sim.clone(),
            config,
            to_device: Pipe::new(sim, config.bytes_per_sec, config.dma_overhead),
            to_host: Pipe::new(sim, config.bytes_per_sec, config.dma_overhead),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> PcieConfig {
        self.config
    }

    /// The host→device DMA direction as a pipeline stage: the bandwidth
    /// pipe, then the round-trip `dma_latency` a device-initiated read pays.
    pub fn to_device_stage(&self) -> Stage {
        Stage::new(self.to_device.clone(), self.config.dma_latency)
    }

    /// The device→host DMA direction as a pipeline stage; posted writes pay
    /// half the round-trip latency.
    pub fn to_host_stage(&self) -> Stage {
        Stage::new(self.to_host.clone(), self.posted_write_latency())
    }

    fn posted_write_latency(&self) -> SimDuration {
        SimDuration::from_nanos(self.config.dma_latency.as_nanos() / 2)
    }

    /// DMA `bytes` from host memory into the device. Completes when the
    /// data is on the device. Reads pay the round-trip `dma_latency`.
    pub async fn dma_read(&self, bytes: Bytes) {
        let (_s, end) = self.to_device.reserve(self.sim.now(), bytes);
        self.sim.sleep_until(end + self.config.dma_latency).await;
    }

    /// DMA `bytes` from the device into host memory. Posted writes pay half
    /// the round-trip latency.
    pub async fn dma_write(&self, bytes: Bytes) {
        let (_s, end) = self.to_host.reserve(self.sim.now(), bytes);
        self.sim
            .sleep_until(end + self.posted_write_latency())
            .await;
    }

    /// Doorbell MMIO cost (the caller charges it to its CPU).
    pub fn doorbell_cost(&self) -> SimDuration {
        self.config.doorbell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x4_has_half_the_bandwidth_of_x8() {
        assert_eq!(
            PcieConfig::gen1_x4().bytes_per_sec * 2,
            PcieConfig::gen1_x8().bytes_per_sec
        );
    }

    #[test]
    fn dma_read_charges_roundtrip_latency() {
        let sim = Sim::new();
        let port = PciePort::new(
            &sim,
            PcieConfig {
                bytes_per_sec: ByteRate::from_bytes_per_sec(1_000_000_000),
                dma_latency: SimDuration::from_nanos(400),
                dma_overhead: SimDuration::from_nanos(100),
                doorbell: SimDuration::from_nanos(250),
            },
        );
        let p = port;
        let s = sim.clone();
        sim.block_on(async move {
            p.dma_read(Bytes::new(1000)).await;
            // 100 overhead + 1000 serialize + 400 latency.
            assert_eq!(s.now().as_nanos(), 1_500);
        });
    }

    #[test]
    fn directions_are_independent() {
        let sim = Sim::new();
        let port = PciePort::new(&sim, PcieConfig::gen1_x8());
        let h1 = {
            let p = port.clone();
            let s = sim.clone();
            sim.spawn(async move {
                p.dma_read(Bytes::new(1_800_000)).await; // ~1 ms serialization
                s.now().as_nanos()
            })
        };
        let h2 = {
            let p = port;
            let s = sim.clone();
            sim.spawn(async move {
                p.dma_write(Bytes::new(1_800_000)).await;
                s.now().as_nanos()
            })
        };
        let (a, b) = sim.block_on(async move { simnet::sync::join2(h1, h2).await });
        // Full duplex: both finish around 1 ms, not 2 ms.
        assert!(a < 1_200_000, "read at {a}");
        assert!(b < 1_200_000, "write at {b}");
    }

    #[test]
    fn same_direction_serializes() {
        let sim = Sim::new();
        let port = PciePort::new(&sim, PcieConfig::gen1_x8());
        let mut handles = Vec::new();
        for _ in 0..2 {
            let p = port.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                p.dma_read(Bytes::new(1_800_000)).await;
                s.now().as_nanos()
            }));
        }
        let ends = sim.block_on(async move { simnet::sync::join_all(handles).await });
        assert!(
            ends[1] > ends[0] + 900_000,
            "second read must queue behind the first: {ends:?}"
        );
    }
}
