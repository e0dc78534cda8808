//! A conventional (non-offloaded) Ethernet NIC with host-stack TCP — the
//! baseline the paper's whole framing measures against.
//!
//! The paper's pitch is that iWARP + TOE "fully eliminates host CPU
//! involvement in an Ethernet environment" and achieves "an unprecedented
//! latency for Ethernet". To quantify *unprecedented*, this module models
//! the thing being replaced: a dumb 10GbE NIC where the host CPU runs the
//! TCP/IP stack — per-segment protocol processing, kernel⇄user copies, and
//! interrupt handling — at 2007-era per-packet costs.

use hostmodel::cpu::Cpu;
use hostmodel::pcie::{PcieConfig, PciePort};
use simnet::{ByteRate, Bytes, Pipe, Sim, SimDuration, Stage};

use crate::fabric::{Fabric, NicModel};
use crate::recovery::{transfer_reliable, LossRecovery, HOST_TCP};
use crate::switch::SwitchConfig;

/// Host-stack TCP cost calibration (dual-Xeon 2.8 GHz era).
#[derive(Clone, Copy, Debug)]
pub struct HostTcpCalib {
    /// Host CPU cost to run the TCP/IP transmit path for one segment
    /// (header build, checksum, routing, qdisc).
    pub tx_per_segment: SimDuration,
    /// Host CPU cost of the receive path per segment (interrupt + softirq
    /// + TCP processing).
    pub rx_per_segment: SimDuration,
    /// Interrupt coalescing quantum: the NIC batches this many receive
    /// segments per interrupt at load (reduces per-segment cost for bulk).
    pub coalesce: u64,
    /// Extra latency of taking an interrupt and scheduling the stack.
    pub interrupt_latency: SimDuration,
    /// Socket-layer copy bandwidth (user ⇄ kernel).
    pub copy_bytes_per_sec: ByteRate,
    /// PCIe slot of the NIC.
    pub pcie: PcieConfig,
    /// TCP maximum segment payload.
    pub mss: Bytes,
    /// Per-segment wire overhead (Ethernet + IP + TCP).
    pub per_segment_overhead: Bytes,
}

impl Default for HostTcpCalib {
    fn default() -> Self {
        HostTcpCalib {
            tx_per_segment: SimDuration::from_nanos(2_500),
            rx_per_segment: SimDuration::from_nanos(3_000),
            coalesce: 4,
            interrupt_latency: SimDuration::from_micros(14),
            copy_bytes_per_sec: ByteRate::from_bytes_per_sec(2_000_000_000),
            pcie: PcieConfig::gen1_x8(),
            mss: Bytes::new(1448),
            per_segment_overhead: Bytes::new(98),
        }
    }
}

/// One host with a plain 10GbE NIC.
pub struct HostTcpNic {
    /// Node index.
    pub node: usize,
    /// Calibration.
    pub calib: HostTcpCalib,
    /// PCIe slot.
    pub pcie: PciePort,
    /// Host-to-switch wire.
    pub link_tx: Pipe,
    /// The sending CPU's TCP/IP stack as a serializing resource
    /// (per-segment transmit processing).
    pub tx_stack: Pipe,
    /// The receiving CPU's stack (per-segment receive processing,
    /// post-coalescing).
    pub rx_stack: Pipe,
}

impl NicModel for HostTcpNic {
    type Calib = HostTcpCalib;

    fn new(sim: &Sim, node: usize, calib: HostTcpCalib) -> Self {
        // A stack that takes `per_seg` per MSS-sized segment is a
        // "bandwidth" resource of mss/per_seg bytes per second.
        let stack_pipe = |per_seg: SimDuration| {
            let bps = (calib.mss.get() as u128 * 1_000_000_000 / per_seg.as_nanos().max(1) as u128)
                as u64;
            Pipe::new(
                sim,
                ByteRate::from_bytes_per_sec(bps.max(1)),
                SimDuration::ZERO,
            )
        };
        HostTcpNic {
            node,
            calib,
            pcie: PciePort::new(sim, calib.pcie),
            link_tx: Pipe::new(
                sim,
                SwitchConfig::xg700().port_bytes_per_sec,
                SimDuration::ZERO,
            ),
            tx_stack: stack_pipe(calib.tx_per_segment),
            rx_stack: stack_pipe(calib.rx_per_segment),
        }
    }

    /// The same XG700-class switch the iWARP tests use.
    fn switch_config(&self) -> SwitchConfig {
        SwitchConfig::xg700()
    }

    /// Transmit stack, NIC DMA, wire. The protocol processing stages run
    /// on the host CPUs — the defining difference from the offloaded
    /// fabrics.
    fn tx_stages(&self) -> Vec<Stage> {
        vec![
            Stage::new(self.tx_stack.clone(), SimDuration::from_nanos(300)),
            self.pcie.to_device_stage(),
            Stage::new(self.link_tx.clone(), SimDuration::from_nanos(100)),
        ]
    }

    fn rx_stages(&self) -> Vec<Stage> {
        vec![
            self.pcie.to_host_stage(),
            // Interrupt dispatch latency, then per-segment receive work.
            Stage::new(self.rx_stack.clone(), self.calib.interrupt_latency),
        ]
    }

    fn segment_payload(&self) -> Bytes {
        self.calib.mss
    }

    fn per_segment_overhead(&self) -> Bytes {
        self.calib.per_segment_overhead
    }

    const LOSS_RECOVERY: LossRecovery = HOST_TCP;
}

/// A fabric of plain-Ethernet hosts. Under an enabled fault plane, sends
/// recover via the host stack's TCP retransmission timers.
pub type HostTcpFabric = Fabric<HostTcpNic>;

impl HostTcpFabric {
    /// Send `bytes` from `src` to `dst` with socket semantics: resolves
    /// when the receiving process holds the data in user space. The
    /// protocol and copy work is charged to the two processes' CPUs —
    /// which is exactly what the offloaded fabrics avoid.
    pub async fn send_msg(
        &self,
        src: usize,
        dst: usize,
        src_cpu: &Cpu,
        dst_cpu: &Cpu,
        bytes: Bytes,
    ) {
        let calib = self.device(src).calib;
        let nsegs = bytes.div_ceil(calib.mss).max(1);
        // Syscall + user→kernel copy on the sender.
        src_cpu.work(SimDuration::from_nanos(900)).await;
        src_cpu.work(bytes / calib.copy_bytes_per_sec).await;
        // Stack + wire + remote stack (the pipeline overlaps all phases at
        // segment granularity, as real streaming does). Under an enabled
        // fault plane, injected losses engage the software stack's
        // retransmission machinery; disabled, this is exactly
        // `Pipeline::transfer`.
        let stream = ((src as u64) << 32) | dst as u64;
        transfer_reliable(
            self.sim(),
            &self.fault_plane(),
            &self.data_path(src, dst),
            stream,
            bytes,
            calib.mss,
            calib.per_segment_overhead,
            &HostTcpNic::LOSS_RECOVERY,
        )
        .await;
        // The stack stages above consumed real CPU time on both hosts;
        // account it (the pipeline pipes are not `Cpu` objects).
        src_cpu.account_busy(calib.tx_per_segment * nsegs);
        dst_cpu.account_busy(
            calib.rx_per_segment * nsegs + calib.interrupt_latency * nsegs.div_ceil(calib.coalesce),
        );
        // Kernel→user copy + syscall return on the receiver.
        dst_cpu.work(SimDuration::from_nanos(900)).await;
        dst_cpu.work(bytes / calib.copy_bytes_per_sec).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmodel::cpu::CpuCosts;
    use simnet::sync::join2;

    fn pingpong_half_rtt(size: u64) -> f64 {
        let sim = Sim::new();
        let fab = std::rc::Rc::new(HostTcpFabric::new(&sim, 2));
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        sim.block_on({
            let sim = sim.clone();
            async move {
                let iters = 20u64;
                let t0 = sim.now();
                for _ in 0..iters {
                    fab.send_msg(0, 1, &cpu_a, &cpu_b, Bytes::new(size)).await;
                    fab.send_msg(1, 0, &cpu_b, &cpu_a, Bytes::new(size)).await;
                }
                (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
            }
        })
    }

    #[test]
    fn host_tcp_small_message_latency_is_tens_of_microseconds() {
        // The era's host TCP over 10GbE: ~20-50 µs ping-pong half-RTT.
        let t = pingpong_half_rtt(64);
        assert!(
            (15.0..50.0).contains(&t),
            "host TCP half-RTT {t:.1} µs — must be an order above iWARP's 9.78"
        );
    }

    #[test]
    fn host_tcp_bandwidth_is_cpu_bound_well_below_line_rate() {
        let sim = Sim::new();
        let fab = std::rc::Rc::new(HostTcpFabric::new(&sim, 2));
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        let mbps = sim.block_on({
            let sim = sim.clone();
            let fab = std::rc::Rc::clone(&fab);
            async move {
                let n = 8u64 << 20;
                let t0 = sim.now();
                fab.send_msg(0, 1, &cpu_a, &cpu_b, Bytes::new(n)).await;
                n as f64 / (sim.now() - t0).as_secs_f64() / 1e6
            }
        });
        assert!(
            (300.0..800.0).contains(&mbps),
            "host TCP bulk {mbps:.0} MB/s — CPU-bound, far below the 1088 the TOE reaches"
        );
    }

    #[test]
    fn receiving_costs_significant_host_cpu_unlike_rdma() {
        let sim = Sim::new();
        let fab = std::rc::Rc::new(HostTcpFabric::new(&sim, 2));
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        sim.block_on({
            let fab = std::rc::Rc::clone(&fab);
            let cpu_b2 = cpu_b.clone();
            async move {
                fab.send_msg(0, 1, &cpu_a, &cpu_b2, Bytes::new(1 << 20))
                    .await;
            }
        });
        // Receiving 1 MB burns >1 ms of CPU (copies + per-segment work);
        // the RNIC model burns <1 µs for the same transfer.
        assert!(
            cpu_b.busy_time().as_micros_f64() > 1_000.0,
            "host TCP rx CPU busy {} must dwarf RDMA's",
            cpu_b.busy_time()
        );
    }

    #[test]
    fn duplex_exchange_works() {
        let sim = Sim::new();
        let fab = std::rc::Rc::new(HostTcpFabric::new(&sim, 2));
        let cpu_a = Cpu::new(&sim, CpuCosts::default());
        let cpu_b = Cpu::new(&sim, CpuCosts::default());
        sim.block_on({
            let fab2 = std::rc::Rc::clone(&fab);
            async move {
                let a = fab.send_msg(0, 1, &cpu_a, &cpu_b, Bytes::new(4096));
                let b = fab2.send_msg(1, 0, &cpu_b, &cpu_a, Bytes::new(4096));
                join2(a, b).await;
            }
        });
        assert!(sim.now().as_micros_f64() > 0.0);
    }
}
