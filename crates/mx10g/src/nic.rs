//! The Myri-10G NIC hardware model and fabric wiring (MXoM / MXoE).

use std::ops::Deref;

use etherstack::switch::SwitchConfig;
use etherstack::{Fabric, LossRecovery, NicModel, RdmaNic};
use hostmodel::mem::HostMem;
use hostmodel::pcie::PciePort;
use hostmodel::MemoryRegistry;
use simnet::{Bytes, Pipe, Sim, SimDuration, Stage};

use crate::calib::MyriCalib;
use crate::recovery::MX_RESEND;

/// Which link layer the fabric runs over. Same NICs, same MX library —
/// different switch and framing, exactly as Myricom shipped it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkMode {
    /// MX over the Myrinet crossbar switch.
    MxoM,
    /// MX over a 10-Gigabit Ethernet switch.
    MxoE,
}

/// One Myri-10G NIC in one host.
pub struct MxNic {
    sim: Sim,
    /// Node index.
    pub node: usize,
    /// Link mode in effect.
    pub mode: LinkMode,
    /// Calibration in effect.
    pub calib: MyriCalib,
    /// PCIe slot (x4 on this testbed — the bandwidth cap).
    pub pcie: PciePort,
    /// Host memory.
    pub mem: HostMem,
    /// MX's internal registration cache.
    pub registry: MemoryRegistry,
    /// Lanai firmware TX path.
    pub lanai_tx: Pipe,
    /// Lanai firmware RX path (also walks the match lists).
    pub lanai_rx: Pipe,
    /// Host-to-switch wire.
    pub link_tx: Pipe,
}

impl NicModel for MxNic {
    type Calib = (LinkMode, MyriCalib);

    fn new(sim: &Sim, node: usize, (mode, calib): Self::Calib) -> Self {
        MxNic {
            sim: sim.clone(),
            node,
            mode,
            calib,
            pcie: PciePort::new(sim, calib.pcie),
            mem: HostMem::new(),
            registry: MemoryRegistry::new(calib.registration),
            lanai_tx: Pipe::new(sim, calib.lanai_tx_bytes_per_sec, calib.lanai_tx_overhead),
            lanai_rx: Pipe::new(sim, calib.lanai_rx_bytes_per_sec, calib.lanai_rx_overhead),
            link_tx: Pipe::new(sim, calib.link_bytes_per_sec, SimDuration::ZERO),
        }
    }

    /// Myricom crossbar for MXoM, the XG700 for MXoE.
    fn switch_config(&self) -> SwitchConfig {
        match self.mode {
            LinkMode::MxoM => SwitchConfig::myri_10g(),
            LinkMode::MxoE => SwitchConfig::xg700(),
        }
    }

    fn tx_stages(&self) -> Vec<Stage> {
        vec![
            self.pcie.to_device_stage(),
            Stage::new(self.lanai_tx.clone(), self.calib.lanai_tx_latency),
            Stage::new(self.link_tx.clone(), self.calib.link_latency),
        ]
    }

    fn rx_stages(&self) -> Vec<Stage> {
        vec![
            Stage::new(self.lanai_rx.clone(), self.calib.lanai_rx_latency),
            self.pcie.to_host_stage(),
        ]
    }

    fn segment_payload(&self) -> Bytes {
        match self.mode {
            LinkMode::MxoM => self.calib.mxom_packet_payload,
            LinkMode::MxoE => self.calib.mxoe_packet_payload,
        }
    }

    fn per_segment_overhead(&self) -> Bytes {
        match self.mode {
            LinkMode::MxoM => self.calib.mxom_packet_overhead,
            LinkMode::MxoE => self.calib.mxoe_packet_overhead,
        }
    }

    const LOSS_RECOVERY: LossRecovery = MX_RESEND;
}

impl RdmaNic for MxNic {
    fn mem(&self) -> &HostMem {
        &self.mem
    }

    fn registry(&self) -> &MemoryRegistry {
        &self.registry
    }
}

impl MxNic {
    /// Occupy the RX Lanai for a match-list walk of `entries` entries at
    /// `per_entry` cost, returning when the walk retires.
    pub async fn match_walk(&self, entries: usize, per_entry: SimDuration) {
        if entries == 0 {
            return;
        }
        let (_s, end) = self.lanai_rx.occupy(per_entry * entries as u64);
        self.sim.sleep_until(end).await;
    }
}

/// A Myri-10G fabric in one of the two link modes. Same NICs either way;
/// the mode rides in each [`MxNic`] and picks the switch and framing.
pub struct MxFabric(Fabric<MxNic>);

impl MxFabric {
    /// Build a fabric of `nodes` hosts with default calibration.
    pub fn new(sim: &Sim, nodes: usize, mode: LinkMode) -> Self {
        Self::with_calib(sim, nodes, mode, MyriCalib::default())
    }

    /// Build with explicit calibration.
    pub fn with_calib(sim: &Sim, nodes: usize, mode: LinkMode, calib: MyriCalib) -> Self {
        MxFabric(Fabric::with_calib(sim, nodes, (mode, calib)))
    }
}

impl Deref for MxFabric {
    type Target = Fabric<MxNic>;

    fn deref(&self) -> &Fabric<MxNic> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn bandwidth_is_pcie_x4_limited_near_940() {
        for mode in [LinkMode::MxoM, LinkMode::MxoE] {
            let sim = Sim::new();
            let fab = MxFabric::new(&sim, 2, mode);
            let path = fab.data_path(0, 1);
            let ovh = fab.per_segment_overhead();
            let bytes: u64 = 8 << 20;
            sim.block_on(async move { path.transfer(simnet::Bytes::new(bytes), ovh).await });
            let mbps = bytes as f64 / sim.now().as_secs_f64() / 1e6;
            assert!(
                (850.0..985.0).contains(&mbps),
                "{mode:?} unidirectional {mbps:.0} MB/s, want ≤75% of line rate (~940)"
            );
        }
    }

    #[test]
    fn mxom_and_mxoe_differ_only_in_switch_and_framing() {
        let sim = Sim::new();
        let m = MxFabric::new(&sim, 2, LinkMode::MxoM);
        let e = MxFabric::new(&sim, 2, LinkMode::MxoE);
        assert!(m.segment_payload() > e.segment_payload());
        assert!(m.per_segment_overhead() < e.per_segment_overhead());
    }

    #[test]
    fn match_walk_costs_scale_with_entries() {
        let sim = Sim::new();
        let fab = MxFabric::new(&sim, 2, LinkMode::MxoM);
        let dev = fab.device(0);
        let per = dev.calib.nic_match_posted_per_entry;
        let t = {
            let dev = Rc::clone(&dev);
            let sim2 = sim.clone();
            sim.block_on(async move {
                dev.match_walk(100, per).await;
                sim2.now()
            })
        };
        assert_eq!(t.as_nanos(), per.as_nanos() * 100);
    }
}
