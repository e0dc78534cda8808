//! Cut-through Ethernet switch timing model.
//!
//! The testbed used a Fujitsu XG700 12-port 10GbE switch (cut-through,
//! sub-microsecond). A cut-through switch begins forwarding once the header
//! is in, so its contribution to message latency is a fixed port-to-port
//! delay; its contribution to bandwidth is a per-egress-port serialization
//! pipe (shared when multiple flows converge on one output).

use simnet::{ByteRate, Pipe, Sim, SimDuration, Stage};

/// Switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Per-port bandwidth.
    pub port_bytes_per_sec: ByteRate,
    /// Fixed port-to-port forwarding latency.
    pub forwarding_latency: SimDuration,
}

impl SwitchConfig {
    /// Fujitsu XG700-class 10GbE cut-through switch.
    pub fn xg700() -> Self {
        SwitchConfig {
            port_bytes_per_sec: ByteRate::from_gbps(10),
            forwarding_latency: SimDuration::from_nanos(450),
        }
    }

    /// Myricom Myri-10G 16-port switch (lower latency crossbar).
    pub fn myri_10g() -> Self {
        SwitchConfig {
            port_bytes_per_sec: ByteRate::from_gbps(10),
            forwarding_latency: SimDuration::from_nanos(200),
        }
    }

    /// Mellanox 4X InfiniBand switch: 1 GB/s data per port, ~200 ns hop.
    pub fn mellanox_ib() -> Self {
        SwitchConfig {
            port_bytes_per_sec: ByteRate::from_gbps(8),
            forwarding_latency: SimDuration::from_nanos(200),
        }
    }
}

/// A cut-through switch with per-port egress pipes.
pub struct CutThroughSwitch {
    config: SwitchConfig,
    egress: Vec<Pipe>,
}

impl CutThroughSwitch {
    /// Build a switch with `ports` ports.
    pub fn new(sim: &Sim, config: SwitchConfig, ports: usize) -> Self {
        CutThroughSwitch {
            config,
            egress: (0..ports)
                .map(|_| Pipe::new(sim, config.port_bytes_per_sec, SimDuration::ZERO))
                .collect(),
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.egress.len()
    }

    /// Configuration in effect.
    pub fn config(&self) -> SwitchConfig {
        self.config
    }

    /// The pipeline stage a flow towards `dst_port` must traverse: the
    /// egress serialization pipe plus the forwarding latency.
    pub fn stage_to(&self, dst_port: usize) -> Stage {
        Stage::new(
            self.egress[dst_port].clone(),
            self.config.forwarding_latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Bytes, Pipeline, SimTime};

    #[test]
    fn two_flows_share_one_egress_port() {
        let sim = Sim::new();
        let sw = CutThroughSwitch::new(&sim, SwitchConfig::xg700(), 4);
        // Both flows target port 0: they serialize on its egress pipe.
        let mk = |_: usize| Pipeline::new(&sim, vec![sw.stage_to(0)], Bytes::new(1500));
        let p1 = mk(0);
        let p2 = mk(1);
        let h1 = sim.spawn(async move { p1.transfer(Bytes::new(1_250_000), Bytes::ZERO).await });
        let h2 = sim.spawn(async move { p2.transfer(Bytes::new(1_250_000), Bytes::ZERO).await });
        sim.block_on(async move { simnet::sync::join2(h1, h2).await });
        // Two 1 ms flows into one port take ~2 ms, not 1 ms.
        assert!(
            sim.now() > SimTime::from_nanos(1_900_000),
            "got {}",
            sim.now()
        );
    }

    #[test]
    fn distinct_egress_ports_run_in_parallel() {
        let sim = Sim::new();
        let sw = CutThroughSwitch::new(&sim, SwitchConfig::xg700(), 4);
        let p1 = Pipeline::new(&sim, vec![sw.stage_to(0)], Bytes::new(1500));
        let p2 = Pipeline::new(&sim, vec![sw.stage_to(1)], Bytes::new(1500));
        let h1 = sim.spawn(async move { p1.transfer(Bytes::new(1_250_000), Bytes::ZERO).await });
        let h2 = sim.spawn(async move { p2.transfer(Bytes::new(1_250_000), Bytes::ZERO).await });
        sim.block_on(async move { simnet::sync::join2(h1, h2).await });
        assert!(
            sim.now() < SimTime::from_nanos(1_200_000),
            "got {}",
            sim.now()
        );
    }

    #[test]
    fn forwarding_latency_is_charged_once_per_hop() {
        let sim = Sim::new();
        let sw = CutThroughSwitch::new(&sim, SwitchConfig::xg700(), 2);
        let p = Pipeline::new(&sim, vec![sw.stage_to(1)], Bytes::new(1500));
        let s = sim.clone();
        sim.block_on(async move {
            p.transfer(Bytes::new(125), Bytes::ZERO).await;
            // 100 ns serialization + 450 ns forwarding.
            assert_eq!(s.now().as_nanos(), 550);
        });
    }
}
