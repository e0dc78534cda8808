//! The one `FabricKind → fabric` dispatch of the harness.
//!
//! Generators that drive a fabric below the verbs — the sharded cluster
//! ring, the open-loop workload engine, the registration microbenchmark —
//! need one host's worth of it: the host-local halves of the data path and
//! the NIC's registration handles. `host_at` builds that for any kind
//! through the generic [`etherstack::Fabric`] container, so none of them
//! names a fabric crate.

use etherstack::{Fabric, Provider, RdmaNic};
use hostmodel::mem::{HostMem, MemoryRegistry};
use mpisim::{FabricKind, Nic};
use simnet::shard::HostPath;
use simnet::{Sim, SimDuration};

/// One host of a fabric, materialized on a caller-chosen calendar.
pub struct Host {
    /// Host-local halves of the data path (see [`Fabric::host_path`]).
    pub path: HostPath,
    /// The NIC's registration table.
    pub registry: MemoryRegistry,
    /// The host's memory.
    pub mem: HostMem,
}

fn host<N: RdmaNic>(sim: &Sim, node: usize, calib: N::Calib) -> Host {
    let nic = N::new(sim, node, calib);
    Host {
        path: Fabric::host_path(sim, &nic),
        registry: nic.registry().clone(),
        mem: nic.mem().clone(),
    }
}

/// Host `node` of a `kind` fabric with the paper's testbed calibration,
/// built in `sim`. Distinct `node`s get distinct NICs with private pipes,
/// so several hosts can live on one calendar.
pub(crate) fn host_at(kind: FabricKind, sim: &Sim, node: usize) -> Host {
    match kind.nic() {
        Nic::Verbs(Provider::Iwarp) => host::<iwarp::RnicDevice>(sim, node, Default::default()),
        Nic::Verbs(Provider::InfiniBand) => {
            host::<infiniband::HcaDevice>(sim, node, Default::default())
        }
        Nic::Mx(mode) => host::<mx10g::MxNic>(sim, node, (mode, Default::default())),
    }
}

/// The switch forwarding latency `kind`'s host path is cut at — the
/// cross-shard link latency, and thus a sharded run's lookahead window.
pub fn wire_latency(kind: FabricKind) -> SimDuration {
    host_at(kind, &Sim::new(), 0).path.wire_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ByteRate, Stage};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    fn shape(stages: &[Stage]) -> Vec<(ByteRate, SimDuration)> {
        stages
            .iter()
            .map(|s| (s.pipe.bandwidth(), s.latency))
            .collect()
    }

    /// `data_path(0, 1)` of a two-node `N` fabric must be host 0's egress,
    /// the switch port, then host 1's ingress past its own copy of the port
    /// — checked against the hosts the `kind` dispatch builds.
    fn check_split<N: RdmaNic>(kind: FabricKind, calib: N::Calib) {
        let sim = Sim::new();
        let mono = Fabric::<N>::with_calib(&sim, 2, calib).data_path(0, 1);
        let (h0, h1) = (host_at(kind, &sim, 0).path, host_at(kind, &sim, 1).path);
        let n_tx = h0.egress.stages().len();
        let (tx, rest) = mono.stages().split_at(n_tx);
        assert_eq!(shape(tx), shape(h0.egress.stages()), "{kind:?} egress");
        // The port serializes in both; its forwarding latency rides on the
        // wire in the split form.
        let port = &h1.ingress.stages()[0];
        assert_eq!(rest[0].pipe.bandwidth(), port.pipe.bandwidth(), "{kind:?}");
        assert_eq!(port.latency, SimDuration::ZERO, "{kind:?}");
        assert_eq!(rest[0].latency, h1.wire_latency, "{kind:?}");
        assert_eq!(rest[0].latency, wire_latency(kind), "{kind:?}");
        assert_eq!(
            shape(&rest[1..]),
            shape(&h1.ingress.stages()[1..]),
            "{kind:?} ingress"
        );
        assert_eq!(h0.egress.segment_size(), mono.segment_size(), "{kind:?}");
        assert_eq!(h1.ingress.segment_size(), mono.segment_size(), "{kind:?}");
    }

    #[test]
    fn split_host_paths_mirror_the_monolithic_data_path_stage_for_stage() {
        use mx10g::LinkMode::{MxoE, MxoM};
        check_split::<iwarp::RnicDevice>(FabricKind::Iwarp, Default::default());
        check_split::<infiniband::HcaDevice>(FabricKind::InfiniBand, Default::default());
        check_split::<mx10g::MxNic>(FabricKind::MxoM, (MxoM, Default::default()));
        check_split::<mx10g::MxNic>(FabricKind::MxoE, (MxoE, Default::default()));
    }

    /// Ask each of the four fabrics for `data_path(src, dst)`; every one
    /// must panic with `expected` in its message. Re-raises the last panic
    /// so `#[should_panic]` sees it.
    fn every_fabric_rejects(src: usize, dst: usize, expected: &str) {
        let sim = Sim::new();
        let iwarp = iwarp::IwarpFabric::new(&sim, 2);
        let ib = infiniband::IbFabric::new(&sim, 2);
        let mx = mx10g::MxFabric::new(&sim, 2, mx10g::LinkMode::MxoM);
        let tcp = etherstack::HostTcpFabric::new(&sim, 2);
        let attempts: [(&str, &dyn Fn()); 4] = [
            ("iwarp", &|| drop(iwarp.data_path(src, dst))),
            ("infiniband", &|| drop(ib.data_path(src, dst))),
            ("mx10g", &|| drop(mx.data_path(src, dst))),
            ("host tcp", &|| drop(tcp.data_path(src, dst))),
        ];
        let mut last = None;
        for (name, attempt) in attempts {
            let panic = catch_unwind(AssertUnwindSafe(attempt))
                .expect_err(&format!("{name}: data_path({src}, {dst}) must panic"));
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains(expected), "{name}: unexpected panic {msg:?}");
            last = Some(panic);
        }
        resume_unwind(last.expect("four fabrics were tried"));
    }

    #[test]
    #[should_panic(expected = "loopback is not modelled")]
    fn loopback_is_rejected_on_every_fabric() {
        every_fabric_rejects(0, 0, "loopback is not modelled");
    }

    #[test]
    #[should_panic(expected = "node 2 out of range: the fabric has 2 nodes")]
    fn out_of_range_node_is_rejected_on_every_fabric() {
        every_fabric_rejects(0, 2, "node 2 out of range: the fabric has 2 nodes");
    }
}
