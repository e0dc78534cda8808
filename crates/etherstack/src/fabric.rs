//! The fabric container shared by every interconnect model: one NIC per
//! node behind one cut-through switch, a cache of `src → dst` data paths
//! and the fault plane endpoints capture when they connect.
//!
//! The per-fabric part is a [`NicModel`]: how one NIC is built from its
//! calibration, which switch it plugs into, and the TX and RX stage lists
//! a segment crosses inside it. [`Fabric::data_path`] and the sharded
//! engine's per-host [`HostPath`] are both assembled from those two lists,
//! so the monolithic path and its split halves cannot drift apart. A new
//! fabric is one `NicModel` impl (plus its calibration and its loss-recovery
//! policy); nothing in any consumer changes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use hostmodel::mem::{HostMem, MemoryRegistry};
use simnet::shard::HostPath;
use simnet::{Bytes, FaultPlane, Pipe, Pipeline, Sim, SimDuration, Stage};

use crate::recovery::LossRecovery;
use crate::switch::{CutThroughSwitch, SwitchConfig};

/// The per-fabric hardware model of one NIC installed in one host.
pub trait NicModel: Sized {
    /// Everything [`NicModel::new`] needs besides the node index.
    type Calib: Copy;

    /// Build the NIC of node `node` (its pipes are private to it).
    fn new(sim: &Sim, node: usize, calib: Self::Calib) -> Self;

    /// The switch this NIC plugs into.
    fn switch_config(&self) -> SwitchConfig;

    /// Stages a segment crosses from host memory onto the wire.
    fn tx_stages(&self) -> Vec<Stage>;

    /// Stages a segment crosses from the switch port into host memory.
    fn rx_stages(&self) -> Vec<Stage>;

    /// Largest payload one wire segment (TCP segment, IB/MX packet) carries.
    fn segment_payload(&self) -> Bytes;

    /// Segments per pacing block on this NIC's pipelines.
    fn pacing_chunk(&self) -> u64 {
        simnet::pipe::PACE_CHUNK_SEGMENTS
    }

    /// Header and framing bytes added to every wire segment.
    fn per_segment_overhead(&self) -> Bytes;

    /// How this NIC's transport recovers a lost segment — the policy its
    /// one [`transfer_reliable`](crate::recovery::transfer_reliable) call
    /// site runs under an enabled fault plane.
    const LOSS_RECOVERY: LossRecovery;
}

/// An OS-bypass NIC: what the layers above the verbs (MPI rendezvous,
/// registration benchmarks, uDAPL) read from a device without knowing
/// which fabric it belongs to.
pub trait RdmaNic: NicModel {
    /// Host memory of this node.
    fn mem(&self) -> &HostMem;

    /// Registration table (STag / lkey-rkey / MX cache) of this NIC.
    fn registry(&self) -> &MemoryRegistry;
}

/// A fabric of `N` NICs, one per node, on one cut-through switch.
pub struct Fabric<N: NicModel> {
    sim: Sim,
    switch: CutThroughSwitch,
    devices: Vec<Rc<N>>,
    /// Memoized `src → dst` pipelines. A [`Pipeline`] clone shares its stage
    /// slice (and thus its pipes' calendars), so handing out the same cached
    /// path keeps every transfer on one calendar set — which is what lets
    /// back-to-back messages on an idle path repeatedly take the simnet
    /// cut-through fast path instead of rebuilding the stages per call.
    paths: RefCell<BTreeMap<(usize, usize), Pipeline>>,
    /// Fault plane (disabled by default); endpoints capture a clone when
    /// they connect and recover through their fabric's own protocol.
    fault: RefCell<FaultPlane>,
    /// Next fabric-unique QP number (the HCA's context-cache key).
    next_qpn: Cell<u32>,
}

impl<N: NicModel> Fabric<N> {
    /// Build a fabric of `nodes` hosts with default calibration.
    pub fn new(sim: &Sim, nodes: usize) -> Self
    where
        N::Calib: Default,
    {
        Self::with_calib(sim, nodes, N::Calib::default())
    }

    /// Build a fabric with explicit calibration (ablation studies override
    /// single fields).
    pub fn with_calib(sim: &Sim, nodes: usize, calib: N::Calib) -> Self {
        assert!(nodes >= 2, "a fabric needs at least two nodes");
        let devices: Vec<_> = (0..nodes).map(|n| Rc::new(N::new(sim, n, calib))).collect();
        Fabric {
            sim: sim.clone(),
            switch: CutThroughSwitch::new(sim, devices[0].switch_config(), nodes),
            devices,
            paths: RefCell::new(BTreeMap::new()),
            fault: RefCell::new(FaultPlane::disabled()),
            next_qpn: Cell::new(1),
        }
    }

    /// Allocate a fabric-unique QP number.
    pub(crate) fn alloc_qpn(&self) -> u32 {
        self.next_qpn.replace(self.next_qpn.get() + 1)
    }

    /// Install a fault plane (see [`simnet::fault`]). Affects endpoints
    /// connected *after* this call; with the plane disabled (the default)
    /// the fabric is bit-identical to the fault-free build.
    pub fn set_fault_plane(&self, plane: FaultPlane) {
        *self.fault.borrow_mut() = plane;
    }

    /// The currently installed fault plane (cloned; clones share state).
    pub fn fault_plane(&self) -> FaultPlane {
        self.fault.borrow().clone()
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.devices.len()
    }

    /// Device installed in node `n`.
    pub fn device(&self, n: usize) -> Rc<N> {
        assert!(
            n < self.nodes(),
            "node {n} out of range: the fabric has {} nodes",
            self.nodes()
        );
        Rc::clone(&self.devices[n])
    }

    /// Per-segment wire/header overhead of this fabric's stack.
    pub fn per_segment_overhead(&self) -> Bytes {
        self.devices[0].per_segment_overhead()
    }

    /// Largest payload one wire segment carries.
    pub fn segment_payload(&self) -> Bytes {
        self.devices[0].segment_payload()
    }

    /// The one-directional data path `src → dst` as a segment-granular
    /// pipeline: the source NIC's TX stages, the switch egress port towards
    /// `dst`, the destination NIC's RX stages. Built once per `(src, dst)`
    /// pair and cached; the returned clone shares the cached stage slice.
    pub fn data_path(&self, src: usize, dst: usize) -> Pipeline {
        assert_ne!(
            src,
            dst,
            "loopback is not modelled: node {src} to itself on a {}-node fabric",
            self.nodes()
        );
        if let Some(p) = self.paths.borrow().get(&(src, dst)) {
            return p.clone();
        }
        let (s, d) = (self.device(src), self.device(dst));
        let mut stages = s.tx_stages();
        stages.push(self.switch.stage_to(dst));
        stages.extend(d.rx_stages());
        let path = pipeline(&self.sim, &*s, stages);
        self.paths.borrow_mut().insert((src, dst), path.clone());
        path
    }

    /// Host-local halves of `nic`'s data path, for endpoint-to-shard
    /// placement in sharded runs ([`simnet::shard`]).
    /// [`Fabric::data_path`] cut at the switch hop: `egress` is the NIC's TX
    /// stages; `ingress` is this host's switch egress port — flows
    /// converging on this destination serialize there exactly as in the
    /// monolithic path — followed by the NIC's RX stages; the switch's
    /// forwarding delay rides on the wire as `wire_latency`, the cross-shard
    /// lookahead window. Both halves stage through the *same* device, so a
    /// pipe the two directions share stays shared.
    pub fn host_path(sim: &Sim, nic: &N) -> HostPath {
        let cfg = nic.switch_config();
        let mut ingress = vec![Stage::new(
            Pipe::new(sim, cfg.port_bytes_per_sec, SimDuration::ZERO),
            SimDuration::ZERO,
        )];
        ingress.extend(nic.rx_stages());
        HostPath {
            egress: pipeline(sim, nic, nic.tx_stages()),
            ingress: pipeline(sim, nic, ingress),
            wire_latency: cfg.forwarding_latency,
            overhead_bytes: nic.per_segment_overhead(),
        }
    }
}

fn pipeline<N: NicModel>(sim: &Sim, nic: &N, stages: Vec<Stage>) -> Pipeline {
    Pipeline::with_chunk(sim, stages, nic.segment_payload(), nic.pacing_chunk())
}
