//! What an in-flight message holds, bounded.
//!
//! Every posted verbs write is one spawned task whose future is boxed once
//! and lives until its CQE is raised, so at `multiconn_contended`'s peak
//! ten thousand of them are alive at once: their size is the simulator's
//! per-message host footprint. Each bound below is the size the future has
//! now; the comment gives the size before cold branches were boxed and
//! argument re-stores removed. A future that regrows fails here, not only
//! in the benchmark's `peak_rss_mb`. (`chunk_walk` is private to `simnet`;
//! its bound is in `simnet::pipe`'s tests.) Layouts are the same in debug
//! and release builds.

use std::mem::size_of_val;

use etherstack::recovery::TCP_OFFLOAD;
use etherstack::{transfer_reliable, Fabric, Lane, VerbsNic};
use infiniband::HcaDevice;
use iwarp::RnicDevice;
use simnet::{ByteRate, Bytes, FaultConfig, FaultPlane, Pipe, Pipeline, Sim, SimDuration, Stage};

fn path(sim: &Sim) -> Pipeline {
    let pipe = Pipe::new(sim, ByteRate::from_gbps(10), SimDuration::ZERO);
    Pipeline::new(
        sim,
        vec![Stage::new(pipe, SimDuration::ZERO)],
        Bytes::new(1448),
    )
}

#[test]
fn a_pipeline_transfer_holds_one_sleep() {
    let sim = Sim::new();
    let path = path(&sim);
    // Was 160 B, with the block walk's state inline.
    let fut = path.transfer(Bytes::new(1 << 20), Bytes::new(78));
    assert!(size_of_val(&fut) <= 64, "{} B", size_of_val(&fut));
}

#[test]
fn a_reliable_transfer_holds_only_the_branch_it_takes() {
    let sim = Sim::new();
    let path = path(&sim);
    for plane in [
        FaultPlane::disabled(),
        FaultPlane::new(FaultConfig::loss(10_000, 1)),
    ] {
        // Was 440 B, with the recovery loop's state inline.
        let fut = transfer_reliable(
            &sim,
            &plane,
            &path,
            7,
            Bytes::new(1 << 20),
            Bytes::new(1448),
            Bytes::new(78),
            &TCP_OFFLOAD,
        );
        assert!(size_of_val(&fut) <= 104, "{} B", size_of_val(&fut));
    }
}

/// `Lane::carry`'s future on fabric `N`.
fn carry_size<N: VerbsNic>() -> usize
where
    N::Calib: Default,
{
    let sim = Sim::new();
    let fab = Fabric::<N>::new(&sim, 2);
    let lane = Lane::new(&fab, 0, 1, 1, 2);
    let fut = lane.carry(Bytes::new(8 << 10));
    size_of_val(&fut)
}

#[test]
fn a_lane_carry_stores_its_arguments_once() {
    // Was 480 B on both fabrics, with the recovery loop inline; the HCA's
    // per-message engine state was stored twice.
    let (iwarp, ib) = (carry_size::<RnicDevice>(), carry_size::<HcaDevice>());
    assert!(iwarp <= 128, "iWARP {iwarp} B");
    assert!(ib <= 128, "IB {ib} B");
}
