//! The fabric-independent behaviour of the shared verbs [`Qp`], checked once
//! and run over both NICs — this is the first crate that sees the two of
//! them. Paper anchors and per-fabric mechanisms are tested in the fabric
//! crates.

use etherstack::{Fabric, Qp, VerbsNic, WorkRequest};
use hostmodel::cpu::{Cpu, CpuCosts};
use hostmodel::mem::{MemKey, VirtAddr};
use hostmodel::nic::{CqeOpcode, CqeStatus};
use infiniband::HcaDevice;
use iwarp::RnicDevice;
use simnet::Sim;
use std::future::Future;

/// Connect nodes 0 and 1 of a fresh two-node `N` fabric and run `body` on
/// the pair (and the two process CPUs) to completion.
fn on_pair<N, F, Fut, T>(body: F) -> T
where
    N: VerbsNic,
    N::Calib: Default,
    F: FnOnce(Qp<N>, Qp<N>, Cpu, Cpu) -> Fut + 'static,
    Fut: Future<Output = T>,
    T: 'static,
{
    let sim = Sim::new();
    let fab = Fabric::<N>::new(&sim, 2);
    let cpu_a = Cpu::new(&sim, CpuCosts::default());
    let cpu_b = Cpu::new(&sim, CpuCosts::default());
    sim.block_on(async move {
        let (qa, qb) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
        body(qa, qb, cpu_a, cpu_b).await
    })
}

/// `len` bytes on `qp`'s host, pinned and keyed.
async fn pinned<N: VerbsNic>(qp: &Qp<N>, cpu: &Cpu, len: u64) -> (VirtAddr, MemKey) {
    let dev = qp.device();
    let buf = dev.mem().alloc_buffer(len);
    (buf, dev.registry().register_pinned(cpu, buf, len).await)
}

/// A payload longer than its request (here and in the Send case below)
/// lands only `len` bytes: the key or the receive covers no more, and the
/// bytes after them keep their value.
fn write_places_data_remotely<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, qb, _cpu_a, cpu_b| async move {
        let (dst, rkey) = pinned(&qb, &cpu_b, 4096).await;
        let data = b"rdma over any wire".to_vec();
        qa.post_send_wr(WorkRequest::RdmaWrite {
            wr_id: 1,
            len: data.len() as u64,
            payload: Some([&data[..], b"!!"].concat()),
            rkey,
            remote_addr: dst,
        })
        .await;
        let cqe = qa.next_cqe().await;
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.opcode, CqeOpcode::RdmaWrite);
        qb.wait_placement().await;
        let landed = qb.device().mem().read(dst, data.len() as u64 + 2);
        assert_eq!(landed, [&data[..], &[0, 0]].concat());
    });
}

fn bad_key_yields_remote_access_error<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, _qb, _, _| async move {
        qa.post_send_wr(WorkRequest::RdmaWrite {
            wr_id: 1,
            len: 16,
            payload: None,
            rkey: MemKey(424_242),
            remote_addr: VirtAddr(64),
        })
        .await;
        let cqe = qa.next_cqe().await;
        assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
        assert_eq!(cqe.len, 0);
    });
}

fn send_recv_roundtrip_with_preposted_receive<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, qb, _, _| async move {
        let rbuf = qb.device().mem().alloc_buffer(1024);
        qb.post_recv(7, rbuf, 1024).await;
        qa.post_send_wr(WorkRequest::Send {
            wr_id: 3,
            len: 11,
            payload: Some(b"hello verbs!!".to_vec()),
        })
        .await;
        let scqe = qa.next_cqe().await;
        assert_eq!((scqe.wr_id, scqe.status), (3, CqeStatus::Success));
        let rcqe = qb.next_cqe().await;
        assert_eq!((rcqe.wr_id, rcqe.len), (7, 11));
        assert_eq!(qb.device().mem().read(rbuf, 13), b"hello verbs\0\0");
    });
}

fn unmatched_send_is_buffered_until_receive_posts<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, qb, _, _| async move {
        qa.post_send_wr(WorkRequest::Send {
            wr_id: 1,
            len: 5,
            payload: Some(b"early".to_vec()),
        })
        .await;
        // Let the send arrive before any receive exists.
        qa.next_cqe().await;
        let rbuf = qb.device().mem().alloc_buffer(64);
        qb.post_recv(9, rbuf, 64).await;
        let rcqe = qb.next_cqe().await;
        assert_eq!(rcqe.wr_id, 9);
        assert_eq!(qb.device().mem().read(rbuf, 5), b"early");
    });
}

fn send_longer_than_receive_errors<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, qb, _, _| async move {
        let rbuf = qb.device().mem().alloc_buffer(8);
        qb.post_recv(1, rbuf, 8).await;
        qa.post_send_wr(WorkRequest::Send {
            wr_id: 2,
            len: 64,
            payload: None,
        })
        .await;
        assert_eq!(qb.next_cqe().await.status, CqeStatus::LocalLengthError);
    });
}

fn posts_cost_host_cpu_but_transfers_do_not<N: VerbsNic<Calib: Default>>() {
    let busy = on_pair::<N, _, _, _>(|qa, qb, cpu_a, cpu_b| async move {
        let (dst, rkey) = pinned(&qb, &cpu_b, 1 << 20).await;
        cpu_a.reset_busy();
        qa.post_send_wr(WorkRequest::RdmaWrite {
            wr_id: 1,
            len: 1 << 20,
            payload: None,
            rkey,
            remote_addr: dst,
        })
        .await;
        qa.next_cqe().await;
        cpu_a.busy_time()
    });
    // A 1 MB write takes ~1 ms of wire time but only the post cost (<1 µs)
    // of CPU — the zero-copy OS-bypass property.
    assert!(busy.as_micros_f64() < 1.0, "CPU busy {busy}");
}

fn rdma_read_pulls_remote_data<N: VerbsNic<Calib: Default>>() {
    on_pair::<N, _, _, _>(|qa, qb, _cpu_a, cpu_b| async move {
        let (src, rkey) = pinned(&qb, &cpu_b, 256).await;
        qb.device().mem().write(src, b"pull me across");
        let dst = qa.device().mem().alloc_buffer(256);
        qa.post_send_wr(WorkRequest::RdmaRead {
            wr_id: 5,
            len: 14,
            local_addr: dst,
            rkey,
            remote_addr: src,
        })
        .await;
        let cqe = qa.next_cqe().await;
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.opcode, CqeOpcode::RdmaRead);
        assert_eq!(qa.device().mem().read(dst, 14), b"pull me across");
    });
}

/// One `#[test]` per behaviour, each run on the RNIC and then the HCA.
macro_rules! on_both_nics {
    ($($behaviour:ident => $test:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            $behaviour::<RnicDevice>();
            $behaviour::<HcaDevice>();
        }
    )*};
}

on_both_nics! {
    write_places_data_remotely => rdma_write_places_data_remotely_on_both_nics,
    bad_key_yields_remote_access_error => bad_key_yields_remote_access_error_on_both_nics,
    send_recv_roundtrip_with_preposted_receive => preposted_send_recv_roundtrips_on_both_nics,
    unmatched_send_is_buffered_until_receive_posts => unmatched_send_waits_for_a_receive_on_both_nics,
    send_longer_than_receive_errors => overlong_send_is_a_local_length_error_on_both_nics,
    posts_cost_host_cpu_but_transfers_do_not => posts_cost_cpu_but_transfers_do_not_on_both_nics,
    rdma_read_pulls_remote_data => rdma_read_pulls_remote_data_on_both_nics,
}
