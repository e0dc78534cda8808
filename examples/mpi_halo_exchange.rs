//! A realistic HPC workload over the simulated MPI: 2-D Jacobi halo
//! exchange on a ring of 4 ranks (one per node), the kind of application
//! pattern the paper's introduction motivates.
//!
//! Each iteration exchanges boundary rows with both neighbours using
//! non-blocking send/recv, then "computes" the stencil. Reports the
//! communication time per iteration per fabric.
//!
//! ```text
//! cargo run --release --example mpi_halo_exchange
//! ```

use std::rc::Rc;

use mpisim::rank::Source;
use mpisim::{FabricKind, MpiWorld};
use simnet::sync::{join_all, Barrier};
use simnet::{Sim, SimDuration};

const RANKS: usize = 4;
const HALO_BYTES: u64 = 64 * 1024; // one boundary row of a 8192^2 grid (f64)
const ITERS: u64 = 10;
const COMPUTE_US: u64 = 150;

fn main() {
    println!("== 2-D halo exchange, {RANKS} ranks, {HALO_BYTES} B halos, {ITERS} iters ==");
    println!(
        "{:>8} {:>16} {:>16}",
        "fabric", "comm us/iter", "total us/iter"
    );
    for kind in FabricKind::ALL {
        let (comm, total) = run(kind);
        println!("{:>8} {:>16.1} {:>16.1}", kind.label(), comm, total);
    }
    println!();
    println!("comm time difference tracks the Fig. 3/4 latency-bandwidth ordering;");
    println!("overlap-capable fabrics hide more of it behind the compute phase");
}

fn run(kind: FabricKind) -> (f64, f64) {
    let sim = Sim::new();
    let world = MpiWorld::build(&sim, kind, RANKS);
    let barrier = Barrier::new(RANKS);
    let t_total = sim.block_on({
        let sim = sim.clone();
        let ranks: Vec<_> = (0..RANKS).map(|r| Rc::clone(world.rank(r))).collect();
        async move {
            let mut tasks = Vec::new();
            #[expect(clippy::needless_range_loop, reason = "r is the MPI rank id")]
            for r in 0..RANKS {
                let me = Rc::clone(&ranks[r]);
                let barrier = barrier.clone();
                let sim = sim.clone();
                tasks.push(async move {
                    let up = (r + RANKS - 1) % RANKS;
                    let down = (r + 1) % RANKS;
                    let send_up = me.alloc_buffer(HALO_BYTES);
                    let send_down = me.alloc_buffer(HALO_BYTES);
                    let recv_up = me.alloc_buffer(HALO_BYTES);
                    let recv_down = me.alloc_buffer(HALO_BYTES);
                    barrier.wait().await;
                    let mut comm_ns = 0u64;
                    for _ in 0..ITERS {
                        let t0 = sim.now();
                        // Post both receives first (good MPI practice).
                        let r_up = me.irecv(Source::Rank(up), 1, recv_up, HALO_BYTES).await;
                        let r_dn = me.irecv(Source::Rank(down), 2, recv_down, HALO_BYTES).await;
                        let s_up = me.isend(up, 2, send_up, HALO_BYTES, None).await;
                        let s_dn = me.isend(down, 1, send_down, HALO_BYTES, None).await;
                        r_up.wait().await;
                        r_dn.wait().await;
                        s_up.wait().await;
                        s_dn.wait().await;
                        comm_ns += (sim.now() - t0).as_nanos();
                        // Stencil compute phase.
                        me.cpu().work(SimDuration::from_micros(COMPUTE_US)).await;
                        barrier.wait().await;
                    }
                    comm_ns
                });
            }
            let per_rank = join_all(tasks).await;
            per_rank.iter().copied().max().expect("RANKS > 0")
        }
    });
    let comm_us = t_total as f64 / 1000.0 / ITERS as f64;
    let total_us = sim.now().as_micros_f64() / ITERS as f64;
    (comm_us, total_us)
}
