//! Quickstart: bring up a two-node iWARP fabric through the provider-neutral
//! `udapl` handle, run an RDMA-Write ping-pong, and print latency + computed
//! bandwidth for a size sweep.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hostmodel::cpu::{Cpu, CpuCosts};
use simnet::sync::join2;
use simnet::Sim;
use udapl::{DatFabric, Ia, Provider};

fn main() {
    println!("== iWARP (NetEffect NE010e model) RDMA Write ping-pong ==");
    println!("{:>10} {:>12} {:>12}", "bytes", "half-RTT us", "MB/s");
    for size in [4u64, 64, 1024, 16 << 10, 256 << 10, 4 << 20] {
        let sim = Sim::new();
        let t = sim.block_on({
            let sim = sim.clone();
            async move {
                // The provider-neutral verbs handle: swap the provider for
                // `Provider::InfiniBand` and nothing below changes.
                let provider = Provider::Iwarp;
                let fab = DatFabric::new(&sim, provider, 2);
                let cpu_a = Cpu::new(&sim, CpuCosts::default());
                let cpu_b = Cpu::new(&sim, CpuCosts::default());
                let (ep_a, ep_b) = fab.connect(0, 1, &cpu_a, &cpu_b).await;
                let lmr_a = fab.lmr_create(&Ia::open(provider, &cpu_a), 0, size).await;
                let lmr_b = fab.lmr_create(&Ia::open(provider, &cpu_b), 1, size).await;
                let (rmr_a, rmr_b) = (lmr_a.as_rmr(), lmr_b.as_rmr());
                let iters = 20u64;
                let t0 = sim.now();
                let ping = async {
                    for i in 0..iters {
                        ep_a.post_rdma_write(i, &lmr_a, 0, size, &rmr_b, 0, None)
                            .await
                            .expect("in bounds");
                        ep_a.wait_placement().await;
                        ep_a.evd_dequeue();
                    }
                };
                let pong = async {
                    for i in 0..iters {
                        ep_b.wait_placement().await;
                        ep_b.post_rdma_write(i, &lmr_b, 0, size, &rmr_a, 0, None)
                            .await
                            .expect("in bounds");
                        ep_b.evd_dequeue();
                    }
                };
                join2(ping, pong).await;
                (sim.now() - t0).as_micros_f64() / (2.0 * iters as f64)
            }
        });
        println!("{:>10} {:>12.2} {:>12.0}", size, t, size as f64 / t);
    }
    println!();
    println!("paper anchors: 9.78 us small-message half-RTT, ~1088 MB/s peak");
}
