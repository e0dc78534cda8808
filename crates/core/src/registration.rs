//! Memory-registration cost microbenchmark.
//!
//! The paper's related work (§3, citing the RAIT'06 NetEffect evaluation)
//! reports that "the NetEffect performs better in memory registration cost
//! ... while lagging behind in latency" against the Mellanox card. The
//! registration cost model behind Fig. 6 makes that claim directly
//! measurable here: cold-register a fresh buffer of each size on each
//! fabric and report the cost.

use hostmodel::cpu::{Cpu, CpuCosts};
use mpisim::FabricKind;
use simnet::Sim;

use crate::fabric::{host_at, Host};
use crate::report::{Figure, Series};
use crate::sweep::pow2_sizes;

/// Cold registration cost (µs) for a fresh `size`-byte buffer.
pub(crate) fn registration_cost_us(kind: FabricKind, size: u64) -> f64 {
    let sim = Sim::new();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let cpu = Cpu::new(&sim, CpuCosts::default());
            let Host { registry, mem, .. } = host_at(kind, &sim, 0);
            let buf = mem.alloc_buffer(size);
            let t0 = sim.now();
            let reg = registry.register_cached(&cpu, buf, size).await;
            assert!(!reg.cache_hit, "fresh buffer must miss");
            (sim.now() - t0).as_micros_f64()
        }
    })
}

/// Registration-cost figure: cold cost vs size, one series per NIC.
pub fn registration_figure() -> Figure {
    let mut fig = Figure::new(
        "e11-registration",
        "Cold memory-registration cost vs buffer size",
        "bytes",
        "us",
    );
    for kind in [FabricKind::Iwarp, FabricKind::InfiniBand, FabricKind::MxoM] {
        let mut s = Series::new(kind.label());
        for size in pow2_sizes(4096, 4 << 20) {
            s.push(size as f64, registration_cost_us(kind, size));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Warm (cache-hit) registration cost (µs).
    fn cached_registration_cost_us(kind: FabricKind, size: u64) -> f64 {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let cpu = Cpu::new(&sim, CpuCosts::default());
                let registry = host_at(kind, &sim, 0).registry;
                let buf = hostmodel::mem::HostMem::new().alloc_buffer(size);
                registry.register_cached(&cpu, buf, size).await;
                let t0 = sim.now();
                let reg = registry.register_cached(&cpu, buf, size).await;
                assert!(reg.cache_hit);
                (sim.now() - t0).as_micros_f64()
            }
        })
    }

    #[test]
    fn neteffect_registers_cheaper_than_mellanox() {
        // The cited RAIT'06 result: NetEffect wins registration cost.
        for size in [64 * 1024u64, 1 << 20] {
            let iw = registration_cost_us(FabricKind::Iwarp, size);
            let ib = registration_cost_us(FabricKind::InfiniBand, size);
            assert!(
                iw * 2.0 < ib,
                "size {size}: iWARP {iw:.1} µs must clearly beat IB {ib:.1} µs"
            );
        }
    }

    #[test]
    fn registration_scales_with_page_count() {
        let small = registration_cost_us(FabricKind::Iwarp, 4096);
        let large = registration_cost_us(FabricKind::Iwarp, 1 << 20);
        let ratio = large / small;
        assert!(
            (20.0..400.0).contains(&ratio),
            "1 MB (256 pages) vs 4 KB (1 page): ratio {ratio:.0} should be page-driven"
        );
    }

    #[test]
    fn cache_hits_are_orders_cheaper() {
        for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
            let cold = registration_cost_us(kind, 1 << 20);
            let warm = cached_registration_cost_us(kind, 1 << 20);
            assert!(
                warm * 50.0 < cold,
                "{kind:?}: warm {warm:.2} vs cold {cold:.1}"
            );
        }
    }
}
