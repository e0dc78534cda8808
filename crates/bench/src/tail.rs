//! `fig-tail` — open-loop tail latency under offered load (DESIGN.md §13,
//! EXPERIMENTS.md E14).
//!
//! Two figures, both driven by the open-loop workload engine
//! (`netbench::workload`) and the constant-memory [`crate::sketch`]:
//!
//! * **fig-tail-latency** — p50/p99/p999 flow latency vs offered load per
//!   tenant, one series triple per fabric, on a log-spaced load grid. At
//!   low load the percentiles sit on the closed-loop RTT; past the knee
//!   the open-loop queue grows and the tail departs first — the shape a
//!   closed-loop ping-pong structurally cannot produce.
//! * **fig-tail-knee** — where the knee sits as connection (tenant) count
//!   grows: the highest offered load (same log grid) whose p99 stays
//!   within [`KNEE_FACTOR`]× the lowest-load p99, reported as *aggregate*
//!   kflows/s across tenants.
//!
//! Knee extraction uses the same nearest-rank percentile definition as
//! the sketch (see `crate::sketch` module docs) — fig-tail and
//! perfbench can never disagree on small samples.

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::FabricKind;
use netbench::report::{Figure, Series};
use netbench::workload::{run_workload, FlowSink, WorkloadSpec};
use simnet::SimDuration;

use crate::sketch::LatencySketch;

/// Log-spaced mean interarrival gaps (per tenant), microseconds. The
/// reciprocal is the offered load axis: 6.25–100 kflows/s per tenant.
const LOAD_GAPS_US: [u64; 5] = [160, 80, 40, 20, 10];

/// Workload seed for the whole figure family (the generator folds a
/// per-tenant stream id on top).
const SEED: u64 = 0x7A11;

/// A load's knee multiple: the knee is the highest load whose p99 is
/// still within this factor of the lowest-load (uncongested) p99.
pub const KNEE_FACTOR: u64 = 3;

/// Offered load in kflows/s per tenant for a mean gap in microseconds.
fn kflows_per_sec(gap_us: u64) -> f64 {
    1_000.0 / gap_us as f64
}

/// Run one workload and collect every tenant's flow latencies into a
/// fresh sketch.
fn sketch_for(spec: &WorkloadSpec) -> LatencySketch {
    let sketch = Rc::new(RefCell::new(LatencySketch::new()));
    let sink: FlowSink = {
        let sketch = Rc::clone(&sketch);
        Rc::new(RefCell::new(move |_tenant: usize, lat: SimDuration| {
            sketch.borrow_mut().record(lat.as_nanos());
        }))
    };
    let out = run_workload(spec, &sink);
    drop(sink);
    debug_assert_eq!(out.issued, out.completed, "conservation at quiesce");
    Rc::try_unwrap(sketch)
        .expect("engine dropped its sink clones at quiesce")
        .into_inner()
}

/// Tail latency vs offered load: p50/p99/p999 per fabric over the
/// log-spaced load grid, 4 RPC/KV + DAQ tenants, 64 flows each.
pub fn fig_tail_latency() -> Figure {
    let mut fig = Figure::new(
        "fig-tail-latency",
        "Open-loop tail latency vs offered load (4 tenants, RPC/KV + DAQ mix)",
        "offered kflows/s per tenant",
        "flow latency (us)",
    );
    for kind in FabricKind::ALL {
        let mut p50 = Series::new(format!("{} p50", kind.label()));
        let mut p99 = Series::new(format!("{} p99", kind.label()));
        let mut p999 = Series::new(format!("{} p999", kind.label()));
        for gap_us in LOAD_GAPS_US {
            let spec = WorkloadSpec::mixed(kind, 4, 64, SimDuration::from_micros(gap_us), SEED);
            let s = sketch_for(&spec);
            let x = kflows_per_sec(gap_us);
            p50.push(x, s.p50() as f64 / 1_000.0);
            p99.push(x, s.p99() as f64 / 1_000.0);
            p999.push(x, s.p999() as f64 / 1_000.0);
        }
        fig.series.push(p50);
        fig.series.push(p99);
        fig.series.push(p999);
    }
    fig
}

/// The knee of a p99-vs-load sweep on the log-spaced grid: the index of
/// the highest load whose p99 stays within [`KNEE_FACTOR`]× the
/// lowest-load p99. Integer arithmetic over nearest-rank p99s — the same
/// definition the sketch uses, so this never disagrees with the reported
/// percentiles. Index 0 (the lowest load) when every higher load is past
/// the knee.
pub fn knee_index(p99s_ns: &[u64]) -> usize {
    let Some(&base) = p99s_ns.first() else {
        return 0;
    };
    let budget = base.saturating_mul(KNEE_FACTOR);
    p99s_ns.iter().rposition(|&p| p <= budget).unwrap_or(0)
}

/// Knee location vs connection count: aggregate kflows/s at the knee for
/// 1–16 RPC/KV tenants, one series per fabric.
pub fn fig_tail_knee() -> Figure {
    let mut fig = Figure::new(
        "fig-tail-knee",
        "Open-loop knee vs connection count (RPC/KV tenants)",
        "connections (tenants)",
        "aggregate kflows/s at knee",
    );
    for kind in FabricKind::ALL {
        let mut s = Series::new(kind.label());
        for tenants in [1usize, 2, 4, 8, 16] {
            let p99s: Vec<u64> = LOAD_GAPS_US
                .iter()
                .map(|&gap_us| {
                    let spec = WorkloadSpec::rpc_kv(
                        kind,
                        tenants,
                        32,
                        SimDuration::from_micros(gap_us),
                        SEED,
                    );
                    sketch_for(&spec).p99()
                })
                .collect();
            let knee_gap = LOAD_GAPS_US[knee_index(&p99s)];
            s.push(tenants as f64, tenants as f64 * kflows_per_sec(knee_gap));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_index_follows_nearest_rank_p99s() {
        // Flat sweep: the knee is the highest load.
        assert_eq!(knee_index(&[100, 110, 120]), 2);
        // Tail blows up at the last load: knee one before it.
        assert_eq!(knee_index(&[100, 150, 200, 5_000]), 2);
        // Everything past the base is congested: knee at the base.
        assert_eq!(knee_index(&[100, 500, 900]), 0);
        // Non-monotone p99 (noise on small samples): highest load under
        // budget wins, not the first crossing.
        assert_eq!(knee_index(&[100, 400, 250]), 2);
        assert_eq!(knee_index(&[]), 0);
    }

    #[test]
    fn tail_latency_figure_shape() {
        let fig = fig_tail_latency();
        assert_eq!(fig.id, "fig-tail-latency");
        // 4 fabrics x {p50, p99, p999}.
        assert_eq!(fig.series.len(), 12);
        for s in &fig.series {
            assert_eq!(s.points.len(), LOAD_GAPS_US.len());
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
        // Within one fabric the percentiles are ordered at every load.
        for f in 0..4 {
            let (p50, p99) = (&fig.series[f * 3], &fig.series[f * 3 + 1]);
            let p999 = &fig.series[f * 3 + 2];
            for i in 0..p50.points.len() {
                assert!(p50.points[i].1 <= p99.points[i].1);
                assert!(p99.points[i].1 <= p999.points[i].1);
            }
        }
    }

    #[test]
    fn tail_figures_are_deterministic() {
        let a = fig_tail_latency();
        let b = fig_tail_latency();
        assert_eq!(a.to_json(), b.to_json());
    }
}
