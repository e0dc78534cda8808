//! The metric registry: every name this benchmark emits, with its unit,
//! direction, host/sim label and (end to end) regression bound. It is the
//! single source `BENCHMARK.json` is generated from (`perfbench manifest`)
//! and checked against (unit test below).

use mpisim::FabricKind;

use crate::workloads::kind_tag;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whose clock or counter a number comes from: `Host` is what the
/// simulator costs to run, `Sim` is what the modelled hardware does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Label {
    Host,
    Sim,
}

impl Label {
    pub fn as_str(self) -> &'static str {
        match self {
            Label::Host => "host",
            Label::Sim => "sim",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub label: Label,
    /// A count or simulated value that must repeat bit for bit (the `·x`
    /// rows of the README); `compare` requires these to match exactly.
    pub exact: bool,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, label: Label, exact: bool) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        label,
        exact,
        bound: None,
    }
}

/// The end-to-end metrics, in report order. The contract allows one bound
/// per metric, so the noisiest workload sets it: `cluster_ring`, whose
/// cross-thread hand-offs spread up to 23 % between runs on the 2-vCPU
/// reference box (the single-threaded workloads stay within 3-4 %; README).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Label::{Host, Sim};
    let e2e = |name, unit, better, label, exact, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better, label, exact)
    };
    vec![
        e2e("wall_s", "s", Lower, Host, false, 0.25),
        e2e("cpu_s", "s", Lower, Host, false, 0.25),
        e2e("sim_msgs_per_s", "msgs/s", Higher, Host, false, 0.25),
        e2e("setup_s", "s", Lower, Host, false, 0.25),
        e2e("peak_rss_mb", "MiB", Lower, Host, false, 0.10),
        // Exact-repeat, so any rise is a real change of the model: the
        // bound only has to be above zero.
        e2e("anchor_err_max_pct", "%", Lower, Sim, true, 0.001),
    ]
}

/// The per-layer metrics of the default traced run, layer by layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Label::{Host, Sim};
    let mut v = vec![
        def(
            "simnet.executor.timer_ns_per_event",
            "ns",
            Lower,
            Host,
            false,
        ),
        def(
            "simnet.executor.spawn_ns_per_task",
            "ns",
            Lower,
            Host,
            false,
        ),
        def(
            "simnet.executor.wake_ns_per_handoff",
            "ns",
            Lower,
            Host,
            false,
        ),
        def("simnet.executor.events_per_s", "1/s", Higher, Host, false),
        def("simnet.sync.mpsc_ns_per_item", "ns", Lower, Host, false),
        def("simnet.pipe.walk_ns_per_segment", "ns", Lower, Host, false),
        def(
            "simnet.pipe.walk_events_per_xfer",
            "count",
            Lower,
            Sim,
            true,
        ),
        def("simnet.pipe.slow_share", "ratio", Lower, Sim, true),
        def("simnet.pipe.calendar_peak_len", "count", Lower, Sim, true),
        def("simnet.pipe.fast_ns_per_xfer", "ns", Lower, Host, false),
        def("simnet.pipe.big_ns_per_xfer", "ns", Lower, Host, false),
        def(
            "simnet.pipe.fast_events_per_xfer",
            "count",
            Lower,
            Sim,
            true,
        ),
        def(
            "simnet.pipe.uncontended_slow_share",
            "ratio",
            Lower,
            Sim,
            true,
        ),
        def("simnet.memo.hit_ns_per_xfer", "ns", Lower, Host, false),
        def("simnet.memo.miss_ns_per_xfer", "ns", Lower, Host, false),
        def("simnet.memo.hit_rate", "ratio", Higher, Sim, true),
        def("simnet.memo.evictions", "count", Lower, Sim, true),
        def("simnet.shard.round_us_t1", "us", Lower, Host, false),
        def("simnet.shard.round_us_t2", "us", Lower, Host, false),
        def("simnet.shard.speedup_t2", "ratio", Higher, Host, false),
        def("simnet.shard.events_per_round", "count", Lower, Sim, true),
        def("simnet.shard.merge_queue_peak", "count", Lower, Sim, true),
        def("hostmodel.mem.register_ns_per_op", "ns", Lower, Host, false),
        def("hostmodel.mem.cached_ns_per_op", "ns", Lower, Host, false),
        def("hostmodel.mem.cache_hit_rate", "ratio", Higher, Sim, true),
        def("hostmodel.pcie.dma_ns_per_op", "ns", Lower, Host, false),
    ];
    for kind in FabricKind::ALL {
        let f = kind_tag(kind);
        let n = |suffix: &str| format!("{f}.{suffix}");
        v.extend([
            def(&n("setup_us"), "us", Lower, Host, false),
            def(&n("small_ns_per_msg"), "ns", Lower, Host, false),
            def(&n("large_ns_per_msg"), "ns", Lower, Host, false),
            def(&n("small_events_per_msg"), "count", Lower, Sim, true),
            def(&n("large_events_per_msg"), "count", Lower, Sim, true),
            def(&n("sim_half_rtt_ns"), "ns", Lower, Sim, true),
            def(&n("lossy_ns_per_msg"), "ns", Lower, Host, false),
            def(&n("retransmits_per_kmsg"), "count", Lower, Sim, true),
        ]);
    }
    v.extend([
        def("etherstack.small_ns_per_msg", "ns", Lower, Host, false),
        def("etherstack.large_ns_per_msg", "ns", Lower, Host, false),
        def("etherstack.events_per_msg", "count", Lower, Sim, true),
        def("mpisim.world_build_us", "us", Lower, Host, false),
        def("mpisim.eager_ns_per_msg", "ns", Lower, Host, false),
        def("mpisim.rndv_ns_per_msg", "ns", Lower, Host, false),
        def("mpisim.eager_events_per_msg", "count", Lower, Sim, true),
        def("mpisim.rndv_events_per_msg", "count", Lower, Sim, true),
        def("mpisim.unexpected_ns_per_msg", "ns", Lower, Host, false),
        def("mpisim.allreduce_us", "us", Lower, Host, false),
        def("udapl.rdma_write_ns_per_msg", "ns", Lower, Host, false),
        def("netbench.point_ms_p50", "ms", Lower, Host, false),
        def("netbench.point_ms_p90", "ms", Lower, Host, false),
        def("netbench.workload.ns_per_flow", "ns", Lower, Host, false),
        def(
            "netbench.workload.events_per_flow",
            "count",
            Lower,
            Sim,
            true,
        ),
        def(
            "netbench.workload.gen_backlog_peak",
            "count",
            Lower,
            Sim,
            true,
        ),
        def("bench.sketch.record_ns", "ns", Lower, Host, false),
        def("bench.trace_overhead_pct", "%", Lower, Host, false),
    ]);
    v
}

/// The two catalog-dependent headline numbers `trace --full` adds. They
/// time `bench::generate`, which later changes are asked to edit, so they
/// are informational and stay out of `BENCHMARK.json`.
pub fn full_extras() -> Vec<MetricDef> {
    vec![
        def(
            "bench.figures_all_wall_s",
            "s",
            Better::Lower,
            Label::Host,
            false,
        ),
        def("bench.fig2_wall_s", "s", Better::Lower, Label::Host, false),
    ]
}

/// Every definition `compare` may meet.
pub fn all() -> Vec<MetricDef> {
    let mut v = end_to_end();
    v.extend(per_layer());
    v.extend(full_extras());
    v
}

/// `^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$` — the contract's shape for a name.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// At most 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn name_validation_follows_the_contract() {
        for good in [
            "wall_s",
            "simnet.pipe.slow_share",
            "mx10g.mxom.setup_us",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "slow_share·x",
            "a/b",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("msgs/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("a b"));
        assert!(!valid_unit("seventeen_chars__"));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let defs = all();
        let names: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), defs.len(), "duplicate metric name");
        for d in &defs {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: unit {}", d.name, d.unit);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        for d in end_to_end() {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
    }

    fn manifest_section(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_emitted() {
        let path = crate::golden::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let row = |d: &MetricDef| {
            (
                d.name.clone(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
                d.bound,
            )
        };
        let want_e2e: Vec<_> = end_to_end().iter().map(row).collect();
        assert_eq!(manifest_section(&doc, "end_to_end"), want_e2e);
        let want_layers: Vec<_> = per_layer().iter().map(row).collect();
        assert_eq!(manifest_section(&doc, "per_layer"), want_layers);

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, want);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(crate::run::DEFAULT_SECONDS))
        );
    }
}
