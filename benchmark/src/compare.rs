//! `perfbench compare A.json B.json`: hold B against A under the bounds the
//! benchmark fixed. Each side may be several comma-separated `--out` files
//! (repeated runs of one commit); their samples are pooled.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{self, Better, MetricDef};
use crate::stats::{median, quartiles, spread};

/// `(workload, traced, metric)` → pooled samples.
type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

pub fn load_side(paths: &str) -> Result<Samples, String> {
    let mut side = Samples::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let results = doc
            .get("results")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: no \"results\" array"))?;
        for entry in results {
            let workload = entry.get("workload").and_then(Value::as_str);
            let traced = entry.get("traced").and_then(Value::as_bool);
            let metrics = entry.get("metrics").and_then(Value::as_obj);
            let (Some(workload), Some(traced), Some(metrics)) = (workload, traced, metrics) else {
                return Err(format!("{path}: malformed results entry"));
            };
            for (name, record) in metrics {
                let samples = record
                    .get("samples")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{path}: {workload}/{name}: no samples"))?;
                side.entry((workload.to_string(), traced, name.clone()))
                    .or_default()
                    .extend(samples.iter().filter_map(Value::as_f64));
            }
        }
    }
    Ok(side)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Exact count, identical in every sample of both sides.
    Exact,
    /// Exact count that differs: a behaviour change, whatever its size.
    Mismatch,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// Within the bound, but the run-to-run spread is wider than the bound,
    /// so "no change" cannot be told from a change of that size.
    Unresolved,
    Unchanged,
    /// Within the bound or better, and every B sample beats every A sample
    /// (at least three a side: one run against one proves nothing).
    Better,
    /// A per-layer timing: no bound, shown for attribution only.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Info => "info",
        }
    }

    /// Does this row make the comparison fail?
    pub fn blocks(self) -> bool {
        matches!(
            self,
            Verdict::Mismatch | Verdict::Regression | Verdict::Unresolved
        )
    }
}

/// Share of A's median by which B's median is worse (negative = better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if def.exact {
        let same = a
            .iter()
            .chain(b)
            .all(|x| x.to_bits() == a.first().map_or(0, |f| f.to_bits()));
        return if same {
            Verdict::Exact
        } else {
            Verdict::Mismatch
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    if worse_by(def, median(a), median(b)) > bound {
        return Verdict::Regression;
    }
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let enough = a.len().min(b.len()) >= 3;
    if enough && b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Print one row per (workload, metric) present on both sides; `Ok(true)`
/// if no row blocks.
pub fn compare(a_paths: &str, b_paths: &str) -> Result<bool, String> {
    let (a, b) = (load_side(a_paths)?, load_side(b_paths)?);
    let defs = metrics::all();
    println!(
        "{:<22} {:<38} {:>12} {:>25} {:>12} {:>25} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound"
    );
    let mut ok = true;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (key, sa) in &a {
        let (workload, _traced, name) = key;
        let Some(sb) = b.get(key) else {
            println!("{workload:<22} {name:<38} only in A");
            ok = false;
            continue;
        };
        let Some(def) = defs.iter().find(|d| d.name == *name) else {
            return Err(format!("{name}: not a metric of this benchmark"));
        };
        let verdict = judge(def, sa, sb);
        ok &= !verdict.blocks();
        *counts.entry(verdict.as_str()).or_default() += 1;
        let (ma, mb) = (median(sa), median(sb));
        let (qa, qb) = (quartiles(sa), quartiles(sb));
        println!(
            "{workload:<22} {name:<38} {ma:>12.6} {:>25} {mb:>12.6} {:>25} {:>9.4} {:>7}  {}",
            format!("{:.6}..{:.6}", qa.0, qa.1),
            format!("{:.6}..{:.6}", qb.0, qb.1),
            mb / ma,
            def.bound
                .map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0)),
            verdict.as_str(),
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<22} {:<38} only in B", key.0, key.2);
        ok = false;
    }
    let summary: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!(
        "# B/A is B's median over A's (base: A). {}",
        summary.join(", ")
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, per_layer};

    fn e2e(name: &str) -> MetricDef {
        end_to_end()
            .into_iter()
            .find(|d| d.name == name)
            .expect("known metric")
    }

    #[test]
    fn bound_decides_regression_in_the_metric_s_direction() {
        let wall = e2e("wall_s"); // lower is better, bound 25 %
        let a = [2.00, 2.01, 1.99, 2.00, 2.02];
        assert_eq!(
            judge(&wall, &a, &[2.60, 2.61, 2.59, 2.60, 2.62]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&wall, &a, &[2.40, 2.41, 2.39, 2.40, 2.42]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&wall, &a, &[1.50, 1.51, 1.49, 1.50, 1.52]),
            Verdict::Better
        );

        let rate = e2e("sim_msgs_per_s"); // higher is better
        let a = [1000.0, 1001.0, 999.0];
        assert_eq!(
            judge(&rate, &a, &[700.0, 701.0, 699.0]),
            Verdict::Regression
        );
        assert_eq!(judge(&rate, &a, &[1300.0, 1301.0, 1299.0]), Verdict::Better);
        assert_eq!(
            judge(&rate, &a, &[950.0, 1001.5, 949.0]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let wall = e2e("wall_s");
        // Medians agree, but the quartiles are 35 % of the median apart:
        // a 25 % change would drown in that.
        let noisy = [1.6, 1.7, 2.0, 2.3, 2.4];
        let steady = [2.00, 2.01, 1.99, 2.00, 2.02];
        assert_eq!(judge(&wall, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&wall, &noisy, &steady), Verdict::Unresolved);
        // … unless every run of B beats every run of A, and there are
        // enough runs for that to mean something.
        assert_eq!(judge(&wall, &noisy, &[1.0, 1.1, 1.2]), Verdict::Better);
        assert_eq!(judge(&wall, &noisy, &[1.0, 1.1]), Verdict::Unresolved);
        // A regression stays a regression however noisy.
        assert_eq!(judge(&wall, &steady, &[2.4, 3.0, 3.6]), Verdict::Regression);
    }

    #[test]
    fn exact_counts_must_match_bit_for_bit() {
        let count = per_layer()
            .into_iter()
            .find(|d| d.name == "simnet.pipe.slow_share")
            .expect("known metric");
        assert_eq!(judge(&count, &[0.25, 0.25], &[0.25]), Verdict::Exact);
        assert_eq!(
            judge(&count, &[0.25], &[0.25000000000000006]),
            Verdict::Mismatch
        );
        assert!(Verdict::Mismatch.blocks() && !Verdict::Exact.blocks());

        let timing = per_layer()
            .into_iter()
            .find(|d| d.name == "simnet.pipe.fast_ns_per_xfer")
            .expect("known metric");
        assert_eq!(judge(&timing, &[100.0], &[900.0]), Verdict::Info);
        assert!(!Verdict::Info.blocks());
    }

    #[test]
    fn single_samples_have_no_spread() {
        let rss = e2e("peak_rss_mb");
        assert_eq!(judge(&rss, &[50.0], &[51.0]), Verdict::Unchanged);
        assert_eq!(judge(&rss, &[50.0], &[49.0]), Verdict::Unchanged);
        assert_eq!(judge(&rss, &[50.0], &[60.0]), Verdict::Regression);
    }
}
