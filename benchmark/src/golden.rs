//! Output checking: committed goldens (`golden/<workload>.json`), the
//! per-point verdict, and the paper anchors (`anchors.json`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::{self, Value};
use crate::workloads::{Outcome, Point, Workload, DEFAULT_SEED};

/// Directory of this package, fixed at build time: the benchmark reads
/// and writes only beneath it, wherever it is started from.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The exact quantities of every point of one workload, keyed by point id.
/// `u64`s travel as hex strings: JSON numbers are doubles and would lose
/// the low bits of an f64 bit pattern or a digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Golden {
    pub points: BTreeMap<String, Vec<(String, u64)>>,
}

/// An outcome's exact fields in the golden's canonical order (by name, the
/// order a parsed JSON object has).
fn exact_sorted(o: &Outcome) -> Vec<(String, u64)> {
    let mut fields: Vec<(String, u64)> = o.exact.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    fields.sort();
    fields
}

impl Golden {
    pub fn from_outcomes(results: &[(Point, Outcome)]) -> Golden {
        let points = results
            .iter()
            .map(|(p, o)| (p.id.clone(), exact_sorted(o)))
            .collect();
        Golden { points }
    }

    pub fn to_json(&self, workload: Workload, results: &[(Point, Outcome)]) -> String {
        let shown: BTreeMap<&str, &Outcome> =
            results.iter().map(|(p, o)| (p.id.as_str(), o)).collect();
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {DEFAULT_SEED},\n  \"points\": {{\n",
            json::quote(workload.name())
        );
        let n = self.points.len();
        for (i, (id, exact)) in self.points.iter().enumerate() {
            let fields: Vec<String> = exact
                .iter()
                .map(|(k, v)| format!("{}: \"{v:#018x}\"", json::quote(k)))
                .collect();
            // `value`/`unit` are for the reader; only `exact` is compared.
            let o = shown[id.as_str()];
            out.push_str(&format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"exact\": {{{}}}}}{}\n",
                json::quote(id),
                json::num(o.value),
                json::quote(o.unit),
                fields.join(", "),
                if i + 1 == n { "" } else { "," },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = json::parse(text)?;
        let pts = doc
            .get("points")
            .and_then(Value::as_obj)
            .ok_or("golden: no \"points\" object")?;
        let mut points = BTreeMap::new();
        for (id, entry) in pts {
            let exact = entry
                .get("exact")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("golden: {id}: no \"exact\" object"))?;
            let mut fields = Vec::new();
            for (k, v) in exact {
                let bits = v
                    .as_str()
                    .and_then(|s| s.strip_prefix("0x"))
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("golden: {id}.{k}: not a 0x… string"))?;
                fields.push((k.clone(), bits));
            }
            points.insert(id.clone(), fields);
        }
        Ok(Golden { points })
    }

    pub fn path(workload: Workload) -> PathBuf {
        bench_dir()
            .join("golden")
            .join(format!("{}.json", workload.name()))
    }

    pub fn load(workload: Workload) -> Result<Golden, String> {
        let path = Golden::path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (run `perfbench regold`)", path.display()))?;
        Golden::parse(&text)
    }
}

/// Which reference a point's value is held against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reference {
    /// The committed golden.
    Golden,
    /// No golden exists for this input (a seed-dependent point at a
    /// non-default seed): conservation stands in for it.
    Conservation,
}

pub fn reference_for(point_seeded: bool, seed: u64) -> Reference {
    if point_seeded && seed != DEFAULT_SEED {
        Reference::Conservation
    } else {
        Reference::Golden
    }
}

/// Why a point's first outcome fails on its own, or `None` if it passes:
/// a panic (`None` outcome), broken conservation, or the golden.
pub fn first_failure(
    point: &Point,
    first: Option<&Outcome>,
    golden: &Golden,
    seed: u64,
) -> Option<String> {
    let Some(first) = first else {
        return Some("panicked in repetition 0".to_string());
    };
    if !first.conserved {
        return Some("conservation violated in repetition 0".to_string());
    }
    if reference_for(point.seeded(), seed) == Reference::Conservation {
        return None;
    }
    match golden.points.get(&point.id) {
        None => Some("no golden entry".to_string()),
        Some(want) => (exact_sorted(first) != *want).then(|| "differs from golden".to_string()),
    }
}

/// Why repetition `rep` of a point fails against its first outcome. A point
/// whose first repetition panicked has already failed.
pub fn repeat_failure(
    first: Option<&Outcome>,
    rep: usize,
    outcome: Option<&Outcome>,
) -> Option<String> {
    let first = first?;
    let Some(outcome) = outcome else {
        return Some(format!("panicked in repetition {rep}"));
    };
    if !outcome.conserved {
        return Some(format!("conservation violated in repetition {rep}"));
    }
    (outcome.exact != first.exact).then(|| format!("repetition {rep} differs from repetition 0"))
}

/// One paper anchor (`anchors.json` row).
#[derive(Clone, Debug, PartialEq)]
pub struct Anchor {
    pub id: String,
    pub workload: String,
    /// A point id, or a reduction over points: `max(<id-prefix>)`,
    /// `ratio(<id>,<id>)`, `argmin_conns(<id-prefix>)`.
    pub point: String,
    pub paper_value: f64,
    pub unit: String,
    pub tolerance_pct: f64,
}

pub fn parse_anchors(text: &str) -> Result<Vec<Anchor>, String> {
    let doc = json::parse(text)?;
    let rows = doc.as_arr().ok_or("anchors: top level must be an array")?;
    rows.iter()
        .map(|row| {
            let s = |k: &str| {
                row.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("anchors: row lacks string {k:?}"))
            };
            let n = |k: &str| {
                row.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("anchors: row lacks number {k:?}"))
            };
            Ok(Anchor {
                id: s("id")?,
                workload: s("workload")?,
                point: s("point")?,
                paper_value: n("paper_value")?,
                unit: s("unit")?,
                tolerance_pct: n("tolerance_pct")?,
            })
        })
        .collect()
}

pub fn load_anchors() -> Result<Vec<Anchor>, String> {
    let path = bench_dir().join("anchors.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_anchors(&text)
}

impl Anchor {
    /// The simulated value the anchor names, from one repetition's results.
    pub fn measured(&self, results: &[(Point, Outcome)]) -> Result<f64, String> {
        let value_of = |id: &str| {
            results
                .iter()
                .find(|(p, _)| p.id == id)
                .map(|(_, o)| o.value)
                .ok_or_else(|| format!("anchor {}: no point {id:?}", self.id))
        };
        let with_prefix = |prefix: &str| {
            let hits: Vec<&(Point, Outcome)> = results
                .iter()
                .filter(|(p, _)| p.id.starts_with(prefix))
                .collect();
            if hits.is_empty() {
                Err(format!(
                    "anchor {}: no point starts with {prefix:?}",
                    self.id
                ))
            } else {
                Ok(hits)
            }
        };
        let call = |name: &str| {
            self.point
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
        };
        if let Some(prefix) = call("max") {
            let hits = with_prefix(prefix)?;
            Ok(hits.iter().map(|(_, o)| o.value).fold(f64::MIN, f64::max))
        } else if let Some(args) = call("ratio") {
            let (a, b) = args
                .split_once(',')
                .ok_or_else(|| format!("anchor {}: ratio needs two ids", self.id))?;
            Ok(value_of(a.trim())? / value_of(b.trim())?)
        } else if let Some(prefix) = call("argmin_conns") {
            let hits = with_prefix(prefix)?;
            let best = hits
                .iter()
                .min_by(|a, b| a.1.value.total_cmp(&b.1.value))
                .expect("non-empty");
            Ok(best.0.conns as f64)
        } else {
            value_of(&self.point)
        }
    }

    /// Relative error against the paper, percent.
    pub fn err_pct(&self, measured: f64) -> f64 {
        ((measured - self.paper_value) / self.paper_value).abs() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Op;
    use mpisim::FabricKind;

    fn scalar_point(id: &str, conns: u64) -> Point {
        Point {
            id: id.to_string(),
            size: 4,
            conns,
            op: Op::UserHalfRtt {
                kind: FabricKind::Iwarp,
                size: 4,
                iters: 1,
            },
        }
    }

    fn seeded_point(id: &str) -> Point {
        Point {
            id: id.to_string(),
            size: 4,
            conns: 1,
            op: Op::OpenLoop {
                kind: FabricKind::Iwarp,
                gap_us: 1,
                seed: 0,
            },
        }
    }

    fn outcome(value: f64) -> Outcome {
        Outcome {
            value,
            unit: "us",
            exact: vec![("value_bits", value.to_bits())],
            conserved: true,
        }
    }

    #[test]
    fn golden_round_trips_f64_bit_patterns() {
        // Values a decimal print would not bring back: a subnormal, the
        // neighbour of 0.3, a NaN payload and u64::MAX as a digest.
        let values = [0.1 + 0.2, f64::MIN_POSITIVE / 3.0, -0.0, 9.78];
        let mut results: Vec<(Point, Outcome)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (scalar_point(&format!("p/{i}"), 1), outcome(v)))
            .collect();
        let mut odd = outcome(1.0);
        odd.exact = vec![("nan_bits", 0x7ff8_0000_dead_beef), ("digest", u64::MAX)];
        results.push((scalar_point("p/odd", 1), odd));

        let golden = Golden::from_outcomes(&results);
        let text = golden.to_json(Workload::ClusterRing, &results);
        let back = Golden::parse(&text).expect("own output parses");
        for (p, o) in &results {
            assert_eq!(back.points[&p.id], exact_sorted(o), "{}", p.id);
            assert_eq!(first_failure(p, Some(o), &back, DEFAULT_SEED), None);
        }
    }

    #[test]
    fn other_seed_switches_seeded_points_to_conservation() {
        assert_eq!(reference_for(true, DEFAULT_SEED), Reference::Golden);
        assert_eq!(
            reference_for(true, DEFAULT_SEED + 1),
            Reference::Conservation
        );
        assert_eq!(reference_for(false, DEFAULT_SEED + 1), Reference::Golden);

        let p = seeded_point("open/x");
        let results = vec![(p.clone(), outcome(5.0))];
        let golden = Golden::from_outcomes(&results);
        let moved = outcome(6.0);
        // Default seed: held against the golden.
        assert_eq!(
            first_failure(&p, Some(&moved), &golden, DEFAULT_SEED),
            Some("differs from golden".to_string())
        );
        // Another seed: a different value is expected; conservation decides.
        assert_eq!(first_failure(&p, Some(&moved), &golden, 99), None);
        let mut leaked = moved;
        leaked.conserved = false;
        assert!(first_failure(&p, Some(&leaked), &golden, 99)
            .expect("fails")
            .contains("conservation"));
        // A seed-independent point stays on the golden at any seed.
        let q = scalar_point("user/x", 1);
        let g = Golden::from_outcomes(&[(q.clone(), outcome(1.0))]);
        assert!(first_failure(&q, Some(&outcome(2.0)), &g, 99).is_some());
    }

    #[test]
    fn a_point_fails_on_panic_drift_or_missing_golden() {
        let p = scalar_point("user/x", 1);
        let golden = Golden::from_outcomes(&[(p.clone(), outcome(1.0))]);
        let ok = outcome(1.0);
        assert_eq!(first_failure(&p, Some(&ok), &golden, DEFAULT_SEED), None);
        assert!(first_failure(&p, None, &golden, DEFAULT_SEED)
            .expect("fails")
            .contains("panicked in repetition 0"));
        assert_eq!(
            first_failure(&p, Some(&ok), &Golden::default(), DEFAULT_SEED),
            Some("no golden entry".to_string())
        );

        assert_eq!(repeat_failure(Some(&ok), 1, Some(&ok)), None);
        assert!(repeat_failure(Some(&ok), 2, None)
            .expect("fails")
            .contains("panicked in repetition 2"));
        assert!(repeat_failure(Some(&ok), 3, Some(&outcome(1.5)))
            .expect("fails")
            .contains("repetition 3 differs from repetition 0"));
        let mut leaked = ok.clone();
        leaked.conserved = false;
        assert!(repeat_failure(Some(&ok), 1, Some(&leaked))
            .expect("fails")
            .contains("conservation"));
        // The first repetition's panic is reported once, by `first_failure`.
        assert_eq!(repeat_failure(None, 1, Some(&ok)), None);
    }

    #[test]
    fn anchors_reduce_over_points() {
        let results = vec![
            (scalar_point("bw/a/1", 1), outcome(100.0)),
            (scalar_point("bw/a/2", 1), outcome(1080.0)),
            (scalar_point("lat/ib/128/4", 4), outcome(2.0)),
            (scalar_point("lat/ib/128/8", 8), outcome(1.25)),
            (scalar_point("lat/ib/128/16", 16), outcome(2.8)),
        ];
        let anchor = |point: &str, paper_value: f64| Anchor {
            id: "t".to_string(),
            workload: "w".to_string(),
            point: point.to_string(),
            paper_value,
            unit: "x".to_string(),
            tolerance_pct: 5.0,
        };
        assert_eq!(anchor("bw/a/2", 1088.0).measured(&results), Ok(1080.0));
        assert_eq!(anchor("max(bw/a/)", 1088.0).measured(&results), Ok(1080.0));
        assert_eq!(
            anchor("ratio(bw/a/2, bw/a/1)", 10.0).measured(&results),
            Ok(10.8)
        );
        assert_eq!(
            anchor("argmin_conns(lat/ib/128/)", 8.0).measured(&results),
            Ok(8.0)
        );
        assert!(anchor("nope", 1.0).measured(&results).is_err());
        assert!(anchor("max(zzz)", 1.0).measured(&results).is_err());
        let a = anchor("bw/a/2", 1088.0);
        assert!((a.err_pct(1080.0) - 0.7352941176470589).abs() < 1e-12);
    }

    #[test]
    fn anchors_file_parses() {
        let rows = parse_anchors(
            r#"[{"id": "a", "workload": "w", "point": "p", "paper_value": 9.78,
                 "unit": "us", "tolerance_pct": 5}]"#,
        )
        .expect("valid");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].paper_value, 9.78);
        assert!(parse_anchors(r#"[{"id": "a"}]"#).is_err());
    }
}
