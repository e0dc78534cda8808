//! The run protocol: one workload per process, a cold warm-up repetition,
//! then timed repetitions until `--seconds` have been measured; and the
//! separate traced run that yields the per-layer numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::golden::{self, Anchor, Golden};
use crate::json::{self, Value};
use crate::metrics::{self, MetricDef};
use crate::probes;
use crate::span::{self, Recorder};
use crate::stats::{median, nearest_rank};
use crate::workloads::{Outcome, Point, Workload};

/// `--seconds` when not given; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 16;
/// Timed repetitions a run holds at least, however short `--seconds` is:
/// a median needs them.
const MIN_REPS: usize = 3;
/// `--smoke` keeps every 8th point.
const SMOKE_STRIDE: usize = 8;
/// Clock ticks per second of `/proc/self/stat` (USER_HZ; 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    /// Exactly this many timed repetitions instead of filling `seconds`.
    pub reps: Option<usize>,
    pub traced: bool,
    /// Every 8th point only (with `reps` = 1): checks plumbing, measures
    /// nothing.
    pub smoke: bool,
    /// Traced run only: add the two `bench::generate` headline timings.
    pub full: bool,
    pub out: Option<PathBuf>,
}

pub struct MetricRow {
    pub def: MetricDef,
    pub value: f64,
    /// What `value` is the median of (one entry when measured once).
    pub samples: Vec<f64>,
}

pub struct PointRow {
    pub point: Point,
    pub outcome: Option<Outcome>,
    /// Median host time of the point over the measured repetitions.
    pub host_ms: f64,
    pub failure: Option<String>,
}

pub struct AnchorRow {
    pub anchor: Anchor,
    pub measured: f64,
    pub err_pct: f64,
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub reps: usize,
    pub metrics: Vec<MetricRow>,
    pub points: Vec<PointRow>,
    pub anchors: Vec<AnchorRow>,
}

impl Report {
    pub fn attempted(&self) -> u64 {
        self.points.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.points.iter().filter(|p| p.failure.is_some()).count() as u64
    }

    /// Every point reproduced its value and every anchor is within its
    /// tolerance of the paper.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self
                .anchors
                .iter()
                .all(|a| a.err_pct <= a.anchor.tolerance_pct)
    }
}

/// User + system CPU seconds of this process, exited threads included.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// `VmHWM` in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed repetitions a run has room for without allocating.
const REPS_ROOM: usize = 64;

/// Everything a run keeps from one repetition to the next, allocated
/// before the first. A repetition must leave the heap as it found it:
/// when each one left its outcomes behind, the ninth of
/// `pingpong_uncontended` pushed `VmHWM` from 12.5 to 16.2 MiB, so
/// `peak_rss_mb` depended on how many repetitions fitted into `--seconds`.
struct Ledger {
    /// Outcomes of the first (cold) pass; `None` = the point panicked.
    first: Vec<Option<Outcome>>,
    /// Why a later pass disagreed with the first, per point.
    drift: Vec<Option<String>>,
    /// Host milliseconds per point, measured passes only.
    point_ms: Vec<Vec<f64>>,
    passes: usize,
}

impl Ledger {
    fn new(points: usize) -> Ledger {
        Ledger {
            first: Vec::with_capacity(points),
            drift: vec![None; points],
            point_ms: (0..points).map(|_| Vec::with_capacity(REPS_ROOM)).collect(),
            passes: 0,
        }
    }
}

/// One pass over the point list: wall and CPU seconds. A panic inside a
/// point is that point's failure, not the run's.
fn pass(
    points: &[Point],
    ledger: &mut Ledger,
    measured: bool,
    mut rec: Option<&mut Recorder>,
) -> (f64, f64) {
    let names: Vec<String> = match rec {
        Some(_) => points.iter().map(|p| format!("point:{}", p.id)).collect(),
        None => Vec::new(),
    };
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for (i, p) in points.iter().enumerate() {
        if let Some(rec) = rec.as_deref_mut() {
            rec.enter(names[i].clone());
        }
        let p0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| p.run())).ok();
        let ms = p0.elapsed().as_secs_f64() * 1e3;
        if let Some(rec) = rec.as_deref_mut() {
            rec.exit();
        }
        if measured {
            ledger.point_ms[i].push(ms);
        }
        if ledger.passes == 0 {
            ledger.first.push(outcome);
        } else if ledger.drift[i].is_none() {
            ledger.drift[i] =
                golden::repeat_failure(ledger.first[i].as_ref(), ledger.passes, outcome.as_ref());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    ledger.passes += 1;
    (wall, cpu_seconds() - cpu0)
}

/// Pair every definition with its measured samples, in registry order.
/// Emitting a name the registry lacks, or leaving one of its names out, is
/// an error: `BENCHMARK.json` lists exactly the registry.
fn metric_rows(
    defs: Vec<MetricDef>,
    mut measured: Vec<(String, Vec<f64>)>,
) -> Result<Vec<MetricRow>, String> {
    let mut rows = Vec::with_capacity(defs.len());
    for def in defs {
        let at = measured
            .iter()
            .position(|(name, _)| *name == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        let (_, samples) = measured.swap_remove(at);
        rows.push(MetricRow {
            def,
            value: median(&samples),
            samples,
        });
    }
    match measured.first() {
        Some((name, _)) => Err(format!("metric {name} is not in the registry")),
        None => Ok(rows),
    }
}

/// What every run does before it measures: load the references and build
/// the point list.
struct Prepared {
    points: Vec<Point>,
    golden: Golden,
    anchors: Vec<Anchor>,
}

fn prepare(opts: &Options) -> Result<Prepared, String> {
    let name = opts.workload.name();
    // A subset of the points cannot carry the anchors (most reduce over a
    // whole sweep), so a smoke run checks none.
    let mut anchors = golden::load_anchors()?;
    anchors.retain(|a| a.workload == name && !opts.smoke);
    let golden = Golden::load(opts.workload)?;
    let mut points = opts.workload.points(opts.seed);
    if opts.smoke {
        points = points.into_iter().step_by(SMOKE_STRIDE).collect();
    }
    Ok(Prepared {
        points,
        golden,
        anchors,
    })
}

/// Judge every point and evaluate the anchors on the first pass's values.
fn verdicts(
    opts: &Options,
    prep: Prepared,
    ledger: Ledger,
) -> Result<(Vec<PointRow>, Vec<AnchorRow>), String> {
    let Prepared {
        points,
        golden,
        anchors,
    } = prep;
    let Ledger {
        first,
        drift,
        point_ms,
        ..
    } = ledger;
    let rows: Vec<PointRow> = points
        .into_iter()
        .zip(first)
        .zip(drift)
        .zip(point_ms)
        .map(|(((point, outcome), drift), ms)| PointRow {
            failure: golden::first_failure(&point, outcome.as_ref(), &golden, opts.seed).or(drift),
            outcome,
            host_ms: median(&ms),
            point,
        })
        .collect();
    let results: Vec<(Point, Outcome)> = rows
        .iter()
        .filter_map(|r| r.outcome.clone().map(|o| (r.point.clone(), o)))
        .collect();
    let anchor_rows = anchors
        .into_iter()
        .map(|anchor| {
            let measured = anchor.measured(&results)?;
            Ok(AnchorRow {
                err_pct: anchor.err_pct(measured),
                measured,
                anchor,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((rows, anchor_rows))
}

fn anchor_err_max(anchors: &[AnchorRow]) -> f64 {
    anchors.iter().map(|a| a.err_pct).fold(0.0, f64::max)
}

/// The end-to-end run, tracing off. `started` is the process's first
/// instant: set-up runs from there to the first timed repetition.
pub fn end_to_end(opts: &Options, started: Instant) -> Result<Report, String> {
    let prep = prepare(opts)?;
    let mut ledger = Ledger::new(prep.points.len());
    let mut walls = Vec::with_capacity(REPS_ROOM);
    let mut cpus = Vec::with_capacity(REPS_ROOM);
    // The cold repetition: first touch of every code path, allocator growth,
    // lazy statics. A one-shot `figures` user pays it, so it is set-up.
    pass(&prep.points, &mut ledger, false, None);
    let setup_s = started.elapsed().as_secs_f64();

    let budget = Duration::from_secs(u64::from(opts.seconds));
    let measuring = Instant::now();
    loop {
        let done = match opts.reps {
            Some(n) => walls.len() >= n.max(1),
            None => walls.len() >= MIN_REPS && measuring.elapsed() >= budget,
        };
        if done {
            break;
        }
        let (wall, cpu) = pass(&prep.points, &mut ledger, true, None);
        walls.push(wall);
        cpus.push(cpu);
    }
    let peak_rss_mb = peak_rss_mib();

    let sim_msgs: u64 = prep.points.iter().map(Point::sim_msgs).sum();
    let rates: Vec<f64> = walls.iter().map(|w| sim_msgs as f64 / w).collect();
    let reps = walls.len();
    let (points, anchors) = verdicts(opts, prep, ledger)?;

    let measured = vec![
        ("wall_s".to_string(), walls),
        ("cpu_s".to_string(), cpus),
        ("sim_msgs_per_s".to_string(), rates),
        ("setup_s".to_string(), vec![setup_s]),
        ("peak_rss_mb".to_string(), vec![peak_rss_mb]),
        (
            "anchor_err_max_pct".to_string(),
            vec![anchor_err_max(&anchors)],
        ),
    ];
    let metrics = metric_rows(metrics::end_to_end(), measured)?;
    Ok(Report {
        workload: opts.workload,
        seed: opts.seed,
        traced: false,
        reps,
        metrics,
        points,
        anchors,
    })
}

/// Where the traced run leaves its Chrome trace.
pub fn trace_path(workload: Workload) -> PathBuf {
    golden::bench_dir()
        .join("out")
        .join(format!("trace.{}.json", workload.name()))
}

/// The traced run: the workload's points under `workload:<w>` →
/// `point:<id>` spans (next to an untraced repetition of the same points,
/// for the tracing overhead), then every layer probe. No end-to-end metric
/// is taken from it.
pub fn traced(opts: &Options) -> Result<Report, String> {
    let prep = prepare(opts)?;
    let name = opts.workload.name();
    // Spans: one per point, the probes' calls (a few hundred), the frames.
    let mut rec = Recorder::new(prep.points.len() + 2_048);
    rec.enter(format!("trace:{name}"));

    let mut ledger = Ledger::new(prep.points.len());
    pass(&prep.points, &mut ledger, false, None);
    let (plain_wall, _) = pass(&prep.points, &mut ledger, false, None);
    rec.enter(format!("workload:{name}"));
    let (spanned_wall, _) = pass(&prep.points, &mut ledger, true, Some(&mut rec));
    rec.exit();
    let overhead_pct = (spanned_wall / plain_wall - 1.0) * 100.0;

    let mut rows = probes::run_all(&mut rec);
    if opts.full {
        rows.extend(probes::figure_catalog(&mut rec));
    }
    rec.exit();

    // Self times partition the root span; anything else means spans were
    // not properly nested.
    let spans = rec.spans();
    let own: u64 = span::self_times_ns(spans).iter().sum();
    if own != spans[0].duration_ns() {
        return Err(format!(
            "trace: self times sum to {own} ns, root span is {} ns",
            spans[0].duration_ns()
        ));
    }
    let path = trace_path(opts.workload);
    let write = |path: &PathBuf| -> std::io::Result<()> {
        std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
        std::fs::write(path, span::chrome_trace(spans, name))
    };
    write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());

    let point_ms: Vec<f64> = ledger.point_ms.iter().flatten().copied().collect();
    rows.push(("netbench.point_ms_p50".into(), nearest_rank(&point_ms, 0.5)));
    rows.push(("netbench.point_ms_p90".into(), nearest_rank(&point_ms, 0.9)));
    rows.push(("bench.trace_overhead_pct".into(), overhead_pct));

    let (points, anchors) = verdicts(opts, prep, ledger)?;
    let mut defs = metrics::per_layer();
    if opts.full {
        defs.extend(metrics::full_extras());
    }
    let measured = rows
        .into_iter()
        .map(|(name, value)| (name, vec![value]))
        .collect();
    let metrics = metric_rows(defs, measured)?;
    Ok(Report {
        workload: opts.workload,
        seed: opts.seed,
        traced: true,
        reps: 1,
        metrics,
        points,
        anchors,
    })
}

/// Rewrite `golden/<workload>.json` from one pass at the default seed.
pub fn regold(workload: Workload) -> Result<usize, String> {
    let points = workload.points(crate::workloads::DEFAULT_SEED);
    let mut ledger = Ledger::new(points.len());
    pass(&points, &mut ledger, false, None);
    let mut results = Vec::with_capacity(points.len());
    for (p, o) in points.into_iter().zip(ledger.first) {
        let o = o.ok_or_else(|| format!("{}: point {} panicked", workload.name(), p.id))?;
        if !o.conserved {
            return Err(format!(
                "{}: point {} violates conservation",
                workload.name(),
                p.id
            ));
        }
        results.push((p, o));
    }
    let golden = Golden::from_outcomes(&results);
    let path = Golden::path(workload);
    std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
        .and_then(|()| std::fs::write(&path, golden.to_json(workload, &results)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(results.len())
}

impl Report {
    /// The human report: one line per metric, one row per point (perftest
    /// style: explicit units, one row per size and connection count), the
    /// anchors, the failures.
    pub fn print(&self) {
        let w = self.workload.name();
        println!(
            "# {w}  seed={:#x}  reps={}  {}",
            self.seed,
            self.reps,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            println!(
                "{} {} {} {} n={}",
                m.def.name,
                json::num(m.value),
                m.def.unit,
                m.def.label.as_str(),
                m.samples.len()
            );
        }
        println!(
            "fail_share {} ratio sim n={}",
            json::num(self.failed() as f64 / self.attempted().max(1) as f64),
            self.attempted()
        );
        println!(
            "#{:<31}\t{:>8}\t{:>5}\t{:>14}\t{:<6}\t{:>9}",
            "id", "size", "conns", "value", "unit", "host_ms"
        );
        let mut rows: Vec<&PointRow> = self.points.iter().collect();
        rows.sort_by(|a, b| a.point.id.cmp(&b.point.id));
        for r in rows {
            let (value, unit) = r
                .outcome
                .as_ref()
                .map_or((f64::NAN, "-"), |o| (o.value, o.unit));
            println!(
                "{:<32}\t{:>8}\t{:>5}\t{:>14.4}\t{:<6}\t{:>9.3}",
                r.point.id, r.point.size, r.point.conns, value, unit, r.host_ms
            );
        }
        for a in &self.anchors {
            println!(
                "anchor {:<28} paper {:>9} measured {:>11.4} {:<5} err {:>6.3} % (tolerance {} %){}",
                a.anchor.id,
                a.anchor.paper_value,
                a.measured,
                a.anchor.unit,
                a.err_pct,
                a.anchor.tolerance_pct,
                if a.err_pct <= a.anchor.tolerance_pct { "" } else { "  OUT OF TOLERANCE" }
            );
        }
        for r in &self.points {
            if let Some(why) = &r.failure {
                println!("FAILED {}: {why}", r.point.id);
            }
        }
    }

    /// The driver's result object: the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.def.name),
                    json::num(m.value),
                    json::quote(m.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// This report as an entry of a `--out` results file.
    pub fn to_value(&self) -> Value {
        let num = Value::Num;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let record = Value::obj([
                    ("value", num(m.value)),
                    ("unit", Value::str(m.def.unit)),
                    ("label", Value::str(m.def.label.as_str())),
                    ("exact", Value::Bool(m.def.exact)),
                    ("n", num(m.samples.len() as f64)),
                    (
                        "samples",
                        Value::Arr(m.samples.iter().copied().map(num).collect()),
                    ),
                ]);
                (m.def.name.clone(), record)
            })
            .collect();
        let points = self
            .points
            .iter()
            .map(|r| {
                let (value, unit) = r
                    .outcome
                    .as_ref()
                    .map_or((Value::Null, "-"), |o| (num(o.value), o.unit));
                Value::obj([
                    ("id", Value::str(&r.point.id)),
                    ("size", num(r.point.size as f64)),
                    ("conns", num(r.point.conns as f64)),
                    ("value", value),
                    ("unit", Value::str(unit)),
                    ("host_ms", num(r.host_ms)),
                    (
                        "failure",
                        r.failure.as_deref().map_or(Value::Null, Value::str),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(self.workload.name())),
            ("traced", Value::Bool(self.traced)),
            ("seed", num(self.seed as f64)),
            ("reps", num(self.reps as f64)),
            ("attempted", num(self.attempted() as f64)),
            ("failed", num(self.failed() as f64)),
            ("correct", Value::Bool(self.correct())),
            ("metrics", Value::Obj(metrics)),
            ("points", Value::Arr(points)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_names_and_registry_must_agree() {
        let samples = |names: &[&str]| -> Vec<(String, Vec<f64>)> {
            names
                .iter()
                .map(|n| (n.to_string(), vec![1.0, 3.0, 2.0]))
                .collect()
        };
        let all: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
        let names: Vec<&str> = all.iter().map(String::as_str).collect();

        let rows = metric_rows(metrics::end_to_end(), samples(&names)).expect("complete");
        assert_eq!(rows.len(), names.len());
        assert!(rows.iter().all(|r| r.value == 2.0 && r.samples.len() == 3));
        assert_eq!(rows[0].def.name, "wall_s");

        let missing = metric_rows(metrics::end_to_end(), samples(&names[1..]));
        assert!(missing.is_err_and(|e| e.contains("wall_s was not measured")));
        let mut extra = names.clone();
        extra.push("made_up");
        let unknown = metric_rows(metrics::end_to_end(), samples(&extra));
        assert!(unknown.is_err_and(|e| e.contains("made_up is not in the registry")));
    }

    #[test]
    fn proc_readers_find_their_fields() {
        assert!(peak_rss_mib() > 0.0);
        // Burn a little CPU so the tick counter is past zero.
        let mut x = 0u64;
        while cpu_seconds() == 0.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
    }
}
