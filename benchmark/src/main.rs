//! `perfbench` — the repository's fixed performance yardstick.
//!
//! ```text
//! perfbench run   [--workload W] [--seed N] [--seconds S] [--reps N] [--smoke] [--out F.json]
//! perfbench trace [--workload W] [--seed N] [--full] [--smoke] [--out F.json]
//! perfbench compare A.json[,A2.json…] B.json[,B2.json…]
//! perfbench regold
//! perfbench manifest
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace` (or
//! `run --trace 1`) is the separate traced run that yields the per-layer
//! numbers. Each workload runs in a process of its own; without
//! `--workload` the five are started one after another. The last line of a
//! single-workload run's standard output is the result object
//! `BENCHMARK.json`'s driver reads. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod compare;
mod golden;
mod json;
mod metrics;
mod probes;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use run::{Options, Report};
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench <run|trace|compare|regold|manifest> [options]
  run      [--workload W] [--seed N] [--seconds S] [--reps N] [--trace 0|1] [--smoke] [--out F.json]
  trace    as `run --trace 1`; [--full] adds the bench::generate headline timings
  compare  A.json[,A2.json...] B.json[,B2.json...]
  regold   rewrite benchmark/golden/*.json (benchmark PRs only)
  manifest print BENCHMARK.json from the metric registry";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: the command ran and its check failed (an incorrect output,
/// a regression); `Err`: it could not run.
fn dispatch(args: &[String], started: Instant) -> Result<bool, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "run" | "trace" => run_cmd(cmd == "trace", rest, started),
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        "regold" => {
            for w in Workload::ALL {
                let n = run::regold(w)?;
                println!(
                    "{}: {n} points -> {}",
                    w.name(),
                    golden::Golden::path(w).display()
                );
            }
            Ok(true)
        }
        "manifest" => {
            print!("{}", manifest()?);
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
}

fn run_cmd(trace_cmd: bool, args: &[String], started: Instant) -> Result<bool, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ALL[0],
        seed: DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        reps: None,
        traced: trace_cmd,
        smoke: false,
        full: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                workload = Some(w);
            }
            "--seed" => opts.seed = parse_u64(flag, value()?)?,
            "--seconds" => {
                opts.seconds = u32::try_from(parse_u64(flag, value()?)?)
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes 1 to 60")?;
            }
            "--reps" => {
                let n = parse_u64(flag, value()?)?;
                opts.reps = Some(usize::try_from(n).map_err(|_| "--reps is too large")?);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => {
                opts.smoke = true;
                opts.reps = Some(1);
            }
            "--full" => opts.full = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    if opts.full && !opts.traced {
        return Err("--full belongs to the traced run".to_string());
    }
    match workload {
        Some(w) => {
            opts.workload = w;
            run_one(&opts, started)
        }
        None => run_each(trace_cmd, args),
    }
}

/// One workload in this process.
fn run_one(opts: &Options, started: Instant) -> Result<bool, String> {
    let report = if opts.traced {
        run::traced(opts)?
    } else {
        run::end_to_end(opts, started)?
    };
    report.print();
    if let Some(path) = &opts.out {
        write_out(path, &report)?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Every workload, each in a fresh process (so set-up time and peak memory
/// are the workload's own), one after another.
fn run_each(trace_cmd: bool, args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .arg(if trace_cmd { "trace" } else { "run" })
            .args(args)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// Where the numbers were taken: a result means little without it.
fn environment() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |v| v.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::str(cpu)),
        ("rustc", Value::str(&rustc)),
    ])
}

/// Put `report` into the results file at `path`, replacing an earlier
/// entry for the same workload and mode and keeping the others — so the
/// five workloads, and `run` and `trace`, can share one file.
fn write_out(path: &Path, report: &Report) -> Result<(), String> {
    let mut results: Vec<Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| {
            doc.get("results")
                .and_then(Value::as_arr)
                .map(<[Value]>::to_vec)
        })
        .unwrap_or_default();
    let entry = report.to_value();
    let key = |v: &Value| {
        (
            v.get("workload")
                .and_then(Value::as_str)
                .map(str::to_string),
            v.get("traced").and_then(Value::as_bool),
        )
    };
    results.retain(|r| key(r) != key(&entry));
    results.push(entry);
    let doc = Value::obj([
        ("schema", Value::str("perfbench/1")),
        ("env", environment()),
        ("results", Value::Arr(results)),
    ]);
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json`, from the registry; refuses a name or unit the
/// contract would.
fn manifest() -> Result<String, String> {
    let defs = [metrics::end_to_end(), metrics::per_layer()].concat();
    if let Some(d) = defs
        .iter()
        .find(|d| !metrics::valid_name(&d.name) || !metrics::valid_unit(d.unit))
    {
        return Err(format!(
            "metric {:?} ({:?}) breaks the naming contract",
            d.name, d.unit
        ));
    }
    let metric = |d: &metrics::MetricDef| {
        let mut fields = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            json::quote(&d.name),
            json::quote(d.unit),
            json::quote(d.better.as_str())
        );
        if let Some(b) = d.bound {
            fields.push_str(&format!(", \"bound\": {}", json::num(b)));
        }
        fields + "}"
    };
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    Ok(format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        run::DEFAULT_SECONDS,
        list(workloads),
        list(metrics::end_to_end().iter().map(metric).collect()),
        list(metrics::per_layer().iter().map(metric).collect()),
    ))
}
