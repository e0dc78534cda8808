//! `simlint` CLI — lint the workspace for determinism and simulation-safety
//! violations. Every run is the whole pipeline ([`simlint::check`]):
//! per-file rules and the interprocedural passes, allows applied once; any
//! surviving finding exits 1.
//!
//! ```text
//! cargo run -p simlint                       # lint the workspace
//! cargo run -p simlint -- path/to/file.rs    # lint explicit files (fixtures, spot checks)
//! cargo run -p simlint -- --list-rules       # rule registry with summaries
//! cargo run -p simlint -- --audit-allows     # every inline allow: location,
//!                                            #   rules, justification, and
//!                                            #   whether it still suppresses
//!                                            #   anything (stale allows exit 1);
//!                                            #   with --json, the tally CI's
//!                                            #   allow-budget check reads
//! cargo run -p simlint -- --root DIR         # workspace root (default: the
//!                                            #   nearest `[workspace]` above cwd)
//! ```

#![forbid(unsafe_code)]

use simlint::dataflow::DATAFLOW_RULES;
use simlint::rules::all_rules;
use simlint::{check, check_workspace, find_workspace_root, Report};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Default)]
struct Options {
    list_rules: bool,
    audit_allows: bool,
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: simlint [--list-rules] [--audit-allows [--json]] [--root DIR] [FILES...]"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => opts.list_rules = true,
            "--audit-allows" => opts.audit_allows = true,
            "--json" => opts.json = true,
            "--root" => match args.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err(format!("--root requires a directory\n{}", usage())),
            },
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage()));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.json && !opts.audit_allows {
        return Err(format!("--json requires --audit-allows\n{}", usage()));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let per_file: Vec<(&str, &str)> = all_rules()
        .iter()
        .map(|r| (r.name(), r.summary()))
        .collect();
    let sections = [
        ("per-file rules (sim scope)", per_file.as_slice()),
        ("interprocedural rules", DATAFLOW_RULES),
    ];
    if opts.list_rules {
        println!("simlint rules (every run checks all of them; any finding exits 1):");
        for (heading, rules) in sections {
            println!("\n{heading}:");
            for (name, summary) in rules {
                println!("  {name:<18} {summary}");
            }
        }
        println!(
            "\nsuppress in place with: // simlint: allow(rule-name) -- reason\n\
             engine diagnostics: parse-error, malformed-allow, unknown-rule, unused-allow"
        );
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().expect("cwd");
    let Some(root) = opts.root.clone().or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("simlint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let report = if opts.files.is_empty() {
        check_workspace(&root).map_err(|err| format!("reading {}: {err}", root.display()))
    } else {
        opts.files
            .iter()
            .map(|f| {
                std::fs::read_to_string(f)
                    .map(|src| (f.clone(), src))
                    .map_err(|err| format!("reading {}: {err}", f.display()))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|files| check(&root, &files, |_| true))
    };
    let report = match report {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.audit_allows {
        return audit_allows(&report, opts.json);
    }
    for d in &report.diags {
        println!("{d}");
    }
    if report.diags.is_empty() {
        let rules: usize = sections.iter().map(|(_, rules)| rules.len()).sum();
        println!(
            "simlint: clean ({} files checked, {rules} rules)",
            report.files
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "simlint: {} diagnostic{} across {} files",
            report.diags.len(),
            if report.diags.len() == 1 { "" } else { "s" },
            report.files
        );
        ExitCode::FAILURE
    }
}

/// `--audit-allows`: print every inline allow annotation in scope — where
/// it is, which rules it waives, the mandatory justification, and whether
/// it still suppresses anything. The audit is how reviewers keep the waiver
/// set honest: every entry is a standing exception to a determinism rule,
/// so each one must still earn its reason. The `used` flags are the ones
/// the gate computed, so a stale allow here is exactly one the gate
/// reports as `unused-allow`, and it fails the run the same way. With
/// `--json`, emits the tally CI tracks for allow-count no-regression.
fn audit_allows(report: &Report, json: bool) -> ExitCode {
    let allows = &report.allows;
    let stale = allows.iter().filter(|(_, a)| !a.used).count();
    if json {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, a) in allows {
            for rule in &a.rules {
                *by_rule.entry(rule.as_str()).or_default() += 1;
            }
        }
        let rules_json: Vec<String> = by_rule
            .iter()
            .map(|(rule, n)| format!(r#"    "{rule}": {n}"#))
            .collect();
        println!(
            "{{\n  \"files_checked\": {},\n  \"allows\": {},\n  \"stale\": {stale},\n  \"by_rule\": {{\n{}\n  }}\n}}",
            report.files,
            allows.len(),
            rules_json.join(",\n"),
        );
    } else {
        println!(
            "simlint allow audit: {} annotation{} across {} files, {stale} stale",
            allows.len(),
            if allows.len() == 1 { "" } else { "s" },
            report.files,
        );
        for (file, a) in allows {
            println!(
                "  {}:{} {} allow({}) -- {}",
                file.display(),
                a.decl_line,
                if a.used { "used " } else { "STALE" },
                a.rules.join(", "),
                a.reason,
            );
        }
    }
    if stale > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
