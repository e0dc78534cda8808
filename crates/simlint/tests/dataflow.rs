//! Integration tests for the interprocedural passes: fixture trigger/ok
//! pairs per rule, cross-crate call-graph resolution, and — at the CLI —
//! one report per bad directive and allows that mix rules of two passes.
//!
//! Fixture files live under `tests/fixtures/dataflow/`. Their on-disk paths
//! start with `crates/simlint/…`, which is deliberately *outside*
//! [`simlint::SIM_SCOPE`] — so each test reads the fixture *content* from
//! disk and pairs it with a virtual sim-scope path (e.g.
//! `crates/simnet/src/fixture.rs`) before handing it to the engine. That
//! keeps the fixtures inert for workspace-wide runs while still exercising
//! the exact scope logic production files hit.

use simlint::graph::build_index;
use simlint::{check, Diagnostic};

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dataflow")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("reading fixture {}: {err}", path.display()))
}

/// Run the workspace-wide passes over fixture contents mounted at virtual
/// sim-scope paths (the per-file rules stay off: the taint fixture reads
/// `Instant` on purpose).
fn run_virtual(files: &[(&str, String)]) -> Vec<Diagnostic> {
    let owned: Vec<(PathBuf, String)> = files
        .iter()
        .map(|(p, s)| (PathBuf::from(p), s.clone()))
        .collect();
    check(Path::new(""), &owned, |_| false).diags
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------------------
// taint-through-call
// ---------------------------------------------------------------------------

#[test]
fn taint_fixture_trigger_is_caught_through_one_call_indirection() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("taint_indirect_trigger.rs"),
    )]);
    assert_eq!(rules_of(&diags), ["taint-through-call"], "{diags:?}");
    assert!(
        diags[0].message.contains("`schedule` -> `jitter_ns`"),
        "witness chain must name the indirection: {}",
        diags[0].message
    );
    assert!(diags[0].message.contains("Instant"), "{}", diags[0].message);
}

#[test]
fn taint_fixture_ok_twin_is_clean() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("taint_indirect_ok.rs"),
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

#[test]
fn panic_path_fixture_trigger_flags_unwrap_behind_transfer() {
    let diags = run_virtual(&[(
        "crates/iwarp/src/fixture.rs",
        fixture("panic_path_trigger.rs"),
    )]);
    assert_eq!(rules_of(&diags), ["panic-path"], "{diags:?}");
    assert!(
        diags[0].message.contains("`transfer` -> `deliver`"),
        "entry chain must be reported: {}",
        diags[0].message
    );
}

#[test]
fn panic_path_fixture_ok_twin_is_clean() {
    let diags = run_virtual(&[("crates/iwarp/src/fixture.rs", fixture("panic_path_ok.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// call graph across a synthetic two-crate tree
// ---------------------------------------------------------------------------

#[test]
fn call_graph_resolves_names_across_crates() {
    let files = vec![
        (
            PathBuf::from("crates/infiniband/src/verbs.rs"),
            "pub fn post(&self) { helper(); stamp(); }\n".to_owned(),
        ),
        (
            PathBuf::from("crates/simnet/src/util.rs"),
            "pub fn helper() {}\npub fn stamp() -> u64 { 0 }\n".to_owned(),
        ),
    ];
    let index = build_index(&files, &mut Vec::new());
    assert_eq!(index.fns.len(), 3);
    let post = &index.fns[index.defs("post")[0]];
    let callees: Vec<&str> = post.calls.iter().map(|c| c.callee.as_str()).collect();
    assert_eq!(callees, ["helper", "stamp"]);
    // Both callees resolve to definitions in the *other* crate: the index
    // is workspace-global, not per-file.
    assert_eq!(index.defs("helper").len(), 1);
    assert_eq!(
        index.fns[index.defs("helper")[0]].file,
        PathBuf::from("crates/simnet/src/util.rs")
    );
}

#[test]
fn taint_fixed_point_crosses_crate_boundary() {
    let diags = run_virtual(&[
        (
            "crates/mpisim/src/collect.rs",
            "pub fn gather(sim: &Sim) { let s = seed(); sim.spawn(s); }\n".to_owned(),
        ),
        (
            "crates/hostmodel/src/rng.rs",
            "pub fn seed() -> u64 { getrandom() }\n".to_owned(),
        ),
    ]);
    assert_eq!(rules_of(&diags), ["taint-through-call"], "{diags:?}");
    assert!(
        diags[0].message.contains("`gather` -> `seed`"),
        "{}",
        diags[0].message
    );
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

/// Run the binary with `flags` followed by `path`.
fn simlint(flags: &[&str], path: &Path) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(flags)
        .arg(path)
        .output()
        .expect("run simlint binary");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    (out, stdout)
}

#[test]
fn cli_reports_bad_allow_directives_once_in_combined_mode() {
    let fixture_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/allow_malformed.rs");
    let (out, stdout) = simlint(&[], &fixture_path);
    assert!(!out.status.success(), "{stdout}");
    assert_eq!(
        stdout.matches("deny(malformed-allow)").count(),
        1,
        "one malformed directive must produce exactly one diagnostic:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("deny(unknown-rule)").count(),
        1,
        "one typoed rule name must produce exactly one diagnostic:\n{stdout}"
    );
}

/// A throwaway workspace (`[workspace]` manifest plus one iwarp source
/// file), linted the way ci.sh lints the real one.
fn shell_workspace(tag: &str, content: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("dataflow_cli_{tag}"));
    let src_dir = root.join("crates/iwarp/src");
    std::fs::create_dir_all(&src_dir).expect("scratch src dir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src_dir.join("fixture.rs"), content).expect("write fixture");
    root
}

#[test]
fn allows_mixing_rules_of_two_passes_are_judged_once() {
    // (a) Suppresses nothing: reported once, and the run fails.
    let unused = shell_workspace("mixed_unused", &fixture("mixed_allow_unused.rs"));
    let (out, stdout) = simlint(&["--root"], &unused);
    assert!(!out.status.success(), "{stdout}");
    assert_eq!(stdout.matches("deny(unused-allow)").count(), 1, "{stdout}");
    assert_eq!(stdout.matches("deny(").count(), 1, "{stdout}");

    // (b) Suppresses the panic-path finding: no finding, and the audit
    // agrees it is in use.
    let used = shell_workspace("mixed_used", &fixture("mixed_allow_panic_path.rs"));
    let (out, stdout) = simlint(&["--root"], &used);
    assert!(out.status.success(), "{stdout}");
    let (out, stdout) = simlint(&["--audit-allows", "--json", "--root"], &used);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"allows\": 1,"), "{stdout}");
    assert!(stdout.contains("\"stale\": 0,"), "{stdout}");
}
