//! `figures` command-line contract: a usage error exits 2 with one line on
//! stderr and nothing on stdout — no figure has run.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

/// A per-process path under cargo's integration-test scratch directory.
fn scratch(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a figure first");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_and_typoed_selector_exit_2_before_any_figure_runs() {
    // A valid selector ahead of the mistake must not run either.
    assert_usage_error(&["e11", "--parallel"], "unknown flag");
    assert_usage_error(&["e11", "fgi1"], "no figures match");
    assert_usage_error(&["e11", "--threads", "0"], "--threads");
    assert_usage_error(&["e11", "--tier", "slow"], "--tier");
    assert_usage_error(&["e11", "--tier"], "--tier");
    assert_usage_error(&["e11", "--no-memo"], "unknown flag");
}

#[test]
fn unusable_json_target_exits_2_before_any_figure_runs() {
    // A regular file where the directory should be: cannot be created.
    let file = scratch("figures-cli-file");
    std::fs::write(&file, b"not a directory").expect("temp file");
    let as_dir = file.to_str().expect("utf-8 temp path");
    assert_usage_error(&["e11", "--json", as_dir], "--json");
    assert_usage_error(&["e11", "--json", &format!("{as_dir}/sub")], "--json");
    std::fs::remove_file(&file).expect("remove temp file");
    assert_usage_error(&["e11", "--json"], "--json requires");
}

#[test]
fn json_target_is_created_and_filled() {
    let dir = scratch("figures-cli-out");
    let out = figures(&[
        "e11",
        "--threads",
        "1",
        "--json",
        dir.to_str().expect("utf-8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("e11-registration.json")).expect("json file");
    assert!(written.contains("\"e11-registration\""));
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
