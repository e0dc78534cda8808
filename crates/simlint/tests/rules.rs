//! Fixture-driven rule tests: every rule has a must-trigger and a
//! must-not-trigger fixture, the allow-list machinery is pinned down to
//! "suppresses exactly one diagnostic", and — the gate the rest of the
//! repository relies on — the whole pipeline over the workspace must come
//! back clean, so `cargo test` fails the moment a determinism or
//! panic-path hazard lands.

use simlint::dataflow::DATAFLOW_RULES;
use simlint::rules::all_rules;
use simlint::{check, check_workspace, find_workspace_root, Diagnostic};

use std::path::Path;

/// The pipeline over one fixture, as `simlint FILE` runs it.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    check(Path::new(""), &[(path, src)], |_| true).diags
}

fn count_rule(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

/// Each (rule, trigger fixture, ok fixture) triple. Trigger fixtures may
/// legitimately trip *other* rules too, so trigger assertions count only
/// their own rule while ok fixtures must be clean across the board.
const CASES: &[(&str, &str, &str)] = &[
    (
        "hash-collections",
        "hash_collections_trigger.rs",
        "hash_collections_ok.rs",
    ),
    ("wall-clock", "wall_clock_trigger.rs", "wall_clock_ok.rs"),
    (
        "thread-spawn",
        "thread_spawn_trigger.rs",
        "thread_spawn_ok.rs",
    ),
    (
        "unseeded-rng",
        "unseeded_rng_trigger.rs",
        "unseeded_rng_ok.rs",
    ),
    (
        "relaxed-atomics",
        "relaxed_atomics_trigger.rs",
        "relaxed_atomics_ok.rs",
    ),
    (
        "cross-shard-state",
        "cross_shard_state_trigger.rs",
        "cross_shard_state_ok.rs",
    ),
];

#[test]
fn every_rule_has_a_firing_fixture() {
    for (rule, trigger, _) in CASES {
        let diags = lint_fixture(trigger);
        assert!(
            count_rule(&diags, rule) >= 1,
            "{trigger} must trigger {rule}; got: {diags:#?}"
        );
    }
}

#[test]
fn every_rule_has_a_clean_fixture() {
    for (rule, _, ok) in CASES {
        let diags = lint_fixture(ok);
        assert!(
            diags.is_empty(),
            "{ok} must produce no diagnostics (pinning {rule}'s non-matches); got: {diags:#?}"
        );
    }
}

#[test]
fn rule_registry_matches_fixture_table() {
    let names: Vec<&str> = all_rules().iter().map(|r| r.name()).collect();
    let covered: Vec<&str> = CASES.iter().map(|(rule, _, _)| *rule).collect();
    assert_eq!(
        names, covered,
        "every registered rule needs a fixture row (and vice versa)"
    );
}

#[test]
fn cli_list_rules_lists_exactly_the_eight_rules() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--list-rules")
        .output()
        .expect("run simlint binary");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|row| row.split_whitespace().next())
        .collect();
    let registered: Vec<&str> = all_rules()
        .iter()
        .map(|r| r.name())
        .chain(DATAFLOW_RULES.iter().map(|(name, _)| *name))
        .collect();
    assert_eq!(listed, registered, "{stdout}");
    assert_eq!(listed.len(), 8, "{stdout}");
}

#[test]
fn allow_suppresses_exactly_one_diagnostic() {
    // Two identical violations, one annotated: exactly one must survive,
    // and no unused-allow may appear (the annotation did real work).
    let diags = lint_fixture("allow_suppression.rs");
    assert_eq!(
        count_rule(&diags, "relaxed-atomics"),
        1,
        "one of the two violations must be suppressed: {diags:#?}"
    );
    assert_eq!(count_rule(&diags, "unused-allow"), 0, "{diags:#?}");
    assert_eq!(diags.len(), 1, "nothing else may fire: {diags:#?}");
}

#[test]
fn stale_allow_is_reported() {
    let diags = lint_fixture("allow_unused.rs");
    assert_eq!(count_rule(&diags, "unused-allow"), 1, "{diags:#?}");
    assert_eq!(diags.len(), 1, "{diags:#?}");
}

#[test]
fn directive_hygiene_is_enforced() {
    // A reason-less allow and a typo'd rule name must both be reported, and
    // neither registers a suppression — so both Relaxed sites still fire.
    let diags = lint_fixture("allow_malformed.rs");
    assert_eq!(count_rule(&diags, "malformed-allow"), 1, "{diags:#?}");
    assert_eq!(count_rule(&diags, "unknown-rule"), 1, "{diags:#?}");
    assert_eq!(count_rule(&diags, "relaxed-atomics"), 2, "{diags:#?}");
}

#[test]
fn workspace_simulation_scope_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("simlint lives inside the workspace");
    let report = check_workspace(&root).expect("read workspace");
    assert!(
        report.files > 50,
        "the widened scope should cover the workspace, got {} files",
        report.files
    );
    assert!(
        report.diags.is_empty(),
        "the workspace must lint clean under every pass; fix or `// simlint: allow(rule) -- reason` these:\n{}",
        report
            .diags
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
