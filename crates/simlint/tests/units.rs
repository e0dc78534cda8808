//! Integration tests for the units pass: fixture trigger/ok pairs per
//! dimensional rule, the exhaustive operator-legality matrix, the
//! cross-crate witness chain, and the CLI gate and rule listing.
//!
//! Fixture files live under `tests/fixtures/units/`. Their on-disk paths
//! start with `crates/simlint/…`, which is deliberately *outside*
//! [`simlint::SIM_SCOPE`] — so each test reads the fixture *content* from
//! disk and pairs it with a virtual sim-scope path (e.g.
//! `crates/simnet/src/fixture.rs`) before handing it to the engine. That
//! keeps the fixtures inert for workspace-wide runs while still exercising
//! the exact scope logic production files hit.

use simlint::units::{units_pass, UNITS_RULES};
use simlint::{check, Diagnostic};

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/units")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("reading fixture {}: {err}", path.display()))
}

/// Run the workspace-wide passes over fixture contents mounted at virtual
/// sim-scope paths (per-file rules off, as for the dataflow fixtures).
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
// unit-mismatch
// ---------------------------------------------------------------------------

#[test]
fn mismatch_fixture_trigger_flags_addition_and_both_swapped_args() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("unit_mismatch_trigger.rs"),
    )]);
    assert_eq!(
        rules_of(&diags),
        ["unit-mismatch", "unit-mismatch", "unit-mismatch"],
        "{diags:?}"
    );
    // The addition names both dimensions; the swapped call names the chain.
    assert!(
        diags.iter().any(|d| d.message.contains("`+` combines")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`stamp` -> `record`")),
        "swapped-argument finding must carry the call chain: {diags:?}"
    );
}

#[test]
fn mismatch_fixture_ok_twin_is_clean() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("unit_mismatch_ok.rs"),
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// unit-arith
// ---------------------------------------------------------------------------

#[test]
fn arith_fixture_trigger_flags_each_impossible_combination() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("unit_arith_trigger.rs"),
    )]);
    assert_eq!(
        rules_of(&diags),
        ["unit-arith", "unit-arith", "unit-arith"],
        "{diags:?}"
    );
}

#[test]
fn arith_fixture_ok_twin_exercises_the_whole_legal_algebra() {
    let diags = run_virtual(&[("crates/simnet/src/fixture.rs", fixture("unit_arith_ok.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// operator-legality matrix: every dimensioned pair × every operator
// ---------------------------------------------------------------------------

/// Evaluate `lhs op rhs` inside a probe function with one parameter per
/// dimension and return the rules that fired.
fn probe(expr: &str) -> Vec<&'static str> {
    let src =
        format!("fn probe(b: Bytes, d: SimDuration, r: ByteRate, n: u64) {{ let _ = {expr}; }}\n");
    let files = vec![(PathBuf::from("crates/simnet/src/probe.rs"), src)];
    let mut diags = Vec::new();
    units_pass(Path::new(""), &files, &mut diags);
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn operator_legality_matrix_is_exhaustive() {
    // (expression, expected rule or "" for legal)
    let cases: &[(&str, &str)] = &[
        // --- addition / subtraction: only like dimensions combine -------
        ("b + b", ""),
        ("d + d", ""),
        ("r + r", ""),
        ("b - b", ""),
        ("b + n", ""),
        ("n + d", ""),
        ("b + 3", ""),
        ("b + d", "unit-mismatch"),
        ("d + b", "unit-mismatch"),
        ("b + r", "unit-mismatch"),
        ("r + b", "unit-mismatch"),
        ("d + r", "unit-mismatch"),
        ("r + d", "unit-mismatch"),
        ("b - d", "unit-mismatch"),
        ("r - d", "unit-mismatch"),
        // --- multiplication: scalar*x and rate*duration only ------------
        ("b * 4", ""),
        ("4 * b", ""),
        ("d * 2", ""),
        ("r * d", ""), // rate * duration = bytes
        ("d * r", ""),
        ("b * b", "unit-arith"),
        ("d * d", "unit-arith"),
        ("r * r", "unit-arith"),
        ("b * d", "unit-arith"),
        ("d * b", "unit-arith"),
        ("b * r", "unit-arith"),
        ("r * b", "unit-arith"),
        // --- division: x/scalar, x/x, bytes/rate only -------------------
        ("b / 4", ""),
        ("d / 2", ""),
        ("r / 2", ""),
        ("b / b", ""), // count
        ("d / d", ""),
        ("r / r", ""),
        ("b / r", ""), // duration
        ("b / d", "unit-arith"),
        ("d / b", "unit-arith"),
        ("d / r", "unit-arith"),
        ("r / d", "unit-arith"),
        ("r / b", "unit-arith"),
        ("b % b", ""),
        ("b % d", "unit-arith"),
    ];
    for (expr, expected) in cases {
        let fired = probe(expr);
        if expected.is_empty() {
            assert!(fired.is_empty(), "`{expr}` must be legal, fired {fired:?}");
        } else {
            assert_eq!(
                fired,
                vec![*expected],
                "`{expr}` must fire exactly [{expected}]"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// raw-quantity
// ---------------------------------------------------------------------------

#[test]
fn raw_quantity_fixture_trigger_flags_bare_literal() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("raw_quantity_trigger.rs"),
    )]);
    assert_eq!(rules_of(&diags), ["raw-quantity"], "{diags:?}");
    assert!(
        diags[0].message.contains("`caller` -> `post`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn raw_quantity_fixture_ok_twin_uses_the_blessed_constructor() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("raw_quantity_ok.rs"),
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// lossy-time-cast
// ---------------------------------------------------------------------------

#[test]
fn lossy_cast_fixture_trigger_flags_narrowing() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("lossy_time_cast_trigger.rs"),
    )]);
    assert_eq!(rules_of(&diags), ["lossy-time-cast"], "{diags:?}");
    assert!(diags[0].message.contains("as u32"), "{}", diags[0].message);
}

#[test]
fn lossy_cast_fixture_ok_twin_widens_freely() {
    let diags = run_virtual(&[(
        "crates/simnet/src/fixture.rs",
        fixture("lossy_time_cast_ok.rs"),
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// cross-crate witness chain
// ---------------------------------------------------------------------------

#[test]
fn witness_chain_crosses_crates_through_the_fixed_point() {
    let diags = run_virtual(&[
        ("crates/simnet/src/fixture.rs", fixture("chain_inner.rs")),
        ("crates/iwarp/src/fixture.rs", fixture("chain_outer.rs")),
    ]);
    assert_eq!(rules_of(&diags), ["raw-quantity"], "{diags:?}");
    assert!(
        diags[0].message.contains("`kick` -> `forward` -> `admit`"),
        "chain must spell out both hops: {}",
        diags[0].message
    );
    // The finding anchors in the *caller's* crate.
    assert_eq!(diags[0].file, PathBuf::from("crates/iwarp/src/fixture.rs"));
}

// ---------------------------------------------------------------------------
// CLI: the gate and the rule listing
// ---------------------------------------------------------------------------

#[test]
fn cli_units_deny_gate_fails_on_fresh_finding() {
    // A throwaway workspace shell with one sim-scope file, so the run
    // exercises real path/scope resolution.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("units_cli_deny");
    let src_dir = root.join("crates/simnet/src");
    std::fs::create_dir_all(&src_dir).expect("scratch src dir");
    let file = src_dir.join("fixture.rs");
    std::fs::write(&file, fixture("unit_mismatch_trigger.rs")).expect("write scratch fixture");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg(&root)
        .arg(&file)
        .output()
        .expect("run simlint binary");
    assert!(!out.status.success(), "a units finding must fail the run");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("deny(unit-mismatch)"),
        "the report must carry the finding:\n{stdout}"
    );
}

#[test]
fn cli_list_rules_names_the_units_section() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--list-rules")
        .output()
        .expect("run simlint binary");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\ndimensional rules:\n"), "{stdout}");
    for (name, _) in UNITS_RULES {
        assert!(stdout.contains(name), "{name} missing:\n{stdout}");
    }
}
