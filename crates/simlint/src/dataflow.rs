//! The interprocedural passes as one step of the [`crate::check`] pipeline.
//!
//! The classic rules in [`crate::rules`] are per-file; the two passes here
//! (taint and panic paths, both in [`crate::taint`]) are workspace-wide —
//! they need every file at once to resolve calls. Their findings join the
//! per-file findings before the allows are applied, so one annotation may
//! waive rules of either kind.

use crate::graph::build_index;
use crate::{taint, Diagnostic};

use std::path::{Path, PathBuf};

/// The interprocedural rules layered on top of [`crate::rules::all_rules`]:
/// `(name, one-line summary)`. These names are valid in
/// `simlint: allow(...)` annotations everywhere.
pub const DATAFLOW_RULES: &[(&str, &str)] = &[
    (
        "taint-through-call",
        "nondeterminism source reaches a simulation sink through function calls",
    ),
    (
        "panic-path",
        "bare unwrap() reachable from a fabric transfer hot path",
    ),
];

/// Run the taint and panic passes over `files`; append their findings,
/// sorted and deduplicated, to `found`.
pub(crate) fn dataflow_pass(root: &Path, files: &[(PathBuf, String)], found: &mut Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let index = build_index(files, &mut Vec::new());
    taint::taint_pass(root, &index, &mut diags);
    taint::panic_pass(root, &index, &mut diags);
    diags.sort();
    diags.dedup();
    found.append(&mut diags);
}

#[cfg(test)]
mod tests {
    use crate::check;
    use std::path::{Path, PathBuf};

    #[test]
    fn allow_suppresses_dataflow_finding_and_stale_allow_reports() {
        let files = vec![
            (
                PathBuf::from("crates/simnet/src/a.rs"),
                "fn hot(sim: &Sim) {\n\
                 \x20   let t = stamp();\n\
                 \x20   sim.sleep(t); // simlint: allow(taint-through-call) -- fixture\n\
                 }\n\
                 // simlint: allow(panic-path) -- nothing here\n\
                 fn calm() {}\n"
                    .to_owned(),
            ),
            (
                PathBuf::from("crates/simnet/src/b.rs"),
                "fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n".to_owned(),
            ),
        ];
        let report = check(Path::new(""), &files, |_| false);
        let used: Vec<bool> = report.allows.iter().map(|(_, a)| a.used).collect();
        assert_eq!(used, [true, false], "{:?}", report.allows);
        let rules: Vec<&str> = report.diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["unused-allow"], "{:?}", report.diags);
    }
}
