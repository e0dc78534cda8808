//! # simlint — workspace determinism & simulation-safety lint pass
//!
//! The figures this repository reproduces are only comparable across runs
//! because every simulation is bit-for-bit deterministic: the DES core
//! promises that two runs of the same program produce identical event
//! orderings, and the committed `results/` directory pins every figure
//! byte for byte. That pin is an *after-the-fact* net. `simlint` is
//! the static half: a `syn`-based AST walker over the simulation crates that
//! rejects the classic determinism killers before they compile —
//! hash-ordered containers, wall-clock reads, thread spawns, unseeded RNGs,
//! `Ordering::Relaxed` atomics and cross-shard shared state. (A float
//! reduction over hash iteration needs a hash container, which
//! `hash-collections` already rejects.)
//!
//! ## How it works
//!
//! Each file is lexed by the vendored `proc-macro2` and split into spanned
//! items by the vendored `syn`; rules then walk a flattened token sequence
//! ([`FlatTok`]) with pattern helpers. Rules are deliberately *syntactic*:
//! they key on names and token shapes (`HashMap`, `std :: time`,
//! `Ordering :: Relaxed`) rather than resolved types, so a determined
//! author can evade them with renames — the point is to make the safe thing
//! the path of least resistance and the unsafe thing loud, not to sandbox
//! adversaries.
//!
//! ## One pipeline
//!
//! [`check`] is the whole tool: it runs the per-file rules of
//! [`rules`] on sim-scope files and the workspace-wide passes of
//! [`dataflow`] (taint, panic paths) over the widened
//! scope, then parses each file's allows once and applies them to the
//! union of findings. Whatever survives fails the run.
//!
//! Dimensional mistakes (a duration added to a byte count, a time narrowed
//! to `u32`) are not linted here: the `SimTime` / `SimDuration` / `Bytes`
//! types make them compile errors, and `simnet` denies
//! `clippy::cast_possible_truncation` (DESIGN.md §12).
//!
//! ## Allow-list annotations
//!
//! A violation that is genuinely justified is suppressed in place:
//!
//! ```text
//! // simlint: allow(relaxed-atomics) -- single-threaded executor, counters only
//! ```
//!
//! A trailing annotation (code before the `//` on the same line) applies to
//! its own line; an annotation on a line of its own applies to the next
//! line. The `-- reason` clause is mandatory (`malformed-allow` otherwise),
//! unknown rule names are themselves diagnostics (`unknown-rule`), and an
//! annotation that suppresses nothing is reported as `unused-allow` so stale
//! exemptions cannot accumulate.

#![forbid(unsafe_code)]

use proc_macro2::{Delimiter, Span, TokenStream, TokenTree};

use std::fmt;
use std::path::{Path, PathBuf};

pub mod dataflow;
pub mod graph;
pub mod rules;
pub mod taint;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A single finding, anchored to a 1-based line and 0-based column.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: usize,
    pub column: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: deny({}): {}",
            self.file.display(),
            self.line,
            self.column,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Flattened tokens
// ---------------------------------------------------------------------------

/// A linearized token: groups become balanced `Open`/`Close` markers so
/// rules can scan sibling runs and skip nested argument lists cheaply.
#[derive(Debug, Clone)]
pub enum FlatTok {
    Ident(String, Span),
    Punct(char, Span),
    Lit(String, Span),
    Open(Delimiter, Span),
    Close(Delimiter, Span),
}

impl FlatTok {
    pub fn span(&self) -> Span {
        match self {
            FlatTok::Ident(_, s)
            | FlatTok::Punct(_, s)
            | FlatTok::Lit(_, s)
            | FlatTok::Open(_, s)
            | FlatTok::Close(_, s) => *s,
        }
    }

    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, FlatTok::Ident(s, _) if s == name)
    }

    pub fn is_punct(&self, ch: char) -> bool {
        matches!(self, FlatTok::Punct(c, _) if *c == ch)
    }
}

/// Flatten a token stream depth-first into a balanced [`FlatTok`] sequence.
pub fn flatten(stream: &TokenStream, out: &mut Vec<FlatTok>) {
    for tree in stream {
        match tree {
            TokenTree::Ident(i) => out.push(FlatTok::Ident(i.to_string(), i.span())),
            TokenTree::Punct(p) => out.push(FlatTok::Punct(p.as_char(), p.span())),
            TokenTree::Literal(l) => out.push(FlatTok::Lit(l.to_string(), l.span())),
            TokenTree::Group(g) => {
                out.push(FlatTok::Open(g.delimiter(), g.span()));
                flatten(&g.stream(), out);
                out.push(FlatTok::Close(g.delimiter(), g.span()));
            }
        }
    }
}

/// True when `toks[i..]` spells the `::`-separated path `segs` (e.g.
/// `["std", "time"]` matches `std :: time`). Each separator is the two
/// `:` puncts the lexer produces.
pub fn path_at(toks: &[FlatTok], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !(toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        j += 1;
    }
    true
}

/// Given `toks[i]` = `Open`, return the index just past its matching
/// `Close`. The flattener guarantees balance.
pub fn skip_group(toks: &[FlatTok], i: usize) -> usize {
    debug_assert!(matches!(toks[i], FlatTok::Open(..)));
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j] {
            FlatTok::Open(..) => depth += 1,
            FlatTok::Close(..) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Allow-list annotations
// ---------------------------------------------------------------------------

/// One parsed `// simlint: allow(rule, …) -- reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment itself sits on (1-based).
    pub decl_line: usize,
    /// Line whose diagnostics it suppresses.
    pub target_line: usize,
    pub rules: Vec<String>,
    /// The mandatory `-- reason` justification text, verbatim.
    pub reason: String,
    pub used: bool,
}

/// Scan raw source lines for annotations. Malformed or unknown-rule
/// annotations are reported immediately and register no suppression.
pub fn parse_allows(
    file: &Path,
    src: &str,
    known_rules: &[&'static str],
    diags: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx + 1;
        let Some(comment_start) = line.find("//") else {
            continue;
        };
        let comment = &line[comment_start..];
        let Some(directive_at) = comment.find("simlint:") else {
            continue;
        };
        let column = comment_start + directive_at;
        let directive = comment[directive_at + "simlint:".len()..].trim_start();
        let Some(rest) = directive.strip_prefix("allow") else {
            diags.push(Diagnostic {
                file: file.to_owned(),
                line: lineno,
                column,
                rule: "malformed-allow",
                message: format!(
                    "unrecognized simlint directive {:?}; expected `simlint: allow(rule) -- reason`",
                    directive.split_whitespace().next().unwrap_or("")
                ),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (rule_list, after) = match rest.strip_prefix('(').and_then(|r| {
            r.find(')')
                .map(|close| (&r[..close], r[close + 1..].trim_start()))
        }) {
            Some(parts) => parts,
            None => {
                diags.push(Diagnostic {
                    file: file.to_owned(),
                    line: lineno,
                    column,
                    rule: "malformed-allow",
                    message: "missing `(rule-name)` list in simlint allow".to_owned(),
                });
                continue;
            }
        };
        if !after.starts_with("--") || after[2..].trim().is_empty() {
            diags.push(Diagnostic {
                file: file.to_owned(),
                line: lineno,
                column,
                rule: "malformed-allow",
                message: "simlint allow requires a justification: `-- reason`".to_owned(),
            });
            continue;
        }
        let mut rule_names = Vec::new();
        let mut bad = false;
        for name in rule_list.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            if known_rules.contains(&name) {
                rule_names.push(name.to_owned());
            } else {
                bad = true;
                diags.push(Diagnostic {
                    file: file.to_owned(),
                    line: lineno,
                    column,
                    rule: "unknown-rule",
                    message: format!(
                        "simlint allow names unknown rule {name:?} (see `simlint --list-rules`)"
                    ),
                });
            }
        }
        if bad || rule_names.is_empty() {
            continue;
        }
        // A trailing annotation (code before the comment) covers its own
        // line; a whole-line annotation covers the next line.
        let has_code_before = !line[..comment_start].trim().is_empty();
        let target_line = if has_code_before { lineno } else { lineno + 1 };
        allows.push(Allow {
            decl_line: lineno,
            target_line,
            rules: rule_names,
            reason: after[2..].trim().to_owned(),
            used: false,
        });
    }
    allows
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Everything a rule gets to look at for one file.
pub struct FileContext {
    pub file: PathBuf,
    pub ast: syn::File,
    pub flat: Vec<FlatTok>,
}

/// Outcome of one pipeline run.
pub struct Report {
    /// Files read.
    pub files: usize,
    /// Surviving findings of every pass plus the engine diagnostics
    /// (`parse-error`, `malformed-allow`, `unknown-rule`, `unused-allow`),
    /// sorted. Non-empty means the run fails.
    pub diags: Vec<Diagnostic>,
    /// Every well-formed allow annotation, its `used` flag resolved against
    /// the findings of *all* passes — what `simlint --audit-allows` prints.
    pub allows: Vec<(PathBuf, Allow)>,
}

/// Run every pass over `files` and apply the allows once. The per-file
/// rules see the files `classic` selects; the workspace-wide passes see
/// them all (and report only in [`SIM_SCOPE`]).
pub fn check(root: &Path, files: &[(PathBuf, String)], classic: impl Fn(&Path) -> bool) -> Report {
    let rules = rules::all_rules();
    let known: Vec<&'static str> = rules
        .iter()
        .map(|r| r.name())
        .chain(dataflow::DATAFLOW_RULES.iter().map(|(n, _)| *n))
        .collect();
    let mut diags = Vec::new();
    let mut allows = Vec::new();
    let mut found = Vec::new();
    for (path, src) in files {
        let parsed = parse_allows(path, src, &known, &mut diags);
        allows.extend(parsed.into_iter().map(|a| (path.clone(), a)));
        if classic(path) {
            classic_pass(path, src, &rules, &mut found, &mut diags);
        }
    }
    dataflow::dataflow_pass(root, files, &mut found);

    for d in found {
        let hit = allows.iter_mut().find(|(file, a)| {
            *file == d.file && a.target_line == d.line && a.rules.iter().any(|r| r == d.rule)
        });
        match hit {
            Some((_, a)) => a.used = true,
            None => diags.push(d),
        }
    }
    for (file, a) in allows.iter().filter(|(_, a)| !a.used) {
        diags.push(Diagnostic {
            file: file.clone(),
            line: a.decl_line,
            column: 0,
            rule: "unused-allow",
            message: format!(
                "allow({}) suppresses nothing on line {}; remove the stale annotation",
                a.rules.join(", "),
                a.target_line
            ),
        });
    }
    diags.sort();
    Report {
        files: files.len(),
        diags,
        allows,
    }
}

/// [`check`] over the workspace: the per-file rules on [`SIM_SCOPE`], the
/// workspace-wide passes over it plus `crates/bench/src`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_sources(root)?;
    Ok(check(root, &files, |file| in_sim_scope(root, file)))
}

/// The per-file rules over one file, one report per rule per line.
fn classic_pass(
    path: &Path,
    src: &str,
    rules: &[Box<dyn rules::Rule>],
    found: &mut Vec<Diagnostic>,
    diags: &mut Vec<Diagnostic>,
) {
    let ast = match syn::parse_file(src) {
        Ok(ast) => ast,
        Err(err) => {
            diags.push(Diagnostic {
                file: path.to_owned(),
                line: err.span().start().line,
                column: err.span().start().column,
                rule: "parse-error",
                message: err.to_string(),
            });
            return;
        }
    };
    // `all_tokens` includes inner attributes, so a `#![…]` naming a banned
    // symbol is walked like any other code.
    let mut flat = Vec::new();
    flatten(&ast.all_tokens(), &mut flat);
    let ctx = FileContext {
        file: path.to_owned(),
        ast,
        flat,
    };

    let mut file_found = Vec::new();
    for rule in rules {
        rule.check(&ctx, &mut file_found);
    }
    file_found.sort();
    file_found.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    found.append(&mut file_found);
}

/// Directories (workspace-relative) holding simulation-scope code: the DES
/// core, the fabric models, the benchmark *logic*, integration tests and
/// examples. `crates/bench` (wall-clock harness: it times figure generation
/// and fans out OS threads by design), `crates/simlint` (this tool) and
/// `vendor/` (offline API stand-ins) are deliberately out of scope —
/// see DESIGN.md "Determinism invariants".
pub const SIM_SCOPE: &[&str] = &[
    "crates/simnet",
    "crates/hostmodel",
    "crates/etherstack",
    "crates/iwarp",
    "crates/infiniband",
    "crates/mx10g",
    "crates/mpisim",
    "crates/udapl",
    "crates/core",
    "src",
    "tests",
    "examples",
];

/// Extra directory only the workspace-wide passes read: `bench`, so a
/// wall-clock helper there still taints sim-scope callers (findings are
/// only *reported* in sim scope — bench times figure generation by design).
const EXTRA_SCOPE: &[&str] = &["crates/bench/src"];

/// True when `file` lives under one of the sim-scope directories of `root`.
/// Files outside the workspace root (virtual fixture paths in tests) are
/// matched on their relative shape instead.
pub(crate) fn in_sim_scope(root: &Path, file: &Path) -> bool {
    let rel = file.strip_prefix(root).unwrap_or(file);
    SIM_SCOPE.iter().any(|dir| rel.starts_with(dir))
}

/// Read every `.rs` file under [`SIM_SCOPE`] and the extra scope of
/// `root`, sorted by path for deterministic traversal (simlint holds
/// itself to its own rules).
fn workspace_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut paths = Vec::new();
    for dir in SIM_SCOPE.iter().chain(EXTRA_SCOPE) {
        let base = root.join(dir);
        if base.is_dir() {
            collect_rs(&base, &mut paths)?;
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| std::fs::read_to_string(&p).map(|src| (p, src)))
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing_variants() {
        let src = "\
let x = 1; // simlint: allow(wall-clock) -- trailing
// simlint: allow(relaxed-atomics, thread-spawn) -- whole line
let y = 2;
// simlint: allow(wall-clock)
// simlint: deny(wall-clock) -- nonsense
// simlint: allow(no-such-rule) -- typo
";
        let mut diags = Vec::new();
        let allows = parse_allows(
            Path::new("t.rs"),
            src,
            &["wall-clock", "relaxed-atomics", "thread-spawn"],
            &mut diags,
        );
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].target_line, 1, "trailing covers its own line");
        assert_eq!(allows[0].reason, "trailing");
        assert_eq!(allows[1].target_line, 3, "whole-line covers the next line");
        assert_eq!(allows[1].rules.len(), 2);
        assert_eq!(allows[1].reason, "whole line");
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            ["malformed-allow", "malformed-allow", "unknown-rule"]
        );
    }

    #[test]
    fn path_matching() {
        let stream: TokenStream = "std::time::Instant::now()".parse().expect("lexes");
        let mut flat = Vec::new();
        flatten(&stream, &mut flat);
        assert!(path_at(&flat, 0, &["std", "time"]));
        assert!(path_at(&flat, 0, &["std", "time", "Instant"]));
        assert!(!path_at(&flat, 0, &["std", "thread"]));
    }

    #[test]
    fn skip_group_is_balanced() {
        let stream: TokenStream = "f(a, (b, c))[d]".parse().expect("lexes");
        let mut flat = Vec::new();
        flatten(&stream, &mut flat);
        // flat: f ( a , ( b , c ) ) [ d ]
        let after_call = skip_group(&flat, 1);
        assert!(matches!(
            flat[after_call],
            FlatTok::Open(Delimiter::Bracket, _)
        ));
    }
}
