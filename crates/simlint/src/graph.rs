//! Pass 1 of the dataflow engine: a workspace-wide item index and call
//! graph.
//!
//! The per-file rules in [`crate::rules`] see one token stream at a time, so
//! a nondeterminism source laundered through a helper — `fn stamp() ->
//! Instant { Instant::now() }` called from another crate — crosses the file
//! boundary invisibly. This module builds the structure the interprocedural
//! passes ([`crate::taint`]) walk: every function item in
//! the analyzed file set, the names it calls, and the source/sink/panic
//! facts of its body.
//!
//! ## Approximations (deliberate, documented in DESIGN.md §11)
//!
//! * **Name-keyed resolution.** The vendored `syn` has no type or path
//!   resolution, so calls are edges to *names*: `x.transfer(..)` is an edge
//!   to every function named `transfer` in the index. This over-approximates
//!   (a few false edges through common names) and never under-approximates,
//!   which is the right polarity for a taint analysis.
//! * **Function-granular taint.** A function that touches a source is
//!   tainted as a whole; we do not track which of its return values or
//!   parameters carry the value. Again: sound for rejection, coarse for
//!   blame.
//! * **Test code is skipped.** Items behind `#[cfg(test)]` and `mod tests`
//!   bodies are production-irrelevant and full of deliberate `unwrap()`s.

use crate::{path_at, skip_group, Diagnostic, FlatTok};

use proc_macro2::Delimiter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee *name* (last path segment / method name).
    pub callee: String,
    pub line: usize,
    pub column: usize,
}

/// A nondeterminism source found directly in a function body.
#[derive(Debug, Clone)]
pub struct SourceSite {
    /// Human-readable description, e.g. "wall-clock read (`Instant`)".
    pub what: String,
    pub line: usize,
}

/// A simulation-state sink found directly in a function body.
#[derive(Debug, Clone)]
pub struct SinkSite {
    /// Sink description, e.g. "sim event scheduling (`.spawn(..)`)".
    pub what: String,
    pub line: usize,
    pub column: usize,
}

/// A `.unwrap()` call site (panic-path audit raw material).
#[derive(Debug, Clone)]
pub struct UnwrapSite {
    pub line: usize,
    pub column: usize,
}

/// One function item in the analyzed file set.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub name: String,
    pub file: PathBuf,
    pub line: usize,
    pub calls: Vec<CallSite>,
    pub sources: Vec<SourceSite>,
    pub sinks: Vec<SinkSite>,
    pub unwraps: Vec<UnwrapSite>,
}

/// The workspace index: every production function, plus a name → definition
/// map for call resolution. Both sides use `BTreeMap`/sorted `Vec`s so the
/// downstream passes iterate deterministically.
#[derive(Debug, Default)]
pub struct Index {
    pub fns: Vec<FnNode>,
    /// Function name → indices into [`Index::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Index {
    /// Definitions of `name`, empty slice when unresolved (std/vendored).
    pub fn defs(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Keywords that can syntactically precede a parenthesis without being a
/// call (`if (cond)`, `while (cond)`, `match (tuple)`, `return (x)`, …).
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "move", "async", "await", "else",
    "let", "mut", "ref", "box", "yield", "dyn", "impl", "where",
];

/// Direct nondeterminism sources, keyed on bare identifiers. Mirrors the
/// per-file rule tables in [`crate::rules`] — the dataflow pass exists to
/// catch the *laundered* versions of the same hazards.
const SOURCE_IDENTS: &[(&str, &str)] = &[
    ("Instant", "wall-clock read (`Instant`)"),
    ("SystemTime", "wall-clock read (`SystemTime`)"),
    ("UNIX_EPOCH", "wall-clock read (`UNIX_EPOCH`)"),
    ("thread_rng", "environment-seeded RNG (`thread_rng`)"),
    ("ThreadRng", "environment-seeded RNG (`ThreadRng`)"),
    ("from_entropy", "environment-seeded RNG (`from_entropy`)"),
    ("from_os_rng", "environment-seeded RNG (`from_os_rng`)"),
    ("OsRng", "environment-seeded RNG (`OsRng`)"),
    ("getrandom", "environment-seeded RNG (`getrandom`)"),
    ("ThreadId", "thread-identity read (`ThreadId`)"),
    (
        "available_parallelism",
        "host-topology read (`available_parallelism`)",
    ),
];

/// Hash-ordered containers: a source only when the same body also iterates
/// (lookups never observe the randomized order).
const HASH_CONTAINER_IDENTS: &[&str] = &["HashMap", "HashSet", "FxHashMap", "AHashMap"];
const ITERATION_IDENTS: &[&str] = &["iter", "iter_mut", "into_iter", "values", "keys", "drain"];

/// Method-call sinks: `.name(..)` expressions that hand a value to the
/// simulation core. `reserve*`/`transfer` are pipe reservations, the rest
/// schedule events.
const SINK_METHODS: &[(&str, &str)] = &[
    ("spawn", "sim event scheduling (`.spawn(..)`)"),
    ("sleep", "sim event scheduling (`.sleep(..)`)"),
    ("sleep_until", "sim event scheduling (`.sleep_until(..)`)"),
    ("reserve", "pipe reservation (`.reserve(..)`)"),
    ("reserve_n", "pipe reservation (`.reserve_n(..)`)"),
    (
        "reserve_message",
        "pipe reservation (`.reserve_message(..)`)",
    ),
    ("transfer", "pipe reservation (`.transfer(..)`)"),
];

/// `ShardCtx::send` is the cross-shard merge channel; `send` alone is far
/// too common a name, so the sink fires only in bodies that also mention
/// `ShardCtx`.
const SHARD_CTX_IDENT: &str = "ShardCtx";

/// Fabric hot-path entry points for the panic-path audit: the pipeline
/// transfer, the one loss-recovery engine over it, and the user-facing
/// posting calls that lead into them.
pub const HOT_PATH_ENTRIES: &[&str] = &[
    "transfer",
    "transfer_reliable",
    "post_send_wr",
    "isend",
    "irecv",
];

/// Build the index over `(path, source)` pairs. Files that fail to parse
/// contribute a `parse-error` diagnostic and no functions.
pub fn build_index(files: &[(PathBuf, String)], diags: &mut Vec<Diagnostic>) -> Index {
    let mut index = Index::default();
    for (path, src) in files {
        let ast = match syn::parse_file(src) {
            Ok(ast) => ast,
            Err(err) => {
                diags.push(Diagnostic {
                    file: path.clone(),
                    line: err.span().start().line,
                    column: err.span().start().column,
                    rule: "parse-error",
                    message: err.to_string(),
                });
                continue;
            }
        };
        for item in &ast.items {
            index_item(path, item, &mut index);
        }
    }
    for (i, f) in index.fns.iter().enumerate() {
        index.by_name.entry(f.name.clone()).or_default().push(i);
    }
    index
}

fn index_item(file: &Path, item: &syn::Item, index: &mut Index) {
    if is_test_item(item) {
        return;
    }
    match item.kind {
        syn::ItemKind::Fn => {
            if let Some(ident) = &item.ident {
                let mut flat = Vec::new();
                crate::flatten(&item.tokens, &mut flat);
                index
                    .fns
                    .push(scan_fn(file, ident.to_string(), item, &flat));
            }
        }
        syn::ItemKind::Mod | syn::ItemKind::Impl | syn::ItemKind::Trait => {
            for sub in &item.sub_items {
                index_item(file, sub, index);
            }
        }
        _ => {}
    }
}

/// True for `#[cfg(test)]` items and `mod tests` bodies.
pub(crate) fn is_test_item(item: &syn::Item) -> bool {
    if item.kind == syn::ItemKind::Mod && item.ident.as_ref().is_some_and(|i| *i == "tests") {
        return true;
    }
    has_cfg_test_attr(&item.tokens)
}

/// Scan the leading `#[…]` attribute groups of an item's token stream for
/// `cfg` applied to a group containing the `test` ident (covers
/// `#[cfg(test)]` and `#[cfg(all(test, …))]`).
fn has_cfg_test_attr(tokens: &proc_macro2::TokenStream) -> bool {
    let mut trees = tokens.into_iter();
    loop {
        match trees.next() {
            Some(proc_macro2::TokenTree::Punct(p)) if p.as_char() == '#' => {
                let Some(proc_macro2::TokenTree::Group(g)) = trees.next() else {
                    return false;
                };
                let mut inner = g.stream().into_iter();
                let is_cfg = matches!(
                    inner.next(),
                    Some(proc_macro2::TokenTree::Ident(i)) if i == "cfg"
                );
                if is_cfg {
                    if let Some(proc_macro2::TokenTree::Group(args)) = inner.next() {
                        if stream_mentions_ident(&args.stream(), "test") {
                            return true;
                        }
                    }
                }
            }
            // Attributes come first; any other token ends the attr run.
            _ => return false,
        }
    }
}

fn stream_mentions_ident(stream: &proc_macro2::TokenStream, name: &str) -> bool {
    for tree in stream {
        match tree {
            proc_macro2::TokenTree::Ident(i) if i == name => return true,
            proc_macro2::TokenTree::Group(g) if stream_mentions_ident(&g.stream(), name) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Extract calls, sources, sinks and unwraps from one function's flattened
/// token stream (signature + body; nested closures and `fn`s are attributed
/// to the enclosing item — conservative and cheap).
fn scan_fn(file: &Path, name: String, item: &syn::Item, toks: &[FlatTok]) -> FnNode {
    let mut node = FnNode {
        name,
        file: file.to_owned(),
        line: item.span.start().line,
        calls: Vec::new(),
        sources: Vec::new(),
        sinks: Vec::new(),
        unwraps: Vec::new(),
    };
    let mentions_shard_ctx = toks.iter().any(|t| t.is_ident(SHARD_CTX_IDENT));
    let mentions_iteration = toks
        .iter()
        .any(|t| matches!(t, FlatTok::Ident(n, _) if ITERATION_IDENTS.contains(&n.as_str())));

    for (i, tok) in toks.iter().enumerate() {
        let FlatTok::Ident(ident, span) = tok else {
            continue;
        };
        let pos = span.start();

        // --- direct sources -------------------------------------------------
        if let Some((_, what)) = SOURCE_IDENTS.iter().find(|(n, _)| n == ident) {
            node.sources.push(SourceSite {
                what: (*what).to_owned(),
                line: pos.line,
            });
        } else if path_at(toks, i, &["std", "env"]) {
            node.sources.push(SourceSite {
                what: "environment read (`std::env`)".to_owned(),
                line: pos.line,
            });
        } else if HASH_CONTAINER_IDENTS.contains(&ident.as_str()) && mentions_iteration {
            node.sources.push(SourceSite {
                what: format!("hash-ordered iteration (`{ident}` + iterator methods)"),
                line: pos.line,
            });
        }

        // --- calls (and method-call sinks / unwraps) ------------------------
        let called = toks
            .get(i + 1)
            .is_some_and(|t| matches!(t, FlatTok::Open(Delimiter::Parenthesis, _)))
            || is_turbofish_call(toks, i + 1);
        if !called || NON_CALL_KEYWORDS.contains(&ident.as_str()) {
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        // `fn name(` is the declaration, not a call.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // `name!(…)` is a macro invocation; `assert!`/`vec!` etc. are not
        // function edges (panics inside macros are the macro's business).
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        node.calls.push(CallSite {
            callee: ident.clone(),
            line: pos.line,
            column: pos.column,
        });
        if is_method {
            if ident == "unwrap" {
                node.unwraps.push(UnwrapSite {
                    line: pos.line,
                    column: pos.column,
                });
            }
            if let Some((_, what)) = SINK_METHODS.iter().find(|(n, _)| n == ident) {
                node.sinks.push(SinkSite {
                    what: (*what).to_owned(),
                    line: pos.line,
                    column: pos.column,
                });
            }
            if ident == "send" && mentions_shard_ctx {
                node.sinks.push(SinkSite {
                    what: "cross-shard merge send (`ShardCtx::send(..)`)".to_owned(),
                    line: pos.line,
                    column: pos.column,
                });
            }
        }
    }

    // `MemoKey { … }` construction: type ident followed by a brace group.
    for (i, tok) in toks.iter().enumerate() {
        if let FlatTok::Ident(ident, span) = tok {
            // Exclusions: `struct MemoKey { … }` is the definition, and
            // `-> MemoKey {` is a return type followed by the fn body.
            let declarative = i > 0 && toks[i - 1].is_ident("struct")
                || i > 1 && toks[i - 2].is_punct('-') && toks[i - 1].is_punct('>');
            if ident == "MemoKey"
                && toks
                    .get(i + 1)
                    .is_some_and(|t| matches!(t, FlatTok::Open(Delimiter::Brace, _)))
                && !declarative
            {
                node.sinks.push(SinkSite {
                    what: "replay-cache key construction (`MemoKey { .. }`)".to_owned(),
                    line: span.start().line,
                    column: span.start().column,
                });
            }
        }
    }
    node
}

/// True when `toks[at..]` spells `:: < … > (` — a turbofish call like
/// `sum::<f64>()`.
fn is_turbofish_call(toks: &[FlatTok], at: usize) -> bool {
    if !(toks.get(at).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 2).is_some_and(|t| t.is_punct('<')))
    {
        return false;
    }
    let mut depth = 0i32;
    let mut j = at + 2;
    while j < toks.len() {
        match &toks[j] {
            FlatTok::Punct('<', _) => depth += 1,
            FlatTok::Punct('>', _) => {
                depth -= 1;
                if depth == 0 {
                    return toks
                        .get(j + 1)
                        .is_some_and(|t| matches!(t, FlatTok::Open(Delimiter::Parenthesis, _)));
                }
            }
            FlatTok::Open(..) => {
                j = skip_group(toks, j);
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> Index {
        let mut diags = Vec::new();
        let index = build_index(&[(PathBuf::from("t.rs"), src.to_owned())], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        index
    }

    #[test]
    fn calls_and_methods_are_edges() {
        let idx = index_of(
            "fn a() { b(); x.c(); d::<u32>(); if x { } }\n\
             fn b() {}\n",
        );
        let a = &idx.fns[idx.defs("a")[0]];
        let callees: Vec<&str> = a.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["b", "c", "d"]);
    }

    #[test]
    fn sources_sinks_unwraps_are_found() {
        let idx =
            index_of("fn hot(sim: &Sim) { let t = Instant::now(); sim.spawn(fut); q.unwrap(); }\n");
        let f = &idx.fns[idx.defs("hot")[0]];
        assert_eq!(f.sources.len(), 1, "{f:?}");
        assert!(f.sources[0].what.contains("Instant"));
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.unwraps.len(), 1);
    }

    #[test]
    fn cfg_test_items_and_mod_tests_are_skipped() {
        let idx = index_of(
            "#[cfg(test)] fn gone() { x.unwrap(); }\n\
             mod tests { pub fn also_gone() {} }\n\
             #[cfg(all(test, feature = \"x\"))] mod t2 { pub fn gone3() {} }\n\
             fn kept() {}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "kept");
    }

    #[test]
    fn impl_and_mod_fns_are_indexed() {
        let idx = index_of(
            "impl Foo { pub fn m(&self) { helper(); } }\n\
             mod inner { pub fn helper() {} }\n",
        );
        assert_eq!(idx.defs("m").len(), 1);
        assert_eq!(idx.defs("helper").len(), 1);
    }

    #[test]
    fn memo_key_construction_is_a_sink_but_definition_is_not() {
        let idx = index_of(
            "struct MemoKey { a: u64 }\n\
             fn build() -> MemoKey { MemoKey { a: 1 } }\n",
        );
        let f = &idx.fns[idx.defs("build")[0]];
        assert_eq!(f.sinks.len(), 1, "{f:?}");
        assert!(f.sinks[0].what.contains("MemoKey"));
    }

    #[test]
    fn shard_send_sink_requires_shard_ctx_mention() {
        let plain = index_of("fn a(tx: &Sender) { tx.send(1); }\n");
        assert!(plain.fns[0].sinks.is_empty());
        let shard = index_of("fn b(ctx: &ShardCtx) { ctx.send(1); }\n");
        assert_eq!(shard.fns[0].sinks.len(), 1);
    }
}
