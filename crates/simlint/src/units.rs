//! Pass 2d of the dataflow engine: dimensional abstract interpretation.
//!
//! The typed quantities in `simnet` (`Bytes`, `ByteRate`, `SimDuration`)
//! make most dimension errors unrepresentable at compile time, but the
//! models still carry raw `u64`s at their edges — counters, wire formats,
//! calibration plumbing — and a `bytes + nanos` slip there compiles fine
//! and silently bends a figure. This pass runs a small abstract
//! interpreter over every production function: each expression is mapped
//! to a point on the dimension lattice
//!
//! ```text
//!           Conflict
//!          /    |    \
//!        Ns   Bytes  Rate     Count / Dimensionless
//!          \    |    /
//!           Unknown
//! ```
//!
//! seeded from declared types (`Bytes`, `ByteRate`, `SimDuration`,
//! `SimTime`), from the blessed constructors
//! (`SimDuration::from_nanos(..)`, `Bytes::new(..)`,
//! `ByteRate::from_gbps(..)`, …), and — for raw integers only — from the
//! workspace naming convention (`bytes`/`*_bytes` → bytes,
//! `*_bytes_per_sec` → rate, `*_ns`/`*_nanos` → nanoseconds). Dimensions
//! propagate through local `let` bindings, across call arguments into
//! parameter positions, and interprocedurally: a fixed-point worklist over
//! function signatures lifts a callee's parameter dimension back into any
//! caller that forwards one of its own parameters verbatim, so the witness
//! chain in a finding can cross crates (`via `send_msg` -> `transfer` ->
//! `serialize``).
//!
//! Four rules:
//!
//! * **`unit-mismatch`** — `+`/`-` between two different dimensions, or a
//!   dimensioned argument flowing into a parameter of a *different*
//!   dimension (the classic swapped-argument bug).
//! * **`unit-arith`** — `*`/`/` combinations with no physical meaning:
//!   `ns * ns`, `bytes * rate`, `rate / bytes`, … The legal algebra is
//!   exactly the operator set the `simnet` newtypes implement:
//!   `bytes / rate → ns`, `rate * ns → bytes`, `x / x → count`, and
//!   scalars compose with everything.
//! * **`raw-quantity`** — a bare integer literal passed where a
//!   dimensioned parameter is declared. Blessed constructors are exempt:
//!   `Bytes::new(1448)` is the fix, not the bug.
//! * **`lossy-time-cast`** — a nanosecond quantity cast `as` a type that
//!   cannot hold it (`u32` overflows after 4.3 seconds of simulated
//!   time).
//!
//! Like the taint pass, messages are **line-free**; the diagnostic itself
//! carries the line/column anchor.

use crate::{in_sim_scope, Diagnostic, FlatTok};

use proc_macro2::Delimiter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The units-layer rules: `(name, one-line summary)`. Valid in
/// `simlint: allow(...)` annotations everywhere.
pub const UNITS_RULES: &[(&str, &str)] = &[
    (
        "unit-mismatch",
        "quantities of different dimensions added, subtracted, or passed for one another",
    ),
    (
        "unit-arith",
        "multiplication or division with no physical meaning (ns*ns, bytes*rate, ...)",
    ),
    (
        "raw-quantity",
        "bare integer literal passed where a dimensioned parameter is declared",
    ),
    (
        "lossy-time-cast",
        "nanosecond quantity cast to a type too narrow to hold simulated time",
    ),
];

// ---------------------------------------------------------------------------
// Dimension lattice
// ---------------------------------------------------------------------------

/// A point on the dimension lattice. `Count` is a number *of* things
/// (segments, retries — the result of `x / x`); `Dimensionless` is a bare
/// numeric literal before context assigns it a meaning. Both compose with
/// every dimension as scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    Unknown,
    Ns,
    Bytes,
    Rate,
    Count,
    Dimensionless,
    Conflict,
}

impl Dim {
    /// True for the physically dimensioned points (the ones worth
    /// defending).
    fn is_dimensioned(self) -> bool {
        matches!(self, Dim::Ns | Dim::Bytes | Dim::Rate)
    }

    /// True for scalar points that compose with anything.
    fn is_scalar(self) -> bool {
        matches!(self, Dim::Count | Dim::Dimensionless)
    }

    fn describe(self) -> &'static str {
        match self {
            Dim::Ns => "nanoseconds",
            Dim::Bytes => "bytes",
            Dim::Rate => "bytes/sec",
            Dim::Count => "count",
            Dim::Dimensionless => "dimensionless",
            Dim::Unknown => "unknown",
            Dim::Conflict => "conflicting",
        }
    }
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

/// One parameter of an indexed function: its declared/inferred dimension
/// and — when the dimension arrived interprocedurally — the call chain
/// that justifies it (innermost callee last).
#[derive(Debug, Clone)]
struct Param {
    name: String,
    dim: Dim,
    /// Witness: `["transfer", "serialize"]` means this parameter flows
    /// into `transfer`, which forwards it to `serialize`, where the
    /// dimension is declared.
    chain: Vec<String>,
}

/// A function signature plus its body tokens, the unit pass's working
/// granularity.
#[derive(Debug, Clone)]
struct UnitFn {
    name: String,
    file: PathBuf,
    /// True when the first parameter is a `self` receiver (method-call
    /// argument positions then map to `params[1..]`).
    has_self: bool,
    params: Vec<Param>,
    ret: Dim,
    /// Flattened tokens of the body block (inside the outer braces).
    body: Vec<FlatTok>,
}

/// Name → indices into the function table (name-keyed resolution, same
/// over-approximation as [`crate::graph`]).
#[derive(Debug, Default)]
struct Sigs {
    fns: Vec<UnitFn>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Sigs {
    fn defs(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Dimension of parameter `pos` (0-based over the *argument* list, so
    /// receivers are already skipped) when **all** definitions of `name`
    /// that have such a parameter agree; `Unknown` otherwise. Name-keyed
    /// resolution makes agreement the only sound polarity for reporting.
    fn param_dim(&self, name: &str, pos: usize, method_call: bool) -> (Dim, Vec<String>, String) {
        let mut dim = Dim::Unknown;
        let mut chain = Vec::new();
        let mut pname = String::new();
        for &i in self.defs(name) {
            let f = &self.fns[i];
            let skip = usize::from(f.has_self && method_call);
            let Some(p) = f.params.get(pos + skip) else {
                continue;
            };
            if p.dim == Dim::Unknown {
                continue;
            }
            if dim == Dim::Unknown {
                dim = p.dim;
                chain = p.chain.clone();
                pname = p.name.clone();
            } else if dim != p.dim {
                return (Dim::Unknown, Vec::new(), String::new());
            }
        }
        (dim, chain, pname)
    }

    /// Return dimension when all definitions of `name` agree.
    fn ret_dim(&self, name: &str) -> Dim {
        let mut dim = Dim::Unknown;
        for &i in self.defs(name) {
            let r = self.fns[i].ret;
            if r == Dim::Unknown {
                continue;
            }
            if dim == Dim::Unknown {
                dim = r;
            } else if dim != r {
                return Dim::Unknown;
            }
        }
        dim
    }
}

/// Types whose appearance in a parameter/return position declares a
/// dimension outright.
fn dim_of_type(toks: &[FlatTok]) -> Dim {
    for t in toks {
        if let FlatTok::Ident(name, _) = t {
            match name.as_str() {
                "Bytes" => return Dim::Bytes,
                "ByteRate" => return Dim::Rate,
                "SimDuration" | "SimTime" => return Dim::Ns,
                _ => {}
            }
        }
    }
    Dim::Unknown
}

/// True when the type slice is a raw integer (the only types the naming
/// convention may dimension — a `String` named `bytes` stays unknown).
fn is_integer_type(toks: &[FlatTok]) -> bool {
    toks.iter().any(|t| {
        matches!(t, FlatTok::Ident(n, _)
            if matches!(n.as_str(), "u8" | "u16" | "u32" | "u64" | "u128" | "usize"
                | "i8" | "i16" | "i32" | "i64" | "i128" | "isize"))
    })
}

/// Naming-convention fallback for raw-integer identifiers. Deliberately
/// narrow: exact `bytes`, the `_bytes` / `bytes_per_sec` / `_ns` /
/// `_nanos` suffixes. (`*_overhead` is *not* seeded — `packet_overhead`
/// is a byte count in one fabric and an occupancy duration in another.)
fn dim_of_name(name: &str) -> Dim {
    if name == "bytes" || name.ends_with("_bytes") {
        Dim::Bytes
    } else if name.ends_with("bytes_per_sec") {
        Dim::Rate
    } else if name == "ns" || name.ends_with("_ns") || name.ends_with("_nanos") {
        Dim::Ns
    } else {
        Dim::Unknown
    }
}

/// Blessed constructors: the sanctioned literal → dimension entry points.
/// A raw literal inside these is the fix for `raw-quantity`, never the
/// finding.
const BLESSED_CTORS: &[&str] = &[
    "new",
    "from_nanos",
    "from_micros",
    "from_millis",
    "from_secs",
    "from_secs_f64",
    "from_micros_f64",
    "from_bytes_per_sec",
    "from_gbps",
    "from_kib",
    "from_mib",
];

/// `Type::method` constructor paths that *produce* a dimension.
fn ctor_dim(ty: &str, method: &str) -> Option<Dim> {
    match (ty, method) {
        ("SimDuration" | "SimTime", _) if method.starts_with("from_") => Some(Dim::Ns),
        ("SimDuration" | "SimTime", "ZERO" | "MAX") => Some(Dim::Ns),
        ("SimDuration", "serialize") => Some(Dim::Ns),
        ("Bytes", "new" | "from_kib" | "from_mib" | "ZERO" | "MAX") => Some(Dim::Bytes),
        ("ByteRate", _) if method.starts_with("from_") => Some(Dim::Rate),
        _ => None,
    }
}

/// Foreign-method dimension transforms, applied when the callee is not in
/// the index (std / vendored / accessor methods). `Keep` preserves the
/// receiver's dimension.
enum MethodEffect {
    Keep,
    Becomes(Dim),
}

fn method_effect(name: &str) -> Option<MethodEffect> {
    match name {
        // Accessors that unwrap the newtype but not the meaning.
        "get" | "as_nanos" | "as_bytes_per_sec" => Some(MethodEffect::Keep),
        "min" | "max" | "clamp" | "clone" | "saturating_add" | "saturating_sub"
        | "saturating_mul" | "checked_add" | "checked_sub" | "unwrap" | "unwrap_or"
        | "unwrap_or_default" | "expect" | "abs" | "await" => Some(MethodEffect::Keep),
        // Ratios collapse to counts.
        "div_ceil" | "len" | "count" => Some(MethodEffect::Becomes(Dim::Count)),
        "is_zero" | "is_empty" => Some(MethodEffect::Becomes(Dim::Unknown)),
        _ => None,
    }
}

/// Casting a nanosecond quantity into these loses simulated time on the
/// floor: `u32` wraps after ~4.3 s, `f32` quantizes past ~16.7 ms.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

// ---------------------------------------------------------------------------
// Signature extraction
// ---------------------------------------------------------------------------

/// Build the signature table over `(path, source)` pairs. Walks the same
/// item tree as [`crate::graph::build_index`] and skips the same test
/// items.
fn build_sigs(files: &[(PathBuf, String)]) -> Sigs {
    let mut sigs = Sigs::default();
    for (path, src) in files {
        let Ok(ast) = syn::parse_file(src) else {
            continue; // parse errors are the classic pass's report
        };
        for item in &ast.items {
            sig_item(path, item, &mut sigs);
        }
    }
    for (i, f) in sigs.fns.iter().enumerate() {
        sigs.by_name.entry(f.name.clone()).or_default().push(i);
    }
    sigs
}

fn sig_item(file: &Path, item: &syn::Item, sigs: &mut Sigs) {
    if is_test_item(item) {
        return;
    }
    match item.kind {
        syn::ItemKind::Fn => {
            if let Some(ident) = &item.ident {
                let mut flat = Vec::new();
                crate::flatten(&item.tokens, &mut flat);
                if let Some(f) = parse_fn(file, ident.to_string(), &flat) {
                    sigs.fns.push(f);
                }
            }
        }
        syn::ItemKind::Mod | syn::ItemKind::Impl | syn::ItemKind::Trait => {
            for sub in &item.sub_items {
                sig_item(file, sub, sigs);
            }
        }
        _ => {}
    }
}

/// True for `#[cfg(test)]` items and `mod tests` bodies (mirrors
/// [`crate::graph`]; tests wrap literals deliberately).
fn is_test_item(item: &syn::Item) -> bool {
    if item.kind == syn::ItemKind::Mod && item.ident.as_ref().is_some_and(|i| *i == "tests") {
        return true;
    }
    let mut flat = Vec::new();
    crate::flatten(&item.tokens, &mut flat);
    let mut i = 0;
    while i + 1 < flat.len() {
        if flat[i].is_punct('#') {
            if let FlatTok::Open(Delimiter::Bracket, _) = flat[i + 1] {
                let end = crate::skip_group(&flat, i + 1);
                if flat[i + 2..end].iter().any(|t| t.is_ident("test")) {
                    return true;
                }
                i = end;
                continue;
            }
        }
        break;
    }
    false
}

/// Parse one function item's flattened tokens into a [`UnitFn`]:
/// `fn name ( params ) -> Ret { body }` with generics/attributes skipped.
fn parse_fn(file: &Path, name: String, flat: &[FlatTok]) -> Option<UnitFn> {
    // Locate `fn <name>` then its parameter parenthesis (generics between
    // name and `(` are skipped by scanning for the first paren group).
    let fn_at = flat
        .iter()
        .position(|t| t.is_ident("fn"))
        .filter(|&i| flat.get(i + 1).is_some_and(|t| t.is_ident(&name)))?;
    let mut i = fn_at + 2;
    while i < flat.len() && !matches!(flat[i], FlatTok::Open(Delimiter::Parenthesis, _)) {
        if let FlatTok::Open(..) = flat[i] {
            i = crate::skip_group(flat, i);
        } else {
            i += 1;
        }
    }
    if i >= flat.len() {
        return None;
    }
    let params_end = crate::skip_group(flat, i);
    let param_toks = &flat[i + 1..params_end - 1];
    let (params, has_self) = parse_params(param_toks);

    // Return type: `-> Type` between the param list and the body brace.
    let mut ret = Dim::Unknown;
    let mut j = params_end;
    let mut body = Vec::new();
    while j < flat.len() {
        match &flat[j] {
            FlatTok::Punct('-', _) if flat.get(j + 1).is_some_and(|t| t.is_punct('>')) => {
                let mut k = j + 2;
                let mut ty = Vec::new();
                while k < flat.len() && !matches!(flat[k], FlatTok::Open(Delimiter::Brace, _)) {
                    ty.push(flat[k].clone());
                    if let FlatTok::Open(..) = flat[k] {
                        k = crate::skip_group(flat, k);
                    } else {
                        k += 1;
                    }
                }
                ret = dim_of_type(&ty);
                j = k;
            }
            FlatTok::Open(Delimiter::Brace, _) => {
                let end = crate::skip_group(flat, j);
                body = flat[j + 1..end - 1].to_vec();
                break;
            }
            _ => j += 1,
        }
    }

    Some(UnitFn {
        name,
        file: file.to_owned(),
        has_self,
        params,
        ret,
        body,
    })
}

/// Split the parameter list at top-level commas into `(name, dim)` pairs.
fn parse_params(toks: &[FlatTok]) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    for piece in split_top_level(toks, ',') {
        // Receiver forms: `self`, `&self`, `&mut self`, `mut self`.
        if piece.iter().any(|t| t.is_ident("self")) && !piece.iter().any(|t| t.is_punct(':')) {
            has_self = true;
            params.push(Param {
                name: "self".to_owned(),
                dim: Dim::Unknown,
                chain: Vec::new(),
            });
            continue;
        }
        // `name : Type` — skip leading `mut`/`ref`/pattern noise.
        let Some(colon) = piece.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let Some(FlatTok::Ident(pname, _)) = piece[..colon]
            .iter()
            .rev()
            .find(|t| matches!(t, FlatTok::Ident(..)))
        else {
            continue;
        };
        let ty = &piece[colon + 1..];
        let mut dim = dim_of_type(ty);
        if dim == Dim::Unknown && is_integer_type(ty) {
            dim = dim_of_name(pname);
        }
        params.push(Param {
            name: pname.clone(),
            dim,
            chain: Vec::new(),
        });
    }
    (params, has_self)
}

/// Split a token slice at top-level occurrences of `sep`.
fn split_top_level(toks: &[FlatTok], sep: char) -> Vec<Vec<FlatTok>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            FlatTok::Open(..) => {
                let end = crate::skip_group(toks, i);
                cur.extend_from_slice(&toks[i..end]);
                i = end;
            }
            t if t.is_punct(sep) => {
                out.push(std::mem::take(&mut cur));
                i += 1;
            }
            t => {
                cur.push(t.clone());
                i += 1;
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// Interprocedural signature fixed point
// ---------------------------------------------------------------------------

/// Lift callee parameter dimensions back into callers that forward one of
/// their own parameters verbatim: if `f(x)` has `x` undimensioned and its
/// body calls `g(.., x, ..)` where that position of `g` is dimensioned,
/// `x` acquires `g`'s dimension with the witness chain `[g, ..g's own
/// chain]`. Monotone over the finite lattice (Unknown → dimensioned only,
/// first writer wins), so the worklist terminates.
fn propagate_signatures(sigs: &mut Sigs) {
    // (caller, caller-param-name, callee-name, arg-pos, is-method-call)
    let mut forwards: Vec<(usize, String, String, usize, bool)> = Vec::new();
    for (fi, f) in sigs.fns.iter().enumerate() {
        let param_names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        for (callee, args, method) in call_sites(&f.body) {
            for (pos, arg) in args.iter().enumerate() {
                if let [FlatTok::Ident(arg_name, _)] = arg.as_slice() {
                    if param_names.contains(&arg_name.as_str()) {
                        forwards.push((fi, arg_name.clone(), callee.clone(), pos, method));
                    }
                }
            }
        }
    }

    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 32 {
        changed = false;
        rounds += 1;
        for (fi, pname, callee, pos, method) in &forwards {
            let (dim, mut chain, _) = sigs.param_dim(callee, *pos, *method);
            if !dim.is_dimensioned() {
                continue;
            }
            let f = &mut sigs.fns[*fi];
            if let Some(p) = f
                .params
                .iter_mut()
                .find(|p| p.name == *pname && p.dim == Dim::Unknown)
            {
                p.dim = dim;
                let mut full = vec![callee.clone()];
                full.append(&mut chain);
                p.chain = full;
                changed = true;
            }
        }
    }
}

/// Every `name ( args )` / `.name ( args )` call in a token slice,
/// recursing into nested groups. Returns `(callee, args, is_method)`.
fn call_sites(toks: &[FlatTok]) -> Vec<(String, Vec<Vec<FlatTok>>, bool)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let FlatTok::Ident(name, _) = &toks[i] {
            if let Some(FlatTok::Open(Delimiter::Parenthesis, _)) = toks.get(i + 1) {
                if !crate::graph::NON_CALL_KEYWORDS.contains(&name.as_str()) {
                    let end = crate::skip_group(toks, i + 1);
                    let args = split_top_level(&toks[i + 2..end - 1], ',');
                    let is_method = i > 0 && toks[i - 1].is_punct('.');
                    let declares = i > 0 && toks[i - 1].is_ident("fn");
                    let is_macro = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
                    if !declares && !is_macro {
                        out.push((name.clone(), args, is_method));
                    }
                }
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Abstract interpretation of bodies
// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    root: &'a Path,
    sigs: &'a Sigs,
    func: &'a UnitFn,
    diags: &'a mut Vec<Diagnostic>,
}

impl Analyzer<'_> {
    fn rel(&self) -> String {
        self.func
            .file
            .strip_prefix(self.root)
            .unwrap_or(&self.func.file)
            .display()
            .to_string()
    }

    fn report(&mut self, rule: &'static str, tok: &FlatTok, message: String) {
        let pos = tok.span().start();
        self.diags.push(Diagnostic {
            file: self.func.file.clone(),
            line: pos.line,
            column: pos.column,
            rule,
            message,
        });
    }

    /// Analyze one block: split into statements at top-level `;`, handle
    /// `let` bindings, evaluate everything else for its side effects
    /// (diagnostics). `env` mutations stay local to the block's statement
    /// sequence — nested blocks clone, a sound approximation for
    /// shadowing.
    fn analyze_block(&mut self, toks: &[FlatTok], env: &mut BTreeMap<String, Dim>) {
        for stmt in split_top_level(toks, ';') {
            self.analyze_stmt(&stmt, env);
        }
    }

    fn analyze_stmt(&mut self, stmt: &[FlatTok], env: &mut BTreeMap<String, Dim>) {
        if stmt.is_empty() {
            return;
        }
        if stmt[0].is_ident("let") {
            // `let [mut] name [: Type] = init`
            let mut i = 1;
            while i < stmt.len() && (stmt[i].is_ident("mut") || stmt[i].is_ident("ref")) {
                i += 1;
            }
            let Some(FlatTok::Ident(name, _)) = stmt.get(i).cloned() else {
                let _ = self.eval(stmt, env);
                return;
            };
            let eq = stmt.iter().enumerate().position(|(k, t)| {
                t.is_punct('=') && !stmt.get(k + 1).is_some_and(|n| n.is_punct('='))
            });
            let mut dim = Dim::Unknown;
            if let Some(colon) = stmt[i..].iter().position(|t| t.is_punct(':')) {
                let ty_end = eq.unwrap_or(stmt.len());
                if i + colon < ty_end {
                    dim = dim_of_type(&stmt[i + colon + 1..ty_end]);
                }
            }
            if let Some(eq) = eq {
                let init = &stmt[eq + 1..];
                let init_dim = self.eval(init, env);
                if dim == Dim::Unknown {
                    dim = init_dim;
                }
            }
            if dim == Dim::Unknown {
                dim = dim_of_name(&name);
            }
            env.insert(name, dim);
            return;
        }
        let _ = self.eval(stmt, env);
    }

    /// Evaluate a token slice to a dimension, emitting diagnostics for
    /// illegal combinations along the way. Forgiving by design: anything
    /// it does not recognize evaluates to `Unknown`, and `Unknown`
    /// participates in no finding.
    fn eval(&mut self, toks: &[FlatTok], env: &mut BTreeMap<String, Dim>) -> Dim {
        let toks = trim_parens(toks);
        if toks.is_empty() {
            return Dim::Unknown;
        }
        // Control flow: recurse into every nested brace block with a clone
        // of the environment; value is unknowable here.
        if matches!(&toks[0], FlatTok::Ident(k, _)
            if matches!(k.as_str(), "if" | "match" | "while" | "for" | "loop" | "unsafe" | "return" | "break"))
        {
            if toks[0].is_ident("return") {
                return self.eval(&toks[1..], env);
            }
            self.recurse_groups(toks, env);
            return Dim::Unknown;
        }
        // Closures: `|args| body` / `move |args| body` — analyze the body
        // with the outer environment (closure params unknown).
        if toks[0].is_punct('|')
            || (toks[0].is_ident("move") && toks.get(1).is_some_and(|t| t.is_punct('|')))
        {
            self.recurse_groups(toks, env);
            return Dim::Unknown;
        }

        // `expr as Type`: evaluate the head, check for lossy time casts.
        if let Some(at) = find_top_level_as(toks) {
            let head = self.eval(&toks[..at], env);
            if head == Dim::Ns {
                if let Some(FlatTok::Ident(ty, _)) = toks.get(at + 1) {
                    if NARROW_CASTS.contains(&ty.as_str()) {
                        let rel = self.rel();
                        let fname = self.func.name.clone();
                        self.report(
                            "lossy-time-cast",
                            &toks[at],
                            format!(
                                "nanosecond quantity cast `as {ty}` in `{fname}` ({rel}); \
                                 `{ty}` cannot hold simulated time — keep u64/u128 or use \
                                 `SimDuration` end to end",
                            ),
                        );
                    }
                }
            }
            return head;
        }

        // Binary operators, loosest first so `a + b * c` splits at `+`.
        for ops in [&['+', '-'][..], &['*', '/', '%'][..]] {
            if let Some(at) = find_top_level_binop(toks, ops) {
                let FlatTok::Punct(op, _) = toks[at] else {
                    unreachable!()
                };
                let lhs = self.eval(&toks[..at], env);
                let rhs = self.eval(&toks[at + 1..], env);
                return self.combine(op, lhs, rhs, &toks[at]);
            }
        }

        self.eval_atom(toks, env)
    }

    /// Apply the dimension algebra to one binary operation, reporting
    /// illegal combinations.
    fn combine(&mut self, op: char, lhs: Dim, rhs: Dim, at: &FlatTok) -> Dim {
        use Dim::*;
        if lhs == Unknown || rhs == Unknown || lhs == Conflict || rhs == Conflict {
            return Unknown;
        }
        let rel = self.rel();
        let fname = self.func.name.clone();
        match op {
            '+' | '-' => {
                if lhs.is_dimensioned() && rhs.is_dimensioned() && lhs != rhs {
                    self.report(
                        "unit-mismatch",
                        at,
                        format!(
                            "`{}` combines {} with {} in `{fname}` ({rel}); convert one side \
                             (`bytes / rate` yields a duration, `rate * duration` yields bytes)",
                            op,
                            lhs.describe(),
                            rhs.describe(),
                        ),
                    );
                    return Conflict;
                }
                if lhs.is_dimensioned() {
                    lhs
                } else if rhs.is_dimensioned() {
                    rhs
                } else {
                    Count
                }
            }
            '*' => match (lhs, rhs) {
                (a, b) if a.is_scalar() => b,
                (a, b) if b.is_scalar() => a,
                (Rate, Ns) | (Ns, Rate) => Bytes,
                (a, b) => {
                    self.report(
                        "unit-arith",
                        at,
                        format!(
                            "`*` of {} by {} has no physical meaning in `{fname}` ({rel}); \
                             the legal products are scalar*x and rate*duration (= bytes)",
                            a.describe(),
                            b.describe(),
                        ),
                    );
                    Conflict
                }
            },
            '/' | '%' => match (lhs, rhs) {
                (a, b) if b.is_scalar() => a,
                (a, b) if a == b => Count,
                (Bytes, Rate) => Ns,
                (a, b) => {
                    self.report(
                        "unit-arith",
                        at,
                        format!(
                            "`{}` of {} by {} has no physical meaning in `{fname}` ({rel}); \
                             the legal quotients are x/scalar, x/x (= count) and \
                             bytes/rate (= duration)",
                            op,
                            a.describe(),
                            b.describe(),
                        ),
                    );
                    Conflict
                }
            },
            _ => Unknown,
        }
    }

    /// Evaluate an operator-free atom: literals, paths, call chains and
    /// field accesses with trailing method transforms.
    fn eval_atom(&mut self, toks: &[FlatTok], env: &mut BTreeMap<String, Dim>) -> Dim {
        let mut i = 0;
        // Strip leading reference/deref/negation sigils.
        while i < toks.len()
            && (toks[i].is_punct('&')
                || toks[i].is_punct('*')
                || toks[i].is_punct('-')
                || toks[i].is_ident("mut"))
        {
            i += 1;
        }
        if i >= toks.len() {
            return Dim::Unknown;
        }

        let mut dim = match &toks[i] {
            FlatTok::Lit(text, _) => {
                if text.starts_with(|c: char| c.is_ascii_digit()) {
                    Dim::Dimensionless
                } else {
                    Dim::Unknown
                }
            }
            FlatTok::Open(Delimiter::Brace, _) => {
                // Block expression: analyze contents, value unknown.
                let end = crate::skip_group(toks, i);
                let mut inner_env = env.clone();
                self.analyze_block(&toks[i + 1..end - 1], &mut inner_env);
                i = end;
                Dim::Unknown
            }
            FlatTok::Open(..) => {
                let end = crate::skip_group(toks, i);
                let d = self.eval(&toks[i + 1..end - 1], env);
                i = end;
                // A parenthesized head continues into a method chain below.
                return self.eval_chain(toks, i, d, env);
            }
            FlatTok::Ident(head, _) => {
                // `Type :: method ( .. )` constructor paths and plain
                // `ident` lookups; multi-segment paths walk to their last
                // segment.
                let mut segs = vec![head.clone()];
                let mut j = i + 1;
                while j + 1 < toks.len() && toks[j].is_punct(':') && toks[j + 1].is_punct(':') {
                    match toks.get(j + 2) {
                        Some(FlatTok::Ident(seg, _)) => {
                            segs.push(seg.clone());
                            j += 3;
                        }
                        // Turbofish `::<..>` — skip the generic group.
                        Some(FlatTok::Punct('<', _)) => {
                            let mut depth = 0i32;
                            let mut k = j + 2;
                            while k < toks.len() {
                                match &toks[k] {
                                    FlatTok::Punct('<', _) => depth += 1,
                                    FlatTok::Punct('>', _) => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    FlatTok::Open(..) => {
                                        k = crate::skip_group(toks, k) - 1;
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                            j = k + 1;
                        }
                        _ => break,
                    }
                }
                let last = segs.last().cloned().unwrap_or_default();
                let penult = segs.len().checked_sub(2).map(|k| segs[k].clone());
                let is_call = toks
                    .get(j)
                    .is_some_and(|t| matches!(t, FlatTok::Open(Delimiter::Parenthesis, _)));
                let d = if is_call {
                    let end = crate::skip_group(toks, j);
                    let args = split_top_level(&toks[j + 1..end - 1], ',');
                    let d = self.eval_call(&last, penult.as_deref(), &args, false, env, &toks[i]);
                    j = end;
                    d
                } else if segs.len() >= 2 {
                    penult
                        .as_deref()
                        .and_then(|ty| ctor_dim(ty, &last))
                        .unwrap_or(Dim::Unknown)
                } else {
                    env.get(&last)
                        .copied()
                        .unwrap_or_else(|| dim_of_name(&last))
                };
                i = j;
                return self.eval_chain(toks, i, d, env);
            }
            _ => Dim::Unknown,
        };

        dim = self.eval_chain(toks, i, dim, env);
        dim
    }

    /// Walk a trailing `.method(args)` / `.field` / `.await` / indexing
    /// chain, transforming `dim` at each step.
    fn eval_chain(
        &mut self,
        toks: &[FlatTok],
        mut i: usize,
        mut dim: Dim,
        env: &mut BTreeMap<String, Dim>,
    ) -> Dim {
        while i < toks.len() {
            if toks[i].is_punct('.') {
                match toks.get(i + 1) {
                    Some(FlatTok::Ident(name, _)) => {
                        let mut k = i + 2;
                        // Turbofish between method name and arguments.
                        if toks.get(k).is_some_and(|t| t.is_punct(':'))
                            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        {
                            let mut depth = 0i32;
                            let mut m = k + 2;
                            while m < toks.len() {
                                match &toks[m] {
                                    FlatTok::Punct('<', _) => depth += 1,
                                    FlatTok::Punct('>', _) => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                m += 1;
                            }
                            k = m + 1;
                        }
                        if toks
                            .get(k)
                            .is_some_and(|t| matches!(t, FlatTok::Open(Delimiter::Parenthesis, _)))
                        {
                            let end = crate::skip_group(toks, k);
                            let args = split_top_level(&toks[k + 1..end - 1], ',');
                            dim = self.eval_method(name, dim, &args, env, &toks[i + 1]);
                            i = end;
                        } else if name == "await" {
                            // `.await` passes the future's value through.
                            i += 2;
                        } else {
                            // Field access: the naming convention is the
                            // only signal (`calib.link_bytes_per_sec`).
                            dim = dim_of_name(name);
                            i += 2;
                        }
                        continue;
                    }
                    Some(FlatTok::Lit(..)) => {
                        // Tuple index `.0` — dimension unknown.
                        dim = Dim::Unknown;
                        i += 2;
                        continue;
                    }
                    _ => return Dim::Unknown,
                }
            }
            if let FlatTok::Open(Delimiter::Bracket, _) = toks[i] {
                // Indexing: recurse for diagnostics, keep the element
                // dimension unknowable.
                let end = crate::skip_group(toks, i);
                let _ = self.eval(&toks[i + 1..end - 1], env);
                dim = Dim::Unknown;
                i = end;
                continue;
            }
            if toks[i].is_punct('?') {
                i += 1;
                continue;
            }
            // Anything else ends the atom (and an unconsumed tail means we
            // did not understand the expression — stay unknown).
            return Dim::Unknown;
        }
        dim
    }

    /// A method call in chain position. The foreign transforms take
    /// priority over name-keyed indexed lookup: `.get()` on a `Cell` or a
    /// newtype is an accessor wherever it appears, and letting a single
    /// same-named workspace definition dimension every call site is
    /// exactly the over-approximation that breeds false positives.
    /// `.await` arrives as a field access, not here.
    fn eval_method(
        &mut self,
        name: &str,
        recv: Dim,
        args: &[Vec<FlatTok>],
        env: &mut BTreeMap<String, Dim>,
        at: &FlatTok,
    ) -> Dim {
        match method_effect(name) {
            // Foreign-transform names are std vocabulary (`div_ceil`,
            // `min`, `len`, …): evaluate arguments for their own findings
            // but skip name-keyed parameter matching — a same-named
            // workspace inherent method must not dimension `u128` math.
            Some(effect) => {
                for arg in args {
                    let _ = self.eval(arg, env);
                }
                match effect {
                    MethodEffect::Keep => recv,
                    MethodEffect::Becomes(d) => d,
                }
            }
            None => {
                self.check_args(name, args, true, env, at);
                self.sigs.ret_dim(name)
            }
        }
    }

    /// A free/path call: constructor dims win, then indexed return dims.
    fn eval_call(
        &mut self,
        name: &str,
        qualifier: Option<&str>,
        args: &[Vec<FlatTok>],
        method: bool,
        env: &mut BTreeMap<String, Dim>,
        at: &FlatTok,
    ) -> Dim {
        if let Some(ty) = qualifier {
            if let Some(d) = ctor_dim(ty, name) {
                // Blessed constructor: arguments are raw by design.
                for arg in args {
                    let _ = self.eval(arg, env);
                }
                return d;
            }
        }
        self.check_args(name, args, method, env, at);
        self.sigs.ret_dim(name)
    }

    /// Argument checking shared by both call forms: raw literals into
    /// dimensioned parameters (`raw-quantity`) and cross-dimension
    /// argument flow (`unit-mismatch`, the swapped-argument case).
    fn check_args(
        &mut self,
        callee: &str,
        args: &[Vec<FlatTok>],
        method: bool,
        env: &mut BTreeMap<String, Dim>,
        at: &FlatTok,
    ) {
        let blessed = BLESSED_CTORS.contains(&callee);
        for (pos, arg) in args.iter().enumerate() {
            let arg_dim = self.eval(arg, env);
            if blessed || self.sigs.defs(callee).is_empty() {
                continue;
            }
            let (pdim, chain, pname) = self.sigs.param_dim(callee, pos, method);
            if !pdim.is_dimensioned() {
                continue;
            }
            let via = {
                let mut full = vec![self.func.name.clone(), callee.to_owned()];
                full.extend(chain.iter().cloned());
                format!(" via `{}`", full.join("` -> `"))
            };
            let rel = self.rel();
            let fname = self.func.name.clone();
            let is_raw_literal = matches!(
                arg.as_slice(),
                [FlatTok::Lit(text, _)] if text.starts_with(|c: char| c.is_ascii_digit())
            );
            if is_raw_literal {
                self.report(
                    "raw-quantity",
                    at,
                    format!(
                        "raw integer literal flows into the {}-dimensioned parameter \
                         `{pname}` of `{callee}` from `{fname}` ({rel}){via}; wrap it in \
                         the typed constructor",
                        pdim.describe(),
                    ),
                );
            } else if arg_dim.is_dimensioned() && arg_dim != pdim {
                self.report(
                    "unit-mismatch",
                    at,
                    format!(
                        "argument of {} flows into the {}-dimensioned parameter `{pname}` \
                         of `{callee}` from `{fname}` ({rel}){via}; the arguments are \
                         crossed or the value needs converting",
                        arg_dim.describe(),
                        pdim.describe(),
                    ),
                );
            }
        }
    }

    /// Recurse into every nested brace group of an unmodeled construct so
    /// statements inside `if`/`match`/closure bodies are still analyzed.
    fn recurse_groups(&mut self, toks: &[FlatTok], env: &mut BTreeMap<String, Dim>) {
        let mut i = 0;
        while i < toks.len() {
            match &toks[i] {
                FlatTok::Open(Delimiter::Brace, _) => {
                    let end = crate::skip_group(toks, i);
                    let mut inner = env.clone();
                    self.analyze_block(&toks[i + 1..end - 1], &mut inner);
                    i = end;
                }
                FlatTok::Open(..) => {
                    let end = crate::skip_group(toks, i);
                    self.recurse_groups(&toks[i + 1..end - 1], env);
                    i = end;
                }
                _ => i += 1,
            }
        }
    }
}

/// Strip one or more layers of full-width parentheses.
fn trim_parens(mut toks: &[FlatTok]) -> &[FlatTok] {
    while toks.len() >= 2 {
        if let FlatTok::Open(Delimiter::Parenthesis, _) = toks[0] {
            if crate::skip_group(toks, 0) == toks.len() {
                toks = &toks[1..toks.len() - 1];
                continue;
            }
        }
        break;
    }
    toks
}

/// Position of a top-level `as` keyword, if any.
fn find_top_level_as(toks: &[FlatTok]) -> Option<usize> {
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            FlatTok::Open(..) => i = crate::skip_group(toks, i),
            t if t.is_ident("as") => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Position of the last top-level binary operator from `ops`, honoring
/// left associativity. Compound assignment (`+=`), arrows (`->`), unary
/// prefixes and deref stars are excluded by shape.
fn find_top_level_binop(toks: &[FlatTok], ops: &[char]) -> Option<usize> {
    let mut found = None;
    let mut i = 0;
    let mut prev_is_atom_end = false;
    while i < toks.len() {
        match &toks[i] {
            FlatTok::Open(..) => {
                i = crate::skip_group(toks, i);
                prev_is_atom_end = true;
                continue;
            }
            FlatTok::Punct(c, _) if ops.contains(c) => {
                let next_eq = toks.get(i + 1).is_some_and(|t| t.is_punct('='));
                let arrow = *c == '-' && toks.get(i + 1).is_some_and(|t| t.is_punct('>'));
                if prev_is_atom_end && !next_eq && !arrow {
                    found = Some(i);
                }
                prev_is_atom_end = false;
            }
            FlatTok::Ident(..) | FlatTok::Lit(..) | FlatTok::Close(..) => {
                prev_is_atom_end = true;
            }
            FlatTok::Punct('?', _) => {
                prev_is_atom_end = true;
            }
            _ => prev_is_atom_end = false,
        }
        i += 1;
    }
    found
}

// ---------------------------------------------------------------------------
// Pass driver
// ---------------------------------------------------------------------------

/// Run the units pass over `files`; append findings to `diags`. Findings
/// are only *reported* in sim scope, but signatures everywhere feed the
/// interprocedural fixed point.
pub fn units_pass(root: &Path, files: &[(PathBuf, String)], diags: &mut Vec<Diagnostic>) {
    let mut sigs = build_sigs(files);
    propagate_signatures(&mut sigs);
    let mut found = Vec::new();
    for fi in 0..sigs.fns.len() {
        let func = sigs.fns[fi].clone();
        if !in_sim_scope(root, &func.file) {
            continue;
        }
        let mut env: BTreeMap<String, Dim> = func
            .params
            .iter()
            .map(|p| (p.name.clone(), p.dim))
            .collect();
        let body = func.body.clone();
        let mut analyzer = Analyzer {
            root,
            sigs: &sigs,
            func: &func,
            diags: &mut found,
        };
        analyzer.analyze_block(&body, &mut env);
    }
    found.sort();
    found.dedup();
    diags.append(&mut found);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let owned: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_owned()))
            .collect();
        let mut diags = Vec::new();
        units_pass(Path::new(""), &owned, &mut diags);
        diags
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn cross_dimension_addition_is_a_mismatch() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(bytes: Bytes, dur: SimDuration) -> u64 { let x = bytes + dur; 0 }\n",
        )]);
        assert_eq!(rules_of(&diags), ["unit-mismatch"], "{diags:?}");
        assert!(diags[0].message.contains("bytes"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("nanoseconds"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn same_dimension_addition_is_fine() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(a: Bytes, b: Bytes) { let _ = a + b; }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn legal_algebra_composes() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(bytes: Bytes, rate: ByteRate, n: u64) {\n\
             \x20   let d = bytes / rate;\n\
             \x20   let b2 = rate * d;\n\
             \x20   let per = bytes / n;\n\
             \x20   let total = bytes * 4;\n\
             \x20   let frac = bytes / bytes;\n\
             \x20   let _ = (b2, per, total, frac);\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn meaningless_products_are_arith_errors() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(a: SimDuration, b: SimDuration, c: Bytes) {\n\
             \x20   let x = a * b;\n\
             \x20   let y = c * a;\n\
             }\n",
        )]);
        assert_eq!(rules_of(&diags), ["unit-arith", "unit-arith"], "{diags:?}");
    }

    #[test]
    fn name_convention_seeds_integer_params_only() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(total_bytes: u64, elapsed_ns: u64, label: String) {\n\
             \x20   let _ = total_bytes + elapsed_ns;\n\
             }\n",
        )]);
        assert_eq!(rules_of(&diags), ["unit-mismatch"], "{diags:?}");
    }

    #[test]
    fn raw_literal_into_dimensioned_param_is_flagged() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn send(bytes: Bytes) {}\n\
             fn caller() { send(1448); }\n",
        )]);
        assert_eq!(rules_of(&diags), ["raw-quantity"], "{diags:?}");
        assert!(
            diags[0].message.contains("`caller` -> `send`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn blessed_constructors_take_raw_literals() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn caller() -> Bytes { let d = SimDuration::from_nanos(40); Bytes::new(1448) }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn swapped_arguments_are_a_mismatch_with_chain() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn serialize(bytes: Bytes, dur: SimDuration) {}\n\
             fn caller(b: Bytes, d: SimDuration) { serialize(d, b); }\n",
        )]);
        assert_eq!(
            rules_of(&diags),
            ["unit-mismatch", "unit-mismatch"],
            "{diags:?}"
        );
        assert!(
            diags[0].message.contains("`caller` -> `serialize`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn interprocedural_chain_crosses_helpers() {
        // `outer` passes a literal to `mid`, whose parameter is only
        // dimensioned because `mid` forwards it into `inner`.
        let diags = run(&[
            (
                "crates/simnet/src/a.rs",
                "fn inner(bytes: Bytes) {}\n\
                 fn mid(n: u64) { inner(n); }\n",
            ),
            ("crates/iwarp/src/b.rs", "fn outer() { mid(4096); }\n"),
        ]);
        let raws: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "raw-quantity").collect();
        assert_eq!(raws.len(), 1, "{diags:?}");
        assert!(
            raws[0].message.contains("`outer` -> `mid` -> `inner`"),
            "witness chain must cross the helper: {}",
            raws[0].message
        );
    }

    #[test]
    fn lossy_time_cast_is_flagged_and_widening_is_not() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(d: SimDuration) -> u32 {\n\
             \x20   let wide = d.as_nanos() as u128;\n\
             \x20   d.as_nanos() as u32\n\
             }\n",
        )]);
        assert_eq!(rules_of(&diags), ["lossy-time-cast"], "{diags:?}");
    }

    #[test]
    fn findings_outside_sim_scope_are_not_reported() {
        let diags = run(&[(
            "crates/bench/src/f.rs",
            "fn f(a: Bytes, b: SimDuration) { let _ = a + b; }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_items_are_skipped() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "#[cfg(test)]\nmod tests { fn f(a: Bytes, b: SimDuration) { let _ = a + b; } }\n\
             #[test]\nfn t() { let _ = 1; }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_dimensions_never_fire() {
        let diags = run(&[(
            "crates/simnet/src/f.rs",
            "fn f(x: u64, y: u64, b: Bytes) {\n\
             \x20   let a = x + y;\n\
             \x20   let c = b + x;\n\
             \x20   let d = b * x;\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_suppresses_units_finding() {
        let files = vec![(
            PathBuf::from("crates/simnet/src/f.rs"),
            "fn f(a: Bytes, b: SimDuration) {\n\
             \x20   let _ = a + b; // simlint: allow(unit-mismatch) -- fixture\n\
             }\n"
            .to_owned(),
        )];
        let report = crate::check(Path::new(""), &files, |_| false);
        assert!(report.diags.is_empty(), "{:?}", report.diags);
        assert!(report.allows[0].1.used);
    }
}
