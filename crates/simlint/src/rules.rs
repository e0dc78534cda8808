//! The determinism & simulation-safety rule set.
//!
//! Every rule is a token-pattern walker over [`FlatTok`] sequences (plus the
//! item structure from the vendored `syn` where it helps). Rules are
//! *syntactic by design* — see the crate docs — and every rule here exists
//! because its target has a concrete, silent failure mode in a discrete-event
//! simulation; DESIGN.md ("Determinism invariants") documents each one.

use crate::{path_at, skip_group, Diagnostic, FileContext, FlatTok};

use proc_macro2::Span;

/// A single named lint with a one-line summary and a checker.
pub trait Rule {
    fn name(&self) -> &'static str;
    /// One line for `--list-rules` and the docs.
    fn summary(&self) -> &'static str;
    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>);
}

/// The full registry, in stable reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HashCollections),
        Box::new(WallClock),
        Box::new(ThreadSpawn),
        Box::new(UnseededRng),
        Box::new(RelaxedAtomics),
        Box::new(CrossShardState),
    ]
}

fn report(
    ctx: &FileContext,
    span: Span,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        file: ctx.file.clone(),
        line: span.start().line,
        column: span.start().column,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------------
// hash-collections
// ---------------------------------------------------------------------------

/// Hash-ordered containers iterate in a per-process-randomized order
/// (`RandomState` seeds from the OS), so *any* reachable iteration —
/// including `Debug` formatting and drop order of drained entries — leaks
/// nondeterminism into event ordering. Sim-state code must use `BTreeMap`/
/// `BTreeSet` (or `Vec` + sort) instead; lookups that genuinely never
/// iterate may carry an allow with justification.
struct HashCollections;

const HASH_IDENTS: &[(&str, &str)] = &[
    ("HashMap", "use `BTreeMap` (deterministic iteration order)"),
    ("HashSet", "use `BTreeSet` (deterministic iteration order)"),
    ("hash_map", "use `std::collections::btree_map` equivalents"),
    ("hash_set", "use `std::collections::btree_set` equivalents"),
    ("RandomState", "hash seeding is per-process random"),
    ("DefaultHasher", "hash seeding is per-process random"),
    (
        "FxHashMap",
        "use `BTreeMap` (deterministic iteration order)",
    ),
    (
        "FxHashSet",
        "use `BTreeSet` (deterministic iteration order)",
    ),
    ("AHashMap", "use `BTreeMap` (deterministic iteration order)"),
    ("AHashSet", "use `BTreeSet` (deterministic iteration order)"),
];

impl Rule for HashCollections {
    fn name(&self) -> &'static str {
        "hash-collections"
    }

    fn summary(&self) -> &'static str {
        "hash-ordered containers (HashMap/HashSet/RandomState) iterate in randomized order; sim state requires BTree containers"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        for tok in &ctx.flat {
            if let FlatTok::Ident(name, span) = tok {
                if let Some((_, hint)) = HASH_IDENTS.iter().find(|(n, _)| n == name) {
                    report(
                        ctx,
                        *span,
                        self.name(),
                        format!("`{name}` in simulation-scope code: {hint}"),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

/// The DES core advances virtual time only; a `std::time` read couples
/// simulation behaviour to host scheduling and load, which breaks replay
/// bit-exactness. Simulated code reads `Sim::now()` / `SimTime` instead.
struct WallClock;

const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn summary(&self) -> &'static str {
        "std::time reads (Instant/SystemTime) couple sim behaviour to the host clock; use Sim::now()/SimTime"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        let toks = &ctx.flat;
        for (i, tok) in toks.iter().enumerate() {
            if let FlatTok::Ident(name, span) = tok {
                if WALL_CLOCK_IDENTS.contains(&name.as_str()) {
                    report(
                        ctx,
                        *span,
                        self.name(),
                        format!("`{name}` is wall-clock time; simulated code must use `Sim::now()`/`SimTime`"),
                        out,
                    );
                } else if path_at(toks, i, &["std", "time"]) {
                    report(
                        ctx,
                        *span,
                        self.name(),
                        "`std::time` is wall-clock time; simulated code must use `simnet::time`"
                            .to_owned(),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// thread-spawn
// ---------------------------------------------------------------------------

/// The executor is single-threaded on purpose: OS threads introduce
/// scheduler-dependent interleavings that no seed can replay. Concurrency
/// inside a simulation is expressed as sim tasks (`Sim::spawn`), never as
/// `std::thread`.
struct ThreadSpawn;

impl Rule for ThreadSpawn {
    fn name(&self) -> &'static str {
        "thread-spawn"
    }

    fn summary(&self) -> &'static str {
        "std::thread in sim code introduces OS-scheduler nondeterminism; use Sim::spawn tasks"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        let toks = &ctx.flat;
        for (i, tok) in toks.iter().enumerate() {
            let FlatTok::Ident(name, span) = tok else {
                continue;
            };
            // Matched as paths, not bare idents: `simnet` exports its own
            // (simulated-task) `spawn` and `JoinHandle`, which are the
            // *correct* spellings — only the `std::thread` forms are banned.
            // `std::thread` is matched from its second segment (`thread`
            // preceded by `std ::`) so that *every* member — `spawn`,
            // `scope`, `Builder`, `available_parallelism` — is caught, not
            // just the spellings that happen to start a two-segment path.
            let after_std = i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("std");
            let hit = name == "thread" && (after_std || path_at(toks, i, &["thread", "spawn"]));
            if hit {
                report(
                    ctx,
                    *span,
                    self.name(),
                    "`std::thread` in simulation-scope code; express concurrency as `Sim::spawn` tasks".to_owned(),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unseeded-rng
// ---------------------------------------------------------------------------

/// Any RNG whose seed comes from the environment (OS entropy, thread-local
/// state) makes two runs diverge by construction. Randomness in simulations
/// must flow from an explicit, logged seed (`seed_from_u64`, a fixed seed
/// array, or the proptest harness's own seed plumbing).
struct UnseededRng;

const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
    "fastrand",
];

impl Rule for UnseededRng {
    fn name(&self) -> &'static str {
        "unseeded-rng"
    }

    fn summary(&self) -> &'static str {
        "environment-seeded RNGs (thread_rng/from_entropy/OsRng) diverge across runs; seed explicitly"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        let toks = &ctx.flat;
        for (i, tok) in toks.iter().enumerate() {
            let FlatTok::Ident(name, span) = tok else {
                continue;
            };
            let hit = RNG_IDENTS.contains(&name.as_str())
                || (name == "rand" && path_at(toks, i, &["rand", "random"]));
            if hit {
                report(
                    ctx,
                    *span,
                    self.name(),
                    format!("`{name}` draws entropy from the environment; construct RNGs from an explicit seed"),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// relaxed-atomics
// ---------------------------------------------------------------------------

/// `Ordering::Relaxed` permits reorderings that only show up under real
/// parallelism — exactly the regime sim code must never enter, so a Relaxed
/// atomic in sim scope is either dead weight or a latent race. The
/// single-threaded executor's observational counters carry explicit allows.
struct RelaxedAtomics;

impl Rule for RelaxedAtomics {
    fn name(&self) -> &'static str {
        "relaxed-atomics"
    }

    fn summary(&self) -> &'static str {
        "Ordering::Relaxed in sim scope hides latent races; use SeqCst or justify with an allow"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        for tok in &ctx.flat {
            if let FlatTok::Ident(name, span) = tok {
                if name == "Relaxed" {
                    report(
                        ctx,
                        *span,
                        self.name(),
                        "`Ordering::Relaxed` in simulation-scope code; use `SeqCst` (or justify the relaxation)"
                            .to_owned(),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// cross-shard-state
// ---------------------------------------------------------------------------

/// The sharded engine's only sanctioned cross-shard data path is the
/// deterministic merge channel (`ShardCtx::send` → per-`(src, dst, seq)`
/// ordered delivery): every event that crosses a shard boundary is
/// timestamped, sequence-numbered and merged in one fixed order. Shared
/// mutable state reachable from more than one shard — a lock type, or
/// interior mutability laundered through `Arc` — bypasses that merge
/// entirely, so mutation order depends on which worker thread gets there
/// first, which no digest can replay. (`Rc`/`RefCell` *within* one shard
/// are fine and idiomatic; shard roots must be `Send`, so the compiler
/// already keeps those from crossing. This rule guards the gap the type
/// system cannot see: `Send`-but-shared types.)
struct CrossShardState;

/// Lock types imply cross-thread mutation wherever they appear; the sim is
/// single-threaded per shard, so a lock in sim scope is either dead weight
/// or a merge bypass.
const LOCK_IDENTS: &[&str] = &["Mutex", "RwLock"];

/// Interior-mutability cells are only a hazard once something `Send`s them
/// across shards — which syntactically means an `Arc<…>` wrapper.
const CELL_IDENTS: &[&str] = &["Cell", "RefCell", "UnsafeCell"];

impl Rule for CrossShardState {
    fn name(&self) -> &'static str {
        "cross-shard-state"
    }

    fn summary(&self) -> &'static str {
        "locks and Arc-wrapped cells bypass the sharded engine's deterministic merge channels; cross-shard data rides ShardCtx::send"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        let toks = &ctx.flat;
        for (i, tok) in toks.iter().enumerate() {
            let FlatTok::Ident(name, span) = tok else {
                continue;
            };
            if LOCK_IDENTS.contains(&name.as_str()) {
                report(
                    ctx,
                    *span,
                    self.name(),
                    format!(
                        "`{name}` in simulation-scope code: cross-shard mutation must flow through \
                         the deterministic merge channels (`ShardCtx::send`), not shared locks"
                    ),
                    out,
                );
            } else if name == "Arc" && toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
                self.scan_arc_args(ctx, toks, i + 1, out);
            }
        }
    }
}

impl CrossShardState {
    /// Walk the angle-bracketed argument list starting at `open` (the `<`
    /// after `Arc`) looking for laundered interior mutability:
    /// `Arc<RefCell<_>>`, `Arc<Vec<Cell<_>>>`, …. Nested `()`/`[]`/`{}`
    /// groups are skipped whole (closure-trait arguments aren't shard
    /// state), and a `>` that is really the tail of a `->` arrow does not
    /// close the list.
    fn scan_arc_args(
        &self,
        ctx: &FileContext,
        toks: &[FlatTok],
        open: usize,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut depth = 0i32;
        let mut j = open;
        while j < toks.len() {
            match &toks[j] {
                FlatTok::Punct('<', _) => depth += 1,
                FlatTok::Punct('>', _) => {
                    let arrow = j > 0 && toks[j - 1].is_punct('-');
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return;
                        }
                    }
                }
                // A statement boundary means this `<` was a comparison
                // after all, not a generic-argument list.
                FlatTok::Punct(';', _) => return,
                FlatTok::Open(..) => {
                    j = skip_group(toks, j);
                    continue;
                }
                FlatTok::Ident(inner, inner_span) if CELL_IDENTS.contains(&inner.as_str()) => {
                    report(
                        ctx,
                        *inner_span,
                        self.name(),
                        format!(
                            "`Arc<{inner}<_>>`-shaped state in simulation-scope code smuggles interior \
                             mutability across the `Send` boundary between shards; shard-crossing data \
                             must ride the deterministic merge channels (`ShardCtx::send`)"
                        ),
                        out,
                    );
                }
                _ => {}
            }
            j += 1;
        }
    }
}
