//! Pass 2a/2b of the dataflow engine: interprocedural nondeterminism taint
//! and the hot-path panic audit, both over the [`crate::graph::Index`].
//!
//! **Taint** (`taint-through-call`): a function is *tainted* when its body
//! reads a nondeterminism source directly, or when it calls a tainted
//! function. Propagation is a fixed-point worklist over reversed call
//! edges — monotone (taint only ever grows) over a finite lattice, so it
//! terminates even through recursion and call cycles. A finding is emitted
//! for every *sink* site inside a tainted function whose file lies in
//! [`crate::SIM_SCOPE`]; the message carries the shortest witness chain
//! from the sink's function back to a source so the report reads as a
//! story, not a flag.
//!
//! **Panic paths** (`panic-path`): breadth-first reachability from the
//! fabric transfer entry points ([`crate::graph::HOT_PATH_ENTRIES`]) along
//! forward call edges; every `.unwrap()` in a reached sim-scope function is
//! flagged with its shortest entry chain. The fix is mechanical — state the
//! invariant in an `expect`, or justify with an allow — which is exactly
//! why it belongs in a lint and not in review comments.
//!
//! Messages deliberately contain **no line numbers** — the diagnostic's
//! own anchor carries them — so a finding's text does not shift with every
//! unrelated edit above it.

use crate::graph::{FnNode, Index, HOT_PATH_ENTRIES};
use crate::{in_sim_scope, Diagnostic};

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Workspace-relative display path for messages and fingerprints.
fn rel_display(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
}

/// Per-function taint fact: how the taint got here.
#[derive(Debug, Clone)]
struct TaintFact {
    /// The original source description (e.g. "wall-clock read (`Instant`)").
    source: String,
    /// Call chain from this function down to the source's function,
    /// innermost last: `["transfer", "stamp"]` means `transfer` calls
    /// `stamp`, which reads the source.
    chain: Vec<String>,
}

/// Run the interprocedural taint pass; append findings to `diags`.
pub fn taint_pass(root: &Path, index: &Index, diags: &mut Vec<Diagnostic>) {
    // Fact per function index; first fact wins (BFS order ⇒ shortest chain).
    let mut facts: BTreeMap<usize, TaintFact> = BTreeMap::new();
    let mut worklist: VecDeque<usize> = VecDeque::new();

    for (i, f) in index.fns.iter().enumerate() {
        if let Some(src) = f.sources.first() {
            facts.insert(
                i,
                TaintFact {
                    source: src.what.clone(),
                    chain: vec![f.name.clone()],
                },
            );
            worklist.push_back(i);
        }
    }

    // Reverse edges: callee index → caller indices. Built once; name-keyed
    // resolution means one call site may fan out to several definitions.
    let mut callers: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, f) in index.fns.iter().enumerate() {
        for call in &f.calls {
            for &def in index.defs(&call.callee) {
                callers.entry(def).or_default().push(i);
            }
        }
    }

    while let Some(i) = worklist.pop_front() {
        let fact = facts[&i].clone();
        for &caller in callers.get(&i).map_or(&[][..], Vec::as_slice) {
            if facts.contains_key(&caller) {
                continue; // already tainted: fixed point for this node
            }
            let mut chain = vec![index.fns[caller].name.clone()];
            chain.extend(fact.chain.iter().cloned());
            facts.insert(
                caller,
                TaintFact {
                    source: fact.source.clone(),
                    chain,
                },
            );
            worklist.push_back(caller);
        }
    }

    for (i, f) in index.fns.iter().enumerate() {
        let Some(fact) = facts.get(&i) else { continue };
        if f.sinks.is_empty() || !in_sim_scope(root, &f.file) {
            continue;
        }
        let via = if fact.chain.len() > 1 {
            format!(" via `{}`", fact.chain.join("` -> `"))
        } else {
            String::new()
        };
        for sink in &f.sinks {
            diags.push(Diagnostic {
                file: f.file.clone(),
                line: sink.line,
                column: sink.column,
                rule: "taint-through-call",
                message: format!(
                    "{} reaches {} in `{}` ({}){}",
                    fact.source,
                    sink.what,
                    f.name,
                    rel_display(root, &f.file),
                    via
                ),
            });
        }
    }
}

/// Run the hot-path panic audit; append findings to `diags`.
pub fn panic_pass(root: &Path, index: &Index, diags: &mut Vec<Diagnostic>) {
    // BFS from every hot-path entry simultaneously; `parent` reconstructs
    // one shortest chain entry → function for the message.
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for entry in HOT_PATH_ENTRIES {
        for &i in index.defs(entry) {
            // Entry points only count where the fabric lives: a fixture or
            // bench helper named `transfer` must not seed the walk.
            if in_sim_scope(root, &index.fns[i].file) && !parent.contains_key(&i) {
                parent.insert(i, None);
                queue.push_back(i);
            }
        }
    }
    while let Some(i) = queue.pop_front() {
        for call in &index.fns[i].calls {
            for &def in index.defs(&call.callee) {
                if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(def) {
                    slot.insert(Some(i));
                    queue.push_back(def);
                }
            }
        }
    }

    for &i in parent.keys() {
        let f: &FnNode = &index.fns[i];
        if f.unwraps.is_empty() || !in_sim_scope(root, &f.file) {
            continue;
        }
        let chain = chain_to(index, &parent, i);
        let via = if chain.len() > 1 {
            format!(" (reached via `{}`)", chain.join("` -> `"))
        } else {
            String::new()
        };
        for u in &f.unwraps {
            diags.push(Diagnostic {
                file: f.file.clone(),
                line: u.line,
                column: u.column,
                rule: "panic-path",
                message: format!(
                    "bare `.unwrap()` in `{}` ({}) is reachable from a fabric transfer \
                     hot path{}; state the invariant with `.expect(\"..\")` or justify \
                     with `simlint: allow(panic-path) -- reason`",
                    f.name,
                    rel_display(root, &f.file),
                    via
                ),
            });
        }
    }
}

/// Reconstruct the entry → `i` call chain from BFS parents, outermost first.
fn chain_to(index: &Index, parent: &BTreeMap<usize, Option<usize>>, i: usize) -> Vec<String> {
    let mut chain = vec![index.fns[i].name.clone()];
    let mut cur = i;
    while let Some(Some(p)) = parent.get(&cur) {
        chain.push(index.fns[*p].name.clone());
        cur = *p;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_index;
    use std::path::PathBuf;

    fn run_taint(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let owned: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_owned()))
            .collect();
        let mut diags = Vec::new();
        let index = build_index(&owned, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        taint_pass(Path::new(""), &index, &mut diags);
        diags
    }

    #[test]
    fn taint_crosses_one_call_indirection() {
        let diags = run_taint(&[
            (
                "crates/simnet/src/a.rs",
                "fn hot(sim: &Sim) { let t = stamp(); sim.sleep(t); }\n",
            ),
            (
                "crates/simnet/src/b.rs",
                "fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "taint-through-call");
        assert!(
            diags[0].message.contains("`hot` -> `stamp`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn taint_fixed_point_terminates_on_mutual_recursion() {
        let diags = run_taint(&[(
            "crates/simnet/src/r.rs",
            "fn ping(sim: &Sim) { pong(sim); sim.spawn(f); }\n\
             fn pong(sim: &Sim) { ping(sim); }\n\
             fn seed() -> u32 { getrandom() }\n\
             fn root(sim: &Sim) { seed(); ping(sim); }\n",
        )]);
        // `ping` has the only sink; it is tainted via root? No — taint flows
        // callee → caller, and ping never *calls* a tainted fn (seed is
        // called by root, not by ping). So no findings, and no hang.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn taint_through_cycle_reaches_sink() {
        let diags = run_taint(&[(
            "crates/simnet/src/c.rs",
            "fn a(sim: &Sim) { b(sim); sim.spawn(f); }\n\
             fn b(sim: &Sim) { a(sim); c(); }\n\
             fn c() -> u32 { getrandom() }\n",
        )]);
        // a -> b -> c(source); a holds the sink.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("getrandom"));
    }

    #[test]
    fn sinks_outside_sim_scope_are_ignored() {
        let diags = run_taint(&[(
            "crates/bench/src/main.rs",
            "fn timed(sim: &Sim) { let t = Instant::now(); sim.sleep(t); }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn panic_path_flags_reachable_unwrap_only() {
        let files: Vec<(PathBuf, String)> = vec![(
            PathBuf::from("crates/iwarp/src/x.rs"),
            "fn transfer(&self) { deliver(self); }\n\
                 fn deliver(x: &X) { x.q.pop().unwrap(); }\n\
                 fn unrelated(x: &X) { x.q.pop().unwrap(); }\n"
                .to_owned(),
        )];
        let mut diags = Vec::new();
        let index = build_index(&files, &mut diags);
        panic_pass(Path::new(""), &index, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-path");
        assert!(
            diags[0].message.contains("`transfer` -> `deliver`"),
            "{}",
            diags[0].message
        );
    }
}
