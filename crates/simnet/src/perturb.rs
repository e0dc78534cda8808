//! Schedule-perturbation harness: replay a workload with permuted
//! tie-breaks among simultaneously-ready events.
//!
//! The executor's production contract is that timers sharing a deadline
//! fire in arm order (`(deadline, armed, seq)` heap order). That contract is what
//! every model above the executor was validated against — but it also means
//! a model could *accidentally* depend on it in ways the determinism tests
//! can never see, because the tie-break is itself deterministic. This
//! module is the dynamic analogue of clippy.toml's `HashMap` ban: it
//! perturbs exactly the orderings the simulation is supposed to be
//! indifferent to, and nothing else.
//!
//! [`with_tie_break_salt`] installs a thread-local salt; every [`Sim`]
//! *created* while it is set scrambles same-instant tie-breaks with an
//! injective mix of the arm sequence (deadline order is untouched, so
//! virtual time never runs backwards). The executor records an
//! event-ordering trace digest ([`Sim::order_trace_digest`]) over fired
//! `(deadline, seq)` pairs: a salt that reordered a tie group changes the
//! trace digest, and a correct model still produces byte-identical results
//! — the determinism suite asserts figure digests are invariant under
//! perturbed replay.
//!
//! A nonzero salt also disables the pipeline cut-through fast path for
//! those `Sim`s: the fast path replays *arm-order* tie-breaks in closed
//! form and would otherwise disagree with the perturbed heap.
//!
//! # Example
//!
//! ```
//! use simnet::{perturb, Sim};
//!
//! let baseline = Sim::new();
//! assert_eq!(baseline.tie_break_salt(), 0);
//! let perturbed = perturb::with_tie_break_salt(0x5EED, Sim::new);
//! assert_eq!(perturbed.tie_break_salt(), 0x5EED);
//! // Outside the closure new Sims are unperturbed again.
//! assert_eq!(Sim::new().tie_break_salt(), 0);
//! ```

#[cfg(doc)]
use crate::Sim;
use std::cell::Cell;

thread_local! {
    static TIE_SALT: Cell<u64> = const { Cell::new(0) };
}

/// The salt new [`Sim`]s on this thread will capture (0 = unperturbed).
pub(crate) fn current_salt() -> u64 {
    TIE_SALT.with(Cell::get)
}

/// Run `f` with the thread's tie-break salt set to `salt`, restoring the
/// previous value afterwards (including on unwind). Only [`Sim`]s *created*
/// inside `f` are affected; the salt is captured at `Sim::new`.
pub fn with_tie_break_salt<T>(salt: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIE_SALT.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(TIE_SALT.with(|s| s.replace(salt)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Arm `n` timers for the same instant and record the order their
    /// continuations ran in; returns `(order, trace_digest, end_time)`.
    fn run_tied(n: u64, salt: u64) -> (Vec<u64>, u64, SimTime) {
        let mk = || {
            let sim = Sim::new();
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..n {
                let sim2 = sim.clone();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    sim2.sleep(SimDuration::from_micros(10)).await;
                    order.borrow_mut().push(i);
                });
            }
            let end = sim.run_until_quiescent();
            let got = order.borrow().clone();
            (got, sim.order_trace_digest(), end)
        };
        if salt == 0 {
            mk()
        } else {
            with_tie_break_salt(salt, mk)
        }
    }

    #[test]
    fn salt_zero_preserves_arm_order() {
        let (order, _, _) = run_tied(8, 0);
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn salt_permutes_ties_but_preserves_time_and_event_set() {
        let (base_order, base_digest, base_end) = run_tied(8, 0);
        let (salt_order, salt_digest, salt_end) = run_tied(8, 0x9E37_79B9);
        // Same events, same virtual end time...
        assert_eq!(salt_end, base_end);
        let mut sorted = salt_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base_order);
        // ...but a genuinely different firing order, visible in the trace.
        assert_ne!(
            salt_order, base_order,
            "salt failed to permute the tie group"
        );
        assert_ne!(salt_digest, base_digest);
    }

    #[test]
    fn same_salt_replays_identically() {
        let a = run_tied(8, 0xD6E8_FEB8_6659_FD93);
        let b = run_tied(8, 0xD6E8_FEB8_6659_FD93);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_deadlines_are_never_reordered() {
        // Timers at distinct instants must fire in deadline order no matter
        // the salt.
        let run = |salt: u64| {
            let mk = || {
                let sim = Sim::new();
                let order = Rc::new(RefCell::new(Vec::new()));
                for i in 0..6u64 {
                    let sim2 = sim.clone();
                    let order = Rc::clone(&order);
                    sim.spawn(async move {
                        // Arm in reverse deadline order to make the heap work.
                        sim2.sleep(SimDuration::from_micros(60 - 10 * i)).await;
                        order.borrow_mut().push(i);
                    });
                }
                sim.run_until_quiescent();
                let got = order.borrow().clone();
                got
            };
            if salt == 0 {
                mk()
            } else {
                with_tie_break_salt(salt, mk)
            }
        };
        let want = vec![5, 4, 3, 2, 1, 0];
        assert_eq!(run(0), want);
        assert_eq!(run(0xABCD_EF01), want);
    }

    #[test]
    fn salt_disables_pipeline_fast_path() {
        assert!(Sim::new().fast_path_enabled());
        let sim = with_tie_break_salt(7, Sim::new);
        assert!(!sim.fast_path_enabled());
    }

    #[test]
    fn salt_scope_restores_on_exit() {
        assert_eq!(current_salt(), 0);
        let inner = with_tie_break_salt(42, || {
            assert_eq!(current_salt(), 42);
            with_tie_break_salt(7, current_salt)
        });
        assert_eq!(inner, 7);
        assert_eq!(current_salt(), 0);
    }
}
