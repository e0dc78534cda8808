//! Which transfer tier a simulation runs [`crate::Pipeline`] transfers on.
//!
//! A transfer longer than one pacing chunk takes the per-segment walk, the
//! cut-through fast path (the walk replayed in closed form when every
//! stage is idle), or the fast path with its plans replayed from the
//! whole-transfer memo ([`crate::memo`]). The tiers differ in host time
//! only: `figures all` reproduces the committed results on each.

use std::cell::Cell;

/// A transfer tier, from the slowest to the fastest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The per-segment walk only.
    Walk,
    /// The cut-through fast path, each plan computed afresh.
    Fast,
    /// The fast path, with plans replayed from the memo (the default).
    Memo,
}

impl Tier {
    /// The tier named `walk`, `fast` or `memo`.
    pub fn parse(name: &str) -> Option<Tier> {
        match name {
            "walk" => Some(Tier::Walk),
            "fast" => Some(Tier::Fast),
            "memo" => Some(Tier::Memo),
            _ => None,
        }
    }
}

thread_local! {
    /// The tier [`Sim`]s this thread creates start on: [`Tier::Memo`]
    /// unless [`set_default_tier`] chose another. Per thread, like the
    /// tie-break salt ([`crate::perturb`]): a `Sim` never leaves the thread
    /// that built it, and one thread's setting never reaches another's runs.
    ///
    /// [`Sim`]: crate::Sim
    static DEFAULT: Cell<Tier> = const { Cell::new(Tier::Memo) };
}

/// Set this thread's default tier, captured by each [`Sim::new`] on it. Safe
/// to change between runs because the tier never changes simulation output
/// ([`crate::Sim::set_fast_path`] and [`crate::Sim::set_transfer_memo`]
/// override per simulation, and a tie-break salt keeps the fast path off
/// whatever the tier). A caller that runs simulations on worker threads
/// hands each worker its setting.
///
/// [`Sim::new`]: crate::Sim::new
pub fn set_default_tier(tier: Tier) {
    DEFAULT.set(tier);
}

/// This thread's default tier.
pub fn default_tier() -> Tier {
    DEFAULT.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_tier_round_trips_and_reaches_new_sims() {
        assert_eq!(default_tier(), Tier::Memo);
        for (tier, fast, memo) in [
            (Tier::Walk, false, false),
            (Tier::Fast, true, false),
            (Tier::Memo, true, true),
        ] {
            set_default_tier(tier);
            assert_eq!(default_tier(), tier);
            let sim = crate::Sim::new();
            assert_eq!(
                (sim.fast_path_enabled(), sim.transfer_memo_enabled()),
                (fast, memo),
                "{tier:?}"
            );
        }
        assert_eq!(
            [Tier::Walk, Tier::Fast, Tier::Memo]
                .map(|t| Tier::parse(&format!("{t:?}").to_lowercase())),
            [Some(Tier::Walk), Some(Tier::Fast), Some(Tier::Memo)]
        );
        assert_eq!(Tier::parse("no-memo"), None);
    }
}
