//! Deterministic, seeded fault injection for [`Pipe`]/[`Pipeline`] traffic.
//!
//! A [`FaultPlane`] decides, per transfer unit (segment, packet or message —
//! whatever granularity the fabric judges at), whether that unit is
//! delivered, dropped or delayed. Decisions come from a
//! **counter-based PRNG**: the n-th judgement on stream `s` hashes
//! `(seed, s, n)` through a SplitMix64 finalizer and compares the result
//! against fixed-point parts-per-million thresholds. No wall-clock, no
//! ambient RNG state, no iteration-order dependence — the decision sequence
//! for a stream is a pure function of `(seed, stream)` and is therefore
//! bit-identical across runs, threads and replays (clean under clippy.toml's
//! determinism bans by construction).
//!
//! The plane is **off by default**: [`FaultPlane::disabled`] (also
//! `Default`) carries no state at all, and [`FaultPlane::judge`] on a
//! disabled plane is a single `Option` check returning
//! [`FaultDecision::Deliver`] with zero side effects — simulations with the
//! plane disabled are bit-identical to simulations built before the plane
//! existed.
//!
//! Rates are expressed in **parts per million** rather than floating point
//! so that threshold comparisons are exact integer arithmetic (no FP
//! rounding to vary across platforms, and no `float_cmp` exceptions).
//! The paper-style loss rates map as 1e-4 → 100 ppm, 1e-3 → 1 000 ppm,
//! 1e-2 → 10 000 ppm.
//!
//! [`Pipe`]: crate::Pipe
//! [`Pipeline`]: crate::Pipeline

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::executor::Sim;
use crate::time::SimDuration;

/// One million: the denominator of all fault rates.
pub(crate) const PPM: u32 = 1_000_000;

/// Fault-plane configuration. All rates are parts-per-million of judged
/// transfer units; they are applied in drop → delay priority from a single
/// uniform draw, so `drop_ppm + delay_ppm` must not exceed one million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability (ppm) that a judged unit is lost: dropped in flight, or
    /// discarded by the receiver's integrity check, which recovery cannot
    /// tell apart.
    pub drop_ppm: u32,
    /// Probability (ppm) that a judged unit is delayed by [`delay`].
    ///
    /// [`delay`]: FaultConfig::delay
    pub delay_ppm: u32,
    /// Extra latency applied to a delayed unit.
    pub delay: SimDuration,
    /// PRNG seed. Two planes with equal `(seed, rates)` produce identical
    /// decision sequences for equal stream ids.
    pub seed: u64,
}

impl FaultConfig {
    /// A pure loss configuration: drop at `drop_ppm`, nothing else.
    pub fn loss(drop_ppm: u32, seed: u64) -> Self {
        FaultConfig {
            drop_ppm,
            delay_ppm: 0,
            delay: SimDuration::ZERO,
            seed,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::loss(0, 0)
    }
}

/// The outcome of judging one transfer unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The unit goes through untouched.
    Deliver,
    /// The unit never reaches the receiver intact.
    Drop,
    /// The unit is delivered after an extra [`FaultConfig::delay`].
    Delay,
}

struct PlaneState {
    config: FaultConfig,
    /// Per-stream judgement counters — the "n" of the counter-based PRNG.
    /// `BTreeMap` (not `HashMap`) so any debugging iteration is ordered.
    counters: BTreeMap<u64, u64>,
}

/// A shared, clonable fault plane. Clones share state: the per-stream
/// counters advance globally, so a QP and the fabric that created it see
/// one decision sequence per stream, not two.
#[derive(Clone, Default)]
pub struct FaultPlane {
    inner: Option<Rc<RefCell<PlaneState>>>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlane(disabled)"),
            Some(s) => write!(f, "FaultPlane({:?})", s.borrow().config),
        }
    }
}

/// SplitMix64 finalizer: a strong 64-bit mix, standard constants.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlane {
    /// The inert plane: every judgement is [`FaultDecision::Deliver`], no
    /// state is touched, no counters advance. This is the default for every
    /// fabric.
    pub fn disabled() -> Self {
        FaultPlane { inner: None }
    }

    /// An active plane with the given configuration.
    ///
    /// # Panics
    /// If the configured rates sum to more than one million.
    pub fn new(config: FaultConfig) -> Self {
        let total = u64::from(config.drop_ppm) + u64::from(config.delay_ppm);
        assert!(
            total <= u64::from(PPM),
            "fault rates sum to {total} ppm > {PPM}"
        );
        FaultPlane {
            inner: Some(Rc::new(RefCell::new(PlaneState {
                config,
                counters: BTreeMap::new(),
            }))),
        }
    }

    /// Whether this plane can ever inject a fault. Recovery engines branch
    /// on this once and take the legacy code path verbatim when `false`.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured extra latency for [`FaultDecision::Delay`] outcomes
    /// ([`SimDuration::ZERO`] on a disabled plane).
    pub fn delay(&self) -> SimDuration {
        match &self.inner {
            Some(s) => s.borrow().config.delay,
            None => SimDuration::ZERO,
        }
    }

    /// Judge the next transfer unit on `stream`. Advances that stream's
    /// counter and bumps [`SimStats::faults_injected`] on any non-`Deliver`
    /// outcome. On a disabled plane this is a branch and a return.
    ///
    /// [`SimStats::faults_injected`]: crate::SimStats::faults_injected
    pub fn judge(&self, sim: &Sim, stream: u64) -> FaultDecision {
        let Some(state) = &self.inner else {
            return FaultDecision::Deliver;
        };
        let decision = {
            let mut st = state.borrow_mut();
            let n = st.counters.entry(stream).or_insert(0);
            let count = *n;
            *n += 1;
            let c = st.config;
            // Counter-based draw: mix (seed, stream, counter) into a uniform
            // u32 in [0, PPM). Each input gets its own SplitMix64 round so
            // streams differing in one field decorrelate fully.
            let h = splitmix64(
                splitmix64(c.seed)
                    .wrapping_add(splitmix64(stream))
                    .wrapping_add(count),
            );
            let draw = u32::try_from(h % u64::from(PPM)).expect("a draw below PPM fits in u32");
            if draw < c.drop_ppm {
                FaultDecision::Drop
            } else if draw < c.drop_ppm + c.delay_ppm {
                FaultDecision::Delay
            } else {
                FaultDecision::Deliver
            }
        };
        if decision != FaultDecision::Deliver {
            sim.note_fault_injected();
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_always_delivers_and_touches_nothing() {
        let sim = Sim::new();
        let plane = FaultPlane::disabled();
        assert!(!plane.enabled());
        for s in 0..4u64 {
            for _ in 0..1000 {
                assert_eq!(plane.judge(&sim, s), FaultDecision::Deliver);
            }
        }
        assert_eq!(sim.stats().faults_injected, 0);
        assert_eq!(plane.delay(), SimDuration::ZERO);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!FaultPlane::default().enabled());
    }

    #[test]
    fn decision_sequence_is_deterministic_and_shared_across_clones() {
        let sim = Sim::new();
        let cfg = FaultConfig {
            drop_ppm: 300_000,
            delay_ppm: 100_000,
            delay: SimDuration::from_micros(3),
            seed: 42,
        };
        let a = FaultPlane::new(cfg);
        let b = FaultPlane::new(cfg);
        let seq_a: Vec<FaultDecision> = (0..256).map(|_| a.judge(&sim, 7)).collect();
        let seq_b: Vec<FaultDecision> = (0..256).map(|_| b.judge(&sim, 7)).collect();
        assert_eq!(seq_a, seq_b, "same (seed, stream, counter) => same draw");

        // A clone shares the counter: interleaving a plane with its clone
        // walks one sequence, not two copies of it.
        let c = FaultPlane::new(cfg);
        let c2 = c.clone();
        let interleaved: Vec<FaultDecision> = (0..256)
            .map(|i| {
                if i % 2 == 0 {
                    c.judge(&sim, 7)
                } else {
                    c2.judge(&sim, 7)
                }
            })
            .collect();
        assert_eq!(interleaved, seq_a);
    }

    #[test]
    fn streams_are_independent() {
        let sim = Sim::new();
        let cfg = FaultConfig::loss(500_000, 9);
        let a = FaultPlane::new(cfg);
        let seq7: Vec<FaultDecision> = (0..128).map(|_| a.judge(&sim, 7)).collect();
        // Judging stream 8 in between must not perturb stream 7's sequence.
        let b = FaultPlane::new(cfg);
        let mut seq7_again = Vec::new();
        for _ in 0..128 {
            b.judge(&sim, 8);
            seq7_again.push(b.judge(&sim, 7));
        }
        assert_eq!(seq7, seq7_again);
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let sim = Sim::new();
        // 1% drop over 100k draws: expect ~1000, allow a generous window.
        let plane = FaultPlane::new(FaultConfig::loss(10_000, 1234));
        let drops = (0..100_000)
            .filter(|_| plane.judge(&sim, 1) == FaultDecision::Drop)
            .count();
        assert!(
            (600..1500).contains(&drops),
            "1% loss over 100k draws gave {drops} drops"
        );
        assert_eq!(sim.stats().faults_injected, drops as u64);
    }

    #[test]
    fn priority_order_is_drop_delay() {
        let sim = Sim::new();
        // All mass on drop: no delays possible.
        let all_drop = FaultPlane::new(FaultConfig {
            drop_ppm: PPM,
            delay_ppm: 0,
            delay: SimDuration::from_micros(1),
            seed: 5,
        });
        // All mass on delay: no drops possible.
        let all_delay = FaultPlane::new(FaultConfig {
            drop_ppm: 0,
            delay_ppm: PPM,
            delay: SimDuration::from_micros(1),
            seed: 5,
        });
        for _ in 0..64 {
            assert_eq!(all_drop.judge(&sim, 0), FaultDecision::Drop);
            assert_eq!(all_delay.judge(&sim, 0), FaultDecision::Delay);
        }
        // A split plane draws drops below `drop_ppm` and delays above it,
        // from the same draw: the two rates partition the mass.
        let split = FaultPlane::new(FaultConfig {
            drop_ppm: PPM / 2,
            delay_ppm: PPM / 2,
            delay: SimDuration::from_micros(1),
            seed: 5,
        });
        let seq: Vec<FaultDecision> = (0..256).map(|_| split.judge(&sim, 0)).collect();
        assert!(seq.contains(&FaultDecision::Drop));
        assert!(seq.contains(&FaultDecision::Delay));
        assert!(!seq.contains(&FaultDecision::Deliver));
    }

    #[test]
    #[should_panic(expected = "fault rates sum")]
    fn overcommitted_rates_panic() {
        let _ = FaultPlane::new(FaultConfig {
            drop_ppm: PPM,
            delay_ppm: 1,
            delay: SimDuration::ZERO,
            seed: 0,
        });
    }
}
