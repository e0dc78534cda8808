//! Deterministic, seeded loss injection for [`Pipe`]/[`Pipeline`] traffic.
//!
//! A [`FaultPlane`] decides, per transfer unit (segment, packet or message —
//! whatever granularity the fabric judges at), whether that unit is lost.
//! Decisions come from a **counter-based PRNG**: the n-th judgement on
//! stream `s` hashes `(seed, s, n)` through a SplitMix64 finalizer and
//! compares the result against a fixed-point parts-per-million threshold.
//! No wall-clock, no ambient RNG state, no iteration-order dependence — the
//! decision sequence for a stream is a pure function of `(seed, stream)`
//! and is therefore bit-identical across runs, threads and replays (clean
//! under clippy.toml's determinism bans by construction).
//!
//! The plane is **off by default**: [`FaultPlane::disabled`] (also
//! `Default`) carries no state at all, and [`FaultPlane::judge`] on a
//! disabled plane is a single `Option` check returning `false` with zero
//! side effects — simulations with the plane disabled are bit-identical to
//! simulations built before the plane existed.
//!
//! The rate is expressed in **parts per million** rather than floating
//! point so that the threshold comparison is exact integer arithmetic (no
//! FP rounding to vary across platforms, and no `float_cmp` exceptions).
//! The paper-style loss rates map as 1e-4 → 100 ppm, 1e-3 → 1 000 ppm,
//! 1e-2 → 10 000 ppm.
//!
//! [`Pipe`]: crate::Pipe
//! [`Pipeline`]: crate::Pipeline

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::executor::Sim;

/// One million: the denominator of the loss rate.
pub(crate) const PPM: u32 = 1_000_000;

/// Fault-plane configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Probability (ppm, at most one million) that a judged unit is lost:
    /// dropped in flight, or discarded by the receiver's integrity check,
    /// which recovery cannot tell apart.
    pub drop_ppm: u32,
    /// PRNG seed. Two planes with equal `(seed, drop_ppm)` produce
    /// identical decision sequences for equal stream ids.
    pub seed: u64,
}

impl FaultConfig {
    /// Drop at `drop_ppm`, drawing from `seed`.
    pub fn loss(drop_ppm: u32, seed: u64) -> Self {
        FaultConfig { drop_ppm, seed }
    }
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
    /// The inert plane: no unit is ever lost, no state is touched, no
    /// counters advance. This is the default for every fabric.
    pub fn disabled() -> Self {
        FaultPlane { inner: None }
    }

    /// An active plane with the given configuration.
    ///
    /// # Panics
    /// If `drop_ppm` exceeds one million.
    pub fn new(config: FaultConfig) -> Self {
        assert!(
            config.drop_ppm <= PPM,
            "drop_ppm {} > {PPM}",
            config.drop_ppm
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

    /// Judge the next transfer unit on `stream`: `true` if it is lost.
    /// Advances that stream's counter and bumps
    /// [`SimStats::faults_injected`] on a loss. On a disabled plane this is
    /// a branch and a return.
    ///
    /// [`SimStats::faults_injected`]: crate::SimStats::faults_injected
    pub fn judge(&self, sim: &Sim, stream: u64) -> bool {
        let Some(state) = &self.inner else {
            return false;
        };
        let dropped = {
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
            draw < c.drop_ppm
        };
        if dropped {
            sim.note_fault_injected();
        }
        dropped
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
                assert!(!plane.judge(&sim, s));
            }
        }
        assert_eq!(sim.stats().faults_injected, 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!FaultPlane::default().enabled());
    }

    #[test]
    fn decision_sequence_is_deterministic_and_shared_across_clones() {
        let sim = Sim::new();
        let cfg = FaultConfig::loss(300_000, 42);
        let a = FaultPlane::new(cfg);
        let b = FaultPlane::new(cfg);
        let seq_a: Vec<bool> = (0..256).map(|_| a.judge(&sim, 7)).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.judge(&sim, 7)).collect();
        assert_eq!(seq_a, seq_b, "same (seed, stream, counter) => same draw");

        // A clone shares the counter: interleaving a plane with its clone
        // walks one sequence, not two copies of it.
        let c = FaultPlane::new(cfg);
        let c2 = c.clone();
        let interleaved: Vec<bool> = (0..256)
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
        let seq7: Vec<bool> = (0..128).map(|_| a.judge(&sim, 7)).collect();
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
        let drops = (0..100_000).filter(|_| plane.judge(&sim, 1)).count();
        assert!(
            (600..1500).contains(&drops),
            "1% loss over 100k draws gave {drops} drops"
        );
        assert_eq!(sim.stats().faults_injected, drops as u64);
    }

    #[test]
    fn first_verdicts_on_a_stream_match_the_pinned_draw() {
        // The draw-to-verdict mapping every loss stream (and so every lossy
        // figure byte) rests on: `x` is a drop.
        let sim = Sim::new();
        let plane = FaultPlane::new(FaultConfig::loss(300_000, 0xabad_5eed));
        let verdicts: String = (0..64)
            .map(|_| if plane.judge(&sim, 7) { 'x' } else { '.' })
            .collect();
        assert_eq!(
            verdicts,
            "..x..x....xx.x..x...xx....x...xx.xx..........x......x.x..x.x..xx"
        );
    }

    #[test]
    #[should_panic(expected = "drop_ppm 1000001 > 1000000")]
    fn overcommitted_rates_panic() {
        let _ = FaultPlane::new(FaultConfig::loss(PPM + 1, 0));
    }
}
