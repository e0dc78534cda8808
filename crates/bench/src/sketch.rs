//! Constant-memory streaming quantile sketch for per-flow latencies, plus
//! the workspace's single percentile definition (DESIGN.md §13).
//!
//! # The percentile definition
//!
//! Every percentile this workspace reports — the sketch's p50/p99/p999,
//! the fig-tail knee extraction, perfbench's `stats::nearest_rank` — uses
//! the **nearest-rank** definition: the q-quantile of N samples is the value
//! at rank `ceil(q·N)` (1-based) in sorted order, clamped to `[1, N]`.
//! No interpolation: the result is always an observed value (or, in the
//! sketch, the lower bound of the bin holding that rank). On small
//! samples this makes p999 degrade gracefully to the maximum instead of
//! extrapolating, and it keeps the sketch and any sort-based helper in
//! exact agreement about which sample a percentile names.
//!
//! # The sketch
//!
//! [`LatencySketch`] is a fixed-size log-linear histogram over integer
//! nanoseconds (the HDR-histogram binning): values 0–7 map to their own
//! bins; above that each power-of-two octave is split into 8 linear
//! sub-bins, so the bin width is at most 1/8 of the value — a ≤ 12.5 %
//! relative error bound at any magnitude up to `u64::MAX` ns. Memory is
//! O(bins) — a flat `[u64; 496]` — never O(samples), which is what lets
//! an open-loop run stream millions of flows through it. All arithmetic
//! is integer, so quantiles are platform- and insertion-order-invariant.

/// Direct bins for values 0–7, then 8 sub-bins per octave for octaves
/// 3..=63: `8 + 61*8 = 496`.
const DIRECT_BINS: usize = 8;
const SUB_BITS: u32 = 3;
const BIN_COUNT: usize = DIRECT_BINS + (64 - SUB_BITS as usize) * (1 << SUB_BITS);

/// Fixed-bin log-linear latency histogram with nearest-rank quantiles.
#[derive(Clone)]
pub struct LatencySketch {
    bins: Box<[u64; BIN_COUNT]>,
    count: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// An empty sketch. Allocates its full O(bins) footprint up front —
    /// recording never allocates again.
    pub fn new() -> Self {
        LatencySketch {
            bins: Box::new([0u64; BIN_COUNT]),
            count: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// The bin index of a nanosecond value.
    fn bin_of(ns: u64) -> usize {
        if ns < DIRECT_BINS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // >= SUB_BITS here
        let sub = (ns >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        DIRECT_BINS + ((octave - SUB_BITS) as usize) * (1 << SUB_BITS) + sub as usize
    }

    /// The smallest value mapping to `bin` — what a quantile reports for
    /// every sample in the bin (a ≤ 12.5 % underestimate at worst).
    fn bin_floor(bin: usize) -> u64 {
        if bin < DIRECT_BINS {
            return bin as u64;
        }
        let octave = SUB_BITS + ((bin - DIRECT_BINS) >> SUB_BITS) as u32;
        let sub = ((bin - DIRECT_BINS) & ((1 << SUB_BITS) - 1)) as u64;
        ((1 << SUB_BITS) + sub) << (octave - SUB_BITS)
    }

    /// Record one latency sample. O(1), allocation-free.
    pub fn record(&mut self, ns: u64) {
        self.bins[Self::bin_of(ns)] += 1;
        self.count += 1;
        if ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact minimum recorded value; 0 on an empty sketch.
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The exact maximum recorded value; 0 on an empty sketch.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The nearest-rank q-quantile (see the module docs): the floor of the
    /// bin holding rank `ceil(q·N)`, except the extremes, which report the
    /// exactly-tracked min/max. Returns 0 on an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // rank = ceil(q·N) clamped to [1, N], per the module definition.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max_ns;
        }
        let mut seen = 0u64;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The min is tracked exactly; never report below it.
                return Self::bin_floor(bin).max(self.min_ns);
            }
        }
        self.max_ns
    }

    /// Median (nearest-rank p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Number of bins — the sketch's whole memory footprint, independent
    /// of how many samples were recorded.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }
}

impl std::fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LatencySketch(n={}, p50={}ns, p99={}ns, max={}ns)",
            self.count,
            self.p50(),
            self.p99(),
            self.max_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_roundtrips_within_error_bound() {
        for ns in [0u64, 1, 7, 8, 9, 100, 1_000, 12_345, 1 << 20, u64::MAX] {
            let bin = LatencySketch::bin_of(ns);
            assert!(bin < BIN_COUNT, "{ns} -> bin {bin}");
            let floor = LatencySketch::bin_floor(bin);
            assert!(floor <= ns, "{ns}: floor {floor}");
            // The floor underestimates by at most 1/8 of the value.
            assert!(ns - floor <= ns / 8, "{ns}: floor {floor}");
            // Floors are exactly the bin boundary: they map to their bin.
            assert_eq!(LatencySketch::bin_of(floor), bin);
        }
    }

    #[test]
    fn bin_floors_are_monotone() {
        let mut prev = 0u64;
        for bin in 1..BIN_COUNT {
            let floor = LatencySketch::bin_floor(bin);
            assert!(floor > prev, "bin {bin}: {floor} <= {prev}");
            prev = floor;
        }
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut s = LatencySketch::new();
        // 1..=100 in scrambled order: quantiles must not care.
        for i in 0..100u64 {
            s.record((i * 37) % 100 + 1);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.min_ns(), 1);
        assert_eq!(s.max_ns(), 100);
        // Nearest-rank p50 of 1..=100 names sample 50; the sketch reports
        // its bin floor (48 in the log-linear layout).
        let exact = 50;
        let approx = s.p50();
        assert!(approx <= exact && exact - approx <= exact / 8, "{approx}");
        // p999 of 100 samples degrades to the max — by definition, not by
        // accident.
        assert_eq!(s.p999(), 100);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1, "rank clamps to 1");
    }

    #[test]
    fn memory_is_o_bins_not_o_samples() {
        let mut s = LatencySketch::new();
        let bins_before = s.bin_count();
        for i in 0..200_000u64 {
            s.record(i.wrapping_mul(0x9E37_79B9) % 10_000_000);
        }
        // Recording never grows the structure: same fixed bin array, no
        // per-sample storage anywhere.
        assert_eq!(s.bin_count(), bins_before);
        assert_eq!(s.bin_count(), BIN_COUNT);
        assert_eq!(s.count(), 200_000);
        assert_eq!(
            std::mem::size_of_val(&*s.bins),
            BIN_COUNT * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn quantiles_are_insertion_order_invariant() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000).collect();
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        for &v in &values {
            a.record(v);
        }
        for &v in values.iter().rev() {
            b.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "q={q}");
        }
    }
}
