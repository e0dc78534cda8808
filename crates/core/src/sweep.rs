//! Message-size sweeps and iteration budgets shared by the generators.

/// Power-of-two sizes from `lo` to `hi` inclusive.
pub(crate) fn pow2_sizes(lo: u64, hi: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = lo.max(1);
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// The paper's full latency/bandwidth sweep: 1 B – 4 MB.
pub fn paper_sizes() -> Vec<u64> {
    pow2_sizes(1, 4 << 20)
}

/// Iterations per size: enough for stable means, scaled down for large
/// messages so simulated event counts stay bounded.
pub fn iters_for(size: u64) -> u64 {
    match size {
        0..=4096 => 40,
        4097..=65536 => 20,
        65537..=1048576 => 8,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_sweep_covers_range() {
        let v = pow2_sizes(1, 16);
        assert_eq!(v, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn paper_sweep_ends_at_4mb() {
        let v = paper_sizes();
        assert_eq!(*v.first().unwrap(), 1);
        assert_eq!(*v.last().unwrap(), 4 << 20);
        assert_eq!(v.len(), 23);
    }

    #[test]
    fn iteration_budget_shrinks_with_size() {
        assert!(iters_for(64) > iters_for(1 << 20));
        assert!(iters_for(4 << 20) >= 2);
    }
}
