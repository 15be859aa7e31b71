//! Order statistics and the output digest.

/// How many of `n` samples sit at or below the nearest-rank percentile
/// given in tenths of a percent (`permille` 900 is p90). Integer
/// arithmetic, so p99.9 of 10 000 samples is exactly rank 9990.
fn rank(permille: u32, n: usize) -> usize {
    (u64::from(permille) * n as u64).div_ceil(1000) as usize
}

/// The nearest-rank percentile of `sorted`, in tenths of a percent
/// (`permille` 500 is the median): the smallest sample with at least
/// that share of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], permille: u32) -> Option<f64> {
    let r = rank(permille, sorted.len()).clamp(1, sorted.len().max(1));
    sorted.get(r - 1).copied()
}

/// Percentiles a tail can be reported at, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples strictly beyond it, so the tail it names rests on
/// more than a handful of observations. `None` below 20 samples, where
/// not even the median has ten samples above it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// FNV-1a, 64-bit: a dependency-free digest of the run's simulated
/// outputs. Equal inputs give equal digests on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value`: every counter struct in
    /// the pipeline derives `Debug`, and its rendering is a pure
    /// function of the fields.
    pub fn debug<T: std::fmt::Debug>(&mut self, value: &T) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(b";");
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(5.0));
        assert_eq!(percentile(&v, 900), Some(9.0));
        assert_eq!(percentile(&v, 1000), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(99), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        for n in [20, 57, 100, 345, 1000, 12_345] {
            let p = tail_percentile(n).expect("enough samples");
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&sorted, p).expect("non-empty");
            let beyond = sorted.iter().filter(|&&x| x > at).count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.debug(&(1u64, 2u64));
        let mut b = Digest::default();
        b.debug(&(2u64, 1u64));
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.debug(&(1u64, 2u64));
        assert_eq!(a, c);
        assert_eq!(Digest::default().hex().len(), 16);
    }
}
