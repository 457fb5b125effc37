//! The benchmark's own statistics: nearest-rank percentiles, the tail
//! rule, and the report digest. Everything is integer arithmetic on
//! sorted samples, so a statistic of deterministic samples repeats
//! exactly.

/// Percentiles the tail rule may pick, lowest first.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile for it to count as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: the smallest rank whose share of samples at or below it is
/// at least `p`. `p` is taken to two decimals and the rank is computed
/// in integers, so no float rounding can shift it.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of a sorted slice; `None` when it is empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked from [`TAIL_LADDER`].
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: u64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank; `None` when even
/// the median does not.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&pct| (pct, rank(pct, n.max(1))))
        .find(|&(_, r)| n >= r + TAIL_MIN_BEYOND)
        .map(|(pct, r)| Tail {
            pct,
            value: sorted[r - 1],
            beyond: n - r,
            samples: n,
        })
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of one report text.
pub fn digest(text: &str) -> u64 {
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// Digest of a sequence of digests, order-sensitive.
pub fn digest_of(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 51.0), Some(6));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.1), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // even count: the lower middle, never an interpolated value
        assert_eq!(percentile(&[1, 100], 50.0), Some(1));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        // 20 samples: p50 leaves 10 beyond, p75 only 5
        let v: Vec<u64> = (1..=20).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10, 10));
        // 19 samples: not even the median has 10 beyond
        assert_eq!(tail(&v[..19]), None);
        // 100 samples: p90 has exactly 10 beyond, p95 only 5
        let v: Vec<u64> = (1..=100).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (90.0, 90, 10, 100));
        // 1000 samples: p99 has exactly 10 beyond
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v).unwrap().pct, 99.0);
        // 999 samples: p99's rank is 990, leaving 9 — fall back to p95
        assert_eq!(tail(&v[..999]).unwrap().pct, 95.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        // FNV-1a 64 reference vectors
        assert_eq!(digest(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest("foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(digest("{\"x\": 1}"), digest("{\"x\": 1}"));
        assert_ne!(digest("{\"x\": 1}"), digest("{\"x\": 2}"));
        assert_ne!(digest_of(&[1, 2]), digest_of(&[2, 1]));
        assert_eq!(digest_of(&[1, 2]), digest_of(&[1, 2]));
    }
}
