//! Order statistics and bit-exact hashing for the harness's reports.

/// Median of the samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile, `p` in `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Interquartile range as a share of the median, the way the benchmark's
/// acceptance rule computes it (`statistics.quantiles(values, n=4)`,
/// exclusive method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| -> f64 {
        // Position k(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (quantile(3) - quantile(1)) / median(&v)
}

/// FNV-1a over the bit patterns of a float slice: equal hashes mean
/// bit-identical vectors (up to hash collision), which is what the
/// determinism probe compares between processes.
pub fn hash_f64(values: &[f64]) -> u64 {
    hash_u64(values.iter().map(|v| v.to_bits()))
}

pub fn hash_u64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn hash_sees_single_bit_changes() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(hash_f64(&a), hash_f64(&b));
        assert_eq!(hash_f64(&a), hash_f64(&[1.0, 2.0, 3.0]));
    }
}
