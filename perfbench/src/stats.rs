//! Order statistics for timing samples.

/// Sorts a sample in place (total order; NaN-free inputs assumed).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank quantile of a sorted sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of an unsorted sample: the mean of the two middle values for
/// an even count (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value of a sample (0 when empty). The gated CPU-time
/// metrics take the best operation of a run: on a shared host the same
/// work runs slower while neighbours load the shared caches and memory,
/// never faster than when they are quiet.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The tail percentile of a sorted sample under the ten-beyond rule:
/// the nearest-rank `q` quantile when at least ten samples lie beyond
/// it, otherwise the highest rank that still leaves ten beyond (the
/// lowest sample when there are ten or fewer). Returns the value and
/// the quantile actually reported (`rank / n`).
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    let n = sorted.len();
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n.saturating_sub(10)).max(1);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 beyond it.
        let s = ramp(2000);
        assert_eq!(tail(&s, 0.99), (1980.0, 0.99));
        // 1000 samples: rank 990 leaves exactly ten beyond.
        assert_eq!(tail(&s[..1000], 0.99), (990.0, 0.99));
        // 200 samples: p99 (rank 198) would leave two; fall back to
        // rank 190 = p95, the highest with ten beyond.
        let (v, q) = tail(&s[..200], 0.99);
        assert_eq!(v, 190.0);
        assert!((q - 0.95).abs() < 1e-12);
        let beyond = s[..200].iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, 10);
        // Ten or fewer samples: nothing can have ten beyond it.
        assert_eq!(tail(&s[..10], 0.99).0, 1.0);
        assert_eq!(tail(&[], 0.99), (0.0, 0.0));
    }

    #[test]
    fn quantile_and_median() {
        let s = ramp(10);
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }
}
