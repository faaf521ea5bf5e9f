//! Sample summaries.

/// A tail percentile that has at least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction in `(0, 1)`.
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples (`q` in `(0, 1]`);
/// NaN for no samples.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    // The tolerance keeps `0.99 · 1000` at rank 990 despite rounding.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    match rank.min(sorted.len()).checked_sub(1) {
        Some(index) => sorted[index],
        None => sorted.first().copied().unwrap_or(f64::NAN),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The highest percentile, at most `cap`, with at least ten samples
/// beyond it; `None` when there are too few samples for any.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let percentile = cap.min((n - TAIL_BEYOND) as f64 / n as f64);
    Some(Tail {
        percentile,
        value: nearest_rank(&sorted(samples), percentile),
        samples: n,
    })
}

/// The lowest percentile still reported as a tail.
const MIN_TAIL_PERCENTILE: f64 = 0.9;

/// The p99 when the sample supports it, otherwise the highest percentile
/// it does support down to p90.  A sample too small for even that (under
/// 100) gets its nearest-rank p90 without ten samples beyond: a high
/// order statistic that is steadier than the maximum.
pub fn p99_or_tail(samples: &[f64]) -> Tail {
    tail(samples, 0.99)
        .filter(|t| t.percentile >= MIN_TAIL_PERCENTILE)
        .unwrap_or_else(|| Tail {
            percentile: MIN_TAIL_PERCENTILE,
            value: nearest_rank(&sorted(samples), MIN_TAIL_PERCENTILE),
            samples: samples.len(),
        })
}

/// The median (mean of the two middle samples for an even count); NaN
/// for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [11, 12, 50, 100, 999, 1000, 5000] {
            let samples = ramp(n);
            let t = tail(&samples, 0.99).unwrap();
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond {t:?}");
            assert_eq!(t.samples, n);
            if n < 1000 {
                // Uncapped: exactly ten beyond, so no higher percentile works.
                assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn tail_is_capped_at_p99() {
        let t = tail(&ramp(5000), 0.99).unwrap();
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 4949.0);
        let t = tail(&ramp(100), 0.99).unwrap();
        assert_eq!(t.percentile, 0.9);
        assert_eq!(t.value, 89.0);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(10), 0.99), None);
        assert_eq!(tail(&[], 0.99), None);
        let t = p99_or_tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.samples), (0.9, 3.0, 3));
        // 24 samples support only p58: fall back to the rank-22 p90.
        assert_eq!(p99_or_tail(&ramp(24)).value, 21.0);
        assert_eq!(p99_or_tail(&ramp(100)).percentile, 0.9);
        assert!(p99_or_tail(&[]).value.is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
