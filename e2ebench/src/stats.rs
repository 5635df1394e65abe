//! Order statistics over measured samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` when there are no samples. Sorts a copy; the input keeps its
/// order.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `p`-th percentile of samples that were rounded to whole units (the
/// daemon reports service time in whole µs): the grouped-data estimate
/// that spreads each value's ties evenly over the unit interval around it,
/// so the figure keeps resolving shifts smaller than one unit.
#[must_use]
pub fn grouped_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let value = percentile(samples, p)?;
    let below = samples.iter().filter(|v| **v < value).count() as f64;
    let tied = samples.iter().filter(|v| **v == value).count() as f64;
    let rank = p / 100.0 * samples.len() as f64;
    Some(value - 0.5 + ((rank - below) / tied).clamp(0.0, 1.0))
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that leaves at least
/// ten of `n` samples above it; `None` when fewer than 20 samples leave
/// even the median without ten samples beyond it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Arithmetic mean, 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 90.0), Some(90.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn grouped_percentile_resolves_ties() {
        // 30 ties at 10 and 70 at 11: the median lies in the 11 group,
        // a fifth of the way up it.
        let mut samples = vec![10.0; 30];
        samples.extend(vec![11.0; 70]);
        let median = grouped_percentile(&samples, 50.0).unwrap();
        assert!((median - (10.5 + 20.0 / 70.0)).abs() < 1e-9, "{median}");
        // More samples at 10 move it down, though the nearest rank stays 11.
        samples[30] = 10.0;
        samples[31] = 10.0;
        assert!(grouped_percentile(&samples, 50.0).unwrap() < median);
        assert_eq!(percentile(&samples, 50.0), Some(11.0));
        assert_eq!(grouped_percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // The named percentile really leaves ten samples above it.
        for n in [20, 100, 1_000, 10_000] {
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let p = tail_percentile(n).unwrap();
            let value = percentile(&samples, p).unwrap();
            let beyond = samples.iter().filter(|v| **v > value).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }
}
