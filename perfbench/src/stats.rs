//! Percentiles from raw samples.
//!
//! Every percentile the benchmark prints is computed here from the full
//! list of measured values, never from a bucketed histogram, and is
//! reported together with the number of samples it rests on.

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by linear
/// interpolation between the two nearest order statistics; `None` for
/// an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (0 for an empty slice).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The tail figure of a run with only a few timed repetitions: the
/// upper quartile. With fewer than eleven samples no percentile has ten
/// samples beyond it, and the largest sample alone follows the host's
/// noise more than the program.
#[must_use]
pub fn upper_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.75).unwrap_or(0.0)
}

/// The largest value (0 for an empty slice).
#[must_use]
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Arithmetic mean (0 for an empty slice).
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
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&many, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }
}
