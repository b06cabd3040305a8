//! Order statistics over samples.

/// Median of `samples` (mean of the middle pair for even counts); NaN
/// when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); NaN when there are no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over consecutive slices of `slice` samples (a short tail
/// joins the previous slice) of each slice's nearest-rank percentile
/// `p`, with the number of slices. A burst of host noise then moves one
/// slice, not the result.
pub fn sliced_percentile(samples: &[f64], p: f64, slice: usize) -> (f64, usize) {
    let slices = (samples.len() / slice.max(1)).max(1);
    let per: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * slice
            };
            percentile(&samples[i * slice..end], p)
        })
        .collect();
    (median(&per), slices)
}

/// Interquartile range as a share of the median, with quartiles taken
/// the way Python's `statistics.quantiles(values, n=4)` takes them
/// (the "exclusive" method). NaN below two samples.
pub fn spread(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return f64::NAN;
    }
    let quartile = |j: usize| {
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let i = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - i as f64;
        sorted[i - 1] + (sorted[i] - sorted[i - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // Slices [1..=100], [101..=200], [201..=350]: p99s 99, 199, 349.
        let many: Vec<f64> = (1..=350).map(f64::from).collect();
        assert_eq!(sliced_percentile(&many, 99.0, 100), (199.0, 3));
    }
}
