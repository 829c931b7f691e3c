// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Statistics every metric goes through, so no workload rolls its own.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver uses to
//! judge the run-to-run spread of this benchmark.

/// Sorted copy of `xs` (total order; NaN sorts last and fails checks upstream).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a bug upstream.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(xs, n=4)` gives them.
/// With fewer than two samples all three are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, or `None` below 20 samples (where not
/// even the median has ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Hundredths of a percent, so "ten beyond" is exact integer arithmetic.
    [9999usize, 9990, 9900, 9500, 9000, 7500, 5000]
        .into_iter()
        .find(|p| n * (10_000 - p) >= 100_000)
        .map(|p| p as f64 / 100.0)
}

/// Splits time-ordered `xs` into `windows` equal consecutive windows
/// (a remainder shorter than a window is dropped), takes percentile `p`
/// of each, and returns the median of those — steadier than one
/// percentile over the whole run, which a single stall can own.
pub fn median_of_window_percentiles(xs: &[f64], windows: usize, p: f64) -> f64 {
    assert!(windows > 0, "need at least one window");
    let len = xs.len() / windows;
    assert!(
        len > 0,
        "{} samples cannot fill {windows} windows",
        xs.len()
    );
    let per: Vec<f64> = xs
        .chunks_exact(len)
        .take(windows)
        .map(|w| percentile(w, p))
        .collect();
    median(&per)
}

/// Least-squares line `y = a + b·x`; returns `(a, b, r²)`. `r²` is 1
/// when `y` is constant (nothing left to explain).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "fit needs paired samples");
    assert!(xs.len() >= 2, "fit needs at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(sxx > 0.0, "fit needs at least two distinct x values");
    let b = sxy / sxx;
    let a = my - b * mx;
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (a + b * x)).powi(2))
        .sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (a, b, r2)
}

/// Sample count, quartiles and median of one timing, printed beside it.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(xs);
        Self {
            n: xs.len(),
            q1,
            median,
            q3,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} (q1 {:.4}, q3 {:.4}, n {})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 90.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn window_percentiles_ignore_one_bad_window() {
        // Five windows of four samples; p100 per window = 4, 4, 100, 4, 4.
        let mut xs = Vec::new();
        for w in 0..5 {
            xs.extend([1.0, 2.0, 3.0, if w == 2 { 100.0 } else { 4.0 }]);
        }
        assert_eq!(median_of_window_percentiles(&xs, 5, 100.0), 4.0);
        // A trailing partial window is dropped, not folded in.
        xs.push(1e9);
        assert_eq!(median_of_window_percentiles(&xs, 5, 100.0), 4.0);
    }

    #[test]
    fn fit_recovers_a_line_and_scores_noise() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [5.0, 7.0, 9.0, 11.0];
        let (a, b, r2) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-12 && (b - 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
        // Hand-computed: x̄ = 2, ȳ = 2, sxy = 2, sxx = 2 → b = 1, a = 0;
        // residuals (1, −2, 1) → ss_res = 6; ss_tot = 0+4+4 = 8 → r² = 0.25.
        let (a, b, r2) = linear_fit(&[1.0, 2.0, 3.0], &[2.0, 0.0, 4.0]);
        assert!((a - 0.0).abs() < 1e-12 && (b - 1.0).abs() < 1e-12);
        assert!((r2 - 0.25).abs() < 1e-12);
    }
}
