//! Summary statistics and fixed-width histogram binning.
//!
//! These helpers back the evaluation harness: RMSE for the Figure-8 model
//! comparison, and histogram binning for the Figure-7 per-axis sample-count
//! plots.

/// Arithmetic mean, or `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance, or `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation, or `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Root mean square error between predictions and targets.
///
/// This is the paper's Figure-8 accuracy metric.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "rmse requires equal-length slices"
    );
    assert!(!predictions.is_empty(), "rmse requires non-empty input");
    let mse = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).powi(2))
        .sum::<f64>()
        / predictions.len() as f64;
    mse.sqrt()
}

/// Mean absolute error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mae(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "mae requires equal-length slices"
    );
    assert!(!predictions.is_empty(), "mae requires non-empty input");
    predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predictions.len() as f64
}

/// Coefficient of determination R².
///
/// Returns `None` when the targets have zero variance (R² undefined).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn r_squared(predictions: &[f64], targets: &[f64]) -> Option<f64> {
    assert_eq!(predictions.len(), targets.len());
    assert!(!predictions.is_empty());
    let t_mean = mean(targets)?;
    let ss_tot: f64 = targets.iter().map(|t| (t - t_mean).powi(2)).sum();
    if ss_tot == 0.0 {
        return None;
    }
    let ss_res: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (t - p).powi(2))
        .sum();
    Some(1.0 - ss_res / ss_tot)
}

/// Linearly interpolated quantile `q ∈ [0, 1]`, or `None` for empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any input is NaN.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile), or `None` for empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// A fixed-width 1-D histogram over `[lo, hi)`.
///
/// Used by the Figure-7 experiment to count samples per 0.5 m bin along the
/// x and y axes.
///
/// # Examples
///
/// ```
/// use aerorem_numerics::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 4.0, 0.5).unwrap();
/// h.add(0.1);
/// h.add(0.4);
/// h.add(3.9);
/// assert_eq!(h.counts()[0], 2);
/// assert_eq!(h.counts()[7], 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    width: f64,
    counts: Vec<u64>,
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with bins of width `width`.
    ///
    /// The final bin may be narrower when `(hi - lo)` is not a multiple of
    /// `width`.
    ///
    /// Returns `None` when `lo >= hi`, `width <= 0`, or any value is not
    /// finite.
    pub fn new(lo: f64, hi: f64, width: f64) -> Option<Self> {
        if lo >= hi || width <= 0.0 || !lo.is_finite() || !hi.is_finite() || !width.is_finite()
        {
            return None;
        }
        let nbins = ((hi - lo) / width).ceil() as usize;
        Some(Histogram {
            lo,
            hi,
            width,
            counts: vec![0; nbins.max(1)],
            outliers: 0,
        })
    }

    /// Adds one observation. Values outside `[lo, hi)` are counted as
    /// outliers rather than silently dropped.
    pub fn add(&mut self, x: f64) {
        if x < self.lo || x >= self.hi || !x.is_finite() {
            self.outliers += 1;
            return;
        }
        let mut idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1;
        }
        self.counts[idx] += 1;
    }

    /// Adds every observation from the iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts, ordered from `lo` upward.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations that fell outside `[lo, hi)`.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Inclusive lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_lo(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + i as f64 * self.width
    }

    /// Exclusive upper edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_hi(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        (self.lo + (i + 1) as f64 * self.width).min(self.hi)
    }

    /// Iterates over `(bin_lo, bin_hi, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.counts.len()).map(move |i| (self.bin_lo(i), self.bin_hi(i), self.counts[i]))
    }
}

/// Computes the Pearson correlation coefficient between two equal-length
/// series, or `None` if either has zero variance or they are empty/unequal.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Ordinary least squares fit `y ≈ a + b·x`, returning `(a, b)`.
///
/// Returns `None` when the slices are empty, unequal, or `x` has zero
/// variance. Used by the variogram fitter and the endurance model
/// calibration.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
    }
    if sxx == 0.0 {
        return None;
    }
    let b = sxy / sxx;
    Some((my - b * mx, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(variance(&xs), Some(1.25));
        assert_eq!(std_dev(&xs), Some(1.25_f64.sqrt()));
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn rmse_known_value() {
        let pred = [1.0, 2.0, 3.0];
        let tgt = [1.0, 4.0, 3.0];
        assert!((rmse(&pred, &tgt) - (4.0_f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_zero_for_perfect_prediction() {
        let xs = [5.0, -3.0, 0.1];
        assert_eq!(rmse(&xs, &xs), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rmse_length_mismatch_panics() {
        rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn mae_known_value() {
        assert!((mae(&[0.0, 0.0], &[1.0, -3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        let t = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&t, &t).unwrap() - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r_squared(&mean_pred, &t).unwrap().abs() < 1e-12);
        assert_eq!(r_squared(&[1.0, 2.0], &[3.0, 3.0]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 2.0, 0.5).unwrap();
        h.extend([0.0, 0.49, 0.5, 1.99, 2.0, -0.1, f64::NAN]);
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_lo(1), 0.5);
        assert_eq!(h.bin_hi(3), 2.0);
    }

    #[test]
    fn histogram_partial_last_bin() {
        let h = Histogram::new(0.0, 1.2, 0.5).unwrap();
        assert_eq!(h.counts().len(), 3);
        assert!((h.bin_hi(2) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_config() {
        assert!(Histogram::new(1.0, 0.0, 0.5).is_none());
        assert!(Histogram::new(0.0, 1.0, 0.0).is_none());
        assert!(Histogram::new(0.0, f64::INFINITY, 0.5).is_none());
    }

    #[test]
    fn histogram_iter_covers_all_bins() {
        let mut h = Histogram::new(0.0, 1.0, 0.25).unwrap();
        h.add(0.1);
        let triples: Vec<_> = h.iter().collect();
        assert_eq!(triples.len(), 4);
        assert_eq!(triples[0].2, 1);
    }

    #[test]
    fn pearson_signs() {
        let x = [1.0, 2.0, 3.0];
        let y_up = [2.0, 4.0, 6.0];
        let y_down = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y_up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_down).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&x, &[1.0]), None);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 0.5 * x).collect();
        let (a, b) = linear_fit(&xs, &ys).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 0.5).abs() < 1e-12);
        assert_eq!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]), None);
    }
}
