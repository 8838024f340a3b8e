//! Baseline estimators.
//!
//! §III-B: "In order to assess more elaborate estimators we used a baseline
//! estimator that always returns the mean per MAC address" — that is
//! [`GroupMeanBaseline`] keyed on the one-hot MAC block. [`GlobalMean`] is
//! the even dumber floor.

use std::collections::BTreeMap;

use crate::{validate_matrix_y, FeatureMatrix, MlError, Regressor};

/// Predicts the global training mean for every input.
#[derive(Debug, Clone, Default)]
pub struct GlobalMean {
    mean: Option<f64>,
    dim: usize,
}

impl GlobalMean {
    /// Creates an unfitted global-mean predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Regressor for GlobalMean {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        self.dim = validate_matrix_y(xs, y)?;
        self.mean = Some(y.iter().sum::<f64>() / y.len() as f64);
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        let mean = self.mean.ok_or(MlError::NotFitted)?;
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                found: x.len(),
            });
        }
        Ok(mean)
    }
}

/// Predicts the mean target of the group identified by a one-hot block of
/// the feature row — the paper's mean-per-MAC baseline.
///
/// The group key is the index of the maximum feature within
/// `group_range`; rows whose group never appeared in training fall back to
/// the global mean.
///
/// # Examples
///
/// ```
/// use aerorem_ml::baseline::GroupMeanBaseline;
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// // Rows: [x, mac0, mac1]; group block is features 1..3.
/// let x = vec![
///     vec![0.0, 1.0, 0.0],
///     vec![9.0, 1.0, 0.0],
///     vec![5.0, 0.0, 1.0],
/// ];
/// let y = vec![-70.0, -74.0, -60.0];
/// let mut b = GroupMeanBaseline::new(1..3)?;
/// b.fit(&x, &y)?;
/// assert_eq!(b.predict_one(&[3.3, 1.0, 0.0])?, -72.0); // mean of mac0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GroupMeanBaseline {
    group_range: std::ops::Range<usize>,
    group_means: BTreeMap<usize, f64>,
    global_mean: Option<f64>,
    dim: usize,
}

impl GroupMeanBaseline {
    /// Creates a baseline whose group key is the argmax within
    /// `group_range` of the feature row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for an empty range.
    pub fn new(group_range: std::ops::Range<usize>) -> Result<Self, MlError> {
        if group_range.is_empty() {
            return Err(MlError::InvalidHyperparameter {
                name: "group_range",
                reason: "must be non-empty",
            });
        }
        Ok(GroupMeanBaseline {
            group_range,
            group_means: BTreeMap::new(),
            global_mean: None,
            dim: 0,
        })
    }

    /// The group key of training row `row` (`None` for a query): the index
    /// of the greatest value in the group block, the last on ties.
    ///
    /// # Errors
    ///
    /// [`MlError::NonFiniteFeature`], with the column in the full row, when
    /// the group block holds a NaN or infinite value, which no argmax can
    /// rank.
    fn group_of(&self, row: Option<usize>, values: &[f64]) -> Result<usize, MlError> {
        let block = &values[self.group_range.clone()];
        if let Some(column) = block.iter().position(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteFeature {
                row,
                column: self.group_range.start + column,
            });
        }
        Ok(block
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite features"))
            .map_or(0, |(i, _)| i))
    }

    /// Number of groups seen in training.
    pub fn group_count(&self) -> usize {
        self.group_means.len()
    }
}

impl Regressor for GroupMeanBaseline {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        let dim = validate_matrix_y(xs, y)?;
        if self.group_range.end > dim {
            return Err(MlError::DimensionMismatch {
                expected: self.group_range.end,
                found: dim,
            });
        }
        let mut sums: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        for (i, (row, &t)) in xs.iter().zip(y).enumerate() {
            let e = sums.entry(self.group_of(Some(i), row)?).or_insert((0.0, 0));
            e.0 += t;
            e.1 += 1;
        }
        self.dim = dim;
        self.group_means = sums
            .into_iter()
            .map(|(g, (sum, n))| (g, sum / n as f64))
            .collect();
        self.global_mean = Some(y.iter().sum::<f64>() / y.len() as f64);
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        let global = self.global_mean.ok_or(MlError::NotFitted)?;
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                found: x.len(),
            });
        }
        Ok(self
            .group_means
            .get(&self.group_of(None, x)?)
            .copied()
            .unwrap_or(global))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_mean_predicts_mean() {
        let mut g = GlobalMean::new();
        g.fit(&[vec![1.0], vec![2.0], vec![3.0]], &[10.0, 20.0, 30.0])
            .unwrap();
        assert_eq!(g.predict_one(&[99.0]).unwrap(), 20.0);
        assert!(matches!(
            g.predict_one(&[1.0, 2.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn global_mean_not_fitted() {
        let g = GlobalMean::new();
        assert_eq!(g.predict_one(&[1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn group_means_per_mac() {
        // 3 MACs one-hot at features 0..3.
        let x = vec![
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let y = vec![-70.0, -80.0, -60.0, -50.0];
        let mut b = GroupMeanBaseline::new(0..3).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(b.group_count(), 3);
        assert_eq!(b.predict_one(&[1.0, 0.0, 0.0]).unwrap(), -75.0);
        assert_eq!(b.predict_one(&[0.0, 1.0, 0.0]).unwrap(), -60.0);
        assert_eq!(b.predict_one(&[0.0, 0.0, 1.0]).unwrap(), -50.0);
    }

    #[test]
    fn non_finite_features_are_errors_not_panics() {
        // Rows: [coord, mac0, mac1]; the group block is features 1..3.
        let x = vec![
            vec![0.5, 1.0, 0.0],
            vec![f64::NAN, 1.0, 0.0],
            vec![1.5, 0.0, 1.0],
        ];
        let y = vec![-70.0, -72.0, -60.0];
        let mut b = GroupMeanBaseline::new(1..3).unwrap();
        // A non-finite value outside the block is never ranked.
        b.fit(&x, &y).unwrap();
        let query = Some(MlError::NonFiniteFeature {
            row: None,
            column: 1,
        });
        assert_eq!(b.predict_one(&[0.5, f64::NAN, 0.0]).err(), query);
        let batch = FeatureMatrix::from_rows(&[vec![0.5, 1.0, 0.0], vec![0.5, f64::NAN, 0.0]]);
        assert_eq!(b.predict_batch(&batch.unwrap()).err(), query);
        assert_eq!(
            b.predict_one(&[0.5, 0.0, f64::INFINITY]),
            Err(MlError::NonFiniteFeature {
                row: None,
                column: 2,
            })
        );

        let mut bad = x.clone();
        bad[2][2] = f64::NAN;
        let fit = Some(MlError::NonFiniteFeature {
            row: Some(2),
            column: 2,
        });
        let mut b = GroupMeanBaseline::new(1..3).unwrap();
        assert_eq!(b.fit(&bad, &y).err(), fit);
        assert_eq!(
            b.fit_batch(&FeatureMatrix::from_rows(&bad).unwrap(), &y)
                .err(),
            fit
        );
        assert_eq!(b.predict_one(&[0.5, 1.0, 0.0]), Err(MlError::NotFitted));
        bad[2][2] = f64::NEG_INFINITY;
        assert_eq!(b.fit(&bad, &y).err(), fit);
    }

    #[test]
    fn unseen_group_falls_back_to_global() {
        let x = vec![vec![1.0, 0.0, 9.9], vec![1.0, 0.0, 1.1]];
        let y = vec![-70.0, -74.0];
        // Group block is features 0..2; feature 2 is a coordinate.
        let mut b = GroupMeanBaseline::new(0..2).unwrap();
        b.fit(&x, &y).unwrap();
        // Group 1 (one-hot at position 1) never trained.
        assert_eq!(b.predict_one(&[0.0, 1.0, 0.0]).unwrap(), -72.0);
    }

    #[test]
    fn validation() {
        assert!(GroupMeanBaseline::new(3..3).is_err());
        let mut b = GroupMeanBaseline::new(0..5).unwrap();
        assert!(b.fit(&[vec![1.0, 2.0]], &[0.0]).is_err());
        let b = GroupMeanBaseline::new(0..1).unwrap();
        assert_eq!(b.predict_one(&[1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn group_ignores_non_block_features() {
        let x = vec![vec![5.0, 1.0, 0.0], vec![-3.0, 1.0, 0.0]];
        let y = vec![1.0, 3.0];
        let mut b = GroupMeanBaseline::new(1..3).unwrap();
        b.fit(&x, &y).unwrap();
        // Wildly different coordinate, same MAC → same prediction.
        assert_eq!(b.predict_one(&[100.0, 1.0, 0.0]).unwrap(), 2.0);
    }
}
