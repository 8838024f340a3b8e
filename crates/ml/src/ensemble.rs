//! Per-group estimator ensembles.
//!
//! §III-B: "as an intuitive alternative to assigning samples with different
//! MAC addresses a greater distance, we considered a kNN estimator per MAC
//! address … and took samples with the same MAC address into account,
//! reducing the feature set to only the x, y, z coordinates."
//! [`PerGroupKnn`] is that estimator, generalized to any one-hot group
//! block.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::knn::{KnnRegressor, Weighting};
use crate::{finite_row, validate_matrix_y, FeatureMatrix, MlError, Regressor};

/// One kNN model per group (per MAC), trained on the non-group features
/// only. Groups never seen in training fall back to the global mean.
///
/// # Examples
///
/// ```
/// use aerorem_ml::ensemble::PerGroupKnn;
/// use aerorem_ml::knn::Weighting;
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// // Rows: [coord, mac0, mac1]. Two interleaved functions, one per MAC.
/// let x = vec![
///     vec![0.0, 1.0, 0.0], vec![1.0, 1.0, 0.0],
///     vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 1.0],
/// ];
/// let y = vec![-70.0, -72.0, -50.0, -48.0];
/// let mut m = PerGroupKnn::new(1..3, 1, Weighting::Distance, 2.0)?;
/// m.fit(&x, &y)?;
/// assert_eq!(m.predict_one(&[0.0, 0.0, 1.0])?, -50.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PerGroupKnn {
    group_range: Range<usize>,
    k: usize,
    weighting: Weighting,
    minkowski_p: f64,
    models: BTreeMap<usize, KnnRegressor>,
    global_mean: Option<f64>,
    dim: usize,
}

impl PerGroupKnn {
    /// Creates the ensemble: group key is the argmax within `group_range`;
    /// each group's kNN uses `k` neighbours on the features outside the
    /// group block.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for an empty range, zero
    /// `k`, or invalid Minkowski order.
    pub fn new(
        group_range: Range<usize>,
        k: usize,
        weighting: Weighting,
        minkowski_p: f64,
    ) -> Result<Self, MlError> {
        if group_range.is_empty() {
            return Err(MlError::InvalidHyperparameter {
                name: "group_range",
                reason: "must be non-empty",
            });
        }
        // Validate the kNN hyperparameters early by building a probe model.
        KnnRegressor::new(k, weighting, minkowski_p)?;
        Ok(PerGroupKnn {
            group_range,
            k,
            weighting,
            minkowski_p,
            models: BTreeMap::new(),
            global_mean: None,
            dim: 0,
        })
    }

    /// The paper's per-MAC configuration: same hyperparameters as the tuned
    /// plain kNN (`k = 3`, distance weights, Euclidean).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for an empty group range.
    pub fn paper_tuned(group_range: Range<usize>) -> Result<Self, MlError> {
        Self::new(group_range, 3, Weighting::Distance, 2.0)
    }

    /// Number of per-group models fitted.
    pub fn group_count(&self) -> usize {
        self.models.len()
    }

    fn group_of(&self, row: &[f64]) -> usize {
        let slice = &row[self.group_range.clone()];
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite features"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn strip_group(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .filter(|(i, _)| !self.group_range.contains(i))
            .map(|(_, &v)| v)
            .collect()
    }
}

impl Regressor for PerGroupKnn {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        let dim = validate_matrix_y(xs, y)?;
        if self.group_range.end > dim {
            return Err(MlError::DimensionMismatch {
                expected: self.group_range.end,
                found: dim,
            });
        }
        if self.group_range.len() == dim {
            return Err(MlError::InvalidHyperparameter {
                name: "group_range",
                reason: "no features left outside the group block",
            });
        }
        // Bucket each group's stripped rows, in input order.
        let stripped_dim = dim - self.group_range.len();
        let mut buckets: BTreeMap<usize, (FeatureMatrix, Vec<f64>)> = BTreeMap::new();
        for (i, (row, &t)) in xs.iter().zip(y).enumerate() {
            finite_row(Some(i), row)?;
            let (gx, gy) = buckets
                .entry(self.group_of(row))
                .or_insert_with(|| (FeatureMatrix::new(stripped_dim), Vec::new()));
            gx.push_row(&self.strip_group(row));
            gy.push(t);
        }
        self.dim = dim;
        self.global_mean = Some(y.iter().sum::<f64>() / y.len() as f64);
        self.models.clear();
        for (g, (gx, gy)) in buckets {
            let mut model = KnnRegressor::new(self.k, self.weighting, self.minkowski_p)?;
            model.fit_batch(&gx, &gy)?;
            self.models.insert(g, model);
        }
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
        finite_row(None, x)?;
        match self.models.get(&self.group_of(x)) {
            Some(model) => model.predict_one(&self.strip_group(x)),
            None => Ok(global),
        }
    }

    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        let global = self.global_mean.ok_or(MlError::NotFitted)?;
        if xs.dim() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                found: xs.dim(),
            });
        }
        let stripped_dim = self.dim - self.group_range.len();
        // Bucket row indices by group, then delegate each group's stripped
        // rows to its submodel in one batched call and scatter the results
        // back into input order.
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ri, row) in xs.iter().enumerate() {
            finite_row(None, row)?;
            buckets.entry(self.group_of(row)).or_default().push(ri);
        }
        let mut out = vec![global; xs.rows()];
        for (g, rows) in buckets {
            let Some(model) = self.models.get(&g) else {
                continue; // unseen group: rows keep the global mean
            };
            let mut sub = FeatureMatrix::with_capacity(stripped_dim, rows.len());
            for &ri in &rows {
                sub.push_row(&self.strip_group(xs.row(ri)));
            }
            let preds = model.predict_batch(&sub)?;
            for (&ri, p) in rows.iter().zip(preds) {
                out[ri] = p;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows: [coord, mac0, mac1]; MAC 0 maps coord→−70−2c, MAC 1 → −50+2c.
    fn two_group_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let c = i as f64 * 0.3;
            x.push(vec![c, 1.0, 0.0]);
            y.push(-70.0 - 2.0 * c);
            x.push(vec![c, 0.0, 1.0]);
            y.push(-50.0 + 2.0 * c);
        }
        (x, y)
    }

    #[test]
    fn non_finite_features_are_errors_not_panics() {
        let (x, y) = two_group_data();
        let mut m = PerGroupKnn::new(1..3, 2, Weighting::Distance, 2.0).unwrap();
        m.fit(&x, &y).unwrap();
        let query = Some(MlError::NonFiniteFeature {
            row: None,
            column: 1,
        });
        assert_eq!(m.predict_one(&[1.5, f64::NAN, 0.0]).err(), query);
        let batch = FeatureMatrix::from_rows(&[vec![1.5, 1.0, 0.0], vec![1.5, f64::NAN, 0.0]]);
        assert_eq!(m.predict_batch(&batch.unwrap()).err(), query);

        let mut bad = x.clone();
        bad[4][0] = f64::NAN;
        let mut m = PerGroupKnn::new(1..3, 2, Weighting::Distance, 2.0).unwrap();
        assert_eq!(
            m.fit(&bad, &y),
            Err(MlError::NonFiniteFeature {
                row: Some(4),
                column: 0,
            })
        );
        assert_eq!(m.predict_one(&[1.5, 1.0, 0.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn per_group_models_do_not_mix() {
        let (x, y) = two_group_data();
        let mut m = PerGroupKnn::new(1..3, 2, Weighting::Distance, 2.0).unwrap();
        m.fit(&x, &y).unwrap();
        assert_eq!(m.group_count(), 2);
        // Predictions land on the correct branch even where the two
        // functions are 20+ dB apart.
        let p0 = m.predict_one(&[1.5, 1.0, 0.0]).unwrap();
        let p1 = m.predict_one(&[1.5, 0.0, 1.0]).unwrap();
        assert!((p0 - -73.0).abs() < 1.0, "group 0: {p0}");
        assert!((p1 - -47.0).abs() < 1.0, "group 1: {p1}");
    }

    #[test]
    fn unseen_group_gets_global_mean() {
        let (x, y) = two_group_data();
        // Group block of width 3, but only groups 0 and 1 ever appear.
        let x3: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0], r[1], r[2], 0.0]).collect();
        let mut m = PerGroupKnn::new(1..4, 2, Weighting::Distance, 2.0).unwrap();
        m.fit(&x3, &y).unwrap();
        let global = y.iter().sum::<f64>() / y.len() as f64;
        let p = m.predict_one(&[0.5, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(p, global);
    }

    #[test]
    fn validation() {
        assert!(PerGroupKnn::new(2..2, 3, Weighting::Uniform, 2.0).is_err());
        assert!(PerGroupKnn::new(0..2, 0, Weighting::Uniform, 2.0).is_err());
        let mut m = PerGroupKnn::new(0..5, 3, Weighting::Uniform, 2.0).unwrap();
        assert!(m.fit(&[vec![1.0, 0.0]], &[1.0]).is_err());
        // Group block covering everything leaves no features.
        let mut m = PerGroupKnn::new(0..2, 3, Weighting::Uniform, 2.0).unwrap();
        assert!(m.fit(&[vec![1.0, 0.0]], &[1.0]).is_err());
        let m = PerGroupKnn::paper_tuned(1..3).unwrap();
        assert_eq!(m.predict_one(&[0.0, 1.0, 0.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn dimension_check_on_predict() {
        let (x, y) = two_group_data();
        let mut m = PerGroupKnn::paper_tuned(1..3).unwrap();
        m.fit(&x, &y).unwrap();
        assert!(matches!(
            m.predict_one(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn predict_batch_matches_predict_one_bits() {
        let (x, y) = two_group_data();
        // Add a third, never-trained group column so the batch path also
        // exercises the global-mean fallback.
        let x3: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0], r[1], r[2], 0.0]).collect();
        let mut m = PerGroupKnn::new(1..4, 2, Weighting::Distance, 2.0).unwrap();
        m.fit(&x3, &y).unwrap();
        let queries: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let c = i as f64 * 0.27;
                match i % 3 {
                    0 => vec![c, 1.0, 0.0, 0.0],
                    1 => vec![c, 0.0, 1.0, 0.0],
                    _ => vec![c, 0.0, 0.0, 1.0], // unseen group
                }
            })
            .collect();
        let fm = FeatureMatrix::from_rows(&queries).unwrap();
        let batch = m.predict_batch(&fm).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(m.predict_one(q).unwrap(), *b);
        }
    }

    #[test]
    fn tiny_groups_still_work() {
        // A group with a single sample: kNN with k=3 just returns it.
        let x = vec![
            vec![0.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![0.5, 0.0, 1.0],
        ];
        let y = vec![-70.0, -72.0, -40.0];
        let mut m = PerGroupKnn::paper_tuned(1..3).unwrap();
        m.fit(&x, &y).unwrap();
        assert_eq!(m.predict_one(&[9.9, 0.0, 1.0]).unwrap(), -40.0);
    }
}
