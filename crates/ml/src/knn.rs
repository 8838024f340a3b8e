//! k-nearest-neighbour regression.
//!
//! §III-B: "a k-nearest neighbor regressor was considered … configured to
//! use Euclidean distance by setting `metric=minkowski` and `p=2` … the
//! optimal values were `weights = distance` and `n_neighbors = 3`", and a
//! variant "multiplying the one-hot encoded values by the factor of 3 and
//! setting the `n_neighbors` parameter to 16" performed best overall. All
//! of those knobs exist here; the ×3 trick is the
//! [`KnnRegressor::with_feature_scaling`] hook.
//!
//! # Neighbour search
//!
//! A Euclidean fit hands its (scaled) rows to a [`NeighborIndex`], which
//! keeps one KD-tree per one-hot key over the paper's coordinate columns
//! and returns exactly the neighbours a brute-force scan would, so every
//! prediction is bit-identical to one. Other Minkowski orders scan every
//! row.

use crate::kdtree::{top_k_from_candidates, IndexScratch, NeighborIndex};
use crate::{finite_row, finite_rows, validate_matrix_y, FeatureMatrix, MlError, Regressor};
use aerorem_numerics::kernels::{sq_euclidean, taxicab};

/// Neighbour weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weighting {
    /// Plain average of the k targets.
    Uniform,
    /// Average weighted by inverse distance (`weights = distance` in
    /// scikit-learn terms). Exact matches dominate entirely.
    Distance,
}

/// Fitted neighbour search; either variant is the sole owner of the
/// (scaled) training rows.
#[derive(Debug, Clone)]
enum Fitted {
    /// Euclidean fits search the neighbour index.
    Index(NeighborIndex),
    /// Other Minkowski orders scan every row.
    Minkowski {
        /// The scaled training rows.
        data: FeatureMatrix,
    },
}

/// A kNN regressor with Minkowski metric.
///
/// # Examples
///
/// ```
/// use aerorem_ml::knn::{KnnRegressor, Weighting};
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
/// let mut knn = KnnRegressor::new(3, Weighting::Distance, 2.0)?;
/// knn.fit(&x, &y)?;
/// assert_eq!(knn.predict_one(&[4.0])?, 16.0); // exact match wins
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    weighting: Weighting,
    minkowski_p: f64,
    feature_scale: Option<Vec<f64>>,
    // Fitted state.
    y: Vec<f64>,
    fitted: Option<Fitted>,
    dim: Option<usize>,
}

impl KnnRegressor {
    /// Creates a regressor with `k` neighbours, a weighting scheme, and
    /// Minkowski order `p` (`p = 2` is Euclidean, `p = 1` Manhattan).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for `k = 0` or `p < 1`.
    pub fn new(k: usize, weighting: Weighting, minkowski_p: f64) -> Result<Self, MlError> {
        if k == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "k",
                reason: "must be at least 1",
            });
        }
        if minkowski_p < 1.0 || !minkowski_p.is_finite() {
            return Err(MlError::InvalidHyperparameter {
                name: "minkowski_p",
                reason: "must be finite and >= 1",
            });
        }
        Ok(KnnRegressor {
            k,
            weighting,
            minkowski_p,
            feature_scale: None,
            y: Vec::new(),
            fitted: None,
            dim: None,
        })
    }

    /// The paper's best plain configuration: `k = 3`, distance weights,
    /// Euclidean metric.
    pub fn paper_tuned() -> Self {
        Self::new(3, Weighting::Distance, 2.0).expect("valid constants")
    }

    /// Applies a per-feature scale before distance computation — the
    /// paper's "one-hot encoded values multiplied by the factor of 3" trick
    /// scales the MAC block by 3.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if any scale is negative
    /// or not finite.
    pub fn with_feature_scaling(mut self, scale: Vec<f64>) -> Result<Self, MlError> {
        if scale.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "feature_scale",
                reason: "scales must be finite and non-negative",
            });
        }
        self.feature_scale = Some(scale);
        Ok(self)
    }

    /// The configured neighbour count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the fitted model searches the neighbour index's per-key
    /// KD-trees rather than scanning every row.
    pub fn uses_kdtree(&self) -> bool {
        matches!(&self.fitted, Some(Fitted::Index(index)) if index.uses_trees())
    }

    fn is_euclidean(&self) -> bool {
        (self.minkowski_p - 2.0).abs() < 1e-12
    }

    /// Applies the optional per-feature scale, writing into a reusable
    /// buffer.
    fn scale_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        match &self.feature_scale {
            Some(s) => out.extend(row.iter().zip(s).map(|(v, w)| v * w)),
            None => out.extend_from_slice(row),
        }
    }

    fn minkowski(&self, a: &[f64], b: &[f64]) -> f64 {
        let p = self.minkowski_p;
        if (p - 2.0).abs() < 1e-12 {
            return sq_euclidean(a, b).sqrt();
        }
        if (p - 1.0).abs() < 1e-12 {
            // Taxicab fast path: IEEE 754 `pow(x, 1)` returns `x` exactly,
            // so dropping both `powf` calls leaves the per-term values
            // unchanged, and the shared eight-lane kernel fixes the
            // accumulation order workspace-wide (for `dim < 8` it is
            // bit-identical to the plain sequential sum).
            return taxicab(a, b);
        }
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs().powf(p))
            .sum::<f64>()
            .powf(1.0 / p)
    }

    /// Replaces `nn` with the k nearest fitted rows to the (already
    /// scaled) query. The per-item and batched paths both end here.
    fn neighbours_into(
        &self,
        fitted: &Fitted,
        query: &[f64],
        s: &mut IndexScratch,
        nn: &mut Vec<(usize, f64)>,
    ) {
        match fitted {
            Fitted::Index(index) => index.nearest_into(query, self.k, s, nn),
            Fitted::Minkowski { data } => {
                s.cand.clear();
                s.cand.extend(
                    data.iter()
                        .enumerate()
                        .map(|(i, p)| (i, self.minkowski(p, query))),
                );
                top_k_from_candidates(&mut s.cand, self.k, nn);
            }
        }
    }

    /// Combines the neighbour targets under the configured weighting. Shared
    /// by the per-item and batched paths so both aggregate in the same order.
    fn aggregate(&self, nn: &[(usize, f64)]) -> f64 {
        debug_assert!(!nn.is_empty(), "fitted set is non-empty");
        match self.weighting {
            Weighting::Uniform => nn.iter().map(|&(i, _)| self.y[i]).sum::<f64>() / nn.len() as f64,
            Weighting::Distance => {
                // Exact matches dominate (scikit-learn semantics).
                let mut exact_sum = 0.0;
                let mut exact_n = 0usize;
                for &(i, d) in nn {
                    if d == 0.0 {
                        exact_sum += self.y[i];
                        exact_n += 1;
                    }
                }
                if exact_n > 0 {
                    return exact_sum / exact_n as f64;
                }
                let mut num = 0.0;
                let mut den = 0.0;
                for &(i, d) in nn {
                    let w = 1.0 / d;
                    num += w * self.y[i];
                    den += w;
                }
                num / den
            }
        }
    }

    fn check_dim(&self, found: usize) -> Result<usize, MlError> {
        let dim = self.dim.ok_or(MlError::NotFitted)?;
        if found != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                found,
            });
        }
        Ok(dim)
    }
}

impl Regressor for KnnRegressor {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        let dim = validate_matrix_y(xs, y)?;
        // One copy of the training rows, scaled, which the fitted search
        // takes ownership of.
        let rows = match &self.feature_scale {
            None => xs.clone(),
            Some(s) if s.len() != dim => {
                return Err(MlError::DimensionMismatch {
                    expected: dim,
                    found: s.len(),
                });
            }
            Some(s) => {
                let mut flat = Vec::with_capacity(xs.as_slice().len());
                for row in xs.iter() {
                    flat.extend(row.iter().zip(s).map(|(v, w)| v * w));
                }
                FeatureMatrix::from_flat(dim, flat).expect("whole rows of a validated width")
            }
        };
        // The index build checks finiteness in its own pass over the rows.
        let fitted = if self.is_euclidean() {
            Fitted::Index(NeighborIndex::try_new(rows)?)
        } else {
            finite_rows(&rows)?;
            Fitted::Minkowski { data: rows }
        };
        self.y = y.to_vec();
        self.dim = Some(dim);
        self.fitted = Some(fitted);
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        self.check_dim(x.len())?;
        let fitted = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        let mut query = Vec::with_capacity(x.len());
        self.scale_into(x, &mut query);
        finite_row(None, &query)?;
        let mut nn = Vec::new();
        self.neighbours_into(fitted, &query, &mut IndexScratch::default(), &mut nn);
        Ok(self.aggregate(&nn))
    }

    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        let dim = self.check_dim(xs.dim())?;
        let fitted = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        let mut out = Vec::with_capacity(xs.rows());
        // All per-query state is hoisted out of the loop and reused.
        let mut query: Vec<f64> = Vec::with_capacity(dim);
        let mut scratch = IndexScratch::default();
        let mut nn: Vec<(usize, f64)> = Vec::new();
        for row in xs.iter() {
            self.scale_into(row, &mut query);
            finite_row(None, &query)?;
            self.neighbours_into(fitted, &query, &mut scratch, &mut nn);
            out.push(self.aggregate(&nn));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxicab_fast_path_matches_the_general_formula_bits() {
        let model = KnnRegressor::new(1, Weighting::Uniform, 1.0).unwrap();
        for dim in [3usize, 7, 14] {
            let a: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin() * 9.0).collect();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.61).cos() * 7.0).collect();
            // The fast path is the shared eight-lane kernel, bit for bit.
            assert_eq!(model.minkowski(&a, &b), taxicab(&a, &b), "dim {dim}");
            let general: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs().powf(1.0))
                .sum::<f64>()
                .powf(1.0);
            if dim < 8 {
                // Below a full lane group the kernel IS the sequential sum.
                assert_eq!(model.minkowski(&a, &b), general, "dim {dim}");
            } else {
                let got = model.minkowski(&a, &b);
                assert!((got - general).abs() <= 1e-12 * general.abs(), "dim {dim}");
            }
        }
    }

    fn line_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.5]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn interpolates_a_line() {
        let (x, y) = line_data();
        let mut knn = KnnRegressor::new(2, Weighting::Distance, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        for q in [0.25, 1.3, 7.1] {
            let p = knn.predict_one(&[q]).unwrap();
            assert!((p - (2.0 * q + 1.0)).abs() < 0.6, "at {q}: {p}");
        }
    }

    #[test]
    fn exact_match_dominates_distance_weighting() {
        let (x, y) = line_data();
        let mut knn = KnnRegressor::new(5, Weighting::Distance, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict_one(&[3.0]).unwrap(), 7.0);
    }

    #[test]
    fn uniform_weighting_is_plain_mean() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0]];
        let y = vec![0.0, 10.0, 100.0];
        let mut knn = KnnRegressor::new(2, Weighting::Uniform, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        // Neighbours of 0.4 are x=0 and x=1 → mean 5.
        assert_eq!(knn.predict_one(&[0.4]).unwrap(), 5.0);
    }

    #[test]
    fn k_larger_than_dataset_uses_everything() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![2.0, 4.0];
        let mut knn = KnnRegressor::new(16, Weighting::Uniform, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict_one(&[0.5]).unwrap(), 3.0);
    }

    #[test]
    fn backend_selection_by_dimension() {
        let (x, y) = line_data();
        let mut low = KnnRegressor::new(3, Weighting::Uniform, 2.0).unwrap();
        low.fit(&x, &y).unwrap();
        assert!(low.uses_kdtree(), "1-D Euclidean → KD-tree");

        let x_hi: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; 20]).collect();
        let mut hi = KnnRegressor::new(3, Weighting::Uniform, 2.0).unwrap();
        hi.fit(&x_hi, &y).unwrap();
        assert!(!hi.uses_kdtree(), "20 tree columns → brute force");

        // Key columns (0 or one shared value) do not count towards the
        // cutoff: 1 tree column beside 20 one-hot and zero columns.
        let x_keyed: Vec<Vec<f64>> = x
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut v = r.clone();
                v.extend((0..20).map(|j| if j == i % 4 { 3.0 } else { 0.0 }));
                v
            })
            .collect();
        let mut keyed = KnnRegressor::new(3, Weighting::Uniform, 2.0).unwrap();
        keyed.fit(&x_keyed, &y).unwrap();
        assert!(keyed.uses_kdtree(), "1 tree + 20 key columns → KD-tree");

        // No tree column at all: every column is two-valued.
        let x_keys: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 2) as f64, 0.0]).collect();
        let mut keys = KnnRegressor::new(3, Weighting::Uniform, 2.0).unwrap();
        keys.fit(&x_keys, &y).unwrap();
        assert!(!keys.uses_kdtree(), "no tree column → brute force");

        let mut manhattan = KnnRegressor::new(3, Weighting::Uniform, 1.0).unwrap();
        manhattan.fit(&x, &y).unwrap();
        assert!(!manhattan.uses_kdtree(), "p=1 → brute force");
    }

    #[test]
    fn backends_agree() {
        // One geometry through the KD-tree and through brute force. Zero
        // padding keeps distances unchanged but only adds key columns, which
        // do not count towards the tree cutoff, so brute force is forced
        // with more than 8 tree columns: the coordinates repeated four times
        // at half scale, which sums to the same squared distances up to
        // rounding.
        let x3: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let pad = |r: &[f64]| {
            let mut v = r.to_vec();
            v.extend([0.0; 6]);
            v
        };
        let repeat =
            |r: &[f64]| -> Vec<f64> { (0..4).flat_map(|_| r.iter().map(|v| v * 0.5)).collect() };
        let fit = |rows: Vec<Vec<f64>>| {
            let mut knn = KnnRegressor::new(4, Weighting::Distance, 2.0).unwrap();
            knn.fit(&rows, &y).unwrap();
            knn
        };
        let tree = fit(x3.clone());
        let padded = fit(x3.iter().map(|r| pad(r)).collect());
        let brute = fit(x3.iter().map(|r| repeat(r)).collect());
        assert!(tree.uses_kdtree() && padded.uses_kdtree());
        assert!(!brute.uses_kdtree());
        for i in 0..10 {
            let q3 = vec![i as f64 * 0.37, i as f64 * 0.21, 1.1];
            let a = tree.predict_one(&q3).unwrap();
            // Zero columns add exact zero terms, so padding keeps the bits.
            assert_eq!(
                a.to_bits(),
                padded.predict_one(&pad(&q3)).unwrap().to_bits()
            );
            let b = brute.predict_one(&repeat(&q3)).unwrap();
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn square_root_ties_rank_like_brute_force_through_the_index() {
        // Rows 0 and 1 share a key, and their squared distances from the
        // query differ in the last bit but share a square root, so brute
        // force keeps the lower index. Row 2 sits in another group.
        let x = vec![
            vec![1.0000003, 0.5000000000000001, 3.0],
            vec![1.0000003, 0.5, 3.0],
            vec![2.0, 1.5, 0.0],
        ];
        let y = vec![-40.0, -50.0, -60.0];
        let mut knn = KnnRegressor::new(1, Weighting::Uniform, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        assert!(knn.uses_kdtree());
        let query = [0.0, 0.0, 3.0];
        let flat: Vec<f64> = x.concat();
        assert_eq!(
            crate::kdtree::brute_force_nearest_flat(&flat, 3, &query, 1)[0].0,
            0
        );
        assert_eq!(knn.predict_one(&query).unwrap(), -40.0);
        let batch = knn.predict_batch(&FeatureMatrix::from_rows(&[query.to_vec()]).unwrap());
        assert_eq!(batch.unwrap(), vec![-40.0]);
    }

    #[test]
    fn minkowski_p1_differs_from_p2() {
        let x = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![5.0, 0.0]];
        let y = vec![0.0, 1.0, 2.0];
        let mut p1 = KnnRegressor::new(1, Weighting::Uniform, 1.0).unwrap();
        let mut p2 = KnnRegressor::new(1, Weighting::Uniform, 2.0).unwrap();
        p1.fit(&x, &y).unwrap();
        p2.fit(&x, &y).unwrap();
        // Query (4, 0): Manhattan → (3,4) costs 5, (5,0) costs 1 → y=2.
        //               Euclidean → (5,0) costs 1 vs (3,4) costs √17 → y=2.
        // Query (3, 2): Manhattan → (3,4)=2, (5,0)=4, origin=5 → y=1.
        //               Euclidean → (3,4)=2, (5,0)=√8≈2.83 → y=1. Same…
        // Use (2.0, 2.5): Manhattan: origin 4.5, (3,4) 2.5, (5,0) 5.5 → y=1.
        //                 Euclidean: origin 3.20, (3,4) 1.80 → y=1. Same.
        // The metrics disagree at (4.4, 0.1): Manhattan (5,0)=0.7,(3,4)=5.3;
        // Euclidean (5,0)=0.608 → same winner. Verify distances instead.
        let d1 = p1.minkowski(&[0.0, 0.0], &[3.0, 4.0]);
        let d2 = p2.minkowski(&[0.0, 0.0], &[3.0, 4.0]);
        assert_eq!(d1, 7.0);
        assert_eq!(d2, 5.0);
    }

    #[test]
    fn feature_scaling_changes_neighbourhoods() {
        // Two clusters separated along dim 1; the query is nearer cluster B
        // spatially, but scaling the "MAC" dimension ×3 flips the verdict.
        let x = vec![
            vec![0.0, 1.0], // group A, near
            vec![1.2, 0.0], // group B
        ];
        let y = vec![10.0, 20.0];
        let query = [0.0, 0.0]; // group B's one-hot position
        let mut plain = KnnRegressor::new(1, Weighting::Uniform, 2.0).unwrap();
        plain.fit(&x, &y).unwrap();
        assert_eq!(plain.predict_one(&query).unwrap(), 10.0);
        let mut scaled = KnnRegressor::new(1, Weighting::Uniform, 2.0)
            .unwrap()
            .with_feature_scaling(vec![1.0, 3.0])
            .unwrap();
        scaled.fit(&x, &y).unwrap();
        assert_eq!(scaled.predict_one(&query).unwrap(), 20.0);
    }

    #[test]
    fn hyperparameter_validation() {
        assert!(KnnRegressor::new(0, Weighting::Uniform, 2.0).is_err());
        assert!(KnnRegressor::new(3, Weighting::Uniform, 0.5).is_err());
        assert!(KnnRegressor::new(3, Weighting::Uniform, f64::NAN).is_err());
        assert!(KnnRegressor::new(1, Weighting::Uniform, 2.0)
            .unwrap()
            .with_feature_scaling(vec![-1.0])
            .is_err());
    }

    #[test]
    fn lifecycle_errors() {
        let knn = KnnRegressor::paper_tuned();
        assert_eq!(knn.predict_one(&[1.0, 2.0]), Err(MlError::NotFitted));
        let mut knn = KnnRegressor::paper_tuned();
        knn.fit(&[vec![1.0, 2.0]], &[1.0]).unwrap();
        assert!(matches!(
            knn.predict_one(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
        // Scale length must match fit dimension.
        let mut bad = KnnRegressor::new(1, Weighting::Uniform, 2.0)
            .unwrap()
            .with_feature_scaling(vec![1.0])
            .unwrap();
        assert!(bad.fit(&[vec![1.0, 2.0]], &[1.0]).is_err());
    }

    #[test]
    fn non_finite_features_are_errors_not_panics() {
        // 40 finite rows [x, y | one-hot MAC ×2]: the grouped index.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mac = f64::from(u8::from(i % 2 == 0));
                vec![(i % 8) as f64 * 0.5, (i / 8) as f64 * 0.7, mac, 1.0 - mac]
            })
            .collect();
        let y: Vec<f64> = (0..40).map(|i| -50.0 - i as f64).collect();
        let mut knn = KnnRegressor::new(16, Weighting::Distance, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        assert!(knn.uses_kdtree());
        let query = Some(MlError::NonFiniteFeature {
            row: None,
            column: 0,
        });
        assert_eq!(knn.predict_one(&[f64::NAN, 1.0, 3.0, 0.0]).err(), query);
        let batch =
            FeatureMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![f64::NAN, 1.0, 3.0, 0.0]])
                .unwrap();
        assert_eq!(knn.predict_batch(&batch).err(), query);
        // A finite value that overflows under the feature scale is caught
        // after scaling, on both sides.
        let mut scaled = KnnRegressor::new(16, Weighting::Distance, 2.0)
            .unwrap()
            .with_feature_scaling(vec![1.0, 1.0, 1e300, 1e300])
            .unwrap();
        scaled.fit(&x, &y).unwrap();
        assert_eq!(
            scaled.predict_one(&[1.0, 1.0, 1e10, 0.0]),
            Err(MlError::NonFiniteFeature {
                row: None,
                column: 2,
            })
        );

        let mut bad = x.clone();
        bad[7][1] = f64::NAN;
        let fit = Some(MlError::NonFiniteFeature {
            row: Some(7),
            column: 1,
        });
        let mut knn = KnnRegressor::new(16, Weighting::Distance, 2.0).unwrap();
        assert_eq!(knn.fit(&bad, &y).err(), fit);
        assert_eq!(
            knn.fit_batch(&FeatureMatrix::from_rows(&bad).unwrap(), &y)
                .err(),
            fit
        );
        assert_eq!(
            knn.predict_one(&[1.0, 1.0, 1.0, 0.0]),
            Err(MlError::NotFitted)
        );
        bad[7][1] = f64::INFINITY;
        assert_eq!(scaled.fit(&bad, &y).err(), fit);
    }

    #[test]
    fn paper_tuned_settings() {
        let knn = KnnRegressor::paper_tuned();
        assert_eq!(knn.k(), 3);
    }

    #[test]
    fn batch_predict() {
        let (x, y) = line_data();
        let mut knn = KnnRegressor::paper_tuned();
        knn.fit(&x, &y).unwrap();
        let preds = knn
            .predict_batch(&FeatureMatrix::from_rows(&x).unwrap())
            .unwrap();
        assert_eq!(preds.len(), x.len());
        // Exact training points reproduce their targets under distance
        // weighting.
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn predict_batch_matches_predict_one_bits() {
        // Both backends: 1-D (tree) and a scaled 10-D (brute force).
        let (x, y) = line_data();
        let mut tree = KnnRegressor::paper_tuned();
        tree.fit(&x, &y).unwrap();
        assert!(tree.uses_kdtree());
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.31 - 2.0]).collect();
        let fm = FeatureMatrix::from_rows(&queries).unwrap();
        let batch = tree.predict_batch(&fm).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(tree.predict_one(q).unwrap(), *b);
        }

        let x10: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..10)
                    .map(|j| ((i * 7 + j * 3) % 11) as f64 * 0.4)
                    .collect()
            })
            .collect();
        let y10: Vec<f64> = (0..60).map(|i| -50.0 - i as f64).collect();
        let mut brute = KnnRegressor::new(5, Weighting::Distance, 2.0)
            .unwrap()
            .with_feature_scaling((0..10).map(|j| 1.0 + j as f64 * 0.1).collect())
            .unwrap();
        brute.fit(&x10, &y10).unwrap();
        assert!(!brute.uses_kdtree());
        let queries: Vec<Vec<f64>> = (0..25)
            .map(|i| (0..10).map(|j| ((i + j) % 9) as f64 * 0.7).collect())
            .collect();
        let fm = FeatureMatrix::from_rows(&queries).unwrap();
        let batch = brute.predict_batch(&fm).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(brute.predict_one(q).unwrap(), *b);
        }
    }
}
