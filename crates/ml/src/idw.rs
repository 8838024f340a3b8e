//! Inverse-distance-weighted (Shepard) interpolation.
//!
//! Not in the paper's estimator lineup, but the simplest spatial
//! interpolator the REM literature uses — included as an extension and as
//! an ablation baseline for the Figure-8 bench (see `DESIGN.md` §6).

use crate::kdtree::{IndexScratch, NeighborIndex};
use crate::{finite_row, validate_matrix_y, FeatureMatrix, MlError, Regressor};

/// Shepard interpolation: `ŷ(q) = Σ wᵢ yᵢ / Σ wᵢ` with `wᵢ = 1/dᵢᵖ`
/// over the `max_neighbors` nearest samples.
///
/// The fitted samples live in a [`NeighborIndex`], which finds each
/// prediction's neighbours. The batched prediction path reuses its search
/// and neighbour buffers across queries.
///
/// # Examples
///
/// ```
/// use aerorem_ml::idw::IdwInterpolator;
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// let x = vec![vec![0.0], vec![2.0]];
/// let y = vec![0.0, 10.0];
/// let mut idw = IdwInterpolator::new(2.0, 2)?;
/// idw.fit(&x, &y)?;
/// assert_eq!(idw.predict_one(&[1.0])?, 5.0); // symmetric point
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IdwInterpolator {
    power: f64,
    max_neighbors: usize,
    index: Option<NeighborIndex>,
    y: Vec<f64>,
}

impl IdwInterpolator {
    /// Creates an interpolator with distance power `p` (2 is classic) that
    /// weighs the `max_neighbors` nearest samples.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for non-positive or
    /// non-finite `power`, or a zero neighbour cap.
    pub fn new(power: f64, max_neighbors: usize) -> Result<Self, MlError> {
        if power <= 0.0 || !power.is_finite() {
            return Err(MlError::InvalidHyperparameter {
                name: "power",
                reason: "must be positive and finite",
            });
        }
        if max_neighbors == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "max_neighbors",
                reason: "must be at least 1",
            });
        }
        Ok(IdwInterpolator {
            power,
            max_neighbors,
            index: None,
            y: Vec::new(),
        })
    }

    /// Shared prediction core: both the per-item and batched paths run this
    /// exact code, so they agree bit-for-bit. `scratch` and `nn` are
    /// reusable buffers.
    fn predict_with_scratch(
        &self,
        q: &[f64],
        scratch: &mut IndexScratch,
        nn: &mut Vec<(usize, f64)>,
    ) -> Result<f64, MlError> {
        let index = self.index.as_ref().ok_or(MlError::NotFitted)?;
        let rows = index.rows();
        if q.len() != rows.dim() {
            return Err(MlError::DimensionMismatch {
                expected: rows.dim(),
                found: q.len(),
            });
        }
        finite_row(None, q)?;
        index.nearest_into(q, self.max_neighbors, scratch, nn);
        // Exact hits dominate.
        let mut exact_sum = 0.0;
        let mut exact_n = 0usize;
        for &(i, d) in nn.iter() {
            if d == 0.0 {
                exact_sum += self.y[i];
                exact_n += 1;
            }
        }
        if exact_n > 0 {
            return Ok(exact_sum / exact_n as f64);
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for &(i, d) in nn.iter() {
            let w = d.powf(-self.power);
            num += w * self.y[i];
            den += w;
        }
        Ok(num / den)
    }
}

impl Regressor for IdwInterpolator {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        validate_matrix_y(xs, y)?;
        self.index = Some(NeighborIndex::try_new(xs.clone())?);
        self.y = y.to_vec();
        Ok(())
    }

    fn predict_one(&self, q: &[f64]) -> Result<f64, MlError> {
        self.predict_with_scratch(q, &mut IndexScratch::default(), &mut Vec::new())
    }

    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        let mut scratch = IndexScratch::default();
        let mut nn = Vec::new();
        xs.iter()
            .map(|q| self.predict_with_scratch(q, &mut scratch, &mut nn))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_hit_returns_sample() {
        let mut idw = IdwInterpolator::new(2.0, 2).unwrap();
        idw.fit(&[vec![0.0], vec![1.0]], &[3.0, 7.0]).unwrap();
        assert_eq!(idw.predict_one(&[1.0]).unwrap(), 7.0);
    }

    #[test]
    fn predictions_bounded_by_sample_range() {
        let mut idw = IdwInterpolator::new(2.0, 10).unwrap();
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| (i % 4) as f64).collect();
        idw.fit(&x, &y).unwrap();
        for q in [0.3, 4.7, 11.0, -3.0] {
            let p = idw.predict_one(&[q]).unwrap();
            assert!((0.0..=3.0).contains(&p), "IDW is a convex combination");
        }
    }

    #[test]
    fn higher_power_localizes() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0]];
        let y = vec![0.0, 0.0, 100.0];
        let q = [0.5];
        let mut soft = IdwInterpolator::new(1.0, 3).unwrap();
        let mut sharp = IdwInterpolator::new(6.0, 3).unwrap();
        soft.fit(&x, &y).unwrap();
        sharp.fit(&x, &y).unwrap();
        let p_soft = soft.predict_one(&q).unwrap();
        let p_sharp = sharp.predict_one(&q).unwrap();
        assert!(
            p_sharp < p_soft,
            "sharp ({p_sharp}) should ignore the far sample more than soft ({p_soft})"
        );
    }

    #[test]
    fn neighbor_cap_limits_influence() {
        let x = vec![vec![0.0], vec![1.0], vec![100.0]];
        let y = vec![0.0, 1.0, 1000.0];
        let mut capped = IdwInterpolator::new(2.0, 2).unwrap();
        capped.fit(&x, &y).unwrap();
        // The far outlier is excluded entirely.
        let p = capped.predict_one(&[0.5]).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn predict_batch_matches_predict_one_bits() {
        for cap in [25, 3] {
            let mut idw = IdwInterpolator::new(2.0, cap).unwrap();
            let x: Vec<Vec<f64>> = (0..25)
                .map(|i| vec![(i % 5) as f64 * 0.8, (i / 5) as f64 * 1.1])
                .collect();
            let y: Vec<f64> = (0..25).map(|i| -60.0 - (i % 9) as f64).collect();
            idw.fit(&x, &y).unwrap();
            let queries: Vec<Vec<f64>> = (0..15)
                .map(|i| vec![i as f64 * 0.37, 4.0 - i as f64 * 0.21])
                .collect();
            let fm = FeatureMatrix::from_rows(&queries).unwrap();
            let batch = idw.predict_batch(&fm).unwrap();
            for (q, b) in queries.iter().zip(&batch) {
                assert_eq!(idw.predict_one(q).unwrap(), *b, "cap {cap}");
            }
        }
    }

    #[test]
    fn non_finite_features_are_errors_not_panics() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 * 0.5, (i / 8) as f64 * 0.7, 1.0])
            .collect();
        let y: Vec<f64> = (0..40).map(|i| -50.0 - i as f64).collect();
        let mut idw = IdwInterpolator::new(2.0, 16).unwrap();
        idw.fit(&x, &y).unwrap();
        let query = Some(MlError::NonFiniteFeature {
            row: None,
            column: 1,
        });
        assert_eq!(idw.predict_one(&[1.0, f64::INFINITY, 1.0]).err(), query);
        let batch =
            FeatureMatrix::from_rows(&[vec![1.0, 1.0, 1.0], vec![1.0, f64::NAN, 1.0]]).unwrap();
        assert_eq!(idw.predict_batch(&batch).err(), query);

        let mut bad = x.clone();
        bad[39][2] = f64::NAN;
        let fit = Some(MlError::NonFiniteFeature {
            row: Some(39),
            column: 2,
        });
        let mut idw = IdwInterpolator::new(2.0, 16).unwrap();
        assert_eq!(idw.fit(&bad, &y).err(), fit);
        assert_eq!(
            idw.fit_batch(&FeatureMatrix::from_rows(&bad).unwrap(), &y)
                .err(),
            fit
        );
        assert_eq!(idw.predict_one(&[1.0, 1.0, 1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn validation() {
        assert!(IdwInterpolator::new(0.0, 1).is_err());
        assert!(IdwInterpolator::new(f64::NAN, 1).is_err());
        assert!(IdwInterpolator::new(2.0, 0).is_err());
        let idw = IdwInterpolator::new(2.0, 1).unwrap();
        assert_eq!(idw.predict_one(&[0.0]), Err(MlError::NotFitted));
        let mut idw = IdwInterpolator::new(2.0, 1).unwrap();
        idw.fit(&[vec![0.0, 1.0]], &[1.0]).unwrap();
        assert!(matches!(
            idw.predict_one(&[0.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
