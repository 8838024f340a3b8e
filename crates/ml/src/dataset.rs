//! Feature/target datasets and deterministic splitting.
//!
//! §III-B: "the preprocessed data was split into a training (75%) and test
//! (25%) sets. For those estimators that require an additional validation
//! set for tuning their hyperparameters, the validation set was taken out
//! of the training set."

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{validate_xy, FeatureMatrix, MlError};

/// A feature matrix with aligned targets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// Feature rows.
    pub x: Vec<Vec<f64>>,
    /// Targets, one per row.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset after validating shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] for empty, ragged, or mismatched input.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self, MlError> {
        validate_xy(&x, &y)?;
        Ok(Dataset { x, y })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Shuffles the row indices with `rng` and splits them into
    /// `(train, test)` with the given training fraction — the paper's 75/25
    /// split uses `train_fraction = 0.75`. [`Dataset::gather`] copies either
    /// half into the flat rows an estimator fits on.
    ///
    /// Both halves are guaranteed non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] when the fraction would
    /// leave either side empty (needs at least 2 rows and a fraction in
    /// `(0, 1)`).
    pub fn split_indices<R: Rng>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> Result<(Vec<usize>, Vec<usize>), MlError> {
        if !(0.0 < train_fraction && train_fraction < 1.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "train_fraction",
                reason: "must be strictly between 0 and 1",
            });
        }
        if self.len() < 2 {
            return Err(MlError::InvalidHyperparameter {
                name: "train_fraction",
                reason: "need at least 2 rows to split",
            });
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_train =
            ((self.len() as f64 * train_fraction).round() as usize).clamp(1, self.len() - 1);
        let test = idx.split_off(n_train);
        Ok((idx, test))
    }

    /// Splits into `(train, test)` datasets: the rows of
    /// [`Dataset::split_indices`]' two halves, copied.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataset::split_indices`].
    pub fn train_test_split<R: Rng>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> Result<(Dataset, Dataset), MlError> {
        let (train, test) = self.split_indices(train_fraction, rng)?;
        let take = |ids: &[usize]| Dataset {
            x: ids.iter().map(|&i| self.x[i].clone()).collect(),
            y: ids.iter().map(|&i| self.y[i]).collect(),
        };
        Ok((take(&train), take(&test)))
    }

    /// Copies the rows at `indices`, in that order, into one flat
    /// [`FeatureMatrix`] beside their targets: the single copy that a split
    /// or a fold makes for [`crate::Regressor::fit_batch`] and
    /// [`crate::Regressor::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds, or if the rows are not all of
    /// one non-zero width, which [`Dataset::new`] checks.
    pub fn gather(&self, indices: &[usize]) -> (FeatureMatrix, Vec<f64>) {
        let mut x = FeatureMatrix::with_capacity(self.dim(), indices.len());
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            x.push_row(&self.x[i]);
            y.push(self.y[i]);
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        Dataset::new(
            (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect(),
            (0..n).map(|i| i as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn split_sizes_75_25() {
        let d = toy(100);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.train_test_split(0.75, &mut rng).unwrap();
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        assert_eq!(train.dim(), 2);
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy(40);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = d.train_test_split(0.75, &mut rng).unwrap();
        let mut targets: Vec<f64> = train.y.iter().chain(test.y.iter()).copied().collect();
        targets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(targets, expected, "every row lands exactly once");
        // Rows stay aligned with their targets.
        for (row, &t) in train.x.iter().zip(&train.y) {
            assert_eq!(row[0], t);
        }
    }

    #[test]
    fn split_is_seeded() {
        let d = toy(30);
        let a = d
            .train_test_split(0.5, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let b = d
            .train_test_split(0.5, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(a.0, b.0);
        let c = d
            .train_test_split(0.5, &mut StdRng::seed_from_u64(4))
            .unwrap();
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn split_never_empties_a_side() {
        let d = toy(3);
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = d.train_test_split(0.99, &mut rng).unwrap();
        assert!(!train.is_empty());
        assert!(!test.is_empty());
    }

    #[test]
    fn split_rejects_bad_input() {
        let d = toy(10);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(d.train_test_split(0.0, &mut rng).is_err());
        assert!(d.train_test_split(1.0, &mut rng).is_err());
        assert!(toy(1).train_test_split(0.5, &mut rng).is_err());
    }

    #[test]
    fn construction_validates() {
        assert!(Dataset::new(vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(Dataset::new(vec![], vec![]).is_err());
    }

    #[test]
    fn split_indices_gather_what_train_test_split_copies() {
        let d = toy(37);
        for seed in [0u64, 1, 7, 42] {
            let (train, test) = d
                .train_test_split(0.75, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let (train_idx, test_idx) = d
                .split_indices(0.75, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            for (idx, half) in [(train_idx, train), (test_idx, test)] {
                let (x, y) = d.gather(&idx);
                assert_eq!(x, FeatureMatrix::from_rows(&half.x).unwrap(), "seed {seed}");
                assert_eq!(y, half.y, "seed {seed}");
            }
        }
    }

    #[test]
    fn gather_keeps_index_order() {
        let d = toy(12);
        let (x, y) = d.gather(&[11, 2, 7, 2]);
        assert_eq!(y, vec![11.0, 2.0, 7.0, 2.0]);
        assert_eq!(x.rows(), 4);
        assert_eq!(x.row(0), &[11.0, 22.0]);
        assert_eq!(x.row(1), &[2.0, 4.0]);
        assert_eq!(x.row(2), &[7.0, 14.0]);
        assert_eq!(x.row(3), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_panics_on_an_out_of_bounds_index() {
        let d = toy(3);
        let _ = d.gather(&[0, 3]);
    }
}
