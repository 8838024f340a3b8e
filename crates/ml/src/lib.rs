//! From-scratch machine learning and geostatistics for REM prediction.
//!
//! §III-B of the paper trains several estimators on the collected
//! `(x, y, z, one-hot MAC, one-hot channel) → RSS` samples and compares
//! their RMSE on a 75/25 split (Figure 8):
//!
//! * a **baseline** that "always returns the mean per MAC address"
//!   ([`baseline::GroupMeanBaseline`]);
//! * **kNN regressors** ([`knn::KnnRegressor`]) with Minkowski metric,
//!   distance weighting, grid-searched `k`, optionally with the one-hot MAC
//!   block scaled ×3, plus a **per-MAC ensemble** ([`ensemble`]);
//! * a **neural network** ([`mlp::Mlp`]): one 16-node sigmoid hidden layer,
//!   linear output, Adam.
//!
//! The Rust ecosystem offers no scikit-learn, so everything here — KD-trees,
//! backprop, Adam, grid search, k-fold CV — is implemented from scratch on
//! `aerorem-numerics` (see `DESIGN.md` §2).
//!
//! Beyond the paper, the crate ships the geostatistical interpolators the
//! REM community usually reaches for: **inverse-distance weighting**
//! ([`idw`]) and **ordinary kriging** with variogram fitting ([`kriging`])
//! — used as ablation baselines in the benches.
//!
//! # Examples
//!
//! ```
//! use aerorem_ml::knn::{KnnRegressor, Weighting};
//! use aerorem_ml::Regressor;
//!
//! # fn main() -> Result<(), aerorem_ml::MlError> {
//! let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let y = vec![0.0, 1.0, 2.0, 3.0];
//! let mut knn = KnnRegressor::new(2, Weighting::Distance, 2.0)?;
//! knn.fit(&x, &y)?;
//! let pred = knn.predict_one(&[1.4])?;
//! assert!((pred - 1.4).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod crossval;
pub mod dataset;
pub mod ensemble;
pub mod gridsearch;
pub mod idw;
pub mod kdtree;
pub mod knn;
pub mod kriging;
pub mod mlp;
pub mod preprocess;

use std::fmt;

pub use aerorem_numerics::FeatureMatrix;

/// Error type shared by all estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Predict called before fit.
    NotFitted,
    /// The training set was empty.
    EmptyTrainingSet,
    /// Feature dimensions disagree (between rows, or fit vs predict).
    DimensionMismatch {
        /// Expected feature count.
        expected: usize,
        /// Found feature count.
        found: usize,
    },
    /// A hyperparameter was out of its valid range.
    InvalidHyperparameter {
        /// Which hyperparameter.
        name: &'static str,
        /// Why it is invalid.
        reason: &'static str,
    },
    /// The targets/features length mismatch.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of targets.
        targets: usize,
    },
    /// A numerical routine failed (singular kriging system, NaN loss, …).
    Numerical(String),
    /// A feature value is NaN or infinite, which no distance can rank.
    NonFiniteFeature {
        /// The training row, or `None` for a query row.
        row: Option<usize>,
        /// The column, after any feature scaling.
        column: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::NotFitted => write!(f, "estimator used before fit"),
            MlError::EmptyTrainingSet => write!(f, "training set is empty"),
            MlError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, found {found}"
                )
            }
            MlError::InvalidHyperparameter { name, reason } => {
                write!(f, "invalid hyperparameter {name}: {reason}")
            }
            MlError::LengthMismatch { rows, targets } => {
                write!(f, "{rows} feature rows but {targets} targets")
            }
            MlError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            MlError::NonFiniteFeature {
                row: Some(row),
                column,
            } => write!(
                f,
                "non-finite feature in training row {row}, column {column}"
            ),
            MlError::NonFiniteFeature { row: None, column } => {
                write!(f, "non-finite feature in query column {column}")
            }
        }
    }
}

impl std::error::Error for MlError {}

/// A regression estimator: fit on rows, predict scalars.
///
/// Each estimator implements one fit, [`Regressor::fit_batch`], over a
/// contiguous [`FeatureMatrix`]; the nested-row [`Regressor::fit`] copies
/// its rows into one and calls it, so the two leave the same state by
/// construction.
///
/// `Send + Sync` is a supertrait so fitted models can be shared across
/// worker threads — the REM generator predicts every lattice voxel in
/// parallel from one `&dyn Regressor`. All estimators here are plain
/// value types, so the bound costs implementors nothing.
pub trait Regressor: Send + Sync {
    /// Fits the estimator to the rows of `xs` and targets `y` — the one fit
    /// each estimator implements, fed by [`dataset::Dataset::gather`] in
    /// grid search, cross-validation and the Figure-8 comparison.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] for empty or mismatched input; the neighbour
    /// estimators (kNN, IDW, kriging) and the mean-per-MAC baseline return
    /// [`MlError::NonFiniteFeature`] for a NaN or infinite feature they
    /// rank on.
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError>;

    /// Fits the estimator to nested feature rows `x` and targets `y`: the
    /// rows are checked, copied into a [`FeatureMatrix`] and handed to
    /// [`Regressor::fit_batch`].
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`], [`MlError::LengthMismatch`] or
    /// [`MlError::DimensionMismatch`] for empty, mismatched, zero-width or
    /// ragged rows; otherwise the errors of [`Regressor::fit_batch`].
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), MlError> {
        validate_xy(x, y)?;
        let xs = FeatureMatrix::from_rows(x).expect("validated rows");
        self.fit_batch(&xs, y)
    }

    /// Predicts the target for one feature row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before fit and
    /// [`MlError::DimensionMismatch`] for wrong-width rows; the neighbour
    /// estimators and the mean-per-MAC baseline return
    /// [`MlError::NonFiniteFeature`] for a NaN or infinite feature they
    /// rank on.
    fn predict_one(&self, x: &[f64]) -> Result<f64, MlError>;

    /// Predicts every row of a contiguous [`FeatureMatrix`] — the batched
    /// inference hot path.
    ///
    /// The contract is strict: implementations must return **exactly** the
    /// bits that mapping [`Regressor::predict_one`] over the rows would
    /// produce. Batching is a performance optimization (buffer reuse, flat
    /// scans, matrix-level kernels), never a numerical one; tests/properties.rs
    /// enforces this for every estimator in the zoo. The default
    /// implementation simply maps `predict_one`.
    ///
    /// # Errors
    ///
    /// Propagates the first row error (in row order).
    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }
}

/// Validates a [`FeatureMatrix`] + target vector pair, returning the
/// feature dimension. The matrix guarantees rectangular non-ragged rows by
/// construction, so only emptiness and length alignment need checking.
pub(crate) fn validate_matrix_y(xs: &FeatureMatrix, y: &[f64]) -> Result<usize, MlError> {
    if xs.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if xs.rows() != y.len() {
        return Err(MlError::LengthMismatch {
            rows: xs.rows(),
            targets: y.len(),
        });
    }
    Ok(xs.dim())
}

/// Checks that every training row is finite, for fits that rank their
/// rows without [`kdtree::NeighborIndex`], whose build checks its own.
///
/// # Errors
///
/// [`MlError::NonFiniteFeature`] for the first NaN or infinite value.
pub(crate) fn finite_rows(rows: &FeatureMatrix) -> Result<(), MlError> {
    match first_non_finite(rows.as_slice()) {
        None => Ok(()),
        Some(at) => Err(MlError::NonFiniteFeature {
            row: Some(at / rows.dim()),
            column: at % rows.dim(),
        }),
    }
}

/// Checks that one row is finite: training row `row`, or a query row when
/// `row` is `None`.
///
/// # Errors
///
/// [`MlError::NonFiniteFeature`] for the first NaN or infinite value.
pub(crate) fn finite_row(row: Option<usize>, values: &[f64]) -> Result<(), MlError> {
    match first_non_finite(values) {
        None => Ok(()),
        Some(column) => Err(MlError::NonFiniteFeature { row, column }),
    }
}

/// Position of the first NaN or infinite value. The all-finite case is one
/// branch-free pass over eight independent sums: `v * 0.0` is `±0` for a
/// finite `v` and NaN otherwise, and a NaN survives every addition.
fn first_non_finite(values: &[f64]) -> Option<usize> {
    let chunks = values.chunks_exact(8);
    let tail = chunks.remainder().iter().fold(0.0, |a, v| a + v * 0.0);
    let mut acc = [0.0f64; 8];
    for chunk in chunks {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v * 0.0;
        }
    }
    if acc.iter().sum::<f64>() + tail == 0.0 {
        return None;
    }
    values.iter().position(|v| !v.is_finite())
}

/// Validates a feature matrix + target vector pair, returning the feature
/// dimension.
pub(crate) fn validate_xy(x: &[Vec<f64>], y: &[f64]) -> Result<usize, MlError> {
    if x.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(MlError::LengthMismatch {
            rows: x.len(),
            targets: y.len(),
        });
    }
    let dim = x[0].len();
    if dim == 0 {
        return Err(MlError::DimensionMismatch {
            expected: 1,
            found: 0,
        });
    }
    for row in x {
        if row.len() != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                found: row.len(),
            });
        }
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_xy_catches_problems() {
        assert_eq!(validate_xy(&[], &[]), Err(MlError::EmptyTrainingSet));
        assert_eq!(
            validate_xy(&[vec![1.0]], &[1.0, 2.0]),
            Err(MlError::LengthMismatch {
                rows: 1,
                targets: 2
            })
        );
        assert_eq!(
            validate_xy(&[vec![1.0], vec![1.0, 2.0]], &[0.0, 0.0]),
            Err(MlError::DimensionMismatch {
                expected: 1,
                found: 2
            })
        );
        assert_eq!(
            validate_xy(&[vec![]], &[0.0]),
            Err(MlError::DimensionMismatch {
                expected: 1,
                found: 0
            })
        );
        assert_eq!(validate_xy(&[vec![1.0, 2.0]], &[0.0]), Ok(2));
    }

    #[test]
    fn error_displays() {
        assert!(MlError::NotFitted.to_string().contains("before fit"));
        assert!(MlError::Numerical("nan".into()).to_string().contains("nan"));
        let e = MlError::InvalidHyperparameter {
            name: "k",
            reason: "must be positive",
        };
        assert!(e.to_string().contains('k'));
    }
}
