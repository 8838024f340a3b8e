//! k-fold cross-validation.
//!
//! [`cross_validate_with`] evaluates folds under an [`ExecPolicy`]: the fold
//! assignment is drawn from the caller's RNG before any training starts, each
//! fold copies its train/test rows once into flat storage with
//! [`Dataset::gather`], and models train through [`Regressor::fit_batch`]
//! and score through [`Regressor::predict_batch`]. Fold results are
//! collected in fold order, so both policies return bit-identical RMSE
//! vectors.

use rand::seq::SliceRandom;
use rand::Rng;

use aerorem_numerics::exec::{self, ExecPolicy};
use aerorem_numerics::stats;

use crate::dataset::Dataset;
use crate::{MlError, Regressor};

/// Generates `k` folds of row indices after a seeded shuffle. Every row
/// appears in exactly one fold; fold sizes differ by at most one.
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] when `k < 2` or `k > n`.
pub fn kfold_indices<R: Rng>(n: usize, k: usize, rng: &mut R) -> Result<Vec<Vec<usize>>, MlError> {
    if k < 2 || k > n {
        return Err(MlError::InvalidHyperparameter {
            name: "k_folds",
            reason: "need 2 <= k <= n",
        });
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut folds = vec![Vec::new(); k];
    for (i, row) in idx.into_iter().enumerate() {
        folds[i % k].push(row);
    }
    Ok(folds)
}

/// Runs k-fold cross-validation of a regressor builder, returning the
/// per-fold RMSEs.
///
/// `make` is called once per fold so each fold trains a fresh model.
///
/// # Errors
///
/// Propagates fold-index and estimator errors.
///
/// # Examples
///
/// ```
/// use aerorem_ml::crossval::cross_validate;
/// use aerorem_ml::dataset::Dataset;
/// use aerorem_ml::knn::{KnnRegressor, Weighting};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// let data = Dataset::new(
///     (0..20).map(|i| vec![i as f64]).collect(),
///     (0..20).map(|i| i as f64).collect(),
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rmses = cross_validate(&data, 4, &mut rng, || KnnRegressor::paper_tuned())?;
/// assert_eq!(rmses.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn cross_validate<M, F, R>(
    data: &Dataset,
    k: usize,
    rng: &mut R,
    make: F,
) -> Result<Vec<f64>, MlError>
where
    M: Regressor,
    F: Fn() -> M + Sync,
    R: Rng,
{
    cross_validate_with(data, k, rng, make, ExecPolicy::default())
}

/// [`cross_validate`] with an explicit [`ExecPolicy`].
///
/// Folds are independent once the seeded fold assignment is fixed, so they
/// can run concurrently; results come back in fold order either way, and
/// every fold trains on the exact rows (in the exact order) the serial loop
/// would use — the returned RMSEs are bit-identical across policies.
///
/// # Errors
///
/// Propagates fold-index and estimator errors; with several failing folds
/// the error for the lowest fold index is returned.
pub fn cross_validate_with<M, F, R>(
    data: &Dataset,
    k: usize,
    rng: &mut R,
    make: F,
    policy: ExecPolicy,
) -> Result<Vec<f64>, MlError>
where
    M: Regressor,
    F: Fn() -> M + Sync,
    R: Rng,
{
    let folds = kfold_indices(data.len(), k, rng)?;
    let folds = &folds;
    let make = &make;
    // One fold = one chunk: each fold's fit dwarfs the chunk bookkeeping.
    let pool = exec::ScratchPool::new(|| ());
    let fold_ids: Vec<usize> = (0..k).collect();
    exec::try_map_vec_with(
        policy,
        exec::Granularity::per_item(),
        &pool,
        &fold_ids,
        |(), &held_out| {
            let train_idx: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != held_out)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let (train_x, train_y) = data.gather(&train_idx);
            let (test_x, test_y) = data.gather(&folds[held_out]);
            let mut model = make();
            model.fit_batch(&train_x, &train_y)?;
            let preds = model.predict_batch(&test_x)?;
            Ok(stats::rmse(&preds, &test_y))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::GlobalMean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn folds_partition_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let folds = kfold_indices(23, 5, &mut rng).unwrap();
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
        // Balanced within one.
        let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn fold_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(kfold_indices(10, 1, &mut rng).is_err());
        assert!(kfold_indices(3, 4, &mut rng).is_err());
        assert!(kfold_indices(4, 4, &mut rng).is_ok());
    }

    #[test]
    fn cv_on_constant_targets_is_zero_error() {
        let data = Dataset::new((0..12).map(|i| vec![i as f64]).collect(), vec![5.0; 12]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rmses = cross_validate(&data, 3, &mut rng, GlobalMean::new).unwrap();
        for r in rmses {
            assert!(r < 1e-12);
        }
    }

    #[test]
    fn cv_policies_agree_bit_for_bit() {
        let data = Dataset::new(
            (0..40).map(|i| vec![i as f64, (i % 5) as f64]).collect(),
            (0..40).map(|i| -60.0 - (i % 9) as f64 * 1.3).collect(),
        )
        .unwrap();
        let make = crate::knn::KnnRegressor::paper_tuned;
        let serial = cross_validate_with(
            &data,
            4,
            &mut StdRng::seed_from_u64(11),
            make,
            ExecPolicy::Serial,
        )
        .unwrap();
        let parallel = cross_validate_with(
            &data,
            4,
            &mut StdRng::seed_from_u64(11),
            make,
            ExecPolicy::Parallel,
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cv_is_seeded() {
        let data = Dataset::new(
            (0..30).map(|i| vec![i as f64]).collect(),
            (0..30).map(|i| (i % 7) as f64).collect(),
        )
        .unwrap();
        let a = cross_validate(&data, 5, &mut StdRng::seed_from_u64(4), GlobalMean::new).unwrap();
        let b = cross_validate(&data, 5, &mut StdRng::seed_from_u64(4), GlobalMean::new).unwrap();
        assert_eq!(a, b);
    }
}
