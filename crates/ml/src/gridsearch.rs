//! Hyperparameter grid search.
//!
//! §III-B tunes every estimator "using a grid search considering an
//! exhaustive set of hyperparameters", with "the validation set … taken out
//! of the training set". [`grid_search`] does exactly that over any list of
//! named candidate builders. Candidates are independent, so
//! [`grid_search_with`] evaluates them under an [`ExecPolicy`]: the split is
//! drawn by [`Dataset::split_indices`] and copied **once** into flat
//! [`FeatureMatrix`] fit/validation sets by [`Dataset::gather`], shared by
//! every candidate, and each candidate trains through
//! [`Regressor::fit_batch`] and scores through [`Regressor::predict_batch`].
//! Both policies produce bit-identical rankings because candidate
//! evaluation never communicates and the final sort is a stable serial
//! pass.

use rand::Rng;

use aerorem_numerics::exec::{self, ExecPolicy};
use aerorem_numerics::stats;
#[cfg(doc)]
use aerorem_numerics::FeatureMatrix;

use crate::dataset::Dataset;
use crate::{MlError, Regressor};

/// One evaluated grid-search candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Human-readable candidate description, e.g. `"k=16 w=distance p=2"`.
    pub name: String,
    /// Validation RMSE.
    pub rmse: f64,
}

/// Result of a grid search: every candidate scored, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Scores sorted ascending by RMSE (best first). Candidates that failed
    /// to fit are excluded.
    pub scores: Vec<CandidateScore>,
}

impl GridSearchResult {
    /// The winning candidate.
    ///
    /// Returns `None` when every candidate failed.
    pub fn best(&self) -> Option<&CandidateScore> {
        self.scores.first()
    }
}

/// A named estimator factory for the search grid.
pub type Candidate<M> = (String, Box<dyn Fn() -> M + Sync>);

/// Evaluates every candidate on a validation split carved out of the
/// training data, under the default execution policy.
///
/// `val_fraction` of `train` becomes the validation set (the paper's
/// protocol); each candidate is fitted on the remainder and scored by
/// validation RMSE. Candidates whose fit or predict fails are dropped from
/// the ranking (a grid may legitimately contain configurations that cannot
/// fit a given dataset).
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] for an empty candidate list
/// or a degenerate split, [`MlError::Numerical`] if *all* candidates failed.
pub fn grid_search<M, R>(
    candidates: Vec<Candidate<M>>,
    train: &Dataset,
    val_fraction: f64,
    rng: &mut R,
) -> Result<GridSearchResult, MlError>
where
    M: Regressor + Send,
    R: Rng,
{
    grid_search_with(candidates, train, val_fraction, rng, ExecPolicy::default())
}

/// [`grid_search`] with an explicit [`ExecPolicy`].
///
/// The ranking is bit-identical across policies: the validation split is
/// drawn from `rng` before any candidate work starts, every candidate sees
/// the same flat fit/validation matrices, and scores are sorted by a stable
/// serial pass.
///
/// # Errors
///
/// Same contract as [`grid_search`].
pub fn grid_search_with<M, R>(
    candidates: Vec<Candidate<M>>,
    train: &Dataset,
    val_fraction: f64,
    rng: &mut R,
    policy: ExecPolicy,
) -> Result<GridSearchResult, MlError>
where
    M: Regressor,
    R: Rng,
{
    if candidates.is_empty() {
        return Err(MlError::InvalidHyperparameter {
            name: "candidates",
            reason: "grid must contain at least one candidate",
        });
    }
    let (fit_idx, val_idx) = train.split_indices(1.0 - val_fraction, rng)?;
    let (fit_x, fit_y) = train.gather(&fit_idx);
    let (val_x, val_y) = train.gather(&val_idx);

    // One candidate = one chunk: a fit + validation pass is orders of
    // magnitude heavier than the executor's per-chunk bookkeeping, and
    // per-item chunks give the dynamic claimer maximal load balance across
    // heterogeneous model costs (an MLP fit vs a kNN tree build).
    let pool = exec::ScratchPool::new(|| ());
    let results: Vec<Option<CandidateScore>> = exec::map_vec_with(
        policy,
        exec::Granularity::per_item(),
        &pool,
        &candidates,
        |(), (name, make)| {
            let mut model = make();
            model.fit_batch(&fit_x, &fit_y).ok()?;
            let preds = model.predict_batch(&val_x).ok()?;
            Some(CandidateScore {
                name: name.clone(),
                rmse: stats::rmse(&preds, &val_y),
            })
        },
    );

    let mut scores: Vec<CandidateScore> = results.into_iter().flatten().collect();
    if scores.is_empty() {
        return Err(MlError::Numerical(
            "every grid-search candidate failed to fit".into(),
        ));
    }
    scores.sort_by(|a, b| a.rmse.partial_cmp(&b.rmse).expect("finite RMSE"));
    Ok(GridSearchResult { scores })
}

/// Builds the paper's kNN hyperparameter grid: `k ∈ ks`,
/// `weights ∈ {uniform, distance}`, `p ∈ {1, 2}`.
pub fn knn_grid(ks: &[usize]) -> Vec<Candidate<crate::knn::KnnRegressor>> {
    use crate::knn::{KnnRegressor, Weighting};
    let mut out: Vec<Candidate<crate::knn::KnnRegressor>> = Vec::new();
    for &k in ks {
        for (wname, w) in [
            ("uniform", Weighting::Uniform),
            ("distance", Weighting::Distance),
        ] {
            for p in [1.0, 2.0] {
                let name = format!("k={k} w={wname} p={p}");
                out.push((
                    name,
                    Box::new(move || {
                        KnnRegressor::new(k, w, p).expect("grid parameters are valid")
                    }),
                ));
            }
        }
    }
    out
}

/// Builds the paper's MLP grid: "multiple hidden layers with a varying
/// amount of nodes … different activation functions and optimizers"
/// (§III-B). Epochs are reduced relative to the final training budget so
/// the grid stays affordable.
pub fn mlp_grid() -> Vec<Candidate<crate::mlp::Mlp>> {
    use crate::mlp::{Activation, Mlp, MlpConfig, Optimizer};
    let mut out: Vec<Candidate<crate::mlp::Mlp>> = Vec::new();
    for width in [8usize, 16, 32] {
        for (aname, act) in [("sigmoid", Activation::Sigmoid), ("relu", Activation::Relu)] {
            for (oname, opt) in [
                ("adam", Optimizer::adam(0.01)),
                ("sgd", Optimizer::Sgd { lr: 0.01 }),
            ] {
                let name = format!("mlp {width}x{aname} {oname}");
                out.push((
                    name,
                    Box::new(move || {
                        Mlp::new(MlpConfig {
                            hidden: vec![(width, act)],
                            optimizer: opt,
                            epochs: 120,
                            ..MlpConfig::paper_tuned()
                        })
                    }),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnRegressor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_line(n: usize) -> Dataset {
        // y = 2x with a deterministic "noise" wiggle.
        Dataset::new(
            (0..n).map(|i| vec![i as f64 / 10.0]).collect(),
            (0..n)
                .map(|i| 2.0 * (i as f64 / 10.0) + ((i * 7) % 3) as f64 * 0.05)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn search_ranks_candidates() {
        let data = noisy_line(80);
        let mut rng = StdRng::seed_from_u64(1);
        let result = grid_search(knn_grid(&[1, 3, 8]), &data, 0.25, &mut rng).unwrap();
        assert_eq!(result.scores.len(), 12);
        // Sorted ascending.
        for w in result.scores.windows(2) {
            assert!(w[0].rmse <= w[1].rmse);
        }
        let best = result.best().unwrap();
        assert!(best.rmse < 0.5, "best rmse {}", best.rmse);
    }

    #[test]
    fn search_is_deterministic() {
        let data = noisy_line(60);
        let a = grid_search(
            knn_grid(&[1, 3]),
            &data,
            0.25,
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        let b = grid_search(
            knn_grid(&[1, 3]),
            &data,
            0.25,
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policies_agree_bit_for_bit() {
        let data = noisy_line(70);
        let serial = grid_search_with(
            knn_grid(&[1, 3, 8]),
            &data,
            0.25,
            &mut StdRng::seed_from_u64(9),
            ExecPolicy::Serial,
        )
        .unwrap();
        let parallel = grid_search_with(
            knn_grid(&[1, 3, 8]),
            &data,
            0.25,
            &mut StdRng::seed_from_u64(9),
            ExecPolicy::Parallel,
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_grid_rejected() {
        let data = noisy_line(10);
        let mut rng = StdRng::seed_from_u64(3);
        let empty: Vec<Candidate<KnnRegressor>> = Vec::new();
        assert!(grid_search(empty, &data, 0.25, &mut rng).is_err());
    }

    #[test]
    fn failing_candidates_are_dropped() {
        // k larger than the fit set is fine for kNN (it clamps), so use an
        // impossible feature-scaled model to force a fit error.
        let data = noisy_line(20);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cands = knn_grid(&[2]);
        cands.push((
            "broken".into(),
            Box::new(|| {
                KnnRegressor::new(1, crate::knn::Weighting::Uniform, 2.0)
                    .unwrap()
                    .with_feature_scaling(vec![1.0, 1.0, 1.0]) // wrong dim
                    .unwrap()
            }),
        ));
        let result = grid_search(cands, &data, 0.25, &mut rng).unwrap();
        assert!(result.scores.iter().all(|s| s.name != "broken"));
        assert_eq!(result.scores.len(), 4);
    }

    #[test]
    fn mlp_grid_runs_and_ranks() {
        // y = x0 + x1 on [0,1]²: every configuration can fit this, and the
        // grid search must rank them without failures.
        let data = Dataset::new(
            (0..80)
                .map(|i| vec![(i % 9) as f64 / 9.0, (i / 9) as f64 / 9.0])
                .collect(),
            (0..80)
                .map(|i| (i % 9) as f64 / 9.0 + (i / 9) as f64 / 9.0)
                .collect(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let result = grid_search(mlp_grid(), &data, 0.25, &mut rng).unwrap();
        assert_eq!(result.scores.len(), 12);
        let best = result.best().unwrap();
        assert!(best.rmse < 0.25, "best MLP rmse {}", best.rmse);
        // Adam dominates the top of the table on this budget.
        assert!(best.name.contains("adam"), "winner {}", best.name);
    }

    #[test]
    fn knn_grid_shape() {
        let grid = knn_grid(&[3, 16]);
        assert_eq!(grid.len(), 2 * 2 * 2);
        assert!(grid.iter().any(|(n, _)| n == "k=16 w=distance p=2"));
    }
}
