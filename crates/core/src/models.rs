//! The Figure-8 model zoo.
//!
//! One constructor per estimator the paper compares, plus the two
//! geostatistical extensions. [`evaluate_all`] reproduces the figure: fit on
//! 75 % of the preprocessed data, report test RMSE per model.

use rand::Rng;

use aerorem_ml::baseline::GroupMeanBaseline;
use aerorem_ml::dataset::Dataset;
use aerorem_ml::ensemble::PerGroupKnn;
use aerorem_ml::idw::IdwInterpolator;
use aerorem_ml::knn::{KnnRegressor, Weighting};
use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
use aerorem_ml::mlp::{Mlp, MlpConfig};
use aerorem_ml::{MlError, Regressor};
#[cfg(doc)]
use aerorem_ml::FeatureMatrix;
use aerorem_numerics::stats;

use crate::exec::{self, ExecPolicy};
use crate::features::FeatureLayout;

/// Every estimator in the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's baseline: mean RSS per MAC.
    MeanPerMac,
    /// kNN, k = 3, distance weights, Euclidean — the plain tuned kNN.
    Knn3,
    /// kNN with the one-hot MAC block scaled ×3 and k = 16 — the paper's
    /// best performer.
    KnnScaled16,
    /// One kNN per MAC on coordinates only.
    PerMacKnn,
    /// The tuned MLP: 16 sigmoid hidden nodes, linear output, Adam.
    Mlp16,
    /// Extension: inverse-distance weighting on coordinates + MAC block.
    Idw,
    /// Extension: ordinary kriging with an exponential variogram.
    Kriging,
}

impl ModelKind {
    /// The models evaluated in the paper's Figure 8, in its order.
    pub const PAPER_FIGURE8: [ModelKind; 5] = [
        ModelKind::MeanPerMac,
        ModelKind::Knn3,
        ModelKind::KnnScaled16,
        ModelKind::PerMacKnn,
        ModelKind::Mlp16,
    ];

    /// Paper models plus the geostatistical extensions.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::MeanPerMac,
        ModelKind::Knn3,
        ModelKind::KnnScaled16,
        ModelKind::PerMacKnn,
        ModelKind::Mlp16,
        ModelKind::Idw,
        ModelKind::Kriging,
    ];

    /// Display label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::MeanPerMac => "baseline: mean per MAC",
            ModelKind::Knn3 => "kNN (k=3, distance, p=2)",
            ModelKind::KnnScaled16 => "kNN (one-hot x3, k=16)",
            ModelKind::PerMacKnn => "kNN per MAC (xyz only)",
            ModelKind::Mlp16 => "MLP (16 sigmoid, Adam)",
            ModelKind::Idw => "IDW (extension)",
            ModelKind::Kriging => "ordinary kriging (extension)",
        }
    }

    /// Builds an unfitted estimator for this kind against a feature layout.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] when the layout cannot support the model (e.g. a
    /// degenerate MAC block).
    pub fn build(self, layout: &FeatureLayout) -> Result<Box<dyn Regressor>, MlError> {
        Ok(match self {
            ModelKind::MeanPerMac => Box::new(GroupMeanBaseline::new(layout.mac_range())?),
            ModelKind::Knn3 => Box::new(KnnRegressor::new(3, Weighting::Distance, 2.0)?),
            ModelKind::KnnScaled16 => Box::new(
                KnnRegressor::new(16, Weighting::Distance, 2.0)?
                    .with_feature_scaling(layout.mac_scale_vector(3.0))?,
            ),
            ModelKind::PerMacKnn => {
                // Group by the MAC block; the channel one-hots stay as
                // features but are constant within a MAC (an AP beacons on
                // one channel), so distances reduce to xyz as in the paper.
                Box::new(PerGroupKnn::new(
                    layout.mac_range(),
                    3,
                    Weighting::Distance,
                    2.0,
                )?)
            }
            ModelKind::Mlp16 => Box::new(Mlp::new(MlpConfig::paper_tuned())),
            ModelKind::Idw => Box::new(IdwInterpolator::new(2.0, 16)?),
            ModelKind::Kriging => Box::new(OrdinaryKriging::new(KrigingConfig::default())),
        })
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of the Figure-8 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScore {
    /// Which model.
    pub kind: ModelKind,
    /// Test RMSE in dBm.
    pub rmse_dbm: f64,
}

/// Fits and scores the given models on a 75/25 split of the dataset —
/// exactly the paper's Figure-8 protocol, under the default
/// [`ExecPolicy`]. The split is shared across models so the comparison is
/// paired.
///
/// # Errors
///
/// Propagates estimator and split errors.
pub fn evaluate_all<R: Rng>(
    kinds: &[ModelKind],
    data: &Dataset,
    layout: &FeatureLayout,
    rng: &mut R,
) -> Result<Vec<ModelScore>, MlError> {
    evaluate_all_with(kinds, data, layout, rng, ExecPolicy::default())
}

/// [`evaluate_all`] with an explicit execution policy.
///
/// The random 75/25 split is drawn *once* before any model runs; fitting
/// and scoring consume no randomness, so each model is an independent work
/// item and [`ExecPolicy::Parallel`] evaluates the zoo across worker
/// threads with results identical to the serial path (scores come back in
/// `kinds` order either way).
///
/// The split is drawn by [`Dataset::split_indices`] and copied once by
/// [`Dataset::gather`] into contiguous train/test [`FeatureMatrix`] pairs
/// shared by every model — no per-model copies. Models train through
/// [`Regressor::fit_batch`] and score through [`Regressor::predict_batch`],
/// the same batched path the REM lattice fill uses; predictions are
/// contractually bit-identical to [`Regressor::predict_one`]'s.
///
/// # Errors
///
/// Propagates estimator and split errors.
pub fn evaluate_all_with<R: Rng>(
    kinds: &[ModelKind],
    data: &Dataset,
    layout: &FeatureLayout,
    rng: &mut R,
    policy: ExecPolicy,
) -> Result<Vec<ModelScore>, MlError> {
    let (train_idx, test_idx) = data.split_indices(0.75, rng)?;
    let (train_x, train_y) = data.gather(&train_idx);
    let (test_x, test_y) = data.gather(&test_idx);
    // One model = one chunk: each fit dwarfs the executor's bookkeeping,
    // and per-item chunks balance the zoo's wildly uneven model costs.
    let pool = exec::ScratchPool::new(|| ());
    exec::try_map_vec_with(
        policy,
        exec::Granularity::per_item(),
        &pool,
        kinds,
        |(), &kind| {
            let mut model = kind.build(layout)?;
            model.fit_batch(&train_x, &train_y)?;
            let preds = model.predict_batch(&test_x)?;
            Ok(ModelScore {
                kind,
                rmse_dbm: stats::rmse(&preds, &test_y),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{preprocess, PreprocessConfig};
    use aerorem_mission::{Sample, SampleSet};
    use aerorem_propagation::ap::{MacAddress, Ssid};
    use aerorem_propagation::WifiChannel;
    use aerorem_simkit::SimTime;
    use aerorem_spatial::Vec3;
    use aerorem_uav::UavId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A synthetic dataset with per-MAC spatial RSS gradients plus noise-free
    /// structure, enough for all models to fit.
    fn world() -> (Dataset, FeatureLayout) {
        let mut set = SampleSet::new();
        for mac in 1..=4u32 {
            for i in 0..60 {
                let pos = Vec3::new(
                    (i % 6) as f64 * 0.6,
                    ((i / 6) % 5) as f64 * 0.6,
                    (i / 30) as f64 * 0.8 + 0.4,
                );
                let base = -60.0 - 4.0 * mac as f64;
                let rssi = base - 2.0 * pos.x - 1.0 * pos.y + 0.5 * pos.z;
                set.push(Sample {
                    uav: UavId(0),
                    waypoint_index: i,
                    position: pos,
                    true_position: pos,
                    ssid: Ssid::new(format!("net{mac}")),
                    mac: MacAddress::from_index(mac),
                    channel: WifiChannel::new(if mac % 2 == 0 { 6 } else { 1 }).unwrap(),
                    rssi_dbm: rssi.round() as i32,
                    timestamp: SimTime::ZERO,
                });
            }
        }
        let (d, l, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        (d, l)
    }

    #[test]
    fn all_models_build_and_fit() {
        let (data, layout) = world();
        let mut rng = StdRng::seed_from_u64(1);
        let scores = evaluate_all(&ModelKind::ALL, &data, &layout, &mut rng).unwrap();
        assert_eq!(scores.len(), 7);
        for s in &scores {
            assert!(s.rmse_dbm.is_finite());
            assert!(s.rmse_dbm < 30.0, "{}: rmse {}", s.kind, s.rmse_dbm);
        }
    }

    #[test]
    fn spatial_models_beat_the_baseline_on_spatial_data() {
        // The synthetic field has a strong spatial gradient, so kNN must
        // beat mean-per-MAC clearly.
        let (data, layout) = world();
        let mut rng = StdRng::seed_from_u64(2);
        let scores = evaluate_all(&ModelKind::PAPER_FIGURE8, &data, &layout, &mut rng).unwrap();
        let rmse_of = |k: ModelKind| {
            scores
                .iter()
                .find(|s| s.kind == k)
                .map(|s| s.rmse_dbm)
                .unwrap()
        };
        let baseline = rmse_of(ModelKind::MeanPerMac);
        for k in [ModelKind::Knn3, ModelKind::KnnScaled16, ModelKind::PerMacKnn] {
            assert!(
                rmse_of(k) < baseline,
                "{k} ({}) should beat baseline ({baseline})",
                rmse_of(k)
            );
        }
    }

    #[test]
    fn every_model_rejects_malformed_rows_the_same_way() {
        let (data, layout) = world();
        let dim = data.dim();
        let row = data.x[0].clone();
        let short = row[..dim - 1].to_vec();
        let cases = [
            (vec![], vec![], MlError::EmptyTrainingSet),
            (
                vec![row.clone(), row.clone()],
                vec![-70.0],
                MlError::LengthMismatch {
                    rows: 2,
                    targets: 1,
                },
            ),
            (
                vec![row.clone(), short],
                vec![-70.0, -71.0],
                MlError::DimensionMismatch {
                    expected: dim,
                    found: dim - 1,
                },
            ),
            (
                vec![vec![], vec![]],
                vec![-70.0, -71.0],
                MlError::DimensionMismatch {
                    expected: 1,
                    found: 0,
                },
            ),
        ];
        for kind in ModelKind::ALL {
            for (x, y, want) in &cases {
                let mut model = kind.build(&layout).unwrap();
                assert_eq!(model.fit(x, y).as_ref(), Err(want), "{kind}");
                assert_eq!(model.predict_one(&row), Err(MlError::NotFitted), "{kind}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            ModelKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ModelKind::ALL.len());
        assert_eq!(ModelKind::PAPER_FIGURE8.len(), 5);
        assert!(format!("{}", ModelKind::Knn3).contains("k=3"));
    }

    #[test]
    fn serial_and_parallel_evaluation_agree_exactly() {
        let (data, layout) = world();
        let serial = evaluate_all_with(
            &ModelKind::ALL,
            &data,
            &layout,
            &mut StdRng::seed_from_u64(9),
            ExecPolicy::Serial,
        )
        .unwrap();
        let parallel = evaluate_all_with(
            &ModelKind::ALL,
            &data,
            &layout,
            &mut StdRng::seed_from_u64(9),
            ExecPolicy::Parallel,
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn evaluation_is_seeded() {
        let (data, layout) = world();
        let kinds = [ModelKind::MeanPerMac, ModelKind::Knn3];
        let a = evaluate_all(&kinds, &data, &layout, &mut StdRng::seed_from_u64(3)).unwrap();
        let b = evaluate_all(&kinds, &data, &layout, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
    }
}
