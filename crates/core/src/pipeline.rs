//! The end-to-end pipeline: campaign → preprocessing → models → REM.

use rand::Rng;

use aerorem_mission::campaign::{Campaign, CampaignConfig, CampaignReport};
use aerorem_ml::dataset::Dataset;
use aerorem_ml::{MlError, Regressor};
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::Vec3;

use crate::exec::ExecPolicy;
use crate::features::{preprocess_with, FeatureLayout, PreprocessConfig, PreprocessReport};
use crate::instrument::Instrumentation;
use crate::models::{evaluate_all_with, ModelKind, ModelScore};
use crate::rem::RemGrid;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The data-collection campaign to fly.
    pub campaign: CampaignConfig,
    /// Sample filtering (paper: drop MACs with < 16 samples).
    pub preprocess: PreprocessConfig,
    /// Models to compare on the 75/25 split (the Figure-8 lineup).
    pub eval_models: Vec<ModelKind>,
    /// The model fitted on the *full* dataset for the final REM.
    pub rem_model: ModelKind,
    /// REM lattice resolution in meters.
    pub rem_resolution_m: f64,
}

impl PipelineConfig {
    /// The paper's full demo: 2 UAVs × 36 waypoints, Figure-8 model lineup,
    /// the best kNN for the final map at 25 cm resolution.
    ///
    /// # Examples
    ///
    /// ```
    /// use aerorem_core::models::ModelKind;
    /// use aerorem_core::pipeline::PipelineConfig;
    ///
    /// let config = PipelineConfig::paper_demo();
    /// assert_eq!(config.eval_models, ModelKind::PAPER_FIGURE8.to_vec());
    /// assert_eq!(config.rem_model, ModelKind::KnnScaled16);
    /// assert_eq!(config.rem_resolution_m, 0.25);
    /// // The paper's "MACs with less than 16 samples were dropped".
    /// assert_eq!(config.preprocess.min_samples_per_mac, 16);
    /// ```
    pub fn paper_demo() -> Self {
        PipelineConfig {
            campaign: CampaignConfig::paper_demo(),
            preprocess: PreprocessConfig::paper(),
            eval_models: ModelKind::PAPER_FIGURE8.to_vec(),
            rem_model: ModelKind::KnnScaled16,
            rem_resolution_m: 0.25,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_demo()
    }
}

/// Everything the pipeline produced.
pub struct PipelineResult {
    /// The flown campaign (samples, legs, ground-truth environment).
    pub campaign: CampaignReport,
    /// Retention statistics.
    pub preprocess_report: PreprocessReport,
    /// Feature layout of the dataset.
    pub layout: FeatureLayout,
    /// The preprocessed dataset.
    pub dataset: Dataset,
    /// Figure-8 style scores (75/25 split).
    pub scores: Vec<ModelScore>,
    /// Which model the final REM uses.
    pub rem_model_kind: ModelKind,
    /// Per-stage wall-clock timings and data-flow counters for this run.
    pub instrumentation: Instrumentation,
    /// The REM model fitted on the full dataset.
    model: Box<dyn Regressor>,
    /// REM resolution for [`PipelineResult::generate_rem`].
    rem_resolution_m: f64,
    /// Execution policy for downstream REM generation.
    exec_policy: ExecPolicy,
}

impl std::fmt::Debug for PipelineResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineResult")
            .field("samples", &self.campaign.samples.len())
            .field("retained", &self.preprocess_report.retained_samples)
            .field("scores", &self.scores)
            .field("rem_model", &self.rem_model_kind)
            .finish()
    }
}

impl PipelineResult {
    /// Predicts RSS (dBm) of `mac` at an arbitrary 3D position — the
    /// toolchain's headline capability: signal quality "at locations not
    /// visited by the UAVs".
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] for MACs dropped in preprocessing.
    pub fn predict(&self, position: Vec3, mac: MacAddress) -> Result<f64, MlError> {
        let row = self.layout.encode_query(position, mac)?;
        self.model.predict_one(&row)
    }

    /// The retained MAC with the highest mean observed RSS — a convenient
    /// default subject for maps and examples.
    pub fn strongest_mac(&self) -> Option<MacAddress> {
        let macs = self.layout.macs();
        let mut best: Option<(MacAddress, f64)> = None;
        for mac in macs {
            let mut sum = 0.0;
            let mut n = 0u32;
            for s in self.campaign.samples.iter().filter(|s| s.mac == mac) {
                sum += f64::from(s.rssi_dbm);
                n += 1;
            }
            if n == 0 {
                continue;
            }
            let mean = sum / f64::from(n);
            if best.is_none_or(|(_, b)| mean > b) {
                best = Some((mac, mean));
            }
        }
        best.map(|(m, _)| m)
    }

    /// Materializes the full 3D REM for one MAC at the configured
    /// resolution.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn generate_rem(&self, mac: MacAddress) -> Result<RemGrid, MlError> {
        self.generate_rem_instrumented(mac, &mut Instrumentation::new())
    }

    /// [`PipelineResult::generate_rem`] recording the `rem_fill` stage
    /// timing, its execution plan and the `rem_fill_rows` counter on
    /// `inst` — the CLI uses this to report lattice voxels per second.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn generate_rem_instrumented(
        &self,
        mac: MacAddress,
        inst: &mut Instrumentation,
    ) -> Result<RemGrid, MlError> {
        RemGrid::generate_instrumented(
            self.model.as_ref(),
            &self.layout,
            self.campaign.plan.volume,
            self.rem_resolution_m,
            mac,
            self.exec_policy,
            inst,
        )
    }

    /// Simulation-only validation: RMSE between the model's predictions and
    /// the *ground-truth* mean RSS surface at `n_points` random unvisited
    /// positions (per retained MAC, pooled).
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn ground_truth_rmse<R: Rng>(&self, n_points: usize, rng: &mut R) -> Result<f64, MlError> {
        let volume = self.campaign.plan.volume;
        let mut se = 0.0;
        let mut count = 0usize;
        let macs = self.layout.macs();
        for _ in 0..n_points {
            let p = volume.lerp_point(rng.gen(), rng.gen(), rng.gen());
            for &mac in &macs {
                let truth = match self.campaign.environment.access_point(mac) {
                    Some(ap) => self.campaign.environment.mean_rss(ap, p),
                    None => continue,
                };
                // Only compare where the AP is actually audible; the model
                // never saw sub-noise-floor samples.
                if truth < -90.0 {
                    continue;
                }
                let pred = self.predict(p, mac)?;
                se += (pred - truth) * (pred - truth);
                count += 1;
            }
        }
        if count == 0 {
            return Err(MlError::Numerical(
                "no audible ground-truth points to compare".into(),
            ));
        }
        Ok((se / count as f64).sqrt())
    }

    /// Formats the Figure-8 table.
    pub fn figure8_table(&self) -> String {
        let mut s = String::from("model                          RMSE [dBm]\n");
        for score in &self.scores {
            s.push_str(&format!("{:<30} {:>8.4}\n", score.kind.label(), score.rmse_dbm));
        }
        s
    }
}

/// The pipeline runner.
#[derive(Debug, Clone)]
pub struct RemPipeline {
    config: PipelineConfig,
    policy: ExecPolicy,
}

impl RemPipeline {
    /// Creates a pipeline for the given configuration under the default
    /// execution policy ([`ExecPolicy::Parallel`]).
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_policy(config, ExecPolicy::default())
    }

    /// Creates a pipeline with an explicit serial/parallel policy — both
    /// produce identical results for the same seed; only the stage timings
    /// in [`PipelineResult::instrumentation`] differ.
    pub fn with_policy(config: PipelineConfig, policy: ExecPolicy) -> Self {
        RemPipeline { config, policy }
    }

    /// Runs everything: fly the campaign, preprocess, evaluate the model
    /// zoo on a 75/25 split, then fit the REM model on the full dataset.
    /// Each stage's wall-clock time and the data-flow counters land in
    /// [`PipelineResult::instrumentation`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] when preprocessing leaves no data or a model
    /// fails to fit.
    pub fn run<R: Rng>(&self, rng: &mut R) -> Result<PipelineResult, MlError> {
        let mut inst = Instrumentation::new();
        inst.label("exec", self.policy.label());
        inst.label("threads", self.policy.threads().to_string());
        let campaign = inst.time("campaign", || {
            Campaign::new(self.config.campaign.clone()).run(rng)
        });
        let (dataset, layout, preprocess_report) = inst.time("preprocess", || {
            preprocess_with(&campaign.samples, &self.config.preprocess, self.policy)
        })?;
        let scores = inst.time("evaluate_models", || {
            evaluate_all_with(&self.config.eval_models, &dataset, &layout, rng, self.policy)
        })?;
        let model = inst.time("fit_rem_model", || {
            let mut model = self.config.rem_model.build(&layout)?;
            let xm = aerorem_ml::FeatureMatrix::from_rows(&dataset.x)
                .map_err(|_| MlError::EmptyTrainingSet)?;
            model.fit_batch(&xm, &dataset.y)?;
            Ok::<_, MlError>(model)
        })?;
        let (lc_hits, lc_misses) = campaign.environment.link_cache_stats();
        inst.count("link_cache_hits", lc_hits);
        inst.count("link_cache_misses", lc_misses);
        // Fault-recovery counters: how much the retry/reassembly machinery
        // had to work, and what was still lost (ISSUE: honest loss split).
        let (mut retries, mut recovered, mut faults) = (0u64, 0u64, 0u64);
        let (mut lost, mut corrupted, mut dropped) = (0u64, 0u64, 0u64);
        for leg in &campaign.legs {
            retries += leg.scan_retries;
            recovered += leg.scans_recovered;
            faults += leg.receiver_faults;
            lost += leg.rows_lost;
            corrupted += leg.rows_corrupted;
            dropped += leg.packets_dropped;
        }
        inst.count("scan_retries", retries);
        inst.count("scans_recovered", recovered);
        inst.count("receiver_faults", faults);
        inst.count("rows_lost", lost);
        inst.count("rows_corrupted", corrupted);
        inst.count("packets_dropped", dropped);
        inst.count("raw_samples", campaign.samples.len() as u64);
        inst.count("retained_samples", preprocess_report.retained_samples as u64);
        inst.count("dropped_samples", preprocess_report.dropped_samples as u64);
        inst.count("retained_macs", preprocess_report.retained_macs as u64);
        inst.count("feature_dim", layout.dim() as u64);
        inst.count("models_evaluated", scores.len() as u64);
        Ok(PipelineResult {
            campaign,
            preprocess_report,
            layout,
            dataset,
            scores,
            rem_model_kind: self.config.rem_model,
            instrumentation: inst,
            model,
            rem_resolution_m: self.config.rem_resolution_m,
            exec_policy: self.policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_mission::plan::FleetPlan;
    use aerorem_simkit::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A reduced campaign so the unit test stays fast; the full demo runs
    /// in integration tests / the experiment harness.
    fn small() -> PipelineConfig {
        PipelineConfig {
            campaign: CampaignConfig {
                fleet_plan: FleetPlan {
                    fleet_size: 2,
                    total_waypoints: 16,
                    travel_time: SimDuration::from_secs(2),
                    scan_time: SimDuration::from_secs(2),
                },
                ..CampaignConfig::paper_demo()
            },
            preprocess: PreprocessConfig {
                min_samples_per_mac: 8,
            },
            eval_models: vec![ModelKind::MeanPerMac, ModelKind::Knn3, ModelKind::KnnScaled16],
            rem_model: ModelKind::KnnScaled16,
            rem_resolution_m: 0.5,
        }
    }

    #[test]
    fn pipeline_end_to_end() {
        let mut rng = StdRng::seed_from_u64(0x91AE);
        let result = RemPipeline::new(small()).run(&mut rng).unwrap();
        assert!(result.preprocess_report.retained_samples > 100);
        assert!(result.preprocess_report.retained_macs >= 5);
        assert_eq!(result.scores.len(), 3);
        // Predict at an unvisited location for the strongest AP.
        let mac = result.strongest_mac().unwrap();
        let p = result
            .predict(Vec3::new(1.234, 1.111, 0.777), mac)
            .unwrap();
        assert!((-95.0..=-20.0).contains(&p), "prediction {p} dBm");
        // REM generation works and covers the volume.
        let rem = result.generate_rem(mac).unwrap();
        assert!(rem.len() > 100);
        // Debug and the table render.
        assert!(format!("{result:?}").contains("scores"));
        let table = result.figure8_table();
        assert!(table.contains("RMSE"));
        assert!(table.contains("baseline"));
        // Instrumentation covers every stage and the data-flow counters.
        let inst = &result.instrumentation;
        for stage in ["campaign", "preprocess", "evaluate_models", "fit_rem_model"] {
            assert!(inst.stage(stage).is_some(), "missing stage {stage}");
        }
        assert_eq!(
            inst.counter("retained_samples"),
            Some(result.preprocess_report.retained_samples as u64)
        );
        assert!(inst.get_label("exec").is_some());
        assert!(inst.report().contains("total"));
    }

    #[test]
    fn ground_truth_validation_reasonable() {
        let mut rng = StdRng::seed_from_u64(0x6007);
        let result = RemPipeline::new(small()).run(&mut rng).unwrap();
        let rmse = result.ground_truth_rmse(50, &mut rng).unwrap();
        // Shadowing σ is 4 dB and sampling is sparse: single-digit dB error
        // against the hidden truth is the expected regime.
        assert!((1.0..15.0).contains(&rmse), "ground-truth RMSE {rmse}");
    }
}
