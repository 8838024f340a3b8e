//! Model-selection throughput: grid search, k-fold CV, and variogram
//! fitting, before and after the PR-3 training hot path.
//!
//! The "baseline" arms reproduce the pre-PR implementations inline: a
//! deep-copying `train_test_split`, row-nested `fit`, a per-row
//! `predict_one` scoring loop, per-fold dataset copies, and the naive
//! O(n²) nested-row variogram pair loop. Their row-nested `fit` is the
//! trait's provided method, which copies the rows into a `FeatureMatrix`
//! and calls `fit_batch`: one row copy more than the code it reproduces.
//! The "serial"/"parallel" arms run the shipped `grid_search_with` /
//! `cross_validate_with` / `empirical_variogram_matrix` paths, which copy
//! each split or fold once with `Dataset::gather` and train and score
//! through the batched `fit_batch`/`predict_batch` contract.
//! Every arm is asserted **bit-identical** to the baseline before any
//! number is written, then the timing table lands in the `train_select`
//! section of `BENCH_3.json` at the repository root.
//!
//! Custom harness (`harness = false`): fixed-repetition best-of timing and
//! a machine-readable artifact, exactly as `rem_lattice` does for
//! inference. `AEROREM_BENCH_SMOKE=1` shrinks the workload, keeps the
//! identity assertions, and skips the JSON write.

use std::path::Path;

use aerorem_bench::bench3;
use aerorem_core::features::{preprocess, PreprocessConfig};
use aerorem_mission::{Sample, SampleSet};
use aerorem_ml::crossval::{cross_validate_with, kfold_indices};
use aerorem_ml::dataset::Dataset;
use aerorem_ml::gridsearch::{grid_search_with, knn_grid};
use aerorem_ml::knn::KnnRegressor;
use aerorem_ml::kriging::{
    empirical_variogram_matrix, fit_variogram_with, VariogramBin, VariogramKind,
};
use aerorem_ml::{FeatureMatrix, Regressor};
use aerorem_numerics::exec::ExecPolicy;
use aerorem_numerics::stats::rmse;
use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_simkit::SimTime;
use aerorem_spatial::Aabb;
use aerorem_uav::UavId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MACs in the synthetic world (matches `rem_lattice`: pushes the feature
/// dimension past the KD-tree cutoff, like the paper's ~80-MAC space).
const N_MACS: u32 = 8;
/// Grid-search validation fraction.
const VAL_FRACTION: f64 = 0.25;
/// Seed shared by all arms of a stage so every arm sees the same split.
const SEED: u64 = 42;

struct Sizes {
    samples_per_mac: usize,
    ks: &'static [usize],
    cv_folds: usize,
    variogram_points: usize,
    reps: usize,
}

const FULL: Sizes = Sizes {
    samples_per_mac: 300,
    ks: &[1, 2, 3, 4, 8, 16, 32, 64],
    cv_folds: 4,
    variogram_points: 1500,
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    samples_per_mac: 40,
    ks: &[1, 3],
    cv_folds: 3,
    variogram_points: 150,
    reps: 1,
};

fn synthetic_world(samples_per_mac: usize) -> SampleSet {
    let volume = Aabb::paper_volume();
    let mut set = SampleSet::new();
    for mac in 1..=N_MACS {
        for i in 0..samples_per_mac {
            let t = i as f64 + mac as f64 * 0.37;
            let pos = volume.lerp_point(
                (t * 0.378).fract(),
                (t * 0.691).fract(),
                (t * 0.137).fract(),
            );
            let rssi = -55.0 - 3.0 * mac as f64 - 4.0 * pos.x - 2.0 * pos.y + pos.z;
            set.push(Sample {
                uav: UavId(0),
                waypoint_index: i,
                position: pos,
                true_position: pos,
                ssid: Ssid::new(format!("net{mac}")),
                mac: MacAddress::from_index(mac),
                channel: WifiChannel::new([1u8, 6, 11][(mac % 3) as usize]).unwrap(),
                rssi_dbm: rssi as i32,
                timestamp: SimTime::ZERO,
            });
        }
    }
    set
}

/// The pre-PR grid search: one deep-copying split, then a serial loop of
/// row-nested `fit` + per-row `predict_one` scoring. Returns
/// `(name, rmse)` sorted ascending, the same ranking contract as
/// `GridSearchResult`.
fn baseline_grid_search<R: Rng>(
    ks: &[usize],
    train: &Dataset,
    rng: &mut R,
) -> Vec<(String, f64)> {
    let (fit, val) = train
        .train_test_split(1.0 - VAL_FRACTION, rng)
        .expect("split");
    let mut scores = Vec::new();
    for (name, make) in knn_grid(ks) {
        let mut model = make();
        if model.fit(&fit.x, &fit.y).is_err() {
            continue;
        }
        let preds: Vec<f64> = val
            .x
            .iter()
            .map(|r| model.predict_one(r).expect("predict"))
            .collect();
        scores.push((name, rmse(&preds, &val.y)));
    }
    scores.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite RMSE"));
    scores
}

/// The pre-PR cross-validation: per-fold deep copies of the training rows,
/// row-nested `fit`, per-row `predict_one`.
fn baseline_cross_validate<R: Rng>(data: &Dataset, k: usize, rng: &mut R) -> Vec<f64> {
    let folds = kfold_indices(data.len(), k, rng).expect("folds");
    (0..k)
        .map(|held_out| {
            let train_idx: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != held_out)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let tx: Vec<Vec<f64>> = train_idx.iter().map(|&i| data.x[i].clone()).collect();
            let ty: Vec<f64> = train_idx.iter().map(|&i| data.y[i]).collect();
            let mut model = KnnRegressor::paper_tuned();
            model.fit(&tx, &ty).expect("fit");
            let preds: Vec<f64> = folds[held_out]
                .iter()
                .map(|&i| model.predict_one(&data.x[i]).expect("predict"))
                .collect();
            let truth: Vec<f64> = folds[held_out].iter().map(|&i| data.y[i]).collect();
            rmse(&preds, &truth)
        })
        .collect()
}

/// The pre-PR empirical variogram: nested rows, one global accumulator,
/// ascending `i < j` pair order. The blocked version visits pairs in the
/// same order but reassociates the sums through per-block partials, so it
/// matches this loop to float tolerance (and is bit-identical across
/// execution policies), not bit-identical to it.
fn naive_variogram(
    points: &[Vec<f64>],
    values: &[f64],
    n_bins: usize,
    max_lag: f64,
) -> Vec<VariogramBin> {
    let width = max_lag / n_bins as f64;
    let mut sum_gamma = vec![0.0; n_bins];
    let mut sum_lag = vec![0.0; n_bins];
    let mut count = vec![0usize; n_bins];
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let h = points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if h >= max_lag {
                continue;
            }
            let bin = ((h / width) as usize).min(n_bins - 1);
            sum_gamma[bin] += 0.5 * (values[i] - values[j]).powi(2);
            sum_lag[bin] += h;
            count[bin] += 1;
        }
    }
    (0..n_bins)
        .filter(|&b| count[b] > 0)
        .map(|b| VariogramBin {
            lag: sum_lag[b] / count[b] as f64,
            gamma: sum_gamma[b] / count[b] as f64,
            pairs: count[b],
        })
        .collect()
}

fn report_row(rows: &mut Vec<String>, stage: &str, variant: &str, seconds: f64, items: usize) {
    eprintln!(
        "{stage:<20} {variant:<16} {seconds:>9.4} s  {:>10.1} items/s",
        items as f64 / seconds
    );
    rows.push(bench3::row(stage, variant, seconds, items));
}

fn main() {
    let smoke = bench3::smoke();
    let sizes = if smoke { SMOKE } else { FULL };
    let set = synthetic_world(sizes.samples_per_mac);
    let (data, layout, report) = preprocess(&set, &PreprocessConfig::paper()).expect("preprocess");
    eprintln!(
        "world: {} samples over {} MACs, feature dim {}{}",
        report.retained_samples,
        report.retained_macs,
        layout.dim(),
        if smoke { " (smoke)" } else { "" }
    );
    let n_candidates = sizes.ks.len() * 4;
    let mut rows: Vec<String> = Vec::new();

    // --- grid search ---
    let (base_s, base_scores) = bench3::best_of(sizes.reps, || {
        baseline_grid_search(sizes.ks, &data, &mut StdRng::seed_from_u64(SEED))
    });
    report_row(&mut rows, "grid_search", "baseline", base_s, n_candidates);
    let mut grid_secs = Vec::new();
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let (s, result) = bench3::best_of(sizes.reps, || {
            grid_search_with(
                knn_grid(sizes.ks),
                &data,
                VAL_FRACTION,
                &mut StdRng::seed_from_u64(SEED),
                policy,
            )
            .expect("grid search")
        });
        report_row(&mut rows, "grid_search", policy.label(), s, n_candidates);
        let got: Vec<(String, f64)> = result
            .scores
            .iter()
            .map(|c| (c.name.clone(), c.rmse))
            .collect();
        assert_eq!(
            got,
            base_scores,
            "grid_search/{}: ranking must be bit-identical to the pre-PR loop",
            policy.label()
        );
        grid_secs.push(s);
    }

    // --- k-fold cross-validation ---
    let (cv_base_s, cv_base) = bench3::best_of(sizes.reps, || {
        baseline_cross_validate(&data, sizes.cv_folds, &mut StdRng::seed_from_u64(SEED))
    });
    report_row(&mut rows, "cross_validate", "baseline", cv_base_s, sizes.cv_folds);
    let mut cv_secs = Vec::new();
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let (s, folds) = bench3::best_of(sizes.reps, || {
            cross_validate_with(
                &data,
                sizes.cv_folds,
                &mut StdRng::seed_from_u64(SEED),
                KnnRegressor::paper_tuned,
                policy,
            )
            .expect("cross validate")
        });
        report_row(&mut rows, "cross_validate", policy.label(), s, sizes.cv_folds);
        assert_eq!(
            folds,
            cv_base,
            "cross_validate/{}: per-fold RMSEs must be bit-identical to the pre-PR loop",
            policy.label()
        );
        cv_secs.push(s);
    }

    // --- empirical variogram + model fit ---
    let n_pts = sizes.variogram_points;
    let (n_bins, max_lag) = (15usize, 5.0f64);
    let pts: Vec<Vec<f64>> = (0..n_pts)
        .map(|i| {
            let t = i as f64 * 0.61803;
            vec![
                (t * 1.117).fract() * 6.0,
                (t * 0.733).fract() * 5.0,
                (t * 0.271).fract() * 2.5,
            ]
        })
        .collect();
    let vals: Vec<f64> = pts
        .iter()
        .map(|p| -50.0 - 2.0 * p[0] - p[1] + 0.5 * p[2])
        .collect();
    let (naive_s, naive_bins) =
        bench3::best_of(sizes.reps, || naive_variogram(&pts, &vals, n_bins, max_lag));
    report_row(&mut rows, "empirical_variogram", "naive", naive_s, n_pts);
    let xm = FeatureMatrix::from_rows(&pts).expect("points");
    let mut blocked_by_policy = Vec::new();
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let (s, bins) = bench3::best_of(sizes.reps, || {
            empirical_variogram_matrix(&xm, &vals, n_bins, max_lag, policy).expect("variogram")
        });
        let variant = if policy == ExecPolicy::Serial {
            "blocked_serial"
        } else {
            "blocked_parallel"
        };
        report_row(&mut rows, "empirical_variogram", variant, s, n_pts);
        assert_eq!(bins.len(), naive_bins.len());
        for (b, n) in bins.iter().zip(&naive_bins) {
            // Same pairs in each bin; sums agree to reassociation error.
            assert_eq!(b.pairs, n.pairs, "empirical_variogram/{variant}: bin pairing changed");
            assert!(
                (b.lag - n.lag).abs() <= 1e-9 * n.lag.abs().max(1.0)
                    && (b.gamma - n.gamma).abs() <= 1e-9 * n.gamma.abs().max(1.0),
                "empirical_variogram/{variant}: bins drifted from the naive loop: {b:?} vs {n:?}"
            );
        }
        blocked_by_policy.push(bins);
    }
    assert_eq!(
        blocked_by_policy[0], blocked_by_policy[1],
        "empirical_variogram: serial and parallel must agree bit for bit"
    );
    let blocked_bins = blocked_by_policy.pop().expect("two policies ran");
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        // 288 dense grid candidates, see `fit_variogram_with`.
        let (s, fitted) = bench3::best_of(sizes.reps, || {
            fit_variogram_with(&blocked_bins, VariogramKind::Exponential, policy).expect("fit")
        });
        report_row(&mut rows, "fit_variogram", policy.label(), s, 288);
        let serial_ref =
            fit_variogram_with(&blocked_bins, VariogramKind::Exponential, ExecPolicy::Serial)
                .expect("fit");
        assert_eq!(fitted, serial_ref, "fit_variogram/{}", policy.label());
    }

    // Model selection = the grid search plus the CV pass; compare the
    // pre-PR serial loops against the best shipped arm.
    let new_best = grid_secs
        .iter()
        .zip(&cv_secs)
        .map(|(g, c)| g + c)
        .fold(f64::INFINITY, f64::min);
    let speedup = (base_s + cv_base_s) / new_best;
    eprintln!("model selection: {speedup:.2}x vs pre-PR serial loops");
    if !smoke {
        assert!(
            speedup >= 3.0,
            "model-selection speedup {speedup:.2}x fell below the 3x acceptance bar"
        );
        let body = format!(
            "{{\n      \"train_samples\": {},\n      \"feature_dim\": {},\n      \
             \"grid_candidates\": {},\n      \"cv_folds\": {},\n      \
             \"variogram_points\": {},\n      \"bit_identical\": true,\n      \
             \"model_selection_speedup\": {:.2},\n      \"rows\": [\n{}\n      ]\n    }}",
            report.retained_samples,
            layout.dim(),
            n_candidates,
            sizes.cv_folds,
            n_pts,
            speedup,
            rows.iter()
                .map(|r| format!("        {r}"))
                .collect::<Vec<_>>()
                .join(",\n"),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_3.json");
        bench3::write_section(Path::new(path), "train_select", &body);
    } else {
        eprintln!("smoke mode: skipping BENCH_3.json write");
    }
}
