//! Figure-8 style model bake-off with grid search, including the
//! geostatistical extensions (IDW, ordinary kriging) the paper does not
//! cover.
//!
//! ```sh
//! cargo run --release --example model_comparison
//! ```

use aerorem::core::features::{preprocess, PreprocessConfig};
use aerorem::core::models::{evaluate_all, ModelKind};
use aerorem::mission::campaign::{Campaign, CampaignConfig};
use aerorem::ml::gridsearch::{grid_search, knn_grid, mlp_grid};
use aerorem::ml::FeatureMatrix;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    println!("collecting the dataset (full paper campaign)...");
    let report = Campaign::new(CampaignConfig::paper_demo()).run(&mut rng);
    let (data, layout, _) = preprocess(&report.samples, &PreprocessConfig::paper())?;
    println!("dataset: {} rows x {} features\n", data.len(), data.dim());

    // The paper's protocol: grid-search kNN hyperparameters on a validation
    // split carved out of the training data.
    let (train, test) = data.train_test_split(0.75, &mut rng)?;
    println!("grid-searching kNN hyperparameters on the training split...");
    let gs = grid_search(knn_grid(&[1, 3, 5, 8, 16, 32]), &train, 0.25, &mut rng)?;
    println!("top five candidates by validation RMSE:");
    for c in gs.scores.iter().take(5) {
        println!("  {:<24} {:.4} dBm", c.name, c.rmse);
    }
    let best = gs.best().expect("grid evaluated");
    println!("winner: {}\n", best.name);

    // The paper also tuned the neural network's width/activation/optimizer.
    println!("grid-searching MLP architectures (this takes a moment)...");
    let mlp_gs = grid_search(mlp_grid(), &train, 0.25, &mut rng)?;
    for c in mlp_gs.scores.iter().take(3) {
        println!("  {:<24} {:.4} dBm", c.name, c.rmse);
    }
    println!("winner: {}\n", mlp_gs.best().expect("grid evaluated").name);

    // Full comparison, paper models + extensions, shared 75/25 split.
    println!("evaluating the complete model zoo (paper + extensions):");
    let scores = evaluate_all(&ModelKind::ALL, &data, &layout, &mut rng)?;
    println!("{:<32} {:>10}", "model", "RMSE [dBm]");
    for s in &scores {
        println!("{:<32} {:>10.4}", s.kind.label(), s.rmse_dbm);
    }

    // Sanity: the best model reproduces the training points well.
    let mut knn = ModelKind::KnnScaled16.build(&layout)?;
    knn.fit(&train.x, &train.y)?;
    let preds = knn.predict_batch(&FeatureMatrix::from_rows(&test.x)?)?;
    let rmse = aerorem::numerics::stats::rmse(&preds, &test.y);
    println!("\nbest kNN on the held-out test set: {rmse:.4} dBm (paper: 4.4186)");
    Ok(())
}
