//! `survey_to_map`: the production path from a flown survey to a served
//! map image.
//!
//! Set-up flies the paper's demo campaign (2 UAVs, 72 waypoints) over
//! [`WORLDS`] seeded worlds. Each measured pass then turns one world's
//! raw samples into a snapshot the way an operator's map build does:
//! preprocessing into a feature dataset, fitting the paper's final kNN
//! model, filling the paper's [`RESOLUTION_M`] lattice for the [`MAPS`]
//! most-sampled APs, and encoding the grids as a snapshot image. The
//! pipeline is deterministic, so every pass must produce its world's
//! set-up image byte for byte, and each set-up image is checked once,
//! outside any timer, against the per-voxel reference path (see
//! [`check_reference`]).

use std::time::{Duration, Instant};

use aerorem::core::exec::ExecPolicy;
use aerorem::core::features::{preprocess_with, PreprocessConfig};
use aerorem::core::models::ModelKind;
use aerorem::core::rem::RemGrid;
use aerorem::core::snapshot::RemSnapshot;
use aerorem::mission::campaign::{Campaign, CampaignConfig, CampaignReport};
use aerorem::ml::{FeatureMatrix, MlError};
use aerorem::propagation::ap::MacAddress;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{Round, Spans};
use crate::Report;

/// APs mapped per pass, most-sampled first.
const MAPS: usize = 1;
/// Lattice pitch of each map, metres.
const RESOLUTION_M: f64 = 0.25;
/// Campaigns flown per run, each over its own seeded world; `setup_s` is
/// the median of their set-ups and a measuring round builds each world's
/// map once. The fill's cost depends on the world (103 to 152 ms over
/// sixteen seeds on a 2-vCPU x86-64 VM); spreading each run over many
/// worlds keeps that out of the run-to-run spread.
const WORLDS: u64 = 12;

/// One pass's output: the snapshot image and the voxels it holds.
struct Built {
    bytes: Vec<u8>,
    voxels: usize,
}

/// Runs one pass over `campaign`'s samples.
fn build_map(campaign: &CampaignReport, spans: &mut Spans) -> Result<Built, String> {
    let policy = ExecPolicy::default();
    let (dataset, layout, _) = spans
        .time("preprocess_ms", || {
            preprocess_with(&campaign.samples, &PreprocessConfig::paper(), policy)
        })
        .map_err(|e| format!("preprocess: {e}"))?;
    let model = spans
        .time("model_fit_ms", || {
            let mut model = ModelKind::KnnScaled16.build(&layout)?;
            let x = FeatureMatrix::from_rows(&dataset.x).map_err(|_| MlError::EmptyTrainingSet)?;
            model.fit_batch(&x, &dataset.y)?;
            Ok::<_, MlError>(model)
        })
        .map_err(|e| format!("fit: {e}"))?;
    let macs = most_sampled(campaign, &layout.macs());
    let grids = spans
        .time("lattice_fill_ms", || {
            macs.iter()
                .map(|&mac| {
                    RemGrid::generate_with(
                        model.as_ref(),
                        &layout,
                        campaign.plan.volume,
                        RESOLUTION_M,
                        mac,
                        policy,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("lattice fill: {e}"))?;
    let voxels = grids.iter().map(RemGrid::len).sum();
    let snapshot = RemSnapshot::new(grids).map_err(|e| format!("snapshot: {e}"))?;
    let bytes = spans.time("snapshot_encode_ms", || snapshot.to_bytes());
    Ok(Built { bytes, voxels })
}

/// The [`MAPS`] retained APs with the most samples, ties broken by
/// address so the choice is deterministic.
fn most_sampled(campaign: &CampaignReport, retained: &[MacAddress]) -> Vec<MacAddress> {
    let counts = campaign.samples.counts_per_mac();
    let mut macs = retained.to_vec();
    macs.sort_by_key(|mac| {
        (
            std::cmp::Reverse(counts.get(mac).copied().unwrap_or(0)),
            *mac,
        )
    });
    macs.truncate(MAPS);
    macs
}

/// Flies the campaign and builds the reference image.
fn setup(seed: u64) -> Result<(CampaignReport, Built), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let campaign = Campaign::new(CampaignConfig::paper_demo()).run(&mut rng);
    let reference = build_map(&campaign, &mut Spans::new(false))?;
    Ok((campaign, reference))
}

/// Checks the reference image against paths that [`build_map`] does not
/// take: serial preprocessing, the row-by-row `fit`, and every voxel
/// encoded and predicted alone through `predict_one`, which must give
/// each cell bit for bit. Each cell must also lie within the range of the
/// training targets, as any distance-weighted mean of them does.
fn check_reference(campaign: &CampaignReport, reference: &Built) -> Result<(), String> {
    let (dataset, layout, _) = preprocess_with(
        &campaign.samples,
        &PreprocessConfig::paper(),
        ExecPolicy::Serial,
    )
    .map_err(|e| format!("check preprocess: {e}"))?;
    let mut model = ModelKind::KnnScaled16
        .build(&layout)
        .map_err(|e| format!("check model: {e}"))?;
    model
        .fit(&dataset.x, &dataset.y)
        .map_err(|e| format!("check fit: {e}"))?;
    let lo = dataset.y.iter().copied().fold(f64::INFINITY, f64::min) - 1e-9;
    let hi = dataset.y.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 1e-9;
    let snapshot =
        RemSnapshot::from_bytes(&reference.bytes).map_err(|e| format!("check decode: {e}"))?;
    for grid in snapshot.grids() {
        for (i, (pos, value)) in grid.cells().enumerate() {
            let row = layout
                .encode_query(pos, grid.mac())
                .map_err(|e| format!("check encode: {e}"))?;
            let want = model
                .predict_one(&row)
                .map_err(|e| format!("check predict: {e}"))?;
            if value.to_bits() != want.to_bits() || !(lo..=hi).contains(&value) {
                return Err(format!(
                    "cell {i} of {} holds {value} dBm; alone it predicts {want} dBm, \
                     targets span {lo}..{hi} dBm",
                    grid.mac()
                ));
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let mut setups_s = Vec::new();
    let mut worlds = Vec::new();
    for k in 0..WORLDS {
        let t = Instant::now();
        let (campaign, reference) = setup(seed.wrapping_mul(WORLDS).wrapping_add(k))?;
        setups_s.push(t.elapsed().as_secs_f64());
        check_reference(&campaign, &reference)?;
        worlds.push((campaign, reference));
    }

    let mut spans = Spans::new(trace);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = Vec::new();
    let start = Instant::now();
    'measure: while start.elapsed() < budget {
        let round_start = Instant::now();
        let mut round = Round {
            work: 0.0,
            seconds: 0.0,
            latencies_s: Vec::with_capacity(worlds.len()),
        };
        for (campaign, reference) in &worlds {
            attempted += 1;
            let t = Instant::now();
            match build_map(campaign, &mut spans) {
                Ok(b) if b.bytes == reference.bytes => {
                    round.latencies_s.push(t.elapsed().as_secs_f64());
                    round.work += b.voxels as f64;
                }
                Ok(_) => {
                    eprintln!("survey_to_map: pass {attempted} built a different image");
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("survey_to_map: pass {attempted} failed: {e}");
                    failed += 1;
                    break 'measure;
                }
            }
        }
        round.seconds = round_start.elapsed().as_secs_f64();
        rounds.push(round);
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        rounds,
        setups_s,
        spans,
    })
}
