//! REM lattice-fill throughput: per-voxel vs batched inference.
//!
//! This is the acceptance bench for the batched hot path: it fills the
//! paper's room volume at fine resolution with the REM model (the scaled
//! one-hot kNN) and a trained MLP, once through the pre-batching
//! per-voxel reference path and once through the chunked
//! `FeatureMatrix`/`predict_batch` path, under both execution policies.
//! It asserts the two paths produce **bit-identical** grids, then writes
//! the timing table to `BENCH_2.json` at the repository root.
//! `AEROREM_BENCH_SMOKE=1` coarsens the lattice and runs one repetition,
//! keeps every bit-identity assertion, and skips the artifact write.
//!
//! Custom harness (`harness = false`): a fixed-repetition timer is enough
//! for second-scale lattice fills, and we want a machine-readable JSON
//! artifact rather than criterion's HTML report.

use std::time::Instant;

use aerorem_bench::bench3;
use aerorem_core::exec::ExecPolicy;
use aerorem_core::features::{preprocess, FeatureLayout, PreprocessConfig};
use aerorem_core::models::ModelKind;
use aerorem_core::rem::RemGrid;
use aerorem_mission::{Sample, SampleSet};
use aerorem_ml::mlp::{Activation, Mlp, MlpConfig};
use aerorem_ml::Regressor;
use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_simkit::SimTime;
use aerorem_spatial::Aabb;
use aerorem_uav::UavId;

/// MACs in the synthetic world. With their channels the rows have 14
/// columns, of which only the 3 coordinates take more than two values, so
/// kNN searches its grouped index (one KD-tree per MAC and channel) exactly
/// as it does on the paper's ~80-MAC feature space.
const N_MACS: u32 = 8;
/// Samples per MAC (total ≈ the paper's 2565 retained samples).
const SAMPLES_PER_MAC: usize = 300;

struct Sizes {
    /// Lattice cell edge length.
    resolution_m: f64,
    /// Timed repetitions per configuration (best-of to shed scheduler
    /// noise).
    reps: usize,
}

/// Fine-grained, paper-style sub-25 cm mapping.
const FULL: Sizes = Sizes {
    resolution_m: 0.12,
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    resolution_m: 0.4,
    reps: 1,
};

fn synthetic_world() -> (SampleSet, Aabb) {
    let volume = Aabb::paper_volume();
    let mut set = SampleSet::new();
    for mac in 1..=N_MACS {
        for i in 0..SAMPLES_PER_MAC {
            // Deterministic low-discrepancy-ish sweep of the volume.
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
    (set, volume)
}

struct Measurement {
    model: &'static str,
    mode: &'static str,
    exec: &'static str,
    seconds: f64,
    voxels_per_s: f64,
}

/// Best-of-`reps` wall time for one lattice fill; returns the grid of the
/// last repetition for the bit-identity check.
fn time_fill(
    reps: usize,
    fill: impl Fn() -> RemGrid,
    model: &'static str,
    mode: &'static str,
    exec: &'static str,
) -> (Measurement, RemGrid) {
    let mut best = f64::INFINITY;
    let mut grid = fill(); // warm-up (also primes thread pools)
    for _ in 0..reps {
        let start = Instant::now();
        grid = fill();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let voxels = grid.len() as f64;
    eprintln!(
        "{model:<14} {mode:<10} {exec:<9} {best:>8.3} s  {:>10.0} voxels/s",
        voxels / best
    );
    (
        Measurement {
            model,
            mode,
            exec,
            seconds: best,
            voxels_per_s: voxels / best,
        },
        grid,
    )
}

/// Runs the per-voxel/batched × serial/parallel matrix for one fitted
/// model, asserting every combination produces the identical grid.
fn bench_model(
    sizes: &Sizes,
    name: &'static str,
    model: &dyn Regressor,
    layout: &FeatureLayout,
    volume: Aabb,
    mac: MacAddress,
    out: &mut Vec<Measurement>,
) {
    let mut reference: Option<RemGrid> = None;
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let exec = policy.label();
        let (m, grid) = time_fill(
            sizes.reps,
            || {
                let res = sizes.resolution_m;
                RemGrid::generate_per_voxel_with(model, layout, volume, res, mac, policy)
                    .expect("per-voxel fill")
            },
            name,
            "per_voxel",
            exec,
        );
        out.push(m);
        let reference = reference.get_or_insert(grid);
        let (m, batched) = time_fill(
            sizes.reps,
            || {
                RemGrid::generate_with(model, layout, volume, sizes.resolution_m, mac, policy)
                    .expect("batched fill")
            },
            name,
            "batched",
            exec,
        );
        out.push(m);
        assert_eq!(
            &batched, reference,
            "{name}/{exec}: batched grid must be bit-identical to per-voxel"
        );
    }
}

fn json_escape_free(s: &str) -> &str {
    // All strings written below are static identifiers without quotes or
    // control characters; keep the writer honest anyway.
    assert!(s.chars().all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    s
}

fn write_json(
    path: &str,
    resolution_m: f64,
    voxels: usize,
    train_samples: usize,
    feature_dim: usize,
    results: &[Measurement],
) {
    let mut rows = String::new();
    for (i, m) in results.iter().enumerate() {
        rows.push_str(&format!(
            "    {{\"model\": \"{}\", \"mode\": \"{}\", \"exec\": \"{}\", \"seconds\": {:.6}, \"voxels_per_s\": {:.1}}}{}\n",
            json_escape_free(m.model),
            json_escape_free(m.mode),
            json_escape_free(m.exec),
            m.seconds,
            m.voxels_per_s,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    let speedup = |model: &str, exec: &str| {
        let find = |mode: &str| {
            results
                .iter()
                .find(|m| m.model == model && m.mode == mode && m.exec == exec)
                .map(|m| m.seconds)
        };
        match (find("per_voxel"), find("batched")) {
            (Some(pv), Some(b)) if b > 0.0 => pv / b,
            _ => f64::NAN,
        }
    };
    let json = format!(
        "{{\n  \"bench\": \"rem_lattice\",\n  \"volume_m\": [3.74, 3.2, 2.1],\n  \
         \"resolution_m\": {resolution_m},\n  \"voxels\": {voxels},\n  \
         \"train_samples\": {train_samples},\n  \"feature_dim\": {feature_dim},\n  \
         \"bit_identical\": true,\n  \"results\": [\n{rows}  ],\n  \
         \"speedup_batched_vs_per_voxel\": {{\n    \
         \"knn_scaled16_serial\": {:.2},\n    \"knn_scaled16_parallel\": {:.2},\n    \
         \"mlp_serial\": {:.2},\n    \"mlp_parallel\": {:.2}\n  }}\n}}\n",
        speedup("knn_scaled16", "serial"),
        speedup("knn_scaled16", "parallel"),
        speedup("mlp", "serial"),
        speedup("mlp", "parallel"),
    );
    std::fs::write(path, json).expect("write BENCH_2.json");
    eprintln!("wrote {path}");
}

fn main() {
    // `cargo bench` passes harness flags; a custom harness ignores them.
    let smoke = bench3::smoke();
    let sizes = if smoke { &SMOKE } else { &FULL };
    let (set, volume) = synthetic_world();
    let (data, layout, report) = preprocess(&set, &PreprocessConfig::paper()).expect("preprocess");
    eprintln!(
        "world: {} samples over {} MACs, feature dim {}",
        report.retained_samples,
        report.retained_macs,
        layout.dim()
    );

    let mut knn = ModelKind::KnnScaled16.build(&layout).expect("build kNN");
    knn.fit(&data.x, &data.y).expect("fit kNN");

    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![(16, Activation::Sigmoid)],
        epochs: 30,
        ..MlpConfig::paper_tuned()
    });
    mlp.fit(&data.x, &data.y).expect("fit MLP");

    let mac = MacAddress::from_index(1);
    let mut results = Vec::new();
    bench_model(
        sizes,
        "knn_scaled16",
        knn.as_ref(),
        &layout,
        volume,
        mac,
        &mut results,
    );
    bench_model(sizes, "mlp", &mlp, &layout, volume, mac, &mut results);

    let voxels = RemGrid::generate_with(
        knn.as_ref(),
        &layout,
        volume,
        sizes.resolution_m,
        mac,
        ExecPolicy::Serial,
    )
    .expect("voxel count")
    .len();
    if smoke {
        eprintln!("smoke run: skipping BENCH_2.json write");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_2.json");
        let (samples, dim) = (report.retained_samples, layout.dim());
        write_json(path, sizes.resolution_m, voxels, samples, dim, &results);
    }

    for model in ["knn_scaled16", "mlp"] {
        for exec in ["serial", "parallel"] {
            let sec = |mode: &str| {
                results
                    .iter()
                    .find(|m| m.model == model && m.mode == mode && m.exec == exec)
                    .map(|m| m.seconds)
                    .unwrap()
            };
            eprintln!(
                "{model}/{exec}: batched is {:.2}x the per-voxel path",
                sec("per_voxel") / sec("batched")
            );
        }
    }
}
