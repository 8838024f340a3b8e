//! Ablation benchmarks for the design choices called out in `DESIGN.md` §6:
//! the neighbour index's tree/scan crossover, TWR vs TDoA cost,
//! waypoint-density scaling, and fleet-size scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use aerorem_localization::{AnchorConstellation, RangingConfig, RangingMode};
use aerorem_mission::plan::FleetPlan;
use aerorem_ml::kdtree::{brute_force_nearest_flat, IndexScratch, NeighborIndex};
use aerorem_ml::FeatureMatrix;
use aerorem_spatial::{Aabb, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The neighbour index vs a brute-force scan across dimensionality:
/// justifies the index's cutoff, KD-trees up to 8 tree columns and a scan
/// above. At 40 columns the index scans, so its arm is labelled
/// `index_scan` there and times the same scan as `brute`, minus the full
/// sort.
fn bench_knn_backends(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 2000;
    let mut group = c.benchmark_group("knn_backends");
    for dim in [3usize, 8, 40] {
        let data: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..4.0)).collect();
        let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..4.0)).collect();
        let index = NeighborIndex::new(FeatureMatrix::from_flat(dim, data.clone()).unwrap());
        assert_eq!(index.uses_trees(), dim <= 8, "the index's cutoff moved");
        let arm = if index.uses_trees() {
            "index_trees"
        } else {
            "index_scan"
        };
        let (mut scratch, mut out) = (IndexScratch::default(), Vec::new());
        group.bench_with_input(BenchmarkId::new(arm, dim), &dim, |b, _| {
            b.iter(|| {
                index.nearest_into(&query, 16, &mut scratch, &mut out);
                black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("brute", dim), &dim, |b, _| {
            b.iter(|| black_box(brute_force_nearest_flat(&data, dim, &query, 16)))
        });
    }
    group.finish();
}

/// TWR vs TDoA measurement generation cost per epoch.
fn bench_ranging_modes(c: &mut Criterion) {
    let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
    let mut rng = StdRng::seed_from_u64(2);
    let p = Vec3::new(1.87, 1.6, 1.0);
    let mut group = c.benchmark_group("ranging");
    for mode in [RangingMode::Twr, RangingMode::Tdoa] {
        let cfg = RangingConfig::lps_default(mode);
        group.bench_with_input(
            BenchmarkId::new("epoch", format!("{mode:?}")),
            &cfg,
            |b, cfg| b.iter(|| black_box(cfg.measure(&anchors, p, &mut rng))),
        );
    }
    group.finish();
}

/// Mission planning cost vs waypoint density (the future-work question of
/// how dense a 3D REM can be sampled).
fn bench_waypoint_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_density");
    for n in [72usize, 288, 1152] {
        let plan = FleetPlan {
            total_waypoints: n,
            ..FleetPlan::paper_demo()
        };
        group.bench_with_input(BenchmarkId::new("expand", n), &plan, |b, plan| {
            b.iter(|| black_box(plan.expand(Aabb::paper_volume()).unwrap()))
        });
    }
    group.finish();
}

/// Fleet partitioning cost vs fleet size ("the system can be scaled by
/// simply adding sets of waypoints").
fn bench_fleet_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_scaling");
    for fleet in [2usize, 4, 8] {
        let plan = FleetPlan {
            fleet_size: fleet,
            total_waypoints: 288,
            ..FleetPlan::paper_demo()
        };
        group.bench_with_input(BenchmarkId::new("expand", fleet), &plan, |b, plan| {
            b.iter(|| black_box(plan.expand(Aabb::paper_volume()).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    bench_knn_backends,
    bench_ranging_modes,
    bench_waypoint_density,
    bench_fleet_scaling
);
criterion_main!(ablations);
