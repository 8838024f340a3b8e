//! Kriging lattice fill: the PR-8 acceptance bench.
//!
//! Fills the paper's room volume (prediction **and** variance per voxel)
//! with the ordinary-kriging estimator five ways:
//!
//! * `per_voxel_prepr` — an inline reproduction of the pre-PR path: a
//!   fresh query encode and `KrigingScratch`-equivalent per voxel (the
//!   `rem.rs:415` bug), brute-force neighbour scan, full distance-ordered
//!   `(k+1)²` system assembly, and a from-scratch `Matrix::solve` per
//!   voxel. This is the timing baseline the ≥ 3× acceptance gate divides
//!   by.
//! * `per_item_serial` — the shipped per-item path with one hoisted
//!   scratch: the **bit reference** every shipped arm must match exactly.
//! * `batched_serial` / `batched_parallel` —
//!   `predict_with_variance_batch_with` under both policies.
//! * `rem_fill_serial` / `rem_fill_parallel` —
//!   `RemGrid::generate_with_variance`, the end-to-end lattice fill
//!   (encode + solve + σ), asserted bit-identical to the serial
//!   `generate_with_confidence` walk.
//!
//! The pre-PR arm assembled the system in neighbour-distance order while
//! the shipped solver canonicalizes to index order, so the two agree only
//! to LU reordering error — the baseline is checked against the reference
//! within 1e-6, while every shipped arm is asserted **bit-identical** to
//! `per_item_serial` before any number is written. Factor-cache hit rates
//! are reported per arm and land in the `kriging_fill` section of
//! `BENCH_5.json` (gated by `scripts/bench_diff`). Custom harness
//! (`harness = false`); `AEROREM_BENCH_SMOKE=1` shrinks the lattice, keeps
//! every identity assertion, and skips the JSON write and the speedup
//! gate.

use std::path::Path;

use aerorem_bench::bench3;
use aerorem_core::exec::ExecPolicy;
use aerorem_core::features::{preprocess, PreprocessConfig};
use aerorem_core::instrument::Instrumentation;
use aerorem_core::rem::RemGrid;
use aerorem_mission::{Sample, SampleSet};
use aerorem_ml::kdtree::brute_force_topk_into;
use aerorem_ml::kriging::{KrigingCacheStats, KrigingConfig, KrigingScratch, OrdinaryKriging};
use aerorem_ml::{FeatureMatrix, Regressor};
use aerorem_numerics::kernels::sq_euclidean;
use aerorem_numerics::Matrix;
use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_simkit::SimTime;
use aerorem_spatial::{Aabb, Vec3};
use aerorem_uav::UavId;

/// MACs in the synthetic world. All beacon on one channel, so the feature
/// dimension is 3 + 3 + 1 = 7: three coordinate columns and four key
/// columns (the one-hot MACs and the constant channel), which the
/// neighbour index serves with one KD-tree per MAC.
const N_MACS: u32 = 3;
/// Neighbours per kriging solve (the default `KrigingConfig`).
const MAX_NEIGHBORS: usize = 24;
/// Acceptance bar: end-to-end lattice fill vs the pre-PR per-voxel path.
const MIN_SPEEDUP: f64 = 3.0;

/// Scan locations per axis: a 4×3×3 sweep = 36 waypoints, the paper's
/// §III-A endurance-test count.
const WAYPOINTS: (usize, usize, usize) = (4, 3, 3);

struct Sizes {
    samples_per_waypoint: usize,
    resolution_m: f64,
    reps: usize,
}

const FULL: Sizes = Sizes {
    samples_per_waypoint: 24,
    resolution_m: 0.08,
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    samples_per_waypoint: 24,
    resolution_m: 0.4,
    reps: 1,
};

/// Waypoint-clustered sampling, matching how the paper's campaign actually
/// collects data: the UAV hovers at each scan location and records a burst
/// of samples with centimetre hover drift (§III-A: 36 scan locations,
/// dozens of samples each). Clustered training data is what makes
/// consecutive lattice voxels share their kriging neighbour set — the
/// regime the factor cache is built for (a scattered-sample world churns
/// the neighbour set at nearly every voxel step).
fn synthetic_world(samples_per_waypoint: usize) -> (SampleSet, Aabb) {
    let volume = Aabb::paper_volume();
    let (wx, wy, wz) = WAYPOINTS;
    let mut set = SampleSet::new();
    for mac in 1..=N_MACS {
        let mut waypoint = 0usize;
        for ix in 0..wx {
            for iy in 0..wy {
                for iz in 0..wz {
                    let centre = volume.lerp_point(
                        (ix as f64 + 0.5) / wx as f64,
                        (iy as f64 + 0.5) / wy as f64,
                        (iz as f64 + 0.5) / wz as f64,
                    );
                    for s in 0..samples_per_waypoint {
                        // ±3 cm deterministic low-discrepancy hover drift.
                        let t = (waypoint * samples_per_waypoint + s) as f64
                            + mac as f64 * 0.37;
                        let jitter = |u: f64| (u.fract() - 0.5) * 0.06;
                        let pos = Vec3::new(
                            centre.x + jitter(t * 0.378),
                            centre.y + jitter(t * 0.691),
                            centre.z + jitter(t * 0.137),
                        );
                        let rssi =
                            -55.0 - 3.0 * mac as f64 - 4.0 * pos.x - 2.0 * pos.y + pos.z;
                        set.push(Sample {
                            uav: UavId(0),
                            waypoint_index: waypoint,
                            position: pos,
                            true_position: pos,
                            ssid: Ssid::new(format!("net{mac}")),
                            mac: MacAddress::from_index(mac),
                            channel: WifiChannel::new(1).unwrap(),
                            rssi_dbm: rssi as i32,
                            timestamp: SimTime::ZERO,
                        });
                    }
                    waypoint += 1;
                }
            }
        }
    }
    (set, volume)
}

/// The pre-PR kriging solve, reproduced verbatim from the seed of this PR:
/// brute-force neighbour scan, full `(k+1)²` assembly in **distance**
/// order (every inter-neighbour γ recomputed), `Matrix::solve` factoring
/// from scratch — with every buffer freshly allocated per query, exactly
/// as the pre-PR variance fill did.
fn prepr_predict_with_variance(
    x: &FeatureMatrix,
    y: &[f64],
    gamma: &dyn Fn(f64) -> f64,
    q: &[f64],
) -> (f64, f64) {
    let mut cand = Vec::new();
    let mut nn: Vec<(usize, f64)> = Vec::new();
    brute_force_topk_into(x.as_slice(), x.dim(), q, MAX_NEIGHBORS, &mut cand, &mut nn);
    if let Some(&(i, d)) = nn.first() {
        if d < 1e-12 {
            return (y[i], 0.0);
        }
    }
    let n = nn.len();
    let mut a = Matrix::zeros(n + 1, n + 1);
    let mut b = vec![0.0; n + 1];
    for (ri, &(i, _)) in nn.iter().enumerate() {
        for (rj, &(j, _)) in nn.iter().enumerate() {
            let h = sq_euclidean(x.row(i), x.row(j)).sqrt();
            a[(ri, rj)] = gamma(h);
        }
        a[(ri, n)] = 1.0;
        a[(n, ri)] = 1.0;
        b[ri] = gamma(nn[ri].1);
    }
    b[n] = 1.0;
    for ri in 0..n {
        a[(ri, ri)] += 1e-10;
    }
    let sol = a.solve(&b).expect("pre-PR kriging system");
    let pred: f64 = nn
        .iter()
        .enumerate()
        .map(|(ri, &(i, _))| sol[ri] * y[i])
        .sum();
    let variance: f64 = (0..n).map(|ri| sol[ri] * b[ri]).sum::<f64>() + sol[n];
    (pred, variance.max(0.0))
}

fn report_row(rows: &mut Vec<String>, variant: &str, seconds: f64, items: usize) {
    eprintln!(
        "kriging_fill {variant:<18} {seconds:>9.4} s  {:>12.1} voxels/s",
        items as f64 / seconds
    );
    rows.push(bench3::row("kriging_fill", variant, seconds, items));
}

/// One JSON line of cache counters for an arm, indented for the section
/// body.
fn cache_entry(arm: &str, stats: KrigingCacheStats) -> String {
    format!(
        "        \"{}\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}",
        bench3::json_escape_free(arm),
        stats.hits,
        stats.misses,
        stats.hit_rate()
    )
}

fn main() {
    let smoke = bench3::smoke();
    let sizes = if smoke { &SMOKE } else { &FULL };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "host parallelism: {hw_threads} thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );

    let (set, volume) = synthetic_world(sizes.samples_per_waypoint);
    let (data, layout, report) = preprocess(&set, &PreprocessConfig::paper()).expect("preprocess");
    eprintln!(
        "world: {} samples over {} MACs, feature dim {}",
        report.retained_samples,
        report.retained_macs,
        layout.dim()
    );
    assert!(
        layout.dim() <= 8,
        "bench world must stay at 3 coordinate + 4 key columns (dim {} > 8)",
        layout.dim()
    );

    let mut ok = OrdinaryKriging::new(KrigingConfig::default());
    ok.fit(&data.x, &data.y).expect("fit kriging");
    let vgram = ok.variogram().expect("fitted variogram");
    let xm = FeatureMatrix::from_rows(&data.x).expect("training matrix");
    let mac = MacAddress::from_index(1);

    // The reference fill also supplies the voxel-centre query list (its
    // cells iterate in the same [z][y][x] order the grids store).
    let (ref_grid, ref_sigma) =
        RemGrid::generate_with_confidence(&ok, &layout, volume, sizes.resolution_m, mac)
            .expect("confidence fill");
    let queries: Vec<Vec<f64>> = ref_grid
        .cells()
        .map(|(p, _)| layout.encode_query(p, mac).expect("encode voxel"))
        .collect();
    let qm = FeatureMatrix::from_rows(&queries).expect("query matrix");
    let voxels = queries.len();
    eprintln!(
        "lattice: {voxels} voxels at {} m, k = {MAX_NEIGHBORS}",
        sizes.resolution_m
    );

    let mut rows: Vec<String> = Vec::new();

    // --- bit reference: shipped per-item path, one hoisted scratch ------
    let run_per_item = || -> (Vec<f64>, Vec<f64>) {
        let mut scratch = KrigingScratch::new();
        let mut preds = Vec::with_capacity(voxels);
        let mut vars = Vec::with_capacity(voxels);
        for q in &queries {
            let (p, v) = ok.predict_with_variance_with(q, &mut scratch).expect("predict");
            preds.push(p);
            vars.push(v);
        }
        (preds, vars)
    };
    let (ref_preds, ref_vars) = run_per_item();

    // --- baseline: the pre-PR per-voxel path (tolerance-checked) --------
    // Canonical index-ordering changed the assembly order, so the old and
    // new solutions agree to LU reordering error, not bit-for-bit.
    let gamma = |h: f64| vgram.gamma(h);
    for (i, q) in queries.iter().enumerate() {
        let (p, v) = prepr_predict_with_variance(&xm, &data.y, &gamma, q);
        assert!(
            (p - ref_preds[i]).abs() <= 1e-6 * ref_preds[i].abs().max(1.0)
                && (v - ref_vars[i]).abs() <= 1e-6 * ref_vars[i].abs().max(1.0),
            "voxel {i}: pre-PR baseline drifted from the shipped solver \
             ({p} vs {} / {v} vs {})",
            ref_preds[i],
            ref_vars[i]
        );
    }
    // Timed end-to-end like the pre-PR fill ran: a fresh encode allocation
    // per voxel, then the fresh-buffer solve.
    let (prepr_s, _) = bench3::best_of(sizes.reps, || {
        let mut acc = 0.0;
        for (p, _) in ref_grid.cells() {
            let q = layout.encode_query(p, mac).expect("encode voxel");
            let (pred, var) = prepr_predict_with_variance(&xm, &data.y, &gamma, &q);
            acc += pred + var;
        }
        acc
    });
    report_row(&mut rows, "per_voxel_prepr", prepr_s, voxels);

    let (per_item_s, out) = bench3::best_of(sizes.reps, run_per_item);
    assert_eq!(
        (&out.0, &out.1),
        (&ref_preds, &ref_vars),
        "per_item_serial: repeated runs must be bit-identical"
    );
    report_row(&mut rows, "per_item_serial", per_item_s, voxels);

    // --- batched arms: bit-identical to per-item under both policies ----
    let mut cache_lines: Vec<String> = Vec::new();
    let mut batched_secs = [0.0f64; 2];
    for (i, policy) in [ExecPolicy::Serial, ExecPolicy::Parallel].into_iter().enumerate() {
        let arm = format!("batched_{}", policy.label());
        let run = || {
            ok.predict_with_variance_batch_with(&qm, policy)
                .expect("batched predict")
        };
        let (preds, vars, stats) = run();
        assert_eq!(
            (&preds, &vars),
            (&ref_preds, &ref_vars),
            "{arm}: batched output must be bit-identical to per_item_serial"
        );
        assert_eq!(
            stats.total(),
            voxels as u64,
            "{arm}: every voxel must be counted as a hit or a miss"
        );
        let (s, _) = bench3::best_of(sizes.reps, run);
        eprintln!(
            "{arm}: cache {}/{} hit ({:.1}%)",
            stats.hits,
            stats.total(),
            stats.hit_rate() * 100.0
        );
        cache_lines.push(cache_entry(&arm, stats));
        report_row(&mut rows, &arm, s, voxels);
        batched_secs[i] = s;
    }

    // --- end-to-end REM fill: encode + solve + sigma, both policies -----
    let mut rem_secs = [0.0f64; 2];
    for (i, policy) in [ExecPolicy::Serial, ExecPolicy::Parallel].into_iter().enumerate() {
        let arm = format!("rem_fill_{}", policy.label());
        let run = || {
            let mut inst = Instrumentation::new();
            RemGrid::generate_with_variance(
                &ok,
                &layout,
                volume,
                sizes.resolution_m,
                mac,
                policy,
                &mut inst,
            )
            .expect("variance fill")
        };
        let (grid, sigma, stats) = run();
        assert_eq!(
            (&grid, &sigma),
            (&ref_grid, &ref_sigma),
            "{arm}: grids must be bit-identical to generate_with_confidence"
        );
        let (s, _) = bench3::best_of(sizes.reps, run);
        eprintln!(
            "{arm}: cache {}/{} hit ({:.1}%)",
            stats.hits,
            stats.total(),
            stats.hit_rate() * 100.0
        );
        cache_lines.push(cache_entry(&arm, stats));
        report_row(&mut rows, &arm, s, voxels);
        rem_secs[i] = s;
    }

    // The gate divides the end-to-end pre-PR fill (its per-voxel encode
    // was as fresh-allocated as its solve; the encode share is negligible
    // next to the (k+1)³ factorization) by the best shipped fill.
    let best_fill = rem_secs[0]
        .min(rem_secs[1])
        .min(batched_secs[0])
        .min(batched_secs[1]);
    let speedup = prepr_s / best_fill;
    eprintln!("kriging fill: {speedup:.2}x vs the pre-PR per-voxel path");

    if smoke {
        eprintln!("smoke run: skipping speedup gate and BENCH_5.json write");
        return;
    }
    assert!(
        speedup >= MIN_SPEEDUP,
        "kriging-fill speedup {speedup:.2}x fell below the {MIN_SPEEDUP}x acceptance bar"
    );

    let body = format!(
        "{{\n      \"host_threads\": {hw_threads},\n      \
         \"train_samples\": {},\n      \"feature_dim\": {},\n      \
         \"voxels\": {voxels},\n      \"max_neighbors\": {MAX_NEIGHBORS},\n      \
         \"kd_tree\": true,\n      \"bit_identical\": true,\n      \
         \"speedup_vs_per_voxel_prepr\": {speedup:.2},\n      \
         \"cache\": {{\n{}\n      }},\n      \"rows\": [\n{}\n      ]\n    }}",
        report.retained_samples,
        layout.dim(),
        cache_lines.join(",\n"),
        rows.iter()
            .map(|r| format!("        {r}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json"));
    bench3::write_section_titled(path, "aerorem kriging hot path (PR 8)", "kriging_fill", &body);
}
