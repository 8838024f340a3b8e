//! Executor scaling: thread count × chunk size across the chunked hot
//! paths (PR 7).
//!
//! This is the acceptance bench for the chunked `exec` rebuild. It sweeps
//! worker count (via the `AEROREM_EXEC_THREADS` override) and chunk size
//! (via `Granularity`) over a raw-kernel workload, then times the real
//! migrated stages — grid search, the batched REM lattice fill, the
//! blocked empirical variogram, and sharded point serving — under both
//! execution policies. Every arm is asserted **bit-identical** to its
//! serial reference before any number is written; the executor's
//! determinism contract makes worker count and chunking invisible in the
//! output, so the sweep can only move wall time.
//!
//! Perf gates are hardware-conditional: with ≥ 2 cores the default
//! parallel arm must reach ≥ 2× serial on `grid_search` and
//! `rem_fill_knn_batched`; on a single-core host (where the executor's
//! `workers == 1` path is an inline serial loop) parallel must instead
//! stay within 10 % of serial — the PR's "parallel never loses" floor.
//! The blocked variogram must beat the naive pair loop by ≥ 1.1× on any
//! host, and no `serve_point` variant may lose to its serial pair.
//! Forced-thread sweep rows whose worker count exceeds the host's
//! physical parallelism are tagged `_oversub` (e.g. `parallel_t4_oversub`
//! on a single-core host): they measure scheduler churn rather than
//! scaling, so `scripts/bench_diff` skips its parallel-never-loses gate
//! on them.
//!
//! Timing rows land in the `scaling` section of `BENCH_4.json` at the
//! repository root (gated by `scripts/bench_diff`). Custom harness
//! (`harness = false`); `AEROREM_BENCH_SMOKE=1` shrinks the workload,
//! keeps every identity assertion, and skips the JSON write and the perf
//! gates.

use std::path::Path;

use aerorem_bench::bench3;
use aerorem_core::exec::{self, Granularity};
use aerorem_core::features::{preprocess, PreprocessConfig};
use aerorem_core::models::ModelKind;
use aerorem_core::rem::RemGrid;
use aerorem_core::snapshot::RemSnapshot;
use aerorem_mission::{Sample, SampleSet};
use aerorem_ml::gridsearch::{grid_search_with, knn_grid};
use aerorem_ml::kriging::{empirical_variogram_matrix, VariogramBin};
use aerorem_ml::FeatureMatrix;
use aerorem_numerics::kernels::sq_euclidean;
use aerorem_numerics::ExecPolicy;
use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_serve::{point_workload, Distribution, RemStore, StoreConfig, WorkloadConfig};
use aerorem_simkit::SimTime;
use aerorem_spatial::Aabb;
use aerorem_uav::UavId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MACs in the synthetic world (matches the other PR benches).
const N_MACS: u32 = 8;
/// Grid-search validation fraction and split seed, shared by all arms.
const VAL_FRACTION: f64 = 0.25;
const SEED: u64 = 42;
/// Parity tolerance: on hosts where parallelism cannot win, the parallel
/// arm must stay within this factor of serial (best-of timing).
const PARITY_FACTOR: f64 = 1.10;

struct Sizes {
    samples_per_mac: usize,
    ks: &'static [usize],
    kernel_rows: usize,
    kernel_dim: usize,
    chunk_sizes: &'static [usize],
    thread_sweep: &'static [usize],
    rem_resolution_m: f64,
    variogram_points: usize,
    serve_dims: (usize, usize, usize),
    serve_queries: usize,
    serve_batches: &'static [usize],
    reps: usize,
}

const FULL: Sizes = Sizes {
    samples_per_mac: 200,
    ks: &[1, 2, 3, 4, 8, 16, 32, 64],
    kernel_rows: 20_000,
    kernel_dim: 16,
    chunk_sizes: &[8, 64, 512, 4096],
    thread_sweep: &[1, 2, 4],
    rem_resolution_m: 0.15,
    variogram_points: 1500,
    serve_dims: (32, 32, 16),
    serve_queries: 200_000,
    serve_batches: &[1024, 65536],
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    samples_per_mac: 40,
    ks: &[1, 3],
    kernel_rows: 2_000,
    kernel_dim: 8,
    chunk_sizes: &[8, 512],
    thread_sweep: &[1, 2],
    rem_resolution_m: 0.4,
    variogram_points: 150,
    serve_dims: (16, 16, 8),
    serve_queries: 20_000,
    serve_batches: &[512],
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

/// The pre-PR empirical variogram: nested rows, one global accumulator.
/// Kept as the timing baseline the blocked rewrite must beat.
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

/// Runs `f` with `AEROREM_EXEC_THREADS` pinned to `n`, then restores the
/// previous value. The override only affects the parallel arm's worker
/// count; results are policy- and worker-count-independent by contract.
fn with_forced_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = std::env::var_os("AEROREM_EXEC_THREADS");
    std::env::set_var("AEROREM_EXEC_THREADS", n.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var("AEROREM_EXEC_THREADS", v),
        None => std::env::remove_var("AEROREM_EXEC_THREADS"),
    }
    out
}

fn report_row(rows: &mut Vec<String>, stage: &str, variant: &str, seconds: f64, items: usize) {
    eprintln!(
        "{stage:<22} {variant:<20} {seconds:>9.4} s  {:>12.1} items/s",
        items as f64 / seconds
    );
    rows.push(bench3::row(stage, variant, seconds, items));
}

/// Suffix for forced-thread sweep rows whose worker count exceeds the
/// host's physical parallelism: those arms time scheduler churn, not
/// scaling, so they are tagged and `scripts/bench_diff` excludes them
/// from the parallel-never-loses gate.
fn oversub_tag(threads: usize, hw_threads: usize) -> &'static str {
    if threads > hw_threads {
        "_oversub"
    } else {
        ""
    }
}

/// Asserts the hardware-conditional speedup gate for one stage's default
/// serial/parallel pair.
fn gate_pair(stage: &str, serial_s: f64, parallel_s: f64, hw_threads: usize) {
    if hw_threads >= 2 {
        assert!(
            parallel_s * 2.0 <= serial_s,
            "{stage}: parallel ({parallel_s:.4}s) must be >= 2x serial ({serial_s:.4}s) on a {hw_threads}-core host"
        );
    } else {
        assert!(
            parallel_s <= serial_s * PARITY_FACTOR,
            "{stage}: parallel ({parallel_s:.4}s) must not lose to serial ({serial_s:.4}s) on a single-core host"
        );
    }
}

fn main() {
    let smoke = bench3::smoke();
    let sizes = if smoke { &SMOKE } else { &FULL };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "host parallelism: {hw_threads} thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut rows: Vec<String> = Vec::new();

    // --- raw kernel: chunk size x thread count over map_chunks ---
    // One item = one sq_euclidean row against a fixed query; cheap enough
    // that executor bookkeeping dominates at small chunks, which is
    // exactly what the sweep is probing.
    let dim = sizes.kernel_dim;
    let points: Vec<Vec<f64>> = (0..sizes.kernel_rows)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * dim + d) as f64 * 0.618_033).fract() * 10.0)
                .collect()
        })
        .collect();
    let query: Vec<f64> = (0..dim).map(|d| d as f64 * 0.5).collect();
    let reference: Vec<f64> = points.iter().map(|p| sq_euclidean(p, &query)).collect();
    for &chunk in sizes.chunk_sizes {
        let gran = Granularity::new(chunk, chunk);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let run = || -> Vec<f64> {
                exec::map_chunks(policy, gran, &points, |_, block| {
                    block.iter().map(|p| sq_euclidean(p, &query)).collect::<Vec<f64>>()
                })
                .into_iter()
                .flatten()
                .collect()
            };
            assert_eq!(
                run(),
                reference,
                "kernel_chunks/c{chunk}/{}: chunking must be invisible in the output",
                policy.label()
            );
            let (s, _) = bench3::best_of(sizes.reps, run);
            let variant = format!("c{chunk}_{}", policy.label());
            report_row(&mut rows, "kernel_chunks", &variant, s, sizes.kernel_rows);
        }
    }
    // Thread sweep at the largest chunk: forced worker counts, including
    // oversubscription past the physical core count.
    {
        let chunk = *sizes.chunk_sizes.last().expect("chunk sweep non-empty");
        let gran = Granularity::new(chunk, chunk);
        for &threads in sizes.thread_sweep {
            let run = || -> Vec<f64> {
                with_forced_threads(threads, || {
                    exec::map_chunks(ExecPolicy::Parallel, gran, &points, |_, block| {
                        block.iter().map(|p| sq_euclidean(p, &query)).collect::<Vec<f64>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect()
                })
            };
            assert_eq!(
                run(),
                reference,
                "kernel_chunks/t{threads}: worker count must be invisible in the output"
            );
            let (s, _) = bench3::best_of(sizes.reps, run);
            let variant = format!(
                "c{chunk}_parallel_t{threads}{}",
                oversub_tag(threads, hw_threads)
            );
            report_row(&mut rows, "kernel_chunks", &variant, s, sizes.kernel_rows);
        }
    }

    // --- grid search (per-item granularity: expensive, uneven items) ---
    let set = synthetic_world(sizes.samples_per_mac);
    let (data, layout, report) = preprocess(&set, &PreprocessConfig::paper()).expect("preprocess");
    eprintln!(
        "world: {} samples over {} MACs, feature dim {}",
        report.retained_samples,
        report.retained_macs,
        layout.dim()
    );
    let n_candidates = sizes.ks.len() * 4;
    let grid_ref = grid_search_with(
        knn_grid(sizes.ks),
        &data,
        VAL_FRACTION,
        &mut StdRng::seed_from_u64(SEED),
        ExecPolicy::Serial,
    )
    .expect("grid search");
    let mut grid_secs = [0.0f64; 2];
    for (i, policy) in [ExecPolicy::Serial, ExecPolicy::Parallel].into_iter().enumerate() {
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
        assert_eq!(
            result.scores, grid_ref.scores,
            "grid_search/{}: ranking must be bit-identical to serial",
            policy.label()
        );
        report_row(&mut rows, "grid_search", policy.label(), s, n_candidates);
        grid_secs[i] = s;
    }

    // --- batched REM lattice fill ---
    let mut knn = ModelKind::KnnScaled16.build(&layout).expect("build kNN");
    knn.fit(&data.x, &data.y).expect("fit kNN");
    let volume = Aabb::paper_volume();
    let mac = MacAddress::from_index(1);
    let fill = |policy: ExecPolicy| {
        RemGrid::generate_with(
            knn.as_ref(),
            &layout,
            volume,
            sizes.rem_resolution_m,
            mac,
            policy,
        )
        .expect("lattice fill")
    };
    let rem_ref = fill(ExecPolicy::Serial);
    let voxels = rem_ref.len();
    let mut rem_secs = [0.0f64; 2];
    for (i, policy) in [ExecPolicy::Serial, ExecPolicy::Parallel].into_iter().enumerate() {
        let (s, grid) = bench3::best_of(sizes.reps, || fill(policy));
        assert_eq!(
            grid, rem_ref,
            "rem_fill_knn_batched/{}: grid must be bit-identical to serial",
            policy.label()
        );
        report_row(&mut rows, "rem_fill_knn_batched", policy.label(), s, voxels);
        rem_secs[i] = s;
    }
    // Forced-thread sweep on the fill: informational on a small host,
    // the scaling curve on a big one (identity still asserted).
    for &threads in sizes.thread_sweep {
        let (s, grid) = bench3::best_of(sizes.reps, || {
            with_forced_threads(threads, || fill(ExecPolicy::Parallel))
        });
        assert_eq!(grid, rem_ref, "rem_fill_knn_batched/t{threads}");
        let variant = format!("parallel_t{threads}{}", oversub_tag(threads, hw_threads));
        report_row(&mut rows, "rem_fill_knn_batched", &variant, s, voxels);
    }

    // --- empirical variogram: naive pair loop vs blocked rewrite ---
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
    let mut blocked_serial_s = f64::INFINITY;
    let mut blocked: Option<Vec<VariogramBin>> = None;
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let (s, bins) = bench3::best_of(sizes.reps, || {
            empirical_variogram_matrix(&xm, &vals, n_bins, max_lag, policy).expect("variogram")
        });
        let variant = if policy == ExecPolicy::Serial {
            blocked_serial_s = s;
            "blocked_serial"
        } else {
            "blocked_parallel"
        };
        report_row(&mut rows, "empirical_variogram", variant, s, n_pts);
        assert_eq!(bins.len(), naive_bins.len());
        for (b, n) in bins.iter().zip(&naive_bins) {
            // Same pairs per bin; sums agree to reassociation error.
            assert_eq!(b.pairs, n.pairs, "empirical_variogram/{variant}: pairing changed");
            assert!(
                (b.lag - n.lag).abs() <= 1e-9 * n.lag.abs().max(1.0)
                    && (b.gamma - n.gamma).abs() <= 1e-9 * n.gamma.abs().max(1.0),
                "empirical_variogram/{variant}: bins drifted from the naive loop"
            );
        }
        match &blocked {
            Some(first) => assert_eq!(
                first, &bins,
                "empirical_variogram: serial and parallel must agree bit for bit"
            ),
            None => blocked = Some(bins),
        }
    }

    // --- bricked point serving (small-batch fallback in play) ---
    let (nx, ny, nz) = sizes.serve_dims;
    let grids = (1..=4u32)
        .map(|m| {
            let values = (0..nx * ny * nz)
                .map(|i| {
                    let t = i as f64 * 0.000_737 + m as f64 * 1.37;
                    -35.0 - 25.0 * (t.sin() * t.cos()).abs() - 2.0 * m as f64
                })
                .collect();
            RemGrid::from_parts(MacAddress::from_index(m), volume, sizes.serve_dims, values)
                .expect("serve grid")
        })
        .collect();
    let store = RemStore::build(
        &RemSnapshot::new(grids).expect("serve snapshot"),
        StoreConfig::default(),
    )
    .expect("store build");
    let workload = point_workload(
        &store,
        &WorkloadConfig {
            queries: sizes.serve_queries,
            seed: 2206,
            distribution: Distribution::Zipfian,
            exponent: 1.0,
        },
    );
    let serve_ref: Vec<_> = workload.iter().map(|q| store.answer(q)).collect();
    for &batch in sizes.serve_batches {
        let mut pair = [0.0f64; 2];
        for (i, policy) in [ExecPolicy::Serial, ExecPolicy::Parallel].into_iter().enumerate() {
            let run = || {
                let mut out = Vec::with_capacity(workload.len());
                for slice in workload.chunks(batch) {
                    out.extend(store.submit_batch(slice, policy).expect("batch answers"));
                }
                out
            };
            assert_eq!(
                run(),
                serve_ref,
                "serve_point/b{batch}/{}: answers must be bit-identical",
                policy.label()
            );
            let (s, _) = bench3::best_of(sizes.reps, run);
            let variant = format!("b{batch}_{}", policy.label());
            report_row(&mut rows, "serve_point", &variant, s, sizes.serve_queries);
            pair[i] = s;
        }
        if !smoke {
            assert!(
                pair[1] <= pair[0] * PARITY_FACTOR,
                "serve_point/b{batch}: parallel ({:.4}s) must not lose to serial ({:.4}s)",
                pair[1],
                pair[0]
            );
        }
    }

    if smoke {
        eprintln!("smoke run: skipping perf gates and BENCH_4.json write");
        return;
    }
    gate_pair("grid_search", grid_secs[0], grid_secs[1], hw_threads);
    gate_pair("rem_fill_knn_batched", rem_secs[0], rem_secs[1], hw_threads);
    assert!(
        blocked_serial_s * 1.1 <= naive_s,
        "empirical_variogram: blocked_serial ({blocked_serial_s:.4}s) must beat naive ({naive_s:.4}s) by >= 1.1x"
    );

    let body = format!(
        "{{\n      \"host_threads\": {hw_threads},\n      \"kernel_rows\": {},\n      \
         \"grid_candidates\": {n_candidates},\n      \"rem_voxels\": {voxels},\n      \
         \"variogram_points\": {n_pts},\n      \"serve_queries\": {},\n      \
         \"bit_identical\": true,\n      \"rows\": [\n{}\n      ]\n    }}",
        sizes.kernel_rows,
        sizes.serve_queries,
        rows.iter()
            .map(|r| format!("        {r}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json"));
    bench3::write_section_titled(
        path,
        "aerorem parallel executor scaling (PR 7)",
        "scaling",
        &body,
    );
}
