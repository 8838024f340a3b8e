//! REM serving throughput: batched point queries against the in-memory
//! store.
//!
//! This is the acceptance bench for the serving layer (PR 6): it builds a
//! synthetic multi-AP snapshot, ingests it into `RemStore`, and drives
//! seeded zipfian (hot-spot) and uniform point workloads through
//! `submit_batch` at several batch sizes, under both execution policies.
//! Before any number is written it asserts the serial and parallel arms
//! return **bit-identical** response vectors over batches of two executor
//! chunks (so the parallel arm splits them across workers), then the
//! timing rows land in the `serve` section of `BENCH_3.json` at the
//! repository root (gated by `scripts/bench_diff`), and the run fails
//! outright if the best zipfian configuration cannot sustain ≥1M point
//! queries/s — the PR's acceptance floor.
//!
//! Custom harness (`harness = false`): fixed-repetition best-of timing
//! and a machine-readable artifact, like the other PR benches.
//! `AEROREM_BENCH_SMOKE=1` shrinks the workload, keeps every identity
//! assertion, and skips the JSON write and the throughput floor.

use std::path::Path;

use aerorem_bench::bench3;
use aerorem_core::rem::RemGrid;
use aerorem_core::snapshot::RemSnapshot;
use aerorem_numerics::ExecPolicy;
use aerorem_propagation::ap::MacAddress;
use aerorem_serve::{
    point_workload, Distribution, Query, RemStore, Response, StoreConfig, WorkloadConfig,
    SERVE_GRANULARITY,
};
use aerorem_spatial::Aabb;

/// Zipf exponent of the hot-spot workload (classic Zipf).
const ZIPF_EXPONENT: f64 = 1.0;
/// Workload seed (same seed → same queries on every host).
const SEED: u64 = 2206;
/// Acceptance floor: best zipfian configuration must sustain this many
/// point queries per second in a full (non-smoke) run.
const MIN_ZIPF_QPS: f64 = 1_000_000.0;

struct Sizes {
    dims: (usize, usize, usize),
    aps: u32,
    queries: usize,
    batch_sizes: &'static [usize],
    reps: usize,
}

const FULL: Sizes = Sizes {
    dims: (64, 64, 32),
    aps: 4,
    queries: 1_000_000,
    batch_sizes: &[1024, 65536],
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    dims: (16, 16, 8),
    aps: 2,
    queries: 20_000,
    batch_sizes: &[512],
    reps: 1,
};

/// A deterministic synthetic snapshot: per-AP fields with distinct
/// spatial structure (so best-AP and coverage answers are non-trivial).
fn synthetic_snapshot(sizes: &Sizes) -> RemSnapshot {
    let (nx, ny, nz) = sizes.dims;
    let grids = (1..=sizes.aps)
        .map(|mac| {
            let values = (0..nx * ny * nz)
                .map(|i| {
                    let t = i as f64 * 0.000_737 + mac as f64 * 1.37;
                    -35.0 - 25.0 * (t.sin() * t.cos()).abs() - 2.0 * mac as f64
                })
                .collect();
            RemGrid::from_parts(
                MacAddress::from_index(mac),
                Aabb::paper_volume(),
                sizes.dims,
                values,
            )
            .expect("synthetic grid shape")
        })
        .collect();
    RemSnapshot::new(grids).expect("synthetic snapshot is non-empty")
}

/// Runs the whole workload through `submit_batch` in `batch`-sized
/// slices, returning all responses (for identity checks).
fn drain(store: &RemStore, workload: &[Query], batch: usize, policy: ExecPolicy) -> Vec<Response> {
    let mut out = Vec::with_capacity(workload.len());
    for chunk in workload.chunks(batch) {
        out.extend(store.submit_batch(chunk, policy).expect("batch answers"));
    }
    out
}

fn main() {
    let smoke = bench3::smoke();
    let sizes = if smoke { &SMOKE } else { &FULL };
    let snapshot = synthetic_snapshot(sizes);

    // The snapshot codec is on the serving path: prove the store is built
    // from bytes a reader would load, not from in-memory grids.
    let decoded = RemSnapshot::from_bytes(&snapshot.to_bytes()).expect("snapshot round-trip");
    assert_eq!(decoded, snapshot, "codec must round-trip bit-identically");

    let cells = sizes.dims.0 * sizes.dims.1 * sizes.dims.2;
    eprintln!(
        "world: {cells} cells x {} APs, {} queries per arm{}",
        sizes.aps,
        sizes.queries,
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<String> = Vec::new();
    let mut peak_zipf_qps = 0.0f64;
    let store = RemStore::build(&decoded, StoreConfig::default()).expect("store build");
    // Two executor chunks per gate batch: the parallel arm must split it.
    let gate_batch = 2 * SERVE_GRANULARITY.min_chunk;
    assert!(
        sizes.queries >= gate_batch,
        "the identity gate needs a two-chunk batch"
    );
    for dist in [Distribution::Zipfian, Distribution::Uniform] {
        let workload = point_workload(
            &store,
            &WorkloadConfig {
                queries: sizes.queries,
                seed: SEED,
                distribution: dist,
                exponent: ZIPF_EXPONENT,
            },
        );
        // Determinism gate: both policy arms, full response vectors.
        let reference = drain(&store, &workload, gate_batch, ExecPolicy::Serial);
        let parallel = drain(&store, &workload, gate_batch, ExecPolicy::Parallel);
        assert_eq!(
            reference, parallel,
            "{dist}: serial and parallel batches must be bit-identical"
        );
        for &batch in sizes.batch_sizes {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
                let (seconds, answers) =
                    bench3::best_of(sizes.reps, || drain(&store, &workload, batch, policy));
                assert_eq!(answers, reference, "batch size must not change answers");
                let qps = sizes.queries as f64 / seconds;
                if dist == Distribution::Zipfian {
                    peak_zipf_qps = peak_zipf_qps.max(qps);
                }
                let variant = format!("{dist}_b{batch}_{}", policy.label());
                eprintln!("{variant:<32} {seconds:>9.4} s  {qps:>12.0} q/s");
                rows.push(bench3::row("serve_point", &variant, seconds, sizes.queries));
            }
        }
    }

    if smoke {
        eprintln!("smoke run: skipping JSON write and throughput floor");
        return;
    }
    assert!(
        peak_zipf_qps >= MIN_ZIPF_QPS,
        "acceptance floor: peak zipfian throughput {peak_zipf_qps:.0} q/s < {MIN_ZIPF_QPS:.0} q/s"
    );

    let body = format!(
        "{{\n      \"cells\": {cells},\n      \"aps\": {},\n      \"queries\": {},\n      \
         \"zipf_exponent\": {ZIPF_EXPONENT},\n      \
         \"bit_identical\": true,\n      \"peak_zipfian_qps\": {:.1},\n      \"rows\": [\n{}\n      ]\n    }}",
        sizes.aps,
        sizes.queries,
        peak_zipf_qps,
        rows.iter()
            .map(|r| format!("      {r}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_3.json"));
    bench3::write_section(path, "serve", &body);
}
