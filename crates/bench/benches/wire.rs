//! Wire round-trip throughput and latency: the serving daemon behind the
//! real protocol, over loopback TCP and a Unix-domain socket.
//!
//! This is the acceptance bench for `aerorem-served` (PR 9): it freezes a
//! synthetic multi-AP snapshot, starts an in-process [`Daemon`] on both
//! transports, and drives the seeded zipfian point workload through
//! [`WireClient`] with pipelined request frames, under both execution
//! policies. Before any number is written it asserts the responses that
//! crossed the wire are **bit-identical** to an in-process
//! `submit_batch` over the same store, then the timing rows (queries/s
//! plus p99 single-query round-trip latency) land in `BENCH_6.json` at
//! the repository root (gated by `scripts/bench_diff`), and the run
//! fails outright if the best configuration cannot sustain ≥100k point
//! queries/s through the socket — the PR's acceptance floor.
//!
//! Custom harness (`harness = false`): fixed-repetition best-of timing
//! and a machine-readable artifact, like the other PR benches.
//! `AEROREM_BENCH_SMOKE=1` shrinks the workload, keeps every identity
//! assertion, and skips the JSON write and the throughput floor.

use std::path::Path;
use std::time::Instant;

use aerorem_bench::bench3;
use aerorem_core::rem::RemGrid;
use aerorem_core::snapshot::RemSnapshot;
use aerorem_numerics::ExecPolicy;
use aerorem_propagation::ap::MacAddress;
use aerorem_serve::{
    point_workload, Daemon, DaemonConfig, Distribution, Listener, Query, RemStore, Response,
    StoreConfig, WireClient, WorkloadConfig,
};
use aerorem_spatial::Aabb;

/// Workload seed (same seed → same queries on every host).
const SEED: u64 = 2206;
/// Request frames kept in flight per connection while draining.
const PIPELINE_DEPTH: usize = 16;
/// Acceptance floor: best configuration must push this many point
/// queries per second through a loopback socket in a full run.
const MIN_WIRE_QPS: f64 = 100_000.0;

struct Sizes {
    dims: (usize, usize, usize),
    aps: u32,
    queries: usize,
    batch_sizes: &'static [usize],
    latency_probes: usize,
    reps: usize,
}

const FULL: Sizes = Sizes {
    dims: (32, 32, 16),
    aps: 3,
    queries: 200_000,
    batch_sizes: &[256, 4096],
    latency_probes: 2_000,
    reps: 3,
};

const SMOKE: Sizes = Sizes {
    dims: (8, 8, 4),
    aps: 2,
    queries: 4_000,
    batch_sizes: &[256],
    latency_probes: 100,
    reps: 1,
};

/// A deterministic synthetic snapshot (same shape family as the serve
/// bench: per-AP fields with distinct spatial structure).
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

/// Drains the whole workload through one connection with a window of
/// pipelined request frames of `batch` queries each, returning all
/// responses in workload order (for identity checks).
///
/// The window depth shrinks as `batch` grows so the bytes in flight
/// stay bounded: with a blocking client and a thread-per-connection
/// daemon, a deep window of large frames fills both socket buffers and
/// deadlocks — the daemon blocks writing replies nobody is reading
/// while the client blocks writing the next request.
fn drain_wire(client: &mut WireClient, workload: &[Query], batch: usize) -> Vec<Response> {
    let depth = PIPELINE_DEPTH.min((8192 / batch).max(1));
    let mut out = Vec::with_capacity(workload.len());
    let chunks: Vec<&[Query]> = workload.chunks(batch).collect();
    let mut pending = std::collections::VecDeque::with_capacity(depth);
    for chunk in chunks {
        if pending.len() == depth {
            let seq = pending.pop_front().expect("non-empty window");
            let (_, responses) = client.recv_response(seq).expect("pipelined reply");
            out.extend(responses);
        }
        pending.push_back(client.send_query(0, chunk).expect("send request frame"));
    }
    while let Some(seq) = pending.pop_front() {
        let (_, responses) = client.recv_response(seq).expect("pipelined reply");
        out.extend(responses);
    }
    out
}

/// p99 of per-probe round-trip times, in seconds.
fn p99(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let idx = (samples.len() * 99).div_ceil(100).saturating_sub(1);
    samples[idx]
}

fn main() {
    let smoke = bench3::smoke();
    let sizes = if smoke { &SMOKE } else { &FULL };
    let snapshot = synthetic_snapshot(sizes);
    let store_config = StoreConfig::default();

    // Ground truth: the same snapshot answered in-process, no sockets.
    let store = RemStore::build(&snapshot, store_config).expect("store build");
    let workload = point_workload(
        &store,
        &WorkloadConfig {
            queries: sizes.queries,
            seed: SEED,
            distribution: Distribution::Zipfian,
            exponent: 1.0,
        },
    );
    let reference = store
        .submit_batch(&workload, ExecPolicy::Serial)
        .expect("in-process batch answers");

    let cells = sizes.dims.0 * sizes.dims.1 * sizes.dims.2;
    eprintln!(
        "world: {cells} cells x {} APs, {} queries per arm{}",
        sizes.aps,
        sizes.queries,
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<String> = Vec::new();
    let mut peak_qps = 0.0f64;
    let mut worst_p99_us = 0.0f64;
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        let daemon = Daemon::new(DaemonConfig {
            policy,
            store: store_config,
        });
        daemon
            .load("bench", &snapshot.to_bytes())
            .expect("snapshot loads");
        let tcp = Listener::bind_tcp("127.0.0.1:0").expect("bind tcp loopback");
        let tcp_addr = tcp
            .endpoint()
            .strip_prefix("tcp ")
            .expect("tcp endpoint")
            .to_string();
        let sock = std::env::temp_dir().join(format!(
            "aerorem-wire-bench-{}-{}.sock",
            std::process::id(),
            policy.label()
        ));
        let uds = Listener::bind_uds(&sock).expect("bind uds");
        let handle = daemon.start(vec![tcp, uds]);

        let connect = |transport: &str| -> WireClient {
            match transport {
                "tcp" => WireClient::connect_tcp(&tcp_addr).expect("connect tcp"),
                _ => WireClient::connect_uds(&sock).expect("connect uds"),
            }
        };

        let mut shutdown_client = None;
        for transport in ["uds", "tcp"] {
            // Identity gate: everything that crosses the wire must match
            // the in-process answers bit for bit.
            let mut client = connect(transport);
            let over_wire = drain_wire(&mut client, &workload, sizes.batch_sizes[0]);
            assert_eq!(
                over_wire, reference,
                "{transport}/{}: wire responses must be bit-identical to in-process answers",
                policy.label()
            );

            for &batch in sizes.batch_sizes {
                let (seconds, answers) =
                    bench3::best_of(sizes.reps, || drain_wire(&mut client, &workload, batch));
                assert_eq!(answers, reference, "batch size must not change answers");
                let qps = sizes.queries as f64 / seconds;
                peak_qps = peak_qps.max(qps);
                // `exec-<policy>`, not a bare `_serial`/`_parallel`
                // suffix: wire timings are transport-dominated, so the
                // bench_diff parallel-never-loses ratio gate (a PR-7
                // executor invariant) must not pair these rows.
                let variant = format!("{transport}_b{batch}_exec-{}", policy.label());
                eprintln!("{variant:<28} {seconds:>9.4} s  {qps:>12.0} q/s");
                rows.push(bench3::row("wire_point", &variant, seconds, sizes.queries));
            }

            // Latency: unpipelined single-query round trips, p99.
            let mut samples: Vec<f64> = (0..sizes.latency_probes)
                .map(|i| {
                    let probe = &workload[i % workload.len()..][..1];
                    let start = Instant::now();
                    let (_, responses) = client.query(0, probe).expect("latency probe");
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(responses.len(), 1);
                    elapsed
                })
                .collect();
            let p99_s = p99(&mut samples);
            worst_p99_us = worst_p99_us.max(p99_s * 1e6);
            let variant = format!("{transport}_p99_exec-{}", policy.label());
            eprintln!("{variant:<28} {:>9.1} us round trip", p99_s * 1e6);
            rows.push(bench3::row("wire_latency", &variant, p99_s, 1));

            shutdown_client = Some(client);
        }

        shutdown_client
            .expect("at least one transport ran")
            .shutdown()
            .expect("daemon acknowledges shutdown");
        handle.join();
    }

    if smoke {
        eprintln!("smoke run: skipping JSON write and throughput floor");
        return;
    }
    assert!(
        peak_qps >= MIN_WIRE_QPS,
        "acceptance floor: peak wire throughput {peak_qps:.0} q/s < {MIN_WIRE_QPS:.0} q/s"
    );

    let body = format!(
        "{{\n      \"cells\": {cells},\n      \"aps\": {},\n      \"queries\": {},\n      \
         \"pipeline_depth\": {PIPELINE_DEPTH},\n      \"latency_probes\": {},\n      \
         \"bit_identical\": true,\n      \"peak_wire_qps\": {:.1},\n      \
         \"worst_p99_us\": {:.1},\n      \"rows\": [\n{}\n      ]\n    }}",
        sizes.aps,
        sizes.queries,
        sizes.latency_probes,
        peak_qps,
        worst_p99_us,
        rows.iter()
            .map(|r| format!("      {r}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json"));
    bench3::write_section_titled(path, "aerorem wire serving (PR 9)", "wire", &body);
}
