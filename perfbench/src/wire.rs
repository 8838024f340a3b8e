//! `wire_point`: seeded zipfian point queries through the daemon over
//! loopback TCP, one client connection, closed loop.
//!
//! Each measuring round drains a window of [`WINDOW`] queries as
//! [`BATCH`]-query request frames with up to [`DEPTH`] frames in flight
//! (one throughput sample), then sends [`PROBES`] single-query requests
//! one at a time (latency samples). Batch size, depth and the zipf
//! exponent are those of the repository's `wire` bench. Every answer that
//! crosses the wire is compared with the same query answered in-process
//! by a store built from the same snapshot, and those in-process answers
//! are checked once against the snapshot's own grid values.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use aerorem::core::snapshot::RemSnapshot;
use aerorem::serve::wire::{Frame, Message};
use aerorem::serve::{
    point_workload, ClientError, Daemon, DaemonConfig, Distribution, ExecPolicy, Listener, Query,
    RemStore, Response, ServerHandle, WireClient, WorkloadConfig,
};

use crate::stats::{Round, Spans};
use crate::{synth, Report};

/// Distinct queries in the workload.
const QUERIES: usize = 65_536;
/// Queries per request frame.
pub const BATCH: usize = 256;
/// Request frames in flight while draining a window.
const DEPTH: usize = 16;
/// Queries per throughput sample.
const WINDOW: usize = 16_384;
/// Unpipelined single-query round trips per round.
const PROBES: usize = 256;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// A daemon serving on loopback TCP, stopped and joined when dropped so
/// no thread outlives the benchmark, whatever path it exits by.
pub struct RunningDaemon {
    handle: Option<ServerHandle>,
    addr: String,
}

impl RunningDaemon {
    /// Starts a daemon with the CLI's default configuration and loads
    /// `bytes` into it as namespace `bench` over a new connection,
    /// returning the daemon, that connection and the namespace id. This
    /// is the part of a serving workload's set-up that `setup_s` times.
    pub fn serving(bytes: &[u8]) -> Result<(Self, WireClient, u32), String> {
        let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .endpoint()
            .strip_prefix("tcp ")
            .ok_or("listener reports no tcp endpoint")?
            .to_string();
        let daemon = RunningDaemon {
            handle: Some(Daemon::new(DaemonConfig::default()).start(vec![listener])),
            addr,
        };
        let mut client = daemon.connect()?;
        let loaded = client
            .load("bench", bytes)
            .map_err(|e| format!("load: {e}"))?;
        if loaded.generation != 1 {
            return Err(format!(
                "first load served generation {}",
                loaded.generation
            ));
        }
        Ok((daemon, client, loaded.namespace))
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<WireClient, String> {
        WireClient::connect_tcp(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

/// One served snapshot: its wire image, the store the daemon builds from
/// it, built in-process, and that store's answers to the workload.
pub struct Served {
    pub bytes: Vec<u8>,
    pub store: RemStore,
    pub reference: Vec<Response>,
}

impl Served {
    /// Answers `workload` with `store`, built from `snapshot`, and checks
    /// the answers against the snapshot's grids.
    pub fn new(
        snapshot: &RemSnapshot,
        store: RemStore,
        workload: &[Query],
    ) -> Result<Self, String> {
        let reference = store
            .submit_batch(workload, ExecPolicy::Serial)
            .map_err(|e| e.to_string())?;
        let wrong = grid_mismatches(snapshot, workload, &reference);
        if wrong > 0 {
            return Err(format!(
                "{wrong} in-process answers differ from the snapshot's grid values"
            ));
        }
        Ok(Served {
            bytes: snapshot.to_bytes(),
            store,
            reference,
        })
    }
}

/// The store a daemon with the default configuration builds from
/// `snapshot`.
pub fn build_store(snapshot: &RemSnapshot) -> Result<RemStore, String> {
    RemStore::build(snapshot, DaemonConfig::default().store).map_err(|e| e.to_string())
}

/// `queries` zipfian point queries over `store`'s lattice and APs, with
/// the `wire` bench's exponent.
pub fn zipf_points(store: &RemStore, queries: usize, seed: u64) -> Vec<Query> {
    point_workload(
        store,
        &WorkloadConfig {
            queries,
            seed,
            distribution: Distribution::Zipfian,
            exponent: 1.0,
        },
    )
}

/// Answers that differ from the value the snapshot's grid for the
/// queried AP holds at the queried position, looked up with
/// `RemGrid::sample` and not through the serving store, counting missing
/// answers. Every query must be a point query.
fn grid_mismatches(snapshot: &RemSnapshot, queries: &[Query], answers: &[Response]) -> u64 {
    let wrong = queries
        .iter()
        .zip(answers)
        .filter(|(query, answer)| {
            let Query::Point { pos, ap } = query else {
                return true;
            };
            let want = snapshot
                .grids()
                .iter()
                .find(|g| g.mac() == *ap)
                .and_then(|g| g.sample(*pos));
            match answer {
                Response::Value(got) => got.map(f64::to_bits) != want.map(f64::to_bits),
                _ => true,
            }
        })
        .count();
    (wrong + queries.len().saturating_sub(answers.len())) as u64
}

/// Sends `queries` as pipelined request frames and collects every answer
/// in order.
fn drain(
    client: &mut WireClient,
    namespace: u32,
    queries: &[Query],
) -> Result<Vec<Response>, ClientError> {
    let mut out = Vec::with_capacity(queries.len());
    let mut pending = VecDeque::with_capacity(DEPTH);
    for chunk in queries.chunks(BATCH) {
        if pending.len() == DEPTH {
            let seq = pending.pop_front().expect("window is full");
            out.extend(client.recv_response(seq)?.1);
        }
        pending.push_back(client.send_query(namespace, chunk)?);
    }
    while let Some(seq) = pending.pop_front() {
        out.extend(client.recv_response(seq)?.1);
    }
    Ok(out)
}

/// Answers in `got` that differ from `want`, counting missing ones.
pub fn mismatches(got: &[Response], want: &[Response]) -> u64 {
    let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (wrong + want.len().saturating_sub(got.len())) as u64
}

/// Spans around each serving layer for one batch: the in-process engine,
/// the frame codec a client runs on each side, and the whole unpipelined
/// round trip through the daemon.
pub fn trace_layers(
    spans: &mut Spans,
    client: &mut WireClient,
    namespace: u32,
    store: &RemStore,
    batch: &[Query],
) -> Result<(), ClientError> {
    let policy = DaemonConfig::default().policy;
    // The daemon's copy of the store is hot; answer once untimed so the
    // engine span sees the same caches.
    let _ = store.submit_batch(batch, policy);
    let answers = spans
        .time("engine_batch_us", || store.submit_batch(batch, policy))
        .expect("in-process batch answers");
    let reply = Message::Response {
        generation: 1,
        responses: answers,
    }
    .into_frame(namespace, 1)
    .encode();
    spans.time("frame_codec_us", || {
        let request = Message::Request {
            queries: batch.to_vec(),
        }
        .into_frame(namespace, 1)
        .encode();
        let (frame, _) = Frame::decode_stream(&reply)
            .expect("well-formed reply")
            .expect("complete reply");
        (
            request,
            Message::from_frame(&frame).expect("response payload"),
        )
    });
    spans.time("wire_batch_us", || client.query(namespace, batch))?;
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let snapshot = synth::snapshot(seed, 0);
    let store = build_store(&snapshot)?;
    let workload = zipf_points(&store, QUERIES, seed);
    let Served {
        bytes,
        store,
        reference,
    } = Served::new(&snapshot, store, &workload)?;

    let mut setups_s = Vec::with_capacity(SETUP_REPS);
    let mut serving = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous repetition's daemon before timing the next.
        drop(serving.take());
        let t = Instant::now();
        serving = Some(RunningDaemon::serving(&bytes)?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mut client, namespace) = serving.expect("at least one set-up");

    let mut spans = Spans::new(trace);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = Vec::new();
    let mut offset = 0;
    let start = Instant::now();
    'measure: while start.elapsed() < budget {
        let range = offset..offset + WINDOW;
        offset = (offset + WINDOW) % QUERIES;
        attempted += WINDOW as u64;
        let t = Instant::now();
        let seconds = match drain(&mut client, namespace, &workload[range.clone()]) {
            Ok(answers) => {
                failed += mismatches(&answers, &reference[range.clone()]);
                t.elapsed().as_secs_f64()
            }
            Err(e) => {
                eprintln!("wire_point: window failed: {e}");
                failed += WINDOW as u64;
                break 'measure;
            }
        };
        let mut latencies_s = Vec::with_capacity(PROBES);
        for i in range.clone().step_by(WINDOW / PROBES).take(PROBES) {
            attempted += 1;
            let t = Instant::now();
            match client.query(namespace, &workload[i..=i]) {
                Ok((_, answer)) => {
                    latencies_s.push(t.elapsed().as_secs_f64());
                    failed += mismatches(&answer, &reference[i..=i]);
                }
                Err(e) => {
                    eprintln!("wire_point: probe failed: {e}");
                    failed += 1;
                    break 'measure;
                }
            }
        }
        rounds.push(Round {
            work: WINDOW as f64,
            seconds,
            latencies_s,
        });
        if spans.enabled() {
            let batch = &workload[range.start..range.start + BATCH];
            if let Err(e) = trace_layers(&mut spans, &mut client, namespace, &store, batch) {
                eprintln!("wire_point: traced batch failed: {e}");
                failed += 1;
                break 'measure;
            }
        }
    }
    drop(client);
    drop(daemon);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        rounds,
        setups_s,
        spans,
    })
}
