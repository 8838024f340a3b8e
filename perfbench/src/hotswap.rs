//! `hotswap_point`: the `wire_point` query stream read from one
//! connection while an operator connection keeps hot-swapping the served
//! snapshot.
//!
//! The reader sends zipfian point queries as [`BATCH`]-query request
//! frames, the batch size of the repository's `wire` bench, closed loop
//! with one frame in flight, and times each frame. Meanwhile a second
//! connection loads a new survey of the same building once every
//! [`SWAP_EVERY`], alternating between two snapshot variants, so reads
//! race a decode, a store build and a pointer swap in the daemon. Each
//! response names the generation that answered it; odd generations serve
//! variant 0 and even ones variant 1, and every answer is compared with
//! the same query answered in-process against that variant.
//!
//! A measuring round is one swap period with its swap in the middle, so
//! every round holds the same share of reads that raced a swap.

use std::time::{Duration, Instant};

use aerorem::core::snapshot::RemSnapshot;
use aerorem::serve::{Query, WireClient};

use crate::stats::{Round, Spans};
use crate::wire::{
    build_store, mismatches, trace_layers, zipf_points, RunningDaemon, Served, BATCH, SETUP_REPS,
};
use crate::{synth, Report};

/// Distinct queries in the workload.
const QUERIES: usize = 16_384;
/// Interval between hot-swaps, and the length of a measuring round.
///
/// An assumed stress rate, not one the system states. A campaign that
/// pushed its map to the daemon after every waypoint of the paper's demo
/// plan (4 s travel and 3 s scan each) would swap every 7 s, five times
/// in a run; swapping 28 times as often puts one swap in every round.
const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Under `--trace 1`, one read batch in this many is also traced layer
/// by layer.
const TRACE_EVERY: u64 = 7;

/// What the reader and the swapper share while measuring.
struct Shared {
    namespace: u32,
    workload: Vec<Query>,
    variants: [Served; 2],
}

/// Builds both variants and the workload, outside any timer.
fn prepare(seed: u64) -> Result<([Served; 2], Vec<Query>), String> {
    let first = synth::snapshot(seed, 0);
    let store = build_store(&first)?;
    let workload = zipf_points(&store, QUERIES, seed);
    let v0 = Served::new(&first, store, &workload)?;
    let second = synth::snapshot(seed, 1);
    let v1 = Served::new(&second, build_store(&second)?, &workload)?;
    if v0.reference == v1.reference {
        return Err("the two snapshot variants answer identically".into());
    }
    Ok(([v0, v1], workload))
}

/// What the reader saw.
#[derive(Default)]
struct ReaderLog {
    batches: u64,
    failed: u64,
    rounds: Vec<Round>,
    /// Answered batches per variant.
    per_variant: [u64; 2],
}

/// Sends read batches closed-loop for `periods` swap periods from
/// `start`, one measuring round per period.
fn read_loop(
    client: &mut WireClient,
    shared: &Shared,
    start: Instant,
    periods: u32,
    spans: &mut Spans,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let batches = QUERIES / BATCH;
    let mut next = 0;
    'measure: for period in 1..=periods {
        let round_end = start + SWAP_EVERY * period;
        let round_start = Instant::now();
        let mut latencies_s = Vec::new();
        while Instant::now() < round_end {
            let range = next * BATCH..(next + 1) * BATCH;
            next = (next + 1) % batches;
            log.batches += 1;
            let t = Instant::now();
            match client.query(shared.namespace, &shared.workload[range.clone()]) {
                Ok((generation, answers)) => {
                    latencies_s.push(t.elapsed().as_secs_f64());
                    let which = ((generation.max(1) - 1) % 2) as usize;
                    log.per_variant[which] += 1;
                    let want = &shared.variants[which].reference[range.clone()];
                    if mismatches(&answers, want) > 0 {
                        eprintln!("hotswap_point: wrong answers at generation {generation}");
                        log.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("hotswap_point: read failed: {e}");
                    log.failed += 1;
                    break 'measure;
                }
            }
            if spans.enabled() && log.batches % TRACE_EVERY == 0 {
                let batch = &shared.workload[range];
                let store = &shared.variants[0].store;
                if let Err(e) = trace_layers(spans, client, shared.namespace, store, batch) {
                    eprintln!("hotswap_point: traced batch failed: {e}");
                    log.failed += 1;
                    break 'measure;
                }
            }
        }
        log.rounds.push(Round {
            work: (latencies_s.len() * BATCH) as f64,
            seconds: round_start.elapsed().as_secs_f64(),
            latencies_s,
        });
    }
    log
}

/// Hot-swaps once in the middle of each of `periods` swap periods from
/// `start`; returns swaps attempted and failed.
fn swap_loop(
    client: &mut WireClient,
    shared: &Shared,
    start: Instant,
    periods: u32,
    spans: &mut Spans,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for period in 0..periods {
        let due = start + SWAP_EVERY * period + SWAP_EVERY / 2;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        attempted += 1;
        // Swap k installs generation k + 1, serving variant k % 2.
        let bytes = &shared.variants[(attempted % 2) as usize].bytes;
        if spans.enabled() {
            let decoded = spans.time("snapshot_decode_ms", || RemSnapshot::from_bytes(bytes));
            if let Ok(snapshot) = decoded {
                let _ = spans.time("store_build_ms", || build_store(&snapshot));
            }
        }
        let t = Instant::now();
        match client.load("bench", bytes) {
            Ok(info) if info.generation == attempted + 1 => {
                spans.record("hot_swap_ms", t.elapsed());
            }
            Ok(info) => {
                eprintln!(
                    "hotswap_point: swap {attempted} installed generation {}",
                    info.generation
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("hotswap_point: swap {attempted} failed: {e}");
                failed += 1;
                break;
            }
        }
    }
    (attempted, failed)
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let (variants, workload) = prepare(seed)?;

    let mut setups_s = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous repetition's daemon before timing the next.
        drop(session.take());
        let t = Instant::now();
        let (daemon, swapper, namespace) = RunningDaemon::serving(&variants[0].bytes)?;
        let reader = daemon.connect()?;
        session = Some((daemon, swapper, reader, namespace));
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mut swapper, mut reader, namespace) = session.expect("at least one set-up");
    let shared = Shared {
        namespace,
        workload,
        variants,
    };

    let mut spans = Spans::new(trace);
    let mut swap_spans = Spans::new(trace);
    // Two periods at least, so both variants answer.
    let periods = (budget.as_nanos() / SWAP_EVERY.as_nanos()).max(2) as u32;
    let start = Instant::now();
    let (log, (swaps, swaps_failed)) = std::thread::scope(|s| {
        let reads = s.spawn(|| read_loop(&mut reader, &shared, start, periods, &mut spans));
        let swaps = swap_loop(&mut swapper, &shared, start, periods, &mut swap_spans);
        (reads.join().expect("reader thread panicked"), swaps)
    });
    drop((reader, swapper));
    drop(daemon);
    spans.merge(swap_spans);

    eprintln!(
        "hotswap_point: {swaps} swaps, batches answered per variant {:?}",
        log.per_variant
    );
    // The workload only measures what it claims if reads really raced
    // swaps: both variants must have answered.
    let raced = swaps > swaps_failed && log.per_variant.iter().all(|&n| n > 0);
    Ok(Report {
        correct: log.failed == 0 && swaps_failed == 0 && raced,
        attempted: log.batches + swaps,
        failed: log.failed + swaps_failed,
        rounds: log.rounds,
        setups_s,
        spans,
    })
}
