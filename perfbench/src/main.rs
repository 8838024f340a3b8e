//! End-to-end benchmark of the aerorem REM path: building a map from a
//! flown survey, and a daemon serving fine-grained REM snapshots over the
//! wire protocol.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <survey_to_map|wire_point|hotswap_point> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload sets up several times (the median is `setup_s`), then
//! measures in rounds for `--seconds` seconds, checks every output
//! against a reference computed in-process, and prints one JSON object as
//! the last line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones a user sees:
//! throughput, median and p90 latency, and set-up time. Latency
//! percentiles cover every round; throughput comes from the quarter of
//! the rounds that ran fastest, when the shared host was quiet (see
//! [`stats::quiet_quarter`]). With
//! `--trace 1` the same loop runs with spans around the calls into each
//! layer and the metrics are the per-layer figures; a workload reports 0
//! for a layer it does not exercise. Progress and a human summary go to
//! standard error.

#![forbid(unsafe_code)]

mod hotswap;
mod stats;
mod survey;
mod synth;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

use stats::{Round, Spans};

/// Per-layer metrics reported under `--trace 1`, in output order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("preprocess_ms", "ms"),
    ("model_fit_ms", "ms"),
    ("lattice_fill_ms", "ms"),
    ("snapshot_encode_ms", "ms"),
    ("engine_batch_us", "us"),
    ("frame_codec_us", "us"),
    ("wire_batch_us", "us"),
    ("snapshot_decode_ms", "ms"),
    ("store_build_ms", "ms"),
    ("hot_swap_ms", "ms"),
];

/// What one workload run measured.
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations attempted while measuring.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// Wall time of each set-up repetition, seconds.
    pub setups_s: Vec<f64>,
    /// Per-layer spans recorded under `--trace 1`.
    pub spans: Spans,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown flag {other:?}")),
        };
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{flag} given more than once"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: u64 = seconds
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds must be a whole number")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <survey_to_map|wire_point|hotswap_point> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} CPUs available",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let budget = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "wire_point" => wire::run(args.seed, budget, args.trace),
        "hotswap_point" => hotswap::run(args.seed, budget, args.trace),
        "survey_to_map" => survey::run(args.seed, budget, args.trace),
        other => Err(format!(
            "unknown workload {other:?} (survey_to_map|wire_point|hotswap_point)"
        )),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", render(&report, args.trace));
    ExitCode::SUCCESS
}

/// The result line: end-to-end metrics, or per-layer ones when tracing.
fn render(report: &Report, trace: bool) -> String {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        for &(name, unit) in LAYER_METRICS {
            metrics.push((name, report.spans.value(name), unit));
        }
    } else {
        let kept = stats::quiet_quarter(&report.rounds);
        let mut lat: Vec<f64> = report
            .rounds
            .iter()
            .flat_map(|r| r.latencies_s.iter().copied())
            .collect();
        eprintln!(
            "throughput over {} of {} rounds, latency over {} samples",
            kept.len(),
            report.rounds.len(),
            lat.len()
        );
        metrics.push(("throughput_per_s", stats::throughput(&kept), "1/s"));
        metrics.push((
            "latency_p50_ms",
            stats::percentile(&mut lat, 50.0) * 1e3,
            "ms",
        ));
        metrics.push((
            "latency_p90_ms",
            stats::percentile(&mut lat, 90.0) * 1e3,
            "ms",
        ));
        let mut setups = report.setups_s.clone();
        metrics.push(("setup_s", stats::percentile(&mut setups, 50.0), "s"));
    }
    let mut correct = report.correct && report.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            // JSON has no NaN or infinity; a non-finite figure is a
            // measurement failure, reported as such.
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("{name:<22} {value:>16.6} {unit}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}
