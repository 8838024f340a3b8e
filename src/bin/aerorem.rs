//! The `aerorem` command-line tool: survey, evaluate, map, plan.
//!
//! ```text
//! aerorem survey   [--seed N] [--waypoints 72] [--uavs 2] --out samples.csv
//! aerorem evaluate --in samples.csv [--seed N] [--min-samples 16]
//! aerorem map      --in samples.csv [--mac aa:bb:..] [--resolution 0.25] --out rem.csv
//!                  [--confidence sigma.csv] [--exec serial|parallel]
//! aerorem coverage --in samples.csv [--threshold -75] [--radius 1.2]
//! aerorem demo     [--seed N] [--exec serial|parallel]
//! aerorem snapshot save --in samples.csv --out rem.snap [--resolution 0.25] [--aps 8]
//! aerorem snapshot load --in rem.snap
//! aerorem serve-bench [--in rem.snap] [--queries 200000] [--batch 8192]
//!                     [--dist zipfian|uniform] [--seed N] [--exec serial|parallel]
//! aerorem serve    --in rem.snap (--tcp ADDR | --uds PATH) [--name default]
//!                  [--exec serial|parallel]
//! aerorem serve-client <point|best|stats|coverage|namespaces|load|shutdown>
//!                  (--tcp ADDR | --uds PATH) ...
//!                  point:    --at x,y,z --mac aa:bb:cc:dd:ee:ff [--namespace 0]
//!                  best:     --at x,y,z [--namespace 0]
//!                  stats:    --min x,y,z --max x,y,z --mac MAC [--namespace 0]
//!                  coverage: --mac MAC [--threshold -75] [--namespace 0]
//!                  load:     --in rem.snap [--name default]
//! ```
//!
//! `survey` runs the simulated campaign and writes the collected samples;
//! the other commands are pure data processing and would work identically
//! on samples from real hardware. `map --confidence` switches the
//! estimator to ordinary kriging and writes the kriging standard
//! deviation (dB) as a second grid, reporting the factor-cache hit rate
//! of the fill. `demo` runs the paper's full pipeline
//! end to end and prints per-stage wall-clock instrumentation — run it
//! once with `--exec serial` and once with `--exec parallel` to measure
//! the speedup on your machine. `snapshot` freezes fitted REMs into the
//! versioned binary format of `docs/SNAPSHOT_FORMAT.md` (and inspects
//! such files); `serve-bench` drives a seeded point-query workload
//! through the `aerorem-serve` store and reports queries/s.
//! `serve` exposes a snapshot over the wire protocol of
//! `docs/WIRE_FORMAT.md` (TCP and/or Unix-domain sockets, hot-swappable
//! via `serve-client load`), and `serve-client` is the matching one-shot
//! query tool — `point` reads one voxel, `best` picks the strongest AP,
//! `stats`/`coverage` aggregate, `namespaces` lists what the daemon
//! serves, and `shutdown` stops it cleanly.
//!
//! Every command accepts only the flags listed for it above: an unknown or
//! repeated flag is a usage error (exit code 2), never silently ignored.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use aerorem::core::coverage::CoverageMap;
use aerorem::core::exec::ExecPolicy;
use aerorem::core::features::{preprocess, PreprocessConfig};
use aerorem::core::instrument::Instrumentation;
use aerorem::core::models::{evaluate_all, ModelKind};
use aerorem::core::pipeline::{PipelineConfig, RemPipeline};
use aerorem::core::rem::RemGrid;
use aerorem::core::snapshot::RemSnapshot;
use aerorem::mission::campaign::{Campaign, CampaignConfig};
use aerorem::mission::csv;
use aerorem::mission::plan::FleetPlan;
use aerorem::ml::kriging::{KrigingConfig, OrdinaryKriging};
use aerorem::ml::Regressor;
use aerorem::propagation::ap::MacAddress;
use aerorem::serve::{
    point_workload, Daemon, DaemonConfig, Distribution, Listener, Query, RemStore, Response,
    StoreConfig, WireClient, WorkloadConfig,
};
use aerorem::spatial::{Aabb, Vec3};
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("no command given");
    };
    // `snapshot` and `serve-client` carry a subcommand before their
    // flags; peel it off so the generic flag parser sees only
    // `--key value` pairs.
    let (subcommand, rest) = if command == "snapshot" || command == "serve-client" {
        match rest.split_first() {
            Some((sub, tail)) => (Some(sub.as_str()), tail),
            None if command == "snapshot" => {
                return usage("snapshot needs a subcommand: save|load")
            }
            None => {
                return usage(
                    "serve-client needs a subcommand: \
                     point|best|stats|coverage|namespaces|load|shutdown",
                )
            }
        }
    } else {
        (None, rest)
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    if let Some(known) = known_flags(command, subcommand) {
        if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
            return usage(&format!("{command} does not take --{unknown}"));
        }
    }
    let result = match (command.as_str(), subcommand) {
        ("survey", _) => survey(&flags),
        ("evaluate", _) => evaluate(&flags),
        ("map", _) => map(&flags),
        ("coverage", _) => coverage(&flags),
        ("demo", _) => demo(&flags),
        ("snapshot", Some("save")) => snapshot_save(&flags),
        ("snapshot", Some("load")) => snapshot_load(&flags),
        ("snapshot", Some(other)) => {
            return usage(&format!("unknown snapshot subcommand {other:?} (save|load)"))
        }
        ("serve-bench", _) => serve_bench(&flags),
        ("serve", _) => serve(&flags),
        ("serve-client", Some(sub)) => serve_client(sub, &flags),
        (other, _) => return usage(&format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Flags = BTreeMap<String, String>;

/// The flags a command reads, `None` for an unknown command (reported by
/// the dispatch in `main`).
fn known_flags(command: &str, subcommand: Option<&str>) -> Option<&'static [&'static str]> {
    Some(match (command, subcommand) {
        ("survey", _) => &["seed", "waypoints", "uavs", "out"],
        ("evaluate", _) => &["in", "seed", "min-samples"],
        ("map", _) => &["in", "out", "mac", "resolution", "confidence", "exec"],
        ("coverage", _) => &["in", "threshold", "radius"],
        ("demo", _) => &["seed", "exec"],
        ("snapshot", Some("save")) => &["in", "out", "resolution", "aps"],
        ("snapshot", Some("load")) => &["in"],
        ("serve-bench", _) => &["in", "queries", "batch", "dist", "seed", "exec"],
        ("serve", _) => &["in", "tcp", "uds", "name", "exec"],
        ("serve-client", Some(sub)) => match sub {
            "point" => &["tcp", "uds", "namespace", "at", "mac"],
            "best" => &["tcp", "uds", "namespace", "at"],
            "stats" => &["tcp", "uds", "namespace", "min", "max", "mac"],
            "coverage" => &["tcp", "uds", "namespace", "mac", "threshold"],
            "load" => &["tcp", "uds", "in", "name"],
            "namespaces" | "shutdown" => &["tcp", "uds"],
            _ => return None,
        },
        _ => return None,
    })
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, found {:?}", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!(
                "--{key} given more than once; every flag takes exactly one value"
            ));
        }
        i += 2;
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad --{key}: {v:?}")),
        None => Ok(default),
    }
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn load_samples(flags: &Flags) -> Result<aerorem::mission::SampleSet, String> {
    let path = required(flags, "in")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    csv::from_csv(&text).map_err(|e| e.to_string())
}

fn survey(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flag(flags, "seed", 2206)?;
    let waypoints: usize = flag(flags, "waypoints", 72)?;
    let uavs: usize = flag(flags, "uavs", 2)?;
    let out = required(flags, "out")?;
    let config = CampaignConfig {
        fleet_plan: FleetPlan {
            fleet_size: uavs,
            total_waypoints: waypoints,
            ..FleetPlan::paper_demo()
        },
        ..CampaignConfig::paper_demo()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    eprintln!("flying {uavs} UAV(s) over {waypoints} waypoints (seed {seed})...");
    let report = Campaign::new(config).run(&mut rng);
    eprint!("{}", report.stats_summary());
    std::fs::write(out, csv::to_csv(&report.samples)).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {} samples to {out}", report.samples.len());
    Ok(())
}

fn evaluate(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flag(flags, "seed", 2206)?;
    let samples = load_samples(flags)?;
    let min_per_mac: usize = flag(flags, "min-samples", 16)?;
    let mut inst = Instrumentation::new();
    let (data, layout, prep) = inst
        .time("preprocess", || {
            preprocess(
                &samples,
                &PreprocessConfig {
                    min_samples_per_mac: min_per_mac,
                },
            )
        })
        .map_err(|e| e.to_string())?;
    println!(
        "{} samples loaded, {} retained over {} APs",
        prep.total_samples, prep.retained_samples, prep.retained_macs
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scores = inst
        .time("evaluate_models", || {
            evaluate_all(&ModelKind::ALL, &data, &layout, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    println!("{:<32} {:>10}", "model", "RMSE [dBm]");
    for s in &scores {
        println!("{:<32} {:>10.4}", s.kind.label(), s.rmse_dbm);
    }
    inst.count("retained_samples", prep.retained_samples as u64);
    inst.count("models_evaluated", scores.len() as u64);
    eprint!("{}", inst.report());
    Ok(())
}

fn demo(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flag(flags, "seed", 2206)?;
    let policy: ExecPolicy = flag(flags, "exec", ExecPolicy::default())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    eprintln!("running the paper demo pipeline (seed {seed}, exec {policy})...");
    let result = RemPipeline::with_policy(PipelineConfig::paper_demo(), policy)
        .run(&mut rng)
        .map_err(|e| e.to_string())?;
    print!("{}", result.figure8_table());
    let mac = result
        .strongest_mac()
        .ok_or("campaign retained no MACs")?;
    let mut inst = result.instrumentation.clone();
    let rem = result
        .generate_rem_instrumented(mac, &mut inst)
        .map_err(|e| e.to_string())?;
    inst.count("rem_voxels", rem.len() as u64);
    let (nx, ny, nz) = rem.dims();
    println!(
        "REM of {mac}: {nx}x{ny}x{nz} voxels, {:.1}..{:.1} dBm",
        rem.min_dbm(),
        rem.max_dbm()
    );
    print!("{}", inst.report());
    report_stage_throughput(&inst);
    report_lattice_throughput(&inst);
    report_link_cache(&inst);
    report_recovery(&inst);
    Ok(())
}

/// Prints items-per-second for the simulation and training stages.
fn report_stage_throughput(inst: &Instrumentation) {
    for (stage, counter, unit) in [
        ("campaign", "raw_samples", "samples/s"),
        ("preprocess", "retained_samples", "samples/s"),
        ("evaluate_models", "models_evaluated", "models/s"),
    ] {
        if let Some(rate) = inst.throughput(stage, counter) {
            println!("{stage}: {rate:.1} {unit}");
        }
    }
}

/// Prints the campaign link-cache hit rate when the cache saw any traffic.
fn report_link_cache(inst: &Instrumentation) {
    let (Some(hits), Some(misses)) = (
        inst.counter("link_cache_hits"),
        inst.counter("link_cache_misses"),
    ) else {
        return;
    };
    let total = hits + misses;
    if total > 0 {
        println!(
            "link cache: {hits}/{total} lookups hit ({:.1}%)",
            hits as f64 / total as f64 * 100.0
        );
    }
}

/// Prints the fault-recovery ledger: how many scans the retry machinery
/// saved and what the lossy link still cost (lost outright vs quarantined
/// at fragment gaps).
fn report_recovery(inst: &Instrumentation) {
    let get = |k| inst.counter(k).unwrap_or(0);
    let (faults, retries, recovered) = (
        get("receiver_faults"),
        get("scan_retries"),
        get("scans_recovered"),
    );
    let (lost, corrupted, dropped) = (
        get("rows_lost"),
        get("rows_corrupted"),
        get("packets_dropped"),
    );
    println!(
        "recovery: {recovered} scans recovered over {retries} retries ({faults} receiver faults)"
    );
    println!(
        "losses: {lost} rows lost, {corrupted} quarantined, {dropped} packets dropped"
    );
}

/// Prints the kriging factor-cache hit rate when a variance fill ran
/// (`RemGrid::generate_with_variance` records the counters).
fn report_kriging_cache(inst: &Instrumentation) {
    let (Some(hits), Some(misses)) = (
        inst.counter("rem_krige_cache_hits"),
        inst.counter("rem_krige_cache_misses"),
    ) else {
        return;
    };
    let total = hits + misses;
    if total > 0 {
        println!(
            "kriging factor cache: {hits}/{total} solves hit ({:.1}%)",
            hits as f64 / total as f64 * 100.0
        );
    }
}

/// Prints rows-per-second for the batched REM stages when both the stage
/// timing and the row counter are present, along with the execution plan
/// (worker count and effective chunk size) each stage actually ran under.
fn report_lattice_throughput(inst: &Instrumentation) {
    for (stage, counter) in [
        ("rem_encode", "rem_encode_rows"),
        ("rem_predict", "rem_predict_rows"),
        ("rem_krige_predict", "rem_krige_predict_rows"),
    ] {
        if let Some(rate) = inst.throughput(stage, counter) {
            match inst.exec_plan(stage) {
                Some((workers, chunk)) => println!(
                    "{stage}: {rate:.0} voxels/s ({workers} workers, chunk {chunk})"
                ),
                None => println!("{stage}: {rate:.0} voxels/s"),
            }
        }
    }
}

/// Preprocesses with the paper's retention filter, relaxing it for small
/// sample files.
fn preprocess_flexible(
    samples: &aerorem::mission::SampleSet,
) -> Result<
    (
        aerorem::ml::dataset::Dataset,
        aerorem::core::features::FeatureLayout,
    ),
    String,
> {
    let (data, layout, _) = preprocess(samples, &PreprocessConfig::paper())
        .or_else(|_| {
            preprocess(
                samples,
                &PreprocessConfig {
                    min_samples_per_mac: 4,
                },
            )
        })
        .map_err(|e| e.to_string())?;
    Ok((data, layout))
}

fn fit_best_model(
    samples: &aerorem::mission::SampleSet,
) -> Result<
    (
        Box<dyn aerorem::ml::Regressor>,
        aerorem::core::features::FeatureLayout,
    ),
    String,
> {
    let (data, layout) = preprocess_flexible(samples)?;
    let mut model = ModelKind::KnnScaled16
        .build(&layout)
        .map_err(|e| e.to_string())?;
    model.fit(&data.x, &data.y).map_err(|e| e.to_string())?;
    Ok((model, layout))
}

fn map(flags: &Flags) -> Result<(), String> {
    let samples = load_samples(flags)?;
    let out = required(flags, "out")?;
    let resolution: f64 = flag(flags, "resolution", 0.25)?;
    let policy: ExecPolicy = flag(flags, "exec", ExecPolicy::default())?;
    let mut inst = Instrumentation::new();
    let pick_mac = |layout: &aerorem::core::features::FeatureLayout| -> Result<MacAddress, String> {
        match flags.get("mac") {
            Some(m) => m.parse::<MacAddress>().map_err(|e| e.to_string()),
            None => {
                let mac = layout.macs()[0];
                eprintln!("no --mac given; mapping {mac}");
                Ok(mac)
            }
        }
    };
    let grid = if let Some(sigma_out) = flags.get("confidence") {
        // Confidence needs an estimator with a variance model, so this
        // branch maps with ordinary kriging instead of the kNN default
        // and writes the kriging standard deviation as a second grid.
        let (data, layout) = preprocess_flexible(&samples)?;
        let model = inst
            .time("fit_model", || {
                let mut model = OrdinaryKriging::new(KrigingConfig::default());
                model.fit(&data.x, &data.y).map(|()| model)
            })
            .map_err(|e| e.to_string())?;
        let mac = pick_mac(&layout)?;
        let (grid, sigma, _) = RemGrid::generate_with_variance(
            &model,
            &layout,
            Aabb::paper_volume(),
            resolution,
            mac,
            policy,
            &mut inst,
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(sigma_out, sigma.to_csv())
            .map_err(|e| format!("writing {sigma_out}: {e}"))?;
        eprintln!(
            "wrote kriging confidence of {mac} to {sigma_out} (sigma {:.1}..{:.1} dB)",
            sigma.min_dbm(),
            sigma.max_dbm()
        );
        grid
    } else {
        let (model, layout) = inst.time("fit_model", || fit_best_model(&samples))?;
        let mac = pick_mac(&layout)?;
        RemGrid::generate_instrumented(
            model.as_ref(),
            &layout,
            Aabb::paper_volume(),
            resolution,
            mac,
            policy,
            &mut inst,
        )
        .map_err(|e| e.to_string())?
    };
    inst.count("rem_voxels", grid.len() as u64);
    std::fs::write(out, grid.to_csv()).map_err(|e| format!("writing {out}: {e}"))?;
    let (nx, ny, nz) = grid.dims();
    eprintln!(
        "wrote {nx}x{ny}x{nz} REM of {} to {out} ({:.1}..{:.1} dBm)",
        grid.mac(),
        grid.min_dbm(),
        grid.max_dbm()
    );
    // A quick visual check at mid-height.
    let mid_z = (grid.volume().min().z + grid.volume().max().z) / 2.0;
    if let Some(art) = grid.render_slice(mid_z) {
        eprintln!("{art}");
    }
    eprint!("{}", inst.report());
    report_lattice_throughput(&inst);
    report_kriging_cache(&inst);
    Ok(())
}

fn coverage(flags: &Flags) -> Result<(), String> {
    let samples = load_samples(flags)?;
    let threshold: f64 = flag(flags, "threshold", -75.0)?;
    let radius: f64 = flag(flags, "radius", 1.2)?;
    let (model, layout) = fit_best_model(&samples)?;
    let rems: Vec<RemGrid> = layout
        .macs()
        .into_iter()
        .take(8)
        .map(|m| RemGrid::generate(model.as_ref(), &layout, Aabb::paper_volume(), 0.4, m))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let cov = CoverageMap::from_rems(&rems).ok_or("could not combine REMs")?;
    println!(
        "coverage at {threshold} dBm: {:.0}% of the volume",
        cov.coverage_fraction(threshold) * 100.0
    );
    match cov.suggest_relay(threshold, radius) {
        Some(plan) => println!(
            "suggested relay at {}: fixes {}/{} dark cells",
            plan.position, plan.dark_cells_covered, plan.dark_cells_total
        ),
        None => println!("no dark cells — coverage complete"),
    }
    Ok(())
}

fn snapshot_save(flags: &Flags) -> Result<(), String> {
    let samples = load_samples(flags)?;
    let out = required(flags, "out")?;
    let resolution: f64 = flag(flags, "resolution", 0.25)?;
    let max_aps: usize = flag(flags, "aps", 8)?;
    let mut inst = Instrumentation::new();
    let (model, layout) = inst.time("fit_model", || fit_best_model(&samples))?;
    let grids: Vec<RemGrid> = inst
        .time("generate_rems", || {
            layout
                .macs()
                .into_iter()
                .take(max_aps)
                .map(|m| {
                    RemGrid::generate(model.as_ref(), &layout, Aabb::paper_volume(), resolution, m)
                })
                .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
    let snap = RemSnapshot::new(grids).map_err(|e| e.to_string())?;
    inst.time("encode_save", || snap.save(out))
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let voxels: usize = snap.grids().iter().map(RemGrid::len).sum();
    eprintln!(
        "wrote {} grid(s), {voxels} voxels, {bytes} bytes to {out}",
        snap.len()
    );
    eprint!("{}", inst.report());
    Ok(())
}

fn snapshot_load(flags: &Flags) -> Result<(), String> {
    let path = required(flags, "in")?;
    let snap = RemSnapshot::load(path).map_err(|e| e.to_string())?;
    let Some(first) = snap.grids().first() else {
        println!("{path}: empty snapshot (0 grids)");
        return Ok(());
    };
    println!(
        "{path}: {} grid(s) over volume {}",
        snap.len(),
        first.volume()
    );
    println!("{:<20} {:>12} {:>10} {:>10}", "mac", "dims", "min dBm", "max dBm");
    for g in snap.grids() {
        let (nx, ny, nz) = g.dims();
        println!(
            "{:<20} {:>12} {:>10.1} {:>10.1}",
            g.mac().to_string(),
            format!("{nx}x{ny}x{nz}"),
            g.min_dbm(),
            g.max_dbm()
        );
    }
    Ok(())
}

fn serve_bench(flags: &Flags) -> Result<(), String> {
    let queries: usize = flag(flags, "queries", 200_000)?;
    let batch: usize = flag(flags, "batch", 8192)?;
    let dist: Distribution = flag(flags, "dist", Distribution::Zipfian)?;
    let seed: u64 = flag(flags, "seed", 2206)?;
    let policy: ExecPolicy = flag(flags, "exec", ExecPolicy::default())?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    let snapshot = match flags.get("in") {
        Some(path) => RemSnapshot::load(path).map_err(|e| e.to_string())?,
        None => {
            eprintln!("no --in given; serving a synthetic 3-AP snapshot");
            synthetic_snapshot()
        }
    };
    let mut inst = Instrumentation::new();
    let store = inst
        .time("build_store", || {
            RemStore::build(&snapshot, StoreConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let workload = inst.time("generate_workload", || {
        point_workload(
            &store,
            &WorkloadConfig {
                queries,
                seed,
                distribution: dist,
                exponent: 1.0,
            },
        )
    });
    let hits = inst
        .time("serve", || {
            let mut hits = 0usize;
            for chunk in workload.chunks(batch) {
                for r in store.submit_batch(chunk, policy)? {
                    if matches!(r, Response::Value(Some(_))) {
                        hits += 1;
                    }
                }
            }
            Ok::<usize, aerorem_serve::ServeError>(hits)
        })
        .map_err(|e| e.to_string())?;
    inst.count("queries", queries as u64);
    eprintln!(
        "{} store: {} cells x {} APs",
        store.volume(),
        store.layout().cell_count(),
        store.macs().len()
    );
    println!(
        "{queries} {dist} point queries ({hits} in-volume hits), batch {batch}, exec {policy}"
    );
    if let Some(qps) = inst.throughput("serve", "queries") {
        println!("throughput: {qps:.0} queries/s");
    }
    eprint!("{}", inst.report());
    Ok(())
}

/// A small deterministic snapshot so `serve-bench` runs standalone.
fn synthetic_snapshot() -> RemSnapshot {
    let dims = (32, 32, 16);
    let grids = (1..=3u32)
        .map(|mac| {
            let values = (0..dims.0 * dims.1 * dims.2)
                .map(|i| {
                    let t = i as f64 * 0.000_737 + mac as f64 * 1.37;
                    -35.0 - 25.0 * (t.sin() * t.cos()).abs() - 2.0 * mac as f64
                })
                .collect();
            RemGrid::from_parts(MacAddress::from_index(mac), Aabb::paper_volume(), dims, values)
                .expect("synthetic grid shape")
        })
        .collect();
    RemSnapshot::new(grids).expect("synthetic snapshot is non-empty")
}

fn serve(flags: &Flags) -> Result<(), String> {
    let input = required(flags, "in")?;
    let name = flags.get("name").map(String::as_str).unwrap_or("default");
    let policy: ExecPolicy = flag(flags, "exec", ExecPolicy::default())?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let daemon = Daemon::new(DaemonConfig {
        policy,
        ..DaemonConfig::default()
    });
    let info = daemon.load(name, &bytes).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {input} as namespace {name:?} (id {}, generation {}, {} APs, {} cells), exec {policy}",
        info.namespace, info.generation, info.aps, info.cells
    );
    let mut listeners = Vec::new();
    if let Some(addr) = flags.get("tcp") {
        let l = Listener::bind_tcp(addr).map_err(|e| format!("binding tcp {addr}: {e}"))?;
        listeners.push(l);
    }
    if let Some(path) = flags.get("uds") {
        #[cfg(unix)]
        {
            let l = Listener::bind_uds(path).map_err(|e| format!("binding uds {path}: {e}"))?;
            listeners.push(l);
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err("unix-domain sockets are not supported on this platform".into());
        }
    }
    if listeners.is_empty() {
        return Err("serve needs at least one of --tcp ADDR or --uds PATH".into());
    }
    // One parseable line per endpoint on stdout, flushed before serving,
    // so a parent process (tests, scripts) can discover ephemeral ports.
    for l in &listeners {
        println!("listening on {}", l.endpoint());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.start(listeners).join();
    eprintln!("daemon stopped");
    Ok(())
}

fn parse_vec3(s: &str) -> Result<Vec3, String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("expected x,y,z coordinates, found {s:?}"));
    }
    let mut v = [0.0f64; 3];
    for (slot, part) in v.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse()
            .map_err(|_| format!("bad coordinate {part:?} in {s:?}"))?;
    }
    Ok(Vec3::new(v[0], v[1], v[2]))
}

fn connect_client(flags: &Flags) -> Result<WireClient, String> {
    match (flags.get("tcp"), flags.get("uds")) {
        (Some(addr), None) => WireClient::connect_tcp(addr)
            .map_err(|e| format!("connecting to tcp {addr}: {e}")),
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                WireClient::connect_uds(path).map_err(|e| format!("connecting to uds {path}: {e}"))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("unix-domain sockets are not supported on this platform".into())
            }
        }
        (Some(_), Some(_)) => Err("give exactly one of --tcp or --uds".into()),
        (None, None) => Err("serve-client needs --tcp ADDR or --uds PATH".into()),
    }
}

fn serve_client(sub: &str, flags: &Flags) -> Result<(), String> {
    let mut client = connect_client(flags)?;
    let namespace: u32 = flag(flags, "namespace", 0)?;
    let one = |client: &mut WireClient, q: Query| -> Result<(u64, Response), String> {
        let (generation, mut responses) =
            client.query(namespace, &[q]).map_err(|e| e.to_string())?;
        let response = responses.pop().ok_or("server sent an empty response batch")?;
        Ok((generation, response))
    };
    match sub {
        "point" => {
            let pos = parse_vec3(required(flags, "at")?)?;
            let ap: MacAddress = required(flags, "mac")?
                .parse()
                .map_err(|_| "bad --mac: expected aa:bb:cc:dd:ee:ff".to_string())?;
            let (generation, response) = one(&mut client, Query::Point { pos, ap })?;
            eprintln!("generation {generation}");
            match response {
                Response::Value(Some(v)) => println!("value {v:?}"),
                Response::Value(None) => println!("value none"),
                other => return Err(format!("mismatched response {other:?}")),
            }
        }
        "best" => {
            let pos = parse_vec3(required(flags, "at")?)?;
            let (generation, response) = one(&mut client, Query::BestAp { pos })?;
            eprintln!("generation {generation}");
            match response {
                Response::Best(Some((mac, v))) => println!("best {mac} {v:?}"),
                Response::Best(None) => println!("best none"),
                other => return Err(format!("mismatched response {other:?}")),
            }
        }
        "stats" => {
            let min = parse_vec3(required(flags, "min")?)?;
            let max = parse_vec3(required(flags, "max")?)?;
            let ap: MacAddress = required(flags, "mac")?
                .parse()
                .map_err(|_| "bad --mac: expected aa:bb:cc:dd:ee:ff".to_string())?;
            let region = Aabb::new(min, max)
                .ok_or("--min/--max must have positive extent on every axis")?;
            let (generation, response) = one(&mut client, Query::BoxStats { region, ap })?;
            eprintln!("generation {generation}");
            match response {
                Response::Stats(s) => println!(
                    "stats count {} min {:?} max {:?} mean {:?}",
                    s.count,
                    s.min,
                    s.max,
                    s.mean()
                ),
                other => return Err(format!("mismatched response {other:?}")),
            }
        }
        "coverage" => {
            let threshold_dbm: f64 = flag(flags, "threshold", -75.0)?;
            let ap: MacAddress = required(flags, "mac")?
                .parse()
                .map_err(|_| "bad --mac: expected aa:bb:cc:dd:ee:ff".to_string())?;
            let (generation, response) = one(&mut client, Query::Coverage { threshold_dbm, ap })?;
            eprintln!("generation {generation}");
            match response {
                Response::Covered { cells, fraction } => {
                    println!("covered {cells} cells, fraction {fraction:?}")
                }
                other => return Err(format!("mismatched response {other:?}")),
            }
        }
        "namespaces" => {
            let namespaces = client.list().map_err(|e| e.to_string())?;
            println!("{} namespace(s)", namespaces.len());
            for ns in namespaces {
                println!(
                    "{} {:?} generation {} aps {} cells {}",
                    ns.id, ns.name, ns.generation, ns.aps, ns.cells
                );
            }
        }
        "load" => {
            let input = required(flags, "in")?;
            let name = flags.get("name").map(String::as_str).unwrap_or("default");
            let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
            let info = client.load(name, &bytes).map_err(|e| e.to_string())?;
            println!(
                "loaded {name:?} as namespace {} generation {} ({} APs, {} cells)",
                info.namespace, info.generation, info.aps, info.cells
            );
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon acknowledged shutdown");
        }
        other => {
            return Err(format!(
                "unknown serve-client subcommand {other:?} \
                 (point|best|stats|coverage|namespaces|load|shutdown)"
            ))
        }
    }
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage:\n  aerorem survey   [--seed N] [--waypoints 72] [--uavs 2] --out samples.csv\n  \
         aerorem evaluate --in samples.csv [--seed N] [--min-samples 16]\n  \
         aerorem map      --in samples.csv [--mac aa:bb:cc:dd:ee:ff] [--resolution 0.25] --out rem.csv\n  \
         \u{20}                [--confidence sigma.csv] [--exec serial|parallel]\n  \
         aerorem coverage --in samples.csv [--threshold -75] [--radius 1.2]\n  \
         aerorem demo     [--seed N] [--exec serial|parallel]\n  \
         aerorem snapshot save --in samples.csv --out rem.snap [--resolution 0.25] [--aps 8]\n  \
         aerorem snapshot load --in rem.snap\n  \
         aerorem serve-bench [--in rem.snap] [--queries 200000] [--batch 8192]\n  \
         \u{20}                   [--dist zipfian|uniform] [--seed N] [--exec serial|parallel]\n  \
         aerorem serve    --in rem.snap (--tcp ADDR | --uds PATH) [--name default]\n  \
         \u{20}                [--exec serial|parallel]\n  \
         aerorem serve-client <point|best|stats|coverage|namespaces|load|shutdown>\n  \
         \u{20}                (--tcp ADDR | --uds PATH) ...\n  \
         \u{20}                point:    --at x,y,z --mac aa:bb:cc:dd:ee:ff [--namespace 0]\n  \
         \u{20}                best:     --at x,y,z [--namespace 0]\n  \
         \u{20}                stats:    --min x,y,z --max x,y,z --mac MAC [--namespace 0]\n  \
         \u{20}                coverage: --mac MAC [--threshold -75] [--namespace 0]\n  \
         \u{20}                load:     --in rem.snap [--name default]"
    );
    ExitCode::from(2)
}
