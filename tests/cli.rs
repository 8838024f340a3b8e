//! End-to-end test of the `aerorem` command-line tool: survey → CSV →
//! evaluate → map → coverage, driving the real binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aerorem"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aerorem_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn survey_evaluate_map_coverage_roundtrip() {
    let samples = tmp("samples.csv");
    let rem = tmp("rem.csv");

    // survey
    let out = bin()
        .args([
            "survey",
            "--seed",
            "5",
            "--waypoints",
            "16",
            "--uavs",
            "2",
            "--out",
            samples.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(&samples).unwrap();
    assert!(csv.lines().count() > 100, "samples written");
    assert!(csv.starts_with("uav,waypoint,"));

    // evaluate
    let out = bin()
        .args([
            "evaluate",
            "--in",
            samples.to_str().unwrap(),
            "--min-samples",
            "8",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("baseline: mean per MAC"));
    assert!(text.contains("ordinary kriging"));

    // map
    let out = bin()
        .args([
            "map",
            "--in",
            samples.to_str().unwrap(),
            "--resolution",
            "0.5",
            "--out",
            rem.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let rem_csv = std::fs::read_to_string(&rem).unwrap();
    assert!(rem_csv.starts_with("x,y,z,rssi_dbm"));
    assert!(rem_csv.lines().count() > 50);

    // coverage
    let out = bin()
        .args([
            "coverage",
            "--in",
            samples.to_str().unwrap(),
            "--threshold",
            "-72",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage at -72 dBm"));

    let _ = std::fs::remove_file(samples);
    let _ = std::fs::remove_file(rem);
}

#[test]
fn cli_rejects_bad_usage() {
    // No command.
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown command.
    let out = bin().arg("teleport").output().unwrap();
    assert!(!out.status.success());

    // Missing required flag.
    let out = bin().args(["survey", "--seed", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // Missing input file.
    let out = bin()
        .args(["evaluate", "--in", "/nonexistent/x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A flag the command does not read (a removed option) is a usage
    // error naming the flag, not silently ignored.
    let out = bin().args(["serve", "--shards", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards"));
    let out = bin().args(["serve", "--brick", "8"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--brick"));

    // A flag a subcommand would parse but never use is rejected too.
    let out = bin()
        .args(["serve-client", "shutdown", "--namespace", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--namespace"));
}

#[test]
fn duplicate_flags_are_rejected_not_last_wins() {
    // Before the fix, `--out a.csv --out b.csv` silently kept b.csv;
    // now every duplicated flag is a usage error naming the flag.
    let out = bin()
        .args([
            "survey", "--seed", "1", "--out", "a.csv", "--out", "b.csv",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--out") && stderr.contains("more than once"),
        "stderr must name the duplicated flag: {stderr}"
    );
    assert!(!std::path::Path::new("a.csv").exists());
    assert!(!std::path::Path::new("b.csv").exists());

    // Also through the subcommand-peeling path.
    let out = bin()
        .args(["serve-client", "point", "--tcp", "x", "--tcp", "y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("more than once"));
}

#[cfg(unix)]
#[test]
fn serve_daemon_and_client_round_trip_over_uds() {
    use aerorem::core::rem::RemGrid;
    use aerorem::core::snapshot::RemSnapshot;
    use aerorem::propagation::ap::MacAddress;
    use aerorem::spatial::Aabb;
    use std::io::{BufRead, BufReader};

    // Freeze a small synthetic snapshot for the daemon to serve.
    let snap_path = tmp("serve.snap");
    let grid = RemGrid::from_parts(
        MacAddress::from_index(1),
        Aabb::paper_volume(),
        (8, 8, 4),
        (0..256).map(|i| -40.0 - (i % 30) as f64).collect(),
    )
    .unwrap();
    RemSnapshot::new(vec![grid])
        .unwrap()
        .save(&snap_path)
        .unwrap();

    // Keep the socket path short: UDS paths are limited to ~100 bytes.
    let sock = tmp("cli.sock");
    let mut daemon = bin()
        .args([
            "serve",
            "--in",
            snap_path.to_str().unwrap(),
            "--uds",
            sock.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");

    // The daemon prints one parseable line per endpoint once it listens.
    let stdout = daemon.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().expect("endpoint line").unwrap();
    assert!(
        ready.starts_with("listening on uds "),
        "unexpected readiness line: {ready}"
    );

    let client = |args: &[&str]| {
        let mut full = vec!["serve-client", args[0], "--uds", sock.to_str().unwrap()];
        full.extend_from_slice(&args[1..]);
        let out = bin().args(&full).output().unwrap();
        assert!(
            out.status.success(),
            "serve-client {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let text = client(&["point", "--at", "1,1,1", "--mac", "02:00:00:00:00:01"]);
    assert!(text.starts_with("value "), "point output: {text}");
    assert!(!text.contains("none"), "in-volume point must hit: {text}");

    let text = client(&["best", "--at", "2,2,1.5"]);
    assert!(text.starts_with("best "), "best output: {text}");

    let text = client(&["namespaces"]);
    assert!(text.contains("\"default\""), "listing output: {text}");
    assert!(text.contains("generation 1"), "listing output: {text}");

    let text = client(&["shutdown"]);
    assert!(text.contains("daemon acknowledged shutdown"), "{text}");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly after shutdown");

    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_file(sock);
}
