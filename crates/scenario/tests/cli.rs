//! End-to-end tests of the `repro` / `repro_check` binaries: the same
//! artifact either passes or fails `repro_check` depending only on the
//! committed envelope, and bad scenario files die with line-numbered
//! diagnostics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A tiny but real long-lived matrix (one marking, two flow counts)
/// with envelopes that genuinely hold for it.
const PASSING_SCN: &str = "\
[scenario]
name = cli_smoke
kind = long_lived
description = integration-test matrix

[topology]
bottleneck = 1 Gbps

[run]
flows = 2, 4
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[expect \"saturated\"]
check = metric_range
metric = utilization
min = 0.8

[expect \"lossless\"]
check = metric_range
metric = drops
max = 0
";

/// Same name and matrix, but an envelope no real run can satisfy.
const FAILING_SCN: &str = "\
[scenario]
name = cli_smoke
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2, 4
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[expect \"impossible\"]
check = metric_range
metric = queue_mean
max = 0.000001
";

/// A seeded collective matrix: a kind outside the Fig. 13 testbed
/// that still sweeps its `[run] seeds` list.
const SEEDED_SCN: &str = "\
[scenario]
name = seeded
kind = collective

[topology fat_tree]
k = 4
hosts_per_edge = 2

[workload collective]
pattern = incast
horizon = 200 ms

[run]
flows = 8
bytes_per_flow = 32 KB
seeds = 1, 2

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
";

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dctcp-scn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_bin(exe: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn binary")
}

#[test]
fn repro_then_check_pass_and_fail_on_envelopes() {
    let dir = unique_dir("cli");
    let scn_pass = dir.join("scenarios");
    let scn_fail = dir.join("scenarios-fail");
    std::fs::create_dir_all(&scn_pass).unwrap();
    std::fs::create_dir_all(&scn_fail).unwrap();
    std::fs::write(scn_pass.join("cli_smoke.scn"), PASSING_SCN).unwrap();
    std::fs::write(scn_fail.join("cli_smoke.scn"), FAILING_SCN).unwrap();

    // Run the matrix once; the artifact serves both check runs.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = dir.join("artifacts/cli_smoke.json");
    let body = std::fs::read_to_string(&artifact).expect("artifact written");
    assert!(body.contains("\"schema\": \"dctcp-repro/v1\""));
    assert!(body.contains("\"flows\": 4"));

    // The honest envelopes hold...
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro_check failed: {stderr}");
    assert!(stderr.contains("0 violation(s)"), "{stderr}");

    // ...and the impossible one rejects the very same artifact.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios-fail", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "violating envelope must fail");
    assert!(stderr.contains("FAIL"), "{stderr}");
    assert!(stderr.contains("impossible"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_repro_is_served_from_cache_and_byte_identical() {
    let dir = unique_dir("warm");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_smoke.scn"), PASSING_SCN).unwrap();
    let args = &[
        "--all",
        "scenarios",
        "--out",
        "artifacts",
        "--cache",
        "cache",
    ];

    // Cold: every cell simulates and populates the cache.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(
        out.status.success(),
        "cold repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 0 hits, 2 misses"), "{stdout}");
    let artifact = dir.join("artifacts/cli_smoke.json");
    let cold = std::fs::read(&artifact).unwrap();

    // Warm: zero cells re-simulate, artifact bytes are identical.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 2 hits, 0 misses"), "{stdout}");
    assert_eq!(std::fs::read(&artifact).unwrap(), cold);

    // --no-cache bypasses the (populated) cache entirely and still
    // reproduces the same bytes.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts", "--no-cache"],
        &dir,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache disabled"), "{stdout}");
    assert_eq!(std::fs::read(&artifact).unwrap(), cold);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_rejects_bad_scenarios_with_line_numbers() {
    let dir = unique_dir("bad");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(
        scn.join("bad.scn"),
        PASSING_SCN.replace("duration = 15 ms", "duration = 15 fortnights"),
    )
    .unwrap();

    let out = run_bin(env!("CARGO_BIN_EXE_repro"), &["--all", "scenarios"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("line 12"), "{stderr}");
    assert!(stderr.contains("fortnights"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Three-cell matrix with one healthy, one panicking and one wedged
/// (deadline-overrunning) cell, plus one envelope scoped to the healthy
/// marking and one global envelope.
const PARTIAL_SCN: &str = "\
[scenario]
name = cli_partial
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[marking \"boom\"]
scheme = dctcp
k = 21 pkts

[marking \"wedge\"]
scheme = dctcp
k = 22 pkts

[limits]
deadline = 2 s
retries = 0
inject_panic = boom:2:1
inject_stall = wedge:2:1

[expect \"saturated\"]
check = metric_range
metric = utilization
marking = dctcp
min = 0.8

[expect \"lossless\"]
check = metric_range
metric = drops
max = 0
";

#[test]
fn broken_cells_quarantine_into_a_partial_run() {
    let dir = unique_dir("partial");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_partial.scn"), PARTIAL_SCN).unwrap();

    // The matrix completes despite the two broken cells: exit code 3
    // (partial), healthy point present, both failures named.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("2 of 3 cells quarantined"), "{stderr}");
    let body = std::fs::read_to_string(dir.join("artifacts/cli_partial.json")).unwrap();
    assert!(body.contains("\"failures\""), "{body}");
    assert!(
        body.contains("\"error\": \"panicked\", \"marking\": \"boom\""),
        "{body}"
    );
    assert!(
        body.contains("\"error\": \"deadline\", \"marking\": \"wedge\""),
        "{body}"
    );
    assert!(body.contains("\"marking\": \"dctcp\""), "{body}");

    // repro_check accepts the partial artifact: the healthy marking's
    // envelope is evaluated, the global one is skipped (not passed),
    // and the whole run signals quarantine with exit code 3.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("SKIP lossless"), "{stderr}");
    assert!(stderr.contains("0 violation(s), 1 skipped"), "{stderr}");

    // A matrix with *no* surviving cell exits 4, not 3. With
    // `retries = 0` even the flaky (first-attempt-only) fault is fatal.
    let dead = PARTIAL_SCN.replace(
        "inject_panic = boom:2:1",
        "inject_panic = boom:2:1\ninject_flaky = dctcp:2:1",
    );
    std::fs::write(scn.join("cli_partial.scn"), dead).unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_matrix_resumes_with_zero_recomputation() {
    let dir = unique_dir("kill9");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(
        scn.join("cli_smoke.scn"),
        PASSING_SCN.replace("flows = 2, 4", "flows = 2, 3, 4, 6"),
    )
    .unwrap();
    let args = &[
        "--all",
        "scenarios",
        "--out",
        "artifacts",
        "--cache",
        "cache",
        "--threads",
        "1",
    ];

    // Start a sequential cold run and SIGKILL it as soon as at least
    // one cell has been committed to the cache.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    let cache_dir = dir.join("cache");
    let cells = |d: &Path| -> usize {
        std::fs::read_dir(d).map_or(0, |rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                .count()
        })
    };
    let start = std::time::Instant::now();
    while cells(&cache_dir) == 0 && start.elapsed() < std::time::Duration::from_secs(60) {
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it — still a valid run
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = child.kill();
    let _ = child.wait();
    let committed = cells(&cache_dir);
    assert!(committed >= 1, "no cell committed before the kill window");

    // The resume serves every committed cell from the cache and only
    // simulates the remainder — zero recomputation.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("cache {committed} hits, {} misses", 4 - committed)),
        "committed={committed}, {stdout}"
    );
    let resumed = std::fs::read(dir.join("artifacts/cli_smoke.json")).unwrap();

    // A never-interrupted run against a fresh cache produces the exact
    // same bytes.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--all",
            "scenarios",
            "--out",
            "artifacts-clean",
            "--cache",
            "cache-clean",
            "--threads",
            "1",
        ],
        &dir,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 0 hits, 4 misses"), "{stdout}");
    let clean = std::fs::read(dir.join("artifacts-clean/cli_smoke.json")).unwrap();
    assert_eq!(resumed, clean, "resumed artifact must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_check_flags_stale_artifacts() {
    let dir = unique_dir("stale");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_smoke.scn"), PASSING_SCN).unwrap();

    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert!(out.status.success());

    // Grow the matrix after the artifact was produced.
    std::fs::write(
        scn.join("cli_smoke.scn"),
        PASSING_SCN.replace("flows = 2, 4", "flows = 2, 4, 8"),
    )
    .unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("stale"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_reports_the_seed_column_it_expands() {
    let dir = unique_dir("seeded");
    std::fs::write(dir.join("seeded.scn"), SEEDED_SCN).unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--no-cache", "--out", "artifacts", "seeded.scn"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro failed: {stderr}");

    // `repro: seeded (collective, M markings x F flow counts x S seeds
    // = P points)`: the printed factors must multiply to the matrix the
    // runner actually expands.
    let line = stderr
        .lines()
        .find(|l| l.starts_with("repro: seeded ("))
        .unwrap_or_else(|| panic!("no matrix line in: {stderr}"));
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect();
    let spec = dctcp_scenario::ScenarioSpec::parse(SEEDED_SCN).unwrap();
    assert_eq!(numbers.len(), 4, "{line}");
    assert_eq!(numbers[0] * numbers[1] * numbers[2], numbers[3], "{line}");
    assert_eq!(numbers[3], spec.num_points(), "{line}");
    let body = std::fs::read_to_string(dir.join("artifacts/seeded.json")).unwrap();
    assert_eq!(body.matches("\"seed\": ").count(), spec.num_points());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The fluid model at [`PASSING_SCN`]'s operating point, with one
/// `[xval]` band on utilization against it (both sides sit near 1).
const XVAL_SCN: &str = "\
[scenario]
name = xval_fluid
kind = fluid
[topology]
bottleneck = 1 Gbps
[run]
flows = 4
warmup = 20 ms
duration = 15 ms
[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
[xval \"util-vs-anchor\"]
packet = cli_smoke
marking = dctcp
metric = utilization
flows = 4
max_rel_err = 0.2
";

#[test]
fn repro_check_gates_xval_bands_against_their_anchors() {
    let dir = unique_dir("xval");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_smoke.scn"), PASSING_SCN).unwrap();
    std::fs::write(scn.join("xval_fluid.scn"), XVAL_SCN).unwrap();
    let run = |exe: &str, args: &[&str]| {
        let out = run_bin(exe, args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let repro = env!("CARGO_BIN_EXE_repro");
    let check = env!("CARGO_BIN_EXE_repro_check");
    let cold = ["--all", "scenarios", "--out", "artifacts", "--no-cache"];
    let fluid_only = ["--artifacts", "artifacts", "scenarios/xval_fluid.scn"];
    assert_eq!(run(repro, &cold).0, Some(0));

    // The band holds and is counted alongside the envelopes.
    let (code, stderr) = run(check, &["--all", "scenarios", "--artifacts", "artifacts"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("OK   xval \"util-vs-anchor\""), "{stderr}");
    assert!(stderr.contains(" 1 xval band(s), 0 violation"), "{stderr}");

    // An anchor value moved out of the band fails it, by label.
    let anchor = dir.join("artifacts/cli_smoke.json");
    let body = std::fs::read_to_string(&anchor).unwrap();
    let edited = body.replace("\"utilization\": 0.", "\"utilization\": 0.1");
    std::fs::write(&anchor, edited).unwrap();
    let (code, stderr) = run(check, &fluid_only);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("FAIL xval \"util-vs-anchor\""), "{stderr}");

    // A missing anchor artifact is an error naming the file.
    std::fs::remove_file(&anchor).unwrap();
    let (code, stderr) = run(check, &fluid_only);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cli_smoke.json"), "{stderr}");

    // A quarantined anchor cell skips the band: incomplete, not wrong.
    let broken = format!("{PASSING_SCN}\n[limits]\nretries = 0\ninject_panic = dctcp:4:1\n");
    std::fs::write(scn.join("cli_smoke.scn"), broken).unwrap();
    assert_eq!(run(repro, &cold).0, Some(3));
    let (code, stderr) = run(check, &fluid_only);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("SKIP xval \"util-vs-anchor\""), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
