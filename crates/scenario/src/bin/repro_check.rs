//! Regression-envelope and cross-validation checker for reproduction
//! artifacts.
//!
//! ```text
//! repro_check [--artifacts DIR] (--all SCENARIO_DIR | FILE.scn ...)
//! ```
//!
//! For each scenario, loads `DIR/<name>.json` (default
//! `artifacts/repro`), verifies it matches the scenario (schema, name,
//! kind, every matrix cell accounted for as a point *or* a quarantined
//! failure), evaluates every `[expect]` envelope, then prints one
//! OK/SKIP/FAIL line per `[xval]` band against its packet anchor
//! `DIR/<anchor>.json` (each artifact loads once per run). Envelopes and
//! bands that touch a quarantined cell are *skipped* — a failure to
//! measure is never a pass. Exit codes, over envelopes and bands:
//!
//! * `0` — everything evaluated and held;
//! * `3` — everything evaluated held, but quarantined cells forced
//!   skips (the reproduction is incomplete, not wrong);
//! * `1` — at least one envelope or band violated, or an
//!   invocation/format error (a stale or missing artifact included).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dctcp_scenario::{check_artifact_partial, check_xval, list_scenarios, Artifact, ScenarioSpec};

struct Args {
    artifacts: PathBuf,
    scenarios: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        artifacts: PathBuf::from("artifacts/repro"),
        scenarios: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--artifacts" => {
                args.artifacts = PathBuf::from(it.next().ok_or("--artifacts needs a value")?)
            }
            "--all" => {
                let dir = PathBuf::from(it.next().ok_or("--all needs a directory")?);
                let found = list_scenarios(&dir).map_err(|e| e.to_string())?;
                if found.is_empty() {
                    return Err(format!("no .scn files in {}", dir.display()));
                }
                args.scenarios.extend(found);
            }
            "--help" | "-h" => {
                return Err("usage: repro_check [--artifacts DIR] \
                            (--all SCENARIO_DIR | FILE.scn ...)"
                    .into())
            }
            other if !other.starts_with('-') => args.scenarios.push(PathBuf::from(other)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.scenarios.is_empty() {
        return Err("no scenarios given (try `--all scenarios/`)".into());
    }
    Ok(args)
}

/// Loads `dir/<name>.json` into `cache` unless it is already there,
/// checking that it is that scenario's artifact.
fn load(cache: &mut BTreeMap<String, Artifact>, dir: &Path, name: &str) -> Result<(), String> {
    if cache.contains_key(name) {
        return Ok(());
    }
    let path = dir.join(format!("{name}.json"));
    let artifact = Artifact::load(&path).map_err(|e| e.to_string())?;
    let (path, found) = (path.display(), &artifact.scenario);
    if found != name {
        return Err(format!(
            "{path}: artifact is for scenario `{found}`, expected `{name}`"
        ));
    }
    cache.insert(name.to_string(), artifact);
    Ok(())
}

/// Checks one scenario's envelopes; returns (violated, skipped) counts.
fn check_scenario(spec: &ScenarioSpec, artifact: &Artifact) -> Result<(usize, usize), String> {
    if artifact.kind != spec.kind {
        return Err(format!(
            "artifact kind `{}` does not match scenario kind `{}`",
            artifact.kind.name(),
            spec.kind.name()
        ));
    }
    if !artifact.accounts_for(spec.num_points()) {
        return Err(format!(
            "artifact accounts for {} of {} cells ({} points + {} failures) — \
             stale artifact? re-run repro",
            artifact.points.len() + artifact.failures.len(),
            spec.num_points(),
            artifact.points.len(),
            artifact.failures.len(),
        ));
    }
    for f in &artifact.failures {
        eprintln!(
            "repro_check:   QUARANTINED ({}, N={}, seed {}) after {} attempt(s): {}",
            f.marking, f.flows, f.seed, f.attempts, f.msg
        );
    }
    let report = check_artifact_partial(&spec.expectations, artifact);
    for name in &report.skipped {
        eprintln!("repro_check:   SKIP {name} — touches a quarantined cell");
    }
    let mut violated: Vec<&str> = Vec::new();
    for v in &report.violations {
        eprintln!("repro_check:   FAIL {v}");
        if !violated.contains(&v.expect.as_str()) {
            violated.push(&v.expect);
        }
    }
    Ok((violated.len(), report.skipped.len()))
}

/// Checks one scenario's `[xval]` bands against their packet anchors;
/// returns (violated, skipped) band counts.
fn check_bands(
    spec: &ScenarioSpec,
    artifacts: &mut BTreeMap<String, Artifact>,
    dir: &Path,
) -> Result<(usize, usize), String> {
    let (mut violated, mut skipped) = (0, 0);
    for x in &spec.xvals {
        let band = |e: String| format!("{}: xval \"{}\": {e}", spec.name, x.label);
        load(artifacts, dir, &x.packet_scenario).map_err(band)?;
        let r =
            check_xval(x, &artifacts[&spec.name], &artifacts[&x.packet_scenario]).map_err(band)?;
        if !r.violations.is_empty() {
            violated += 1;
            let fails: Vec<String> = r.violations.iter().map(ToString::to_string).collect();
            eprintln!("repro_check:   FAIL {}", fails.join("; "));
        } else if !r.skipped.is_empty() {
            skipped += 1;
            eprintln!("repro_check:   SKIP {}", r.skipped.join("; "));
        } else {
            eprintln!(
                "repro_check:   OK   xval \"{}\": {} vs {}:{} within {} at {} flow count(s)",
                x.label, x.metric, x.packet_scenario, x.packet_metric, x.max_rel_err, r.compared
            );
        }
    }
    Ok((violated, skipped))
}

fn run() -> Result<(usize, usize), String> {
    let args = parse_args()?;
    let mut artifacts: BTreeMap<String, Artifact> = BTreeMap::new();
    let mut total_violations = 0usize;
    let mut total_skipped = 0usize;
    let mut total_expectations = 0usize;
    let mut total_bands = 0usize;
    for path in &args.scenarios {
        let spec = ScenarioSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let artifact_path = args.artifacts.join(format!("{}.json", spec.name));
        load(&mut artifacts, &args.artifacts, &spec.name)?;
        let (violated, skipped) = check_scenario(&spec, &artifacts[&spec.name])
            .map_err(|e| format!("{}: {e}", artifact_path.display()))?;
        total_expectations += spec.expectations.len();
        total_violations += violated;
        total_skipped += skipped;
        eprintln!(
            "repro_check: {} — {}/{} envelopes hold{}",
            spec.name,
            spec.expectations.len() - violated - skipped,
            spec.expectations.len(),
            if skipped > 0 {
                format!(" ({skipped} skipped on quarantine)")
            } else {
                String::new()
            },
        );
        let (violated, skipped) = check_bands(&spec, &mut artifacts, &args.artifacts)?;
        total_bands += spec.xvals.len();
        total_violations += violated;
        total_skipped += skipped;
    }
    eprintln!(
        "repro_check: {total_expectations} envelopes over {} scenarios, {total_bands} xval \
         band(s), {total_violations} violation(s), {total_skipped} skipped",
        args.scenarios.len()
    );
    Ok((total_violations, total_skipped))
}

fn main() -> ExitCode {
    match run() {
        Ok((0, 0)) => ExitCode::SUCCESS,
        Ok((0, _)) => ExitCode::from(3),
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("repro_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
