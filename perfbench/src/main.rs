//! The benchmark's measuring binary. `run.py` drives it one phase per
//! process, and each phase prints one JSON report on standard output:
//!
//! * `setup <spec> <seconds>` parses the spec and sets every cell up
//!   (topology, slab, routes, shard partition; no simulation), again
//!   and again for `seconds`, and reports the time per set-up.
//! * `cold <spec> <workdir>` runs the matrix once through
//!   `run_scenario_supervised`, as `repro` does, on a fresh empty cache
//!   directory, and reports its wall time, the supervision counters, the
//!   envelope check and the process's peak memory.
//! * `warm <spec> <workdir>` re-runs it on the cache `cold` left.
//! * `replay <spec> <workdir> [<spans.json>]` replays the same cells by
//!   calling each layer directly, with spans recorded around the calls
//!   when a span file is given, and reports the layers' counters.

mod alloc;
mod cells;
mod json;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dctcp_cache::Cache;
use dctcp_scenario::{check_artifact, run_scenario_supervised, ScenarioSpec};

use crate::json::{array, quote, Obj};
use crate::spans::{Recorder, Tracer};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up samples taken even when one outlasts the measuring time.
const MIN_SETUP_SAMPLES: usize = 5;
/// The least time one set-up sample measures.
const BATCH: Duration = Duration::from_millis(1);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let usage = "usage: perfbench setup <spec> <seconds> | cold <spec> <workdir> \
                 | warm <spec> <workdir> | replay <spec> <workdir> [<spans.json>]";
    let arg = |i: usize| args.get(i).map(String::as_str).ok_or(usage);
    let seconds = |i: usize| -> Result<Duration, String> {
        arg(i)?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .map(Duration::from_secs_f64)
            .ok_or_else(|| format!("bad seconds `{}`", args[i]))
    };
    match arg(0)? {
        "setup" => setup(Path::new(arg(1)?), seconds(2)?),
        "cold" => supervised(Path::new(arg(1)?), Path::new(arg(2)?), true),
        "warm" => supervised(Path::new(arg(1)?), Path::new(arg(2)?), false),
        "replay" => replay(
            Path::new(arg(1)?),
            Path::new(arg(2)?),
            args.get(3).map(PathBuf::from),
        ),
        _ => Err(usage.into()),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(src: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::parse(src).map_err(|e| e.to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A directory that exists and is empty.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// One set-up of the whole matrix: the spec parsed and validated, then
/// every cell built. Returns the two parts' durations and the cells.
fn set_up(src: &str) -> Result<(Duration, Duration, Vec<cells::Built>), String> {
    let t0 = Instant::now();
    let spec = parse(src)?;
    let t1 = Instant::now();
    let built = cells::cells(&spec)
        .iter()
        .map(|c| cells::build(&spec, c))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok((t1 - t0, t2 - t1, built))
}

fn setup(spec_path: &Path, seconds: Duration) -> Result<String, String> {
    let src = read(spec_path)?;
    let (parse0, build0, built) = set_up(&src)?;
    let sharding: Vec<String> = built
        .iter()
        .map(|b| {
            Obj::new()
                .num("shards", b.shards as f64)
                .num("lookahead_ns", b.lookahead_ns as f64)
                .finish()
        })
        .collect();
    drop(built);
    // Each sample averages a batch of set-ups lasting about a
    // millisecond, so microsecond set-ups still fill the measuring time
    // with a bounded number of samples. The first set-up pays one-off
    // costs, so a second one sizes the batch.
    let (parse1, build1, _) = set_up(&src)?;
    let one = (parse0 + build0).min(parse1 + build1);
    let batch = (BATCH.as_secs_f64() / one.as_secs_f64()).ceil().max(1.0) as u32;
    let started = Instant::now();
    let (mut setup_s, mut parse_s, mut instantiate_s) = (Vec::new(), Vec::new(), Vec::new());
    while setup_s.len() < MIN_SETUP_SAMPLES || started.elapsed() < seconds {
        let (mut parse, mut build) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..batch {
            let (p, b, built) = set_up(&src)?;
            drop(built);
            parse += p;
            build += b;
        }
        let n = f64::from(batch);
        setup_s.push((parse + build).as_secs_f64() / n);
        parse_s.push(parse.as_secs_f64() / n);
        instantiate_s.push(build.as_secs_f64() / n);
    }
    Ok(Obj::new()
        .nums("setup_s", &setup_s)
        .nums("parse_s", &parse_s)
        .nums("instantiate_s", &instantiate_s)
        .num("batch", f64::from(batch))
        .raw("cells", &array(&sharding))
        .num("nproc", nproc() as f64)
        .finish())
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Result<u64, String> {
    let status = read(Path::new("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One run of the matrix through `run_scenario_supervised`, as `repro`
/// does it: `nproc` cell workers and the engine's default shard
/// selection. A cold run starts on a fresh, empty cache directory and
/// leaves it for the warm run that follows, which removes it.
fn supervised(spec_path: &Path, workdir: &Path, cold: bool) -> Result<String, String> {
    let src = read(spec_path)?;
    let threads = dctcp_parallel::available_threads();
    let cache_dir = workdir.join("cache");
    if cold {
        fresh_dir(&cache_dir)?;
    }
    let cache = Cache::new(&cache_dir);
    let t0 = Instant::now();
    let spec = parse(&src)?;
    let (artifact, stats) = run_scenario_supervised(&spec, threads, Some(&cache));
    let rendered = artifact.render();
    let wall_s = t0.elapsed().as_secs_f64();
    if !cold {
        std::fs::remove_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    }
    let violations: Vec<String> = check_artifact(&spec.expectations, &artifact)
        .iter()
        .map(|v| quote(&v.to_string()))
        .collect();
    let artifact_path = workdir.join(if cold {
        "artifact.json"
    } else {
        "warm-artifact.json"
    });
    write(&artifact_path, &rendered)?;
    Ok(Obj::new()
        .num("wall_s", wall_s)
        .num("threads", threads as f64)
        .num("nproc", nproc() as f64)
        .num(
            "cells",
            (artifact.points.len() + artifact.failures.len()) as f64,
        )
        .num("quarantined", stats.quarantined as f64)
        .num("retried", stats.retried as f64)
        .num("misses", stats.misses as f64)
        .num("hits", stats.hits as f64)
        .raw("violations", &array(&violations))
        .str("artifact", &artifact_path.display().to_string())
        .num("peak_rss_kb", peak_rss_kb()? as f64)
        .finish())
}

fn replay(spec_path: &Path, workdir: &Path, spans_path: Option<PathBuf>) -> Result<String, String> {
    let src = read(spec_path)?;
    let threads = dctcp_parallel::available_threads();
    let rec = spans_path.as_ref().map(|_| Recorder::new());
    let t = Tracer::root(rec.as_ref());
    let cache_dir = workdir.join(if rec.is_some() {
        "replay-traced"
    } else {
        "replay"
    });
    fresh_dir(&cache_dir)?;
    let cache = Cache::new(&cache_dir);

    alloc::set_counting(true);
    let allocs_before = alloc::allocations();
    let t0 = Instant::now();
    let spec = t.span("scenario.parse", |_| parse(&src))?;
    let (artifact, replayed, violations) = cells::replay_matrix(&spec, threads, &cache, t)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs_before;
    alloc::set_counting(false);
    std::fs::remove_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;

    let artifact_path = workdir.join(if rec.is_some() {
        "replay-traced-artifact.json"
    } else {
        "replay-artifact.json"
    });
    write(&artifact_path, &artifact.render())?;
    if let (Some(rec), Some(path)) = (&rec, &spans_path) {
        write(path, &format!("{{\"spans\": {}}}\n", array(&rec.to_json())))?;
    }
    let cells: Vec<String> = replayed
        .iter()
        .map(|r| {
            let mut counts = Obj::new();
            for &(name, v) in &r.counters.counts {
                counts = counts.num(name, v);
            }
            let absent: Vec<String> = r.counters.absent.iter().map(|n| quote(n)).collect();
            Obj::new()
                .str("marking", &r.cell.label)
                .num("flows", f64::from(r.cell.flows))
                .raw("seed", &r.cell.seed.to_string())
                .raw("counts", &counts.finish())
                .raw("absent", &array(&absent))
                .finish()
        })
        .collect();
    let violations: Vec<String> = violations.iter().map(|v| quote(&v.to_string())).collect();
    Ok(Obj::new()
        .num("wall_s", wall_s)
        .num("threads", threads as f64)
        .num("allocs", allocs as f64)
        .raw("cells", &array(&cells))
        .raw("violations", &array(&violations))
        .str("artifact", &artifact_path.display().to_string())
        .finish())
}
