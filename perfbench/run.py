#!/usr/bin/env python3
"""Benchmark runner for the DT-DCTCP scenario matrix.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]

Builds the measuring binary (perfbench/, a cargo package of its own) from
the checkout's sources, generates the workload's scenario spec from its
template and the seed, and runs it in separate processes:

  replay  the same cells through each layer's public functions; counts
          the work and warms the machine up;
  cold    the matrix through run_scenario_supervised (the `repro` path),
          cold, in a fresh process with a fresh cache directory each
          time, for --seconds; then once warm on the last cache;
  setup   parse + set every cell up without simulating, 2 s in total,
          in 10 short processes spread through the cold runs;
  replay  with --trace 1, an untraced and a span-recorded replay, back
          to back.

Every run checks the program's output: envelopes hold, no cell is
quarantined, all cold and warm runs render identical bytes, the layer
replay reproduces them, churn flows are conserved, and the artifact
matches the digest committed in reference.json (on the default seed, or
on any seed for a workload the seed does not change). The
last line of standard output is one JSON result; a failed check sets
"correct" to false and the exit code to 1. The configuration measured is
always the default one: it refuses to run when DCTCP_SIM_SHARDS
or DCTCP_JOBS is set.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json gates all but fabric_permutation, whose wall time this
# machine class cannot hold steady (see README.md).
WORKLOADS = ["bottleneck_sweep", "fct_churn", "fabric_permutation", "fluid_scaleout"]
DEFAULT_SEED = 1
SEED = "@SEED@"  # the seed's placeholder in a workload's spec template
SETUP_SECONDS = 2.0
SETUP_PROCESSES = 10
MIN_COLD_REPS = 3
MAX_COLD_REPS = 1000
OVERRIDES = ("DCTCP_SIM_SHARDS", "DCTCP_JOBS")
# What one unit of `work_per_s` is, per workload.
WORK_UNIT = {
    "bottleneck_sweep": "packet-engine events",
    "fct_churn": "completed flows",
    "fabric_permutation": "packet-engine events",
    "fluid_scaleout": "RK4 steps",
}
# Spans timing the packet engine: explicit run_for calls, or the whole
# collective call, which drives the engine internally.
ENGINE_SPANS = ("sim.run_for", "workloads.run_collective")
SELF_LAYERS = ["scenario", "workloads", "sim", "core", "tcp", "churn", "stats", "fluid", "cache"]


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"perfbench: {msg}", flush=True)


def build():
    """Builds the measuring binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        raise BenchError(f"build failed (exit {done.returncode})")
    return target / "release" / "perfbench"


def template(workload):
    return (HERE / "specs" / f"{workload}.scn").read_text()


def seeded(workload):
    """Whether `--seed` changes the workload's matrix."""
    return SEED in template(workload)


def spec_text(workload, seed):
    """The workload's spec with the seed placeholders filled in."""
    text = template(workload)
    for k in (1, 2):
        text = text.replace(f"@SEED+{k}@", str(seed + k))
    return text.replace(SEED, str(seed))


def phase(binary, *args):
    done = subprocess.run([str(binary), *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"`{args[0]}` phase failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def pool(setups):
    """Set-up reports merged: every sample, and the first report's cells."""
    pooled = dict(setups[0])
    for key in ("setup_s", "parse_s", "instantiate_s"):
        pooled[key] = [x for run in setups for x in run[key]]
    return pooled


def timed_runs(binary, spec, work, seconds):
    """Cold runs, each in a fresh process, until `seconds` have passed
    (at least MIN_COLD_REPS), with short set-up processes spread evenly
    through the same window: this machine's speed drifts over seconds,
    and both figures should see the same drift. Then one warm run.
    Returns the set-up and cold reports, aggregated."""
    reps, bodies, setups = [], set(), []
    start = time.monotonic()
    while len(reps) < MIN_COLD_REPS or (time.monotonic() - start < seconds
                                        and len(reps) < MAX_COLD_REPS):
        if time.monotonic() - start >= len(setups) * seconds / SETUP_PROCESSES:
            setups.append(phase(binary, "setup", spec, SETUP_SECONDS / SETUP_PROCESSES))
        rep = phase(binary, "cold", spec, work)
        bodies.add(Path(rep["artifact"]).read_bytes())
        reps.append(rep)
    warm = phase(binary, "warm", spec, work)
    bodies.add(Path(warm["artifact"]).read_bytes())
    first = reps[0]
    return pool(setups), {
        "wall_s": [x["wall_s"] for x in reps],
        "peak_rss_kb": [x["peak_rss_kb"] for x in reps],
        "threads": first["threads"],
        "nproc": first["nproc"],
        "cells": first["cells"],
        "attempted": sum(x["cells"] for x in reps),
        "quarantined": sum(x["quarantined"] for x in reps),
        "retried": sum(x["retried"] for x in reps),
        "misses": first["misses"],
        "hits": sum(x["hits"] for x in reps),
        "violations": first["violations"],
        "artifact": first["artifact"],
        "identical": len(bodies) == 1,
        "warm_s": warm["wall_s"],
        "warm_hits": warm["hits"],
    }


def measure(binary, workload, seed, seconds, trace):
    """Runs every phase of one workload; returns the phase reports."""
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = work / "spec.scn"
    spec.write_text(spec_text(workload, seed))
    r = {"work": work}
    # The untraced replay goes first: besides counting the work it warms
    # the machine up, so the first timed cold run is not an outlier.
    r["replay"] = phase(binary, "replay", spec, work)
    r["setup"], r["cold"] = timed_runs(binary, spec, work, seconds)
    if trace:
        # Tracing overhead compares two replays run back to back on a
        # warmed-up machine; the first replay was the warm-up.
        r["untraced"] = phase(binary, "replay", spec, work)
        spans_path = work / "spans.json"
        r["traced"] = phase(binary, "replay", spec, work, spans_path)
        r["spans"] = json.loads(spans_path.read_text())["spans"]
    return r


def check(workload, seed, r, force_digest):
    """The output checks; returns a list of failures (empty = correct)."""
    cold, replay = r["cold"], r["replay"]
    fails = [f"envelope: {v}" for v in cold["violations"]]
    if cold["quarantined"] or cold["hits"]:
        fails.append(f"{cold['quarantined']} quarantined cell(s), {cold['hits']} cold cache hit(s)")
    if not cold["identical"]:
        fails.append("cold and warm runs rendered different artifacts")
    if cold["warm_hits"] != cold["cells"]:
        fails.append(f"warm re-run hit {cold['warm_hits']} of {cold['cells']} cells")
    artifact = Path(cold["artifact"]).read_bytes()
    for rep in [replay] + [r[k] for k in ("untraced", "traced") if k in r]:
        if Path(rep["artifact"]).read_bytes() != artifact:
            fails.append("layer replay diverged from the supervised artifact")
        fails += [f"replay envelope: {v}" for v in rep["violations"]]
    for c in replay["cells"]:
        n = c["counts"]
        if "churn.flows_started" in n:
            done = n["churn.flows_completed"] + n["churn.aborted"] + n["churn.in_flight"]
            if n["churn.flows_started"] != done:
                fails.append(f"flow conservation broken for {c['marking']} seed {c['seed']}: "
                             f"{n['churn.flows_started']} started != {done} ended or in flight")
    # A seed-free workload renders the default seed's artifact on every
    # seed, so its digest is checked on every run.
    if seed == DEFAULT_SEED or not seeded(workload) or force_digest:
        want = json.loads((HERE / "reference.json").read_text())[workload]
        got = hashlib.sha256(artifact).hexdigest()
        if got != want:
            fails.append(f"artifact digest mismatch: {got} != reference {want} (seed {DEFAULT_SEED})")
    return fails


def end_to_end(workload, r):
    cold, replay = r["cold"], r["replay"]
    artifact = json.loads(Path(cold["artifact"]).read_text())
    wall = m.central(cold["wall_s"])
    events = m.counter(replay["cells"], "sim.events")
    flows = sum(p["flows_completed"] for p in artifact["points"]) if workload == "fct_churn" else 0
    steps = m.counter(replay["cells"], "fluid.steps")
    work = {"fct_churn": flows, "fluid_scaleout": steps}.get(workload, events)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (m.central(r["setup"]["setup_s"]), "s"),
        "work_per_s": (work / wall, "1/s"),
        "peak_rss_mb": (m.central(cold["peak_rss_kb"]) / 1024, "MB"),
        "dt_ratio": (m.dt_ratio(artifact, m.HEADLINE[workload]), "ratio"),
    }, {
        # Reported by name, outside the gated set: each is zero or
        # undefined on some workload.
        "events_per_s": (events / wall if events else None, "1/s"),
        "flows_per_s": (flows / wall if flows else None, "1/s"),
        "fluid_steps_per_s": (steps / wall if steps else None, "1/s"),
        "failed_frac": (m.failed_frac(cold["quarantined"], cold["attempted"]), "ratio"),
    }


def per_layer(r, named):
    setup, cold, replay, untraced = r["setup"], r["cold"], r["replay"], r["untraced"]
    traced, spans = r["traced"], r["spans"]
    cells = replay["cells"]
    events = m.counter(cells, "sim.events")
    engine_ns = m.span_total(spans, *ENGINE_SPANS)
    shards = [c["shards"] for c in setup["cells"]]
    sharded = [(s, c) for s, c in zip(setup["cells"], cells) if s["shards"] > 1]
    windows = sum(c["counts"]["sim.simulated_ns"] / s["lookahead_ns"] for s, c in sharded)
    sharded_ns = sum(m.span_total([x for x in spans if x["cell"] == i], *ENGINE_SPANS)
                     for i, s in enumerate(setup["cells"]) if s["shards"] > 1)
    cell_s = [d / 1e9 for d in m.span_durations(spans, "scenario.cell")]
    puts = m.span_durations(spans, "cache.put")
    gets = m.span_durations(spans, "cache.get")
    enq = m.counter(cells, "core.enqueued")
    marked = m.counter(cells, "core.marked")
    started = m.counter(cells, "churn.flows_started")
    steps = m.counter(cells, "fluid.steps")
    out = {
        "scenario.parse_ms": (m.central(setup["parse_s"]) * 1e3, "ms"),
        "scenario.check_ms": (m.span_total(spans, "scenario.check") / 1e6, "ms"),
        "scenario.cells": (cold["cells"], "count"),
        "scenario.cell_p50_s": (statistics.median(cell_s), "s"),
        "scenario.cell_max_s": (max(cell_s), "s"),
        "scenario.overhead_ratio": (m.central(cold["wall_s"]) / untraced["wall_s"], "ratio"),
        "scenario.retried": (cold["retried"], "count"),
        "scenario.quarantined": (cold["quarantined"], "count"),
        "scenario.failed_frac": (named["failed_frac"][0], "ratio"),
        "cache.put_ms": (sum(puts) / len(puts) / 1e6, "ms"),
        "cache.get_ms": (sum(gets) / len(gets) / 1e6, "ms"),
        "cache.misses": (cold["misses"], "count"),
        "cache.warm_s": (cold["warm_s"], "s"),
        "cache.warm_hit_ratio": (cold["warm_hits"] / cold["cells"], "ratio"),
        "parallel.threads": (cold["threads"], "count"),
        "parallel.busy_frac": (m.busy_frac(cell_s, traced["wall_s"], traced["threads"]), "ratio"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (m.ratio(engine_ns, events), "ns"),
        "sim.allocs_per_event": (m.ratio(replay["allocs"], events), "allocs/event"),
        "sim.shards": (sum(shards) / len(shards), "count"),
        "sim.lookahead_us": (min((s["lookahead_ns"] for s, _ in sharded), default=0) / 1e3, "us"),
        "sim.windows": (windows, "count"),
        "sim.ns_per_window": (m.ratio(sharded_ns, windows), "ns"),
        "workloads.instantiate_ms": (m.central(setup["instantiate_s"]) * 1e3, "ms"),
        "core.enqueued": (enq, "count"),
        "core.marked": (marked, "count"),
        "core.dropped": (m.counter(cells, "core.dropped"), "count"),
        "core.mark_frac": (m.ratio(marked, enq), "ratio"),
        "tcp.segments_sent": (m.counter(cells, "tcp.segments_sent"), "count"),
        "tcp.fast_retransmits": (m.counter(cells, "tcp.fast_retransmits"), "count"),
        "tcp.timeouts": (m.counter(cells, "tcp.timeouts"), "count"),
        "tcp.ecn_cuts": (m.counter(cells, "tcp.ecn_cuts"), "count"),
        "churn.flows_started": (started, "count"),
        "churn.flows_completed": (m.counter(cells, "churn.flows_completed"), "count"),
        "churn.aborted": (m.counter(cells, "churn.aborted"), "count"),
        "churn.backlog_peak": (m.counter(cells, "churn.backlog_peak", max), "count"),
        "churn.slots_high_water": (m.counter(cells, "churn.slots_high_water", max), "count"),
        "churn.stale_frac": (m.ratio(m.counter(cells, "churn.stale_events"), events) if started else 0.0, "ratio"),
        "churn.allocs_per_flow": (m.ratio(replay["allocs"], started) if started else 0.0, "allocs/flow"),
        "stats.sketch_inserts": (m.counter(cells, "stats.sketch_inserts"), "count"),
        "stats.reduce_ms": (m.span_total(spans, "stats.reduce") / 1e6, "ms"),
        "fluid.points": (m.counter(cells, "fluid.points"), "count"),
        "fluid.steps": (steps, "count"),
        "fluid.ns_per_step": (m.ratio(m.span_total(spans, "fluid.evaluate"), steps), "ns"),
        "bench.trace_overhead": (traced["wall_s"] / untraced["wall_s"], "ratio"),
    }
    own = m.self_times(spans)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = (own.get(layer, 0) / 1e6, "ms")
    return out


def fmt(v):
    return "n/a" if v is None else ("absent" if v == m.ABSENT else f"{v:.6g}")


def run_workload(binary, workload, seed, seconds, trace, force_digest):
    """Measures and checks one workload; returns (result dict, failures)."""
    log(f"workload={workload} seed={seed} seconds={seconds} trace={trace}")
    r = measure(binary, workload, seed, seconds, trace)
    cold, setup = r["cold"], r["setup"]
    shards = [c["shards"] for c in setup["cells"]]
    log(f"nproc={cold['nproc']} cell_workers={cold['threads']} cells={cold['cells']} "
        f"shards_per_cell={shards} cold_reps={len(cold['wall_s'])}")
    fails = check(workload, seed, r, force_digest)
    log("output check: " + ("ok" if not fails else "FAILED"))
    for f in fails:
        log(f"  {f}")
    gated, named = end_to_end(workload, r)
    for name, (v, unit) in {**gated, **named}.items():
        print(f"  {name:<18} {fmt(v):>14} {unit}")
    log(f"work_per_s counts {WORK_UNIT[workload]}")
    chosen = gated
    if trace:
        chosen = per_layer(r, named)
        for name, (v, unit) in chosen.items():
            print(f"  {name:<26} {fmt(v):>14} {unit}")
        log(f"spans written to {(r['work'] / 'spans.json').relative_to(ROOT)}")
    result = {
        "correct": not fails,
        "attempted": int(cold["attempted"]),
        "failed": int(cold["quarantined"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    return result, fails


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-digest", action="store_true",
                    help="check the default seed's digest on any seed of a seeded workload "
                         "(shows the check bites)")
    args = ap.parse_args()
    if not 0 <= args.seed <= 2**63:
        ap.error("--seed must be in 0..2^63")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    set_overrides = [v for v in OVERRIDES if v in os.environ]
    if set_overrides:
        print(f"perfbench: refusing to run with {', '.join(set_overrides)} set: the benchmark "
              "measures the default configuration", file=sys.stderr)
        return 2
    try:
        binary = build()
        results = []
        for w in WORKLOADS if args.all else [args.workload]:
            results.append(run_workload(binary, w, args.seed, args.seconds, args.trace,
                                        args.force_digest))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    ok = all(not fails for _, fails in results)
    if not args.all:
        print(json.dumps(results[0][0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
