//! Validates a `BENCH_sim.json` report produced by the bench harness
//! (`--json <path>`): checks the schema tag, the timing protocol, that
//! every benchmark has a positive ns/iter and iteration count and that
//! at least one bench reports a positive events/sec rate, then runs the
//! [`GATES`] table — one row per gated value, each a floor, ceiling or
//! band plus the conditions under which it applies. Exits non-zero with
//! a message on any violation, so `ci.sh` can gate on it. Non-fatal
//! oddities — e.g. a parallel sweep measured with a single thread,
//! whose speedup says nothing — are warnings on stderr.
//!
//! Usage: `bench_check [path]` (default `BENCH_sim.json`).

use std::process::ExitCode;

use Bound::{Above, Band, Ceiling, Floor};

/// Ceiling on the committed overhead ratios: the forwarding hot path
/// with tracing compiled in but disabled (`trace_overhead`), and the
/// supervised executor's warm all-hit scenario path
/// (`supervision_overhead`), may each cost at most 2% over the
/// committed pre-run baseline.
const TRACE_OVERHEAD_LIMIT: f64 = 1.02;

/// Noise floor on the same ratio. Two timing runs of identical code
/// under the min-of-batches protocol agree within a few percent, so a
/// ratio *below* 0.95x cannot be a real speedup of an unchanged hot
/// path — it means the committed baseline is stale or was measured
/// under a different protocol, and the 1.02x ceiling above is no longer
/// anchored to anything. Treat it as a failure, not a pleasant surprise.
const TRACE_OVERHEAD_FLOOR: f64 = 0.95;

/// Ceiling on `engine/forward/allocs_per_event`. The packet slab and the
/// SoA queue rings keep the steady-state forwarding path allocation-free;
/// what the bench still sees is one-time container growth amortized over
/// ~40k events (measured ~0.003). 0.05 leaves room for growth-pattern
/// shifts while still catching any per-packet Box/Vec sneaking back in
/// (that would read ≥ 1.0).
const ALLOCS_PER_EVENT_LIMIT: f64 = 0.05;

/// Floor on the fat-tree allreduce bench's events/sec. The workload
/// pushes a 16-host ring allreduce through ECMP'd multi-queue switches
/// with full DCTCP transport, and even a slow CI machine clears a few
/// million events/sec; a committed report under 200k events/sec means
/// the fabric hot path picked up something pathological (per-packet
/// allocation, quadratic routing lookups), not machine noise.
const FATTREE_EVENTS_FLOOR: f64 = 200_000.0;

/// Floor on `fluid/sweep_1e6` (points/sec): the DDE integrator sweeps
/// the full `N = 10¹…10⁶` grid at the scale-out operating point, one
/// point being 50k RK4 steps through the delay history ring. Even a
/// slow single-core CI machine clears ~100 points/sec (measured 107);
/// a committed report under 20 points/sec means the integrator hot
/// path regressed by multiples (per-step allocation, history-ring
/// scans), not machine noise.
const FLUID_SWEEP_FLOOR: f64 = 20.0;

/// Floor on `engine/sharded/speedup_4shards` — but only on machines with
/// at least four cores to run the four shards on. On smaller machines
/// the window barriers serialize anyway and the number is a warning, not
/// a gate.
const SHARD_SPEEDUP_FLOOR: f64 = 1.5;

/// Floor on `engine/churn/flows_per_sec`: the open-loop churn workload
/// (16 sources at load 0.8 over a 10 Gb/s bottleneck, web-search sizes)
/// through slab-recycled senders. A committed report under 100k
/// flows/sec means per-flow state stopped recycling (allocation or
/// teardown crept into the open/close path), not machine noise.
const CHURN_FLOWS_FLOOR: f64 = 100_000.0;

/// Ceiling on `engine/churn/allocs_per_flow`, measured on a cold run so
/// one-time slab/sketch growth is included. Recycled flow state costs
/// zero steady-state allocations; 2.0 absorbs the amortized cold-start
/// growth while still catching a per-flow Box/Vec (which adds several
/// allocations per open/close, not a fraction).
const ALLOCS_PER_FLOW_LIMIT: f64 = 2.0;

/// Floor on `sweep/multi_seed/speedup`. The harness only emits the
/// metric when the machine has >= 2 cores to actually time scaling on
/// (single-core reports carry no speedup and the floor is skipped); a
/// present speedup below even this modest bar means the parallel sweep
/// driver is losing to its own dispatch overhead.
const SWEEP_SPEEDUP_FLOOR: f64 = 1.2;

/// One bench record of the report.
struct Bench<'a> {
    name: &'a str,
    ns_per_iter: Option<f64>,
    iters: Option<f64>,
    events_per_sec: Option<f64>,
}

/// The report, parsed once. The harness writes flat `{...}` objects
/// (the protocol, one per bench, one per metric), so splitting on
/// braces and scanning `"key": value` pairs is enough — this checks our
/// own writer, it is not a JSON parser.
#[derive(Default)]
struct Report<'a> {
    schema: Option<&'a str>,
    timing: Option<&'a str>,
    batches: Option<f64>,
    benches: Vec<Bench<'a>>,
    metrics: Vec<(&'a str, f64)>,
}

/// The text after the first `"key": `, unquoted.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let rest = &obj[obj.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// A numeric field: `None` when absent or `null`, NaN when unparsable
/// (so a garbled gated value is rejected, never skipped).
fn number(obj: &str, key: &str) -> Option<f64> {
    let raw = field(obj, key).filter(|raw| *raw != "null")?;
    Some(raw.parse().unwrap_or(f64::NAN))
}

impl<'a> Report<'a> {
    fn parse(body: &'a str) -> Self {
        let mut r = Report::default();
        for obj in body.split('{') {
            r.schema = r.schema.or(field(obj, "schema"));
            r.timing = r.timing.or(field(obj, "timing"));
            r.batches = r.batches.or(number(obj, "batches"));
            let name = field(obj, "name").unwrap_or("");
            if field(obj, "ns_per_iter").is_some() {
                r.benches.push(Bench {
                    name,
                    ns_per_iter: number(obj, "ns_per_iter"),
                    iters: number(obj, "iters"),
                    events_per_sec: number(obj, "events_per_sec"),
                });
            } else if let Some(value) = number(obj, "value") {
                r.metrics.push((name, value));
            }
        }
        r
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The named metric, or else the named bench's events/sec.
    fn value(&self, name: &str) -> Option<f64> {
        let bench = || self.benches.iter().find(|b| b.name == name)?.events_per_sec;
        self.metric(name).or_else(bench)
    }
}

/// Where a value must sit; edges pass. A ceiling bounds a cost, so it
/// admits zero; the others bound a rate or ratio, which must be
/// positive. Either way NaN and ±∞ are malformed, whatever the bound.
#[derive(Clone, Copy)]
enum Bound {
    Floor(f64),
    /// Strictly above.
    Above(f64),
    Ceiling(f64),
    /// Floor and ceiling.
    Band(f64, f64),
}

impl Bound {
    /// How `v` breaks the bound, if it does; `x` follows each edge.
    fn breach(self, v: f64, x: &str) -> Option<String> {
        Some(match self {
            Floor(lo) | Band(lo, _) if v < lo => format!("is below the {lo}{x} floor"),
            Ceiling(hi) | Band(_, hi) if v > hi => format!("exceeds the {hi}{x} ceiling"),
            Above(lo) if v <= lo => format!("is not above {lo}{x}"),
            _ => return None,
        })
    }
}

/// One row of [`GATES`].
struct Gate {
    /// A metric, or a bench whose events/sec is gated.
    source: &'static str,
    bound: Bound,
    /// Unit and decimals of the value in messages (a ratio's `x` also
    /// follows the bound), and the noun a malformed value is not.
    shown: (&'static str, usize, &'static str),
    /// Why a value outside the bound is wrong.
    reason: &'static str,
    /// A value outside the bound warns instead of failing.
    warn_only: bool,
    /// When several rows fail, the lowest is reported (ties in table
    /// order): single-thread floors before the noisier parallel
    /// speedups, and those before the cache trio.
    precedence: u8,
    /// Summary fragment for a passing value.
    note: fn(f64, &Report) -> String,
    /// Companions that must be present, finite and at least a minimum.
    needs: &'static [(&'static str, f64, &'static str)],
    /// Below this many cores (a companion) the floor only warns.
    cores: Option<(&'static str, f64)>,
    /// Metrics that appear all together or not at all.
    group: &'static [&'static str],
}

/// The defaults every row of [`GATES`] starts from.
const GATE: Gate = Gate {
    source: "",
    bound: Floor(f64::NEG_INFINITY),
    shown: ("x", 4, "ratio"),
    reason: "",
    warn_only: false,
    precedence: 0,
    note: |_, _| String::new(),
    needs: &[],
    cores: None,
    group: &[],
};

/// The overhead rows' summary fragment.
fn band_note(short: &str, ratio: f64) -> String {
    format!(", {short} {ratio:.3}x (band [{TRACE_OVERHEAD_FLOOR}, {TRACE_OVERHEAD_LIMIT}])")
}

/// Every gated value, in summary order. An absent value skips its row;
/// a present one must be well-formed, have its companions and hold its
/// bound. (The benches assert their own bit-identity, so a rate only
/// has to clear a pathology floor.)
static GATES: [Gate; 11] = [
    Gate {
        source: "engine/forward/trace_overhead",
        bound: Band(TRACE_OVERHEAD_FLOOR, TRACE_OVERHEAD_LIMIT),
        reason: "disabled tracing may cost engine/forward 2%; under the noise floor, re-baseline",
        note: |r, _| band_note("trace_overhead", r),
        ..GATE
    },
    Gate {
        source: "scenario/warm/supervision_overhead",
        bound: Band(TRACE_OVERHEAD_FLOOR, TRACE_OVERHEAD_LIMIT),
        reason: "supervised-executor overhead is capped at 2%; under the noise floor, re-baseline",
        note: |r, _| band_note("supervision_overhead", r),
        ..GATE
    },
    Gate {
        source: "engine/forward/allocs_per_event",
        bound: Ceiling(ALLOCS_PER_EVENT_LIMIT),
        shown: ("", 4, "ratio"),
        reason: "the forwarding hot path is allocating again",
        note: |a, _| format!(", {a:.4} allocs/event"),
        ..GATE
    },
    // No summary fragment; its warning precedes the shard row's.
    Gate {
        source: "sweep/multi_seed/threads",
        bound: Floor(2.0),
        shown: ("", 0, "thread count"),
        reason: "a speedup measured with 1 thread is not a parallelism measurement",
        warn_only: true,
        ..GATE
    },
    Gate {
        source: "engine/sharded/speedup_4shards",
        bound: Floor(SHARD_SPEEDUP_FLOOR),
        shown: ("x", 2, "ratio"),
        reason: "four shards no longer pay for their window barriers",
        note: |s, _| format!(", 4-shard speedup {s:.2}x"),
        needs: &[(
            "engine/sharded/shards",
            2.0,
            " >= 2 (it fell back to the serial engine)",
        )],
        cores: Some(("engine/sharded/cores", 4.0)),
        precedence: 2,
        ..GATE
    },
    Gate {
        source: "sweep/multi_seed/speedup",
        bound: Floor(SWEEP_SPEEDUP_FLOOR),
        shown: ("x", 2, "ratio"),
        reason: "the parallel sweep driver is losing to its own dispatch overhead",
        note: |s, _| format!(", multi-seed sweep {s:.2}x"),
        needs: &[(
            "sweep/multi_seed/cores",
            2.0,
            " >= 2 (one core times oversubscription, not scaling — re-baseline on a \
             multi-core machine; the harness records no speedup there)",
        )],
        precedence: 1,
        ..GATE
    },
    Gate {
        source: "engine/fattree/k4_allreduce_16kb",
        bound: Floor(FATTREE_EVENTS_FLOOR),
        shown: (" events/sec", 0, "rate"),
        reason: "the fabric hot path regressed far beyond machine noise",
        note: |r, _| format!(", fat-tree {:.1}M events/sec", r / 1e6),
        ..GATE
    },
    Gate {
        source: "fluid/sweep_1e6",
        bound: Floor(FLUID_SWEEP_FLOOR),
        shown: (" points/sec", 0, "rate"),
        reason: "the DDE integrator hot path regressed far beyond machine noise",
        note: |r, _| format!(", fluid sweep {r:.0} points/sec"),
        ..GATE
    },
    Gate {
        source: "engine/churn/flows_per_sec",
        bound: Floor(CHURN_FLOWS_FLOOR),
        shown: ("", 0, "rate"),
        reason: "per-flow open/close stopped recycling state",
        note: |r, _| format!(", churn {:.0}k flows/sec", r / 1e3),
        ..GATE
    },
    Gate {
        source: "engine/churn/allocs_per_flow",
        bound: Ceiling(ALLOCS_PER_FLOW_LIMIT),
        shown: ("", 3, "ratio"),
        reason: "the flow open/close path is allocating per flow again",
        note: |a, _| format!(", {a:.3} allocs/flow"),
        ..GATE
    },
    // Part of the trio means a mismatched harness.
    Gate {
        source: "cache/warm_rerun_speedup",
        bound: Above(1.0),
        reason: "a warm hit-only rerun must beat the cold run that populated the cache",
        note: |s, r| {
            let hits = r.metric("cache/hits").unwrap_or(0.0);
            format!(", warm cache rerun {s:.1}x over {hits:.0} cells")
        },
        needs: &[
            ("cache/hits", 1.0, " >= 1 (the warm rerun must hit)"),
            ("cache/misses", 1.0, " >= 1 (the cold run must miss)"),
        ],
        group: &["cache/hits", "cache/misses", "cache/warm_rerun_speedup"],
        precedence: 3,
        ..GATE
    },
];

impl Gate {
    /// Evaluates the row: appends its summary fragment and any warning,
    /// or returns why the report fails it.
    fn apply(&self, r: &Report, out: &mut Verdict) -> Result<(), String> {
        let present = self.group.iter().filter(|m| r.metric(m).is_some()).count();
        if present != 0 && present != self.group.len() {
            return Err(format!("{} must appear together", self.group.join(", ")));
        }
        let name = self.source;
        let Some(v) = r.value(name) else {
            return Ok(());
        };
        let (unit, d, noun) = self.shown;
        let (sign, ok) = match self.bound {
            Ceiling(_) => ("non-negative", v >= 0.0),
            _ => ("positive", v > 0.0),
        };
        if !(ok && v.is_finite()) {
            return Err(format!("{name} {v} is not a {sign} {noun}"));
        }
        let need = |metric: &str, min: f64, why: &str| match r.metric(metric) {
            Some(c) if c.is_finite() && c >= min => Ok(c),
            Some(c) => Err(format!("{name} needs {metric}{why}, got {c}")),
            None => Err(format!("{name} needs {metric}{why}")),
        };
        for &(metric, min, why) in self.needs {
            need(metric, min, why)?;
        }
        let shown = format!("{name} {v:.d$}{unit}");
        let x = if unit == "x" { "x" } else { "" };
        let mut breach = self.bound.breach(v, x);
        if let (Some((metric, min)), Floor(lo)) = (self.cores, self.bound) {
            let c = need(metric, 0.0, "")?;
            if c < min {
                breach = None;
                out.warnings.push(format!(
                    "{shown} was measured on {c:.0} core(s); the {lo}{x} floor only applies \
                     with >= {min} cores"
                ));
            }
        }
        if let Some(breach) = breach {
            let msg = format!("{shown} {breach}: {}", self.reason);
            if !self.warn_only {
                return Err(msg);
            }
            out.warnings.push(msg);
        }
        out.summary.push_str(&(self.note)(v, r));
        Ok(())
    }
}

/// A passing report's one-line summary plus any non-fatal warnings.
#[derive(Debug)]
struct Verdict {
    summary: String,
    warnings: Vec<String>,
}

fn check(body: &str) -> Result<Verdict, String> {
    let report = Report::parse(body);
    if report.schema != Some("dctcp-bench/v1") {
        return Err("missing or wrong schema tag (want dctcp-bench/v1)".into());
    }
    // Ratio metrics are only meaningful against a baseline measured the
    // same way; the report must declare the min-of-batches protocol
    // with at least 3 batches.
    if report.timing != Some("min-of-batches") {
        return Err(
            "report does not declare the min-of-batches timing protocol; \
             regenerate it with the current harness (cargo bench -p dctcp-bench \
             --bench engine -- --json BENCH_sim.json)"
                .into(),
        );
    }
    if !report.batches.is_some_and(|b| b >= 3.0) {
        return Err("timing protocol must use at least 3 batches".into());
    }
    let benches = &report.benches;
    if benches.is_empty() {
        return Err("no benchmark records".into());
    }
    for (i, b) in benches.iter().enumerate() {
        if !b.ns_per_iter.is_some_and(|v| v > 0.0) {
            return Err(format!("bench #{i}: ns_per_iter is not a positive number"));
        }
    }
    if !benches.iter().all(|b| b.iters.is_some_and(|v| v >= 1.0)) {
        return Err("every bench needs iters >= 1".into());
    }
    let rates = benches.iter().filter_map(|b| b.events_per_sec);
    let peak = rates.fold(0.0, f64::max);
    if peak <= 0.0 {
        return Err("no bench reports a positive events_per_sec".into());
    }
    let mut verdict = Verdict {
        summary: format!("{} benches ok, peak {peak:.0} events/sec", benches.len()),
        warnings: Vec::new(),
    };
    let failed = GATES.iter().filter_map(|g| {
        let msg = g.apply(&report, &mut verdict).err()?;
        Some((g.precedence, msg))
    });
    match failed.min_by_key(|f| f.0) {
        Some((_, msg)) => Err(msg),
        None => Ok(verdict),
    }
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1);
    let path = path.as_deref().unwrap_or("BENCH_sim.json");
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read it: {e}"));
    match body.and_then(|body| check(&body)) {
        Ok(verdict) => {
            for w in &verdict.warnings {
                eprintln!("bench_check: {path}: warning: {w}");
            }
            println!("bench_check: {path}: {}", verdict.summary);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench_check: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": "dctcp-bench/v1",
  "protocol": {"timing": "min-of-batches", "batches": 3},
  "benches": [
    {"name": "engine/forward", "ns_per_iter": 2500000, "iters": 20, "events_per_sec": 12000000.0},
    {"name": "other", "ns_per_iter": 10, "iters": 3, "events_per_sec": null}
  ],
  "metrics": [
    {"name": "sweep/multi_seed/cores", "value": 4.000000, "unit": "cores"},
    {"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}
  ]
}
"#;

    #[test]
    fn accepts_valid_report() {
        assert!(check(GOOD).is_ok());
    }

    #[test]
    fn rejects_wrong_schema() {
        let bad = GOOD.replace("dctcp-bench/v1", "dctcp-bench/v0");
        assert!(check(&bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn rejects_empty_benches() {
        let bad = r#"{"schema": "dctcp-bench/v1",
  "protocol": {"timing": "min-of-batches", "batches": 3},
  "benches": [], "metrics": []}"#;
        assert!(check(bad).unwrap_err().contains("no benchmark"));
    }

    #[test]
    fn rejects_missing_protocol() {
        let bad = GOOD.replace(
            r#"  "protocol": {"timing": "min-of-batches", "batches": 3},
"#,
            "",
        );
        assert!(check(&bad).unwrap_err().contains("min-of-batches"));
    }

    #[test]
    fn rejects_too_few_batches() {
        let bad = GOOD.replace("\"batches\": 3", "\"batches\": 1");
        assert!(check(&bad).unwrap_err().contains("at least 3 batches"));
    }

    #[test]
    fn rejects_zero_ns_per_iter() {
        let bad = GOOD.replace("\"ns_per_iter\": 10", "\"ns_per_iter\": 0");
        assert!(check(&bad).is_err());
    }

    #[test]
    fn rejects_all_null_event_rates() {
        let bad = GOOD.replace("12000000.0", "null");
        assert!(check(&bad).unwrap_err().contains("events_per_sec"));
    }

    fn with_overhead(ratio: &str) -> String {
        GOOD.replace(
            r#"{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}"#,
            &format!(
                r#"{{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}},
    {{"name": "engine/forward/trace_overhead", "value": {ratio}, "unit": "x"}}"#
            ),
        )
    }

    #[test]
    fn accepts_trace_overhead_within_limit() {
        let msg = check(&with_overhead("1.015000")).unwrap().summary;
        assert!(msg.contains("trace_overhead 1.015x"), "{msg}");
    }

    #[test]
    fn rejects_trace_overhead_above_limit() {
        let err = check(&with_overhead("1.031000")).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn rejects_non_positive_trace_overhead() {
        assert!(check(&with_overhead("0.000000")).is_err());
    }

    #[test]
    fn rejects_trace_overhead_below_noise_floor() {
        // The exact symptom this gate exists for: 0.90x used to pass.
        let err = check(&with_overhead("0.901766")).unwrap_err();
        assert!(err.contains("noise floor"), "{err}");
        assert!(err.contains("re-baseline"), "{err}");
    }

    #[test]
    fn accepts_trace_overhead_at_band_edges() {
        assert!(check(&with_overhead("0.950000")).is_ok());
        assert!(check(&with_overhead("1.020000")).is_ok());
    }

    #[test]
    fn missing_trace_overhead_is_not_an_error() {
        let msg = check(GOOD).unwrap().summary;
        assert!(!msg.contains("trace_overhead"));
    }

    fn with_supervision_overhead(ratio: &str) -> String {
        GOOD.replace(
            r#"{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}"#,
            &format!(
                r#"{{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}},
    {{"name": "scenario/warm/supervision_overhead", "value": {ratio}, "unit": "x"}}"#
            ),
        )
    }

    #[test]
    fn supervision_overhead_shares_the_band() {
        let msg = check(&with_supervision_overhead("1.010000"))
            .unwrap()
            .summary;
        assert!(msg.contains("supervision_overhead 1.010x"), "{msg}");

        let err = check(&with_supervision_overhead("1.050000")).unwrap_err();
        assert!(err.contains("supervised-executor"), "{err}");
        assert!(err.contains("exceeds"), "{err}");

        let err = check(&with_supervision_overhead("0.800000")).unwrap_err();
        assert!(err.contains("noise floor"), "{err}");
    }

    fn with_metrics(extra: &str) -> String {
        GOOD.replace(
            r#"{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}"#,
            &format!(
                r#"{{"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}},
    {extra}"#
            ),
        )
    }

    fn cache_trio(hits: &str, misses: &str, speedup: &str) -> String {
        with_metrics(&format!(
            r#"{{"name": "cache/hits", "value": {hits}, "unit": "cells"}},
    {{"name": "cache/misses", "value": {misses}, "unit": "cells"}},
    {{"name": "cache/warm_rerun_speedup", "value": {speedup}, "unit": "x"}}"#
        ))
    }

    #[test]
    fn accepts_cache_trio_with_real_speedup() {
        let v = check(&cache_trio("4.000000", "4.000000", "61.500000")).unwrap();
        assert!(
            v.summary.contains("warm cache rerun 61.5x"),
            "{}",
            v.summary
        );
    }

    #[test]
    fn rejects_cache_speedup_at_or_below_one() {
        let err = check(&cache_trio("4.000000", "4.000000", "0.900000")).unwrap_err();
        assert!(err.contains("warm_rerun_speedup"), "{err}");
        assert!(check(&cache_trio("4.000000", "4.000000", "1.000000")).is_err());
    }

    #[test]
    fn rejects_cache_metrics_without_traffic() {
        let err = check(&cache_trio("0.000000", "4.000000", "61.500000")).unwrap_err();
        assert!(err.contains("hit"), "{err}");
        assert!(check(&cache_trio("4.000000", "0.000000", "61.500000")).is_err());
    }

    #[test]
    fn rejects_partial_cache_trio() {
        let partial = with_metrics(r#"{"name": "cache/hits", "value": 4.000000, "unit": "cells"}"#);
        let err = check(&partial).unwrap_err();
        assert!(err.contains("together"), "{err}");
    }

    #[test]
    fn missing_cache_metrics_are_not_an_error() {
        assert!(check(GOOD).is_ok());
    }

    #[test]
    fn allocs_per_event_under_ceiling_passes() {
        let v = check(&with_metrics(
            r#"{"name": "engine/forward/allocs_per_event", "value": 0.003000, "unit": "allocs/event"}"#,
        ))
        .unwrap();
        assert!(v.summary.contains("0.0030 allocs/event"), "{}", v.summary);
    }

    #[test]
    fn allocs_per_event_over_ceiling_fails() {
        let err = check(&with_metrics(
            r#"{"name": "engine/forward/allocs_per_event", "value": 1.200000, "unit": "allocs/event"}"#,
        ))
        .unwrap_err();
        assert!(err.contains("allocating again"), "{err}");
    }

    fn shard_trio(speedup: &str, shards: &str, cores: &str) -> String {
        with_metrics(&format!(
            r#"{{"name": "engine/sharded/shards", "value": {shards}, "unit": "shards"}},
    {{"name": "engine/sharded/cores", "value": {cores}, "unit": "cores"}},
    {{"name": "engine/sharded/speedup_4shards", "value": {speedup}, "unit": "x"}}"#
        ))
    }

    #[test]
    fn shard_speedup_passes_on_big_machine() {
        let v = check(&shard_trio("2.100000", "4.000000", "8.000000")).unwrap();
        assert!(v.summary.contains("4-shard speedup 2.10x"), "{}", v.summary);
        assert!(v.warnings.is_empty());
    }

    #[test]
    fn shard_speedup_below_floor_fails_with_enough_cores() {
        let err = check(&shard_trio("1.100000", "4.000000", "8.000000")).unwrap_err();
        assert!(err.contains("below the 1.5x floor"), "{err}");
    }

    #[test]
    fn shard_speedup_below_floor_warns_on_small_machine() {
        let v = check(&shard_trio("0.900000", "4.000000", "1.000000")).unwrap();
        assert_eq!(v.warnings.len(), 1, "{:?}", v.warnings);
        assert!(v.warnings[0].contains("1 core"), "{}", v.warnings[0]);
    }

    #[test]
    fn shard_speedup_without_sharding_fails() {
        let err = check(&shard_trio("1.000000", "1.000000", "8.000000")).unwrap_err();
        assert!(err.contains("serial engine"), "{err}");
    }

    #[test]
    fn shard_speedup_needs_cores_metric() {
        let partial = with_metrics(
            r#"{"name": "engine/sharded/shards", "value": 4.000000, "unit": "shards"},
    {"name": "engine/sharded/speedup_4shards", "value": 2.000000, "unit": "x"}"#,
        );
        let err = check(&partial).unwrap_err();
        assert!(err.contains("needs engine/sharded/cores"), "{err}");
    }

    fn with_fattree_bench(rate: &str) -> String {
        GOOD.replace(
            r#"{"name": "other", "ns_per_iter": 10, "iters": 3, "events_per_sec": null}"#,
            &format!(
                r#"{{"name": "other", "ns_per_iter": 10, "iters": 3, "events_per_sec": null}},
    {{"name": "engine/fattree/k4_allreduce_16kb", "ns_per_iter": 4000000, "iters": 8, "events_per_sec": {rate}}}"#
            ),
        )
    }

    #[test]
    fn fattree_rate_above_floor_passes() {
        let v = check(&with_fattree_bench("2400000.0")).unwrap();
        assert!(
            v.summary.contains("fat-tree 2.4M events/sec"),
            "{}",
            v.summary
        );
    }

    #[test]
    fn fattree_rate_below_floor_fails() {
        let err = check(&with_fattree_bench("150000.0")).unwrap_err();
        assert!(err.contains("below the 200000 floor"), "{err}");
    }

    #[test]
    fn fluid_sweep_above_floor_passes() {
        let v = check(&with_metrics(
            r#"{"name": "fluid/sweep_1e6", "value": 4100.000000, "unit": "points/sec"}"#,
        ))
        .unwrap();
        assert!(
            v.summary.contains("fluid sweep 4100 points/sec"),
            "{}",
            v.summary
        );
    }

    #[test]
    fn fluid_sweep_below_floor_fails() {
        let err = check(&with_metrics(
            r#"{"name": "fluid/sweep_1e6", "value": 12.000000, "unit": "points/sec"}"#,
        ))
        .unwrap_err();
        assert!(err.contains("below the 20 floor"), "{err}");
        assert!(err.contains("DDE integrator"), "{err}");
    }

    #[test]
    fn fluid_sweep_rejects_non_positive_rate() {
        let err = check(&with_metrics(
            r#"{"name": "fluid/sweep_1e6", "value": 0.000000, "unit": "points/sec"}"#,
        ))
        .unwrap_err();
        assert!(err.contains("not a positive rate"), "{err}");
    }

    #[test]
    fn missing_fluid_sweep_is_not_an_error() {
        let v = check(GOOD).unwrap();
        assert!(!v.summary.contains("fluid sweep"), "{}", v.summary);
    }

    #[test]
    fn missing_fattree_bench_is_not_an_error() {
        let v = check(GOOD).unwrap();
        assert!(!v.summary.contains("fat-tree"), "{}", v.summary);
    }

    /// GOOD with the sweep metrics stripped — the report a single-core
    /// machine now produces (the harness emits no speedup there).
    fn without_sweep() -> String {
        GOOD.replace(
            r#"    {"name": "sweep/multi_seed/cores", "value": 4.000000, "unit": "cores"},
    {"name": "sweep/multi_seed/speedup", "value": 1.600000, "unit": "x"}"#,
            "",
        )
    }

    #[test]
    fn absent_sweep_speedup_skips_floor_silently() {
        let v = check(&without_sweep()).unwrap();
        assert!(v.warnings.is_empty(), "{:?}", v.warnings);
        assert!(!v.summary.contains("multi-seed"), "{}", v.summary);
    }

    #[test]
    fn sweep_speedup_above_floor_is_noted() {
        let v = check(GOOD).unwrap();
        assert!(
            v.summary.contains("multi-seed sweep 1.60x"),
            "{}",
            v.summary
        );
        assert!(v.warnings.is_empty(), "{:?}", v.warnings);
    }

    #[test]
    fn sweep_speedup_below_floor_fails() {
        let bad = GOOD.replace(
            r#""value": 1.600000, "unit": "x"#,
            r#""value": 1.050000, "unit": "x"#,
        );
        let err = check(&bad).unwrap_err();
        assert!(err.contains("below the 1.2x floor"), "{err}");
    }

    #[test]
    fn sweep_speedup_on_single_core_is_an_error() {
        // The exact symptom that motivated the gate: a 0.78x "speedup"
        // from a 1-core container sat in a committed baseline as a
        // warning. A stale report like that must now fail outright.
        let bad = GOOD.replace(
            r#""value": 4.000000, "unit": "cores"#,
            r#""value": 1.000000, "unit": "cores"#,
        );
        let err = check(&bad).unwrap_err();
        assert!(err.contains("oversubscription"), "{err}");
        assert!(err.contains("re-baseline"), "{err}");
    }

    #[test]
    fn sweep_speedup_needs_cores_metric() {
        let bad = GOOD.replace(
            r#"    {"name": "sweep/multi_seed/cores", "value": 4.000000, "unit": "cores"},
"#,
            "",
        );
        let err = check(&bad).unwrap_err();
        assert!(err.contains("needs sweep/multi_seed/cores"), "{err}");
    }

    #[test]
    fn churn_rate_above_floor_passes() {
        let v = check(&with_metrics(
            r#"{"name": "engine/churn/flows_per_sec", "value": 125000.000000, "unit": "flows/sec"}"#,
        ))
        .unwrap();
        assert!(v.summary.contains("churn 125k flows/sec"), "{}", v.summary);
    }

    #[test]
    fn churn_rate_below_floor_fails() {
        let err = check(&with_metrics(
            r#"{"name": "engine/churn/flows_per_sec", "value": 40000.000000, "unit": "flows/sec"}"#,
        ))
        .unwrap_err();
        assert!(err.contains("below the 100000 floor"), "{err}");
        assert!(err.contains("recycling"), "{err}");
    }

    #[test]
    fn allocs_per_flow_under_ceiling_passes() {
        let v = check(&with_metrics(
            r#"{"name": "engine/churn/allocs_per_flow", "value": 1.100000, "unit": "allocs/flow"}"#,
        ))
        .unwrap();
        assert!(v.summary.contains("1.100 allocs/flow"), "{}", v.summary);
    }

    #[test]
    fn allocs_per_flow_over_ceiling_fails() {
        let err = check(&with_metrics(
            r#"{"name": "engine/churn/allocs_per_flow", "value": 5.000000, "unit": "allocs/flow"}"#,
        ))
        .unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
        assert!(err.contains("allocating per flow"), "{err}");
    }

    #[test]
    fn missing_churn_metrics_are_not_an_error() {
        let v = check(GOOD).unwrap();
        assert!(!v.summary.contains("churn"), "{}", v.summary);
    }

    #[test]
    fn single_thread_sweep_is_a_warning_not_an_error() {
        let v = check(&with_metrics(
            r#"{"name": "sweep/multi_seed/threads", "value": 1.000000, "unit": "threads"}"#,
        ))
        .unwrap();
        assert_eq!(v.warnings.len(), 1);
        assert!(v.warnings[0].contains("1 thread"), "{}", v.warnings[0]);
    }

    #[test]
    fn multi_thread_sweep_has_no_warning() {
        let v = check(&with_metrics(
            r#"{"name": "sweep/multi_seed/threads", "value": 8.000000, "unit": "threads"}"#,
        ))
        .unwrap();
        assert!(v.warnings.is_empty());
    }

    #[test]
    fn rejects_nan_fattree_rate() {
        let err = check(&with_fattree_bench("NaN")).unwrap_err();
        assert!(
            err.contains("engine/fattree/k4_allreduce_16kb NaN"),
            "{err}"
        );
    }

    #[test]
    fn rejects_nan_sweep_cores() {
        let bad = GOOD.replace("4.000000, \"unit\": \"cores", "NaN, \"unit\": \"cores");
        let err = check(&bad).unwrap_err();
        assert!(err.contains("sweep/multi_seed/cores"), "{err}");
    }

    #[test]
    fn rejects_nan_shard_cores() {
        // With NaN cores a 0.50x 4-shard speedup would pass unwarned.
        let err = check(&shard_trio("0.500000", "4.000000", "NaN")).unwrap_err();
        assert!(err.contains("engine/sharded/cores"), "{err}");
    }

    #[test]
    fn rejects_nan_cache_hits() {
        let err = check(&cache_trio("NaN", "4.000000", "3.000000")).unwrap_err();
        assert!(err.contains("cache/hits"), "{err}");
    }

    #[test]
    fn rejects_nan_cache_misses() {
        let err = check(&cache_trio("4.000000", "NaN", "3.000000")).unwrap_err();
        assert!(err.contains("cache/misses"), "{err}");
    }
}
