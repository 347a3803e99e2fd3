//! `kind = fct` ([`ScenarioKind::Fct`]): open-loop flow churn. Every
//! rack bottleneck takes the `[topology]` dumbbell parameters.

use dctcp_sim::FaultPlan;
use dctcp_workloads::FctScenario;

use super::long_lived::parse_dumbbell;
use super::*;

/// The open-loop churn workload shape (`[workload fct]`).
#[derive(Debug, Clone, PartialEq)]
pub struct FctWorkloadSpec {
    /// Offered load as a fraction of each rack bottleneck, in (0, 1).
    pub load: f64,
    /// Named flow-size distribution
    /// (see [`dctcp_workloads::sizes::by_name`]).
    pub size_dist: String,
    /// Racks; the `flows` sweep is split evenly over them.
    pub racks: u32,
    /// Per-source concurrent-flow slab size.
    pub slots: u32,
    /// Upper byte bound of the short size class.
    pub short_bytes: u64,
    /// Upper byte bound of the mid size class.
    pub long_bytes: u64,
    /// Mean deadline slack multiplier (enables per-flow deadlines and
    /// the D²TCP urgency law when `[transport] cc = d2tcp`).
    pub deadline_slack: Option<f64>,
    /// Drain period after arrivals stop, letting in-flight flows finish
    /// so their completion times are recorded.
    pub drain: SimDuration,
}

pub(super) struct Fct;

impl Fct {
    fn parse_workload(&self, doc: &Document) -> Result<FctWorkloadSpec, ScenarioError> {
        let s = workload_section(doc, self.name(), "fct")?;
        s.reject_unknown_keys(&[
            "load",
            "size_dist",
            "racks",
            "slots",
            "short_bytes",
            "long_bytes",
            "deadline_slack",
            "drain",
        ])?;
        let load_entry = s.require("load")?;
        let load = parse_f64(load_entry)?;
        if !(load > 0.0 && load < 1.0) {
            return Err(
                load_entry.out_of_range(format!("offered load must be in (0, 1), got {load}"))
            );
        }
        let mut spec = FctWorkloadSpec {
            load,
            size_dist: "web_search".into(),
            racks: 2,
            slots: 4096,
            short_bytes: 10_000,
            long_bytes: 100_000,
            deadline_slack: None,
            drain: SimDuration::from_millis(100),
        };
        if let Some(e) = s.get("size_dist") {
            if dctcp_workloads::sizes::by_name(&e.value).is_none() {
                return Err(e.bad_value(format!(
                    "unknown size distribution `{}` (web_search/data_mining)",
                    e.value
                )));
            }
            spec.size_dist = e.value.clone();
        }
        s.parse_into("racks", &mut spec.racks, parse_positive_u32)?;
        s.parse_into("slots", &mut spec.slots, parse_positive_u32)?;
        s.parse_into("short_bytes", &mut spec.short_bytes, parse_bytes)?;
        s.parse_into("long_bytes", &mut spec.long_bytes, parse_bytes)?;
        if spec.short_bytes == 0 || spec.short_bytes >= spec.long_bytes {
            return Err(ScenarioError::OutOfRange {
                line: s.line,
                key: "short_bytes".into(),
                msg: format!(
                    "size classes need 0 < short_bytes < long_bytes, got {} / {}",
                    spec.short_bytes, spec.long_bytes
                ),
            });
        }
        if let Some(e) = s.get("deadline_slack") {
            let slack = parse_f64(e)?;
            if !(slack.is_finite() && slack > 0.0) {
                return Err(e.out_of_range("deadline slack must be a positive number"));
            }
            spec.deadline_slack = Some(slack);
        }
        s.parse_into("drain", &mut spec.drain, parse_duration)?;
        Ok(spec)
    }
}

impl Kind for Fct {
    fn name(&self) -> &'static str {
        "fct"
    }

    /// FCT quantiles per size class (short/mid/long by the workload's
    /// class bounds, milliseconds) from the merged sketches, plus the
    /// open-loop conservation counters the million-flow envelopes pin.
    fn metrics(&self) -> &'static [&'static str] {
        &[
            "fct_short_p50_ms",
            "fct_short_p99_ms",
            "fct_short_p999_ms",
            "fct_mid_p50_ms",
            "fct_mid_p99_ms",
            "fct_mid_p999_ms",
            "fct_long_p50_ms",
            "fct_long_p99_ms",
            "fct_long_p999_ms",
            "goodput_gbps",
            "deadline_miss_rate",
            "flows_started",
            "flows_completed",
        ]
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let d = parse_dumbbell(doc, self.name())?;
        let (s, mut run) = run_section(doc, &["flows", "warmup", "duration", "seeds"], MAX_FLOWS)?;
        // Churn reaches a statistical steady state within a few mean
        // FCTs; the default warmup is shorter than the long-lived
        // transient window.
        if s.get("warmup").is_none() {
            run.warmup = SimDuration::from_millis(10);
        }
        let workload = self.parse_workload(doc)?;
        // Every source count must split evenly into the racks.
        if let Some(&n) = run
            .flows
            .iter()
            .find(|&&n| n % workload.racks != 0 || n < workload.racks)
        {
            return Err(s.require("flows")?.out_of_range(format!(
                "fct source counts must be positive multiples of \
                     racks = {}, got {n}",
                workload.racks
            )));
        }
        Ok(KindSections {
            fct: Some(workload),
            ..KindSections::new(TopologySpec::Dumbbell(d), run)
        })
    }

    /// An fct cell simulates warmup + measured window + drain.
    fn simulated_ns(&self, spec: &ScenarioSpec) -> u64 {
        spec.run.warmup.as_nanos()
            + spec.run.duration.as_nanos()
            + spec.fct.as_ref().map_or(0, |w| w.drain.as_nanos())
    }

    /// The churn workload (load, size CDF, racks, slab, class bounds,
    /// deadlines, drain) joins the windows as key material via its
    /// exhaustive Debug rendering.
    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder) {
        kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
            .field("duration_ns", &spec.run.duration.as_nanos().to_string())
            .field("workload", &format!("{:?}", spec.fct));
    }

    /// Runs `cell.flows` churn sources split evenly over the racks, each
    /// rack bottlenecked into its sink by the marking under test.
    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let d = spec.dumbbell().expect("fct scenarios parse a dumbbell");
        let w = spec.fct.as_ref().ok_or_else(|| {
            SimError::InvalidConfig("fct scenario lacks a [workload fct] section".into())
        })?;
        // The parser enforces both; re-checked for programmatic callers.
        if w.racks == 0 || cell.flows % w.racks != 0 || cell.flows < w.racks {
            return Err(SimError::InvalidConfig(format!(
                "fct source count {} is not a positive multiple of racks = {}",
                cell.flows, w.racks
            )));
        }
        let sizes = dctcp_workloads::sizes::by_name(&w.size_dist).ok_or_else(|| {
            SimError::InvalidConfig(format!("unknown size distribution `{}`", w.size_dist))
        })?;
        let mut builder = FctScenario::builder()
            .racks(w.racks)
            .sources_per_rack(cell.flows / w.racks)
            .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
            .rtt_us(d.rtt.as_secs_f64() * 1e6)
            .load(w.load)
            .marking(cell.scheme)
            .tcp(spec.tcp)
            .buffer(d.buffer)
            .sizes(sizes)
            .class_bounds([w.short_bytes, w.long_bytes])
            .slots(w.slots)
            .seed(cell.seed)
            .warmup_secs(spec.run.warmup.as_secs_f64())
            .duration_secs(spec.run.duration.as_secs_f64())
            .drain_secs(w.drain.as_secs_f64());
        if let Some(slack) = w.deadline_slack {
            builder = builder.deadline_slack(slack);
        }
        let report = builder
            .build()?
            .run_supervised(cancel, |_| FaultPlan::new())?;

        // An empty size class renders its quantiles as 0 rather than
        // omitting the row — artifacts always carry the kind's full metric
        // set, and an envelope pinning an empty class fails loudly on the
        // zero instead of silently matching nothing.
        let fct = |class: usize, q: f64| finite(report.fct_ms(class, q).unwrap_or(0.0));
        Ok(vec![
            ("fct_short_p50_ms".into(), fct(0, 0.50)),
            ("fct_short_p99_ms".into(), fct(0, 0.99)),
            ("fct_short_p999_ms".into(), fct(0, 0.999)),
            ("fct_mid_p50_ms".into(), fct(1, 0.50)),
            ("fct_mid_p99_ms".into(), fct(1, 0.99)),
            ("fct_mid_p999_ms".into(), fct(1, 0.999)),
            ("fct_long_p50_ms".into(), fct(2, 0.50)),
            ("fct_long_p99_ms".into(), fct(2, 0.99)),
            ("fct_long_p999_ms".into(), fct(2, 0.999)),
            ("goodput_gbps".into(), finite(report.goodput_bps / 1e9)),
            (
                "deadline_miss_rate".into(),
                finite(report.deadline_miss_rate()),
            ),
            ("flows_started".into(), report.started as f64),
            ("flows_completed".into(), report.completed as f64),
        ])
    }
}
