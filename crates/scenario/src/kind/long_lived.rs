//! `kind = long_lived`: N long-lived flows over one dumbbell bottleneck
//! (Figs. 1, 5–8, 10–12), optionally under scripted `[faults]`.

use dctcp_sim::{FaultAction, FaultPlan, SimTime};
use dctcp_stats::{oscillation, OscillationSummary};
use dctcp_workloads::LongLivedScenario;

use super::*;
use crate::parse::parse_window;

/// Dumbbell topology parameters for [`ScenarioKind::LongLived`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellSpec {
    /// Bottleneck rate, bits/second.
    pub bottleneck_bps: u64,
    /// Propagation round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck buffer.
    pub buffer: Capacity,
}

/// Scripted faults on the bottleneck link (long-lived kind only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// ECN-bleaching window (CE marks stripped), relative to sim start.
    pub bleach: Option<(SimDuration, SimDuration)>,
    /// Link-down window, relative to sim start.
    pub down: Option<(SimDuration, SimDuration)>,
}

impl FaultSpec {
    /// Whether any fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.bleach.is_none() && self.down.is_none()
    }
}

/// Parses the bare `[topology]` dumbbell. The fluid kind integrates the
/// same operating point the long-lived packet runs measure, and the fct
/// kind gives every rack bottleneck these parameters, so all three
/// share this surface (and its defaults) by construction.
pub(super) fn parse_dumbbell(doc: &Document, kind: &str) -> Result<DumbbellSpec, ScenarioError> {
    let mut spec = DumbbellSpec {
        bottleneck_bps: 10_000_000_000,
        rtt: SimDuration::from_micros(300),
        buffer: Capacity::Packets(1000),
    };
    if let Some(s) = topology_section(doc, kind, None)? {
        s.reject_unknown_keys(&["bottleneck", "rtt", "buffer"])?;
        s.parse_into("bottleneck", &mut spec.bottleneck_bps, parse_rate_bps)?;
        s.parse_into("rtt", &mut spec.rtt, parse_positive_duration)?;
        s.parse_into("buffer", &mut spec.buffer, parse_capacity)?;
    }
    Ok(spec)
}

pub(super) struct LongLived;

impl Kind for LongLived {
    fn name(&self) -> &'static str {
        "long_lived"
    }

    fn metrics(&self) -> &'static [&'static str] {
        &[
            "queue_mean",
            "queue_std",
            "queue_max",
            "osc_amplitude",
            "osc_max_amplitude",
            "osc_cycles",
            "mark_rate",
            "marks",
            "drops",
            "timeouts",
            "alpha_mean",
            "utilization",
            "goodput_gbps",
        ]
    }

    /// Long-lived runs are fully deterministic, so seed-free.
    fn sweeps_seeds(&self) -> bool {
        false
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let topology = TopologySpec::Dumbbell(parse_dumbbell(doc, self.name())?);
        no_workload(doc, self.name())?;
        let (s, mut run) = run_section(
            doc,
            &["flows", "warmup", "duration", "trace", "stagger"],
            MAX_FLOWS,
        )?;
        s.parse_into("stagger", &mut run.stagger, parse_duration)?;
        Ok(KindSections::new(topology, run))
    }

    fn parse_faults(&self, doc: &Document) -> Result<FaultSpec, ScenarioError> {
        let Some(s) = doc.section("faults") else {
            return Ok(FaultSpec::default());
        };
        s.reject_unknown_keys(&["bleach", "down"])?;
        let mut spec = FaultSpec::default();
        s.parse_into("bleach", &mut spec.bleach, |e| parse_window(e).map(Some))?;
        s.parse_into("down", &mut spec.down, |e| parse_window(e).map(Some))?;
        Ok(spec)
    }

    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder) {
        kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
            .field("duration_ns", &spec.run.duration.as_nanos().to_string())
            .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string())
            .field("stagger_ns", &spec.run.stagger.as_nanos().to_string())
            .field("faults", &format!("{:?}", spec.faults));
    }

    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let d = spec
            .dumbbell()
            .expect("long-lived scenarios parse a dumbbell");
        let scenario = LongLivedScenario::builder()
            .flows(cell.flows)
            .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
            .rtt_us(d.rtt.as_secs_f64() * 1e6)
            .marking(cell.scheme)
            .tcp(spec.tcp)
            .buffer(d.buffer)
            .warmup_secs(spec.run.warmup.as_secs_f64())
            .duration_secs(spec.run.duration.as_secs_f64())
            .trace_interval(spec.run.trace_interval)
            .start_stagger(spec.run.stagger)
            .build()?;
        let faults = spec.faults;
        let report = scenario.run_supervised(cancel, |i| {
            let mut plan = FaultPlan::new();
            if let Some((from, until)) = faults.bleach {
                plan =
                    plan.bleach_window(i.bottleneck, SimTime::ZERO + from, SimTime::ZERO + until);
            }
            if let Some((from, until)) = faults.down {
                plan = plan
                    .at(SimTime::ZERO + from, i.bottleneck, FaultAction::LinkDown)
                    .at(SimTime::ZERO + until, i.bottleneck, FaultAction::LinkUp);
            }
            plan
        })?;

        let osc = match &report.trace {
            Some(trace) => oscillation(trace),
            None => OscillationSummary::none(),
        };
        let duration_s = spec.run.duration.as_secs_f64();
        Ok(vec![
            ("queue_mean".into(), report.queue.mean),
            ("queue_std".into(), report.queue.std),
            ("queue_max".into(), report.queue.max),
            ("osc_amplitude".into(), osc.mean_amplitude),
            ("osc_max_amplitude".into(), osc.max_amplitude),
            ("osc_cycles".into(), osc.cycles as f64),
            ("mark_rate".into(), report.marks as f64 / duration_s),
            ("marks".into(), report.marks as f64),
            ("drops".into(), report.drops as f64),
            ("timeouts".into(), report.timeouts as f64),
            ("alpha_mean".into(), finite(report.alpha.mean())),
            ("utilization".into(), report.utilization(d.bottleneck_bps)),
            ("goodput_gbps".into(), report.goodput_bps / 1e9),
        ])
    }
}
