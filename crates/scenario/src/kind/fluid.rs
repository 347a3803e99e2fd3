//! `kind = fluid` ([`ScenarioKind::Fluid`]): the Section II-B DDE
//! fluid model, one trajectory per cell.

use dctcp_core::QueueLevel;
use dctcp_fluid::{FluidMarking, FluidParams, FluidRunConfig};
use dctcp_tcp::CongestionControl;

use super::long_lived::parse_dumbbell;
use super::*;

/// Upper bound on fluid-kind flow counts. The DDE integrator's cost is
/// independent of `N`, so fluid sweeps may extrapolate far beyond the
/// packet engine's [`MAX_FLOWS`](crate::MAX_FLOWS) — this cap only
/// guards against numerically absurd inputs.
pub const MAX_FLUID_FLOWS: u32 = 1_000_000;

/// The continuous-domain analogue of a marking scheme: a
/// packet-denominated DCTCP relay or DT-DCTCP hysteresis, the laws
/// [`FluidMarking`] models (and the stability kind's describing
/// functions analyse). Anything else has none.
pub(super) fn fluid_marking(scheme: &MarkingScheme) -> Option<FluidMarking> {
    match *scheme {
        MarkingScheme::Dctcp {
            k: QueueLevel::Packets(k),
        } => Some(FluidMarking::Relay { k: f64::from(k) }),
        MarkingScheme::DtDctcp {
            k1: QueueLevel::Packets(k1),
            k2: QueueLevel::Packets(k2),
        } => Some(FluidMarking::Hysteresis {
            k1: f64::from(k1),
            k2: f64::from(k2),
        }),
        _ => None,
    }
}

pub(super) const UNSUPPORTED_MARKING: &str =
    "fluid and stability scenarios support only dctcp / dt-dctcp markings \
     with packet-denominated thresholds";

/// The DCTCP EWMA gain `g` of the `[transport]` config: the continuous
/// models (fluid and stability) describe DCTCP dynamics only.
pub(super) fn dctcp_gain(spec: &ScenarioSpec) -> Result<f64, SimError> {
    match spec.tcp.cc {
        CongestionControl::Dctcp { g } | CongestionControl::D2tcp { g, .. } => Ok(g),
        _ => Err(SimError::InvalidConfig(
            "fluid and stability cells model DCTCP dynamics and need a dctcp [tcp] config".into(),
        )),
    }
}

pub(super) struct Fluid;

impl Kind for Fluid {
    fn name(&self) -> &'static str {
        "fluid"
    }

    /// The scalar reductions `dctcp_fluid::sweep::evaluate` produces, in
    /// its field order, so fluid artifacts compare cell-for-cell against
    /// packet anchors that share metric names.
    fn metrics(&self) -> &'static [&'static str] {
        &[
            "queue_mean",
            "queue_std",
            "queue_max",
            "osc_amplitude",
            "osc_freq_hz",
            "osc_cycles",
            "w_mean",
            "alpha_mean",
            "marking_duty",
            "utilization",
        ]
    }

    /// The integrator is deterministic: one cell per (marking, N).
    fn sweeps_seeds(&self) -> bool {
        false
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let d = parse_dumbbell(doc, self.name())?;
        no_workload(doc, self.name())?;
        let (s, mut run) = run_section(
            doc,
            &["flows", "warmup", "duration", "trace", "dt"],
            MAX_FLUID_FLOWS,
        )?;
        s.parse_into("dt", &mut run.dt, parse_positive_duration)?;
        // Default metric sampling: every integration step — the DDE
        // trajectory is cheap and amplitude metrics want the full
        // resolution.
        if s.get("trace").is_none() {
            run.trace_interval = run.dt;
        }
        // The step must resolve the feedback delay, and the sampling
        // stride must not undersample the step.
        if run.dt > d.rtt {
            return Err(ScenarioError::OutOfRange {
                line: s.get("dt").map_or(s.line, |e| e.line),
                key: "dt".into(),
                msg: format!(
                    "integrator step must not exceed the {} ns rtt, got {} ns",
                    d.rtt.as_nanos(),
                    run.dt.as_nanos()
                ),
            });
        }
        if run.trace_interval < run.dt {
            return Err(ScenarioError::OutOfRange {
                line: s.get("trace").map_or(s.line, |e| e.line),
                key: "trace".into(),
                msg: "trace stride must be at least the integrator step `dt`".into(),
            });
        }
        Ok(KindSections::new(TopologySpec::Dumbbell(d), run))
    }

    fn reject_marking(&self, scheme: &MarkingScheme) -> Option<&'static str> {
        fluid_marking(scheme)
            .is_none()
            .then_some(UNSUPPORTED_MARKING)
    }

    fn takes_xval(&self) -> bool {
        true
    }

    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder) {
        kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
            .field("duration_ns", &spec.run.duration.as_nanos().to_string())
            .field("dt_ns", &spec.run.dt.as_nanos().to_string())
            .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string());
    }

    /// Integrates the DDE at the cell's operating point, reduced to the
    /// kind's metric rows. Milliseconds of wall clock per cell, so
    /// cooperative cancellation is not threaded through — the cell
    /// finishes long before any watchdog deadline.
    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        _cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let d = spec.dumbbell().expect("fluid scenarios parse a dumbbell");
        // The parser already enforces both; re-checked for programmatic
        // callers.
        let marking = fluid_marking(&cell.scheme)
            .ok_or_else(|| SimError::InvalidConfig(UNSUPPORTED_MARKING.into()))?;
        let g = dctcp_gain(spec)?;
        let params = FluidParams {
            // Packet-denominated capacity at the paper's 1500 B MTU, the
            // same conversion `PlantParams::from_link` uses.
            capacity_pps: d.bottleneck_bps as f64 / (8.0 * 1500.0),
            flows: f64::from(cell.flows),
            rtt: d.rtt.as_secs_f64(),
            g,
            marking,
            w_init: 1.0,
            alpha_init: 0.0,
            q_init: 0.0,
        };
        let dt = spec.run.dt.as_secs_f64();
        let cfg = FluidRunConfig {
            dt,
            duration: (spec.run.warmup + spec.run.duration).as_secs_f64(),
            transient: spec.run.warmup.as_secs_f64(),
            sample_every: (spec.run.trace_interval.as_secs_f64() / dt)
                .round()
                .max(1.0) as usize,
        };
        let point = dctcp_fluid::sweep::evaluate(&params, &cfg)
            .map_err(|e| SimError::InvalidConfig(format!("fluid cell: {e}")))?;
        Ok(vec![
            ("queue_mean".into(), finite(point.queue_mean)),
            ("queue_std".into(), finite(point.queue_std)),
            ("queue_max".into(), finite(point.queue_max)),
            ("osc_amplitude".into(), finite(point.osc_amplitude)),
            ("osc_freq_hz".into(), finite(point.osc_freq_hz)),
            ("osc_cycles".into(), finite(point.osc_cycles)),
            ("w_mean".into(), finite(point.w_mean)),
            ("alpha_mean".into(), finite(point.alpha_mean)),
            ("marking_duty".into(), finite(point.marking_duty)),
            ("utilization".into(), finite(point.utilization)),
        ])
    }
}
