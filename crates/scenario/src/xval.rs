//! Cross-validation envelopes: fluid-model artifacts pinned against
//! packet-engine anchors.
//!
//! A fluid scenario may carry `[xval "label"]` sections, each tying one
//! of its metrics to the same metric in a *packet* scenario's artifact
//! at overlapping flow counts:
//!
//! ```text
//! [xval "amplitude-vs-fig05"]
//! packet = fig05_oscillation   # anchor artifact (<name>.json)
//! marking = dctcp              # fluid marking label
//! packet_marking = dctcp       # anchor marking label (default: marking)
//! metric = osc_amplitude       # fluid metric
//! packet_metric = osc_amplitude # anchor metric (default: metric)
//! flows = 2, 8, 16, 32         # overlap (must be in this sweep)
//! max_rel_err = 0.5            # |fluid − packet| / |packet| bound
//! ```
//!
//! The `repro_check` binary loads both artifacts and gates on the
//! relative-error band, right after the fluid scenario's envelopes.
//! This is what licenses extrapolation: a fluid model that tracks the
//! packet engine where both can run is trusted where only it can (the
//! `N = 10⁴ … 10⁶` scale-out sweeps).

use crate::artifact::Artifact;
use crate::parse::{parse_f64, parse_list_u32, Document};
use crate::spec::{marking_label, RunSpec};
use crate::ScenarioError;
use crate::ScenarioKind;

/// One `[xval "label"]` section: a relative-error band between a fluid
/// metric and a packet anchor's metric at shared flow counts.
#[derive(Debug, Clone, PartialEq)]
pub struct XvalSpec {
    /// The section label.
    pub label: String,
    /// Anchor scenario name (the artifact file stem).
    pub packet_scenario: String,
    /// Metric in the fluid artifact.
    pub metric: String,
    /// Metric in the anchor artifact (defaults to `metric`).
    pub packet_metric: String,
    /// Marking label in the fluid artifact.
    pub marking: String,
    /// Marking label in the anchor artifact (defaults to `marking`).
    pub packet_marking: String,
    /// Flow counts compared (each must be in the fluid sweep).
    pub flows: Vec<u32>,
    /// Maximum allowed `|fluid − packet| / |packet|`.
    pub max_rel_err: f64,
}

/// One flow count outside its cross-validation band.
#[derive(Debug, Clone, PartialEq)]
pub struct XvalViolation {
    /// The violated `[xval]` label.
    pub label: String,
    /// The flow count compared.
    pub flows: u32,
    /// Fluid-model value.
    pub fluid: f64,
    /// Packet-anchor value.
    pub packet: f64,
    /// Observed relative error.
    pub rel_err: f64,
    /// The committed bound.
    pub max_rel_err: f64,
}

impl std::fmt::Display for XvalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "xval \"{}\": N={}: fluid {:.4} vs packet {:.4} \
             (rel err {:.3} > {:.3})",
            self.label, self.flows, self.fluid, self.packet, self.rel_err, self.max_rel_err
        )
    }
}

/// The result of checking one `[xval]` section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XvalReport {
    /// Flow counts compared and inside the band.
    pub compared: usize,
    /// Skip messages (quarantined anchor cells — incomplete, not
    /// wrong).
    pub skipped: Vec<String>,
    /// Out-of-band comparisons.
    pub violations: Vec<XvalViolation>,
}

/// Parses every `[xval "label"]` section, validating the fluid metric
/// name, the marking label, the flow overlap and the error band. Any
/// `[xval]` section outside a fluid scenario is an error.
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the offending line.
pub fn parse_xvals(
    doc: &Document,
    kind: ScenarioKind,
    run: &RunSpec,
    markings: &[(String, dctcp_core::MarkingScheme)],
) -> Result<Vec<XvalSpec>, ScenarioError> {
    let mut out: Vec<XvalSpec> = Vec::new();
    for s in doc.sections_named("xval") {
        if !kind.imp().takes_xval() {
            return Err(ScenarioError::Syntax {
                line: s.line,
                msg: format!(
                    "[xval] sections are only valid for fluid scenarios, not {}",
                    kind.name()
                ),
            });
        }
        let label = s.label.clone().ok_or_else(|| ScenarioError::Syntax {
            line: s.line,
            msg: "xval sections need a label: [xval \"amplitude-vs-fig05\"]".into(),
        })?;
        s.reject_unknown_keys(&[
            "packet",
            "metric",
            "packet_metric",
            "marking",
            "packet_marking",
            "flows",
            "max_rel_err",
        ])?;

        let packet_entry = s.require("packet")?;
        let packet_scenario = packet_entry.value.clone();
        if packet_scenario.is_empty()
            || packet_scenario.contains(|c: char| c.is_whitespace() || c == '/')
        {
            return Err(
                packet_entry.bad_value("packet must be a scenario name without spaces or `/`")
            );
        }

        let metric_entry = s.require("metric")?;
        let metric = metric_entry.value.clone();
        if !kind.metrics().contains(&metric.as_str()) {
            return Err(metric_entry.bad_value(format!(
                "unknown fluid metric `{metric}` (one of: {})",
                kind.metrics().join(", ")
            )));
        }
        // The anchor's metric name belongs to another scenario's kind;
        // `check_xval` validates it against the loaded artifact.
        let packet_metric = s
            .get("packet_metric")
            .map_or_else(|| metric.clone(), |e| e.value.clone());

        let marking = marking_label(markings, s.require("marking")?)?;
        let packet_marking = s
            .get("packet_marking")
            .map_or_else(|| marking.clone(), |e| e.value.clone());

        let flows_entry = s.require("flows")?;
        let flows = parse_list_u32(flows_entry)?;
        for &n in &flows {
            if !run.flows.contains(&n) {
                return Err(flows_entry
                    .bad_value(format!("flow count {n} is not in this scenario's sweep")));
            }
        }

        let err_entry = s.require("max_rel_err")?;
        let max_rel_err = parse_f64(err_entry)?;
        if !(max_rel_err.is_finite() && max_rel_err > 0.0) {
            return Err(err_entry.out_of_range("max_rel_err must be a positive number"));
        }

        out.push(XvalSpec {
            label,
            packet_scenario,
            metric,
            packet_metric,
            marking,
            packet_marking,
            flows,
            max_rel_err,
        });
    }
    Ok(out)
}

/// Evaluates one `[xval]` band: for each flow count, compares the
/// seed-averaged fluid metric against the seed-averaged anchor metric.
/// Anchor cells under quarantine are *skipped* (reported, not passed);
/// a missing point or metric in either artifact is an error — a stale
/// artifact must never read as a pass.
///
/// # Errors
///
/// Returns a message naming the missing point or metric.
pub fn check_xval(x: &XvalSpec, fluid: &Artifact, packet: &Artifact) -> Result<XvalReport, String> {
    let mut report = XvalReport::default();
    let quarantined = packet.quarantined_markings();
    for &n in &x.flows {
        if quarantined.contains(&x.packet_marking.as_str()) {
            report.skipped.push(format!(
                "xval \"{}\": N={n}: anchor marking `{}` is quarantined in `{}`",
                x.label, x.packet_marking, packet.scenario
            ));
            continue;
        }
        let Some(f) = fluid.metric(&x.marking, n, &x.metric) else {
            return Err(format!(
                "fluid artifact `{}` lacks {} for ({}, N={n}) — stale artifact? re-run repro",
                fluid.scenario, x.metric, x.marking
            ));
        };
        let Some(p) = packet.metric(&x.packet_marking, n, &x.packet_metric) else {
            return Err(format!(
                "anchor artifact `{}` lacks {} for ({}, N={n}) — stale artifact? re-run repro",
                packet.scenario, x.packet_metric, x.packet_marking
            ));
        };
        let rel_err = if p == 0.0 {
            if f == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (f - p).abs() / p.abs()
        };
        if rel_err > x.max_rel_err {
            report.violations.push(XvalViolation {
                label: x.label.clone(),
                flows: n,
                fluid: f,
                packet: p,
                rel_err,
                max_rel_err: x.max_rel_err,
            });
        } else {
            report.compared += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FailureCell, Point};

    fn xval() -> XvalSpec {
        XvalSpec {
            label: "amp".into(),
            packet_scenario: "anchor".into(),
            metric: "osc_amplitude".into(),
            packet_metric: "osc_amplitude".into(),
            marking: "dctcp".into(),
            packet_marking: "dctcp".into(),
            flows: vec![2, 8],
            max_rel_err: 0.5,
        }
    }

    fn artifact(name: &str, kind: ScenarioKind, values: &[(u32, f64)]) -> Artifact {
        Artifact {
            scenario: name.into(),
            kind,
            points: values
                .iter()
                .map(|&(flows, v)| Point {
                    marking: "dctcp".into(),
                    flows,
                    seed: 1,
                    metrics: vec![("osc_amplitude".into(), v)],
                })
                .collect(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn in_band_comparisons_pass_and_count() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let r = check_xval(&xval(), &fluid, &packet).unwrap();
        assert_eq!(r.compared, 2);
        assert!(r.violations.is_empty());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn out_of_band_comparisons_are_violations() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 30.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let r = check_xval(&xval(), &fluid, &packet).unwrap();
        assert_eq!(r.compared, 1);
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.flows, 2);
        assert!((v.rel_err - 2.0).abs() < 1e-12);
        assert!(v.to_string().contains("N=2"), "{v}");
    }

    #[test]
    fn missing_points_are_stale_errors_not_passes() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let err = check_xval(&xval(), &fluid, &packet).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0)]);
        assert!(check_xval(&xval(), &fluid, &packet).is_err());
    }

    #[test]
    fn quarantined_anchor_markings_skip_not_pass() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let mut packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0)]);
        packet.failures.push(FailureCell {
            marking: "dctcp".into(),
            flows: 8,
            seed: 1,
            attempts: 2,
            kind: "panicked".into(),
            msg: "boom".into(),
        });
        let r = check_xval(&xval(), &fluid, &packet).unwrap();
        assert_eq!(r.compared, 0);
        assert_eq!(r.skipped.len(), 2);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn zero_packet_value_only_matches_zero_fluid_value() {
        let mut x = xval();
        x.flows = vec![2];
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 0.0)]);
        let exact = artifact("f", ScenarioKind::Fluid, &[(2, 0.0)]);
        assert!(check_xval(&x, &exact, &packet)
            .unwrap()
            .violations
            .is_empty());
        let off = artifact("f", ScenarioKind::Fluid, &[(2, 0.5)]);
        let r = check_xval(&x, &off, &packet).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].rel_err.is_infinite());
    }
}
