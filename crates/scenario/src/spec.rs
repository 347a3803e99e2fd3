//! The typed scenario model: what a `.scn` file means.

use dctcp_core::MarkingScheme;
use dctcp_sim::SimDuration;
use dctcp_tcp::TcpConfig;

use crate::kind::{
    CollectiveWorkloadSpec, DumbbellSpec, FatTreeSpec, FaultSpec, FctWorkloadSpec, Kind,
    KindSections, ScenarioKind, TestbedSpec,
};
use crate::parse::{
    parse_duration, parse_f64, parse_level, parse_positive_duration, parse_rate_bps, parse_u32,
    Document, RawEntry, RawSection,
};
use crate::{Expectation, ScenarioError};

/// Upper bound on any flow count in a scenario, keeping a typo like
/// `flows = 1000000` from turning the CI gate into an oven.
pub const MAX_FLOWS: u32 = 512;

/// Topology, by kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Long-lived dumbbell.
    Dumbbell(DumbbellSpec),
    /// Fig. 13 testbed.
    Testbed(TestbedSpec),
    /// k-ary fat-tree (collective kind).
    FatTree(FatTreeSpec),
}

/// Which chaos fault an `inject_*` key plants in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectFault {
    /// The cell panics on every attempt (`inject_panic`).
    Panic,
    /// The cell hangs, burning wall-clock until its deadline cancels it
    /// (`inject_stall`).
    Stall,
    /// The cell panics on its first attempt only, then succeeds
    /// (`inject_flaky`) — the retry-determinism probe.
    Flaky,
}

impl InjectFault {
    /// Stable token used in cache-key material and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            InjectFault::Panic => "panic",
            InjectFault::Stall => "stall",
            InjectFault::Flaky => "flaky",
        }
    }
}

/// One chaos injection: which fault, planted in which matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectSpec {
    /// The planted fault.
    pub fault: InjectFault,
    /// Target marking label.
    pub marking: String,
    /// Target flow count.
    pub flows: u32,
    /// Target seed.
    pub seed: u64,
}

/// Default bounded-retry budget: one retry after the first failure.
pub const DEFAULT_RETRIES: u32 = 1;

/// Supervision limits for cell execution (`[limits]` section).
#[derive(Debug, Clone, PartialEq)]
pub struct LimitsSpec {
    /// Per-cell wall-clock deadline. `None` derives a default from the
    /// simulated duration (see [`ScenarioSpec::cell_deadline`]).
    pub deadline: Option<SimDuration>,
    /// Retries after a failed first attempt (0 = fail immediately).
    pub retries: u32,
    /// Wall-clock pause before each retry (scaled by the attempt
    /// number).
    pub backoff: SimDuration,
    /// Chaos injections, in file order.
    pub inject: Vec<InjectSpec>,
}

impl Default for LimitsSpec {
    fn default() -> LimitsSpec {
        LimitsSpec {
            deadline: None,
            retries: DEFAULT_RETRIES,
            backoff: SimDuration::ZERO,
            inject: Vec::new(),
        }
    }
}

impl LimitsSpec {
    /// The fault injected into cell `(marking, flows, seed)`, if any.
    /// First matching injection wins.
    pub fn injection_for(&self, marking: &str, flows: u32, seed: u64) -> Option<InjectFault> {
        self.inject
            .iter()
            .find(|i| i.marking == marking && i.flows == flows && i.seed == seed)
            .map(|i| i.fault)
    }
}

/// Run-control parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Flow counts to sweep.
    pub flows: Vec<u32>,
    /// Warm-up excluded from statistics (long-lived).
    pub warmup: SimDuration,
    /// Measurement window (long-lived).
    pub duration: SimDuration,
    /// Queue-trace sample spacing for oscillation metrics (long-lived;
    /// for fluid runs this is the metric sampling stride, default =
    /// `dt`).
    pub trace_interval: SimDuration,
    /// DDE integrator step (fluid kind only; must not exceed the
    /// topology RTT).
    pub dt: SimDuration,
    /// Per-flow start stagger (long-lived).
    pub stagger: SimDuration,
    /// Rounds per point (query kinds).
    pub rounds: u32,
    /// Bytes each responder sends (Incast), or total bytes split over
    /// responders (partition-aggregate).
    pub bytes: u64,
    /// Workload RNG seeds (kinds that sweep seeds); each seed is one
    /// matrix point.
    pub seeds: Vec<u64>,
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (artifact file stem).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Workload family.
    pub kind: ScenarioKind,
    /// Topology parameters.
    pub topology: TopologySpec,
    /// Transport configuration shared by every host.
    pub tcp: TcpConfig,
    /// Run control.
    pub run: RunSpec,
    /// Collective workload shape (`Some` exactly for
    /// [`ScenarioKind::Collective`]).
    pub workload: Option<CollectiveWorkloadSpec>,
    /// Churn workload shape (`Some` exactly for [`ScenarioKind::Fct`]).
    pub fct: Option<FctWorkloadSpec>,
    /// Labeled marking schemes under test, in file order.
    pub markings: Vec<(String, MarkingScheme)>,
    /// Scripted faults.
    pub faults: FaultSpec,
    /// Supervision limits and chaos injections.
    pub limits: LimitsSpec,
    /// Regression-envelope expectations, in file order.
    pub expectations: Vec<Expectation>,
    /// Cross-validation envelopes against packet anchors (fluid kind
    /// only), in file order.
    pub xvals: Vec<crate::xval::XvalSpec>,
}

impl ScenarioSpec {
    /// Parses and validates a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] pinpointing the first problem.
    pub fn parse(src: &str) -> Result<ScenarioSpec, ScenarioError> {
        let doc = Document::parse(src)?;
        for s in &doc.sections {
            const KNOWN: &[&str] = &[
                "scenario",
                "topology",
                "transport",
                "run",
                "workload",
                "marking",
                "faults",
                "limits",
                "expect",
                "xval",
            ];
            if !KNOWN.contains(&s.name.as_str()) {
                return Err(ScenarioError::UnknownSection {
                    line: s.line,
                    section: s.display_name(),
                });
            }
        }

        let meta = doc
            .section("scenario")
            .ok_or(ScenarioError::MissingSection {
                section: "scenario".into(),
            })?;
        meta.reject_unknown_keys(&["name", "kind", "description"])?;
        let name_entry = meta.require("name")?;
        let name = name_entry.value.clone();
        if name.is_empty() || name.contains(|c: char| c.is_whitespace() || c == '/') {
            return Err(
                name_entry.bad_value("name must be a non-empty token without spaces or `/`")
            );
        }
        let kind_entry = meta.require("kind")?;
        let kind = ScenarioKind::from_name(&kind_entry.value).ok_or_else(|| {
            kind_entry.bad_value(format!(
                "unknown kind `{}` ({})",
                kind_entry.value,
                ScenarioKind::spellings()
            ))
        })?;
        let description = meta.value("description").unwrap_or_default().to_string();

        let KindSections {
            topology,
            run,
            workload,
            fct,
        } = kind.imp().parse(&doc)?;
        let tcp = parse_transport(&doc)?;
        let markings = parse_markings(&doc, kind.imp())?;
        let faults = kind.imp().parse_faults(&doc)?;
        let limits = parse_limits(&doc, &run, &markings)?;
        let expectations = crate::envelope::parse_expectations(&doc, kind, &markings)?;
        let xvals = crate::xval::parse_xvals(&doc, kind, &run, &markings)?;

        Ok(ScenarioSpec {
            name,
            description,
            kind,
            topology,
            tcp,
            run,
            workload,
            fct,
            markings,
            faults,
            limits,
            expectations,
            xvals,
        })
    }

    /// Loads and parses a scenario file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] or any parse/validation error.
    pub fn load(path: &std::path::Path) -> Result<ScenarioSpec, ScenarioError> {
        let src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        ScenarioSpec::parse(&src)
    }

    /// The dumbbell topology (long-lived kind).
    pub fn dumbbell(&self) -> Option<&DumbbellSpec> {
        match &self.topology {
            TopologySpec::Dumbbell(d) => Some(d),
            _ => None,
        }
    }

    /// The testbed topology (query kinds).
    pub fn testbed(&self) -> Option<&TestbedSpec> {
        match &self.topology {
            TopologySpec::Testbed(t) => Some(t),
            _ => None,
        }
    }

    /// The fat-tree topology (collective kind).
    pub fn fat_tree(&self) -> Option<&FatTreeSpec> {
        match &self.topology {
            TopologySpec::FatTree(f) => Some(f),
            _ => None,
        }
    }

    /// Number of matrix points this scenario expands to.
    pub fn num_points(&self) -> usize {
        self.markings.len() * self.run.flows.len() * self.run.seeds.len()
    }

    /// The per-cell wall-clock deadline: the explicit `[limits]
    /// deadline` if given, otherwise a budget derived from the
    /// simulated duration (1000x real time per simulated second,
    /// clamped to [30 s, 300 s]) so even a pathological cell cannot
    /// wedge a matrix forever.
    pub fn cell_deadline(&self) -> SimDuration {
        if let Some(d) = self.limits.deadline {
            return d;
        }
        let simulated_ns = self.kind.imp().simulated_ns(self);
        let budget_ns = simulated_ns
            .saturating_mul(1000)
            .clamp(30_000_000_000, 300_000_000_000);
        SimDuration::from_nanos(budget_ns)
    }
}

fn parse_transport(doc: &Document) -> Result<TcpConfig, ScenarioError> {
    let Some(s) = doc.section("transport") else {
        return Ok(TcpConfig::dctcp(1.0 / 16.0));
    };
    s.reject_unknown_keys(&[
        "g",
        "cc",
        "rto_min",
        "ecn_fallback_after",
        "delayed_ack",
        "delack_timeout",
    ])?;
    let mut d2tcp = false;
    if let Some(e) = s.get("cc") {
        match e.value.as_str() {
            "dctcp" => {}
            "d2tcp" => d2tcp = true,
            other => {
                return Err(e.bad_value(format!(
                    "unknown congestion control `{other}` (dctcp/d2tcp)"
                )))
            }
        }
    }
    let mut g = 1.0 / 16.0;
    if let Some(e) = s.get("g") {
        g = parse_f64(e)?;
        if !(g > 0.0 && g <= 1.0) {
            return Err(e.out_of_range(format!("EWMA gain must be in (0, 1], got {g}")));
        }
    }
    // The baseline D²TCP urgency is the plain-DCTCP d = 1; churn
    // sources re-derive d per flow from each deadline's slack.
    let mut cfg = if d2tcp {
        TcpConfig::d2tcp(g, 1.0)
    } else {
        TcpConfig::dctcp(g)
    };
    s.parse_into("rto_min", &mut cfg.rto_min, parse_positive_duration)?;
    s.parse_into("ecn_fallback_after", &mut cfg.ecn_fallback_after, |e| {
        parse_u32(e).map(Some)
    })?;
    s.parse_into("delayed_ack", &mut cfg.delayed_ack, parse_u32)?;
    s.parse_into(
        "delack_timeout",
        &mut cfg.delack_timeout,
        parse_positive_duration,
    )?;
    cfg.validate().map_err(|e| ScenarioError::OutOfRange {
        line: s.line,
        key: "transport".into(),
        msg: e.to_string(),
    })?;
    Ok(cfg)
}

fn parse_markings(
    doc: &Document,
    kind: &dyn Kind,
) -> Result<Vec<(String, MarkingScheme)>, ScenarioError> {
    let mut out: Vec<(String, MarkingScheme)> = Vec::new();
    for s in doc.sections_named("marking") {
        let label = s.label.clone().ok_or_else(|| ScenarioError::Syntax {
            line: s.line,
            msg: "marking sections need a label: [marking \"dctcp\"]".into(),
        })?;
        let scheme = parse_one_marking(s)?;
        if let Some(msg) = kind.reject_marking(&scheme) {
            return Err(ScenarioError::BadValue {
                line: s.line,
                key: format!("marking \"{label}\""),
                msg: msg.into(),
            });
        }
        out.push((label, scheme));
    }
    if out.is_empty() {
        return Err(ScenarioError::MissingSection {
            section: "marking \"…\"".into(),
        });
    }
    Ok(out)
}

fn parse_one_marking(s: &RawSection) -> Result<MarkingScheme, ScenarioError> {
    let scheme_entry = s.require("scheme")?;
    let scheme = match scheme_entry.value.as_str() {
        "droptail" => {
            s.reject_unknown_keys(&["scheme"])?;
            MarkingScheme::DropTail
        }
        "dctcp" => {
            s.reject_unknown_keys(&["scheme", "k"])?;
            MarkingScheme::Dctcp {
                k: parse_level(s.require("k")?)?,
            }
        }
        "dt-dctcp" => {
            s.reject_unknown_keys(&["scheme", "k1", "k2"])?;
            MarkingScheme::DtDctcp {
                k1: parse_level(s.require("k1")?)?,
                k2: parse_level(s.require("k2")?)?,
            }
        }
        "schmitt" => {
            s.reject_unknown_keys(&["scheme", "lo", "hi"])?;
            MarkingScheme::Schmitt {
                lo: parse_level(s.require("lo")?)?,
                hi: parse_level(s.require("hi")?)?,
            }
        }
        "red" => {
            s.reject_unknown_keys(&["scheme", "min", "max", "max_p", "ecn"])?;
            let max_p = s.get("max_p").map(parse_f64).transpose()?.unwrap_or(0.1);
            MarkingScheme::Red {
                min_th: parse_level(s.require("min")?)?,
                max_th: parse_level(s.require("max")?)?,
                max_p,
                ecn: true,
            }
        }
        "codel" => {
            s.reject_unknown_keys(&["scheme"])?;
            MarkingScheme::codel_datacenter()
        }
        "pie" => {
            s.reject_unknown_keys(&["scheme", "line"])?;
            let line = s.get("line").map(parse_rate_bps).transpose()?;
            MarkingScheme::pie_datacenter(line.map_or(10.0, |bps| bps as f64 / 1e9))
        }
        other => {
            return Err(scheme_entry.bad_value(format!(
                "unknown scheme `{other}` \
                     (droptail/dctcp/dt-dctcp/schmitt/red/codel/pie)"
            )))
        }
    };
    // Parameter sanity (K1 <= K2, RED ordering, …) surfaces here as a
    // typed out-of-range error at the section header's line.
    scheme.build().map_err(|e| ScenarioError::OutOfRange {
        line: s.line,
        key: format!("marking \"{}\"", s.label.as_deref().unwrap_or("")),
        msg: e.to_string(),
    })?;
    Ok(scheme)
}

/// The marking label an entry names, which must be one of the
/// scenario's `[marking "…"]` sections.
pub(crate) fn marking_label(
    markings: &[(String, MarkingScheme)],
    e: &RawEntry,
) -> Result<String, ScenarioError> {
    if markings.iter().any(|(l, _)| *l == e.value) {
        Ok(e.value.clone())
    } else {
        Err(e.bad_value(format!(
            "no [marking \"{}\"] section in this scenario",
            e.value
        )))
    }
}

/// Hard cap on the retry budget — past a handful of attempts a cell is
/// not flaky, it is broken, and retrying only delays the quarantine.
const MAX_RETRIES: u32 = 8;

fn parse_limits(
    doc: &Document,
    run: &RunSpec,
    markings: &[(String, MarkingScheme)],
) -> Result<LimitsSpec, ScenarioError> {
    let Some(s) = doc.section("limits") else {
        return Ok(LimitsSpec::default());
    };
    s.reject_unknown_keys(&[
        "deadline",
        "retries",
        "backoff",
        "inject_panic",
        "inject_stall",
        "inject_flaky",
    ])?;
    let mut spec = LimitsSpec::default();
    s.parse_into("deadline", &mut spec.deadline, |e| {
        parse_positive_duration(e).map(Some)
    })?;
    if let Some(e) = s.get("retries") {
        spec.retries = parse_u32(e)?;
        if spec.retries > MAX_RETRIES {
            return Err(e.out_of_range(format!(
                "retries must be at most {MAX_RETRIES}, got {}",
                spec.retries
            )));
        }
    }
    s.parse_into("backoff", &mut spec.backoff, parse_duration)?;
    for (key, fault) in [
        ("inject_panic", InjectFault::Panic),
        ("inject_stall", InjectFault::Stall),
        ("inject_flaky", InjectFault::Flaky),
    ] {
        if let Some(e) = s.get(key) {
            spec.inject.push(parse_inject(e, fault, run, markings)?);
        }
    }
    Ok(spec)
}

/// Parses one `inject_* = marking:flows:seed` cell address, validating
/// every component against the scenario's actual matrix so a typo
/// cannot silently inject nothing.
fn parse_inject(
    e: &RawEntry,
    fault: InjectFault,
    run: &RunSpec,
    markings: &[(String, MarkingScheme)],
) -> Result<InjectSpec, ScenarioError> {
    let parts: Vec<&str> = e.value.split(':').collect();
    let [marking, flows, seed] = parts.as_slice() else {
        return Err(e.bad_value(format!("expected `marking:flows:seed`, got `{}`", e.value)));
    };
    if !markings.iter().any(|(l, _)| l == marking) {
        return Err(e.bad_value(format!(
            "no [marking \"{marking}\"] section in this scenario"
        )));
    }
    let flows: u32 = flows
        .trim()
        .parse()
        .map_err(|_| e.bad_value(format!("bad flow count `{flows}`")))?;
    if !run.flows.contains(&flows) {
        return Err(e.bad_value(format!("flow count {flows} is not in the sweep")));
    }
    let seed: u64 = seed
        .trim()
        .parse()
        .map_err(|_| e.bad_value(format!("bad seed `{seed}`")))?;
    if !run.seeds.contains(&seed) {
        return Err(e.bad_value(format!("seed {seed} is not in the seed list")));
    }
    Ok(InjectSpec {
        fault,
        marking: marking.to_string(),
        flows,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctcp_workloads::CollectivePattern;

    const MINIMAL: &str = "\
[scenario]
name = t
kind = long_lived

[run]
flows = 2, 4

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

    #[test]
    fn minimal_long_lived_parses_with_defaults() {
        let s = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.kind, ScenarioKind::LongLived);
        assert_eq!(s.run.flows, vec![2, 4]);
        let d = s.dumbbell().unwrap();
        assert_eq!(d.bottleneck_bps, 10_000_000_000);
        assert_eq!(s.markings.len(), 1);
        assert_eq!(s.num_points(), 2);
        assert!(s.faults.is_empty());
        assert!(s.expectations.is_empty());
    }

    #[test]
    fn unknown_key_names_section_and_line() {
        let src = MINIMAL.replace("k = 40 pkts", "k = 40 pkts\ntreshold = 2");
        match ScenarioSpec::parse(&src).unwrap_err() {
            ScenarioError::UnknownKey { section, key, .. } => {
                assert_eq!(key, "treshold");
                assert!(section.contains("marking"), "{section}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn out_of_range_thresholds_are_rejected() {
        let src = MINIMAL.replace(
            "scheme = dctcp\nk = 40 pkts",
            "scheme = dt-dctcp\nk1 = 50 pkts\nk2 = 30 pkts",
        );
        match ScenarioSpec::parse(&src).unwrap_err() {
            ScenarioError::OutOfRange { key, .. } => assert!(key.contains("marking")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn absurd_flow_counts_are_rejected() {
        let src = MINIMAL.replace("flows = 2, 4", "flows = 2, 100000");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
    }

    #[test]
    fn query_kind_takes_testbed_defaults_and_seeds() {
        let src = "\
[scenario]
name = q
kind = incast

[run]
flows = 4, 8
rounds = 2
seeds = 1, 2
bytes_per_flow = 64 KB

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";
        let s = ScenarioSpec::parse(src).unwrap();
        assert_eq!(s.kind, ScenarioKind::Incast);
        let t = s.testbed().unwrap();
        assert_eq!(t.link_bps, 1_000_000_000);
        assert_eq!(s.run.seeds, vec![1, 2]);
        assert_eq!(s.num_points(), 4);
    }

    #[test]
    fn incast_rejects_total_bytes_key() {
        let src = "\
[scenario]
name = q
kind = incast

[run]
flows = 4
total_bytes = 1 MB

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";
        assert!(matches!(
            ScenarioSpec::parse(src).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
    }

    #[test]
    fn faults_rejected_on_query_kinds() {
        let src = "\
[scenario]
name = q
kind = incast

[run]
flows = 4

[faults]
bleach = 1 ms .. 2 ms

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";
        assert!(ScenarioSpec::parse(src).is_err());
    }

    #[test]
    fn marking_without_label_is_rejected() {
        let src = MINIMAL.replace("[marking \"dc\"]", "[marking]");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
    }

    #[test]
    fn bad_transport_gain_is_out_of_range() {
        let src = format!("{MINIMAL}\n[transport]\ng = 1.5\n");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
    }

    #[test]
    fn transport_delayed_ack_knobs_parse() {
        let src = format!("{MINIMAL}\n[transport]\ndelayed_ack = 8\ndelack_timeout = 2 ms\n");
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.tcp.delayed_ack, 8);
        assert_eq!(s.tcp.delack_timeout, SimDuration::from_millis(2));
        // delayed_ack = 0 is rejected by TcpConfig validation.
        let src = format!("{MINIMAL}\n[transport]\ndelayed_ack = 0\n");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
    }

    #[test]
    fn default_limits_without_a_section() {
        let s = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(s.limits, LimitsSpec::default());
        assert_eq!(s.limits.retries, DEFAULT_RETRIES);
        // Derived deadline: 1000× the simulated span (default 20 ms
        // warmup + 50 ms duration → 70 s of wall clock).
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(70));

        // Sub-30 ms simulated spans clamp to the 30 s floor.
        let tiny = ScenarioSpec::parse(
            "\
[scenario]
name = t
kind = long_lived

[run]
flows = 2
warmup = 1 ms
duration = 2 ms

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
",
        )
        .unwrap();
        assert_eq!(tiny.cell_deadline(), SimDuration::from_secs(30));
    }

    #[test]
    fn limits_section_parses_deadline_retries_and_injections() {
        let src = format!(
            "{MINIMAL}\n[limits]\ndeadline = 90 s\nretries = 3\nbackoff = 10 ms\n\
             inject_panic = dc:2:1\ninject_flaky = dc:4:1\n"
        );
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.limits.deadline, Some(SimDuration::from_secs(90)));
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(90));
        assert_eq!(s.limits.retries, 3);
        assert_eq!(s.limits.backoff, SimDuration::from_millis(10));
        assert_eq!(s.limits.injection_for("dc", 2, 1), Some(InjectFault::Panic));
        assert_eq!(s.limits.injection_for("dc", 4, 1), Some(InjectFault::Flaky));
        assert_eq!(s.limits.injection_for("dc", 8, 1), None);
    }

    #[test]
    fn injections_must_address_a_real_cell() {
        for bad in [
            "inject_panic = nosuch:2:1", // unknown marking
            "inject_panic = dc:3:1",     // flows not in sweep
            "inject_panic = dc:2:7",     // seed not in list
            "inject_panic = dc:2",       // malformed triple
            "inject_stall = dc:two:1",   // non-numeric flows
        ] {
            let src = format!("{MINIMAL}\n[limits]\n{bad}\n");
            assert!(
                matches!(
                    ScenarioSpec::parse(&src).unwrap_err(),
                    ScenarioError::BadValue { .. }
                ),
                "{bad}"
            );
        }
    }

    const COLLECTIVE: &str = "\
[scenario]
name = c
kind = collective

[topology fat_tree]
k = 4
hosts_per_edge = 2
core = 1 Gbps
ecmp_seed = 7

[workload collective]
pattern = ring_allreduce
phase_gap = 500 us
horizon = 200 ms

[run]
flows = 8, 16
bytes_per_flow = 32 KB
seeds = 1, 2

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
";

    #[test]
    fn collective_scenario_parses_fat_tree_and_workload() {
        let s = ScenarioSpec::parse(COLLECTIVE).unwrap();
        assert_eq!(s.kind, ScenarioKind::Collective);
        assert!(s.kind.sweeps_seeds());
        let ft = s.fat_tree().unwrap();
        assert_eq!((ft.k, ft.hosts_per_edge, ft.ecmp_seed), (4, 2, 7));
        assert_eq!(ft.num_hosts(), 16);
        assert_eq!(ft.core_bps, 1_000_000_000);
        let w = s.workload.unwrap();
        assert_eq!(w.pattern, CollectivePattern::RingAllreduce);
        assert_eq!(w.phase_gap, SimDuration::from_micros(500));
        assert_eq!(w.horizon, SimDuration::from_millis(200));
        assert_eq!(s.run.bytes, 32 * 1024);
        assert_eq!(s.run.seeds, vec![1, 2]);
        // markings × participants × seeds
        assert_eq!(s.num_points(), 4);
        // The cell deadline derives from the workload horizon (200 ms
        // × 1000, clamped to the 300 s ceiling).
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(200));
    }

    #[test]
    fn collective_requires_a_workload_section() {
        let src = COLLECTIVE.replace(
            "[workload collective]\npattern = ring_allreduce\n",
            "[workload collective]\n",
        );
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::MissingKey { .. }
        ));
        let src: String = COLLECTIVE
            .lines()
            .filter(|l| {
                !(l.starts_with("[workload")
                    || l.starts_with("pattern")
                    || l.starts_with("phase_gap")
                    || l.starts_with("horizon"))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::MissingSection { .. }
        ));
    }

    #[test]
    fn collective_invalid_parameters_are_typed_errors() {
        for (from, to) in [
            ("k = 4", "k = 5"),                           // odd arity
            ("k = 4", "k = 18"),                          // arity over 16
            ("hosts_per_edge = 2", "hosts_per_edge = 0"), // zero hosts
            ("flows = 8, 16", "flows = 8, 17"),           // over the 16 hosts
            ("flows = 8, 16", "flows = 1"),               // below 2 ranks
            ("horizon = 200 ms", "horizon = 0 s"),        // empty budget
            (
                "pattern = ring_allreduce",
                "pattern = all_to_some", // unknown pattern
            ),
        ] {
            let src = COLLECTIVE.replace(from, to);
            assert_ne!(src, COLLECTIVE, "{from}");
            let err = ScenarioSpec::parse(&src).unwrap_err();
            assert!(
                matches!(
                    err,
                    ScenarioError::OutOfRange { .. } | ScenarioError::BadValue { .. }
                ),
                "{from} -> {to}: {err}"
            );
        }
    }

    #[test]
    fn topology_and_workload_labels_must_match_the_kind() {
        // Collective with a bare [topology] is an error...
        let src = COLLECTIVE.replace("[topology fat_tree]", "[topology]");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
        // ...as is a labeled topology on a long-lived scenario...
        let src = MINIMAL.replace("[run]", "[topology fat_tree]\nk = 4\n\n[run]");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
        // ...and a workload section outside the collective kind.
        let src = format!("{MINIMAL}\n[workload collective]\npattern = incast\n");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
    }

    #[test]
    fn faults_rejected_on_collective_kind() {
        let src = format!("{COLLECTIVE}\n[faults]\nbleach = 1 ms .. 2 ms\n");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
    }

    #[test]
    fn absurd_retry_budgets_are_rejected() {
        let src = format!("{MINIMAL}\n[limits]\nretries = 50\n");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
    }

    const FLUID: &str = "\
[scenario]
name = f
kind = fluid

[run]
flows = 8, 100000
warmup = 20 ms
duration = 30 ms
dt = 2 us

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

    #[test]
    fn fluid_kind_parses_with_dumbbell_defaults() {
        let s = ScenarioSpec::parse(FLUID).unwrap();
        assert_eq!(s.kind, ScenarioKind::Fluid);
        // Shares the long-lived dumbbell defaults and takes flow counts
        // far past the packet engine's cap.
        let d = s.dumbbell().unwrap();
        assert_eq!(d.bottleneck_bps, 10_000_000_000);
        assert_eq!(s.run.flows, vec![8, 100_000]);
        assert_eq!(s.run.dt, dctcp_sim::SimDuration::from_micros(2));
        // Trace (the metric sampling stride) defaults to the step.
        assert_eq!(s.run.trace_interval, s.run.dt);
        // Fluid cells are seed-free: one cell per (marking, flows).
        assert_eq!(s.num_points(), 2);
        assert!(s.xvals.is_empty());
    }

    #[test]
    fn fluid_rejects_flow_counts_past_its_own_cap() {
        let src = FLUID.replace("flows = 8, 100000", "flows = 8, 1000001");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
    }

    #[test]
    fn fluid_rejects_steps_coarser_than_the_rtt() {
        let src = FLUID.replace("dt = 2 us", "dt = 500 us");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { key, .. } if key == "dt"
        ));
        let src = FLUID.replace("dt = 2 us", "dt = 2 us\ntrace = 1 us");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { key, .. } if key == "trace"
        ));
    }

    #[test]
    fn fluid_rejects_unsupported_markings() {
        // Byte-denominated thresholds have no packet-fluid meaning.
        let src = FLUID.replace("k = 40 pkts", "k = 60 KB");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
        // Non-DCTCP AQMs are not modeled by the DDE.
        let src = FLUID.replace(
            "scheme = dctcp\nk = 40 pkts",
            "scheme = red\nmin = 10 pkts\nmax = 50 pkts\np_max = 0.1",
        );
        assert!(ScenarioSpec::parse(&src).is_err());
    }

    #[test]
    fn xval_sections_parse_and_validate() {
        let src = format!(
            "{FLUID}
[xval \"amp\"]
packet = fig05_oscillation
marking = dc
metric = osc_amplitude
flows = 8
max_rel_err = 0.5
"
        );
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.xvals.len(), 1);
        let x = &s.xvals[0];
        assert_eq!(x.packet_scenario, "fig05_oscillation");
        // Defaults mirror the fluid-side selections.
        assert_eq!(x.packet_metric, "osc_amplitude");
        assert_eq!(x.packet_marking, "dc");
        assert_eq!(x.flows, vec![8]);

        // Flow counts outside the sweep, unknown metrics and unknown
        // markings are all caught at parse time.
        for (from, to) in [
            ("flows = 8\nmax", "flows = 16\nmax"),
            ("metric = osc_amplitude", "metric = nonsense"),
            ("marking = dc", "marking = nonsense"),
            ("max_rel_err = 0.5", "max_rel_err = -1"),
        ] {
            let broken = src.replace(from, to);
            assert!(ScenarioSpec::parse(&broken).is_err(), "{from} -> {to}");
        }
    }

    const FCT: &str = "\
[scenario]
name = churn
kind = fct

[topology]
bottleneck = 10 Gbps
rtt = 100 us

[run]
flows = 8
warmup = 5 ms
duration = 20 ms
seeds = 1, 2

[workload fct]
load = 0.8
size_dist = web_search
racks = 2
slots = 1024
drain = 50 ms

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

    #[test]
    fn fct_scenario_parses_workload_and_defaults() {
        let s = ScenarioSpec::parse(FCT).unwrap();
        assert_eq!(s.kind, ScenarioKind::Fct);
        assert!(s.kind.sweeps_seeds());
        let w = s.fct.as_ref().unwrap();
        assert_eq!((w.racks, w.slots), (2, 1024));
        assert!((w.load - 0.8).abs() < 1e-12);
        assert_eq!(w.size_dist, "web_search");
        assert_eq!((w.short_bytes, w.long_bytes), (10_000, 100_000));
        assert_eq!(w.drain, SimDuration::from_millis(50));
        assert_eq!(w.deadline_slack, None);
        assert!(s.workload.is_none());
        assert_eq!(s.run.warmup, SimDuration::from_millis(5));
        assert_eq!(s.run.seeds, vec![1, 2]);
        assert_eq!(s.num_points(), 2);
        // The dumbbell surface is shared with long-lived scenarios.
        assert_eq!(s.dumbbell().unwrap().rtt, SimDuration::from_micros(100));
        // Derived deadline: (5 + 20 + 50) ms of simulated time × 1000.
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(75));
    }

    #[test]
    fn fct_invalid_parameters_are_typed_errors() {
        for (from, to) in [
            ("load = 0.8", "load = 1.2"),                     // not a fraction
            ("load = 0.8", "load = 0"),                       // idle
            ("size_dist = web_search", "size_dist = pareto"), // unknown CDF
            ("racks = 2", "racks = 0"),                       // no racks
            ("slots = 1024", "slots = 0"),                    // empty slab
            ("flows = 8", "flows = 7"),                       // not a multiple of racks
            ("flows = 8", "flows = 0"),                       // empty sweep point
        ] {
            let src = FCT.replace(from, to);
            assert_ne!(src, FCT, "{from}");
            let err = ScenarioSpec::parse(&src).unwrap_err();
            assert!(
                matches!(
                    err,
                    ScenarioError::OutOfRange { .. } | ScenarioError::BadValue { .. }
                ),
                "{from} -> {to}: {err}"
            );
        }
        // Class bounds must stay ordered: short < long.
        let src = FCT.replace("slots = 1024", "slots = 1024\nshort_bytes = 200 KB");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::OutOfRange { .. }
        ));
        // The workload section is required and must carry the fct label.
        let src: String = FCT
            .lines()
            .filter(|l| {
                !(l.starts_with("[workload")
                    || l.starts_with("load")
                    || l.starts_with("size_dist")
                    || l.starts_with("racks")
                    || l.starts_with("slots")
                    || l.starts_with("drain"))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::MissingSection { .. }
        ));
        let src = FCT.replace("[workload fct]", "[workload collective]");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
    }

    #[test]
    fn transport_cc_knob_selects_d2tcp() {
        let src = FCT
            .replace("[run]", "[transport]\ncc = d2tcp\n\n[run]")
            .replace("drain = 50 ms", "drain = 50 ms\ndeadline_slack = 2.0");
        let s = ScenarioSpec::parse(&src).unwrap();
        assert!(matches!(
            s.tcp.cc,
            dctcp_tcp::CongestionControl::D2tcp { .. }
        ));
        assert_eq!(s.fct.as_ref().unwrap().deadline_slack, Some(2.0));
        // Unknown schemes are named in the error.
        let src = FCT.replace("[run]", "[transport]\ncc = cubic\n\n[run]");
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
    }

    #[test]
    fn fct_expectations_validate_against_fct_metrics() {
        let src = format!(
            "{FCT}
[expect \"tails\"]
check = metric_range
metric = fct_short_p99_ms
min = 0
"
        );
        assert!(ScenarioSpec::parse(&src).is_ok());
        let broken = src.replace("metric = fct_short_p99_ms", "metric = queue_std");
        assert!(matches!(
            ScenarioSpec::parse(&broken).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
    }

    #[test]
    fn xval_sections_are_fluid_only() {
        let src = format!(
            "{MINIMAL}
[xval \"amp\"]
packet = other
marking = dc
metric = queue_std
flows = 2
max_rel_err = 0.5
"
        );
        assert!(matches!(
            ScenarioSpec::parse(&src).unwrap_err(),
            ScenarioError::Syntax { .. }
        ));
    }
}
