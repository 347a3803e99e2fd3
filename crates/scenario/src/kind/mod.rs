//! One module per scenario kind.
//!
//! A kind is a workload family the matrix can drive. Each one is a file
//! implementing [`Kind`], which owns everything the kind means:
//!
//! * its `[topology]`, `[workload]` and `[run]` keys, their defaults
//!   and cross-field checks, and its flow cap;
//! * whether it sweeps seeds and accepts `[faults]` or `[xval]`;
//! * its metric names, its cell-deadline budget and its cell-key fields;
//! * how one cell runs.
//!
//! The rest of the crate (the shared sections, matrix expansion, cache,
//! journal and supervision) never branches on the kind: it asks
//! [`ScenarioKind::imp`]. Adding a kind is one new file, one
//! [`ScenarioKind`] variant and one row in [`KINDS`].

mod collective;
mod fct;
mod fluid;
mod long_lived;
mod query;
mod stability;

pub use collective::{CollectiveWorkloadSpec, FatTreeSpec};
pub use fct::FctWorkloadSpec;
pub use fluid::MAX_FLUID_FLOWS;
pub use long_lived::{DumbbellSpec, FaultSpec};
pub use query::TestbedSpec;

// The kind files share this module's imports through `use super::*`.
use dctcp_cache::KeyBuilder;
use dctcp_core::MarkingScheme;
use dctcp_sim::{CancelToken, Capacity, SimDuration, SimError};

use crate::parse::{
    parse_bytes, parse_capacity, parse_duration, parse_f64, parse_list_u32, parse_list_u64,
    parse_positive_duration, parse_positive_u32, parse_rate_bps, parse_u32, Document, RawSection,
};
use crate::runner::Cell;
use crate::spec::{RunSpec, ScenarioSpec, TopologySpec, MAX_FLOWS};
use crate::ScenarioError;

/// Which workload family a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// N long-lived flows over one bottleneck (Figs. 1, 5–8, 10–12).
    LongLived,
    /// Synchronized Incast responses on the Fig. 13 testbed (Fig. 14).
    Incast,
    /// Partition-aggregate queries on the Fig. 13 testbed (Fig. 15).
    PartitionAggregate,
    /// Collective communication (allreduce/permutation/incast phases)
    /// on a k-ary fat-tree with deterministic ECMP.
    Collective,
    /// Delay-differential fluid-model sweep on the dumbbell operating
    /// point — no packets, so flow counts may reach
    /// [`MAX_FLUID_FLOWS`]. Cross-validated against packet anchors via
    /// `[xval]` sections, which `repro_check` gates.
    Fluid,
    /// Open-loop heavy-traffic flow churn: Poisson arrivals at a
    /// configured fraction of the rack bottlenecks with empirical
    /// flow sizes (`[workload fct]`), reporting per-size-class
    /// flow-completion-time tails from mergeable quantile sketches.
    /// The `flows` sweep is the churn-source count, split evenly over
    /// the workload's racks.
    Fct,
    /// Describing-function / Nyquist analysis of the dumbbell's
    /// linearised DCTCP loop (Theorems 1–2, Fig. 9): loop-gain margin
    /// and predicted limit cycle per flow count. No packets and no time
    /// axis, so seed-free and capped at [`MAX_FLUID_FLOWS`].
    Stability,
}

/// Every kind and its implementation, in declaration order (so a kind
/// indexes its own row).
static KINDS: [(ScenarioKind, &dyn Kind); 7] = [
    (ScenarioKind::LongLived, &long_lived::LongLived),
    (ScenarioKind::Incast, &query::INCAST),
    (
        ScenarioKind::PartitionAggregate,
        &query::PARTITION_AGGREGATE,
    ),
    (ScenarioKind::Collective, &collective::Collective),
    (ScenarioKind::Fluid, &fluid::Fluid),
    (ScenarioKind::Fct, &fct::Fct),
    (ScenarioKind::Stability, &stability::Stability),
];

impl ScenarioKind {
    /// The `kind = …` spelling.
    pub fn name(&self) -> &'static str {
        self.imp().name()
    }

    /// Parses the `kind = …` spelling back into a kind.
    pub fn from_name(name: &str) -> Option<ScenarioKind> {
        KINDS
            .iter()
            .find(|(_, k)| k.name() == name)
            .map(|&(kind, _)| kind)
    }

    /// Whether the matrix sweeps the `[run] seeds` list (one cell per
    /// seed). Seed-free kinds pin seed 1.
    pub fn sweeps_seeds(&self) -> bool {
        self.imp().sweeps_seeds()
    }

    /// The point metrics artifacts of this kind carry, in artifact
    /// order.
    pub fn metrics(&self) -> &'static [&'static str] {
        self.imp().metrics()
    }

    /// The kind's implementation.
    pub(crate) fn imp(self) -> &'static dyn Kind {
        KINDS[self as usize].1
    }

    /// Every `kind = …` spelling, `/`-separated.
    pub(crate) fn spellings() -> String {
        KINDS.map(|(_, k)| k.name()).join("/")
    }
}

/// What one scenario kind means: its sections, its metrics, its cell
/// key and how one cell runs.
pub(crate) trait Kind: Sync {
    /// The `kind = …` spelling.
    fn name(&self) -> &'static str;

    /// The point metrics artifacts of this kind carry, in artifact
    /// order.
    fn metrics(&self) -> &'static [&'static str];

    /// Whether the matrix sweeps the `[run] seeds` list.
    fn sweeps_seeds(&self) -> bool {
        true
    }

    /// Parses the kind's `[topology]`, `[workload]` and `[run]`
    /// sections, with their defaults and cross-field checks.
    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError>;

    /// Why this kind cannot run a marking scheme, if it cannot.
    fn reject_marking(&self, _scheme: &MarkingScheme) -> Option<&'static str> {
        None
    }

    /// Parses `[faults]`; only kinds that script faults accept it.
    fn parse_faults(&self, doc: &Document) -> Result<FaultSpec, ScenarioError> {
        match doc.section("faults") {
            None => Ok(FaultSpec::default()),
            Some(s) => Err(ScenarioError::BadValue {
                line: s.line,
                key: "faults".into(),
                msg: format!(
                    "fault plans are not supported for {} scenarios",
                    self.name()
                ),
            }),
        }
    }

    /// Whether `[xval]` cross-validation sections apply.
    fn takes_xval(&self) -> bool {
        false
    }

    /// The simulated span of one cell, in nanoseconds: the base of its
    /// derived wall-clock deadline. Defaults to warmup + duration.
    fn simulated_ns(&self, spec: &ScenarioSpec) -> u64 {
        spec.run.warmup.as_nanos() + spec.run.duration.as_nanos()
    }

    /// Adds the kind's resolved inputs to a cell's key material.
    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder);

    /// Simulates one cell (no supervision) and returns its metric rows
    /// in artifact order.
    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError>;
}

/// What a kind parses from its own sections.
pub(crate) struct KindSections {
    pub topology: TopologySpec,
    pub run: RunSpec,
    pub workload: Option<CollectiveWorkloadSpec>,
    pub fct: Option<FctWorkloadSpec>,
}

impl KindSections {
    /// Sections without a workload shape.
    fn new(topology: TopologySpec, run: RunSpec) -> KindSections {
        KindSections {
            topology,
            run,
            workload: None,
            fct: None,
        }
    }
}

/// The `[topology]` section of a kind whose topology carries `label`
/// (`None`: a bare `[topology]`). Any other spelling is an error, never
/// a silently ignored section.
fn topology_section<'a>(
    doc: &'a Document,
    kind: &str,
    label: Option<&str>,
) -> Result<Option<&'a RawSection>, ScenarioError> {
    if let Some(s) = doc
        .sections_named("topology")
        .find(|s| s.label.as_deref() != label)
    {
        return Err(ScenarioError::Syntax {
            line: s.line,
            msg: match label {
                Some(l) => format!("{kind} scenarios take `[topology {l}]`"),
                None => format!("{kind} scenarios take a bare [topology]"),
            },
        });
    }
    Ok(doc.sections_named("topology").next())
}

/// The kind's required `[workload label]` section.
fn workload_section<'a>(
    doc: &'a Document,
    kind: &str,
    label: &str,
) -> Result<&'a RawSection, ScenarioError> {
    let s = doc
        .sections_named("workload")
        .next()
        .ok_or_else(|| ScenarioError::MissingSection {
            section: format!("workload {label}"),
        })?;
    if s.label.as_deref() != Some(label) {
        return Err(ScenarioError::Syntax {
            line: s.line,
            msg: format!("{kind} scenarios take `[workload {label}]`"),
        });
    }
    Ok(s)
}

/// Rejects `[workload]` sections on a kind without a workload shape.
fn no_workload(doc: &Document, kind: &str) -> Result<(), ScenarioError> {
    match doc.sections_named("workload").next() {
        Some(s) => Err(ScenarioError::Syntax {
            line: s.line,
            msg: format!("{kind} scenarios take no [workload] section"),
        }),
        None => Ok(()),
    }
}

/// The `[run]` section, holding at most `keys`, over the run defaults.
/// The keys several kinds share (`flows`, capped at `max_flows`, and
/// `warmup`, `duration`, `trace` and `seeds` where allowed) are parsed
/// here; the kind parses the rest.
fn run_section<'a>(
    doc: &'a Document,
    keys: &[&str],
    max_flows: u32,
) -> Result<(&'a RawSection, RunSpec), ScenarioError> {
    let s = doc.section("run").ok_or(ScenarioError::MissingSection {
        section: "run".into(),
    })?;
    s.reject_unknown_keys(keys)?;
    // List parsers reject empty lists, so `flows` and `seeds` are never
    // empty.
    let flows_entry = s.require("flows")?;
    let mut run = RunSpec {
        flows: parse_list_u32(flows_entry)?,
        warmup: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(50),
        trace_interval: SimDuration::from_micros(50),
        dt: SimDuration::from_micros(1),
        stagger: SimDuration::ZERO,
        rounds: 3,
        bytes: 64 * 1024,
        seeds: vec![1],
    };
    if let Some(&n) = run.flows.iter().find(|&&n| n == 0 || n > max_flows) {
        return Err(
            flows_entry.out_of_range(format!("flow counts must be in 1..={max_flows}, got {n}"))
        );
    }
    s.parse_into("warmup", &mut run.warmup, parse_duration)?;
    s.parse_into("duration", &mut run.duration, parse_positive_duration)?;
    s.parse_into("trace", &mut run.trace_interval, parse_positive_duration)?;
    s.parse_into("seeds", &mut run.seeds, parse_list_u64)?;
    Ok((s, run))
}

/// Non-finite metric values render as 0 so artifacts stay valid JSON.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_its_spelling() {
        for (i, &(kind, imp)) in KINDS.iter().enumerate() {
            assert_eq!(kind as usize, i, "KINDS is in declaration order");
            assert_eq!(ScenarioKind::from_name(imp.name()), Some(kind));
            assert_eq!(kind.name(), imp.name());
        }
        assert_eq!(ScenarioKind::from_name("nosuch"), None);
        assert_eq!(
            ScenarioKind::spellings(),
            "long_lived/incast/partition_aggregate/collective/fluid/fct/stability"
        );
    }
}
