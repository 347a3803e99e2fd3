//! `kind = collective`: allreduce, permutation or incast phases on a
//! k-ary fat-tree with deterministic ECMP. The `flows` sweep is the
//! participant sweep.

use dctcp_workloads::{run_collective, CollectiveConfig, CollectivePattern};

use super::*;
use crate::parse::parse_u64;

/// k-ary fat-tree parameters for [`ScenarioKind::Collective`]
/// (`[topology fat_tree]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeSpec {
    /// Fat-tree arity (even, 4..=16).
    pub k: u32,
    /// Hosts under each edge switch.
    pub hosts_per_edge: u32,
    /// Host↔edge link rate, bits/second.
    pub host_bps: u64,
    /// Edge↔aggregation link rate, bits/second.
    pub agg_bps: u64,
    /// Aggregation↔core link rate, bits/second.
    pub core_bps: u64,
    /// Host-tier one-way propagation delay (aggregation tier runs at
    /// 2×, core tier at 4×).
    pub delay: SimDuration,
    /// Switch queue capacity at every tier.
    pub buffer: Capacity,
    /// Seed baked into the deterministic ECMP hash.
    pub ecmp_seed: u64,
}

impl FatTreeSpec {
    /// Number of hosts this fabric wires up.
    pub fn num_hosts(&self) -> u32 {
        self.k * (self.k / 2) * self.hosts_per_edge
    }
}

/// The collective workload shape (`[workload collective]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveWorkloadSpec {
    /// Communication pattern.
    pub pattern: CollectivePattern,
    /// Per-transfer message override for the allreduce patterns
    /// (0 = automatic).
    pub chunk: u64,
    /// Gap between consecutive bulk-synchronous step starts.
    pub phase_gap: SimDuration,
    /// Simulated-time budget per cell.
    pub horizon: SimDuration,
}

pub(super) struct Collective;

impl Collective {
    fn parse_fat_tree(&self, doc: &Document) -> Result<FatTreeSpec, ScenarioError> {
        let mut spec = FatTreeSpec {
            k: 4,
            hosts_per_edge: 2,
            host_bps: 1_000_000_000,
            agg_bps: 1_000_000_000,
            core_bps: 1_000_000_000,
            delay: SimDuration::from_micros(5),
            buffer: Capacity::Packets(100),
            ecmp_seed: 1,
        };
        let Some(s) = topology_section(doc, self.name(), Some("fat_tree"))? else {
            return Ok(spec);
        };
        s.reject_unknown_keys(&[
            "k",
            "hosts_per_edge",
            "host",
            "agg",
            "core",
            "delay",
            "buffer",
            "ecmp_seed",
        ])?;
        if let Some(e) = s.get("k") {
            spec.k = parse_u32(e)?;
            if spec.k < 4 || spec.k > 16 || spec.k % 2 != 0 {
                return Err(e.out_of_range(format!(
                    "fat-tree arity must be even and in 4..=16, got {}",
                    spec.k
                )));
            }
        }
        s.parse_into(
            "hosts_per_edge",
            &mut spec.hosts_per_edge,
            parse_positive_u32,
        )?;
        s.parse_into("host", &mut spec.host_bps, parse_rate_bps)?;
        s.parse_into("agg", &mut spec.agg_bps, parse_rate_bps)?;
        s.parse_into("core", &mut spec.core_bps, parse_rate_bps)?;
        s.parse_into("delay", &mut spec.delay, parse_positive_duration)?;
        s.parse_into("buffer", &mut spec.buffer, parse_capacity)?;
        s.parse_into("ecmp_seed", &mut spec.ecmp_seed, parse_u64)?;
        Ok(spec)
    }

    fn parse_workload(&self, doc: &Document) -> Result<CollectiveWorkloadSpec, ScenarioError> {
        let s = workload_section(doc, self.name(), "collective")?;
        s.reject_unknown_keys(&["pattern", "chunk", "phase_gap", "horizon"])?;
        let pattern_entry = s.require("pattern")?;
        let pattern = CollectivePattern::from_name(&pattern_entry.value).ok_or_else(|| {
            pattern_entry.bad_value(format!(
                "unknown pattern `{}` (ring_allreduce/tree_allreduce/permutation/incast)",
                pattern_entry.value
            ))
        })?;
        let mut spec = CollectiveWorkloadSpec {
            pattern,
            chunk: 0,
            phase_gap: SimDuration::from_millis(1),
            horizon: SimDuration::from_millis(400),
        };
        s.parse_into("chunk", &mut spec.chunk, parse_bytes)?;
        s.parse_into("phase_gap", &mut spec.phase_gap, parse_duration)?;
        s.parse_into("horizon", &mut spec.horizon, parse_positive_duration)?;
        Ok(spec)
    }
}

impl Kind for Collective {
    fn name(&self) -> &'static str {
        "collective"
    }

    /// `queue_*` are the busiest core-link port's time-weighted
    /// occupancy: the oscillation probe the paper's comparison cares
    /// about at fabric scale.
    fn metrics(&self) -> &'static [&'static str] {
        &[
            "completion_ms",
            "goodput_mbps",
            "queue_mean",
            "queue_std",
            "queue_max",
            "marks",
            "drops",
            "timeouts",
        ]
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let fat_tree = self.parse_fat_tree(doc)?;
        let (s, mut run) = run_section(doc, &["flows", "bytes_per_flow", "seeds"], MAX_FLOWS)?;
        s.parse_into("bytes_per_flow", &mut run.bytes, parse_bytes)?;
        let workload = self.parse_workload(doc)?;
        // Every participant count must fit on the fabric, and a
        // collective needs two ranks.
        if let Some(&n) = run
            .flows
            .iter()
            .find(|&&n| n < 2 || n > fat_tree.num_hosts())
        {
            return Err(s.require("flows")?.out_of_range(format!(
                "collective participants must be in 2..={} \
                     (k={} fat-tree hosts), got {n}",
                fat_tree.num_hosts(),
                fat_tree.k
            )));
        }
        Ok(KindSections {
            workload: Some(workload),
            ..KindSections::new(TopologySpec::FatTree(fat_tree), run)
        })
    }

    /// A collective cell simulates at most its workload horizon.
    fn simulated_ns(&self, spec: &ScenarioSpec) -> u64 {
        spec.workload.map_or(100_000_000, |w| w.horizon.as_nanos())
    }

    /// The fat-tree (k, tiers, ecmp_seed) is key material through the
    /// shared `topology` field; the workload shape joins it here.
    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder) {
        kb.field("bytes", &spec.run.bytes.to_string())
            .field("workload", &format!("{:?}", spec.workload));
    }

    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let f = spec
            .fat_tree()
            .expect("collective scenarios parse a fat-tree");
        let w = spec.workload.ok_or_else(|| {
            SimError::InvalidConfig(
                "collective scenario lacks a [workload collective] section".into(),
            )
        })?;
        let cfg = CollectiveConfig {
            k: f.k,
            hosts_per_edge: f.hosts_per_edge,
            pattern: w.pattern,
            participants: cell.flows,
            bytes_per_flow: spec.run.bytes,
            chunk: w.chunk,
            phase_gap: w.phase_gap,
            horizon: w.horizon,
            seed: cell.seed,
            marking: cell.scheme,
            tcp: spec.tcp,
            host_gbps: f.host_bps as f64 / 1e9,
            agg_gbps: f.agg_bps as f64 / 1e9,
            core_gbps: f.core_bps as f64 / 1e9,
            delay_us: f.delay.as_nanos() / 1000,
            buffer: f.buffer,
            ecmp_seed: f.ecmp_seed,
        };
        let report = run_collective(&cfg, cancel)?;
        // An unfinished collective would poison every downstream envelope
        // with sentinel values; surface it as a cell failure instead (the
        // horizon is configuration, so the message is byte-stable).
        let completion = report.completion.ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "collective did not complete within the {:?} horizon",
                w.horizon
            ))
        })?;
        Ok(vec![
            ("completion_ms".into(), completion * 1e3),
            ("goodput_mbps".into(), report.goodput_bps / 1e6),
            ("queue_mean".into(), report.core_queue.mean),
            ("queue_std".into(), report.core_queue.std),
            ("queue_max".into(), report.core_queue.max),
            ("marks".into(), report.marks as f64),
            ("drops".into(), report.drops as f64),
            ("timeouts".into(), report.timeouts as f64),
        ])
    }
}
