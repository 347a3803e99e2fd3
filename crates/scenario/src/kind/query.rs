//! `kind = incast` and `kind = partition_aggregate`: query rounds on
//! the Fig. 13 testbed (Figs. 14 and 15). The two differ only in how
//! `[run]` spells the byte count and how a round spreads it over the
//! responders, so one [`Query`] table row describes each.

use dctcp_workloads::{run_query_rounds_supervised, QueryWorkload, TestbedConfig};

use super::*;

/// Fig. 13 testbed parameters for the query kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestbedSpec {
    /// Per-link rate, bits/second.
    pub link_bps: u64,
    /// Bottleneck (Switch 1 → client) buffer.
    pub bottleneck_buffer: Capacity,
    /// Every other switch port's buffer.
    pub other_buffer: Capacity,
    /// One-way propagation delay per link.
    pub link_delay: SimDuration,
}

/// One query kind.
pub(super) struct Query {
    name: &'static str,
    /// The `[run]` key carrying the byte count, and the sibling kind's
    /// key, which this kind rejects.
    bytes_key: &'static str,
    other_key: &'static str,
    default_bytes: u64,
    /// The round shape for (responders, rounds).
    workload: fn(u32, u32) -> QueryWorkload,
    /// Whether the byte count is split over the responders instead of
    /// sent by each of them.
    split: bool,
}

/// Synchronized Incast: every responder sends `bytes_per_flow`.
pub(super) static INCAST: Query = Query {
    name: "incast",
    bytes_key: "bytes_per_flow",
    other_key: "total_bytes",
    default_bytes: 64 * 1024,
    workload: QueryWorkload::incast,
    split: false,
};

/// Partition-aggregate: the responders share `total_bytes`.
pub(super) static PARTITION_AGGREGATE: Query = Query {
    name: "partition_aggregate",
    bytes_key: "total_bytes",
    other_key: "bytes_per_flow",
    default_bytes: 1024 * 1024,
    workload: QueryWorkload::partition_aggregate,
    split: true,
};

impl Kind for Query {
    fn name(&self) -> &'static str {
        self.name
    }

    fn metrics(&self) -> &'static [&'static str] {
        &[
            "goodput_mbps",
            "completion_mean_ms",
            "completion_p95_ms",
            "completion_p99_ms",
            "timeout_frac",
            "rounds_completed",
            "drops",
        ]
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let mut testbed = TestbedSpec {
            link_bps: 1_000_000_000,
            bottleneck_buffer: Capacity::Bytes(128 * 1024),
            other_buffer: Capacity::Bytes(512 * 1024),
            link_delay: SimDuration::from_micros(25),
        };
        if let Some(s) = topology_section(doc, self.name, None)? {
            s.reject_unknown_keys(&["link", "bottleneck_buffer", "other_buffer", "delay"])?;
            s.parse_into("link", &mut testbed.link_bps, parse_rate_bps)?;
            s.parse_into(
                "bottleneck_buffer",
                &mut testbed.bottleneck_buffer,
                parse_capacity,
            )?;
            s.parse_into("other_buffer", &mut testbed.other_buffer, parse_capacity)?;
            s.parse_into("delay", &mut testbed.link_delay, parse_positive_duration)?;
        }
        no_workload(doc, self.name)?;

        let (s, mut run) = run_section(
            doc,
            &["flows", "rounds", "bytes_per_flow", "total_bytes", "seeds"],
            MAX_FLOWS,
        )?;
        if let Some(e) = s.get("rounds") {
            run.rounds = parse_u32(e)?;
            if run.rounds == 0 || run.rounds > 100 {
                return Err(
                    e.out_of_range(format!("rounds must be in 1..=100, got {}", run.rounds))
                );
            }
        }
        if let Some(e) = s.get(self.other_key) {
            return Err(e.bad_value(format!("{} scenarios take `{}`", self.name, self.bytes_key)));
        }
        run.bytes = self.default_bytes;
        s.parse_into(self.bytes_key, &mut run.bytes, parse_bytes)?;
        Ok(KindSections::new(TopologySpec::Testbed(testbed), run))
    }

    /// Query rounds have no fixed simulated duration; budget 100
    /// simulated ms per round.
    fn simulated_ns(&self, spec: &ScenarioSpec) -> u64 {
        u64::from(spec.run.rounds) * 100_000_000
    }

    fn key_fields(&self, spec: &ScenarioSpec, kb: &mut KeyBuilder) {
        kb.field("rounds", &spec.run.rounds.to_string())
            .field("bytes", &spec.run.bytes.to_string());
    }

    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let t = spec.testbed().expect("query scenarios parse a testbed");
        let mut cfg = TestbedConfig::paper(cell.scheme);
        cfg.tcp = spec.tcp;
        cfg.bottleneck_buffer = t.bottleneck_buffer;
        cfg.other_buffer = t.other_buffer;
        cfg.link_gbps = t.link_bps as f64 / 1e9;
        cfg.link_delay_us = t.link_delay.as_nanos() / 1000;

        let mut wl = (self.workload)(cell.flows, spec.run.rounds);
        wl.seed = cell.seed;
        wl.bytes_per_flow = if self.split {
            spec.run.bytes / u64::from(cell.flows)
        } else {
            spec.run.bytes
        };

        // The outer matrix already saturates the worker pool; run the
        // rounds of one cell serially to keep the fan-out single-level.
        let report = run_query_rounds_supervised(&cfg, &wl, 1, cancel)?;

        let mut q = report.completions();
        let in_ms = |v: Option<f64>| v.map_or(0.0, |s| s * 1e3);
        let completed = report
            .rounds
            .iter()
            .filter(|r| r.completion.is_some())
            .count();
        let drops: u64 = report.rounds.iter().map(|r| r.drops).sum();
        Ok(vec![
            ("goodput_mbps".into(), report.mean_goodput_bps() / 1e6),
            ("completion_mean_ms".into(), in_ms(q.mean())),
            ("completion_p95_ms".into(), in_ms(q.quantile(0.95))),
            ("completion_p99_ms".into(), in_ms(q.quantile(0.99))),
            ("timeout_frac".into(), report.timeout_fraction()),
            ("rounds_completed".into(), completed as f64),
            ("drops".into(), drops as f64),
        ])
    }
}
