//! The benchmark's view of a scenario matrix: cell expansion, per-cell
//! set-up without simulating, and the traced replay that runs each cell
//! by calling the layers' public functions directly.
//!
//! Each replay mirrors what `dctcp_scenario`'s runner does for the cell
//! and renders the same metric rows, so the replayed artifact must match
//! the supervised run byte for byte; `run.py` checks that it does.

use dctcp_cache::{Cache, CacheKey, KeyBuilder};
use dctcp_core::{MarkingScheme, QueueLevel};
use dctcp_fluid::{DdeModel, FluidMarking, FluidParams, FluidRunConfig};
use dctcp_scenario::{
    check_artifact, Artifact, DumbbellSpec, FatTreeSpec, Point, ScenarioKind, ScenarioSpec,
    TopologySpec, Violation,
};
use dctcp_sim::{
    FatTree, FaultPlan, FlowId, LinkSpec, NodeId, QueueConfig, ShardedSimulator, SimDuration,
    SimError, SimTime, TierSpec,
};
use dctcp_stats::{oscillation, OscillationSummary, QuantileSketch};
use dctcp_tcp::{ChurnSink, ChurnSource, ScheduledFlow, TransportHost, SIZE_CLASSES};
use dctcp_workloads::{
    run_collective, CollectiveConfig, FctInstance, FctScenario, LongLivedInstance,
    LongLivedScenario,
};

use crate::spans::Tracer;

/// One (marking, flows, seed) cell, in the runner's matrix order.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub scheme: MarkingScheme,
    pub flows: u32,
    pub seed: u64,
}

/// Expands the matrix exactly as the runner does: markings, then flow
/// counts, then seeds (seed-free kinds pin the seed column to 1).
pub fn cells(spec: &ScenarioSpec) -> Vec<Cell> {
    let seeds: &[u64] = if spec.kind.sweeps_seeds() {
        &spec.run.seeds
    } else {
        &[1]
    };
    let mut out = Vec::new();
    for (label, scheme) in &spec.markings {
        for &flows in &spec.run.flows {
            for &seed in seeds {
                out.push(Cell {
                    label: label.clone(),
                    scheme: *scheme,
                    flows,
                    seed,
                });
            }
        }
    }
    out
}

type Rows = Vec<(String, f64)>;

/// Counts one replayed cell's layers reported, by counter name. A
/// counter in `absent` is one whose layer works on this cell but whose
/// public report does not expose it; a counter in neither list is idle
/// (zero) for the cell.
#[derive(Debug, Default)]
pub struct Counters {
    pub counts: Vec<(&'static str, f64)>,
    pub absent: Vec<&'static str>,
}

impl Counters {
    fn set(&mut self, name: &'static str, v: u64) {
        self.counts.push((name, v as f64));
    }
}

/// A cell set up without simulating: the realized shard count, the
/// cross-shard lookahead (zero when serial) and the instance itself,
/// held so that dropping it falls outside the timed region.
pub struct Built {
    pub shards: usize,
    pub lookahead_ns: u64,
    pub _instance: Box<dyn std::any::Any>,
}

fn dumbbell(spec: &ScenarioSpec) -> Result<&DumbbellSpec, SimError> {
    match &spec.topology {
        TopologySpec::Dumbbell(d) => Ok(d),
        _ => Err(SimError::InvalidConfig(
            "expected a dumbbell topology".into(),
        )),
    }
}

fn fat_tree(spec: &ScenarioSpec) -> Result<&FatTreeSpec, SimError> {
    match &spec.topology {
        TopologySpec::FatTree(f) => Ok(f),
        _ => Err(SimError::InvalidConfig(
            "expected a fat-tree topology".into(),
        )),
    }
}

/// `SimDuration` through the f64-seconds round trip the workload
/// builders apply to their windows.
fn builder_secs(d: SimDuration) -> SimDuration {
    SimDuration::from_secs_f64(d.as_secs_f64())
}

fn long_lived(spec: &ScenarioSpec, cell: &Cell) -> Result<LongLivedScenario, SimError> {
    let d = dumbbell(spec)?;
    LongLivedScenario::builder()
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
        .build()
}

fn fct(spec: &ScenarioSpec, cell: &Cell) -> Result<FctScenario, SimError> {
    let d = dumbbell(spec)?;
    let w = spec
        .fct
        .as_ref()
        .ok_or_else(|| SimError::InvalidConfig("fct scenario lacks [workload fct]".into()))?;
    let sizes = dctcp_workloads::sizes::by_name(&w.size_dist)
        .ok_or_else(|| SimError::InvalidConfig(format!("unknown sizes `{}`", w.size_dist)))?;
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
    builder.build()
}

fn collective(spec: &ScenarioSpec, cell: &Cell) -> Result<CollectiveConfig, SimError> {
    let f = fat_tree(spec)?;
    let w = spec.workload.ok_or_else(|| {
        SimError::InvalidConfig("collective scenario lacks [workload collective]".into())
    })?;
    Ok(CollectiveConfig {
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
    })
}

/// The simulator `run_collective` builds before its first event: every
/// step's flows scheduled on their hosts, the fat-tree with its ECMP
/// routes, and the shard partition.
fn collective_sim(cfg: &CollectiveConfig) -> Result<ShardedSimulator, SimError> {
    cfg.validate()?;
    let steps = cfg
        .pattern
        .transfers(cfg.participants, cfg.bytes_per_flow, cfg.chunk, cfg.seed)?;
    let q = QueueConfig::switch(cfg.buffer, cfg.marking);
    let tier = |gbps: f64, delay_us: u64| {
        TierSpec::new(
            LinkSpec {
                rate_bps: (gbps * 1e9) as u64,
                delay: SimDuration::from_micros(delay_us),
            },
            q,
        )
    };
    let ft = FatTree::new(cfg.k, cfg.hosts_per_edge)
        .with_tiers(
            tier(cfg.host_gbps, cfg.delay_us),
            tier(cfg.agg_gbps, 2 * cfg.delay_us),
            tier(cfg.core_gbps, 4 * cfg.delay_us),
        )
        .ecmp_seed(cfg.ecmp_seed);
    let mut per_host: Vec<Vec<ScheduledFlow>> = vec![Vec::new(); ft.num_hosts()];
    let mut next_flow = 1u64;
    for (s, step) in steps.iter().enumerate() {
        let at = SimTime::ZERO + cfg.phase_gap * s as u64;
        for &(src, dst, bytes) in step {
            per_host[src as usize].push(ScheduledFlow {
                flow: FlowId(next_flow),
                dst: NodeId::from_index(dst as usize),
                bytes: Some(bytes),
                at,
                cfg: cfg.tcp,
            });
            next_flow += 1;
        }
    }
    let built = ft.build(|i| {
        let mut host = TransportHost::new(cfg.tcp);
        for sf in per_host[i].drain(..) {
            host.schedule(sf);
        }
        Box::new(host)
    })?;
    ShardedSimulator::new(built.network)
}

fn fluid(spec: &ScenarioSpec, cell: &Cell) -> Result<(FluidParams, FluidRunConfig), SimError> {
    let d = dumbbell(spec)?;
    let marking = match cell.scheme {
        MarkingScheme::Dctcp {
            k: QueueLevel::Packets(k),
        } => FluidMarking::Relay { k: f64::from(k) },
        MarkingScheme::DtDctcp {
            k1: QueueLevel::Packets(k1),
            k2: QueueLevel::Packets(k2),
        } => FluidMarking::Hysteresis {
            k1: f64::from(k1),
            k2: f64::from(k2),
        },
        _ => {
            return Err(SimError::InvalidConfig(
                "fluid needs packet thresholds".into(),
            ))
        }
    };
    let g = match spec.tcp.cc {
        dctcp_tcp::CongestionControl::Dctcp { g }
        | dctcp_tcp::CongestionControl::D2tcp { g, .. } => g,
        _ => {
            return Err(SimError::InvalidConfig(
                "fluid needs a dctcp transport".into(),
            ))
        }
    };
    let params = FluidParams {
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
    Ok((params, cfg))
}

/// Sets one cell up — topology, slab, routes and shard partition, or
/// the DDE model — without simulating anything.
pub fn build(spec: &ScenarioSpec, cell: &Cell) -> Result<Built, SimError> {
    fn held<T: 'static>(sharding: (usize, u64), instance: T) -> Built {
        Built {
            shards: sharding.0,
            lookahead_ns: sharding.1,
            _instance: Box::new(instance),
        }
    }
    let sharding = |sim: &ShardedSimulator| {
        (
            sim.shard_count(),
            sim.lookahead().map_or(0, SimDuration::as_nanos),
        )
    };
    Ok(match spec.kind {
        ScenarioKind::LongLived => {
            let i = long_lived(spec, cell)?.instantiate()?;
            held(sharding(&i.sim), i)
        }
        ScenarioKind::Fct => {
            let i = fct(spec, cell)?.instantiate()?;
            held(sharding(&i.sim), i)
        }
        ScenarioKind::Collective => {
            let sim = collective_sim(&collective(spec, cell)?)?;
            held(sharding(&sim), sim)
        }
        ScenarioKind::Fluid => {
            let (params, cfg) = fluid(spec, cell)?;
            let invalid =
                |e: dctcp_core::ParamError| SimError::InvalidConfig(format!("fluid cell: {e}"));
            cfg.validate().map_err(invalid)?;
            Built {
                shards: 0,
                lookahead_ns: 0,
                _instance: Box::new(DdeModel::new(params).map_err(invalid)?),
            }
        }
        other => {
            return Err(SimError::InvalidConfig(format!(
                "the benchmark has no `{}` workload",
                other.name()
            )))
        }
    })
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn replay_long_lived(
    spec: &ScenarioSpec,
    cell: &Cell,
    t: Tracer,
) -> Result<(Rows, Counters), SimError> {
    let d = dumbbell(spec)?;
    let scenario = long_lived(spec, cell)?;
    let LongLivedInstance {
        mut sim,
        rx,
        bottleneck,
        switch,
        senders,
    } = t.span("workloads.instantiate", |_| scenario.instantiate())?;
    sim.install_faults(&FaultPlan::new())?;
    let (warmup, duration) = (
        builder_secs(spec.run.warmup),
        builder_secs(spec.run.duration),
    );

    t.span("sim.run_for", |_| sim.run_for(warmup))?;
    sim.reset_all_queue_stats();
    for &h in &senders {
        sim.agent_mut::<TransportHost>(h)?.reset_sender_stats();
    }
    let rx_bytes = |sim: &ShardedSimulator| -> Result<u64, SimError> {
        let host: &TransportHost = sim.agent(rx)?;
        Ok(host.receivers().map(|r| r.stats().bytes_received).sum())
    };
    let before = rx_bytes(&sim)?;
    t.span("sim.run_for", |_| sim.run_for(duration))?;

    let report = t.span("core.queue_report", |_| {
        sim.queue_report(bottleneck, switch)
    });
    let after = rx_bytes(&sim)?;
    let mut c = Counters::default();
    let (alpha, timeouts) = t.span("tcp.sender_stats", |_| -> Result<_, SimError> {
        let mut alpha = dctcp_stats::Welford::new();
        let (mut sent, mut fast, mut timeouts, mut cuts) = (0, 0, 0, 0);
        for &h in &senders {
            let host: &TransportHost = sim.agent(h)?;
            for s in host.senders() {
                let st = s.stats();
                alpha.merge(&st.alpha);
                sent += st.segments_sent;
                fast += st.fast_retransmits;
                timeouts += st.timeouts;
                cuts += st.ecn_cuts;
            }
        }
        c.set("tcp.segments_sent", sent);
        c.set("tcp.fast_retransmits", fast);
        c.set("tcp.timeouts", timeouts);
        c.set("tcp.ecn_cuts", cuts);
        Ok((alpha, timeouts))
    })?;
    let osc = t.span("stats.reduce", |_| {
        report
            .trace
            .as_ref()
            .map_or_else(OscillationSummary::none, oscillation)
    });

    c.set("sim.events", sim.events_processed());
    c.set("sim.simulated_ns", (warmup + duration).as_nanos());
    c.set("core.enqueued", report.counters.enqueued);
    c.set("core.marked", report.counters.marked);
    c.set("core.dropped", report.counters.dropped());
    c.set(
        "stats.samples",
        report.trace.as_ref().map_or(0, |s| s.len() as u64),
    );

    let queue = report.occupancy_pkts;
    let marks = report.counters.marked;
    let goodput_bps = (after - before) as f64 * 8.0 / duration.as_secs_f64();
    let rows = vec![
        ("queue_mean".into(), queue.mean),
        ("queue_std".into(), queue.std),
        ("queue_max".into(), queue.max),
        ("osc_amplitude".into(), osc.mean_amplitude),
        ("osc_max_amplitude".into(), osc.max_amplitude),
        ("osc_cycles".into(), osc.cycles as f64),
        (
            "mark_rate".into(),
            marks as f64 / spec.run.duration.as_secs_f64(),
        ),
        ("marks".into(), marks as f64),
        ("drops".into(), report.counters.dropped() as f64),
        ("timeouts".into(), timeouts as f64),
        ("alpha_mean".into(), finite(alpha.mean())),
        ("utilization".into(), goodput_bps / d.bottleneck_bps as f64),
        ("goodput_gbps".into(), goodput_bps / 1e9),
    ];
    Ok((rows, c))
}

fn replay_fct(spec: &ScenarioSpec, cell: &Cell, t: Tracer) -> Result<(Rows, Counters), SimError> {
    let w = spec
        .fct
        .as_ref()
        .ok_or_else(|| SimError::InvalidConfig("fct scenario lacks [workload fct]".into()))?;
    let scenario = fct(spec, cell)?;
    let FctInstance {
        mut sim,
        sources,
        sinks,
        switches,
        bottlenecks,
    } = t.span("workloads.instantiate", |_| scenario.instantiate())?;
    sim.install_faults(&FaultPlan::new())?;
    let duration = builder_secs(spec.run.duration);
    let horizon = builder_secs(spec.run.warmup) + duration + builder_secs(w.drain);
    t.span("sim.run_for", |_| sim.run_for(horizon))?;

    let mut c = Counters::default();
    let mut sketches: [QuantileSketch; SIZE_CLASSES] =
        std::array::from_fn(|_| QuantileSketch::new());
    let (started, completed, measured_bytes, deadline_flows, deadline_missed) =
        t.span("churn.stats", |_| -> Result<_, SimError> {
            let (mut arrivals, mut started, mut completed, mut aborted) = (0, 0, 0, 0);
            let (mut measured_bytes, mut deadline_flows, mut deadline_missed) = (0, 0, 0);
            let (mut timeouts, mut backlog_peak, mut high_water) = (0, 0, 0u32);
            let (mut in_flight, mut stale, mut measured) = (0u64, 0, 0);
            for &h in &sources {
                let src: &ChurnSource = sim.agent(h)?;
                if let Some(e) = src.table_errors().first() {
                    return Err(SimError::InvalidTopology(format!("flow-table misuse: {e}")));
                }
                let s = src.stats();
                arrivals += s.arrivals;
                started += s.started;
                completed += s.completed;
                aborted += s.aborted;
                measured += s.measured_completed;
                measured_bytes += s.measured_bytes;
                deadline_flows += s.deadline_flows;
                deadline_missed += s.deadline_missed;
                timeouts += s.timeouts;
                backlog_peak = backlog_peak.max(s.backlog_peak);
                high_water = high_water.max(src.slots_high_water());
                in_flight += u64::from(src.open_flows());
                stale += s.stale_acks + s.stale_timers;
            }
            for &h in &sinks {
                let sink: &ChurnSink = sim.agent(h)?;
                stale += sink.stats().stale_segments + sink.stats().stale_timers;
            }
            c.set("churn.arrivals", arrivals);
            c.set("churn.flows_started", started);
            c.set("churn.flows_completed", completed);
            c.set("churn.aborted", aborted);
            c.set("churn.in_flight", in_flight);
            c.set("churn.backlog_peak", backlog_peak);
            c.set("churn.slots_high_water", u64::from(high_water));
            c.set("churn.stale_events", stale);
            c.set("stats.sketch_inserts", measured);
            c.set("tcp.timeouts", timeouts);
            Ok((
                started,
                completed,
                measured_bytes,
                deadline_flows,
                deadline_missed,
            ))
        })?;
    let fct_ms = t.span("stats.reduce", |_| -> Result<Vec<f64>, SimError> {
        for &h in &sources {
            let src: &ChurnSource = sim.agent(h)?;
            for (into, sketch) in sketches.iter_mut().zip(src.sketches()) {
                into.merge(sketch);
            }
        }
        let mut out = Vec::new();
        for sketch in &sketches {
            for q in [0.50, 0.99, 0.999] {
                out.push(finite(sketch.quantile(q).map_or(0.0, |s| s * 1e3)));
            }
        }
        Ok(out)
    })?;
    t.span("core.queue_report", |_| {
        let (mut enq, mut marked, mut dropped) = (0, 0, 0);
        for (&link, &sw) in bottlenecks.iter().zip(&switches) {
            let r = sim.queue_report(link, sw);
            enq += r.counters.enqueued;
            marked += r.counters.marked;
            dropped += r.counters.dropped();
        }
        c.set("core.enqueued", enq);
        c.set("core.marked", marked);
        c.set("core.dropped", dropped);
    });
    c.set("sim.events", sim.events_processed());
    c.set("sim.simulated_ns", horizon.as_nanos());
    // Churn senders keep per-flow TCP state in recycled slab entries and
    // expose only timeouts; per-segment counts are not reported.
    c.absent = vec!["tcp.segments_sent", "tcp.fast_retransmits", "tcp.ecn_cuts"];

    let names = [
        "fct_short_p50_ms",
        "fct_short_p99_ms",
        "fct_short_p999_ms",
        "fct_mid_p50_ms",
        "fct_mid_p99_ms",
        "fct_mid_p999_ms",
        "fct_long_p50_ms",
        "fct_long_p99_ms",
        "fct_long_p999_ms",
    ];
    let mut rows: Rows = names.iter().map(|n| n.to_string()).zip(fct_ms).collect();
    let miss_rate = if deadline_flows == 0 {
        0.0
    } else {
        deadline_missed as f64 / deadline_flows as f64
    };
    rows.push((
        "goodput_gbps".into(),
        finite(measured_bytes as f64 * 8.0 / duration.as_secs_f64() / 1e9),
    ));
    rows.push(("deadline_miss_rate".into(), finite(miss_rate)));
    rows.push(("flows_started".into(), started as f64));
    rows.push(("flows_completed".into(), completed as f64));
    Ok((rows, c))
}

fn replay_collective(
    spec: &ScenarioSpec,
    cell: &Cell,
    t: Tracer,
) -> Result<(Rows, Counters), SimError> {
    let w = spec.workload.ok_or_else(|| {
        SimError::InvalidConfig("collective scenario lacks [workload collective]".into())
    })?;
    let cfg = collective(spec, cell)?;
    let report = t.span("workloads.run_collective", |_| run_collective(&cfg, None))?;
    let completion = report.completion.ok_or_else(|| {
        SimError::InvalidConfig(format!(
            "collective did not complete within the {:?} horizon",
            w.horizon
        ))
    })?;
    let mut c = Counters::default();
    c.set("sim.events", report.events);
    c.set("sim.simulated_ns", (completion * 1e9).round() as u64);
    c.set("core.marked", report.marks);
    c.set("core.dropped", report.drops);
    c.set("tcp.timeouts", report.timeouts);
    // `run_collective` sums marks and drops over the fabric and keeps
    // its per-port enqueue counts and per-ACK sender state internal.
    c.absent = vec![
        "core.enqueued",
        "tcp.segments_sent",
        "tcp.fast_retransmits",
        "tcp.ecn_cuts",
    ];
    let rows = vec![
        ("completion_ms".into(), completion * 1e3),
        ("goodput_mbps".into(), report.goodput_bps / 1e6),
        ("queue_mean".into(), report.core_queue.mean),
        ("queue_std".into(), report.core_queue.std),
        ("queue_max".into(), report.core_queue.max),
        ("marks".into(), report.marks as f64),
        ("drops".into(), report.drops as f64),
        ("timeouts".into(), report.timeouts as f64),
    ];
    Ok((rows, c))
}

fn replay_fluid(spec: &ScenarioSpec, cell: &Cell, t: Tracer) -> Result<(Rows, Counters), SimError> {
    let (params, cfg) = fluid(spec, cell)?;
    let p = t
        .span("fluid.evaluate", |_| {
            dctcp_fluid::sweep::evaluate(&params, &cfg)
        })
        .map_err(|e| SimError::InvalidConfig(format!("fluid cell: {e}")))?;
    let mut c = Counters::default();
    // The integrator takes round(duration / dt) steps (at least one).
    c.set(
        "fluid.steps",
        (cfg.duration / cfg.dt).round().max(1.0) as u64,
    );
    c.set("fluid.points", 1);
    let rows = vec![
        ("queue_mean".into(), finite(p.queue_mean)),
        ("queue_std".into(), finite(p.queue_std)),
        ("queue_max".into(), finite(p.queue_max)),
        ("osc_amplitude".into(), finite(p.osc_amplitude)),
        ("osc_freq_hz".into(), finite(p.osc_freq_hz)),
        ("osc_cycles".into(), finite(p.osc_cycles)),
        ("w_mean".into(), finite(p.w_mean)),
        ("alpha_mean".into(), finite(p.alpha_mean)),
        ("marking_duty".into(), finite(p.marking_duty)),
        ("utilization".into(), finite(p.utilization)),
    ];
    Ok((rows, c))
}

/// Replays one cell through the layers, recording spans on `t`.
pub fn replay(spec: &ScenarioSpec, cell: &Cell, t: Tracer) -> Result<(Rows, Counters), SimError> {
    match spec.kind {
        ScenarioKind::LongLived => replay_long_lived(spec, cell, t),
        ScenarioKind::Fct => replay_fct(spec, cell, t),
        ScenarioKind::Collective => replay_collective(spec, cell, t),
        ScenarioKind::Fluid => replay_fluid(spec, cell, t),
        other => Err(SimError::InvalidConfig(format!(
            "the benchmark has no `{}` workload",
            other.name()
        ))),
    }
}

/// The replay's own cache address for a cell.
pub fn cache_key(spec: &ScenarioSpec, cell: &Cell) -> CacheKey {
    let mut kb = KeyBuilder::new();
    kb.field("workload", &spec.name)
        .field("marking", &cell.label)
        .field("flows", &cell.flows.to_string())
        .field("seed", &cell.seed.to_string());
    kb.finish()
}

/// One cell's replay result.
pub struct Replayed {
    pub cell: Cell,
    pub rows: Rows,
    pub counters: Counters,
}

/// Replays the whole matrix with `threads` cell workers (a worker takes
/// the next cell when it finishes one), stores every cell's rows in
/// `cache`, reads them all back, and checks the assembled artifact's
/// envelopes.
pub fn replay_matrix(
    spec: &ScenarioSpec,
    threads: usize,
    cache: &Cache,
    t: Tracer,
) -> Result<(Artifact, Vec<Replayed>, Vec<Violation>), String> {
    let work: Vec<(usize, Cell)> = cells(spec).into_iter().enumerate().collect();
    let results = dctcp_parallel::par_map(work, threads, |_, (idx, cell)| {
        let t = t.for_cell(idx);
        t.span("scenario.cell", |t| -> Result<Replayed, String> {
            let (rows, counters) = replay(spec, &cell, t).map_err(|e| {
                format!(
                    "({}, N={}, seed {}): {e}",
                    cell.label, cell.flows, cell.seed
                )
            })?;
            let key = cache_key(spec, &cell);
            t.span("cache.put", |_| cache.put(key, &rows))
                .map_err(|e| format!("cache put: {e}"))?;
            Ok(Replayed {
                cell,
                rows,
                counters,
            })
        })
    });
    let replayed = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for (idx, r) in replayed.iter().enumerate() {
        let key = cache_key(spec, &r.cell);
        let read = t.for_cell(idx).span("cache.get", |_| cache.get(key));
        if read.as_ref() != Some(&r.rows) {
            return Err(format!("cache read-back differs for cell {idx}"));
        }
    }
    let artifact = Artifact {
        scenario: spec.name.clone(),
        kind: spec.kind,
        points: replayed
            .iter()
            .map(|r| Point {
                marking: r.cell.label.clone(),
                flows: r.cell.flows,
                seed: r.cell.seed,
                metrics: r.rows.clone(),
            })
            .collect(),
        failures: Vec::new(),
    };
    let violations = t.span("scenario.check", |_| {
        check_artifact(&spec.expectations, &artifact)
    });
    Ok((artifact, replayed, violations))
}
