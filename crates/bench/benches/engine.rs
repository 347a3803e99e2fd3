//! Microbenchmarks of the discrete-event engine: packet forwarding
//! throughput and allocation pressure, timer churn, the intra-run
//! sharded engine, the open-loop flow-churn workload's flows/sec and
//! allocs/flow, the parallel multi-seed sweep driver, the
//! content-addressed result cache's warm-rerun win, and the DDE fluid
//! sweep's points/sec rate at scale-out flow counts.
//!
//! Run with `--json BENCH_sim.json` to record the results (including
//! events/sec, allocs/event and the measured parallel speedups)
//! machine-readably.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dctcp_bench::Runner;
use dctcp_core::MarkingScheme;
use dctcp_fluid::{sweep, FluidMarking, FluidParams, FluidRunConfig};
use dctcp_sim::{
    Agent, Capacity, Context, FatTree, FatTreeNet, LinkSpec, Network, NodeId, Packet, QueueConfig,
    ShardedSimulator, SimDuration, SimTime, Simulator, TierSpec, TimerToken, TopologyBuilder,
};
use dctcp_tcp::{ScheduledFlow, TcpConfig, TransportHost};
use dctcp_workloads::CollectivePattern;

/// Counts heap allocations so the forwarding workload can report
/// `allocs_per_event` — the guard on the packet-slab/SoA-queue zero-alloc
/// hot path. One relaxed increment per allocation; frees are not counted
/// (the metric gates allocation pressure, not churn symmetry).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Debug)]
struct Blaster {
    peer: dctcp_sim::NodeId,
    count: u32,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            let mut p = Packet::data(dctcp_sim::FlowId(1), ctx.node(), self.peer, i as u64, 1460);
            p.ecn = dctcp_sim::Ecn::Ect;
            ctx.send(p);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Keeps a churning population of timers alive: every firing cancels one
/// outstanding timer and arms two fresh ones — one inside the calendar
/// wheel's window, one far enough out to land in the overflow level.
#[derive(Debug)]
struct TimerChurn {
    pending: Vec<TimerToken>,
    fires_left: u32,
    step: u64,
}

impl Agent for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..16u64 {
            self.pending
                .push(ctx.set_timer(SimDuration::from_nanos(100 + 37 * i)));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
        if self.fires_left == 0 {
            return;
        }
        self.fires_left -= 1;
        self.step += 1;
        if let Some(t) = self.pending.pop() {
            ctx.cancel_timer(t);
        }
        let near = SimDuration::from_nanos(50 + (self.step * 13) % 1_500);
        let far = SimDuration::from_nanos(2_000_000 + (self.step * 7_919) % 100_000);
        self.pending.push(ctx.set_timer(near));
        self.pending.push(ctx.set_timer(far));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn build(count: u32) -> Simulator {
    let mut b = TopologyBuilder::new();
    let h1 = b.host(
        "h1",
        Box::new(Blaster {
            peer: dctcp_sim::NodeId::from_index(1),
            count,
        }),
    );
    let h2 = b.host(
        "h2",
        Box::new(Blaster {
            peer: dctcp_sim::NodeId::from_index(0),
            count: 0,
        }),
    );
    let s = b.switch("s");
    let spec = LinkSpec::gbps(10.0, 10);
    b.link(
        h1,
        s,
        spec,
        QueueConfig::host_nic(),
        QueueConfig::host_nic(),
    )
    .unwrap();
    b.link(
        s,
        h2,
        spec,
        QueueConfig::host_nic(),
        QueueConfig::host_nic(),
    )
    .unwrap();
    Simulator::new(b.build().unwrap())
}

/// A sender with an intra-rack and a cross-rack destination, for the
/// sharded-engine bench: most packets stay local (per-shard work), the
/// rest cross a trunk (exercising the window mailboxes).
#[derive(Debug)]
struct RackBlaster {
    local: dctcp_sim::NodeId,
    remote: dctcp_sim::NodeId,
    local_count: u32,
    remote_count: u32,
}

impl Agent for RackBlaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.local_count {
            let mut p = Packet::data(dctcp_sim::FlowId(1), ctx.node(), self.local, i as u64, 1460);
            p.ecn = dctcp_sim::Ecn::Ect;
            ctx.send(p);
        }
        for i in 0..self.remote_count {
            let mut p = Packet::data(
                dctcp_sim::FlowId(2),
                ctx.node(),
                self.remote,
                i as u64,
                1460,
            );
            p.ecn = dctcp_sim::Ecn::Ect;
            ctx.send(p);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Four racks (`src — sw — dst` at 10 Gb/s, 5 µs) whose switches form a
/// ring of 200 µs trunks. The 40x delay gap makes the partitioner cut
/// along the trunks — four domains, 200 µs lookahead — and each rack's
/// sender keeps its shard busy between barriers with mostly-local
/// traffic.
fn build_multirack(local: u32, remote: u32) -> Network {
    const RACKS: u32 = 4;
    // Node indices are assigned in creation order: rack d holds
    // src = 3d, dst = 3d + 1, sw = 3d + 2.
    let dst_of = |d: u32| dctcp_sim::NodeId::from_index((3 * (d % RACKS) + 1) as usize);
    let mut b = TopologyBuilder::new();
    let mut switches = Vec::new();
    for d in 0..RACKS {
        let src = b.host(
            format!("src{d}"),
            Box::new(RackBlaster {
                local: dst_of(d),
                remote: dst_of(d + 1),
                local_count: local,
                remote_count: remote,
            }),
        );
        let dst = b.host(
            format!("dst{d}"),
            Box::new(Blaster {
                peer: src,
                count: 0,
            }),
        );
        let sw = b.switch(format!("sw{d}"));
        let rack_spec = LinkSpec::gbps(10.0, 5);
        b.link(
            src,
            sw,
            rack_spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            sw,
            dst,
            rack_spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        switches.push(sw);
    }
    let trunk_spec = LinkSpec::gbps(10.0, 200);
    for d in 0..RACKS as usize {
        b.link(
            switches[d],
            switches[(d + 1) % RACKS as usize],
            trunk_spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
    }
    b.build().unwrap()
}

fn build_timer_churn(fires: u32) -> Simulator {
    let mut b = TopologyBuilder::new();
    let h1 = b.host(
        "h1",
        Box::new(TimerChurn {
            pending: Vec::new(),
            fires_left: fires,
            step: 0,
        }),
    );
    let h2 = b.host(
        "h2",
        Box::new(Blaster {
            peer: dctcp_sim::NodeId::from_index(0),
            count: 0,
        }),
    );
    b.link(
        h1,
        h2,
        LinkSpec::gbps(1.0, 1),
        QueueConfig::host_nic(),
        QueueConfig::host_nic(),
    )
    .unwrap();
    Simulator::new(b.build().unwrap())
}

/// One sweep job: a forwarding run whose size varies with the seed, so
/// parallel misordering would be visible in the fingerprints.
fn sweep_job(seed: usize) -> (u64, u64) {
    let mut sim = build(4_000 + 750 * seed as u32);
    sim.run_for(SimDuration::from_millis(100)).unwrap();
    (sim.events_processed(), sim.now().as_nanos())
}

/// Times the multi-seed sweep serially and through `dctcp_parallel`,
/// checks bit-identity, and records cores/threads/speedup metrics.
///
/// The speedup is only *recorded* with at least two cores (the
/// hardware's count, which `DCTCP_JOBS` cannot change) and two workers:
/// two workers on one core is oversubscription, whose "speedup" (0.78x
/// on a 1-core CI container, once) says nothing about the sweep driver,
/// and without the metric `bench_check` skips its speedup floor.
fn measure_parallel_sweep(r: &mut Runner) {
    const SEEDS: usize = 8;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = dctcp_parallel::available_threads();
    let jobs: Vec<usize> = (0..SEEDS).collect();
    r.metric("sweep/multi_seed/seeds", SEEDS as f64, "runs");
    r.metric("sweep/multi_seed/cores", cores as f64, "cores");

    let start = Instant::now();
    let serial = dctcp_parallel::par_map(jobs.clone(), 1, |_, seed| sweep_job(seed));
    let serial_elapsed = start.elapsed();

    let start = Instant::now();
    let parallel = dctcp_parallel::par_map(jobs, threads.max(2), |_, seed| sweep_job(seed));
    let parallel_elapsed = start.elapsed();

    assert_eq!(
        serial, parallel,
        "parallel sweep must be bit-identical to serial"
    );
    if cores < 2 || threads < 2 {
        eprintln!(
            "sweep/multi_seed/speedup not recorded: {threads} worker(s) on {cores} \
             core(s) cannot time parallel scaling (bit-identity still verified)"
        );
        return;
    }
    let speedup = serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9);
    r.metric("sweep/multi_seed/threads", threads as f64, "threads");
    r.metric("sweep/multi_seed/speedup", speedup, "x");
}

/// Runs the forwarding workload once outside the timed loop and records
/// heap allocations per processed event. The packet slab and the SoA
/// queue rings make the steady-state hot path allocation-free; what
/// remains is one-time container growth, amortized over the run.
fn measure_forward_allocs(r: &mut Runner, pkts: u32) {
    let mut sim = build(pkts);
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_for(SimDuration::from_millis(100)).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events = sim.events_processed();
    assert!(events > 0);
    r.metric(
        "engine/forward/allocs_per_event",
        allocs as f64 / events as f64,
        "allocs/event",
    );
}

/// Times the four-rack workload serially and under four shards
/// (min-of-3 each), asserts the runs are bit-identical, and records the
/// shard count, the 4-shard speedup and the cores it was measured on.
/// `bench_check` gates the speedup only when the machine actually has
/// four cores to run the shards on.
fn measure_sharded(r: &mut Runner) {
    const LOCAL: u32 = 4_000;
    const REMOTE: u32 = 500;
    let run = |target: usize| {
        let mut best = f64::INFINITY;
        let mut fingerprint = (0u64, 0u64);
        let mut shards = 0;
        for _ in 0..3 {
            let mut sim = ShardedSimulator::with_shards(build_multirack(LOCAL, REMOTE), target)
                .expect("multi-rack topology partitions");
            let start = Instant::now();
            sim.run_for(SimDuration::from_millis(20)).unwrap();
            best = best.min(start.elapsed().as_secs_f64());
            fingerprint = (sim.events_processed(), sim.now().as_nanos());
            shards = sim.shard_count();
        }
        (fingerprint, shards, best)
    };
    let (serial_fp, serial_shards, serial) = run(1);
    let (sharded_fp, shards, sharded) = run(4);
    assert_eq!(
        serial_shards, 1,
        "target 1 must fall back to the serial engine"
    );
    assert_eq!(shards, 4, "the four-rack ring must split into four shards");
    assert_eq!(
        serial_fp, sharded_fp,
        "sharded run must be bit-identical to serial"
    );
    r.metric("engine/sharded/shards", shards as f64, "shards");
    // The hardware's count: `DCTCP_JOBS` must not (dis)arm the floor.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.metric("engine/sharded/cores", cores as f64, "cores");
    r.metric(
        "engine/sharded/speedup_4shards",
        serial / sharded.max(1e-9),
        "x",
    );
}

/// Builds the k = 4 fat-tree (16 hosts, 1 Gb/s tiers, DCTCP switch
/// queues) with a full 16-host ring allreduce of 16 KB chunks
/// pre-scheduled on its `TransportHost`s — the fabric analogue of the
/// forwarding bench, exercising ECMP next-hop lookups, multi-queue
/// switches and the transport hot path together.
fn build_fattree_allreduce() -> FatTreeNet {
    const HOSTS: u32 = 16;
    let steps = CollectivePattern::RingAllreduce
        .transfers(HOSTS, 16 * 1024, 0, 1)
        .expect("valid allreduce");
    let mut per_host: Vec<Vec<ScheduledFlow>> = vec![Vec::new(); HOSTS as usize];
    let mut next = 1u64;
    for (s, step) in steps.iter().enumerate() {
        for &(src, dst, bytes) in step {
            per_host[src as usize].push(ScheduledFlow {
                flow: dctcp_sim::FlowId(next),
                dst: NodeId::from_index(dst as usize),
                bytes: Some(bytes),
                at: SimTime::ZERO + SimDuration::from_millis(1) * s as u64,
                cfg: TcpConfig::dctcp(1.0 / 16.0),
            });
            next += 1;
        }
    }
    let q = QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20));
    FatTree::new(4, 2)
        .with_tiers(
            TierSpec::new(LinkSpec::gbps(1.0, 5), q),
            TierSpec::new(LinkSpec::gbps(1.0, 10), q),
            TierSpec::new(LinkSpec::gbps(1.0, 20), q),
        )
        .ecmp_seed(7)
        .build(|i| {
            let mut host = TransportHost::new(TcpConfig::dctcp(1.0 / 16.0));
            for sf in per_host[i].drain(..) {
                host.schedule(sf);
            }
            Box::new(host)
        })
        .expect("valid fat-tree")
}

/// Times the fat-tree allreduce (min-of-batches, events/sec recorded).
/// Before the timed loop the same workload runs twice with tracing on —
/// serial and under the default shard split — and the merged trace
/// digests must be bit-identical, so the number below is anchored to a
/// digest-verified run, not just "some packets moved".
fn measure_fattree(r: &mut Runner) {
    const RUN: SimDuration = SimDuration::from_millis(40);
    let traced = |target: usize| {
        let mut sim =
            ShardedSimulator::with_shards(build_fattree_allreduce().network, target).unwrap();
        sim.enable_trace(dctcp_sim::TraceConfig::all());
        sim.run_for(RUN).unwrap();
        let digest = sim.take_trace().digest();
        (digest, sim.events_processed())
    };
    let (serial_digest, serial_events) = traced(1);
    let (sharded_digest, sharded_events) = traced(4);
    assert_eq!(
        (serial_digest, serial_events),
        (sharded_digest, sharded_events),
        "fat-tree allreduce must be bit-identical serial vs sharded"
    );
    r.bench_events(FATTREE_BENCH, || {
        let mut sim = ShardedSimulator::new(build_fattree_allreduce().network).unwrap();
        sim.run_for(RUN).unwrap();
        assert_eq!(
            sim.events_processed(),
            serial_events,
            "timed fat-tree run diverged from the digest-verified reference"
        );
        sim.events_processed()
    });
}

/// The scenario behind the cache measurement: a real (if small)
/// long-lived matrix of 2 markings × 2 flow counts = 4 cells.
const CACHE_BENCH_SCN: &str = "\
[scenario]
name = bench_cache
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2, 4
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[marking \"dt\"]
scheme = dt-dctcp
k1 = 15 pkts
k2 = 25 pkts
";

/// Times one scenario matrix cold (empty cache, every cell simulates)
/// and warm (every cell served from the cache), asserts the warm run
/// is hit-only with byte-identical output, and records the hit/miss
/// counts plus the warm-rerun speedup.
fn measure_cache(r: &mut Runner) {
    let spec = dctcp_scenario::ScenarioSpec::parse(CACHE_BENCH_SCN).expect("valid bench scenario");
    let dir = std::env::temp_dir().join(format!("dctcp-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dctcp_cache::Cache::new(&dir);
    let threads = dctcp_parallel::available_threads();

    let start = Instant::now();
    let (cold, stats) =
        dctcp_scenario::run_scenario_cached(&spec, threads, Some(&cache)).expect("cold run");
    let cold_elapsed = start.elapsed();
    assert_eq!(stats.hits, 0, "cold run must start from an empty cache");
    let misses = stats.misses;

    let start = Instant::now();
    let (warm, stats) =
        dctcp_scenario::run_scenario_cached(&spec, threads, Some(&cache)).expect("warm run");
    let warm_elapsed = start.elapsed();
    assert_eq!(stats.misses, 0, "warm run must re-simulate nothing");
    assert_eq!(
        warm.render(),
        cold.render(),
        "warm artifact must be byte-identical to cold"
    );

    let speedup = cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9);
    r.metric("cache/hits", stats.hits as f64, "cells");
    r.metric("cache/misses", misses as f64, "cells");
    r.metric("cache/warm_rerun_speedup", speedup, "x");

    // The supervised executor fronts the warm (all-hit) path too: key
    // derivation, journal lookup and the hit partition all run before a
    // single cell would simulate. Benchmark that path min-of-batches
    // and, against a same-machine committed baseline, record the ratio —
    // bench_check fails CI when supervision makes warm reruns more than
    // 2% slower than the committed baseline.
    r.bench(WARM_BENCH, || {
        let (warm, stats) = dctcp_scenario::run_scenario_supervised(&spec, threads, Some(&cache));
        assert_eq!(stats.misses, 0, "warm bench must stay hit-only");
        assert!(warm.failures.is_empty());
        warm.points.len()
    });
    let measured = r
        .records()
        .iter()
        .find(|rec| rec.name == WARM_BENCH)
        .map(|rec| rec.ns_per_iter as f64);
    if let (Some(baseline), Some(measured)) = (committed_ns_per_iter(WARM_BENCH), measured) {
        r.metric(
            "scenario/warm/supervision_overhead",
            measured / baseline,
            "x",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Times the DDE fluid sweep at the `fluid_scaleout` operating point
/// (400 Tb/s aggregate bottleneck, 100 µs RTT, K = 160k packets) over
/// the full `N = 10¹ … 10⁶` log grid, min-of-batches, and records the
/// sweep rate in points/sec. One point integrates 50 ms of model time
/// at a 1 µs step (50k RK4 steps through the delay history ring), so
/// the rate gates the integrator hot path: `bench_check` fails CI when
/// a committed report drops below its floor.
fn measure_fluid_sweep(r: &mut Runner) {
    let base = FluidParams {
        capacity_pps: 400e12 / (8.0 * 1500.0),
        flows: 1.0, // overwritten per sweep point
        rtt: 100e-6,
        g: 1.0 / 16.0,
        marking: FluidMarking::Relay { k: 160_000.0 },
        w_init: 1.0,
        alpha_init: 0.0,
        q_init: 0.0,
    };
    let flows = sweep::log_flows(1, 6, 1);
    let cfg = FluidRunConfig {
        dt: 1e-6,
        duration: 0.05,
        transient: 0.02,
        sample_every: 20,
    };
    r.bench(FLUID_BENCH, || {
        let points = sweep::sweep(&base, &flows, &cfg).expect("valid sweep point");
        let top = points.last().expect("non-empty sweep");
        assert!(
            top.utilization > 0.85 && top.osc_amplitude > 0.0,
            "N = 10^6 must saturate the fabric and oscillate"
        );
        points.len()
    });
    if let Some(rec) = r.records().iter().find(|rec| rec.name == FLUID_BENCH) {
        let points_per_sec = flows.len() as f64 * 1e9 / rec.ns_per_iter as f64;
        r.metric("fluid/sweep_1e6", points_per_sec, "points/sec");
    }
}

/// The open-loop churn workload behind the `engine/churn` bench: one
/// rack of 16 sources offering 80% of a 10 Gb/s bottleneck with
/// web-search sizes — the same regime as `scenarios/fct_churn.scn`,
/// shrunk to a bench-sized horizon. Slab-recycled senders, generation
/// tags and streaming sketches are all on the hot path.
fn churn_scenario() -> dctcp_workloads::FctScenario {
    dctcp_workloads::FctScenario::builder()
        .racks(1)
        .sources_per_rack(16)
        .bottleneck_gbps(10.0)
        .rtt_us(100.0)
        .load(0.8)
        .slots(4096)
        .seed(7)
        .warmup_secs(0.01)
        .duration_secs(0.2)
        .drain_secs(0.05)
        .build()
        .expect("valid churn bench scenario")
}

/// Measures flow churn: a reference run outside the timed loop records
/// heap allocations per completed flow (the recycled-slab guard — a
/// per-flow Box/Vec sneaking back in reads >= 1), then the timed loop
/// records events/sec and, from the same record, completed flows per
/// wall-clock second. `bench_check` enforces a flows/sec floor and an
/// allocs/flow ceiling on the committed report.
fn measure_churn(r: &mut Runner) {
    let scenario = churn_scenario();
    let before = ALLOCS.load(Ordering::Relaxed);
    let reference = scenario.run().expect("churn reference run");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(reference.aborted, 0, "churn bench must not abort flows");
    assert_eq!(
        reference.completed, reference.started,
        "every started flow must drain within the bench horizon"
    );
    assert!(
        reference.completed > 10_000,
        "churn bench too small to be meaningful: {} flows",
        reference.completed
    );
    // The reference run is a cold start: the measured allocations
    // include every one-time slab/sketch/timer-map growth, amortized
    // over the flows — the ceiling bounds the worst case, not a warmed
    // steady state.
    r.metric(
        "engine/churn/allocs_per_flow",
        allocs as f64 / reference.completed as f64,
        "allocs/flow",
    );

    r.bench_events(CHURN_BENCH, || {
        let report = scenario.run().expect("churn bench run");
        assert_eq!(
            (report.completed, report.events),
            (reference.completed, reference.events),
            "churn runs must be bit-identical"
        );
        report.events
    });
    if let Some(rec) = r.records().iter().find(|rec| rec.name == CHURN_BENCH) {
        r.metric(
            "engine/churn/flows_per_sec",
            reference.completed as f64 * 1e9 / rec.ns_per_iter as f64,
            "flows/sec",
        );
    }
}

/// Reads the ns/iter a previous run committed for `bench` from the JSON
/// report at the `--json` path — it must be read before
/// [`Runner::finish`] overwrites the file with this run's numbers.
fn committed_ns_per_iter(bench: &str) -> Option<f64> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--json" {
            path = args.next();
        }
    }
    let body = std::fs::read_to_string(path?).ok()?;
    let needle = format!("\"name\": \"{bench}\", \"ns_per_iter\": ");
    let rest = &body[body.find(&needle)? + needle.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

const FORWARD_BENCH: &str = "engine/forward/10k_packets_one_switch";
const CHURN_BENCH: &str = "engine/churn/open_loop_load08";
const FATTREE_BENCH: &str = "engine/fattree/k4_allreduce_16kb";
const WARM_BENCH: &str = "scenario/warm/rerun_4cells";
const FLUID_BENCH: &str = "fluid/sweep_1e6/six_decades";

fn main() {
    let mut r = Runner::from_env();
    const PKTS: u32 = 10_000;
    // Tracing stays disabled here: this bench doubles as the guard that
    // the trace instrumentation costs nothing when off (one branch per
    // hook). `trace_overhead` below compares against the committed
    // baseline; bench_check fails CI when it exceeds 1.02.
    r.bench_events(FORWARD_BENCH, || {
        let mut sim = build(PKTS);
        sim.run_for(SimDuration::from_millis(100)).unwrap();
        assert!(sim.events_processed() > 3 * PKTS as u64);
        sim.events_processed()
    });
    let measured = r
        .records()
        .iter()
        .find(|rec| rec.name == FORWARD_BENCH)
        .map(|rec| rec.ns_per_iter as f64);
    if let (Some(baseline), Some(measured)) = (committed_ns_per_iter(FORWARD_BENCH), measured) {
        r.metric("engine/forward/trace_overhead", measured / baseline, "x");
    }
    measure_forward_allocs(&mut r, PKTS);
    const FIRES: u32 = 20_000;
    r.bench_events("engine/timers/churn_set_cancel_20k", || {
        let mut sim = build_timer_churn(FIRES);
        sim.run_for(SimDuration::from_millis(50)).unwrap();
        assert!(sim.events_processed() >= FIRES as u64);
        sim.events_processed()
    });
    measure_sharded(&mut r);
    measure_churn(&mut r);
    measure_fattree(&mut r);
    measure_fluid_sweep(&mut r);
    measure_parallel_sweep(&mut r);
    measure_cache(&mut r);
    r.finish();
}
