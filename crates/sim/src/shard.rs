//! Sharded event engine: conservative, bit-identical intra-run
//! parallelism.
//!
//! A [`ShardedSimulator`] splits one topology into *domains* (groups of
//! nodes), runs each domain on its own [`Simulator`] instance, and
//! synchronizes them with barrier-delimited time windows:
//!
//! 1. **Partition.** Link propagation delays induce the domains: for a
//!    delay threshold `D`, contracting every link with delay `< D`
//!    yields connected components whose *cross* links all have delay
//!    `≥ D`. The partitioner picks the largest `D` that still yields at
//!    least the requested number of components, then packs components
//!    onto shards (largest-remaining into least-loaded, ties to the
//!    lowest shard id — fully deterministic).
//! 2. **Lookahead.** `W = min` propagation delay over links whose
//!    endpoints land on different shards. A packet crossing shards at
//!    simulation time `s` arrives no earlier than `s + tx + W`, and
//!    serialization time `tx` is at least 1 ns (wire bytes are ≥ 40 and
//!    [`SimDuration::transmission`] rounds up), so arrivals land
//!    *strictly* after `s + W`.
//! 3. **Windows.** Each round, the driver first drains every shard's
//!    outgoing mailbox into the destination shards, then computes
//!    `E = min` pending event time across shards and runs every shard to
//!    `w_end = min(until, E + W)` behind a barrier
//!    ([`dctcp_parallel::drive_windows`]). Any cross packet generated in
//!    the window comes from an event at `s ≥ E` and thus arrives
//!    strictly after `w_end`: injection never lands in a shard's past.
//!
//! # Determinism
//!
//! Each shard is itself a serial, deterministic simulator; the only new
//! ordering question is where barrier-injected arrivals fall among a
//! shard's own events. The event queue orders by the **content-derived
//! key** `(at, sched, origin, counter)` — deadline, scheduling instant,
//! originating node, and that origin's monotone schedule count (see
//! [`crate::event`]). Every schedule attributed to an origin happens in
//! the shard that owns it, so by induction over windows each shard
//! draws exactly the counter values the serial engine would; a packet
//! crossing shards ships its full key through the mailbox and the
//! destination inserts it under that key verbatim. Serial and sharded
//! runs therefore dispatch *identical* event sequences — mailbox drain
//! order is irrelevant — and results are byte-identical to the serial
//! engine at any shard count, on every scenario in the test suite
//! (golden digests, chaos suite, artifact diff gate).
//!
//! # When it falls back to serial
//!
//! One node, one requested shard, a zero-delay cross link, or no cross
//! links at all: the wrapper silently runs the plain serial engine. The
//! `DCTCP_SIM_SHARDS` environment variable overrides the shard count
//! (`0`/`1` force serial); unset, it defaults to the machine's available
//! parallelism.

use std::env::VarError;
use std::sync::Arc;

use dctcp_parallel::{drive_windows, WindowError};
use dctcp_trace::{merge_logs, TraceConfig, TraceLog};

use crate::link::Link;
use crate::simulator::{CrossPacket, ShardCtx};
use crate::{
    Agent, FaultPlan, LinkId, Network, NodeId, QueueReport, SimDuration, SimError, SimTime,
    Simulator,
};

/// Node-count floor below which sharding is never attempted.
const MIN_NODES: usize = 2;

/// A computed domain decomposition of a topology.
#[derive(Debug)]
struct Partition {
    /// Node index → shard id.
    domain_of: Vec<u32>,
    /// Number of shards (≥ 2).
    shards: usize,
    /// Minimum propagation delay over cross-shard links (> 0).
    lookahead: SimDuration,
}

/// Union-find over node indices with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Computes the domain decomposition, or `None` when the topology (or
/// the requested count) does not admit a safe one.
fn partition(num_nodes: usize, links: &[Link], target: usize) -> Option<Partition> {
    if target <= 1 || num_nodes < MIN_NODES {
        return None;
    }
    // Candidate thresholds are the distinct link delays, largest first:
    // a larger threshold contracts more links, giving fewer components
    // but a larger guaranteed cross-link delay (= lookahead floor).
    let mut thresholds: Vec<SimDuration> = links.iter().map(|l| l.spec.delay).collect();
    thresholds.sort_unstable();
    thresholds.dedup();

    let components_for = |threshold: SimDuration| -> Vec<u32> {
        let mut uf = UnionFind::new(num_nodes);
        for l in links {
            if l.spec.delay < threshold {
                uf.union(l.ends[0].node.index() as u32, l.ends[1].node.index() as u32);
            }
        }
        (0..num_nodes as u32).map(|i| uf.find(i)).collect()
    };

    let count_components = |roots: &[u32]| -> usize {
        let mut seen = vec![false; roots.len()];
        let mut count = 0;
        for &r in roots {
            if !seen[r as usize] {
                seen[r as usize] = true;
                count += 1;
            }
        }
        count
    };

    // Largest threshold that still yields enough components; when even
    // no contraction (threshold = smallest delay) gives fewer than
    // `target` components, fall back to per-node domains.
    let mut chosen: Option<Vec<u32>> = None;
    for &threshold in thresholds.iter().rev() {
        let roots = components_for(threshold);
        if count_components(&roots) >= target {
            chosen = Some(roots);
            break;
        }
    }
    let roots = chosen.unwrap_or_else(|| (0..num_nodes as u32).collect());
    let num_components = count_components(&roots);
    let shards = target.min(num_components);
    if shards < 2 {
        return None;
    }

    // Components in first-appearance (min node index) order, with their
    // node counts.
    let mut order: Vec<u32> = Vec::new();
    let mut weight: Vec<u32> = Vec::new();
    let mut comp_index = vec![u32::MAX; num_nodes];
    for &r in &roots {
        if comp_index[r as usize] == u32::MAX {
            comp_index[r as usize] = order.len() as u32;
            order.push(r);
            weight.push(0);
        }
        weight[comp_index[r as usize] as usize] += 1;
    }
    // Greedy balance: biggest remaining component onto the least-loaded
    // shard, ties broken by lowest component / shard index. Sorting is
    // by (weight desc, appearance order asc) — deterministic.
    let mut by_size: Vec<usize> = (0..order.len()).collect();
    by_size.sort_by_key(|&c| (std::cmp::Reverse(weight[c]), c));
    let mut load = vec![0u32; shards];
    let mut bin_of_comp = vec![0u32; order.len()];
    for &c in &by_size {
        let bin = (0..shards).min_by_key(|&b| (load[b], b)).unwrap_or(0);
        bin_of_comp[c] = bin as u32;
        load[bin] += weight[c];
    }
    let domain_of: Vec<u32> = roots
        .iter()
        .map(|&r| bin_of_comp[comp_index[r as usize] as usize])
        .collect();

    // Lookahead: the minimum delay over links that actually cross
    // shards. No cross link, or a zero-delay one, means windowed
    // execution is pointless or unsafe to bound — run serial.
    let lookahead = links
        .iter()
        .filter(|l| domain_of[l.ends[0].node.index()] != domain_of[l.ends[1].node.index()])
        .map(|l| l.spec.delay)
        .min()?;
    if lookahead.is_zero() {
        return None;
    }
    Some(Partition {
        domain_of,
        shards,
        lookahead,
    })
}

/// Shard count requested by the value of `DCTCP_SIM_SHARDS`, passed in
/// as `std::env::var("DCTCP_SIM_SHARDS")`: the value if set, otherwise
/// the machine's available parallelism.
fn requested_shards(var: Result<String, VarError>) -> Result<usize, SimError> {
    match var {
        Err(VarError::NotPresent) => {
            Ok(std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        Err(VarError::NotUnicode(_)) => Err(SimError::InvalidConfig(
            "DCTCP_SIM_SHARDS is not valid unicode".into(),
        )),
        Ok(v) => v.trim().parse::<usize>().map_err(|_| {
            SimError::InvalidConfig(format!(
                "DCTCP_SIM_SHARDS={v:?} is not a non-negative integer"
            ))
        }),
    }
}

/// The sharded engine state when a decomposition was found.
#[derive(Debug)]
struct Sharded {
    shards: Vec<Simulator>,
    domain_of: Arc<Vec<u32>>,
    lookahead: SimDuration,
    /// Worker threads for the window barrier (1 ⇒ inline execution).
    threads: usize,
    now: SimTime,
    /// Whether agents' `on_start` callbacks have run.
    primed: bool,
    /// Scratch buffer reused across window exchanges.
    scratch: Vec<CrossPacket>,
}

#[derive(Debug)]
enum Mode {
    Serial(Box<Simulator>),
    Sharded(Sharded),
}

/// A drop-in simulator front end that transparently runs multi-domain
/// topologies on several cooperating [`Simulator`] shards — with results
/// **bit-identical** to the serial engine — and falls back to a single
/// serial instance whenever the topology does not decompose.
///
/// See the module-level docs in `crates/sim/src/shard.rs` for the
/// synchronization protocol and the determinism argument. Shard count
/// comes from `DCTCP_SIM_SHARDS` (or
/// the machine's parallelism) via [`ShardedSimulator::new`], or
/// explicitly via [`ShardedSimulator::with_shards`].
#[derive(Debug)]
pub struct ShardedSimulator {
    mode: Mode,
}

impl ShardedSimulator {
    /// Creates a sharded simulator with the environment-selected shard
    /// count (`DCTCP_SIM_SHARDS`, else available parallelism).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `DCTCP_SIM_SHARDS` is set
    /// but not a non-negative integer, and [`SimError::Param`] if the
    /// topology cannot be replicated per shard.
    pub fn new(network: Network) -> Result<Self, SimError> {
        let target = requested_shards(std::env::var("DCTCP_SIM_SHARDS"))?;
        Self::with_shards(network, target)
    }

    /// Creates a sharded simulator with an explicit shard-count target.
    /// The actual count may be lower (bounded by the number of domains)
    /// or 1 (serial fallback).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Param`] if the topology cannot be replicated
    /// per shard (cannot happen for a network built by
    /// [`TopologyBuilder`](crate::TopologyBuilder), whose configurations
    /// are already validated).
    pub fn with_shards(network: Network, target: usize) -> Result<Self, SimError> {
        let Some(part) = partition(network.nodes.len(), &network.links, target) else {
            return Ok(ShardedSimulator {
                mode: Mode::Serial(Box::new(Simulator::new(network))),
            });
        };
        let num_shards = part.shards;
        let domain_of = Arc::new(part.domain_of);
        let Network {
            nodes,
            links,
            routes,
        } = network;

        // Every shard gets the full topology: pristine link replicas and
        // identical routes, with real hosts only where it owns them (a
        // named switch stands in elsewhere — never dispatched to, since
        // arrivals for foreign nodes are intercepted at the sender).
        let mut shard_links: Vec<Vec<Link>> = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let replica: Result<Vec<Link>, _> = links.iter().map(Link::fresh_copy).collect();
            shard_links.push(replica.map_err(SimError::Param)?);
        }
        let mut shard_nodes: Vec<Vec<crate::node::Node>> = (0..num_shards)
            .map(|_| Vec::with_capacity(nodes.len()))
            .collect();
        for (i, node) in nodes.into_iter().enumerate() {
            let owner = domain_of[i] as usize;
            for (k, shard) in shard_nodes.iter_mut().enumerate() {
                if k != owner {
                    shard.push(crate::node::Node::Switch {
                        name: node.name().to_string(),
                    });
                }
            }
            shard_nodes[owner].push(node);
        }

        let mut shards = Vec::with_capacity(num_shards);
        for (id, (shard_nodes, shard_links)) in shard_nodes.into_iter().zip(shard_links).enumerate()
        {
            let mut sim = Simulator::new(Network {
                nodes: shard_nodes,
                links: shard_links,
                routes: routes.clone(),
            });
            sim.set_shard(ShardCtx {
                id: id as u32,
                domain_of: Arc::clone(&domain_of),
                outbox: Vec::new(),
            });
            shards.push(sim);
        }
        let threads = num_shards.min(dctcp_parallel::available_threads());
        Ok(ShardedSimulator {
            mode: Mode::Sharded(Sharded {
                shards,
                domain_of,
                lookahead: part.lookahead,
                threads,
                now: SimTime::ZERO,
                primed: false,
                scratch: Vec::new(),
            }),
        })
    }

    /// Number of shards actually driving this simulation (1 = serial).
    pub fn shard_count(&self) -> usize {
        match &self.mode {
            Mode::Serial(_) => 1,
            Mode::Sharded(s) => s.shards.len(),
        }
    }

    /// The conservative lookahead (minimum cross-shard propagation
    /// delay), or `None` in serial mode.
    pub fn lookahead(&self) -> Option<SimDuration> {
        match &self.mode {
            Mode::Serial(_) => None,
            Mode::Sharded(s) => Some(s.lookahead),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        match &self.mode {
            Mode::Serial(sim) => sim.now(),
            Mode::Sharded(s) => s.now,
        }
    }

    /// Total events dispatched across all shards. Cross-shard arrivals
    /// and replicated fault events are counted once, so this equals the
    /// serial engine's count for the same scenario.
    pub fn events_processed(&self) -> u64 {
        match &self.mode {
            Mode::Serial(sim) => sim.events_processed(),
            Mode::Sharded(s) => s.shards.iter().map(Simulator::events_processed).sum(),
        }
    }

    /// Advances the simulation to `until`. See [`Simulator::run_until`]
    /// for the error contract; a sharded run can additionally fail with
    /// [`SimError::ShardPanicked`].
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed failing shard's error.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), SimError> {
        match &mut self.mode {
            Mode::Serial(sim) => sim.run_until(until),
            Mode::Sharded(s) => s.run_until(until),
        }
    }

    /// Advances the simulation by `duration`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedSimulator::run_until`].
    pub fn run_for(&mut self, duration: SimDuration) -> Result<(), SimError> {
        self.run_until(self.now() + duration)
    }

    /// Installs a fault plan. Sharded runs install it into every shard
    /// (each applies the state change; one owner per fault traces and
    /// counts it).
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::install_faults`].
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        match &mut self.mode {
            Mode::Serial(sim) => sim.install_faults(plan),
            Mode::Sharded(s) => {
                for sim in &mut s.shards {
                    sim.install_faults(plan)?;
                }
                Ok(())
            }
        }
    }

    /// Turns on event tracing (see [`Simulator::enable_trace`]). Each
    /// shard records only the queues it owns; [`Self::take_trace`]
    /// merges the logs chronologically.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        match &mut self.mode {
            Mode::Serial(sim) => sim.enable_trace(cfg),
            Mode::Sharded(s) => {
                for sim in &mut s.shards {
                    sim.enable_trace(cfg);
                }
            }
        }
    }

    /// Whether event tracing is currently recording.
    pub fn trace_enabled(&self) -> bool {
        match &self.mode {
            Mode::Serial(sim) => sim.trace_enabled(),
            Mode::Sharded(s) => s.shards.iter().any(Simulator::trace_enabled),
        }
    }

    /// Takes the recorded trace (merged across shards), leaving tracing
    /// disabled.
    pub fn take_trace(&mut self) -> TraceLog {
        match &mut self.mode {
            Mode::Serial(sim) => sim.take_trace(),
            Mode::Sharded(s) => {
                merge_logs(s.shards.iter_mut().map(Simulator::take_trace).collect())
            }
        }
    }

    /// Installs a cooperative cancellation token on every shard.
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        match &mut self.mode {
            Mode::Serial(sim) => sim.set_cancel_token(token),
            Mode::Sharded(s) => {
                for sim in &mut s.shards {
                    sim.set_cancel_token(token.clone());
                }
            }
        }
    }

    /// Sets the per-instant livelock threshold on every shard.
    pub fn set_livelock_threshold(&mut self, threshold: u64) {
        self.for_each(|sim| sim.set_livelock_threshold(threshold));
    }

    /// Caps events per `run_until` call, per shard.
    pub fn set_event_budget(&mut self, budget: Option<u64>) {
        self.for_each(|sim| sim.set_event_budget(budget));
    }

    /// Restarts the statistics window of every queue and transmitter.
    pub fn reset_all_queue_stats(&mut self) {
        self.for_each(Simulator::reset_all_queue_stats);
    }

    /// Downcasts the agent at `node` (owned by exactly one shard).
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::agent`].
    pub fn agent<T: Agent>(&self, node: NodeId) -> Result<&T, SimError> {
        self.owner_of(node)?.agent(node)
    }

    /// Mutable variant of [`ShardedSimulator::agent`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::agent_mut`].
    pub fn agent_mut<T: Agent>(&mut self, node: NodeId) -> Result<&mut T, SimError> {
        self.owner_of_mut(node)?.agent_mut(node)
    }

    /// Occupancy/counters report for the queue on `link` transmitting
    /// from `from` (the queue lives with `from`'s owner shard).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn queue_report(&self, link: LinkId, from: NodeId) -> QueueReport {
        self.owner_or_first(from).queue_report(link, from)
    }

    /// Link utilization measured at `from`'s transmitter.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn link_utilization(&self, link: LinkId, from: NodeId) -> f64 {
        self.owner_or_first(from).link_utilization(link, from)
    }

    /// Bytes sent from `from` on `link` since the last stats reset.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn link_bytes_sent(&self, link: LinkId, from: NodeId) -> u64 {
        self.owner_or_first(from).link_bytes_sent(link, from)
    }

    /// Current queue occupancy in packets on `link` transmitting from
    /// `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn queue_len_pkts(&self, link: LinkId, from: NodeId) -> u32 {
        self.owner_or_first(from).queue_len_pkts(link, from)
    }

    /// Whether `link` is currently up (consistent across shards: fault
    /// state is replicated).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLink`] if `link` is not in this
    /// topology.
    pub fn link_is_up(&self, link: LinkId) -> Result<bool, SimError> {
        self.first().link_is_up(link)
    }

    /// Ids of every link in the topology, in creation order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.first().link_ids()
    }

    /// The name given to a node at topology construction.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.first().node_name(node)
    }

    fn for_each(&mut self, f: impl Fn(&mut Simulator)) {
        match &mut self.mode {
            Mode::Serial(sim) => f(sim),
            Mode::Sharded(s) => s.shards.iter_mut().for_each(f),
        }
    }

    fn first(&self) -> &Simulator {
        match &self.mode {
            Mode::Serial(sim) => sim.as_ref(),
            Mode::Sharded(s) => &s.shards[0],
        }
    }

    fn owner_or_first(&self, node: NodeId) -> &Simulator {
        match self.owner_of(node) {
            Ok(sim) => sim,
            Err(_) => self.first(),
        }
    }

    fn owner_of(&self, node: NodeId) -> Result<&Simulator, SimError> {
        match &self.mode {
            Mode::Serial(sim) => Ok(sim.as_ref()),
            Mode::Sharded(s) => {
                let owner = *s
                    .domain_of
                    .get(node.index())
                    .ok_or(SimError::UnknownNode(node))?;
                Ok(&s.shards[owner as usize])
            }
        }
    }

    fn owner_of_mut(&mut self, node: NodeId) -> Result<&mut Simulator, SimError> {
        match &mut self.mode {
            Mode::Serial(sim) => Ok(sim.as_mut()),
            Mode::Sharded(s) => {
                let owner = *s
                    .domain_of
                    .get(node.index())
                    .ok_or(SimError::UnknownNode(node))?;
                Ok(&mut s.shards[owner as usize])
            }
        }
    }
}

impl Sharded {
    fn run_until(&mut self, until: SimTime) -> Result<(), SimError> {
        if until < self.now {
            return Err(SimError::TimeReversal {
                now: self.now,
                requested: until,
            });
        }
        if !self.primed {
            self.primed = true;
            for sim in &mut self.shards {
                sim.prime();
            }
        }
        let domain_of = Arc::clone(&self.domain_of);
        let lookahead = self.lookahead;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut done = false;
        let result = drive_windows(
            &mut self.shards,
            self.threads,
            |shards| {
                if done {
                    return None;
                }
                // Exchange: drain every outbox into the receivers. Each
                // packet carries its full event key, so delivery order
                // here cannot affect results. Cross packets left over
                // from a previous `run_until` call are delivered too.
                for sim in shards.iter_mut() {
                    sim.take_outbox(&mut scratch);
                }
                for cp in scratch.drain(..) {
                    shards[domain_of[cp.node.index()] as usize].inject_arrival(cp);
                }
                // Conservative window bound: no event before E exists
                // anywhere, so every cross packet generated in the
                // window arrives strictly after E + lookahead.
                let horizon = shards.iter().filter_map(Simulator::peek_event_time).min();
                let w_end = match horizon {
                    Some(e) if e <= until => (e + lookahead).min(until),
                    _ => until,
                };
                if w_end >= until {
                    done = true;
                }
                Some(w_end)
            },
            |_idx, sim, w_end| sim.run_until(w_end),
        );
        self.scratch = scratch;
        match result {
            Ok(()) => {
                self.now = until;
                Ok(())
            }
            Err(WindowError::Job { error, .. }) => Err(error),
            Err(WindowError::Panic { index, panic }) => Err(SimError::ShardPanicked {
                shard: index,
                message: panic.message,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Ecn, FlowId, LinkSpec, Packet, PacketKind, QueueConfig, TopologyBuilder};
    use std::any::Any;

    /// Sends `count` packets to `peer` at start; counts acks.
    #[derive(Debug)]
    struct Pinger {
        peer: NodeId,
        count: u32,
        acked: u32,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.count {
                let mut p = Packet::data(FlowId(1), ctx.node(), self.peer, i as u64, 960);
                p.ecn = Ecn::Ect;
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
            assert_eq!(pkt.kind, PacketKind::Ack);
            self.acked += 1;
            let _ = ctx;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Acks every data packet.
    #[derive(Debug)]
    struct Echo {
        received: u32,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
            self.received += 1;
            ctx.send(Packet::ack(pkt.flow, ctx.node(), pkt.src, pkt.end_seq()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two racks joined by a long trunk: h1—s1 ==trunk== s2—h2.
    fn two_rack_network(count: u32) -> Network {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count,
                acked: 0,
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let rack = LinkSpec::gbps(10.0, 2);
        let trunk = LinkSpec::gbps(10.0, 50);
        b.link(
            h1,
            s1,
            rack,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            s1,
            s2,
            trunk,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            s2,
            h2,
            rack,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn partition_splits_on_the_long_trunk() {
        let net = two_rack_network(1);
        let part = partition(net.nodes.len(), &net.links, 2).expect("partitions");
        assert_eq!(part.shards, 2);
        assert_eq!(part.lookahead, SimDuration::from_micros(50));
        // h1 (0) with s1 (2); h2 (1) with s2 (3).
        assert_eq!(part.domain_of[0], part.domain_of[2]);
        assert_eq!(part.domain_of[1], part.domain_of[3]);
        assert_ne!(part.domain_of[0], part.domain_of[1]);
    }

    #[test]
    fn partition_declines_degenerate_inputs() {
        let net = two_rack_network(1);
        assert!(partition(net.nodes.len(), &net.links, 1).is_none());
        assert!(partition(net.nodes.len(), &net.links, 0).is_none());
        assert!(partition(1, &[], 4).is_none());
    }

    #[test]
    fn uniform_delay_topologies_shard_per_node() {
        // A star with equal delays everywhere has no natural cut; the
        // partitioner falls back to per-node domains, which is still
        // bit-identical (just more synchronization).
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 4,
                acked: 0,
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let s = b.switch("s");
        let spec = LinkSpec::gbps(1.0, 10);
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
        let net = b.build().unwrap();
        let part = partition(net.nodes.len(), &net.links, 2).expect("partitions");
        assert_eq!(part.shards, 2);
        assert_eq!(part.lookahead, SimDuration::from_micros(10));
    }

    fn run_counts(target: usize, count: u32) -> (u64, u32, u32) {
        let mut sim = ShardedSimulator::with_shards(two_rack_network(count), target).unwrap();
        if target >= 2 {
            assert!(sim.shard_count() >= 2, "expected a sharded run");
        }
        sim.run_for(SimDuration::from_millis(5)).unwrap();
        let h1 = NodeId::from_index(0);
        let h2 = NodeId::from_index(1);
        let acked = sim.agent::<Pinger>(h1).unwrap().acked;
        let received = sim.agent::<Echo>(h2).unwrap().received;
        (sim.events_processed(), acked, received)
    }

    #[test]
    fn sharded_matches_serial_exactly() {
        let serial = run_counts(1, 64);
        assert_eq!(serial.1, 64);
        assert_eq!(serial.2, 64);
        for target in [2, 4] {
            assert_eq!(run_counts(target, 64), serial, "target {target}");
        }
    }

    #[test]
    fn sharded_trace_digest_matches_serial() {
        let run = |target: usize| {
            let mut sim = ShardedSimulator::with_shards(two_rack_network(32), target).unwrap();
            sim.enable_trace(TraceConfig::all());
            sim.run_for(SimDuration::from_millis(5)).unwrap();
            sim.take_trace()
        };
        let serial = run(1);
        assert_eq!(serial.dropped, 0);
        let sharded = run(2);
        assert_eq!(sharded.dropped, 0);
        assert_eq!(serial.digest(), sharded.digest());
        assert_eq!(serial.events.len(), sharded.events.len());
    }

    #[test]
    fn sharded_run_is_resumable() {
        let mut a = ShardedSimulator::with_shards(two_rack_network(16), 2).unwrap();
        let mut b = ShardedSimulator::with_shards(two_rack_network(16), 2).unwrap();
        a.run_for(SimDuration::from_millis(5)).unwrap();
        // Same total horizon, but in uneven pieces (some cutting through
        // mid-flight windows).
        for step_us in [3, 7, 90, 400, 4500] {
            b.run_for(SimDuration::from_micros(step_us)).unwrap();
        }
        b.run_until(SimTime::from_nanos(5_000_000)).unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(
            a.agent::<Pinger>(NodeId::from_index(0)).unwrap().acked,
            b.agent::<Pinger>(NodeId::from_index(0)).unwrap().acked,
        );
    }

    #[test]
    fn sharded_time_reversal_is_typed() {
        let mut sim = ShardedSimulator::with_shards(two_rack_network(1), 2).unwrap();
        sim.run_until(SimTime::from_nanos(1000)).unwrap();
        let err = sim.run_until(SimTime::from_nanos(10)).unwrap_err();
        assert!(matches!(err, SimError::TimeReversal { .. }), "{err:?}");
    }

    #[test]
    fn faults_apply_identically_under_sharding() {
        let run = |target: usize| {
            let net = two_rack_network(32);
            let trunk = LinkId::from_index(1);
            let mut sim = ShardedSimulator::with_shards(net, target).unwrap();
            let plan = FaultPlan::new()
                .at(
                    SimTime::from_nanos(20_000),
                    trunk,
                    crate::FaultAction::LinkDown,
                )
                .at(
                    SimTime::from_nanos(400_000),
                    trunk,
                    crate::FaultAction::LinkUp,
                );
            sim.install_faults(&plan).unwrap();
            sim.run_for(SimDuration::from_millis(5)).unwrap();
            (
                sim.events_processed(),
                sim.agent::<Pinger>(NodeId::from_index(0)).unwrap().acked,
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial.1, 32, "all packets delivered after link recovery");
    }

    #[test]
    fn shard_request_is_parsed_from_the_variable_value() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(requested_shards(Err(VarError::NotPresent)), Ok(cores));
        assert_eq!(requested_shards(Ok(" 2 ".into())), Ok(2));
        let serial = requested_shards(Ok("0".into())).unwrap();
        let sim = ShardedSimulator::with_shards(two_rack_network(1), serial).unwrap();
        assert_eq!(sim.shard_count(), 1, "0 must force the serial engine");
        let err = requested_shards(Ok("abc".into())).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig(m) if m.contains("\"abc\"")),
            "{err:?}"
        );
    }
}
