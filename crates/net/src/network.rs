//! Network assembly and the single-threaded reference simulator.
//!
//! [`build_tiles`] builds one router + bridge per node of a tile set from a
//! [`NetworkConfig`] and wires the buffers between them; [`Network::new`] is
//! its all-tiles case. [`Network::run`] and
//! [`Network::run_to_completion`] are the *reference* cycle loop: posedge,
//! negedge, idle skipping, completion detection and deliberately nothing
//! else (no telemetry, profiling or checkpoints), because every other backend
//! is judged by bit-identity against it. The production loop is
//! `hornet_shard::driver::CycleDriver`, to which the `hornet-core` engine
//! lends the tiles ([`Network::take_tiles`]) for multi-threaded runs. Both
//! loops step tiles through one [`Stepper`] and move clocks with one
//! [`jump`] / [`skip_target`] pair.

use crate::agent::{NodeAgent, NodeIo};
use crate::bridge::Bridge;
use crate::codec::{self, Dec, Enc};
use crate::config::{ConfigError, NetworkConfig};
use crate::flit::{DeliveredPacket, Packet};
use crate::geometry::Geometry;
use crate::ids::{Cycle, NodeId, PacketId};
use crate::kernel::{KernelMode, Stepper};
use crate::payload::PayloadStore;
use crate::rng::TileRng;
use crate::router::{Router, RouterConfig};
use crate::routing::build_routing;
use crate::stats::NetworkStats;
use crate::vca::{VcAllocKind, VcaPolicy};
use hornet_obs::trace::{TraceDump, TraceEvent, TraceKind, TraceRing};
use std::sync::Arc;

/// Adapter giving agents packet-level access to the tile's bridge.
struct TileIo<'a> {
    bridge: &'a mut Bridge,
    stats: &'a mut NetworkStats,
    now: Cycle,
}

impl NodeIo for TileIo<'_> {
    fn node(&self) -> NodeId {
        self.bridge.node()
    }
    fn cycle(&self) -> Cycle {
        self.now
    }
    fn alloc_packet_id(&mut self) -> PacketId {
        self.bridge.alloc_packet_id()
    }
    fn send(&mut self, packet: Packet) {
        self.stats.offered_packets += 1;
        if let Err(e) = self.bridge.send(packet) {
            panic!("{e}");
        }
    }
    fn try_recv(&mut self) -> Option<DeliveredPacket> {
        self.bridge.try_recv()
    }
    fn peek_recv(&self) -> Option<&DeliveredPacket> {
        self.bridge.peek_recv()
    }
    fn injection_backlog(&self) -> usize {
        self.bridge.pending_packets()
    }
    fn recv_backlog(&self) -> usize {
        self.bridge.delivered_len()
    }
}

/// One tile of the simulated system: a router, its bridge, the locally
/// attached agents, and the tile-private PRNG.
pub struct NetworkNode {
    pub(crate) router: Router,
    pub(crate) bridge: Bridge,
    pub(crate) agents: Vec<Box<dyn NodeAgent>>,
    pub(crate) rng: TileRng,
    pub(crate) node: NodeId,
    /// Flit-lifecycle event ring; boxed so untraced tiles pay one pointer.
    /// Deliberately excluded from snapshots: the trace observes a run, it is
    /// not part of the simulated state.
    pub(crate) tracer: Option<Box<TraceRing>>,
}

impl std::fmt::Debug for NetworkNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkNode")
            .field("node", &self.node)
            .field("agents", &self.agents.len())
            .finish()
    }
}

impl NetworkNode {
    /// The node id of this tile.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Attaches an agent (traffic generator, CPU core, memory controller) to
    /// this tile.
    pub fn attach_agent(&mut self, agent: Box<dyn NodeAgent>) {
        self.agents.push(agent);
    }

    /// Immutable access to this tile's router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Mutable access to this tile's router.
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Immutable access to this tile's bridge.
    pub fn bridge(&self) -> &Bridge {
        &self.bridge
    }

    /// The router-facing neighbours of this tile (used by the sharded
    /// runtime to derive the cut set of a partition).
    pub fn neighbors(&self) -> &[NodeId] {
        self.router.neighbors()
    }

    /// This tile's statistics.
    pub fn stats(&self) -> &NetworkStats {
        self.router.stats()
    }

    /// Starts recording flit-lifecycle events (inject / route / eject) into
    /// a fresh ring of `capacity` events. Tracing observes the simulation
    /// without perturbing it: traced and untraced runs are bit-identical.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(TraceRing::new(capacity)));
    }

    /// Stops recording and discards the ring.
    pub fn disable_tracing(&mut self) {
        self.tracer = None;
    }

    /// The tile's trace ring, when tracing is enabled.
    pub fn tracer(&self) -> Option<&TraceRing> {
        self.tracer.as_deref()
    }

    /// Moves this tile's recorded events (and drop count) into `dump`,
    /// leaving the ring empty for the next window.
    pub fn drain_trace(&mut self, dump: &mut TraceDump) {
        if let Some(t) = &mut self.tracer {
            t.drain_into(dump);
        }
    }

    /// Positive clock edge: run the router pipeline and step the agents.
    pub fn posedge(&mut self, now: Cycle) {
        self.router
            .posedge_traced(now, &mut self.rng, self.tracer.as_deref_mut());
        self.tick_agents(now);
    }

    /// Steps the tile's agents (the non-router half of the positive edge; the
    /// compiled kernel runs the router pipeline itself and then calls this).
    pub(crate) fn tick_agents(&mut self, now: Cycle) {
        for agent in &mut self.agents {
            let mut io = TileIo {
                bridge: &mut self.bridge,
                stats: &mut self.router.stats,
                now,
            };
            agent.tick(&mut io, &mut self.rng);
        }
    }

    /// Negative clock edge: apply staged router moves, hand ejected flits to
    /// the bridge, and inject queued flits into the network.
    pub fn negedge(&mut self, now: Cycle) {
        self.router.negedge(now);
        self.negedge_bridge(now);
    }

    /// The bridge half of the negative edge: hand ejected flits to the bridge
    /// and inject queued flits into the network. Split out so the compiled
    /// kernel can apply the router's staged moves itself and still share this
    /// code path (FlitEject tracing included).
    pub(crate) fn negedge_bridge(&mut self, now: Cycle) {
        // Drain the delivery queue in place so its allocation is reused every
        // cycle (the router hot path never gives up scratch capacity).
        let (delivered, stats) = self.router.delivered_and_stats_mut();
        if !delivered.is_empty() {
            if let Some(t) = self.tracer.as_deref_mut() {
                for flit in delivered.iter() {
                    t.record(TraceEvent {
                        cycle: now,
                        node: self.node.raw(),
                        kind: TraceKind::FlitEject,
                        a: flit.packet.raw(),
                        b: flit.seq as u64,
                    });
                }
            }
            self.bridge.accept(delivered, now, stats);
        }
        self.bridge
            .inject_traced(now, self.router.stats_mut(), self.tracer.as_deref_mut());
    }

    /// True if the tile has no buffered flits and nothing queued for
    /// injection.
    pub fn is_idle(&self) -> bool {
        self.router.is_idle() && self.bridge.injection_idle()
    }

    /// Number of flits buffered in this tile's router.
    pub fn buffered_flits(&self) -> usize {
        self.router.buffered_flits()
    }

    /// Earliest future cycle at which an agent on this tile wants to act, for
    /// fast-forwarding.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut earliest: Option<Cycle> = None;
        if !self.bridge.injection_idle() {
            return Some(now + 1);
        }
        for agent in &self.agents {
            if let Some(e) = agent.next_event(now) {
                earliest = Some(earliest.map_or(e, |cur: Cycle| cur.min(e)));
            }
        }
        earliest
    }

    /// True once every agent on this tile reports completion.
    pub fn finished(&self) -> bool {
        self.agents.iter().all(|a| a.finished())
    }

    /// Sets the tile clock (used by fast-forwarding).
    pub fn set_cycle(&mut self, cycle: Cycle) {
        self.router.set_cycle(cycle);
    }

    /// Clears the tile's statistics (used to discard the warm-up window).
    /// Also clears the trace ring, so a trace covers exactly the measured
    /// window regardless of backend.
    pub fn reset_stats(&mut self) {
        *self.router.stats_mut() = NetworkStats::new();
        if let Some(t) = &mut self.tracer {
            t.clear();
        }
    }

    /// Serializes the tile's full state: the PRNG cursor, the router, every
    /// attached agent (each blob-framed so agents only ever decode their own
    /// record) and the bridge. Must be called between cycles.
    pub fn snapshot(&self, e: &mut Enc) {
        e.u32(self.node.raw());
        for w in self.rng.state() {
            e.u64(w);
        }
        self.router.snapshot(e);
        e.u32(self.agents.len() as u32);
        for agent in &self.agents {
            let mut sub = Enc::new();
            agent.snapshot(&mut sub);
            e.blob(sub.bytes());
        }
        self.bridge.snapshot(e);
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// freshly built tile. The tile must already have the same agents
    /// attached, in the same order, as when the snapshot was taken.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` if the tile identity, topology or agent roster
    /// does not match the checkpoint.
    pub fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        let corrupt = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let node = d.u32()?;
        if node != self.node.raw() {
            return Err(corrupt(format!(
                "tile checkpoint for node {node} restored into node {}",
                self.node.raw()
            )));
        }
        let mut state = [0u64; 4];
        for w in &mut state {
            *w = d.u64()?;
        }
        self.rng = TileRng::from_state(state);
        self.router.restore(d)?;
        if d.u32()? as usize != self.agents.len() {
            return Err(corrupt(format!(
                "agent roster mismatch on node {node}: the restored network \
                 must attach the same agents as the checkpointed one"
            )));
        }
        for agent in &mut self.agents {
            let blob = d.blob()?;
            agent.restore(&mut Dec::new(blob))?;
        }
        self.bridge.restore(d)?;
        Ok(())
    }
}

/// Moves every tile clock from `from` forward to `to` without simulating the
/// cycles in between, and counts them as fast-forwarded. Only sound while
/// nothing is buffered anywhere and no agent wants to act before `to + 1`.
pub fn jump(tiles: &mut [NetworkNode], from: Cycle, to: Cycle) {
    let skipped = to - from;
    for tile in tiles {
        tile.set_cycle(to);
        tile.router_mut().stats_mut().fast_forwarded_cycles += skipped;
    }
}

/// The cycle an idle system may [`jump`] to in a run that ends at `end`: one
/// before the earliest agent event, so that the event cycle itself is
/// simulated, or `end` when no agent will ever act again (`next_event ==
/// Cycle::MAX`). A result not beyond the current cycle means "do not skip".
pub fn skip_target(next_event: Cycle, end: Cycle) -> Cycle {
    if next_event == Cycle::MAX {
        end
    } else {
        next_event.min(end).saturating_sub(1)
    }
}

/// Builds the tiles `members` (node indices, each at most once) of the
/// network `config` describes, in the order given, plus the payload store
/// their bridges share. [`Network::new`] is the all-tiles case; a process
/// that hosts one shard builds that shard's members and nothing else.
///
/// A tile is a function of its node id alone: its PRNG seed, its packet ids
/// and its routing state do not depend on which other tiles are built, so a
/// tile comes out identical whichever set it is built in. Links between two
/// members are wired to each other's ingress buffers; an egress port toward
/// a node outside `members` is left unconnected for the shard wiring to
/// attach boundary links to.
///
/// # Errors
///
/// Returns the underlying [`ConfigError`] if the configuration fails
/// validation.
///
/// # Panics
///
/// Panics if a member is not a node of the geometry or appears twice.
pub fn build_tiles(
    config: &NetworkConfig,
    seed: u64,
    members: &[usize],
) -> Result<(Vec<NetworkNode>, Arc<PayloadStore>), ConfigError> {
    config.validate()?;
    let geometry = &config.geometry;
    let routing = build_routing(config.routing, geometry, &config.flows);

    // O1TURN / Valiant / ROMM need phase-separated VC sets to stay
    // deadlock-free; upgrade plain dynamic VCA accordingly.
    let vca_kind =
        if config.routing.needs_phase_separated_vcs() && config.vca == VcAllocKind::Dynamic {
            VcAllocKind::Phased
        } else {
            config.vca
        };

    let router_cfg = RouterConfig {
        vcs_per_port: config.vcs_per_port,
        vc_capacity: config.vc_capacity,
        injection_vcs: config.injection_vcs,
        injection_vc_capacity: config.injection_vc_capacity,
        link_bandwidth: config.link_bandwidth,
        ejection_bandwidth: config.ejection_bandwidth,
    };

    // Position of each member in `routers`, by node index.
    let mut slot: Vec<Option<usize>> = vec![None; geometry.node_count()];
    for (i, &m) in members.iter().enumerate() {
        assert!(
            slot[m].replace(i).is_none(),
            "node {m} appears twice among the tiles to build"
        );
    }
    let mut routers: Vec<Router> = members
        .iter()
        .map(|&m| {
            let n = NodeId::from(m);
            Router::new(
                n,
                geometry.neighbors(n),
                router_cfg.clone(),
                routing[m].clone(),
                VcaPolicy::from_kind(vca_kind),
            )
        })
        .collect();

    // Wire every egress port toward another member to that member's ingress
    // buffers.
    for a in 0..routers.len() {
        let from = routers[a].node();
        for &to in geometry.neighbors(from) {
            if let Some(b) = slot[to.index()] {
                let buffers = routers[b].ingress_buffers_from(from).to_vec();
                routers[a].connect_egress(to, buffers);
            }
        }
    }

    let payload_store = Arc::new(PayloadStore::new());
    let nodes = routers
        .into_iter()
        .map(|router| {
            let node = router.node();
            let mut bridge = Bridge::new(
                node,
                router.injection_buffers().to_vec(),
                config.link_bandwidth,
            );
            bridge.attach_payload_store(Arc::clone(&payload_store));
            let rng = TileRng::seed_from_u64(
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.raw() as u64 + 1)),
            );
            NetworkNode {
                router,
                bridge,
                agents: Vec::new(),
                rng,
                node,
                tracer: None,
            }
        })
        .collect();
    Ok((nodes, payload_store))
}

/// The assembled network plus the sequential reference simulator.
pub struct Network {
    nodes: Vec<NetworkNode>,
    payload_store: Arc<PayloadStore>,
    geometry: Geometry,
    cycle: Cycle,
    fast_forward: bool,
    kernel_mode: KernelMode,
    /// Built on the first cycle after construction or invalidation; `None`
    /// whenever the tiles may have changed behind it (see [`Stepper`]).
    stepper: Option<Stepper>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl Network {
    /// Builds routers, bridges and inter-router wiring from a configuration:
    /// [`build_tiles`] of every node.
    ///
    /// `seed` drives every tile's private PRNG (tile seeds are derived
    /// deterministically from it), so two runs with the same seed and
    /// configuration produce identical results — regardless of how many host
    /// threads later simulate the tiles.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] if the configuration fails
    /// validation.
    pub fn new(config: &NetworkConfig, seed: u64) -> Result<Self, ConfigError> {
        let all: Vec<usize> = (0..config.geometry.node_count()).collect();
        let (nodes, payload_store) = build_tiles(config, seed, &all)?;
        Ok(Self {
            nodes,
            payload_store,
            geometry: config.geometry.clone(),
            cycle: 0,
            fast_forward: false,
            kernel_mode: KernelMode::default(),
            stepper: None,
        })
    }

    /// Selects how the sequential simulator executes cycles: interpreter,
    /// compiled kernel, or auto-detection (the default). Takes effect on the
    /// next cycle; setting the mode already in force keeps the compiled
    /// kernel.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        if mode != self.kernel_mode {
            self.kernel_mode = mode;
            self.stepper = None;
        }
    }

    /// True if the compiled kernel will drive the next cycle (compiling it
    /// now if the decision is still pending).
    pub fn kernel_active(&mut self) -> bool {
        self.stepper
            .get_or_insert_with(|| Stepper::new(&self.nodes, self.kernel_mode))
            .kernel_active()
    }

    /// The geometry this network was assembled from (used by the sharded
    /// engine to build a topology-aware partition).
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Enables or disables fast-forwarding of idle periods (paper §IV-B).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Number of tiles.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shared payload store (the DMA side-channel).
    pub fn payload_store(&self) -> Arc<PayloadStore> {
        Arc::clone(&self.payload_store)
    }

    /// Access to one tile.
    pub fn node(&self, id: NodeId) -> &NetworkNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to one tile. Invalidates the compiled kernel's derived
    /// state (it is rebuilt — cheaply — before the next cycle).
    pub fn node_mut(&mut self, id: NodeId) -> &mut NetworkNode {
        self.stepper = None;
        &mut self.nodes[id.index()]
    }

    /// Lends the tiles out, e.g. to the sharded runtime, which rewires cut
    /// links and moves tiles across threads. The network has no tiles until
    /// [`put_tiles`](Self::put_tiles) returns them.
    pub fn take_tiles(&mut self) -> Vec<NetworkNode> {
        self.stepper = None;
        std::mem::take(&mut self.nodes)
    }

    /// Takes back the tiles lent by [`take_tiles`](Self::take_tiles), in
    /// their original order and all at `cycle`.
    pub fn put_tiles(&mut self, tiles: Vec<NetworkNode>, cycle: Cycle) {
        self.stepper = None;
        self.nodes = tiles;
        self.cycle = cycle;
    }

    /// Attaches an agent to a tile.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn NodeAgent>) {
        self.nodes[node.index()].attach_agent(agent);
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Enables flit-lifecycle tracing on every tile, each with its own ring
    /// of `capacity` events (per-tile rings keep the recorded sequence —
    /// including deterministic drop-newest truncation — a pure function of
    /// the workload, independent of how tiles are sharded across hosts).
    pub fn enable_tracing(&mut self, capacity: usize) {
        for node in &mut self.nodes {
            node.enable_tracing(capacity);
        }
    }

    /// Collects every tile's trace into one dump, in node-index order.
    pub fn drain_trace(&mut self) -> TraceDump {
        let mut dump = TraceDump::default();
        for node in &mut self.nodes {
            node.drain_trace(&mut dump);
        }
        dump
    }

    /// Consumes the network and returns its tiles (plus the payload store),
    /// for hosts that own their tiles outright (the distributed wiring keeps
    /// one shard's worth per process).
    pub fn into_nodes(self) -> (Vec<NetworkNode>, Arc<PayloadStore>) {
        (self.nodes, self.payload_store)
    }

    /// True if no flit is buffered anywhere and no injector has pending work.
    pub fn is_idle(&self) -> bool {
        self.nodes.iter().all(NetworkNode::is_idle)
    }

    /// Total flits currently buffered in the network.
    pub fn flits_in_flight(&self) -> usize {
        self.nodes.iter().map(NetworkNode::buffered_flits).sum()
    }

    /// Earliest future event across all tiles (for fast-forwarding).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.nodes.iter().filter_map(|n| n.next_event(now)).min()
    }

    /// True once every agent on every tile reports completion.
    pub fn finished(&self) -> bool {
        self.nodes.iter().all(NetworkNode::finished)
    }

    /// Advances the simulation by exactly one cycle.
    pub fn step(&mut self) {
        self.advance(self.cycle + 1, false);
    }

    /// Runs for `cycles` simulated cycles (honouring fast-forwarding when
    /// enabled).
    pub fn run(&mut self, cycles: Cycle) {
        self.advance(self.cycle + cycles, false);
    }

    /// Runs until every agent reports completion and the network has drained,
    /// or until `max_cycles` have elapsed (honouring fast-forwarding when
    /// enabled). Returns `true` if the simulation completed (did not hit the
    /// cycle limit).
    pub fn run_to_completion(&mut self, max_cycles: Cycle) -> bool {
        self.advance(self.cycle + max_cycles, true);
        self.finished() && self.is_idle()
    }

    /// The reference cycle loop: simulates up to cycle `end`, stopping early
    /// — with `until_complete` — once every agent has finished and the
    /// network has drained.
    fn advance(&mut self, end: Cycle, until_complete: bool) {
        let mut stepper = self
            .stepper
            .take()
            .unwrap_or_else(|| Stepper::new(&self.nodes, self.kernel_mode));
        while self.cycle < end {
            if until_complete && self.finished() && self.is_idle() {
                break;
            }
            if self.fast_forward && self.is_idle() {
                let next = self.next_event(self.cycle).unwrap_or(Cycle::MAX);
                let target = skip_target(next, end);
                if target > self.cycle {
                    jump(&mut self.nodes, self.cycle, target);
                    self.cycle = target;
                    continue;
                }
            }
            let now = self.cycle + 1;
            stepper.posedge(&mut self.nodes, now);
            stepper.negedge(&mut self.nodes, now);
            self.cycle = now;
        }
        self.stepper = Some(stepper);
    }

    /// Clears every tile's statistics (used to discard the warm-up window
    /// before the measured window, as in Table I's methodology).
    pub fn reset_stats(&mut self) {
        for node in &mut self.nodes {
            node.reset_stats();
        }
    }

    /// Merged statistics across all tiles.
    pub fn stats(&self) -> NetworkStats {
        let mut merged = NetworkStats::new();
        for node in &self.nodes {
            merged.merge(node.stats());
        }
        merged
    }

    /// Per-tile statistics (indexed by node), e.g. for thermal maps.
    pub fn per_node_stats(&self) -> Vec<NetworkStats> {
        self.nodes.iter().map(|n| n.stats().clone()).collect()
    }

    /// Serializes the full simulation state — the clock, every tile (PRNG,
    /// router, agents, bridge) and the out-of-band payload store — into a
    /// deterministic byte string. Restoring it into a freshly built network
    /// (same configuration, seed and agent roster) and running on produces
    /// results bit-identical to never having snapshotted at all.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.cycle);
        e.u32(self.nodes.len() as u32);
        for node in &self.nodes {
            let mut sub = Enc::new();
            node.snapshot(&mut sub);
            e.blob(sub.bytes());
        }
        let packets = self.payload_store.snapshot_packets();
        e.u32(packets.len() as u32);
        for p in &packets {
            codec::encode_packet(&mut e, p);
        }
        e.into_bytes()
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// freshly built network (same configuration, seed and agent roster).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` if the checkpoint does not match this
    /// network's shape or is corrupt.
    pub fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stepper = None;
        let mut d = Dec::new(bytes);
        self.cycle = d.u64()?;
        if d.u32()? as usize != self.nodes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint node count does not match this network",
            ));
        }
        for node in &mut self.nodes {
            let blob = d.blob()?;
            node.restore(&mut Dec::new(blob))?;
        }
        for _ in 0..d.u32()? {
            self.payload_store.deposit(codec::decode_packet(&mut d)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SinkAgent;
    use crate::flit::Packet;
    use crate::geometry::Geometry;
    use crate::ids::FlowId;
    use crate::rng::TileRng;
    use crate::router::VcState;
    use crate::routing::{FlowSpec, RoutingKind};

    /// Sends `count` packets from `src` to `dst`, one every `period` cycles.
    struct PeriodicSender {
        src: NodeId,
        dst: NodeId,
        node_count: usize,
        period: Cycle,
        remaining: u32,
        next_send: Cycle,
        packet_len: u32,
    }

    impl NodeAgent for PeriodicSender {
        fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
            if self.remaining > 0 && io.cycle() >= self.next_send {
                let id = io.alloc_packet_id();
                let packet = Packet::new(
                    id,
                    FlowId::for_pair(self.src, self.dst, self.node_count),
                    self.src,
                    self.dst,
                    self.packet_len,
                    io.cycle(),
                );
                io.send(packet);
                self.remaining -= 1;
                self.next_send = io.cycle() + self.period;
            }
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            (self.remaining > 0).then_some(self.next_send.max(now + 1))
        }
        fn finished(&self) -> bool {
            self.remaining == 0
        }
    }

    fn mesh_network(w: usize, h: usize, flows: Vec<FlowSpec>) -> Network {
        let cfg = NetworkConfig::new(Geometry::mesh2d(w, h))
            .with_routing(RoutingKind::Xy)
            .with_flows(flows);
        Network::new(&cfg, 42).expect("valid config")
    }

    #[test]
    fn packets_cross_a_mesh_and_are_counted() {
        let src = NodeId::new(0);
        let dst = NodeId::new(8);
        let flows = vec![FlowSpec::pair(src, dst, 9)];
        let mut net = mesh_network(3, 3, flows);
        net.attach_agent(
            src,
            Box::new(PeriodicSender {
                src,
                dst,
                node_count: 9,
                period: 10,
                remaining: 5,
                next_send: 0,
                packet_len: 4,
            }),
        );
        net.attach_agent(dst, Box::new(SinkAgent::new()));
        assert!(net.run_to_completion(5_000));
        let stats = net.stats();
        assert_eq!(stats.delivered_packets, 5);
        assert_eq!(stats.delivered_flits, 20);
        assert_eq!(stats.injected_packets, 5);
        assert!(stats.avg_packet_latency() > 0.0);
        assert_eq!(stats.routing_failures, 0);
        // 0 -> 8 on a 3x3 mesh is 4 hops.
        assert_eq!(stats.avg_hops(), 4.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let src = NodeId::new(2);
            let dst = NodeId::new(6);
            let flows = vec![FlowSpec::pair(src, dst, 9)];
            let cfg = NetworkConfig::new(Geometry::mesh2d(3, 3))
                .with_routing(RoutingKind::O1Turn)
                .with_flows(flows);
            let mut net = Network::new(&cfg, seed).unwrap();
            net.attach_agent(
                src,
                Box::new(PeriodicSender {
                    src,
                    dst,
                    node_count: 9,
                    period: 3,
                    remaining: 20,
                    next_send: 0,
                    packet_len: 4,
                }),
            );
            net.run_to_completion(10_000);
            net.stats().total_packet_latency
        };
        assert_eq!(run(7), run(7));
        // Different seeds may legitimately differ (O1TURN picks paths randomly),
        // but both must deliver all packets.
        let _ = run(8);
    }

    #[test]
    fn fast_forward_skips_idle_gaps_without_changing_results() {
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        let flows = vec![FlowSpec::pair(src, dst, 4)];
        let build = |ff: bool| {
            let cfg = NetworkConfig::new(Geometry::mesh2d(2, 2)).with_flows(flows.clone());
            let mut net = Network::new(&cfg, 1).unwrap();
            net.set_fast_forward(ff);
            net.attach_agent(
                src,
                Box::new(PeriodicSender {
                    src,
                    dst,
                    node_count: 4,
                    period: 500,
                    remaining: 3,
                    next_send: 0,
                    packet_len: 2,
                }),
            );
            net.attach_agent(dst, Box::new(SinkAgent::new()));
            net.run(2_000);
            net.stats()
        };
        let slow = build(false);
        let fast = build(true);
        assert_eq!(slow.delivered_packets, fast.delivered_packets);
        assert_eq!(slow.total_packet_latency, fast.total_packet_latency);
        assert!(
            fast.fast_forwarded_cycles > 0,
            "idle gaps should be skipped"
        );
        assert!(fast.simulated_cycles < slow.simulated_cycles);
    }

    /// An empty router built and wired like `r`, as `Router::restore`
    /// expects to find it.
    fn blank_like(r: &Router) -> Router {
        let mut blank = Router::new(
            r.node(),
            r.neighbors(),
            r.config().clone(),
            r.routing.clone(),
            r.vca.clone(),
        );
        for (i, &to) in r.neighbors().iter().enumerate() {
            let capacity = r.config().vc_capacity;
            let buffers = (0..r.egress[i].buffers.len())
                .map(|_| Arc::new(crate::vcbuf::VcBuffer::new(capacity)))
                .collect();
            blank.connect_egress(to, buffers);
        }
        blank
    }

    #[test]
    fn a_hostile_router_record_is_refused_or_restores_canonically() {
        // A 4×4 mesh where every tile sends to its mirror tile every cycle:
        // far past saturation, so the centre router holds routed and active
        // VCs, owned out-VCs and full buffers.
        let n = 16;
        let mirror = |i: u32| NodeId::new(n as u32 - 1 - i);
        let flows = (0..n as u32)
            .map(|i| FlowSpec::pair(NodeId::new(i), mirror(i), n))
            .collect();
        let mut net = mesh_network(4, 4, flows);
        for i in 0..n as u32 {
            let (src, dst) = (NodeId::new(i), mirror(i));
            let sender = PeriodicSender {
                src,
                dst,
                node_count: n,
                period: 1,
                remaining: u32::MAX,
                next_send: 0,
                packet_len: 3,
            };
            net.attach_agent(src, Box::new(sender));
        }
        net.run(300);
        let router = net.node(NodeId::new(5)).router();
        let mut e = Enc::new();
        router.snapshot(&mut e);
        let record = e.into_bytes();
        let states = &router.vc_state;
        assert!(states.iter().any(|s| matches!(s, VcState::Routed { .. })));
        assert!(states.iter().any(|s| matches!(s, VcState::Active { .. })));

        // Restores `bytes` into a blank router; if accepted, the router must
        // snapshot back to exactly the bytes it read.
        let accepts = |bytes: &[u8]| {
            let mut blank = blank_like(router);
            let mut d = Dec::new(bytes);
            if blank.restore(&mut d).is_err() {
                return false;
            }
            let mut again = Enc::new();
            blank.snapshot(&mut again);
            let read = bytes.len() - d.remaining();
            assert_eq!(again.bytes(), &bytes[..read], "accepted record re-encodes");
            true
        };
        assert!(accepts(&record));
        for cut in 0..record.len() {
            assert!(!accepts(&record[..cut]), "prefix of {cut} bytes accepted");
        }
        let mut flipped = record.clone();
        let mut accepted = 0;
        for i in 0..record.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[i] ^= mask;
                accepted += usize::from(accepts(&flipped));
                flipped[i] ^= mask;
            }
        }
        // Most flips land in counters, cycles and ids, which take any value.
        assert!(accepted > 0 && accepted < 3 * record.len());

        // A VC state naming an egress port or out-VC the router lacks would
        // send the next SA or VA out of bounds.
        let last_port = router.egress.len() - 1;
        for state in [
            VcState::Routed {
                egress: last_port + 1,
                next_flow: FlowId::new(0),
            },
            VcState::Active {
                egress: 0,
                out_vc: router.egress[0].out_state.len(),
                next_flow: FlowId::new(0),
            },
            VcState::Active {
                egress: last_port,
                out_vc: 1,
                next_flow: FlowId::new(0),
            },
        ] {
            let mut bad = blank_like(router);
            bad.vc_state[0] = state;
            let mut e = Enc::new();
            bad.snapshot(&mut e);
            let err = blank_like(router).restore(&mut Dec::new(e.bytes()));
            assert!(err.is_err(), "{state:?} accepted");
        }
    }

    #[test]
    fn payloads_reach_remote_destinations() {
        use crate::flit::Payload;
        struct OneShotSender {
            sent: bool,
        }
        impl NodeAgent for OneShotSender {
            fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
                if !self.sent {
                    let id = io.alloc_packet_id();
                    let packet = Packet::new(
                        id,
                        FlowId::for_pair(NodeId::new(0), NodeId::new(3), 4),
                        NodeId::new(0),
                        NodeId::new(3),
                        1,
                        io.cycle(),
                    )
                    .with_payload(Payload::from_words(&[1, 2, 3]));
                    io.send(packet);
                    self.sent = true;
                }
            }
            fn next_event(&self, now: Cycle) -> Option<Cycle> {
                (!self.sent).then_some(now + 1)
            }
            fn finished(&self) -> bool {
                self.sent
            }
        }
        struct PayloadChecker {
            got: Option<Vec<u64>>,
        }
        impl NodeAgent for PayloadChecker {
            fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
                if let Some(d) = io.try_recv() {
                    self.got = Some(d.packet.payload.words().to_vec());
                }
            }
            fn next_event(&self, _now: Cycle) -> Option<Cycle> {
                None
            }
            fn finished(&self) -> bool {
                self.got.is_some()
            }
        }
        let flows = vec![FlowSpec::pair(NodeId::new(0), NodeId::new(3), 4)];
        let cfg = NetworkConfig::new(Geometry::mesh2d(2, 2)).with_flows(flows);
        let mut net = Network::new(&cfg, 3).unwrap();
        net.attach_agent(NodeId::new(0), Box::new(OneShotSender { sent: false }));
        net.attach_agent(NodeId::new(3), Box::new(PayloadChecker { got: None }));
        assert!(net.run_to_completion(1_000));
        // Inspect the checker indirectly: completion implies it received the
        // packet; the payload store must be drained.
        assert!(net.payload_store().is_empty());
    }
}
