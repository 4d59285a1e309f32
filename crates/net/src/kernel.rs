//! The compiled shard-local cycle kernel.
//!
//! The router pipeline exists once, in [`router`](crate::router), as stages
//! that are functions of one ingress VC. The interpreter calls every stage on
//! every VC of every tile each cycle; that per-object, per-VC walk is the
//! overhead the BEE and Parendi lines of work remove by *compiling* the
//! simulated fabric into flat batched execution streams. [`MeshKernel`] is
//! that move for a shard of tiles, and it changes only the *enumeration*: at
//! build time it lowers the shard's routers into per-tile 64-bit masks, one
//! per pipeline predicate (absorbed head present, Routed, Active, Dropping,
//! pushed-since-last-edge), and each cycle it sweeps one stage at a time
//! across all tiles, calling the router's own stage on the set bits only and
//! folding the transition the stage reports back into the masks.
//!
//! What lives here is therefore what the interpreter does not need:
//! [`compile`](MeshKernel::compile), the absorb pass with its quiet-tile
//! triage, the stage-major sweep order, per-stage timing and the mask
//! bookkeeping. Two properties make that fast:
//!
//! * **Quiet tiles cost O(1).** A tile with no buffered flit skips absorb,
//!   SA, VA and RC entirely (one load of the router's aggregate counter +
//!   clearing any stale head stamps, found by bitmask). Per-cycle cost scales
//!   with *activity*, not with fabric size.
//! * **Untouched VCs cost nothing.** A VC is re-absorbed only when something
//!   pushed into it since the previous positive edge: a neighbour tile's
//!   staged move (resolved through a frozen egress→VC table), a bridge
//!   injection, or a boundary delivery
//!   ([`note_external_push`](MeshKernel::note_external_push)). For an
//!   untouched VC the interpreter's absorb is a provable no-op, so skipping
//!   it is invisible.
//!
//! The kernel holds **no authoritative state**: VC state machines, head
//! stamps, staged moves, statistics and the clock all stay on the routers, so
//! snapshot/restore, telemetry and the ledger read the tiles exactly as they
//! do under the interpreter, with no flush step. Since both sides run the
//! same stage bodies — same per-tile RNG draws, same stat counting — the only
//! thing that can make a kernel run differ from an interpreter run is a mask
//! that disagrees with the state it summarises; the unit test below and
//! `kernel_equivalence.rs` check exactly that. Stage-major execution across
//! tiles is safe because positive-edge cross-tile reads (occupancy, free
//! space) are phase-stable: buffers change only at the negative edge.
//!
//! Eligibility is structural only — routing never enters into it: the
//! adaptive RC branch (downstream free-space probe, one tie-break draw per
//! candidate from the tile's own RNG) is reached through the same
//! `idle & head_mask` sweep as table routing, and its probe is one of the
//! phase-stable reads above. [`MeshKernel::compile`] returns `None` for
//! more than 64 VCs on one tile (one mask word) and egress channels pointing
//! outside the compiled tile set (their pushes would escape the dirty
//! tracking). [`Stepper`] — the only product caller of `compile` and the
//! only place that chooses between the two enumerations — interprets
//! instead.

use crate::boundary::EgressChannel;
use crate::ids::Cycle;
use crate::network::NetworkNode;
use crate::router::{Applied, StageScratch, VcState};
use crate::vcbuf::VcBuffer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a backend executes router cycles: interpreter, compiled kernel, or
/// auto-detection.
///
/// `Auto` (the default) compiles the kernel whenever the configuration is
/// eligible and honours the `HORNET_KERNEL` environment variable (`off`
/// disables, `on`/`force` insists). Explicit `Off`/`Force` always win over
/// the environment, so programmatic selections are immune to it.
/// Eligibility is structural (at most 64 VCs per tile) and independent of
/// the routing and VC-allocation algorithms; `Force` still falls back to the
/// interpreter when the configuration is ineligible — both paths are
/// bit-identical, so the choice is purely about speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Use the kernel when eligible; consult `HORNET_KERNEL`.
    #[default]
    Auto,
    /// Always interpret.
    Off,
    /// Use the kernel whenever the configuration is eligible, ignoring the
    /// environment.
    Force,
}

impl KernelMode {
    /// Applies the `HORNET_KERNEL` environment override (consulted only in
    /// `Auto` mode).
    pub fn resolved(self) -> KernelMode {
        match self {
            KernelMode::Auto => match std::env::var("HORNET_KERNEL") {
                Ok(v) => match v.to_ascii_lowercase().as_str() {
                    "off" | "0" | "interp" | "interpreter" => KernelMode::Off,
                    "on" | "1" | "force" | "kernel" => KernelMode::Force,
                    _ => KernelMode::Auto,
                },
                Err(_) => KernelMode::Auto,
            },
            explicit => explicit,
        }
    }

    /// True unless the resolved mode disables the kernel.
    pub fn enabled(self) -> bool {
        !matches!(self.resolved(), KernelMode::Off)
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelMode::Auto),
            "off" | "interp" | "interpreter" => Ok(KernelMode::Off),
            "on" | "force" | "kernel" => Ok(KernelMode::Force),
            other => Err(format!(
                "unknown kernel mode {other:?} (expected auto|off|force)"
            )),
        }
    }
}

/// Executes clock edges on one fixed set of tiles — through the compiled
/// [`MeshKernel`] when the mode allows it and the configuration is eligible,
/// through the per-router interpreter otherwise. The only place that makes
/// that choice, so every cycle loop steps tiles the same way.
///
/// A stepper is derived state: rebuild it whenever the tile set it was built
/// from is rewired, reordered, restored from a snapshot or otherwise mutated
/// behind its back.
#[derive(Debug)]
pub struct Stepper {
    kernel: Option<Box<MeshKernel>>,
}

impl Stepper {
    /// Compiles `tiles` when `mode` enables the kernel and the configuration
    /// is eligible; interprets otherwise.
    pub fn new(tiles: &[NetworkNode], mode: KernelMode) -> Self {
        let kernel = if mode.enabled() {
            MeshKernel::compile(tiles, false).map(Box::new)
        } else {
            None
        };
        Self { kernel }
    }

    /// True if the compiled kernel (not the interpreter) steps the tiles.
    pub fn kernel_active(&self) -> bool {
        self.kernel.is_some()
    }

    /// Positive clock edge of cycle `now` on every tile.
    pub fn posedge(&mut self, tiles: &mut [NetworkNode], now: Cycle) {
        match &mut self.kernel {
            Some(k) => k.posedge(tiles, now),
            None => tiles.iter_mut().for_each(|t| t.posedge(now)),
        }
    }

    /// Negative clock edge of cycle `now` on every tile.
    pub fn negedge(&mut self, tiles: &mut [NetworkNode], now: Cycle) {
        match &mut self.kernel {
            Some(k) => k.negedge(tiles, now),
            None => tiles.iter_mut().for_each(|t| t.negedge(now)),
        }
    }

    /// Tells the kernel about a push it did not make itself (a boundary
    /// delivery from another shard); the interpreter needs no such hint.
    pub fn note_external_push(&mut self, buf: &Arc<VcBuffer>) {
        if let Some(k) = &mut self.kernel {
            k.note_external_push(buf);
        }
    }
}

/// Accumulated wall-clock time per kernel pipeline stage (all zero unless
/// timing was enabled at compile time).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Absorb + head-stamp read + quiet-tile triage.
    pub absorb: Duration,
    /// Switch arbitration (per flit).
    pub sa: Duration,
    /// VC allocation (per packet).
    pub va: Duration,
    /// Route computation (per packet).
    pub rc: Duration,
    /// Negative edge, router half: staged moves and drops.
    pub negedge: Duration,
    /// Negative edge, bridge half: ejected-flit hand-off and injection.
    pub bridge: Duration,
}

/// Packs a VC's location — its tile and its bit in the tile's masks, which is
/// also its flat VC index on the tile's router.
#[inline]
fn pack_loc(tile: usize, bit: usize) -> u64 {
    ((tile as u64) << 6) | bit as u64
}

/// The set bits of `m`, ascending.
#[inline]
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            b
        })
    })
}

/// The compiled cycle kernel for one shard's tiles (see the module docs).
pub struct MeshKernel {
    /// `Arc::as_ptr` of every ingress VC buffer → packed (tile, bit), for
    /// marking the VC dirty when a push the kernel did not make lands in it.
    by_ptr: HashMap<usize, u64>,
    /// Bits covering each tile's injection-port VCs (bridge injections).
    inj_mask: Vec<u64>,
    /// Bits covering each tile's full VC range.
    valid: Vec<u64>,
    // --- per-tile pipeline predicates (bit set ⇔ predicate holds) ---
    /// The router's cached head stamp is not `Cycle::MAX`: the VC has an
    /// absorbed head flit.
    head_mask: Vec<u64>,
    /// VC state is `Routed`.
    routed: Vec<u64>,
    /// VC state is `Active`.
    active: Vec<u64>,
    /// VC state is `Dropping`.
    dropping: Vec<u64>,
    /// VC received a push since the last positive edge and needs its absorb
    /// boundary advanced (and, if it had no absorbed head, its head stamp
    /// read). Pops need no mask: the negative-edge stages re-read the stamp
    /// in place.
    dirty: Vec<u64>,
    /// Tiles with at least one buffered flit this positive edge.
    busy: Vec<u32>,
    /// The stages' working memory, one set for all tiles.
    scratch: StageScratch,
    /// Widest egress port across all tiles (in downstream VCs).
    stride: usize,
    /// Packed (tile, bit) of the ingress VC each local egress channel feeds,
    /// indexed `tile * egress_stride + egress * stride + out_vc`
    /// (`u64::MAX` for ejection/non-local channels). Topology is static, so
    /// resolving push targets through this flat table replaces a per-move
    /// `by_ptr` hash lookup on the negative edge.
    egress_target: Vec<u64>,
    /// Row length of `egress_target` per tile (`max_egress * stride`).
    egress_stride: usize,
    timing: bool,
    times: StageTimes,
}

impl std::fmt::Debug for MeshKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshKernel")
            .field("tiles", &self.valid.len())
            .field("vcs", &self.by_ptr.len())
            .finish()
    }
}

impl MeshKernel {
    /// Lowers `nodes` into the kernel's masks, or returns `None` if the
    /// configuration is structurally ineligible (more than 64 VCs on one
    /// tile, or a local egress channel pointing outside `nodes` — e.g. a
    /// direct router-level wiring the network builder did not produce). The
    /// routing policy is not consulted.
    ///
    /// Compiling is cheap — O(total VCs) — and may be repeated freely, e.g.
    /// after a snapshot restore; all masks are derived from the routers'
    /// current architectural state and every VC starts dirty.
    pub fn compile(nodes: &[NetworkNode], timing: bool) -> Option<Self> {
        let tiles = nodes.len();
        let mut k = MeshKernel {
            by_ptr: HashMap::new(),
            inj_mask: vec![0; tiles],
            valid: vec![0; tiles],
            head_mask: vec![0; tiles],
            routed: vec![0; tiles],
            active: vec![0; tiles],
            dropping: vec![0; tiles],
            dirty: vec![0; tiles],
            busy: Vec::with_capacity(tiles),
            scratch: StageScratch::default(),
            stride: 1,
            egress_target: Vec::new(),
            egress_stride: 0,
            timing,
            times: StageTimes::default(),
        };

        let mut max_egress = 0usize;
        for (t, node) in nodes.iter().enumerate() {
            let r = &node.router;
            if r.vcs.len() > 64 {
                return None; // one mask word per tile
            }
            max_egress = max_egress.max(r.egress.len());
            for e in &r.egress {
                k.stride = k.stride.max(e.buffers.len());
            }
            k.scratch.fit(r);

            for (bit, vc) in r.vcs.iter().enumerate() {
                k.by_ptr.insert(Arc::as_ptr(vc) as usize, pack_loc(t, bit));
                if r.is_injection_vc(bit) {
                    k.inj_mask[t] |= 1 << bit;
                }
                k.valid[t] |= 1 << bit;
                if r.head_visible[bit] != Cycle::MAX {
                    k.head_mask[t] |= 1 << bit;
                }
                k.note(t, bit, r.vc_state[bit]);
            }
            // Everything starts dirty: the first positive edge re-absorbs
            // every VC, exactly like the interpreter does every cycle.
            k.dirty[t] = k.valid[t];
        }

        // Every local egress channel must land in a compiled tile's ingress,
        // otherwise its pushes would escape the dirty tracking. The resolved
        // targets are frozen into `egress_target` so the negative edge can
        // mark downstream VCs dirty with an array index instead of a hash
        // lookup per staged move.
        k.egress_stride = max_egress * k.stride;
        k.egress_target = vec![u64::MAX; tiles * k.egress_stride];
        for (t, node) in nodes.iter().enumerate() {
            for (p, e) in node.router.egress.iter().enumerate() {
                for (v, ch) in e.buffers.iter().enumerate() {
                    if let EgressChannel::Local(buf) = ch {
                        let &packed = k.by_ptr.get(&(Arc::as_ptr(buf) as usize))?;
                        k.egress_target[t * k.egress_stride + p * k.stride + v] = packed;
                    }
                }
            }
        }
        Some(k)
    }

    /// Accumulated per-stage timings (all zero unless compiled with timing).
    pub fn stage_times(&self) -> StageTimes {
        self.times
    }

    /// Marks the target VC of an out-of-band push (e.g. a boundary delivery
    /// from another shard) dirty so the next positive edge re-absorbs it.
    /// Buffers the kernel does not manage are ignored.
    pub fn note_external_push(&mut self, buf: &Arc<VcBuffer>) {
        if let Some(&packed) = self.by_ptr.get(&(Arc::as_ptr(buf) as usize)) {
            self.dirty[(packed >> 6) as usize] |= 1 << (packed & 63);
        }
    }

    /// Folds a stage's report — VC `b` of tile `t` is now in `state` — into
    /// the state masks.
    #[inline]
    fn note(&mut self, t: usize, b: usize, state: VcState) {
        let bit = 1u64 << b;
        self.routed[t] &= !bit;
        self.active[t] &= !bit;
        self.dropping[t] &= !bit;
        match state {
            VcState::Idle => {}
            VcState::Routed { .. } => self.routed[t] |= bit,
            VcState::Active { .. } => self.active[t] |= bit,
            VcState::Dropping => self.dropping[t] |= bit,
        }
    }

    /// Folds a negative-edge report for VC `b` of tile `t` into the masks: a
    /// drained head, a VC back to Idle, a downstream VC to re-absorb.
    #[inline]
    fn note_applied(&mut self, t: usize, b: usize, applied: Applied) {
        if applied.head_empty {
            self.head_mask[t] &= !(1 << b);
        }
        if applied.idle {
            self.note(t, b, VcState::Idle);
        }
        if let Some((egress, out_vc)) = applied.pushed {
            // Compile froze every local target into `egress_target`;
            // non-local channels carry the MAX sentinel.
            let packed = self.egress_target[t * self.egress_stride + egress * self.stride + out_vc];
            if packed != u64::MAX {
                self.dirty[(packed >> 6) as usize] |= 1 << (packed & 63);
            }
        }
    }

    /// Positive clock edge for every tile: absorb (dirty VCs only), then the
    /// SA, VA and RC sweeps over the busy tiles, then the agent ticks.
    /// Bit-identical to calling [`NetworkNode::posedge`] on every tile in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `nodes` is not the slice this kernel was
    /// compiled from.
    pub fn posedge(&mut self, nodes: &mut [NetworkNode], now: Cycle) {
        debug_assert_eq!(nodes.len(), self.valid.len(), "tile set changed");
        let mut lap = self.timing.then(Instant::now);

        // --- absorb + quiet-tile triage -------------------------------
        self.busy.clear();
        for (t, node) in nodes.iter_mut().enumerate() {
            let r = &mut node.router;
            let pushed = std::mem::take(&mut self.dirty[t]);
            if !r.begin_posedge(now) {
                // Quiet tile: every stage would be a no-op; just invalidate
                // stale head stamps (the interpreter resets them during its
                // absorb scan).
                for b in bits(std::mem::take(&mut self.head_mask[t])) {
                    r.head_visible[b] = Cycle::MAX;
                }
                continue;
            }
            let mut hm = self.head_mask[t];
            let mut absorbed = 0u64;
            // A push can never change the head flit of a VC that already has
            // an absorbed one, so only the others need their stamp read.
            for b in bits(pushed) {
                absorbed += r.vcs[b].absorb_tail() as u64;
                if hm & (1 << b) == 0 {
                    let stamp = r.vcs[b].head_visible_at();
                    r.head_visible[b] = stamp;
                    hm |= u64::from(stamp != Cycle::MAX) << b;
                }
            }
            self.head_mask[t] = hm;
            r.stats.activity.buffer_writes += absorbed;
            self.busy.push(t as u32);
        }
        lap = self.lap(lap, |s| &mut s.times.absorb);

        // Stage-major sweeps, each calling the router's own stage on the VCs
        // the masks select. Safe to reorder across tiles: RNGs are per-tile,
        // the within-tile SA → VA → RC order is preserved, and all cross-tile
        // reads (occupancy / free space) are stable for the whole positive
        // edge (buffers change only at the negative edge).
        let busy = std::mem::take(&mut self.busy);
        for &t in &busy {
            let (t, node) = (t as usize, &mut nodes[t as usize]);
            for b in bits((self.active[t] | self.dropping[t]) & self.head_mask[t]) {
                node.router.sa_gather(&mut self.scratch, b, now);
            }
            node.router.sa_grant(&mut self.scratch, &mut node.rng);
        }
        lap = self.lap(lap, |s| &mut s.times.sa);
        for &t in &busy {
            let (t, node) = (t as usize, &mut nodes[t as usize]);
            let mut built = 0;
            for b in bits(self.routed[t]) {
                let r = &mut node.router;
                if let Some(state) = r.va(&mut self.scratch, &mut built, b, now, &mut node.rng) {
                    self.note(t, b, state);
                }
            }
        }
        lap = self.lap(lap, |s| &mut s.times.va);
        for &t in &busy {
            let (t, node) = (t as usize, &mut nodes[t as usize]);
            let idle = self.valid[t] & !(self.routed[t] | self.active[t] | self.dropping[t]);
            for b in bits(idle & self.head_mask[t]) {
                let tracer = node.tracer.as_deref_mut();
                let r = &mut node.router;
                if let Some(state) = r.rc(&mut self.scratch, b, now, &mut node.rng, tracer) {
                    self.note(t, b, state);
                }
            }
        }
        self.busy = busy;
        self.lap(lap, |s| &mut s.times.rc);

        // Agents run on *every* tile (they inject into quiet ones), after
        // their own tile's router stages — as in the interpreter.
        for node in nodes.iter_mut() {
            node.tick_agents(now);
        }
    }

    /// Negative clock edge for every tile: apply the staged moves and drops,
    /// then run the bridge transfers. Bit-identical to calling
    /// [`NetworkNode::negedge`] on every tile in order — the bridge sweep may
    /// run after *all* router sweeps because a tile's bridge only touches its
    /// own delivery queue and injection buffers, whose state depends only on
    /// that tile's router half (which the interpreter also runs first).
    pub fn negedge(&mut self, nodes: &mut [NetworkNode], now: Cycle) {
        let mut lap = self.timing.then(Instant::now);
        for (t, node) in nodes.iter_mut().enumerate() {
            let r = &mut node.router;
            for i in 0..r.staged.len() {
                let m = r.staged[i];
                let applied = r.apply_move(m, now);
                self.note_applied(t, m.vc, applied);
            }
            r.staged.clear();
            for i in 0..r.staged_drops.len() {
                let b = r.staged_drops[i];
                let applied = r.apply_drop(b, now);
                self.note_applied(t, b, applied);
            }
            r.staged_drops.clear();
        }
        lap = self.lap(lap, |s| &mut s.times.negedge);
        for (t, node) in nodes.iter_mut().enumerate() {
            let before = node.router.stats.injected_flits;
            node.negedge_bridge(now);
            if node.router.stats.injected_flits != before {
                self.dirty[t] |= self.inj_mask[t];
            }
        }
        self.lap(lap, |s| &mut s.times.bridge);
    }

    /// Records a stage lap when timing is enabled and starts the next one.
    #[inline]
    fn lap(
        &mut self,
        started: Option<Instant>,
        slot: impl FnOnce(&mut Self) -> &mut Duration,
    ) -> Option<Instant> {
        let s = started?;
        *slot(self) += s.elapsed();
        Some(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{NodeAgent, NodeIo};
    use crate::config::NetworkConfig;
    use crate::flit::Packet;
    use crate::geometry::Geometry;
    use crate::ids::{FlowId, NodeId};
    use crate::network::Network;
    use crate::rng::TileRng;
    use crate::routing::{FlowSpec, RoutingKind};

    const NODES: usize = 16;

    /// Offers a 4-flit packet to the mirrored tile every other cycle — far
    /// more than a 4×4 mesh carries, so VCs back up in every pipeline state.
    struct Flood;

    impl NodeAgent for Flood {
        fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
            while io.try_recv().is_some() {}
            if io.cycle().is_multiple_of(2) && io.injection_backlog() < 8 {
                let (src, id) = (io.node(), io.alloc_packet_id());
                let dst = NodeId::new((NODES - 1 - src.index()) as u32);
                let flow = FlowId::for_pair(src, dst, NODES);
                io.send(Packet::new(id, flow, src, dst, 4, io.cycle()));
            }
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            Some(now + 1)
        }
        fn finished(&self) -> bool {
            false
        }
    }

    /// `[head, routed, active, dropping]` of one tile, from the router's own
    /// state — what the kernel's masks claim to summarise.
    fn masks_of(node: &NetworkNode) -> [u64; 4] {
        let r = &node.router;
        let mut m = [0u64; 4];
        for (b, state) in r.vc_state.iter().enumerate() {
            m[0] |= u64::from(r.head_visible[b] != Cycle::MAX) << b;
            match state {
                VcState::Idle => {}
                VcState::Routed { .. } => m[1] |= 1 << b,
                VcState::Active { .. } => m[2] |= 1 << b,
                VcState::Dropping => m[3] |= 1 << b,
            }
        }
        m
    }

    #[test]
    fn masks_track_router_state_every_cycle_of_a_congested_run() {
        // Every tile floods its mirror image; tile 5's flow has no route, so
        // its packets fail RC and are discarded (the Dropping mask).
        let node = |i: usize| NodeId::new(i as u32);
        let flows = (0..NODES)
            .filter(|&src| src != 5)
            .map(|src| FlowSpec::pair(node(src), node(NODES - 1 - src), NODES))
            .collect();
        let cfg = NetworkConfig::new(Geometry::mesh2d(4, 4))
            .with_routing(RoutingKind::Xy)
            .with_flows(flows);
        let mut network = Network::new(&cfg, 9).expect("valid config");
        for i in 0..NODES {
            network.attach_agent(node(i), Box::new(Flood));
        }
        let (mut nodes, _payloads) = network.into_nodes();
        let mut kernel = MeshKernel::compile(&nodes, false).expect("plain XY mesh compiles");

        let mut seen = [0u64; 4];
        for now in 1..=600 {
            kernel.posedge(&mut nodes, now);
            kernel.negedge(&mut nodes, now);
            for (t, node) in nodes.iter().enumerate() {
                let want = masks_of(node);
                let have = [
                    kernel.head_mask[t],
                    kernel.routed[t],
                    kernel.active[t],
                    kernel.dropping[t],
                ];
                assert_eq!(
                    have, want,
                    "cycle {now}, tile {t}: [head, routed, active, dropping]"
                );
                for (s, m) in seen.iter_mut().zip(want) {
                    *s |= m;
                }
                // The cached stamp is the absorbed head's, or MAX without one.
                let r = &node.router;
                for (b, vc) in r.vcs.iter().enumerate() {
                    let head = vc.peek(Cycle::MAX).map_or(Cycle::MAX, |f| f.visible_at);
                    assert_eq!(r.head_visible[b], head, "cycle {now}, tile {t}, VC {b}");
                }
            }
        }
        assert!(seen.iter().all(|&m| m != 0), "a mask never set: {seen:?}");
        let failures: u64 = nodes.iter().map(|n| n.stats().routing_failures).sum();
        assert!(failures > 0, "tile 5's packets must fail RC");
    }
}
