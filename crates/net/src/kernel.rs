//! The compiled shard-local cycle kernel.
//!
//! The reference simulator interprets one [`Router`] object at a time,
//! walking every ingress VC of every tile through absorb → SA → VA → RC each
//! cycle. That per-object, per-VC dispatch is exactly the overhead the BEE
//! and Parendi lines of work remove by *compiling* the simulated fabric into
//! flat batched execution streams. [`MeshKernel`] is that move for a shard of
//! tiles: at build time it lowers the shard's routers into contiguous
//! structure-of-arrays acceleration state — a flat, tile-major array of VC
//! buffer handles, per-tile occupancy bitmasks for every pipeline predicate
//! (cached head present, Routed, Active, Dropping, touched-since-last-edge) —
//! and then sweeps each pipeline stage across *all* tiles in tight
//! bit-iteration loops that only ever visit VCs the stage can act on.
//!
//! Two properties make the kernel fast without forking the model:
//!
//! * **Quiet tiles cost O(1).** A tile with no buffered flit skips absorb,
//!   SA, VA and RC entirely (one aggregate atomic load + clearing any stale
//!   cached heads, found by bitmask). Per-cycle cost scales with *activity*,
//!   not with fabric size.
//! * **Untouched VCs cost nothing.** A VC is re-absorbed (one lock) only when
//!   something touched it since the previous positive edge: a local pop, a
//!   downstream push from a neighbour tile (tracked through a pointer→bit
//!   map), a bridge injection, or a boundary delivery
//!   ([`note_external_push`](MeshKernel::note_external_push)). For an
//!   untouched VC the interpreter's absorb is a provable no-op, so skipping
//!   it is invisible.
//!
//! The kernel holds **no authoritative state**: VC state machines, head
//! caches, staged moves, statistics and the clock all stay on the routers, so
//! snapshot/restore, telemetry and the ledger read the tiles exactly as they
//! do under the interpreter, with no flush step. Every stage replicates the
//! interpreter's code path — including its per-tile RNG draw sequence and
//! stat-counting order — so kernel and interpreter runs are bit-identical in
//! statistics *and* canonical flit traces. Stage-major execution across tiles
//! is safe because positive-edge cross-tile reads (occupancy, free space) are
//! phase-stable: buffers change only at the negative edge.
//!
//! Configurations the flat specialization cannot represent — adaptive routing
//! (extra RNG draws keyed to cross-tile free space), bandwidth-adaptive
//! bidirectional links (negative-edge demand publication), more than 64 VCs
//! on one tile, or egress channels pointing outside the compiled tile set —
//! make [`MeshKernel::compile`] return `None`, and [`Stepper`] — the only
//! product caller of `compile` and the only place that chooses between the
//! two execution paths — interprets instead.

use crate::boundary::EgressChannel;
use crate::ids::{Cycle, VcId};
use crate::network::NetworkNode;
use crate::router::{pick_weighted, SaCandidate, StagedMove, VcState};
use crate::routing::NextHop;
use crate::vca::{DownstreamVc, VcaRequest};
use crate::vcbuf::VcBuffer;
use hornet_obs::trace::{TraceEvent, TraceKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a backend executes router cycles: interpreter, compiled kernel, or
/// auto-detection.
///
/// `Auto` (the default) compiles the kernel whenever the configuration is
/// eligible and honours the `HORNET_KERNEL` environment variable (`off`
/// disables, `on`/`force` insists). Explicit `Off`/`Force` always win over
/// the environment, so programmatic selections are immune to it. `Force`
/// still falls back to the interpreter when the configuration is ineligible —
/// both paths are bit-identical, so the choice is purely about speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Absorb + head-snapshot + quiet-tile triage.
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

/// Per-flat-VC location: which tile and which bit within the tile's masks.
#[inline]
fn pack_loc(tile: usize, bit: usize) -> u64 {
    ((tile as u64) << 6) | bit as u64
}

/// The compiled cycle kernel for one shard's tiles (see the module docs).
pub struct MeshKernel {
    /// Flat, tile-major clones of every ingress VC buffer; tile `t` owns
    /// `vcs[tile_off[t]..tile_off[t + 1]]`, inner order `(port, vc)`
    /// ascending — identical to the router's own `head_cache` layout, so a
    /// tile-local bit index doubles as the router's head-cache index.
    vcs: Vec<Arc<VcBuffer>>,
    /// Ingress port of each flat VC.
    vc_port: Vec<u32>,
    /// VC index within its ingress port of each flat VC.
    vc_sub: Vec<u32>,
    /// Start of each tile's slice in `vcs` (length `tiles + 1`).
    tile_off: Vec<u32>,
    /// `Arc::as_ptr` of every ingress VC buffer → packed (tile, bit), for
    /// marking the downstream VC dirty when a negative-edge push lands in it.
    by_ptr: HashMap<usize, u64>,
    /// Bits covering each tile's injection-port VCs (bridge injections).
    inj_mask: Vec<u64>,
    /// Bits covering each tile's full VC range.
    valid: Vec<u64>,
    // --- per-tile pipeline predicates (bit set ⇔ predicate holds) ---
    /// The router's cached head snapshot is `Some` for this VC.
    head_mask: Vec<u64>,
    /// VC state is `Routed`.
    routed: Vec<u64>,
    /// VC state is `Active`.
    active: Vec<u64>,
    /// VC state is `Dropping`.
    dropping: Vec<u64>,
    /// VC received a push since the last positive edge and needs its absorb
    /// cursor advanced (and, if it had no cached head, a fresh head peek).
    /// Pops need no mask: the negative edge refreshes the head cache in
    /// place, since the successor flit is already absorbed (pops never move
    /// the absorb boundary).
    dirty: Vec<u64>,
    // --- shared per-cycle scratch (one set for all tiles) ---
    /// Tiles with at least one buffered flit this positive edge.
    busy: Vec<u32>,
    sa_cand: Vec<SaCandidate>,
    ingress_granted: Vec<u32>,
    egress_granted: Vec<u32>,
    /// Generation-stamped flat map `(egress, out_vc) → flits staged this
    /// cycle for the tile currently in switch arbitration`.
    staged_count: Vec<u32>,
    staged_stamp: Vec<u64>,
    staged_gen: u64,
    /// Stride of the staged tables (widest egress port across all tiles).
    stride: usize,
    /// Packed (tile, bit) of the ingress VC each local egress channel feeds,
    /// indexed `tile * egress_stride + egress * stride + out_vc`
    /// (`u64::MAX` for ejection/non-local channels). Topology is static, so
    /// resolving push targets through this flat table replaces a per-move
    /// `by_ptr` hash lookup on the negative edge.
    egress_target: Vec<u64>,
    /// Row length of `egress_target` per tile (`max_egress * stride`).
    egress_stride: usize,
    route_scratch: Vec<NextHop>,
    downstream_scratch: Vec<DownstreamVc>,
    vca_scratch: Vec<(VcId, f64)>,
    timing: bool,
    times: StageTimes,
}

impl std::fmt::Debug for MeshKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshKernel")
            .field("tiles", &(self.tile_off.len().saturating_sub(1)))
            .field("vcs", &self.vcs.len())
            .finish()
    }
}

impl MeshKernel {
    /// Lowers `nodes` into the kernel's flat acceleration state, or returns
    /// `None` if the configuration is ineligible (adaptive routing,
    /// bandwidth-adaptive links, more than 64 VCs on one tile, or a local
    /// egress channel pointing outside `nodes` — e.g. a direct router-level
    /// wiring the network builder did not produce).
    ///
    /// Compiling is cheap — O(total VCs) — and may be repeated freely, e.g.
    /// after a snapshot restore; all masks are derived from the routers'
    /// current architectural state and every VC starts dirty.
    pub fn compile(nodes: &[NetworkNode], timing: bool) -> Option<Self> {
        let tiles = nodes.len();
        let mut k = MeshKernel {
            vcs: Vec::new(),
            vc_port: Vec::new(),
            vc_sub: Vec::new(),
            tile_off: Vec::with_capacity(tiles + 1),
            by_ptr: HashMap::new(),
            inj_mask: vec![0; tiles],
            valid: vec![0; tiles],
            head_mask: vec![0; tiles],
            routed: vec![0; tiles],
            active: vec![0; tiles],
            dropping: vec![0; tiles],
            dirty: vec![0; tiles],
            busy: Vec::with_capacity(tiles),
            sa_cand: Vec::new(),
            ingress_granted: Vec::new(),
            egress_granted: Vec::new(),
            staged_count: Vec::new(),
            staged_stamp: Vec::new(),
            staged_gen: 0,
            egress_target: Vec::new(),
            egress_stride: 0,
            stride: 1,
            route_scratch: Vec::new(),
            downstream_scratch: Vec::new(),
            vca_scratch: Vec::new(),
            timing,
            times: StageTimes::default(),
        };

        let mut max_ingress = 0usize;
        let mut max_egress = 0usize;
        for (t, node) in nodes.iter().enumerate() {
            let r = &node.router;
            if r.routing.is_adaptive() {
                return None; // extra RNG draws keyed to cross-tile free space
            }
            let total_vcs: usize = r.ingress.iter().map(|p| p.vcs.len()).sum();
            if total_vcs > 64 {
                return None; // one mask word per tile
            }
            max_ingress = max_ingress.max(r.ingress.len());
            max_egress = max_egress.max(r.egress.len());
            for e in &r.egress {
                if e.bidir.is_some() {
                    return None; // negative-edge demand publication
                }
                k.stride = k.stride.max(e.buffers.len());
            }

            k.tile_off.push(k.vcs.len() as u32);
            let mut bit = 0usize;
            for (p, port) in r.ingress.iter().enumerate() {
                for (v, vc) in port.vcs.iter().enumerate() {
                    k.by_ptr.insert(Arc::as_ptr(vc) as usize, pack_loc(t, bit));
                    k.vc_port.push(p as u32);
                    k.vc_sub.push(v as u32);
                    k.vcs.push(Arc::clone(vc));
                    if p == r.injection_port {
                        k.inj_mask[t] |= 1 << bit;
                    }
                    k.valid[t] |= 1 << bit;
                    if r.head_cache[bit].is_some() {
                        k.head_mask[t] |= 1 << bit;
                    }
                    match port.state[v] {
                        VcState::Idle => {}
                        VcState::Routed { .. } => k.routed[t] |= 1 << bit,
                        VcState::Active { .. } => k.active[t] |= 1 << bit,
                        VcState::Dropping => k.dropping[t] |= 1 << bit,
                    }
                    bit += 1;
                }
            }
            // Everything starts dirty: the first positive edge re-absorbs
            // every VC, exactly like the interpreter does every cycle.
            k.dirty[t] = k.valid[t];
        }
        k.tile_off.push(k.vcs.len() as u32);

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

        k.ingress_granted = vec![0; max_ingress];
        k.egress_granted = vec![0; max_egress];
        k.staged_count = vec![0; max_egress * k.stride];
        k.staged_stamp = vec![0; max_egress * k.stride];
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
        debug_assert_eq!(nodes.len() + 1, self.tile_off.len(), "tile set changed");
        let mut lap = self.timing.then(Instant::now);

        // --- absorb + quiet-tile triage -------------------------------
        self.busy.clear();
        for (t, node) in nodes.iter_mut().enumerate() {
            let r = &mut node.router;
            r.cycle = now;
            r.staged.clear();
            r.staged_drops.clear();
            r.stats.simulated_cycles += 1;
            r.stats.last_cycle = now;

            if r.buffered_flits() == 0 {
                // Quiet tile: every stage would be a no-op; just invalidate
                // stale cached heads (the interpreter nulls them during its
                // absorb scan).
                let mut m = self.head_mask[t];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    r.head_cache[b] = None;
                }
                self.head_mask[t] = 0;
                self.dirty[t] = 0;
                continue;
            }
            r.stats.busy_cycles += 1;

            let lo = self.tile_off[t] as usize;
            let pushed = self.dirty[t];
            let mut hm = self.head_mask[t];
            // Pushed VCs that already have a cached head only need the absorb
            // cursor advanced — a push can never change the head flit of a
            // non-empty buffer, so the (88-byte) head re-copy is skipped.
            let mut cursor_only = pushed & hm;
            let mut m = pushed & !hm;
            let mut absorbed = 0u64;
            while cursor_only != 0 {
                let b = cursor_only.trailing_zeros() as usize;
                cursor_only &= cursor_only - 1;
                absorbed += self.vcs[lo + b].absorb_tail() as u64;
            }
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let vc = &self.vcs[lo + b];
                let (n, head) = vc.absorb_and_peek();
                absorbed += n as u64;
                if head.is_some() {
                    hm |= 1 << b;
                }
                r.head_cache[b] = head;
            }
            self.head_mask[t] = hm;
            self.dirty[t] = 0;
            r.stats.activity.buffer_writes += absorbed;
            self.busy.push(t as u32);
        }
        lap = self.lap(lap, |s| &mut s.times.absorb);

        // Stage-major sweeps. Safe to reorder across tiles: RNGs are
        // per-tile, the within-tile SA → VA → RC order is preserved, and all
        // cross-tile reads (occupancy / free space) are stable for the whole
        // positive edge (buffers change only at the negative edge).
        let busy = std::mem::take(&mut self.busy);
        for &t in &busy {
            self.sa_tile(&mut nodes[t as usize], t as usize, now);
        }
        lap = self.lap(lap, |s| &mut s.times.sa);
        for &t in &busy {
            self.va_tile(&mut nodes[t as usize], t as usize, now);
        }
        lap = self.lap(lap, |s| &mut s.times.va);
        for &t in &busy {
            self.rc_tile(&mut nodes[t as usize], t as usize, now);
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
            self.negedge_router(node, t, now);
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

    /// Switch arbitration for one tile; replicates
    /// `Router::switch_arbitration` (candidate gather order, RNG shuffle,
    /// grant bookkeeping) with the candidates found by bitmask instead of a
    /// full VC scan. Staged moves land in the router's own `staged` /
    /// `staged_drops`, so snapshots and a later interpreter hand-off see
    /// exactly the interpreter's state.
    fn sa_tile(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let r = &mut node.router;
        let lo = self.tile_off[t] as usize;
        let mut cand = std::mem::take(&mut self.sa_cand);
        cand.clear();
        let mut m = (self.active[t] | self.dropping[t]) & self.head_mask[t];
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            match &r.head_cache[b] {
                Some(f) if f.visible_at <= now => {}
                _ => continue,
            }
            let p = self.vc_port[lo + b] as usize;
            let v = self.vc_sub[lo + b] as usize;
            match r.ingress[p].state[v] {
                VcState::Active {
                    egress,
                    out_vc,
                    next_flow,
                } => cand.push(SaCandidate {
                    ingress: p,
                    vc: v,
                    egress,
                    out_vc,
                    next_flow,
                }),
                VcState::Dropping => r.staged_drops.push((p, v)),
                _ => unreachable!("mask out of sync with VC state"),
            }
        }
        if cand.is_empty() {
            self.sa_cand = cand;
            return;
        }
        r.stats.activity.arbitrations += cand.len() as u64;

        // Randomize consideration order to break ties fairly (identical
        // Fisher–Yates draw sequence to the interpreter).
        for i in (1..cand.len()).rev() {
            let j = node.rng.gen_range(0..=i);
            cand.swap(i, j);
        }

        let ingress_bw = r.cfg.link_bandwidth.max(1);
        self.ingress_granted[..r.ingress.len()]
            .iter_mut()
            .for_each(|g| *g = 0);
        self.egress_granted[..r.egress.len()]
            .iter_mut()
            .for_each(|g| *g = 0);
        self.staged_gen += 1;

        for c in &cand {
            if self.ingress_granted[c.ingress] >= ingress_bw {
                continue;
            }
            let egress_bw = r.egress_bandwidth(c.egress);
            if self.egress_granted[c.egress] >= egress_bw {
                continue;
            }
            let key = c.egress * self.stride + c.out_vc;
            if c.egress != r.ejection_port {
                let already = if self.staged_stamp[key] == self.staged_gen {
                    self.staged_count[key] as usize
                } else {
                    0
                };
                if r.egress[c.egress].buffers[c.out_vc].free_space() <= already {
                    continue; // no downstream credit
                }
            }
            self.ingress_granted[c.ingress] += 1;
            self.egress_granted[c.egress] += 1;
            if self.staged_stamp[key] == self.staged_gen {
                self.staged_count[key] += 1;
            } else {
                self.staged_stamp[key] = self.staged_gen;
                self.staged_count[key] = 1;
            }
            r.staged.push(StagedMove {
                ingress: c.ingress,
                vc: c.vc,
                egress: c.egress,
                out_vc: c.out_vc,
                next_flow: c.next_flow,
            });
        }
        self.sa_cand = cand;
    }

    /// VC allocation for one tile; replicates `Router::vc_allocation` with
    /// the Routed VCs found by bitmask.
    fn va_tile(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let r = &mut node.router;
        let lo = self.tile_off[t] as usize;
        let mut downstream = std::mem::take(&mut self.downstream_scratch);
        let mut cand = std::mem::take(&mut self.vca_scratch);
        // Downstream snapshots are stable for the whole positive edge
        // (buffers move only at the negative edge) except for the `out_state`
        // assignments this very loop makes — so build each egress port's
        // snapshot at most once per tile per cycle and invalidate it only
        // when a VC on that port is granted. Under congestion many Routed
        // heads retry the same port every cycle; they all share one build.
        let mut built: u64 = 0;
        let mut m = self.routed[t];
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let (flow, packet) = match &r.head_cache[b] {
                Some(f) if f.visible_at <= now => (f.flow, f.packet),
                _ => continue,
            };
            let p = self.vc_port[lo + b] as usize;
            let v = self.vc_sub[lo + b] as usize;
            let VcState::Routed { egress, next_flow } = r.ingress[p].state[v] else {
                unreachable!("mask out of sync with VC state");
            };
            r.stats.activity.arbitrations += 1;
            if egress == r.ejection_port {
                r.ingress[p].state[v] = VcState::Active {
                    egress,
                    out_vc: 0,
                    next_flow,
                };
                self.routed[t] &= !(1 << b);
                self.active[t] |= 1 << b;
                continue;
            }
            let lo_ds = egress * self.stride;
            if built & (1 << egress) == 0 {
                built |= 1 << egress;
                let e = &r.egress[egress];
                downstream.resize(
                    downstream.len().max(lo_ds + e.buffers.len()),
                    DownstreamVc {
                        vc: VcId::new(0),
                        free_for_allocation: false,
                        occupancy: 0,
                        capacity: 0,
                        resident_flow: None,
                    },
                );
                for (i, buf) in e.buffers.iter().enumerate() {
                    let occupancy = buf.occupancy();
                    downstream[lo_ds + i] = DownstreamVc {
                        vc: VcId::new(i as u16),
                        free_for_allocation: e.out_state[i].owner.is_none(),
                        occupancy,
                        capacity: buf.capacity(),
                        resident_flow: if occupancy > 0 || e.out_state[i].owner.is_some() {
                            e.out_state[i].resident_flow
                        } else {
                            None
                        },
                    };
                }
            }
            let req = VcaRequest {
                prev: r.ingress[p].upstream,
                flow,
                next: r.egress[egress].downstream,
                next_flow,
            };
            let port_vcs = r.egress[egress].buffers.len();
            r.vca
                .candidates_into(&req, &downstream[lo_ds..lo_ds + port_vcs], &mut cand);
            if cand.is_empty() {
                continue; // wait in the VA stage
            }
            let (vc_id, _) = pick_weighted(&mut node.rng, &cand, |c| c.1);
            let out_vc = vc_id.index();
            r.egress[egress].out_state[out_vc].owner = Some(packet);
            r.egress[egress].out_state[out_vc].resident_flow = Some(next_flow);
            built &= !(1 << egress);
            r.ingress[p].state[v] = VcState::Active {
                egress,
                out_vc,
                next_flow,
            };
            self.routed[t] &= !(1 << b);
            self.active[t] |= 1 << b;
        }
        self.downstream_scratch = downstream;
        self.vca_scratch = cand;
    }

    /// Route computation for one tile; replicates `Router::route_computation`
    /// for the non-adaptive policies the kernel specializes (the adaptive
    /// branch — and its extra RNG draws — is excluded at compile time).
    fn rc_tile(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let NetworkNode {
            router: r,
            rng,
            tracer,
            ..
        } = node;
        let lo = self.tile_off[t] as usize;
        let mut cand = std::mem::take(&mut self.route_scratch);
        let idle = self.valid[t] & !(self.routed[t] | self.active[t] | self.dropping[t]);
        let mut m = idle & self.head_mask[t];
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let (is_head, flow, dst, packet) = match &r.head_cache[b] {
                Some(f) if f.visible_at <= now => (f.is_head(), f.flow, f.dst, f.packet),
                _ => continue,
            };
            let p = self.vc_port[lo + b] as usize;
            let v = self.vc_sub[lo + b] as usize;
            if !is_head {
                // A body flit at the head of an idle VC can only happen if
                // the packet was dropped upstream; discard it.
                r.ingress[p].state[v] = VcState::Dropping;
                self.dropping[t] |= 1 << b;
                continue;
            }
            let prev = r.ingress[p].upstream;
            r.routing
                .candidates_into(r.node, prev, flow, dst, &mut cand);
            if cand.is_empty() {
                r.stats.routing_failures += 1;
                r.ingress[p].state[v] = VcState::Dropping;
                self.dropping[t] |= 1 << b;
                continue;
            }
            let choice = pick_weighted(rng, &cand, |c| c.weight);
            let egress = if choice.next_node == r.node {
                r.ejection_port
            } else {
                r.egress_of(choice.next_node)
            };
            r.ingress[p].state[v] = VcState::Routed {
                egress,
                next_flow: choice.next_flow,
            };
            self.routed[t] |= 1 << b;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(TraceEvent {
                    cycle: now,
                    node: r.node.raw(),
                    kind: TraceKind::FlitRoute,
                    a: packet.raw(),
                    b: egress as u64,
                });
            }
        }
        self.route_scratch = cand;
    }

    /// The router half of one tile's negative edge; replicates
    /// `Router::negedge` (bandwidth-adaptive demand publication excluded at
    /// compile time) with dirty/state-mask bookkeeping on every pop and push.
    fn negedge_router(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let r = &mut node.router;
        for i in 0..r.staged.len() {
            let m = r.staged[i];
            let Some(mut flit) = r.ingress[m.ingress].vcs[m.vc].pop_if(now, |_| true) else {
                continue;
            };
            let bit = r.ingress_offsets[m.ingress] + m.vc;
            // Refresh the cached head in place: the successor flit (if any)
            // is already absorbed, so no positive-edge re-peek is needed.
            let head = r.ingress[m.ingress].vcs[m.vc].head_snapshot();
            if head.is_none() {
                self.head_mask[t] &= !(1 << bit);
            }
            r.head_cache[bit] = head;
            r.stats.activity.buffer_reads += 1;
            r.stats.activity.crossbar_transits += 1;

            // Accumulate the residence time at this node into the flit itself.
            let departure = now + 1;
            flit.stats.accumulated_latency +=
                departure.saturating_sub(flit.stats.arrived_at_current);
            flit.stats.arrived_at_current = departure;
            flit.flow = m.next_flow;
            flit.visible_at = departure;

            let is_tail = flit.is_tail();
            if m.egress == r.ejection_port {
                r.stats.total_flit_latency += flit.stats.accumulated_latency;
                r.stats.delivered_flits += 1;
                r.delivered.push(flit);
            } else {
                flit.stats.hops += 1;
                r.stats.activity.link_flits += 1;
                let ch = &r.egress[m.egress].buffers[m.out_vc];
                if ch.push(flit) {
                    // Compile froze every local target into `egress_target`;
                    // non-local channels carry the MAX sentinel.
                    let packed = self.egress_target
                        [t * self.egress_stride + m.egress * self.stride + m.out_vc];
                    if packed != u64::MAX {
                        self.dirty[(packed >> 6) as usize] |= 1 << (packed & 63);
                    }
                } else {
                    // Credit checking should make this impossible; record it
                    // as a routing failure so tests can detect flow-control
                    // bugs rather than silently losing flits.
                    r.stats.routing_failures += 1;
                }
                if is_tail {
                    r.egress[m.egress].out_state[m.out_vc].owner = None;
                }
            }
            if is_tail {
                r.ingress[m.ingress].state[m.vc] = VcState::Idle;
                self.active[t] &= !(1 << bit);
            }
        }
        r.staged.clear();

        // Discard flits of packets that could not be routed.
        for i in 0..r.staged_drops.len() {
            let (p, v) = r.staged_drops[i];
            if let Some(flit) = r.ingress[p].vcs[v].pop_if(now, |_| true) {
                let bit = r.ingress_offsets[p] + v;
                let head = r.ingress[p].vcs[v].head_snapshot();
                if head.is_none() {
                    self.head_mask[t] &= !(1 << bit);
                }
                r.head_cache[bit] = head;
                r.stats.activity.buffer_reads += 1;
                if flit.is_tail() {
                    r.ingress[p].state[v] = VcState::Idle;
                    self.dropping[t] &= !(1 << bit);
                }
            }
        }
        r.staged_drops.clear();
    }
}
