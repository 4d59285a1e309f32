//! The unified per-cycle shard protocol: one `CycleDriver` shared by every
//! execution backend.
//!
//! Before this module existed, the per-cycle shard protocol — strict
//! flit/credit limits, fast-forward skip handling, slack waits, ledger
//! publish-on-change, end-of-run flush — was written out twice: once in the
//! thread runtime (`crate::runtime`) and once in the distributed worker
//! (`hornet-dist`). A protocol fix could land in one backend only. The
//! [`CycleDriver`] owns the whole protocol exactly once, parameterized by two
//! small traits:
//!
//! * [`TransportPump`] — how progress, flits and credits move between this
//!   shard and its neighbors: shared atomics and SPSC rings for the thread
//!   host ([`crate::ShardRuntime`]), cycle frames over a socket or a
//!   shared-memory pipe for a `hornet-dist` worker. The pump's contract is
//!   the same one `hornet-dist` documents: *everything a shard emitted up to
//!   and including its negedge of cycle `c` is visible to a peer before that
//!   peer observes progress ≥ `c`.*
//! * [`PayloadChannel`] — how packet *payloads* (the DMA side of the flit
//!   model) follow their tail flits across a shard boundary. Threads share
//!   one [`PayloadStore`] and the channel is a no-op ([`NoPayloads`]); a
//!   worker process's store is its channel, which its transports claim a
//!   packet's payload from when the tail flit is drained to the wire and
//!   re-deposit it into on arrival (a packet without a payload has nothing
//!   to claim), so memory-hierarchy and CPU workloads run
//!   under `hornet-dist` bit-identically to sequential simulation. The driver
//!   itself only reads the channel for checkpoints.
//!
//! Both hosts are thin: they wire boundaries with
//! [`crate::wiring::wire_shards`], build their pump, call
//! [`CycleDriver::run`], and act on quiescence with
//! [`crate::termination::decide`].
//!
//! This is the *production* cycle loop: telemetry, tracing, checkpoints and
//! stall profiling attach here and nowhere else. Its reference is the plain
//! sequential loop behind `hornet_net::network::Network::run`; the two share
//! how tiles are stepped ([`Stepper`]) and how clocks jump ([`jump`]), so
//! they can differ only in protocol, never in what a cycle does.

use crate::termination::{LedgerState, ShardLedger};
use hornet_net::boundary::{BoundaryLink, BoundaryRx};
use hornet_net::flit::Payload;
use hornet_net::ids::{Cycle, PacketId};
use hornet_net::kernel::{KernelMode, Stepper};
use hornet_net::network::{jump, NetworkNode};
use hornet_net::payload::PayloadStore;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::{MetricsRegistry, TelemetrySample};
use hornet_obs::olog_warn;
use hornet_obs::profile::StallProfile;
use hornet_obs::trace::{TraceEvent, TraceKind, TraceRing};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How packet payloads cross (or don't cross) a shard boundary.
///
/// The cycle-level network model moves flits, which carry timing and every
/// field of a packet but its payload; the payload rides out of band
/// (HORNET's DMA model), as `(packet id, payload)`. Within one process every
/// bridge shares one [`PayloadStore`], so nothing needs to move. Between
/// processes the transport pump claims the payload when the packet's tail
/// flit is drained to the wire and deposits it into the receiving process's
/// store before the tail flit becomes visible there — hop by hop, so
/// multi-shard routes forward payloads transparently. A packet without a
/// payload has nothing parked and sends nothing.
pub trait PayloadChannel: Send + Sync {
    /// Takes the locally parked payload of packet `id`, if there is one
    /// (sender side, called when a tail flit leaves for another process).
    fn claim(&self, id: PacketId) -> Option<Payload>;

    /// Parks an arrived payload so the destination bridge can claim it
    /// (receiver side, called before the tail flit is made visible).
    fn deposit(&self, id: PacketId, payload: Payload);

    /// Checkpoint capture: every payload currently parked in this process's
    /// store, in canonical (packet-id) order. Channels whose store is shared
    /// across shards return nothing — the host snapshots such stores once,
    /// not per shard.
    fn parked(&self) -> Vec<(PacketId, Payload)> {
        Vec::new()
    }
}

/// The payload channel of backends whose shards share one address space:
/// payloads already live in the shared store, so the channel does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPayloads;

impl PayloadChannel for NoPayloads {
    fn claim(&self, _id: PacketId) -> Option<Payload> {
        None
    }
    fn deposit(&self, _id: PacketId, _payload: Payload) {}
}

/// A process's own store is the channel of a shard whose peers live in other
/// processes: the transport claims from it and deposits into it.
impl PayloadChannel for PayloadStore {
    fn claim(&self, id: PacketId) -> Option<Payload> {
        PayloadStore::claim(self, id)
    }
    fn deposit(&self, id: PacketId, payload: Payload) {
        PayloadStore::deposit(self, id, payload);
    }
    fn parked(&self) -> Vec<(PacketId, Payload)> {
        self.snapshot_payloads()
    }
}

/// How one shard's data plane reaches its neighbors. One implementation per
/// backend; the driver is generic over it.
pub trait TransportPump {
    /// Non-blocking check: `true` when every neighbor's published negedge
    /// progress has reached `floor`. The driver owns the wait loop (backoff,
    /// stop polling, periodic ingestion) around this. `&mut` because a
    /// transport whose progress arrives in band (socket frames) reads what
    /// its lagging neighbors have sent right here, on the driver's thread.
    fn peers_reached(&mut self, floor: Cycle) -> bool;

    /// Moves everything peers have made visible into the local staging rings
    /// (and deposits any arrived payloads). No-op for backends whose rings
    /// are shared directly.
    fn ingest(&mut self) {}

    /// Called after the local negedge of `cycle`: make every staged outbound
    /// flit, credit and payload visible to the peers, then publish `cycle`
    /// as this side's progress. `flush` (set on the last cycle of every
    /// window) forces buffered wire traffic out; transports may otherwise
    /// coalesce the cycles of a window into one write.
    fn pump(&mut self, cycle: Cycle, flush: bool) -> io::Result<()>;

    /// Progress publication after a fast-forward jump to `target` (both
    /// clock edges are considered complete up to `target`).
    fn publish_jump(&mut self, target: Cycle) -> io::Result<()>;

    /// A short diagnostic of peer progress for stall reports.
    fn stall_report(&self) -> String {
        String::new()
    }
}

/// Where the driver persists periodic checkpoints.
///
/// The driver captures the shard's complete resumable state (see
/// [`crate::snapshot`]) at every cycle that is a multiple of
/// [`DriverParams::checkpoint_every`] and hands the serialized bytes here.
/// The sink decides what durability means: keep the latest in memory, write
/// a cycle-stamped file, or ship the bytes to a coordinator.
pub trait CheckpointSink {
    /// Persists the checkpoint taken at `cycle`. An error aborts the run
    /// (a shard that cannot persist its state must not outrun its last
    /// recoverable cycle indefinitely).
    fn checkpoint(&mut self, cycle: Cycle, state: &[u8]) -> io::Result<()>;
}

/// Where the driver publishes periodic [`TelemetrySample`]s.
///
/// The driver samples at window ends (never mid-cycle), so a sink observes
/// a consistent shard state. The thread backend collects
/// samples in memory; the distributed worker ships them to the coordinator
/// as control-plane messages.
pub trait TelemetrySink {
    /// Absorbs one sample. Failures are the sink's problem — telemetry must
    /// never abort a run.
    fn emit(&mut self, sample: &TelemetrySample);
}

/// The trivial sink: keep every sample.
impl TelemetrySink for Vec<TelemetrySample> {
    fn emit(&mut self, sample: &TelemetrySample) {
        self.push(sample.clone());
    }
}

/// How simulation shards synchronize — the one definition shared by the
/// thread engine (`hornet_core::engine::SyncMode`) and the distributed
/// backend (`hornet_dist::DistSync`).
///
/// Every mode is a *window* of `w` cycles ([`SyncMode::window`]). A shard
/// gates once per window, on its cut-link neighbors having finished the
/// window's first cycle `c0`, and for the whole window consumes exactly what
/// that gate guaranteed: flits stamped `≤ c0 + 1` and credits stamped
/// `≤ c0`. A cut-link flit or credit is therefore seen 0 to `w − 1` cycles
/// late, the same way on every repeat and every host. With `w = 1` these are
/// the sequential schedule's limits, so results are bit-identical to
/// sequential simulation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// A one-cycle window: bit-identical to sequential simulation.
    CycleAccurate,
    /// An `n`-cycle window (`Periodic(0)` and `Periodic(1)` are
    /// [`SyncMode::CycleAccurate`]).
    Periodic(u64),
    /// Neighbors may drift `k` cycles apart: a `k + 1`-cycle window, the
    /// same simulation as `Periodic(k + 1)`. `Slack(0)` ≡
    /// [`SyncMode::CycleAccurate`].
    Slack(u64),
}

impl SyncMode {
    /// A short label for reports.
    pub fn label(self) -> String {
        match self {
            SyncMode::CycleAccurate => "cycle-accurate".to_string(),
            SyncMode::Periodic(n) => format!("sync-every-{n}"),
            SyncMode::Slack(k) => format!("slack-{k}"),
        }
    }

    /// Cycles per synchronization window (at least 1; saturates at
    /// `u64::MAX`).
    pub fn window(self) -> u64 {
        match self {
            SyncMode::CycleAccurate => 1,
            SyncMode::Slack(k) => k.saturating_add(1),
            SyncMode::Periodic(n) => n.max(1),
        }
    }
}

/// How the driver's wait loop backs off while a neighbor lags.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WaitProfile {
    /// Spin-then-yield: shard workers share one process and one scheduler,
    /// and the wait is typically a cycle's worth of work (thread backend).
    Spin,
    /// Escalate to sleeps (multi-process backends). With a core per worker
    /// the spin/yield budget covers a lock-step wait; the sleeps exist for
    /// hosts with more workers than cores, where the lagging peer needs the
    /// CPU this loop would otherwise burn.
    Sleep,
}

/// Per-run parameters of the unified protocol.
#[derive(Copy, Clone, Debug)]
pub struct DriverParams {
    /// First cycle already completed (the run simulates
    /// `start+1 ..= start+cycles`).
    pub start: Cycle,
    /// Number of cycles to simulate.
    pub cycles: Cycle,
    /// Synchronization mode (see [`SyncMode::window`]).
    pub sync: SyncMode,
    /// Publish termination ledgers and honor skip directives (a detector is
    /// watching: fast-forward or completion detection is on).
    pub track_ledger: bool,
    /// Compute next-event info for fast-forward.
    pub fast_forward: bool,
    /// Wait-loop backoff profile.
    pub wait: WaitProfile,
    /// Capture a checkpoint at every cycle that is a multiple of this period
    /// (requires a one-cycle `sync` window and a [`CycleDriver::checkpoint`]
    /// sink; ignored otherwise). `None` disables checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Initial value of the cumulative mailbox-delivery counter: 0 for a
    /// fresh run, the checkpointed `received` when resuming, so ledger
    /// credit accounting continues seamlessly across a restore.
    pub received_start: u64,
    /// Attribute wall time to compute / slack-wait / ingest / flush phases
    /// (a handful of monotonic-clock reads per cycle; off by default so the
    /// hot path stays untouched).
    pub profile: bool,
    /// Emit a [`TelemetrySample`] to the [`CycleDriver::telemetry`] sink
    /// roughly every this many cycles (checked at window ends, so the actual
    /// period is rounded up to the window). `None` disables sampling.
    pub telemetry_every: Option<u64>,
    /// Cycle-execution strategy: interpreter, compiled kernel, or
    /// auto-detection. The [`Stepper`] is built per run, after boundary
    /// wiring (so cut links are seen as boundary channels); both paths are
    /// bit-identical and structurally ineligible configurations (>64 VCs per
    /// tile) silently interpret.
    pub kernel: KernelMode,
}

/// What one driven run reports back to its host.
#[derive(Copy, Clone, Debug)]
pub struct DriveOutcome {
    /// The cycle the shard stopped at.
    pub final_now: Cycle,
    /// Total flits moved from boundary mailboxes into ingress buffers.
    pub received: u64,
    /// Flits still buffered or pending anywhere in the shard at the end of
    /// the run — the ledger's `busy` term, reported here so hosts judge
    /// completion with the *same* definition the detector used.
    pub busy: u64,
    /// Wall-time attribution of the run (all zeros unless
    /// [`DriverParams::profile`] was set).
    pub profile: StallProfile,
}

/// One shard's execution state, borrowed from the host for the duration of a
/// run. The driver owns the *protocol*; the host owns wiring and results.
pub struct CycleDriver<'a, 'c, T: TransportPump + ?Sized> {
    /// Shard index (diagnostics only).
    pub shard: usize,
    /// The shard's tiles.
    pub tiles: &'a mut [NetworkNode],
    /// Sender-side boundary halves whose credits this shard applies.
    pub outbound: &'a [Arc<BoundaryLink>],
    /// Receiver endpoints of the boundary links feeding this shard.
    pub inbound: &'a mut [BoundaryRx],
    /// The backend's transport pump.
    pub transport: &'a mut T,
    /// The backend's payload channel.
    pub payloads: &'a dyn PayloadChannel,
    /// Stop directive (completion declared, peer lost, or panic unwind).
    pub stop: &'a AtomicBool,
    /// Monotone fast-forward target published by the detector.
    pub skip_to: &'a AtomicU64,
    /// This shard's published termination ledger.
    pub ledger: &'a ShardLedger,
    /// Destination of periodic checkpoints (`None` disables them even when
    /// [`DriverParams::checkpoint_every`] is set). Carries its own lifetime
    /// so a sink borrowed for longer than the shard state can be supplied.
    pub checkpoint: Option<&'c mut dyn CheckpointSink>,
    /// Destination of periodic telemetry samples (`None` disables sampling
    /// even when [`DriverParams::telemetry_every`] is set).
    pub telemetry: Option<&'c mut dyn TelemetrySink>,
    /// Host-owned metrics registry whose current values ride along in every
    /// telemetry sample; the driver also folds its own window-gate wait times
    /// into a `batch_wait_ns` histogram here.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Shard-level runtime event ring (slack waits, checkpoint captures).
    /// Flit-lifecycle events live in the per-tile rings instead, so this
    /// ring's contents are backend-specific and excluded from bit-identity
    /// comparisons.
    pub tracer: Option<&'a mut TraceRing>,
}

impl<T: TransportPump + ?Sized> CycleDriver<'_, '_, T> {
    /// Flits buffered or pending anywhere in this shard (the ledger's `busy`
    /// term): router buffers, non-idle tiles, and in-flight mailbox flits.
    fn busy_now(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.buffered_flits() as u64 + u64::from(!t.is_idle()))
            .sum::<u64>()
            + self
                .inbound
                .iter()
                .map(|rx| rx.in_flight() as u64)
                .sum::<u64>()
    }

    fn ledger_state(&self, cycle: Cycle, recv_total: u64, fast_forward: bool) -> LedgerState {
        LedgerState {
            busy: self.busy_now(),
            finished: self.tiles.iter().all(NetworkNode::finished),
            next_event: if fast_forward {
                self.tiles
                    .iter()
                    .filter_map(|t| t.next_event(cycle))
                    .min()
                    .unwrap_or(u64::MAX)
            } else {
                u64::MAX
            },
            sent: self.outbound.iter().map(|l| l.flits_pushed()).sum(),
            recv: recv_total,
            cycle,
        }
    }

    /// Spins until every neighbor reaches `floor` or the stop flag is
    /// raised (returns `false` then, so the caller can unwind). Socket
    /// transports read their lagging neighbors on every `peers_reached`
    /// check; the every-512-spins `ingest` is the shared-memory copy.
    fn wait_peers(&mut self, floor: Cycle, wait: WaitProfile) -> bool {
        let mut spins: u64 = 0;
        let mut reported = false;
        while !self.transport.peers_reached(floor) {
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            spins = spins.wrapping_add(1);
            match wait {
                WaitProfile::Spin => {
                    if spins.is_multiple_of(128) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                WaitProfile::Sleep => {
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 256 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros((spins - 255).min(20) * 10));
                    }
                }
            }
            if spins.is_multiple_of(512) {
                self.transport.ingest();
            }
            if spins > 40_000 && !reported && wait == WaitProfile::Sleep {
                // Several seconds without peer progress: likely a stall;
                // report once (diagnostics only, normal runs never hit it).
                reported = true;
                olog_warn!(
                    "driver",
                    { shard = self.shard, floor = floor },
                    "stalled waiting for peers: {}",
                    self.transport.stall_report()
                );
            }
        }
        true
    }

    /// Runs the shard protocol for `p.cycles` cycles: one neighbor gate per
    /// window, the window's flit/credit limits, skip handling, ledger
    /// publish-on-change and the end-of-run flush of buffered wire traffic.
    /// The host flushes leftover mailbox flits and merges statistics
    /// afterwards.
    pub fn run(mut self, p: &DriverParams) -> io::Result<DriveOutcome> {
        let end = p.start + p.cycles;
        // Built per run: boundary wiring is done by now, and dropping the
        // stepper at the end keeps it strictly derived state (the next run —
        // possibly after a restore — rebuilds it from the tiles, all-dirty).
        let mut stepper = Stepper::new(self.tiles, p.kernel);
        let window = p.sync.window();
        let mut now = p.start;
        let mut recv_total = p.received_start;
        let mut last_published = LedgerState::default();
        let mut published_once = false;
        let mut profile = StallProfile::default();
        let mut mark = Instant::now();
        let mut last_sample = p.start;
        // Gate waits are observed (timed / traced / histogrammed) only when
        // someone is listening; otherwise the wait loop runs untouched.
        let observe_wait = p.profile || self.tracer.is_some() || self.metrics.is_some();

        'run: while now < end {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            // Windows tile the run from `p.start`, so a fast-forward jump
            // into the middle of one keeps its limits: whether a skip was
            // taken (a matter of detector timing) changes nothing.
            let c0 = now - (now - p.start) % window;
            let window_end = c0.saturating_add(window).min(end);
            if p.profile {
                profile.compute_ns += lap(&mut mark);
            }
            let wait_t0 = observe_wait.then(Instant::now);
            let waited = observe_wait && !self.transport.peers_reached(c0);
            if waited {
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record(TraceEvent {
                        cycle: now,
                        node: self.shard as u32,
                        kind: TraceKind::SlackWaitBegin,
                        a: c0,
                        b: 0,
                    });
                }
            }
            // The window's one gate: neighbors must have finished the
            // negative edge of `c0`, so everything they emitted up to then is
            // visible (and, after `ingest`, staged locally).
            if !self.wait_peers(c0, p.wait) {
                break;
            }
            let waited_ns = wait_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            if p.profile {
                profile.wait_ns += lap(&mut mark);
            }
            if waited {
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record(TraceEvent {
                        cycle: now,
                        node: self.shard as u32,
                        kind: TraceKind::SlackWaitEnd,
                        a: waited_ns,
                        b: c0,
                    });
                }
            }
            if let Some(m) = self.metrics {
                m.histogram("batch_wait_ns").record(waited_ns);
            }
            self.transport.ingest();
            if p.profile {
                profile.ingest_ns += lap(&mut mark);
            }
            // Rendezvous checkpoint. Capture happens after the gate and
            // ingestion: every peer has finished cycle `now` and its
            // emissions for it have been ingested, so the stamp filters in
            // `snapshot_shard` see a consistent global cut (see
            // `crate::snapshot` for the argument). One-cycle windows only
            // (`DistSpec::validate` rejects the rest).
            if let (Some(every), Some(sink)) = (p.checkpoint_every, self.checkpoint.as_deref_mut())
            {
                if window == 1 && now > p.start && every > 0 && now.is_multiple_of(every) {
                    let bytes = crate::snapshot::snapshot_shard(
                        now,
                        recv_total,
                        self.tiles,
                        self.outbound,
                        self.inbound,
                        self.payloads,
                    );
                    let size = bytes.len() as u64;
                    sink.checkpoint(now, &bytes)?;
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.record(TraceEvent {
                            cycle: now,
                            node: self.shard as u32,
                            kind: TraceKind::CheckpointCapture,
                            a: size,
                            b: 0,
                        });
                    }
                    if p.profile {
                        profile.flush_ns += lap(&mut mark);
                    }
                }
            }
            while now < window_end {
                if self.stop.load(Ordering::Acquire) {
                    break 'run;
                }
                // Fast-forward directive: the detector proved the whole
                // system idle with balanced credits up to (at least) `skip`,
                // so jumping every clock forward is safe regardless of which
                // cycle each shard currently sits at.
                if p.track_ledger {
                    let skip = self.skip_to.load(Ordering::Acquire);
                    if skip > now {
                        let target = skip.min(end);
                        jump(self.tiles, now, target);
                        now = target;
                        self.transport.publish_jump(now)?;
                        continue 'run;
                    }
                }
                let next = now + 1;
                // Drain boundary mailboxes: exactly what the window's gate
                // guaranteed, whatever else has arrived since. With a
                // one-cycle window this is the prefix the sequential schedule
                // makes visible by `next`.
                for link in self.outbound {
                    link.apply_credits(c0);
                }
                for rx in self.inbound.iter_mut() {
                    let delivered = rx.deliver(c0 + 1);
                    recv_total += delivered as u64;
                    if delivered > 0 {
                        stepper.note_external_push(rx.target());
                    }
                }
                stepper.posedge(self.tiles, next);
                stepper.negedge(self.tiles, next);
                for rx in self.inbound.iter_mut() {
                    rx.emit_credits(next);
                }
                if p.track_ledger {
                    // Publish the termination ledger *before* advancing the
                    // progress counter: when a neighbor (or the detector)
                    // sees this cycle as complete, the ledger already
                    // accounts for every flit it pushed or delivered.
                    let state = self.ledger_state(next, recv_total, p.fast_forward);
                    // Idle shards burning cycles republish only when the
                    // content changes (`cycle` is deliberately excluded from
                    // the comparison), so the detector's two-wave version
                    // check can converge.
                    let changed = !published_once
                        || LedgerState {
                            cycle: last_published.cycle,
                            ..state
                        } != last_published;
                    if changed {
                        self.ledger.publish(&state);
                        last_published = state;
                        published_once = true;
                    }
                }
                // Pump publishes progress = `next` after the ledger.
                if p.profile {
                    profile.compute_ns += lap(&mut mark);
                }
                self.transport.pump(next, next == window_end)?;
                if p.profile {
                    profile.flush_ns += lap(&mut mark);
                }
                now = next;
            }
            // Telemetry at the window end: the shard is at a consistent point
            // and the period rounds up to the window.
            if let Some(every) = p.telemetry_every {
                if self.telemetry.is_some() && every > 0 && now.saturating_sub(last_sample) >= every
                {
                    last_sample = now;
                    self.emit_sample(now, recv_total, &profile);
                    if p.profile {
                        profile.flush_ns += lap(&mut mark);
                    }
                }
            }
        }

        // Flush buffered wire traffic (batched socket frames) so peers still
        // draining our final cycles observe them; ignore errors — a peer that
        // already exited has nothing left to wait on.
        let _ = self.transport.pump(now, true);
        if p.profile {
            profile.flush_ns += lap(&mut mark);
        }

        // Terminal telemetry sample so a live stream always ends at the
        // shard's final cycle.
        if p.telemetry_every.is_some() && self.telemetry.is_some() && now > last_sample {
            self.emit_sample(now, recv_total, &profile);
        }

        // Terminal ledger so late detector probes see the final state.
        if p.track_ledger {
            let state = self.ledger_state(now, recv_total, false);
            let changed = !published_once
                || LedgerState {
                    cycle: last_published.cycle,
                    ..state
                } != last_published;
            if changed {
                self.ledger.publish(&state);
            }
        }

        Ok(DriveOutcome {
            final_now: now,
            received: recv_total,
            busy: self.busy_now(),
            profile,
        })
    }

    /// Builds one telemetry sample from the shard's current state and hands
    /// it to the sink.
    fn emit_sample(&mut self, cycle: Cycle, recv_total: u64, profile: &StallProfile) {
        if let Some(m) = self.metrics {
            m.gauge("cycle").set(cycle);
        }
        let stats = merge_tile_stats(self.tiles);
        let mut metrics = self
            .metrics
            .map(MetricsRegistry::sample)
            .unwrap_or_default();
        // The merged packet-latency histogram rides along flattened in the
        // registry convention (`_count` + sparse `_b<i>`), so coordinators
        // can merge shards and estimate quantiles without a wire-format
        // change.
        if !stats.latency_histogram.is_empty() {
            metrics.push((
                "packet_latency_count".to_string(),
                stats.latency_histogram.iter().sum(),
            ));
            for (i, &b) in stats.latency_histogram.iter().enumerate() {
                if b != 0 {
                    metrics.push((format!("packet_latency_b{i}"), b));
                }
            }
        }
        // Trace truncation as a metric: the sum of runtime-ring and per-tile
        // ring drops so far, alertable the moment it goes nonzero.
        let trace_dropped = self.tracer.as_deref().map_or(0, TraceRing::dropped)
            + self
                .tiles
                .iter()
                .filter_map(|t| t.tracer())
                .map(TraceRing::dropped)
                .sum::<u64>();
        metrics.push(("trace_dropped".to_string(), trace_dropped));
        let sample = TelemetrySample {
            shard: self.shard as u32,
            cycle,
            received: recv_total,
            busy: self.busy_now(),
            delivered_packets: stats.delivered_packets,
            delivered_flits: stats.delivered_flits,
            injected_flits: stats.injected_flits,
            buffered_flits: self.tiles.iter().map(|t| t.buffered_flits() as u64).sum(),
            profile: *profile,
            metrics,
        };
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.emit(&sample);
        }
    }
}

/// Nanoseconds since `mark`; resets `mark` to now (phase-attribution chain:
/// every span between consecutive laps lands in exactly one bucket).
#[inline]
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
    ns
}

/// Merges the statistics of a driven shard's tiles (hosts report these).
pub fn merge_tile_stats(tiles: &[NetworkNode]) -> NetworkStats {
    let mut stats = NetworkStats::new();
    for tile in tiles {
        stats.merge(tile.stats());
    }
    stats
}
