//! The sharded execution runtime: a persistent worker pool driving one
//! partition shard per worker, with boundary mailboxes on cut links and
//! windowed neighbor synchronization — and *no global barrier anywhere*,
//! including fast-forward and completion detection.
//!
//! # Execution model
//!
//! Tiles are split into shards by a [`Partition`]; each shard is owned by one
//! worker of a pool spawned once and reused across `run()` calls (jobs arrive
//! on one run queue per worker). Before a run, every cut link is rewired: the
//! sender router's egress port gets a [`BoundaryLink`] mailbox per VC and the
//! receiving worker gets the matching [`BoundaryRx`] endpoints, so a worker's
//! simulated cycle touches only shard-local state plus lock-free SPSC rings.
//!
//! # Synchronization
//!
//! Every worker publishes its progress in a per-shard atomic (`negedge_done`
//! = last cycle whose negative edge completed). A run is cut into windows of
//! `w` cycles (`SyncMode::window`: 1 for `CycleAccurate`, `k + 1` for
//! `Slack(k)`, `n` for `Periodic(n)`). At the first cycle `c0` of each window
//! a worker spins until every *neighboring* shard (shards sharing a cut link
//! — no global rendezvous) has published `c0`; for the rest of the window it
//! consumes mailbox flits stamped `≤ c0 + 1` and credits stamped `≤ c0` —
//! exactly what that gate guaranteed, never what a faster neighbor happens
//! to have sent since. With `w = 1` this reproduces the sequential schedule
//! bit-exactly; with `w > 1` a cut-link flit or credit is seen up to `w − 1`
//! cycles late, the same way on every run and on every host.
//!
//! # Termination and fast-forward without a barrier
//!
//! Fast-forward and completion detection used to rendezvous every shard on a
//! global barrier at check boundaries; they now ride credit-counting
//! distributed termination detection ([`crate::termination`]). Each worker
//! publishes a [`ShardLedger`] — local idleness, agent completion, earliest
//! next event, and the cumulative flit counts handed to / taken from its
//! boundary transports — and keeps simulating. The *caller* thread of
//! [`ShardRuntime::run`] doubles as the detector: it scans the ledgers with a
//! two-wave consistent snapshot and, only when every shard is idle and the
//! transport credits balance, publishes a stop flag (completion) or a
//! monotone jump target (fast-forward) that workers pick up from their
//! normal per-cycle polling. Workers never wait for each other beyond the
//! usual window gates.

use crate::driver::{
    merge_tile_stats, CycleDriver, DriverParams, NoPayloads, SyncMode, TelemetrySink,
    TransportPump, WaitProfile,
};
use crate::partition::Partition;
use crate::termination::{decide, scan_ledgers, Directive, ShardLedger};
use crate::wiring::{cut_links, unwire, wire_shards, ShardParts};
use hornet_net::boundary::BoundaryRx;
use hornet_net::ids::Cycle;
use hornet_net::kernel::KernelMode;
use hornet_net::network::NetworkNode;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::{MetricsRegistry, TelemetrySample};
use hornet_obs::profile::StallProfile;
use hornet_obs::serve::ObsHub;
use hornet_obs::trace::{TraceDump, TraceRing};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Parameters of one sharded run.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// First cycle already completed (the run simulates `start+1 ..= start+cycles`).
    pub start: Cycle,
    /// Number of cycles to simulate.
    pub cycles: Cycle,
    /// Synchronization mode.
    pub sync: SyncMode,
    /// Skip idle periods by jumping all clocks to the next event.
    pub fast_forward: bool,
    /// Stop early once every agent reports completion and the network drains.
    pub detect_completion: bool,
    /// Attribute each worker's wall time to compute / slack-wait / ingest /
    /// flush phases (reported per shard in [`RunOutcome::per_shard_profiles`]).
    pub profile: bool,
    /// Collect a [`TelemetrySample`] per shard roughly every this many
    /// cycles (rounded up to the sync window); `None` disables sampling.
    pub telemetry_every: Option<u64>,
    /// Capacity of each shard's runtime event ring (slack waits, checkpoint
    /// captures); 0 disables runtime event tracing. Flit-lifecycle tracing is
    /// per tile and enabled on the tiles themselves.
    pub trace_runtime: usize,
    /// Live observation hub: every telemetry sample is *also* pushed here as
    /// it is emitted (in addition to the per-run sample vector), feeding the
    /// embedded HTTP status server. `None` keeps sampling purely end-of-run.
    pub live: Option<Arc<ObsHub>>,
    /// Cycle-execution strategy per shard: interpreter, compiled kernel, or
    /// auto-detection (bit-identical either way).
    pub kernel: KernelMode,
}

/// Result of one sharded run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The tiles, in their original order.
    pub nodes: Vec<NetworkNode>,
    /// The cycle the simulation stopped at (equals `start + cycles` unless
    /// completion detection stopped it earlier).
    pub final_cycle: Cycle,
    /// Statistics merged per shard by each worker (no cross-thread atomics:
    /// each worker folds its own tiles' counters locally).
    pub per_shard_stats: Vec<NetworkStats>,
    /// Number of physical links cut by the partition.
    pub cut_links: usize,
    /// Per-shard wall-time attribution (all zeros unless
    /// [`RunParams::profile`] was set).
    pub per_shard_profiles: Vec<StallProfile>,
    /// Telemetry samples from every shard, in (shard, emission) order.
    pub samples: Vec<TelemetrySample>,
    /// Runtime events (slack waits, checkpoints) from every shard's ring,
    /// merged in shard order. Empty unless [`RunParams::trace_runtime`] > 0.
    pub runtime_trace: TraceDump,
}

/// Shared synchronization state of one run.
struct SyncShared {
    /// Per shard: last cycle whose negative edge completed.
    negedge_done: Vec<AtomicU64>,
    /// Per shard: the credit-counting termination ledger.
    ledgers: Vec<ShardLedger>,
    /// Fast-forward jump target published by the detector (monotone; a worker
    /// jumps when the target exceeds its own clock). 0 = no jump.
    skip_to: AtomicU64,
    /// Set by the detector when completion is declared.
    stop: AtomicBool,
}

impl SyncShared {
    fn new(shards: usize, start: Cycle) -> Self {
        Self {
            negedge_done: (0..shards).map(|_| AtomicU64::new(start)).collect(),
            ledgers: (0..shards).map(|_| ShardLedger::new()).collect(),
            skip_to: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }
}

/// One unit of work for a worker: simulate one shard for one run.
struct Job {
    parts: ShardParts,
    sync: Arc<SyncShared>,
    params: RunParams,
    done: Sender<JobResult>,
}

struct JobResult {
    shard: usize,
    tiles: Vec<NetworkNode>,
    stats: NetworkStats,
    /// The cycle this shard actually stopped at.
    final_now: Cycle,
    /// Receiver endpoints, returned so the caller can flush leftover
    /// in-flight flits once every sender has exited (replaces the old
    /// end-of-run barrier).
    inbound: Vec<BoundaryRx>,
    /// The shard's simulation panicked; `tiles` is empty and the whole run
    /// must be aborted (the caller re-raises after unblocking the others).
    panicked: bool,
    /// Wall-time attribution of this shard's run.
    profile: StallProfile,
    /// Telemetry samples this shard emitted.
    samples: Vec<TelemetrySample>,
    /// This shard's runtime events (empty when runtime tracing is off).
    runtime_trace: TraceDump,
}

/// The thread backend's [`TransportPump`]: boundary rings are shared
/// directly between the shard loops, so the data plane needs no pumping at
/// all — only the per-shard progress atomics in [`SyncShared`].
struct ThreadPump<'a> {
    shard: usize,
    sync: &'a SyncShared,
    neighbors: &'a [usize],
}

impl TransportPump for ThreadPump<'_> {
    fn peers_reached(&mut self, floor: Cycle) -> bool {
        self.neighbors
            .iter()
            .all(|&n| self.sync.negedge_done[n].load(Ordering::Acquire) >= floor)
    }

    fn pump(&mut self, cycle: Cycle, _flush: bool) -> std::io::Result<()> {
        self.sync.negedge_done[self.shard].store(cycle, Ordering::Release);
        Ok(())
    }

    fn publish_jump(&mut self, target: Cycle) -> std::io::Result<()> {
        self.sync.negedge_done[self.shard].store(target, Ordering::Release);
        Ok(())
    }

    fn stall_report(&self) -> String {
        self.neighbors
            .iter()
            .map(|&n| {
                self.sync.negedge_done[n]
                    .load(Ordering::Acquire)
                    .to_string()
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Tees telemetry samples into the per-run sample vector (for the final
/// report) and, when attached, the live observation hub — so enabling the
/// HTTP server changes where copies of samples go, never what the driver
/// computes.
struct TeeSink<'a> {
    samples: &'a mut Vec<TelemetrySample>,
    live: Option<&'a ObsHub>,
}

impl TelemetrySink for TeeSink<'_> {
    fn emit(&mut self, sample: &TelemetrySample) {
        if let Some(hub) = self.live {
            hub.ingest(sample);
        }
        self.samples.push(sample.clone());
    }
}

/// The per-worker simulation loop for one shard: a thin host around the
/// unified [`CycleDriver`] (the protocol itself lives in [`crate::driver`]).
fn run_shard(job: Job) -> JobResult {
    let Job {
        parts:
            ShardParts {
                shard,
                mut tiles,
                outbound,
                mut inbound,
                neighbors,
            },
        sync,
        params: p,
        done: _done,
    } = job;
    let neighbors: Vec<usize> = neighbors.iter().map(|n| n.peer).collect();
    let mut pump = ThreadPump {
        shard,
        sync: &sync,
        neighbors: &neighbors,
    };
    let mut samples: Vec<TelemetrySample> = Vec::new();
    let metrics = p.telemetry_every.map(|_| MetricsRegistry::default());
    let mut sink = TeeSink {
        samples: &mut samples,
        live: p.live.as_deref(),
    };
    let mut runtime_ring = (p.trace_runtime > 0).then(|| TraceRing::new(p.trace_runtime));
    let driver = CycleDriver {
        shard,
        tiles: &mut tiles,
        outbound: &outbound,
        inbound: &mut inbound,
        transport: &mut pump,
        // Shards share the process's payload store: payloads never move.
        payloads: &NoPayloads,
        stop: &sync.stop,
        skip_to: &sync.skip_to,
        ledger: &sync.ledgers[shard],
        // The thread backend restarts runs from returned tiles instead of
        // checkpoints (its workers cannot crash independently of the host).
        checkpoint: None,
        telemetry: p.telemetry_every.is_some().then_some(&mut sink as _),
        metrics: metrics.as_ref(),
        tracer: runtime_ring.as_mut(),
    };
    let outcome = driver
        .run(&DriverParams {
            start: p.start,
            cycles: p.cycles,
            sync: p.sync,
            track_ledger: p.fast_forward || p.detect_completion,
            fast_forward: p.fast_forward,
            wait: WaitProfile::Spin,
            checkpoint_every: None,
            received_start: 0,
            profile: p.profile,
            telemetry_every: p.telemetry_every,
            kernel: p.kernel,
        })
        .expect("thread transport cannot fail");

    // No end-of-run rendezvous: the caller joins all workers through the
    // result channel and flushes the returned inbound endpoints afterwards,
    // when every sender has provably exited.
    let stats = merge_tile_stats(&tiles);
    let mut runtime_trace = TraceDump::default();
    if let Some(ring) = &mut runtime_ring {
        ring.drain_into(&mut runtime_trace);
    }
    JobResult {
        shard,
        tiles,
        stats,
        final_now: outcome.final_now,
        inbound,
        panicked: false,
        profile: outcome.profile,
        samples,
        runtime_trace,
    }
}

/// A persistent pool of shard workers, spawned once and fed one job per shard
/// per `run()` call.
pub struct ShardRuntime {
    workers: Vec<WorkerHandle>,
}

struct WorkerHandle {
    jobs: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

impl Default for ShardRuntime {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ShardRuntime {
    /// Creates a runtime with `workers` persistent worker threads (more are
    /// spawned on demand when a run needs them).
    pub fn new(workers: usize) -> Self {
        let mut rt = Self {
            workers: Vec::new(),
        };
        rt.ensure_workers(workers);
        rt
    }

    /// Number of live worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns additional workers until at least `count` exist.
    pub fn ensure_workers(&mut self, count: usize) {
        while self.workers.len() < count {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("hornet-shard-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let done = job.done.clone();
                        let shard = job.parts.shard;
                        let sync = Arc::clone(&job.sync);
                        // A panicking shard must not wedge the run: report a
                        // failure marker and raise the stop flag so peers
                        // spinning on this shard's progress unwind promptly.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_shard(job)
                        }));
                        match result {
                            Ok(result) => {
                                let _ = done.send(result);
                            }
                            Err(_) => {
                                sync.stop.store(true, Ordering::Release);
                                let _ = done.send(JobResult {
                                    shard,
                                    tiles: Vec::new(),
                                    stats: NetworkStats::new(),
                                    final_now: 0,
                                    inbound: Vec::new(),
                                    panicked: true,
                                    profile: StallProfile::default(),
                                    samples: Vec::new(),
                                    runtime_trace: TraceDump::default(),
                                });
                            }
                        }
                    }
                })
                .expect("spawn shard worker");
            self.workers.push(WorkerHandle {
                jobs: tx,
                handle: Some(handle),
            });
        }
    }

    /// Runs the tiles for `params.cycles` cycles under `partition`, returning
    /// them (in their original order) together with the final cycle and
    /// per-shard statistics. Boundary links are wired before and unwired
    /// after the run, so the returned tiles are indistinguishable from tiles
    /// simulated sequentially — including, under `CycleAccurate`,
    /// bit-identical statistics.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not cover exactly `nodes.len()` tiles, or
    /// if a worker thread died.
    pub fn run(
        &mut self,
        nodes: Vec<NetworkNode>,
        partition: &Partition,
        params: RunParams,
    ) -> RunOutcome {
        let shards = partition.shard_count();
        self.ensure_workers(shards);
        let node_count = nodes.len();
        assert_eq!(
            partition.node_count(),
            node_count,
            "partition must cover every tile exactly once"
        );
        let cut_count = cut_links(&nodes, partition).len();
        let end = params.start + params.cycles;
        let sync = Arc::new(SyncShared::new(shards, params.start));
        let (done_tx, done_rx) = channel::<JobResult>();
        for parts in wire_shards(nodes, partition) {
            let job = Job {
                parts,
                sync: Arc::clone(&sync),
                params: params.clone(),
                done: done_tx.clone(),
            };
            self.workers[job.parts.shard]
                .jobs
                .send(job)
                .expect("worker alive");
        }
        drop(done_tx);

        // Collect worker results; while any are outstanding the caller thread
        // doubles as the credit-counting termination detector.
        let mut results: Vec<Option<JobResult>> = (0..shards).map(|_| None).collect();
        let mut received = 0usize;
        let mut any_panicked = false;
        let detector_active = params.fast_forward || params.detect_completion;
        while received < shards {
            if detector_active {
                // Pace the detector on the result channel itself: the
                // timeout bounds detection latency while the blocking wait
                // keeps this thread off the workers' cores (no spinning).
                match done_rx.recv_timeout(std::time::Duration::from_micros(200)) {
                    Ok(result) => {
                        any_panicked |= result.panicked;
                        let slot = result.shard;
                        results[slot] = Some(result);
                        received += 1;
                        continue;
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        panic!("shard worker died without reporting");
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        detector_pass(&sync, &params, end);
                    }
                }
            } else {
                let result = done_rx.recv().expect("shard worker died");
                any_panicked |= result.panicked;
                let slot = result.shard;
                results[slot] = Some(result);
                received += 1;
            }
        }

        assert!(
            !any_panicked,
            "a shard worker panicked during the run; simulation state is lost"
        );
        let stopped = sync.stop.load(Ordering::Acquire);
        let mut results: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("all shards report"))
            .collect();
        let final_cycle = if stopped {
            // Workers notice the stop flag at slightly different cycles; the
            // system was quiescent throughout, so aligning every clock to the
            // latest one is a no-op semantically.
            results.iter().map(|r| r.final_now).max().unwrap_or(end)
        } else {
            end
        };

        // Every sender has exited: flush leftover in-flight mailbox flits
        // into the real ingress buffers (race-free without a barrier).
        for result in &mut results {
            for rx in result.inbound.drain(..) {
                rx.flush();
            }
        }

        let mut slots: Vec<Option<NetworkNode>> = (0..node_count).map(|_| None).collect();
        let mut per_shard_stats = vec![NetworkStats::new(); shards];
        let mut per_shard_profiles = vec![StallProfile::default(); shards];
        let mut samples = Vec::new();
        let mut runtime_trace = TraceDump::default();
        for result in results {
            per_shard_stats[result.shard] = result.stats;
            per_shard_profiles[result.shard] = result.profile;
            samples.extend(result.samples);
            runtime_trace.merge(result.runtime_trace);
            for (&idx, mut tile) in partition.members(result.shard).iter().zip(result.tiles) {
                if stopped {
                    tile.set_cycle(final_cycle);
                }
                slots[idx] = Some(tile);
            }
        }
        let mut nodes: Vec<NetworkNode> = slots
            .into_iter()
            .map(|s| s.expect("every tile returned"))
            .collect();

        unwire(&mut nodes, partition);

        RunOutcome {
            nodes,
            final_cycle,
            per_shard_stats,
            cut_links: cut_count,
            per_shard_profiles,
            samples,
            runtime_trace,
        }
    }
}

/// One detector iteration: scan the ledgers and act on the verdict. The
/// jump floor is the newest shard clock and the target already published —
/// a target at or below either is one some shard has simulated past.
fn detector_pass(sync: &SyncShared, p: &RunParams, end: Cycle) {
    if sync.stop.load(Ordering::Acquire) {
        return;
    }
    let verdict = scan_ledgers(&sync.ledgers);
    let newest = sync
        .negedge_done
        .iter()
        .map(|c| c.load(Ordering::Acquire))
        .max()
        .unwrap_or(0);
    let floor = newest.max(sync.skip_to.load(Ordering::Acquire));
    match decide(verdict, p.detect_completion, p.fast_forward, end, floor) {
        Some(Directive::Stop) => sync.stop.store(true, Ordering::Release),
        Some(Directive::Skip(target)) => sync.skip_to.store(target, Ordering::Release),
        None => {}
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // Replacing the sender closes the channel; the worker's recv()
            // then errors out and the thread exits.
            let (dead_tx, _) = channel::<Job>();
            w.jobs = dead_tx;
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}
