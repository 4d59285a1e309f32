//! The distributed host (coordinator): spawns worker processes, runs the
//! topology-aware partitioner, ships each worker its shard of the workload,
//! wires the data plane, and drives credit-counting termination detection
//! over probe rounds.
//!
//! The coordinator never touches simulation state: it only orchestrates.
//! Quiescence is decided exactly like the in-process detector — two probe
//! waves over the workers' ledgers; wave two must observe unchanged ledger
//! versions, which makes wave one a consistent global snapshot (the rounds
//! are serialized through the coordinator, so every wave-one value was
//! simultaneously current between the waves) — and acted on with the same
//! [`decide`] as the thread host's detector.

use crate::protocol::{proto_err, CtrlMsg, ShardReport, TransportKind};
use crate::spec::{DistSpec, RunKind};
use crate::transport::{Listener, Stream};
use crate::wire::WIRE_VERSION;
use crate::wiring::{cut_pairs, partition_for};
use hornet_net::geometry::Geometry;
use hornet_net::stats::NetworkStats;
use hornet_obs::json;
use hornet_obs::log::{set_max_level, Level};
use hornet_obs::metrics::{latency_quantiles, merged_histogram, TelemetrySample};
use hornet_obs::profile::StallProfile;
use hornet_obs::serve::{ObsHub, ObsServer};
use hornet_obs::trace::{TraceDump, TraceEvent, TraceKind, TraceRing};
use hornet_obs::{olog_debug, olog_info, olog_warn};
use hornet_shard::termination::{
    credits_balance, decide, Directive, LedgerState, Quiescence, QuiescenceScan,
};
use hornet_shard::Partition;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Abort (or, with checkpoints, restart) when no worker event arrives for
/// this long — the backstop behind the per-worker heartbeat timeout.
const RECV_TIMEOUT: Duration = Duration::from_secs(300);

/// Options of a distributed run.
#[derive(Clone, Debug)]
pub struct HostOptions {
    /// Worker process count (clamped to the partition's shard count).
    pub workers: usize,
    /// Data-plane transport.
    pub transport: TransportKind,
    /// Worker executable (defaults to the current executable, which must
    /// understand the `worker` subcommand — the `hornet-dist` binary does).
    pub worker_cmd: Option<PathBuf>,
    /// Print orchestration progress to stderr.
    pub verbose: bool,
    /// Host-list mode: instead of spawning local workers, expect these
    /// pre-started workers (`host:port` data-plane addresses, one per
    /// shard) to connect to the TCP control plane. Each worker is started
    /// on its machine as `hornet-dist worker --connect <coordinator>
    /// --family tcp --advertise <its host:port>` and is matched to its
    /// shard by that advertised address. Forces the TCP transport.
    pub worker_hosts: Option<Vec<String>>,
    /// Control-plane bind address for host-list mode
    /// (e.g. `0.0.0.0:9100`).
    pub ctrl_listen: Option<String>,
    /// Declare a worker lost when nothing is heard from it for this long
    /// (workers send a heartbeat every
    /// [`HEARTBEAT_INTERVAL`](crate::protocol::HEARTBEAT_INTERVAL)).
    pub heartbeat_timeout: Duration,
    /// How many times a run that lost a worker is restarted — from the last
    /// committed checkpoint set when one exists, from scratch otherwise —
    /// before aborting. Host-list (remote worker) losses are always fatal:
    /// the coordinator cannot respawn a remote process.
    pub max_restarts: u32,
    /// Run handshake nonce; workers whose Hello carries a different nonce
    /// are rejected. Freshly randomized per run when `None`.
    pub nonce: Option<u64>,
    /// Append every telemetry sample the workers ship (requires the spec's
    /// `telemetry_every`) to this file as one NDJSON line each, flushed per
    /// sample so the stream can be tailed live.
    pub metrics_out: Option<PathBuf>,
    /// Serve live run state over HTTP on this address for the duration of
    /// the run: `/healthz`, `/status`, `/metrics` (Prometheus text
    /// exposition), `/trace?since_cycle=N` and `/alerts`. The server is
    /// strictly read-only; enabling it does not perturb results.
    pub http: Option<String>,
}

impl Default for HostOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            transport: TransportKind::UnixSocket,
            worker_cmd: None,
            verbose: false,
            worker_hosts: None,
            ctrl_listen: None,
            heartbeat_timeout: Duration::from_secs(10),
            max_restarts: 2,
            nonce: None,
            metrics_out: None,
            http: None,
        }
    }
}

/// The merged result of a distributed run.
#[derive(Clone, Debug, Default)]
pub struct DistOutcome {
    /// Statistics merged over all shards.
    pub stats: NetworkStats,
    /// Per-shard statistics, in shard order.
    pub per_shard: Vec<NetworkStats>,
    /// The cycle the run stopped at (max over shards).
    pub final_cycle: u64,
    /// For completion runs: every agent finished and the network drained.
    pub completed: bool,
    /// Physical links cut by the partition.
    pub cut_links: usize,
    /// Number of shards (worker processes) used.
    pub shards: usize,
    /// How many times the run was restarted after losing a worker.
    pub restarts: u32,
    /// Per-shard wall-time attribution (compute / wait / ingest / flush),
    /// in shard order.
    pub per_shard_profiles: Vec<StallProfile>,
    /// Merged event trace: every shard's tile/runtime rings (when the spec
    /// enabled tracing) plus the coordinator's own supervision events
    /// (checkpoint commits, worker losses, rollbacks, respawns).
    pub trace: TraceDump,
    /// Every telemetry sample the workers shipped, in arrival order.
    pub samples: Vec<TelemetrySample>,
}

impl DistOutcome {
    /// The one-line result `hornet-dist host --json` prints.
    pub fn summary_json(&self, cycles_per_sec: f64) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.u64("shards", self.shards as u64)
                .u64("cut_links", self.cut_links as u64)
                .u64("final_cycle", self.final_cycle)
                .bool("completed", self.completed)
                .u64("delivered_packets", self.stats.delivered_packets)
                .f64("avg_packet_latency", self.stats.avg_packet_latency(), 3)
                .f64("cycles_per_sec", cycles_per_sec, 0);
        });
        out
    }
}

/// A recoverable worker loss: the supervisor kills the attempt and — within
/// `max_restarts` — relaunches from the last committed checkpoint set. The
/// dedicated kind is what `run_distributed` dispatches recovery on.
fn lost(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionAborted,
        format!("worker lost: {msg}"),
    )
}

/// A fresh per-run handshake nonce (randomly seeded hasher state, not a
/// cryptographic token — it fences off stale or misdirected workers, not
/// adversaries).
fn fresh_nonce() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(u64::from(std::process::id()));
    h.finish()
}

/// The coordinator-side checkpoint commit log: per-shard staged captures,
/// and the newest cycle every shard has reported — the only state a restart
/// may resume from (a cycle some shard never captured would desynchronize
/// the rendezvous).
struct CommitLog {
    staged: Vec<std::collections::BTreeMap<u64, Vec<u8>>>,
    committed: Option<(u64, Vec<Vec<u8>>)>,
}

impl CommitLog {
    fn new(shards: usize) -> Self {
        Self {
            staged: (0..shards).map(|_| Default::default()).collect(),
            committed: None,
        }
    }

    /// Stages one shard's capture; returns `Some((cycle, total_bytes))` when
    /// this report completed a new committed set.
    fn record(&mut self, shard: usize, cycle: u64, data: Vec<u8>) -> Option<(u64, usize)> {
        if shard >= self.staged.len() {
            return None;
        }
        self.staged[shard].insert(cycle, data);
        // Commit the newest cycle staged by every shard (checkpoint cadence
        // is uniform, so the per-shard newest cycles only differ while some
        // shard's report is still in flight).
        let candidate = self
            .staged
            .iter()
            .map(|m| m.keys().next_back().copied())
            .min()
            .flatten();
        if let Some(cycle) = candidate {
            if self.staged.iter().all(|m| m.contains_key(&cycle))
                && self.committed.as_ref().is_none_or(|(c, _)| *c < cycle)
            {
                let set: Vec<Vec<u8>> = self
                    .staged
                    .iter_mut()
                    .map(|m| m.get(&cycle).cloned().expect("checked membership"))
                    .collect();
                let bytes = set.iter().map(Vec::len).sum();
                self.committed = Some((cycle, set));
                for m in &mut self.staged {
                    *m = m.split_off(&(cycle + 1));
                }
                return Some((cycle, bytes));
            }
        }
        None
    }
}

/// Coordinator-side telemetry aggregation: every sample is kept for the
/// final outcome and, when `--metrics-out` is set, appended to the stream
/// file as one NDJSON line — flushed per sample, so `tail -f` sees the run
/// live.
struct MetricsStream {
    out: Option<std::io::BufWriter<std::fs::File>>,
    samples: Vec<TelemetrySample>,
    /// Live-introspection hub: every sample is also ingested here when the
    /// run serves HTTP, and supervision events are mirrored into its trace
    /// buffer.
    hub: Option<Arc<ObsHub>>,
}

impl MetricsStream {
    fn open(path: Option<&std::path::Path>) -> io::Result<Self> {
        let out = match path {
            Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
            None => None,
        };
        Ok(Self {
            out,
            samples: Vec::new(),
            hub: None,
        })
    }

    fn absorb(&mut self, sample: TelemetrySample) {
        olog_debug!(
            "host",
            { shard = sample.shard, cycle = sample.cycle },
            "telemetry sample"
        );
        if let Some(w) = &mut self.out {
            let _ = writeln!(w, "{}", sample.to_ndjson());
            let _ = w.flush();
        }
        if let Some(hub) = &self.hub {
            hub.ingest(&sample);
        }
        self.samples.push(sample);
    }

    /// Appends a summary record to the NDJSON stream and flushes it, so
    /// everything absorbed so far survives a rollback or abort; `event` is
    /// `"rollback"`, `"abort"` or `"end"`. Carries the packet-latency
    /// quantile estimates of the shards' merged histograms when any shard
    /// shipped one.
    fn summarize(&mut self, event: &str, restarts: u32) {
        let Some(w) = &mut self.out else {
            return;
        };
        let latency = merged_histogram(&self.samples, "packet_latency");
        let mut line = String::new();
        json::object(&mut line, |o| {
            o.bool("summary", true)
                .str("event", event)
                .u64("restarts", u64::from(restarts))
                .u64("samples", self.samples.len() as u64);
            if let Some(h) = latency {
                let [p50, p95, p99] = latency_quantiles(&h);
                o.f64("latency_p50", p50, 4)
                    .f64("latency_p95", p95, 4)
                    .f64("latency_p99", p99, 4);
            }
        });
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// What a per-connection reader thread forwards to the main loop: its
/// shard and each message, or why the channel ended (its last event).
type Event = (usize, io::Result<CtrlMsg>);

/// Scratch directory for this run's sockets/segments.
fn scratch_dir() -> io::Result<PathBuf> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "hornet-dist-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Sends `msg` to every worker, trying them all; returns the first failure.
fn broadcast(conns: &mut [Stream], msg: &CtrlMsg) -> io::Result<()> {
    conns
        .iter_mut()
        .map(|conn| msg.send(conn))
        .fold(Ok(()), io::Result::and)
}

/// Everything the coordinator knows about a run while supervising it. The
/// resume point, the restart count, the supervision trace and the metrics
/// stream span attempts; the rest belongs to one attempt.
struct Supervisor {
    /// The committed checkpoint set the next attempt resumes from.
    resume: Option<(u64, Vec<Vec<u8>>)>,
    /// How many times the run was restarted.
    restarts: u32,
    /// Supervision events (checkpoint commits, losses, rollbacks, respawns),
    /// folded into the final outcome's trace.
    ring: TraceRing,
    /// Telemetry samples, their NDJSON stream and the live hub.
    metrics: MetricsStream,
    /// This attempt's checkpoint captures and commits.
    commit: CommitLog,
    /// Each shard's final report, once it arrived.
    done: Vec<Option<Box<ShardReport>>>,
    /// When each shard was last heard from (stamped from the start of
    /// supervision: the handshake has its own deadlines).
    last_seen: Vec<Instant>,
    /// When any shard was last heard from.
    last_event: Instant,
}

impl Supervisor {
    fn new(metrics: MetricsStream) -> Self {
        Self {
            resume: None,
            restarts: 0,
            ring: TraceRing::new(1024),
            metrics,
            commit: CommitLog::new(0),
            done: Vec::new(),
            last_seen: Vec::new(),
            last_event: Instant::now(),
        }
    }

    fn begin_attempt(&mut self, shards: usize) {
        self.commit = CommitLog::new(shards);
        self.done = (0..shards).map(|_| None).collect();
    }

    /// Records a supervision event in the trace ring and mirrors it into the
    /// live hub's trace buffer.
    fn record(&mut self, kind: TraceKind, cycle: u64, a: u64) {
        let event = TraceEvent {
            cycle,
            node: u32::MAX,
            kind,
            a,
            b: 0,
        };
        self.ring.record(event);
        if let Some(hub) = &self.metrics.hub {
            hub.record_trace(event);
        }
    }

    /// Folds a lost attempt into the next one: resume from the newest
    /// checkpoint set every shard committed (from scratch when none has),
    /// and flush the stream with a rollback marker, so every sample absorbed
    /// before the loss is durable even if the respawned attempt dies too.
    fn rollback(&mut self, cause: &io::Error, max_restarts: u32) {
        self.restarts += 1;
        if let Some(committed) = self.commit.committed.take() {
            self.resume = Some(committed);
        }
        let cycle = self.resume.as_ref().map_or(0, |(cycle, _)| *cycle);
        let restarts = u64::from(self.restarts);
        self.record(TraceKind::WorkerLost, cycle, restarts);
        self.record(TraceKind::Rollback, cycle, u64::from(self.resume.is_some()));
        self.record(TraceKind::Respawn, cycle, restarts);
        if let Some(hub) = &self.metrics.hub {
            hub.set_gauge("restarts", restarts);
        }
        self.metrics.summarize("rollback", self.restarts);
        olog_warn!(
            "host",
            { restart = self.restarts, max = max_restarts },
            "{cause}; restarting from {}",
            match &self.resume {
                Some((cycle, _)) => format!("checkpoint cycle {cycle}"),
                None => "scratch (nothing committed yet)".into(),
            }
        );
    }

    /// Handles every non-ledger message in one place, so checkpoints, Done
    /// reports and telemetry are never dropped regardless of which wait they
    /// arrive in.
    fn absorb(&mut self, shard: usize, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Done(report) => {
                olog_debug!(
                    "host",
                    { shard = shard, cycle = report.final_now },
                    "Done received"
                );
                self.done[shard] = Some(report);
            }
            CtrlMsg::Checkpoint { cycle, data } => {
                if let Some((cycle, bytes)) = self.commit.record(shard, cycle, data) {
                    self.record(TraceKind::CheckpointCommit, cycle, bytes as u64);
                    if let Some(hub) = &self.metrics.hub {
                        hub.set_gauge("checkpoint_cycle", cycle);
                    }
                    olog_info!(
                        "host",
                        { cycle = cycle, bytes = bytes },
                        "checkpoint set committed"
                    );
                }
            }
            CtrlMsg::Telemetry { sample } => self.metrics.absorb(*sample),
            _ => {} // heartbeats carry no payload beyond liveness
        }
    }

    /// Waits up to `timeout` for the next control message and stamps its
    /// sender as alive. `None` when the channel stays quiet or a finished
    /// worker's channel closes; a worker gone before it reported is lost.
    fn next(
        &mut self,
        rx: &Receiver<Event>,
        timeout: Duration,
    ) -> io::Result<Option<(usize, CtrlMsg)>> {
        match rx.recv_timeout(timeout) {
            Ok((shard, Ok(msg))) => {
                self.last_seen[shard] = Instant::now();
                self.last_event = Instant::now();
                Ok(Some((shard, msg)))
            }
            Ok((shard, Err(e))) => {
                olog_debug!("host", { shard = shard }, "control channel closed: {e}");
                if self.done[shard].is_none() {
                    return Err(lost(&format!("shard {shard} exited before reporting")));
                }
                Ok(None)
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(proto_err("all workers gone")),
        }
    }

    /// Sends the next probe round and collects every shard's ledger reply,
    /// absorbing interleaved traffic. `None` when the round cannot complete:
    /// five quiet seconds, or a finished worker (which can no longer answer)
    /// gone.
    fn probe(
        &mut self,
        conns: &mut [Stream],
        rx: &Receiver<Event>,
        round: &mut u64,
    ) -> io::Result<Option<Vec<(u64, LedgerState)>>> {
        *round += 1;
        let _ = broadcast(conns, &CtrlMsg::Probe { round: *round });
        let mut replies = vec![None; conns.len()];
        let deadline = Instant::now() + Duration::from_secs(5);
        while replies.iter().any(Option::is_none) {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match self.next(rx, timeout)? {
                None => return Ok(None),
                Some((
                    shard,
                    CtrlMsg::Ledger {
                        round: r,
                        version,
                        state,
                    },
                )) => {
                    if r == *round {
                        replies[shard] = Some((version, state));
                    } // else: a stale round's reply
                }
                Some((shard, msg)) => self.absorb(shard, msg),
            }
        }
        Ok(Some(replies.into_iter().flatten().collect()))
    }

    /// One detection pass: two probe waves (the second only when the first
    /// balances its credits) and the directive [`decide`] draws from them.
    fn detect(
        &mut self,
        spec: &DistSpec,
        conns: &mut [Stream],
        rx: &Receiver<Event>,
        round: &mut u64,
        last_skip: u64,
    ) -> io::Result<Option<Directive>> {
        let Some(wave1) = self.probe(conns, rx, round)? else {
            return Ok(None);
        };
        let states: Vec<LedgerState> = wave1.iter().map(|&(_, s)| s).collect();
        if !credits_balance(&states) {
            return Ok(None);
        }
        // Wave two: versions must not have moved.
        let Some(wave2) = self.probe(conns, rx, round)? else {
            return Ok(None);
        };
        let verdict = QuiescenceScan::run(conns.len(), |i| wave1[i], |i| wave2[i].0);
        // No jump to or below the snapshot's newest clock or the target
        // already sent.
        let floor = match verdict {
            Quiescence::Idle { cycle, .. } => cycle.max(last_skip),
            Quiescence::Active => last_skip,
        };
        let completion = matches!(spec.run, RunKind::ToCompletion { .. });
        Ok(decide(
            verdict,
            completion,
            spec.fast_forward,
            spec.cycle_budget(),
            floor,
        ))
    }

    /// The post-start supervision loop: collects Done reports, commits shard
    /// checkpoints, tracks per-worker liveness, and, when the run needs it,
    /// drives probe-round termination detection. A worker going silent past
    /// the heartbeat timeout, or its control channel closing before it
    /// reported, is a recoverable loss ([`lost`]).
    fn supervise(
        &mut self,
        spec: &DistSpec,
        heartbeat_timeout: Duration,
        conns: &mut [Stream],
        rx: &Receiver<Event>,
    ) -> io::Result<()> {
        let detector = spec.needs_detector();
        let (mut round, mut stopped, mut last_skip) = (0u64, false, 0u64);
        self.last_event = Instant::now();
        self.last_seen = vec![self.last_event; conns.len()];
        while self.done.iter().any(Option::is_none) {
            // Liveness: heartbeats (and all other control traffic) refresh
            // `last_seen`; a live-but-unreported worker gone silent past the
            // timeout is lost.
            for (shard, seen) in self.last_seen.iter().enumerate() {
                if self.done[shard].is_none() && seen.elapsed() > heartbeat_timeout {
                    return Err(lost(&format!(
                        "shard {shard} sent no heartbeat for {:.1?}",
                        seen.elapsed()
                    )));
                }
            }
            if self.last_event.elapsed() > RECV_TIMEOUT {
                return Err(lost(&format!(
                    "workers made no progress for {RECV_TIMEOUT:.1?}"
                )));
            }

            if detector && !stopped {
                if let Some(directive) = self.detect(spec, conns, rx, &mut round, last_skip)? {
                    let msg = match directive {
                        Directive::Stop => {
                            stopped = true;
                            CtrlMsg::Stop
                        }
                        Directive::Skip(target) => {
                            last_skip = target;
                            CtrlMsg::Skip { target }
                        }
                    };
                    let _ = broadcast(conns, &msg);
                }
                // Gentle pacing between probe rounds.
                std::thread::sleep(Duration::from_micros(500));
            } else if let Some((shard, msg)) = self.next(rx, Duration::from_millis(250))? {
                // A bounded wait, so liveness is re-checked even when the
                // channel is quiet.
                self.absorb(shard, msg);
            }
        }
        Ok(())
    }

    /// Merges every shard's report, the supervision trace and the telemetry
    /// of all attempts into the run's outcome.
    fn outcome(&mut self, cut_links: usize) -> io::Result<DistOutcome> {
        let shards = self.done.len();
        let mut stats = NetworkStats::new();
        let mut per_shard = Vec::with_capacity(shards);
        let mut per_shard_profiles = Vec::with_capacity(shards);
        let mut trace = TraceDump::default();
        let mut final_cycle = 0u64;
        let mut completed = true;
        for (shard, report) in std::mem::take(&mut self.done).into_iter().enumerate() {
            let report = report.expect("all workers reported");
            stats.merge(&report.stats);
            if !report.trace.is_empty() {
                trace.merge(TraceDump::decode(&report.trace).map_err(|e| {
                    proto_err(&format!("shard {shard} shipped an unreadable trace: {e}"))
                })?);
            }
            final_cycle = final_cycle.max(report.final_now);
            completed &= report.completed;
            per_shard.push(report.stats);
            per_shard_profiles.push(report.profile);
        }
        self.ring.drain_into(&mut trace);
        self.metrics.summarize("end", self.restarts);
        Ok(DistOutcome {
            stats,
            per_shard,
            final_cycle,
            completed,
            cut_links,
            shards,
            restarts: self.restarts,
            per_shard_profiles,
            trace,
            samples: std::mem::take(&mut self.metrics.samples),
        })
    }
}

/// Runs `spec` across worker processes, supervising them: a worker lost
/// mid-run (crash, kill, hang past the heartbeat timeout) triggers a global
/// rollback — every worker is killed and respawned, and the run resumes from
/// the last checkpoint cycle every shard committed (from scratch when none
/// has), up to `max_restarts` times. Returns the merged outcome; every
/// spawned process, socket and segment is cleaned up on all paths, including
/// the final abort.
pub fn run_distributed(spec: &DistSpec, opts: &HostOptions) -> io::Result<DistOutcome> {
    spec.validate()?;
    if opts.verbose {
        set_max_level(Level::Info);
    }
    let workers = opts
        .worker_hosts
        .as_ref()
        .map_or(opts.workers, |hosts| hosts.len());
    let partition = partition_for(spec, workers);
    let shards = partition.shard_count();
    if shards < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a distributed run needs at least two shards",
        ));
    }
    if opts.worker_hosts.is_some() && workers != shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("host list has {workers} entries but the partition needs {shards} shards"),
        ));
    }
    // The shard adjacencies, each once as `(lo, hi)`: one data-plane
    // endpoint each.
    // The geometry alone: the spec's flow list can be all-to-all.
    let geometry = Geometry::mesh2d(spec.width as usize, spec.height as usize);
    let cut = cut_pairs(&geometry, &partition);
    let mut adjacencies: Vec<(usize, usize)> = cut
        .iter()
        .map(|&(a, b)| (partition.shard_of(a), partition.shard_of(b)))
        .map(|(s, t)| (s.min(t), s.max(t)))
        .collect();
    adjacencies.sort_unstable();
    adjacencies.dedup();
    let nonce = opts.nonce.unwrap_or_else(fresh_nonce);
    let dir = scratch_dir()?;
    let mut sup = Supervisor::new(MetricsStream::open(opts.metrics_out.as_deref())?);
    // Live-monitoring server: spawned before the first attempt so scrapes
    // observe the whole run, including rollbacks. Strictly read-only.
    let mut http_server = match &opts.http {
        None => None,
        Some(addr) => {
            let hub = Arc::new(ObsHub::new());
            hub.set_gauge("shards", shards as u64);
            hub.set_gauge("restarts", 0);
            let server = ObsServer::spawn(addr, Arc::clone(&hub))?;
            olog_info!(
                "host",
                { addr = server.addr() },
                "live monitoring at http://{}/status",
                server.addr()
            );
            sup.metrics.hub = Some(hub);
            Some(server)
        }
    };
    let result = loop {
        // Fresh socket/segment paths per attempt: a killed attempt's
        // stale files can never collide with the respawn.
        let attempt_dir = dir.join(format!("a{}", sup.restarts));
        sup.begin_attempt(shards);
        let attempt = run_attempt(
            spec,
            opts,
            &partition,
            &adjacencies,
            &attempt_dir,
            nonce,
            &mut sup,
        )
        .and_then(|()| sup.outcome(cut.len()));
        match attempt {
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionAborted
                    && opts.worker_hosts.is_none()
                    && sup.restarts < opts.max_restarts =>
            {
                // Global rollback: the attempt's children are already
                // killed.
                sup.rollback(&e, opts.max_restarts);
            }
            Err(e) => {
                // Fatal abort: flush the stream so samples absorbed before
                // the failure are never lost.
                sup.metrics.summarize("abort", sup.restarts);
                break Err(e);
            }
            Ok(outcome) => break Ok(outcome),
        }
    };
    if let Some(mut server) = http_server.take() {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One attempt: starts the workers (host-list mode: awaits the pre-started
/// ones), runs the handshake — Hello → Assign → Listening (socket media) →
/// PeerMap → Start — supervises the run to its end and reaps every worker,
/// killing them all on any error path.
fn run_attempt(
    spec: &DistSpec,
    opts: &HostOptions,
    partition: &Partition,
    adjacencies: &[(usize, usize)],
    dir: &Path,
    nonce: u64,
    sup: &mut Supervisor,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let shards = partition.shard_count();
    let remote_hosts = opts.worker_hosts.as_deref();
    // Pre-started workers on other machines can only be reached over TCP;
    // so can the coordinator, at the user-given bind address.
    let (transport, ctrl_family, ctrl_bind) = match remote_hosts {
        Some(_) => (
            TransportKind::Tcp,
            "tcp",
            opts.ctrl_listen
                .as_deref()
                .unwrap_or("0.0.0.0:0")
                .to_string(),
        ),
        None if cfg!(unix) => (
            opts.transport,
            "unix",
            dir.join("control.sock").to_string_lossy().into_owned(),
        ),
        None => (opts.transport, "tcp", "127.0.0.1:0".into()),
    };
    let ctrl_kind = TransportKind::parse(ctrl_family).expect("a socket family name");
    let listener = Listener::bind(ctrl_kind, &ctrl_bind)?;
    let ctrl_addr = listener.addr()?;
    let mut children: Vec<Child> = Vec::with_capacity(shards);
    if remote_hosts.is_some() {
        // Warn level: the run blocks here until the operator starts the
        // remote workers, so the instructions must be visible by default.
        olog_warn!(
            "host",
            { workers = shards, addr = ctrl_addr },
            "waiting for workers (start each as: hornet-dist worker --connect <this host>:{} \
             --family tcp --advertise <its host:port> --nonce {nonce})",
            ctrl_addr.rsplit(':').next().unwrap_or("?")
        );
    } else {
        let worker_cmd = match &opts.worker_cmd {
            Some(p) => p.clone(),
            None => std::env::current_exe()?,
        };
        for _ in 0..shards {
            let child = Command::new(&worker_cmd)
                .arg("worker")
                .arg("--connect")
                .arg(&ctrl_addr)
                .arg("--family")
                .arg(ctrl_family)
                .arg("--nonce")
                .arg(nonce.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()?;
            children.push(child);
        }
    }
    // From here on, kill the children on any error path.
    let run = (|| -> io::Result<()> {
        // Accept one control connection per worker. Locally spawned workers
        // take accept order as shard id; host-list workers are matched to
        // the shard whose advertised address they announce.
        let deadline =
            Instant::now() + Duration::from_secs(if remote_hosts.is_some() { 600 } else { 60 });
        let mut slots: Vec<Option<(Stream, BufReader<Stream>)>> =
            (0..shards).map(|_| None).collect();
        while let Some(free) = slots.iter().position(Option::is_none) {
            let stream = listener.accept_until(deadline)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let CtrlMsg::Hello {
                version,
                advertise,
                nonce: hello_nonce,
            } = CtrlMsg::recv(&mut reader)?
            else {
                return Err(proto_err("expected Hello"));
            };
            if version != WIRE_VERSION {
                return Err(proto_err("wire version mismatch"));
            }
            if hello_nonce != nonce {
                // A stray worker — stale respawn from a killed attempt, or
                // someone else's run — must not claim a shard slot. Drop the
                // connection and keep accepting.
                olog_warn!(
                    "host",
                    {},
                    "rejected worker with stale nonce ({advertise:?})"
                );
                stream.shutdown();
                continue;
            }
            let shard = match remote_hosts {
                None => free,
                Some(hosts) => {
                    let idx = hosts.iter().position(|h| *h == advertise).ok_or_else(|| {
                        proto_err(&format!(
                            "worker advertised {advertise:?}, not in the host list"
                        ))
                    })?;
                    if slots[idx].is_some() {
                        return Err(proto_err(&format!("duplicate worker for {advertise}")));
                    }
                    idx
                }
            };
            olog_info!("host", { shard = shard }, "worker connected ({advertise})");
            slots[shard] = Some((stream, reader));
        }
        let (mut conns, mut readers): (Vec<Stream>, Vec<BufReader<Stream>>) = slots
            .into_iter()
            .map(|slot| slot.expect("every shard connected"))
            .unzip();

        for (shard, conn) in conns.iter_mut().enumerate() {
            let listen = match (remote_hosts, transport) {
                // Host-list mode: the worker binds its advertised port and
                // the peers dial the advertised address.
                (Some(hosts), _) => hosts[shard].clone(),
                (None, TransportKind::UnixSocket) => dir
                    .join(format!("data-{shard}.sock"))
                    .to_string_lossy()
                    .into_owned(),
                _ => String::new(),
            };
            let resume = sup.resume.as_ref().map(|(_, sets)| sets[shard].clone());
            CtrlMsg::Assign {
                shard: shard as u32,
                shards: shards as u32,
                spec: Box::new(spec.clone()),
                transport,
                listen,
                resume,
            }
            .send(conn)?;
        }

        // The peer map: per adjacency, the lower shard's data-plane address
        // (socket media — every worker reports its own) or a segment file in
        // the attempt's scratch directory, which must exist before the map
        // goes out.
        let mut addrs = Vec::with_capacity(shards);
        if transport != TransportKind::Shm {
            for reader in readers.iter_mut() {
                let CtrlMsg::Listening { addr } = CtrlMsg::recv(reader)? else {
                    return Err(proto_err("expected Listening"));
                };
                addrs.push(addr);
            }
        }
        let mut entries = Vec::with_capacity(adjacencies.len());
        for &(lo, hi) in adjacencies {
            let endpoint = if transport == TransportKind::Shm {
                let path = dir.join(format!("seg-{lo}-{hi}.shm"));
                crate::shm::create_segment(&path)?;
                path.to_string_lossy().into_owned()
            } else {
                addrs[lo].clone()
            };
            entries.push((lo as u32, hi as u32, endpoint));
        }
        broadcast(&mut conns, &CtrlMsg::PeerMap { entries })?;
        broadcast(&mut conns, &CtrlMsg::Start)?;
        olog_info!(
            "host",
            { workers = shards },
            "started workers ({transport:?})"
        );

        // Post-start: reader threads feed one event queue.
        let (tx, rx): (Sender<Event>, Receiver<Event>) = channel();
        let mut reader_threads = Vec::new();
        for (shard, mut reader) in readers.into_iter().enumerate() {
            let tx = tx.clone();
            reader_threads.push(std::thread::spawn(move || loop {
                // A frame that does not decode ends the channel like a
                // failed read.
                let msg = CtrlMsg::recv(&mut reader);
                let gone = msg.is_err();
                if tx.send((shard, msg)).is_err() || gone {
                    return;
                }
            }));
        }
        drop(tx);

        sup.supervise(spec, opts.heartbeat_timeout, &mut conns, &rx)?;
        olog_debug!("host", {}, "supervise complete");

        // Shut every control socket down first (drop alone is not enough:
        // the reader threads hold clones, so the workers would never see
        // EOF), and only then reap the children — a control connection's
        // shard id is its accept order, which need not match spawn order.
        for conn in &conns {
            conn.shutdown();
        }
        for child in children.iter_mut() {
            let _ = child.wait();
        }
        children.clear();
        drop(conns);
        for t in reader_threads {
            let _ = t.join();
        }
        olog_debug!("host", {}, "workers reaped, readers joined");
        Ok(())
    })();

    // Cleanup on error: kill any child still tracked (naming the ones that
    // had already died — the usual root cause of the abort).
    if run.is_err() {
        for (i, child) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                olog_info!(
                    "host",
                    { process = i },
                    "worker process exited with {status}"
                );
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shard: u32, cycle: u64, b3: u64) -> TelemetrySample {
        TelemetrySample {
            shard,
            cycle,
            metrics: vec![
                ("packet_latency_count".to_string(), b3 + 2),
                ("packet_latency_b3".to_string(), b3),
                ("packet_latency_b6".to_string(), 2),
            ],
            ..TelemetrySample::default()
        }
    }

    #[test]
    fn summary_json_is_byte_stable() {
        let mut outcome = DistOutcome {
            shards: 4,
            cut_links: 48,
            final_cycle: 2_000,
            ..DistOutcome::default()
        };
        outcome.stats.delivered_packets = 3;
        outcome.stats.total_packet_latency = 466;
        assert_eq!(
            outcome.summary_json(81_234.56),
            r#"{"shards":4,"cut_links":48,"final_cycle":2000,"completed":false,"delivered_packets":3,"avg_packet_latency":155.333,"cycles_per_sec":81235}"#
        );
    }

    #[test]
    fn metrics_out_stream_is_byte_stable() {
        let path = std::env::temp_dir().join(format!(
            "hornet-metrics-golden-{}.ndjson",
            std::process::id()
        ));
        let mut stream = MetricsStream::open(Some(&path)).expect("create");
        stream.summarize("rollback", 0);
        stream.absorb(sample(0, 500, 1));
        stream.absorb(sample(1, 500, 4));
        stream.absorb(sample(0, 1_000, 6));
        stream.summarize("end", 1);
        drop(stream);
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            r#"{"summary":true,"event":"rollback","restarts":0,"samples":0}
{"shard":0,"cycle":500,"received":0,"busy":0,"delivered_packets":0,"delivered_flits":0,"injected_flits":0,"buffered_flits":0,"compute_ns":0,"wait_ns":0,"ingest_ns":0,"flush_ns":0,"metrics":{"packet_latency_count":3,"packet_latency_b3":1,"packet_latency_b6":2}}
{"shard":1,"cycle":500,"received":0,"busy":0,"delivered_packets":0,"delivered_flits":0,"injected_flits":0,"buffered_flits":0,"compute_ns":0,"wait_ns":0,"ingest_ns":0,"flush_ns":0,"metrics":{"packet_latency_count":6,"packet_latency_b3":4,"packet_latency_b6":2}}
{"shard":0,"cycle":1000,"received":0,"busy":0,"delivered_packets":0,"delivered_flits":0,"injected_flits":0,"buffered_flits":0,"compute_ns":0,"wait_ns":0,"ingest_ns":0,"flush_ns":0,"metrics":{"packet_latency_count":8,"packet_latency_b3":6,"packet_latency_b6":2}}
{"summary":true,"event":"end","restarts":1,"samples":3,"latency_p50":13.6000,"latency_p95":116.8000,"latency_p99":125.7600}
"#
        );
    }
}
