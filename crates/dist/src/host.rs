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

use crate::protocol::{CtrlMsg, TransportKind};
use crate::spec::{DistSpec, RunKind};
use crate::transport::Stream;
use crate::wire::{read_frame, write_frame};
use crate::wiring::{cut_pairs, partition_for};
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
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Abort (or, with checkpoints, restart) when no worker event arrives
    /// for this long.
    pub recv_timeout: Duration,
    /// Liveness heartbeat interval assigned to the workers (zero disables
    /// heartbeats).
    pub heartbeat_interval: Duration,
    /// Declare a worker lost when nothing is heard from it for this long
    /// (only enforced when heartbeats are enabled).
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
            recv_timeout: Duration::from_secs(300),
            heartbeat_interval: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(10),
            max_restarts: 2,
            nonce: None,
            metrics_out: None,
            http: None,
        }
    }
}

/// The merged result of a distributed run.
#[derive(Clone, Debug)]
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

fn proto_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol: {msg}"))
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

    fn take_committed(&mut self) -> Option<(u64, Vec<Vec<u8>>)> {
        self.committed.take()
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

    /// Mirrors a coordinator supervision event into the live trace buffer
    /// (no-op without a hub).
    fn mirror_trace(&self, event: TraceEvent) {
        if let Some(hub) = &self.hub {
            hub.record_trace(event);
        }
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

/// One worker connection from the coordinator's side. (The control
/// connection is identified by shard id — accept order — which need not
/// match the spawn order of the child processes, so the `Child` handles are
/// kept separately and only reaped after every socket is shut down.)
struct WorkerConn {
    writer: Stream,
}

impl WorkerConn {
    fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        write_frame(&mut self.writer, &msg.encode())?;
        self.writer.flush()
    }
}

/// What the per-connection reader threads forward to the main loop.
/// (A handful of transient control messages per run: the size skew of the
/// spec-carrying variants is irrelevant here.)
#[allow(clippy::large_enum_variant)]
enum Event {
    Msg(usize, CtrlMsg),
    Gone(usize),
}

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
    let nonce = opts.nonce.unwrap_or_else(fresh_nonce);
    let dir = scratch_dir()?;
    // Supervision events (checkpoint commits, losses, rollbacks, respawns)
    // span attempts, so the ring lives here and is folded into the final
    // outcome's trace. The metrics stream likewise persists across restarts.
    let mut host_ring = TraceRing::new(1024);
    let mut metrics = MetricsStream::open(opts.metrics_out.as_deref())?;
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
            metrics.hub = Some(hub);
            Some(server)
        }
    };
    let result = (|| {
        let mut resume: Option<(u64, Vec<Vec<u8>>)> = None;
        let mut restarts = 0u32;
        loop {
            // Fresh socket/segment paths per attempt: a killed attempt's
            // stale files can never collide with the respawn.
            let attempt_dir = dir.join(format!("a{restarts}"));
            std::fs::create_dir_all(&attempt_dir)?;
            let mut commit = CommitLog::new(shards);
            let attempt = run_distributed_inner(
                spec,
                opts,
                &partition,
                &attempt_dir,
                nonce,
                resume.as_ref(),
                &mut commit,
                &mut host_ring,
                &mut metrics,
            );
            match attempt {
                Ok(mut outcome) => {
                    outcome.restarts = restarts;
                    let mut supervision = TraceDump::default();
                    host_ring.drain_into(&mut supervision);
                    outcome.trace.merge(supervision);
                    metrics.summarize("end", restarts);
                    outcome.samples = std::mem::take(&mut metrics.samples);
                    return Ok(outcome);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionAborted
                        && opts.worker_hosts.is_none()
                        && restarts < opts.max_restarts =>
                {
                    // Global rollback: the attempt's children are already
                    // killed; fold in the newest checkpoint set every shard
                    // committed and relaunch.
                    restarts += 1;
                    if let Some(c) = commit.take_committed() {
                        resume = Some(c);
                    }
                    let rollback_to = resume.as_ref().map_or(0, |(cycle, _)| *cycle);
                    for event in [
                        TraceEvent {
                            cycle: rollback_to,
                            node: u32::MAX,
                            kind: TraceKind::WorkerLost,
                            a: u64::from(restarts),
                            b: 0,
                        },
                        TraceEvent {
                            cycle: rollback_to,
                            node: u32::MAX,
                            kind: TraceKind::Rollback,
                            a: u64::from(resume.is_some()),
                            b: 0,
                        },
                        TraceEvent {
                            cycle: rollback_to,
                            node: u32::MAX,
                            kind: TraceKind::Respawn,
                            a: u64::from(restarts),
                            b: 0,
                        },
                    ] {
                        host_ring.record(event);
                        metrics.mirror_trace(event);
                    }
                    if let Some(hub) = &metrics.hub {
                        hub.set_gauge("restarts", u64::from(restarts));
                    }
                    // Flush the stream with a rollback marker: every sample
                    // absorbed before the loss is durable even if the
                    // respawned attempt dies too.
                    metrics.summarize("rollback", restarts);
                    olog_warn!(
                        "host",
                        { restart = restarts, max = opts.max_restarts },
                        "{e}; restarting from {}",
                        match &resume {
                            Some((cycle, _)) => format!("checkpoint cycle {cycle}"),
                            None => "scratch (nothing committed yet)".into(),
                        }
                    );
                }
                Err(e) => {
                    // Fatal abort: flush the stream so samples absorbed
                    // before the failure are never lost.
                    metrics.summarize("abort", restarts);
                    return Err(e);
                }
            }
        }
    })();
    if let Some(mut server) = http_server.take() {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)] // internal per-attempt entry
fn run_distributed_inner(
    spec: &DistSpec,
    opts: &HostOptions,
    partition: &Partition,
    dir: &std::path::Path,
    nonce: u64,
    resume: Option<&(u64, Vec<Vec<u8>>)>,
    commit: &mut CommitLog,
    host_ring: &mut TraceRing,
    metrics: &mut MetricsStream,
) -> io::Result<DistOutcome> {
    let shards = partition.shard_count();
    let geometry = spec.network_config().geometry;
    let cut = cut_pairs(&geometry, partition);
    let cut_links = cut.len();
    let remote_hosts = opts.worker_hosts.as_deref();
    let transport = if remote_hosts.is_some() {
        // Pre-started workers on other machines can only be reached over
        // TCP.
        TransportKind::Tcp
    } else {
        opts.transport
    };
    if let Some(hosts) = remote_hosts {
        if hosts.len() != shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "host list has {} entries but the partition needs {shards} shards",
                    hosts.len()
                ),
            ));
        }
    }

    // Control plane listener. Host-list mode always listens on TCP (at the
    // user-given bind address) so remote workers can reach it.
    #[allow(dead_code)] // the Tcp arm is the non-unix fallback
    enum CtrlListener {
        #[cfg(unix)]
        Unix(UnixListener),
        Tcp(TcpListener),
    }
    let (listener, ctrl_addr, ctrl_family) = if remote_hosts.is_some() {
        let bind = opts.ctrl_listen.as_deref().unwrap_or("0.0.0.0:0");
        let l = TcpListener::bind(bind)?;
        let addr = l.local_addr()?.to_string();
        // Warn level: the run blocks here until the operator starts the
        // remote workers, so the instructions must be visible by default.
        olog_warn!(
            "host",
            { workers = shards, addr = addr },
            "waiting for workers (start each as: hornet-dist worker --connect <this host>:{} \
             --family tcp --advertise <its host:port> --nonce {nonce})",
            addr.rsplit(':').next().unwrap_or("?")
        );
        (CtrlListener::Tcp(l), addr, "tcp")
    } else {
        #[cfg(unix)]
        {
            let path = dir.join("control.sock");
            let l = UnixListener::bind(&path)?;
            (
                CtrlListener::Unix(l),
                path.to_string_lossy().into_owned(),
                "unix",
            )
        }
        #[cfg(not(unix))]
        {
            let l = TcpListener::bind("127.0.0.1:0")?;
            let addr = l.local_addr()?.to_string();
            (CtrlListener::Tcp(l), addr, "tcp")
        }
    };

    // Spawn the workers (host-list mode: they were started by hand on their
    // machines and connect on their own).
    let mut children: Vec<Child> = Vec::with_capacity(shards);
    if remote_hosts.is_none() {
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
    let run = (|| -> io::Result<DistOutcome> {
        // Accept one control connection per worker. Locally spawned workers
        // take accept order as shard id; host-list workers are matched to
        // the shard whose advertised address they announce.
        let deadline =
            Instant::now() + Duration::from_secs(if remote_hosts.is_some() { 600 } else { 60 });
        let mut conn_slots: Vec<Option<(WorkerConn, BufReader<Stream>)>> =
            (0..shards).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < shards {
            let stream = loop {
                let res = match &listener {
                    #[cfg(unix)]
                    CtrlListener::Unix(l) => {
                        l.set_nonblocking(true)?;
                        l.accept().map(|(s, _)| Stream::Unix(s))
                    }
                    CtrlListener::Tcp(l) => {
                        l.set_nonblocking(true)?;
                        l.accept().map(|(s, _)| Stream::Tcp(s))
                    }
                };
                match res {
                    Ok(s) => break s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "workers did not connect",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            };
            stream.set_nonblocking(false)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let CtrlMsg::Hello {
                version,
                advertise,
                nonce: hello_nonce,
            } = CtrlMsg::decode(&read_frame(&mut reader)?)?
            else {
                return Err(proto_err("expected Hello"));
            };
            if version != crate::wire::WIRE_VERSION {
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
                None => accepted,
                Some(hosts) => {
                    let idx = hosts.iter().position(|h| *h == advertise).ok_or_else(|| {
                        proto_err(&format!(
                            "worker advertised {advertise:?}, not in the host list"
                        ))
                    })?;
                    if conn_slots[idx].is_some() {
                        return Err(proto_err(&format!("duplicate worker for {advertise}")));
                    }
                    idx
                }
            };
            olog_info!("host", { shard = shard }, "worker connected ({advertise})");
            conn_slots[shard] = Some((WorkerConn { writer: stream }, reader));
            accepted += 1;
        }
        let mut conns: Vec<WorkerConn> = Vec::with_capacity(shards);
        let mut readers = Vec::with_capacity(shards);
        for slot in conn_slots {
            let (conn, reader) = slot.expect("every shard connected");
            conns.push(conn);
            readers.push(reader);
        }

        // Assign shards.
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
            conn.send(&CtrlMsg::Assign {
                shard: shard as u32,
                shards: shards as u32,
                spec: Box::new(spec.clone()),
                transport,
                listen,
                heartbeat_ms: opts.heartbeat_interval.as_millis() as u64,
                resume: resume.map(|(_, sets)| sets[shard].clone()),
            })?;
        }

        // Collect data-plane addresses, then broadcast the map.
        let mut addrs: Vec<String> = Vec::with_capacity(shards);
        for reader in readers.iter_mut() {
            let CtrlMsg::Listening { addr } = CtrlMsg::decode(&read_frame(reader)?)? else {
                return Err(proto_err("expected Listening"));
            };
            addrs.push(addr);
        }
        match transport {
            TransportKind::Shm => {
                // One segment file per shard adjacency, in the attempt's
                // scratch directory; it must exist before the map is
                // broadcast.
                let mut pairs: Vec<(usize, usize)> = cut
                    .iter()
                    .map(|&(a, b)| (partition.shard_of(a), partition.shard_of(b)))
                    .map(|(s, t)| (s.min(t), s.max(t)))
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                let mut pair_paths: Vec<(u32, u32, String)> = Vec::new();
                for (lo, hi) in pairs {
                    let path = dir.join(format!("seg-{lo}-{hi}.shm"));
                    crate::shm::create_segment(&path)?;
                    pair_paths.push((lo as u32, hi as u32, path.to_string_lossy().into_owned()));
                }
                for conn in conns.iter_mut() {
                    conn.send(&CtrlMsg::ShmMap {
                        entries: pair_paths.clone(),
                    })?;
                }
            }
            _ => {
                let entries: Vec<(u32, String)> = addrs
                    .iter()
                    .enumerate()
                    .map(|(s, a)| (s as u32, a.clone()))
                    .collect();
                for conn in conns.iter_mut() {
                    conn.send(&CtrlMsg::PeerMap {
                        entries: entries.clone(),
                    })?;
                }
            }
        }

        for conn in conns.iter_mut() {
            conn.send(&CtrlMsg::Start)?;
        }
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
                match read_frame(&mut reader) {
                    Ok(frame) => match CtrlMsg::decode(&frame) {
                        Ok(msg) => {
                            if tx.send(Event::Msg(shard, msg)).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            let _ = tx.send(Event::Gone(shard));
                            return;
                        }
                    },
                    Err(_) => {
                        let _ = tx.send(Event::Gone(shard));
                        return;
                    }
                }
            }));
        }
        drop(tx);

        let outcome = supervise(
            spec, opts, &mut conns, &rx, shards, cut_links, commit, host_ring, metrics,
        )?;
        olog_debug!("host", {}, "supervise complete");

        // Shut every control socket down first (drop alone is not enough:
        // the reader threads hold clones, so the workers would never see
        // EOF), and only then reap the children — a control connection's
        // shard id is its accept order, which need not match spawn order.
        for conn in conns.iter_mut() {
            conn.writer.shutdown();
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
        Ok(outcome)
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

/// The post-start supervision loop: collects Done reports, commits shard
/// checkpoints, tracks per-worker liveness, and, when the run needs it,
/// drives probe-round termination detection. A worker going silent past the
/// heartbeat timeout, or its control channel closing before it reported, is
/// a recoverable loss ([`lost`]).
#[allow(clippy::too_many_arguments)] // internal supervision entry
fn supervise(
    spec: &DistSpec,
    opts: &HostOptions,
    conns: &mut [WorkerConn],
    rx: &Receiver<Event>,
    shards: usize,
    cut_links: usize,
    commit: &mut CommitLog,
    host_ring: &mut TraceRing,
    metrics: &mut MetricsStream,
) -> io::Result<DistOutcome> {
    /// One shard's final report.
    struct DoneReport {
        final_now: u64,
        completed: bool,
        stats: NetworkStats,
        profile: StallProfile,
        trace: Vec<u8>,
    }

    let detector = spec.needs_detector();
    let mut done: Vec<Option<DoneReport>> = (0..shards).map(|_| None).collect();
    let mut n_done = 0usize;
    let mut round = 0u64;
    let mut stopped = false;
    let mut last_skip = 0u64;
    let mut last_seen: Vec<Instant> = (0..shards).map(|_| Instant::now()).collect();
    let mut last_event = Instant::now();

    // Handles every non-ledger message in one place, so checkpoints, Done
    // reports and telemetry are never dropped regardless of which wait they
    // arrive in.
    fn absorb(
        shard: usize,
        msg: CtrlMsg,
        done: &mut [Option<DoneReport>],
        n_done: &mut usize,
        commit: &mut CommitLog,
        host_ring: &mut TraceRing,
        metrics: &mut MetricsStream,
    ) {
        match msg {
            CtrlMsg::Done {
                final_now,
                completed,
                stats,
                profile,
                trace,
            } => {
                olog_debug!("host", { shard = shard, cycle = final_now }, "Done received");
                if done[shard]
                    .replace(DoneReport {
                        final_now,
                        completed,
                        stats: *stats,
                        profile,
                        trace,
                    })
                    .is_none()
                {
                    *n_done += 1;
                }
            }
            CtrlMsg::Checkpoint { cycle, data } => {
                if let Some((cycle, bytes)) = commit.record(shard, cycle, data) {
                    let event = TraceEvent {
                        cycle,
                        node: u32::MAX,
                        kind: TraceKind::CheckpointCommit,
                        a: bytes as u64,
                        b: 0,
                    };
                    host_ring.record(event);
                    metrics.mirror_trace(event);
                    if let Some(hub) = &metrics.hub {
                        hub.set_gauge("checkpoint_cycle", cycle);
                    }
                    olog_info!(
                        "host",
                        { cycle = cycle, bytes = bytes },
                        "checkpoint set committed"
                    );
                }
            }
            CtrlMsg::Telemetry { sample } => metrics.absorb(*sample),
            _ => {} // heartbeats carry no payload beyond liveness
        }
    }

    // Collects one probe round's replies, absorbing interleaved traffic.
    #[allow(clippy::too_many_arguments)]
    let collect_round = |round: u64,
                         done: &mut Vec<Option<DoneReport>>,
                         n_done: &mut usize,
                         commit: &mut CommitLog,
                         host_ring: &mut TraceRing,
                         metrics: &mut MetricsStream,
                         last_seen: &mut [Instant],
                         last_event: &mut Instant|
     -> io::Result<Option<Vec<(u64, LedgerState)>>> {
        let mut replies: Vec<Option<(u64, LedgerState)>> = (0..shards).map(|_| None).collect();
        let mut got = 0usize;
        let deadline = Instant::now() + Duration::from_secs(5);
        while got < shards {
            let timeout = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO);
            match rx.recv_timeout(timeout) {
                Ok(Event::Msg(shard, msg)) => {
                    last_seen[shard] = Instant::now();
                    *last_event = Instant::now();
                    match msg {
                        CtrlMsg::Ledger {
                            round: r,
                            version,
                            state,
                        } if r == round => {
                            if replies[shard].replace((version, state)).is_none() {
                                got += 1;
                            }
                        }
                        CtrlMsg::Ledger { .. } => {} // stale round
                        other => absorb(shard, other, done, n_done, commit, host_ring, metrics),
                    }
                }
                Ok(Event::Gone(shard)) => {
                    if done[shard].is_none() {
                        return Err(lost(&format!("shard {shard} exited before reporting")));
                    }
                    // A finished worker's channel closing is not an error,
                    // but it can no longer answer probes.
                    return Ok(None);
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(proto_err("all workers gone")),
            }
        }
        let mut out = Vec::with_capacity(shards);
        for (shard, reply) in replies.into_iter().enumerate() {
            out.push(reply.ok_or_else(|| {
                proto_err(&format!("shard {shard} never answered probe round {round}"))
            })?);
        }
        Ok(Some(out))
    };

    while n_done < shards {
        // Liveness: heartbeats (and all other control traffic) refresh
        // `last_seen`; a live-but-unreported worker gone silent past the
        // timeout is lost. The overall no-progress timeout backstops runs
        // with heartbeats disabled.
        if opts.heartbeat_interval > Duration::ZERO {
            for (shard, seen) in last_seen.iter().enumerate() {
                if done[shard].is_none() && seen.elapsed() > opts.heartbeat_timeout {
                    return Err(lost(&format!(
                        "shard {shard} sent no heartbeat for {:.1?}",
                        seen.elapsed()
                    )));
                }
            }
        }
        if last_event.elapsed() > opts.recv_timeout {
            return Err(lost(&format!(
                "workers made no progress for {:.1?} (recv_timeout)",
                opts.recv_timeout
            )));
        }

        if detector && !stopped {
            // Wave one.
            round += 1;
            for conn in conns.iter_mut() {
                let _ = conn.send(&CtrlMsg::Probe { round });
            }
            let wave1 = collect_round(
                round,
                &mut done,
                &mut n_done,
                commit,
                host_ring,
                metrics,
                &mut last_seen,
                &mut last_event,
            )?;
            if let Some(wave1) = wave1 {
                let states: Vec<LedgerState> = wave1.iter().map(|&(_, s)| s).collect();
                if credits_balance(&states) {
                    // Wave two: versions must not have moved.
                    round += 1;
                    for conn in conns.iter_mut() {
                        let _ = conn.send(&CtrlMsg::Probe { round });
                    }
                    let wave2 = collect_round(
                        round,
                        &mut done,
                        &mut n_done,
                        commit,
                        host_ring,
                        metrics,
                        &mut last_seen,
                        &mut last_event,
                    )?;
                    if let Some(wave2) = wave2 {
                        let verdict = QuiescenceScan::run(shards, |i| wave1[i], |i| wave2[i].0);
                        // No jump to or below the snapshot's newest clock or
                        // the target already sent.
                        let floor = match verdict {
                            Quiescence::Idle { cycle, .. } => cycle.max(last_skip),
                            Quiescence::Active => last_skip,
                        };
                        let completion = matches!(spec.run, RunKind::ToCompletion { .. });
                        let budget = spec.cycle_budget();
                        if let Some(directive) =
                            decide(verdict, completion, spec.fast_forward, budget, floor)
                        {
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
                            for conn in conns.iter_mut() {
                                let _ = conn.send(&msg);
                            }
                        }
                    }
                }
            }
            // Gentle pacing between probe rounds.
            std::thread::sleep(Duration::from_micros(500));
        } else {
            // Bounded waits so liveness is re-checked even when the channel
            // is quiet.
            let slice = Duration::from_millis(250).min(opts.recv_timeout);
            match rx.recv_timeout(slice) {
                Ok(Event::Msg(shard, msg)) => {
                    last_seen[shard] = Instant::now();
                    last_event = Instant::now();
                    absorb(
                        shard,
                        msg,
                        &mut done,
                        &mut n_done,
                        commit,
                        host_ring,
                        metrics,
                    );
                }
                Ok(Event::Gone(shard)) => {
                    olog_debug!("host", { shard = shard }, "control channel closed");
                    if done[shard].is_none() {
                        return Err(lost(&format!("shard {shard} exited before reporting")));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(proto_err("all workers gone")),
            }
        }
    }

    let mut merged = NetworkStats::new();
    let mut per_shard = Vec::with_capacity(shards);
    let mut per_shard_profiles = Vec::with_capacity(shards);
    let mut trace = TraceDump::default();
    let mut final_cycle = 0u64;
    let mut completed = true;
    for (shard, entry) in done.into_iter().enumerate() {
        let report = entry.expect("all workers reported");
        merged.merge(&report.stats);
        per_shard.push(report.stats);
        per_shard_profiles.push(report.profile);
        if !report.trace.is_empty() {
            trace.merge(TraceDump::decode(&report.trace).map_err(|e| {
                proto_err(&format!("shard {shard} shipped an unreadable trace: {e}"))
            })?);
        }
        final_cycle = final_cycle.max(report.final_now);
        completed &= report.completed;
    }
    Ok(DistOutcome {
        stats: merged,
        per_shard,
        final_cycle,
        completed,
        cut_links,
        shards,
        restarts: 0,
        per_shard_profiles,
        trace,
        samples: Vec::new(), // filled by `run_distributed` from the stream
    })
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
