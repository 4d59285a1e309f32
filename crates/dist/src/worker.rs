//! The worker side of the distributed backend: a thin host around the
//! unified [`hornet_shard::driver::CycleDriver`], and the process entry
//! point that speaks the control protocol.
//!
//! The per-cycle shard protocol itself — window gates and their flit/credit
//! limits, skip handling, ledger publish-on-change — lives exactly once, in
//! `hornet-shard`; this module only supplies the distributed
//! [`TransportPump`] (per-adjacency [`BoundaryTransport`]s) and the
//! process-local [`PayloadChannel`], then reports the outcome. Directives
//! (stop / fast-forward jumps) arrive from the coordinator through plain
//! atomics the control reader thread maintains.

use crate::protocol::{hello, proto_err, CtrlMsg, ShardReport, TransportKind, HEARTBEAT_INTERVAL};
use crate::shm::ShmPipe;
use crate::spec::{DistSpec, RunKind};
use crate::transport::{
    connect, BoundaryTransport, BytePipe, FrameTransport, Listener, Stream, TransportSet,
};
use crate::wire::read_frame;
use crate::wiring::{build_shard, partition_for};
use hornet_net::ids::Cycle;
use hornet_net::network::NetworkNode;
use hornet_net::payload::PayloadStore;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::{MetricsRegistry, TelemetrySample};
use hornet_obs::olog_debug;
use hornet_obs::profile::StallProfile;
use hornet_obs::trace::{TraceDump, TraceRing};
use hornet_shard::driver::{
    merge_tile_stats, CheckpointSink, CycleDriver, DriverParams, PayloadChannel, TelemetrySink,
    WaitProfile,
};
use hornet_shard::termination::ShardLedger;
use hornet_shard::wiring::ShardParts;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The control-plane shared state between the shard loop and the control
/// reader thread.
#[derive(Clone)]
pub struct WorkerControl {
    /// This shard's published termination ledger.
    pub ledger: Arc<ShardLedger>,
    /// Stop directive (completion declared, or coordinator lost).
    pub stop: Arc<AtomicBool>,
    /// Monotone fast-forward target.
    pub skip_to: Arc<AtomicU64>,
}

impl Default for WorkerControl {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerControl {
    /// Fresh control state.
    pub fn new() -> Self {
        Self {
            ledger: Arc::new(ShardLedger::new()),
            stop: Arc::new(AtomicBool::new(false)),
            skip_to: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Result of one shard's run.
pub struct WorkerOutcome {
    /// The cycle the shard stopped at.
    pub final_now: Cycle,
    /// Statistics merged over this shard's tiles.
    pub stats: NetworkStats,
    /// Every local agent finished and the shard drained.
    pub completed: bool,
    /// Wall-time attribution of the shard loop (compute / wait / ingest /
    /// flush).
    pub profile: StallProfile,
    /// Event trace of the shard's tile and runtime rings (empty unless the
    /// spec enabled tracing).
    pub trace: TraceDump,
}

/// One shard of a worker process: its wired parts, its transports and its
/// control state.
pub struct ShardWorker {
    /// The shard's tiles and boundary endpoints.
    pub parts: ShardParts,
    /// One transport per neighboring shard, attached in
    /// [`transports_plan`](Self::transports_plan) order.
    pub transports: Vec<Box<dyn BoundaryTransport>>,
    /// How payloads follow tail flits across this shard's boundaries.
    pub payloads: Arc<dyn PayloadChannel>,
    /// The run: synchronization, fast-forward, checkpoint and telemetry
    /// periods, tracing, kernel selection.
    pub spec: DistSpec,
    /// Control-plane state.
    pub control: WorkerControl,
}

impl ShardWorker {
    /// Restores a shard checkpoint into this (freshly built, not yet run)
    /// worker's tiles and boundary rings. Must happen before transports are
    /// attached and before any peer traffic can arrive. Returns
    /// `(resume_cycle, received_start)` for [`run`](Self::run).
    pub fn restore(&mut self, checkpoint: &[u8]) -> io::Result<(Cycle, u64)> {
        hornet_shard::restore_shard(
            checkpoint,
            &mut self.parts.tiles,
            &self.parts.outbound,
            &mut self.parts.inbound,
            &*self.payloads,
        )
    }

    /// Runs the shard for `cycles` cycles starting after `start` by handing
    /// everything to the unified [`CycleDriver`] — the per-cycle protocol
    /// has exactly one implementation, shared with the thread host.
    /// `received_start` seeds the cumulative delivery counter (nonzero when
    /// resuming from a checkpoint), `checkpoint` receives the periodic
    /// state captures when `checkpoint_every` is set, and `telemetry`
    /// receives periodic samples when the spec set `telemetry_every`.
    pub fn run<'c>(
        self,
        start: Cycle,
        cycles: Cycle,
        received_start: u64,
        checkpoint: Option<&'c mut dyn CheckpointSink>,
        telemetry: Option<&'c mut dyn TelemetrySink>,
    ) -> io::Result<WorkerOutcome> {
        let ShardWorker {
            parts:
                ShardParts {
                    shard,
                    mut tiles,
                    outbound,
                    mut inbound,
                    ..
                },
            mut transports,
            payloads,
            spec,
            control,
        } = self;
        let trace_capacity = spec.trace_capacity.unwrap_or(0) as usize;
        if trace_capacity > 0 {
            for tile in &mut tiles {
                tile.enable_tracing(trace_capacity);
            }
        }
        let metrics = spec.telemetry_every.map(|_| MetricsRegistry::default());
        let mut runtime_ring = (trace_capacity > 0).then(|| TraceRing::new(trace_capacity));
        let mut set = TransportSet(&mut transports);
        let driver = CycleDriver {
            shard,
            tiles: &mut tiles,
            outbound: &outbound,
            inbound: &mut inbound,
            transport: &mut set,
            payloads: &*payloads,
            stop: &control.stop,
            skip_to: &control.skip_to,
            ledger: &control.ledger,
            checkpoint,
            telemetry,
            metrics: metrics.as_ref(),
            tracer: runtime_ring.as_mut(),
        };
        let driven = driver.run(&DriverParams {
            start,
            cycles,
            sync: spec.sync,
            track_ledger: spec.needs_detector(),
            fast_forward: spec.fast_forward,
            checkpoint_every: spec.checkpoint_every,
            received_start,
            wait: WaitProfile::Sleep,
            // Wall-time attribution is always on for distributed workers: the
            // coordinator's imbalance summary needs every shard's breakdown.
            // Next to a socket cycle of one `write` and one or two `read`s it
            // is not free: eight clock reads (31 ns each) and one more empty
            // `read` (212 ns) are ≈0.5 µs of a ≈62 µs cycle, 0.8 %, by
            // arithmetic — but 22 alternating on/off pairs of the 16×16
            // two-worker Unix-socket run had "off" ahead in 17, medians
            // 5–19 % apart at ±15 % run-to-run spread. Over the 2 % budget as
            // measured: ROADMAP's observability item owns it.
            profile: true,
            telemetry_every: spec.telemetry_every,
            kernel: spec.kernel,
        });
        let outcome = match driven {
            Ok(outcome) => outcome,
            Err(e) => {
                // A frame transport's orderly close reads as "finished" to
                // its peer and waits for the peer to finish too. A failed
                // shard must do neither: leave the links to process exit — a
                // socket's peer sees that as an error at once, a shared-memory
                // peer waits until the coordinator, which sees this process
                // go, stops the run.
                std::mem::forget(transports);
                return Err(e);
            }
        };

        let mut trace = TraceDump::default();
        for tile in &mut tiles {
            tile.drain_trace(&mut trace);
        }
        if let Some(ring) = runtime_ring.as_mut() {
            ring.drain_into(&mut trace);
        }

        // `busy` comes from the driver — the same definition the
        // termination detector scanned, so host and detector cannot drift.
        let completed = tiles.iter().all(NetworkNode::finished) && outcome.busy == 0;
        Ok(WorkerOutcome {
            final_now: outcome.final_now,
            stats: merge_tile_stats(&tiles),
            completed,
            profile: outcome.profile,
            trace,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker process entry.
// ---------------------------------------------------------------------------

/// Ships every periodic shard checkpoint to the coordinator over the control
/// plane, with an optional fault-injection point for the recovery tests.
struct CtrlCheckpointSink {
    shard: usize,
    writer: Arc<Mutex<Stream>>,
    /// `(shard, cycle, token_path)` — die before shipping the first
    /// checkpoint at `cycle ≥` this on the matching shard, if the token file
    /// can still be claimed.
    crash: Option<(usize, u64, std::path::PathBuf)>,
}

impl CheckpointSink for CtrlCheckpointSink {
    fn checkpoint(&mut self, cycle: Cycle, state: &[u8]) -> io::Result<()> {
        if let Some((shard, at, token)) = &self.crash {
            // Claiming the token by deleting it makes the injection
            // exactly-once: the respawned worker inherits the env var but
            // finds no file.
            if *shard == self.shard && cycle >= *at && std::fs::remove_file(token).is_ok() {
                #[cfg(unix)]
                {
                    let _ = std::process::Command::new("kill")
                        .arg("-9")
                        .arg(std::process::id().to_string())
                        .status();
                }
                std::process::abort();
            }
        }
        send_ctrl(
            &self.writer,
            &CtrlMsg::Checkpoint {
                cycle,
                data: state.to_vec(),
            },
        )
    }
}

/// Ships every periodic telemetry sample to the coordinator over the control
/// plane. Send failures are swallowed: telemetry is advisory, and a lost
/// coordinator already stops the run through the control reader.
struct CtrlTelemetrySink {
    writer: Arc<Mutex<Stream>>,
}

impl TelemetrySink for CtrlTelemetrySink {
    fn emit(&mut self, sample: &TelemetrySample) {
        let _ = send_ctrl(
            &self.writer,
            &CtrlMsg::Telemetry {
                sample: Box::new(sample.clone()),
            },
        );
    }
}

/// Parses `HORNET_DIST_CRASH_TOKEN`: the path of a file containing
/// `"<shard> <cycle>"`. The named shard SIGKILLs itself at its first
/// checkpoint at or after `cycle`, before shipping it.
fn crash_token() -> Option<(usize, u64, std::path::PathBuf)> {
    let path = std::path::PathBuf::from(std::env::var_os("HORNET_DIST_CRASH_TOKEN")?);
    let s = std::fs::read_to_string(&path).ok()?;
    let mut it = s.split_whitespace();
    let shard = it.next()?.parse().ok()?;
    let cycle = it.next()?.parse().ok()?;
    Some((shard, cycle, path))
}

/// Sends one control message over the shared writer.
fn send_ctrl(writer: &Mutex<Stream>, msg: &CtrlMsg) -> io::Result<()> {
    msg.send(&mut *writer.lock().expect("control writer poisoned"))
}

/// Builds the shard an `Assign` names: its wired parts and this process's
/// payload store. The control socket may be TCP, so a malformed assignment
/// is an `InvalidData` error naming the field, never a panic.
fn assigned_shard(
    spec: &DistSpec,
    shard: u32,
    shards: u32,
) -> io::Result<(ShardParts, Arc<PayloadStore>)> {
    if shard >= shards {
        return Err(proto_err(&format!(
            "Assign.shard {shard} is not below Assign.shards {shards}"
        )));
    }
    // Build this shard's tiles and nothing else.
    let partition = partition_for(spec, shards as usize);
    if partition.shard_count() != shards as usize {
        return Err(proto_err(&format!(
            "Assign.shards {shards} does not match the spec's partition into {} shards",
            partition.shard_count()
        )));
    }
    build_shard(spec, &partition, shard as usize)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Runs the worker process: connects to the coordinator at `ctrl_addr`
/// (retrying while it is not up yet), executes one assigned shard, reports,
/// and exits when the coordinator closes the control channel.
///
/// In host-list mode (`hornet-dist host --workers host1:port,...`) the
/// worker announces `advertise` — the `host:port` its data plane is
/// reachable at from the other machines — and the coordinator assigns it
/// the matching shard. `nonce` must echo the coordinator's run nonce or the
/// Hello is rejected.
pub fn worker_main(
    ctrl_addr: &str,
    ctrl_family: &str,
    advertise: Option<&str>,
    nonce: u64,
) -> io::Result<()> {
    let family = TransportKind::parse(ctrl_family)
        .ok_or_else(|| proto_err(&format!("unknown control family {ctrl_family}")))?;
    let ctrl = connect(family, ctrl_addr, Instant::now() + Duration::from_secs(60))?;
    let writer = Arc::new(Mutex::new(ctrl.try_clone()?));
    let mut reader = BufReader::new(ctrl);

    send_ctrl(&writer, &hello(advertise.unwrap_or(""), nonce))?;
    let CtrlMsg::Assign {
        shard,
        shards,
        spec,
        transport,
        listen,
        resume,
    } = CtrlMsg::recv(&mut reader)?
    else {
        return Err(proto_err("expected Assign"));
    };
    let (mine, store) = assigned_shard(&spec, shard, shards)?;
    let shard = shard as usize;

    // Data plane. The payload channel is this process's store (its
    // bridges' DMA park): peers live in other processes, so packet payloads
    // must follow their tail flits over the transports.
    let deadline = Instant::now() + Duration::from_secs(30);
    let control = WorkerControl::new();
    let mut worker = ShardWorker {
        parts: mine,
        transports: Vec::new(),
        payloads: store,
        spec: (*spec).clone(),
        control: control.clone(),
    };

    // Crash recovery: restore the shipped checkpoint into the freshly built
    // shard *before* attaching transports — no peer traffic can race the
    // ring restore, and every transport starts its progress mirror at the
    // rendezvous cycle instead of 0.
    let (start_cycle, received_start) = match &resume {
        Some(bytes) => worker.restore(bytes)?,
        None => (0, 0),
    };

    // Socket media: bind this shard's data-plane listener and report where
    // peers reach it. Shared memory binds nothing.
    let listener = match transport {
        TransportKind::Shm => None,
        _ => {
            let bind = match transport {
                TransportKind::Tcp if listen.is_empty() => "127.0.0.1:0".to_string(),
                // Host-list mode: the coordinator assigned this worker an
                // advertised `host:port`; bind the port on all interfaces
                // and advertise the reachable address.
                TransportKind::Tcp => {
                    let port = listen
                        .rsplit_once(':')
                        .and_then(|(_, p)| p.parse::<u16>().ok())
                        .ok_or_else(|| proto_err("bad advertised address"))?;
                    format!("0.0.0.0:{port}")
                }
                _ => listen.clone(),
            };
            let l = Listener::bind(transport, &bind)?;
            let addr = if listen.is_empty() { l.addr()? } else { listen };
            send_ctrl(&writer, &CtrlMsg::Listening { addr })?;
            Some(l)
        }
    };
    let CtrlMsg::PeerMap { entries } = CtrlMsg::recv(&mut reader)? else {
        return Err(proto_err("expected PeerMap"));
    };
    let endpoints: HashMap<(usize, usize), String> = entries
        .into_iter()
        .map(|(lo, hi, endpoint)| ((lo as usize, hi as usize), endpoint))
        .collect();
    // One transport per neighbor, in canonical order: map the adjacency's
    // segment, dial a lower-numbered peer's listener, or accept a
    // higher-numbered peer (accepts arrive in any order; the PeerHello
    // names the dialer).
    let mut accepted: HashMap<usize, Stream> = HashMap::new();
    for (i, peer) in worker.transports_plan().into_iter().enumerate() {
        let (lo, hi) = (shard.min(peer), shard.max(peer));
        let endpoint = endpoints
            .get(&(lo, hi))
            .ok_or_else(|| proto_err(&format!("no peer map endpoint for shards {lo}-{hi}")))?;
        match &listener {
            None => {
                let pipe = ShmPipe::open(std::path::Path::new(endpoint), shard == lo)?;
                worker.attach_pipe(i, pipe, start_cycle)?;
            }
            Some(_) if peer < shard => {
                let mut stream = connect(transport, endpoint, deadline)?;
                CtrlMsg::PeerHello { from: shard as u32 }.send(&mut stream)?;
                worker.attach_pipe(i, stream, start_cycle)?;
            }
            Some(l) => {
                while !accepted.contains_key(&peer) {
                    let mut stream = l.accept_until(deadline)?;
                    let CtrlMsg::PeerHello { from } = CtrlMsg::recv(&mut stream)? else {
                        return Err(proto_err("expected PeerHello"));
                    };
                    accepted.insert(from as usize, stream);
                }
                let stream = accepted.remove(&peer).expect("accepted above");
                worker.attach_pipe(i, stream, start_cycle)?;
            }
        }
    }

    let CtrlMsg::Start = CtrlMsg::recv(&mut reader)? else {
        return Err(proto_err("expected Start"));
    };

    // Resume: the checkpoint restored flits and credits that were staged for
    // the wire when it was taken; they go out now, in a frame that also
    // confirms the rendezvous cycle every transport already starts from.
    if start_cycle > 0 {
        worker.publish_progress(start_cycle)?;
    }

    // Control reader: probes, directives, and coordinator-loss detection.
    let done_flag = Arc::new(AtomicBool::new(false));
    let ctrl_thread = {
        let control = control.clone();
        let done_flag = Arc::clone(&done_flag);
        let writer = Arc::clone(&writer);
        std::thread::Builder::new()
            .name("hornet-dist-ctrl".into())
            .spawn(move || loop {
                let frame = match read_frame(&mut reader) {
                    Ok(f) => f,
                    Err(e) => {
                        if !done_flag.load(Ordering::Acquire) {
                            olog_debug!("ctrl-rx", {}, "read failed mid-run: {}", e);
                            // Coordinator lost mid-run: unwind.
                            control.stop.store(true, Ordering::Release);
                        }
                        return;
                    }
                };
                match CtrlMsg::decode(&frame) {
                    Ok(CtrlMsg::Probe { round }) => {
                        let (version, state) = control.ledger.read();
                        let _ = send_ctrl(
                            &writer,
                            &CtrlMsg::Ledger {
                                round,
                                version,
                                state,
                            },
                        );
                    }
                    Ok(CtrlMsg::Skip { target }) => {
                        control.skip_to.fetch_max(target, Ordering::AcqRel);
                    }
                    Ok(CtrlMsg::Stop) => {
                        control.stop.store(true, Ordering::Release);
                    }
                    _ => {}
                }
            })?
    };

    // Liveness heartbeats: a thin periodic signal so the coordinator can
    // tell a hung worker from a slow one without waiting for the full
    // no-progress timeout.
    {
        let writer = Arc::clone(&writer);
        let control = control.clone();
        let done_flag = Arc::clone(&done_flag);
        std::thread::Builder::new()
            .name("hornet-dist-hb".into())
            .spawn(move || {
                while !done_flag.load(Ordering::Acquire) {
                    let (_, state) = control.ledger.read();
                    if send_ctrl(&writer, &CtrlMsg::Heartbeat { cycle: state.cycle }).is_err() {
                        return;
                    }
                    std::thread::sleep(HEARTBEAT_INTERVAL);
                }
            })?;
    }

    let budget = spec.cycle_budget();
    let mut sink = CtrlCheckpointSink {
        shard,
        writer: Arc::clone(&writer),
        crash: crash_token(),
    };
    let mut telemetry_sink = CtrlTelemetrySink {
        writer: Arc::clone(&writer),
    };
    let telemetry = spec
        .telemetry_every
        .is_some()
        .then_some(&mut telemetry_sink as &mut dyn TelemetrySink);
    // Start co-located drivers on different cores. A running driver polls and
    // almost never blocks, so the scheduler's wake-up placement gets no second
    // look at it: two drivers that the handshake's wake-ups left on one core
    // take turns there, at half speed, until the periodic balancer parts them
    // (≈1.3 s on a 2-core host — longer than many runs). Placed, not pinned.
    hornet_shard::sys::place_current_thread(shard);
    let outcome = worker.run(
        start_cycle,
        budget.saturating_sub(start_cycle),
        received_start,
        Some(&mut sink),
        telemetry,
    )?;
    olog_debug!("worker", { shard = shard, cycle = outcome.final_now }, "run complete");
    let trace_blob = if outcome.trace.events.is_empty() && outcome.trace.dropped == 0 {
        Vec::new()
    } else {
        outcome.trace.encode()
    };
    send_ctrl(
        &writer,
        &CtrlMsg::Done(Box::new(ShardReport {
            final_now: outcome.final_now,
            completed: match spec.run {
                RunKind::Cycles(_) => true,
                RunKind::ToCompletion { .. } => outcome.completed,
            },
            stats: outcome.stats,
            profile: outcome.profile,
            trace: trace_blob,
        })),
    )?;
    done_flag.store(true, Ordering::Release);
    olog_debug!("worker", { shard = shard }, "done sent");
    // Hold the control socket open until the coordinator closes it. (The
    // data-plane sockets closed when `run` dropped the transports, each
    // only after its peer had finished too.)
    let _ = ctrl_thread.join();
    olog_debug!("worker", { shard = shard }, "ctrl closed, exiting");
    Ok(())
}

impl ShardWorker {
    /// The neighbor shard ids, in canonical (ascending) order — one
    /// transport must be attached per entry, in this order.
    pub fn transports_plan(&self) -> Vec<usize> {
        self.parts.neighbors.iter().map(|n| n.peer).collect()
    }

    /// Publishes `cycle` as this side's negedge progress on every attached
    /// transport and flushes any staged traffic. Used on resume, where peers
    /// must observe the rendezvous cycle rather than a transport's initial 0.
    pub fn publish_progress(&mut self, cycle: Cycle) -> io::Result<()> {
        for t in &mut self.transports {
            t.pump(cycle, true)?;
        }
        Ok(())
    }

    /// Attaches the frame transport over `pipe` — a socket or a shared-memory
    /// ring, the rest is the same — for the `i`-th planned neighbor.
    pub(crate) fn attach_pipe<P: BytePipe + 'static>(
        &mut self,
        i: usize,
        pipe: P,
        start: Cycle,
    ) -> io::Result<()> {
        let payloads = Arc::clone(&self.payloads);
        let transport = FrameTransport::new(pipe, &self.parts.neighbors[i], start, payloads)?;
        self.transports.push(Box::new(transport));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hostile_assign_is_an_error_not_a_panic() {
        // A 4×4 mesh splits into at most four row bands.
        let spec = DistSpec {
            width: 4,
            height: 4,
            ..DistSpec::default()
        };
        for (shard, shards, field) in [
            (2, 2, "Assign.shard 2"),
            (0, 0, "Assign.shard 0"),
            (u32::MAX, 4, "Assign.shard 4294967295"),
            (0, 5, "Assign.shards 5"),
            (1, u32::MAX, "Assign.shards 4294967295"),
        ] {
            let err = assigned_shard(&spec, shard, shards)
                .err()
                .unwrap_or_else(|| panic!("shard {shard} of {shards} must be refused"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(field), "{err}");
        }
        let (parts, _) = assigned_shard(&spec, 3, 4).expect("a well-formed assignment");
        assert_eq!(parts.shard, 3);
    }
}
