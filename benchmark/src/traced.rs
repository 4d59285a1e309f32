//! The traced run: the harness builds the workload's network itself, steps
//! the tiles through their public `posedge`/`negedge` (or the compiled
//! kernel's), and records a span around every call into a layer. End-to-end
//! numbers never come from this run; its simulated counts must equal theirs.

use crate::spans::Recorder;
use crate::workloads::Workload;
use hornet_cpu::agent::{CoreAgent, CoreConfig};
use hornet_cpu::programs::vector_sum_program;
use hornet_dist::{DistSpec, DistWorkload, RunKind};
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::codec::{Dec, Enc};
use hornet_net::ids::Cycle;
use hornet_net::kernel::{MeshKernel, StageTimes};
use hornet_net::network::{Network, NetworkNode};
use hornet_net::stats::NetworkStats;
use hornet_traffic::injector::{SyntheticConfig, SyntheticInjector};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cycles per `window` span.
const WINDOW: u64 = 1_024;

/// An agent tick is timed on one cycle in this many and the time scaled up,
/// which keeps the two clock reads per tile per tick under 2 % of the run.
/// Odd, so that it does not beat against a periodic injector.
const TICK_SAMPLE_STRIDE: u64 = 7;

/// What the wrapped agents of one run add up to.
#[derive(Clone, Debug, Default)]
pub struct AgentTally {
    pub offered_packets: u64,
    pub instructions: u64,
    pub core_cycles: u64,
    pub mem_stall_cycles: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub dir_requests: u64,
}

/// An agent whose counters the harness reads when the run ends.
pub trait Tallied: NodeAgent {
    fn tally(&self, into: &mut AgentTally);
}

impl Tallied for SyntheticInjector {
    fn tally(&self, into: &mut AgentTally) {
        into.offered_packets += self.offered();
    }
}

impl Tallied for CoreAgent {
    fn tally(&self, into: &mut AgentTally) {
        let core = self.core_stats();
        into.instructions += core.instructions;
        into.core_cycles += core.cycles;
        into.mem_stall_cycles += core.mem_stall_cycles;
        let l1 = self.memory().l1_stats();
        into.l1_accesses += l1.loads + l1.stores;
        into.l1_misses += l1.misses;
        let dir = self.memory().directory_stats();
        into.dir_requests += dir.get_s + dir.get_m;
    }
}

/// Where every [`TimedAgent`] of one run reports.
#[derive(Default)]
pub struct AgentProbe {
    /// Summed tick time, already scaled by the sampling stride.
    tick_ns: AtomicU64,
    tally: Mutex<AgentTally>,
}

/// Times `tick` of the agent it wraps and is otherwise transparent. Tiles
/// own their agents as `Box<dyn NodeAgent>`, so the wrapped agent's counters
/// are handed to the probe when the tile drops it.
pub struct TimedAgent<A: Tallied> {
    inner: A,
    probe: Arc<AgentProbe>,
}

impl<A: Tallied> NodeAgent for TimedAgent<A> {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut ChaCha12Rng) {
        if !io.cycle().is_multiple_of(TICK_SAMPLE_STRIDE) {
            return self.inner.tick(io, rng);
        }
        let started = Instant::now();
        self.inner.tick(io, rng);
        let ns = started.elapsed().as_nanos() as u64 * TICK_SAMPLE_STRIDE;
        // Relaxed: a statistic; the reader runs on this thread, between cycles.
        self.probe.tick_ns.fetch_add(ns, Ordering::Relaxed);
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
    fn finished(&self) -> bool {
        self.inner.finished()
    }
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn snapshot(&self, e: &mut Enc) {
        self.inner.snapshot(e);
    }
    fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        self.inner.restore(d)
    }
}

impl<A: Tallied> Drop for TimedAgent<A> {
    fn drop(&mut self) {
        // A poisoned lock means a tick panicked; the run is lost anyway.
        if let Ok(mut tally) = self.probe.tally.lock() {
            self.inner.tally(&mut tally);
        }
    }
}

/// Builds `spec`'s network as `DistSpec::build_network` does, with every
/// agent wrapped in a [`TimedAgent`].
fn build_timed(spec: &DistSpec, probe: &Arc<AgentProbe>) -> Result<Network, String> {
    let config = spec.network_config();
    let geometry = Arc::new(config.geometry.clone());
    let mut network = Network::new(&config, spec.seed).map_err(|e| e.to_string())?;
    let nodes = spec.node_count();
    for node in geometry.nodes() {
        let probe = Arc::clone(probe);
        let agent: Box<dyn NodeAgent> = match &spec.workload {
            DistWorkload::Synthetic => Box::new(TimedAgent {
                inner: SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: spec.pattern.clone(),
                        process: spec.process,
                        packet_len: spec.packet_len,
                        stop_after: spec.stop_after,
                        max_packets: spec.max_packets,
                    },
                ),
                probe,
            }),
            DistWorkload::MemVectorSum { base_stride, count } => Box::new(TimedAgent {
                inner: CoreAgent::new(
                    node,
                    nodes,
                    vector_sum_program(base_stride * (node.raw() as u64 + 1), *count),
                    CoreConfig::default(),
                ),
                probe,
            }),
            DistWorkload::CpuTokenRing => return Err("no workload runs the token ring".into()),
        };
        network.attach_agent(node, agent);
    }
    Ok(network)
}

/// The tiles of one traced run and the sequential cycle loop over them.
struct Stepper {
    nodes: Vec<NetworkNode>,
    kernel: Option<MeshKernel>,
    cycle: Cycle,
    fast_forward: bool,
    probe: Arc<AgentProbe>,
    posedge_ns: u64,
    negedge_ns: u64,
    stepped: u64,
}

impl Stepper {
    fn idle(&self) -> bool {
        self.nodes.iter().all(NetworkNode::is_idle)
    }

    fn done(&self) -> bool {
        self.nodes.iter().all(NetworkNode::finished) && self.idle()
    }

    fn stats(&self) -> NetworkStats {
        let mut merged = NetworkStats::new();
        for n in &self.nodes {
            merged.merge(n.stats());
        }
        merged
    }

    /// Jumps every tile clock to just before the next injection event when
    /// nothing is buffered anywhere, as the engine's sequential loop does.
    fn skip_idle_cycles(&mut self, end: Cycle) {
        let next = self
            .nodes
            .iter()
            .filter_map(|n| n.next_event(self.cycle))
            .min();
        let target = match next {
            Some(next) if next > self.cycle + 1 => next.min(end) - 1,
            Some(_) => return,
            None => end,
        };
        let skipped = target - self.cycle;
        for n in &mut self.nodes {
            n.set_cycle(target);
            n.router_mut().stats_mut().fast_forwarded_cycles += skipped;
        }
        self.cycle = target;
    }

    /// Simulates up to `end` (or, with `to_completion`, until every agent
    /// has finished and the network has drained), one `window` span under
    /// `parent` per [`WINDOW`] stepped cycles.
    fn drive(&mut self, end: Cycle, to_completion: bool, rec: &mut Recorder, parent: u32) {
        let running = |s: &Self| s.cycle < end && !(to_completion && s.done());
        while running(self) {
            let window = rec.open(Some(parent), "window");
            let (pos0, neg0) = (self.posedge_ns, self.negedge_ns);
            let tick0 = self.probe.tick_ns.load(Ordering::Relaxed);
            let mut in_window = 0;
            while in_window < WINDOW && running(self) {
                if self.fast_forward && self.idle() {
                    self.skip_idle_cycles(end);
                    if self.cycle == end {
                        break;
                    }
                }
                let now = self.cycle + 1;
                let t0 = Instant::now();
                match self.kernel.as_mut() {
                    Some(k) => k.posedge(&mut self.nodes, now),
                    None => self.nodes.iter_mut().for_each(|n| n.posedge(now)),
                }
                let t1 = Instant::now();
                match self.kernel.as_mut() {
                    Some(k) => k.negedge(&mut self.nodes, now),
                    None => self.nodes.iter_mut().for_each(|n| n.negedge(now)),
                }
                self.posedge_ns += (t1 - t0).as_nanos() as u64;
                self.negedge_ns += t1.elapsed().as_nanos() as u64;
                self.cycle = now;
                in_window += 1;
            }
            self.stepped += in_window;
            let posedge = rec.add(window, "net.posedge", self.posedge_ns - pos0, in_window);
            let ticks = self.probe.tick_ns.load(Ordering::Relaxed) - tick0;
            rec.add(posedge, "agents.tick", ticks, in_window);
            rec.add(window, "net.negedge", self.negedge_ns - neg0, in_window);
            rec.close(window);
        }
    }
}

fn minus(a: StageTimes, b: StageTimes) -> StageTimes {
    StageTimes {
        absorb: a.absorb - b.absorb,
        sa: a.sa - b.sa,
        va: a.va - b.va,
        rc: a.rc - b.rc,
        negedge: a.negedge - b.negedge,
        bridge: a.bridge - b.bridge,
    }
}

/// What the traced run of one workload measured. Times and counts cover the
/// measured window only, unless they say otherwise.
pub struct Traced {
    pub build: Duration,
    pub compile: Duration,
    /// The warm-up phase: `Workload::warmup_cycles` cycles, which may be none.
    pub warmup: Duration,
    pub wall: Duration,
    /// `None` when the configuration is ineligible for the compiled kernel.
    pub stages: Option<StageTimes>,
    pub posedge_ns: u64,
    pub negedge_ns: u64,
    pub agent_tick_ns: u64,
    /// Simulated cycles, and how many of them were stepped, not skipped.
    pub cycles: u64,
    pub stepped: u64,
    pub stats: NetworkStats,
    /// Over warm-up and window together: no routing failure, and delivered ≤
    /// injected ≤ what the injectors say they offered.
    pub conserved: bool,
    /// Agent counters since construction (warm-up included).
    pub tally: AgentTally,
    pub recorder: Recorder,
}

pub fn run(w: &Workload, seed: u64) -> Result<Traced, String> {
    let spec = DistSpec {
        seed,
        ..w.spec.clone()
    };
    let probe = Arc::new(AgentProbe::default());
    let mut rec = Recorder::new();
    let root = rec.open(None, "workload");

    let span = rec.open(Some(root), "core.build");
    let started = Instant::now();
    let (nodes, _payloads) = build_timed(&spec, &probe)?.into_nodes();
    let build = started.elapsed();
    rec.close(span);

    let span = rec.open(Some(root), "net.kernel.compile");
    let started = Instant::now();
    let kernel = if spec.kernel.enabled() {
        MeshKernel::compile(&nodes, true)
    } else {
        None
    };
    let compile = started.elapsed();
    rec.close(span);

    let mut stepper = Stepper {
        nodes,
        kernel,
        cycle: 0,
        fast_forward: spec.fast_forward,
        probe: Arc::clone(&probe),
        posedge_ns: 0,
        negedge_ns: 0,
        stepped: 0,
    };

    let span = rec.open(Some(root), "core.warmup");
    let started = Instant::now();
    stepper.drive(w.warmup_cycles(), false, &mut rec, span);
    let warmup = started.elapsed();
    rec.close(span);
    let before = stepper.stats();
    stepper.nodes.iter_mut().for_each(NetworkNode::reset_stats);
    let stages_before = stepper.kernel.as_ref().map(MeshKernel::stage_times);
    let (pos0, neg0, stepped0) = (stepper.posedge_ns, stepper.negedge_ns, stepper.stepped);
    let tick0 = probe.tick_ns.load(Ordering::Relaxed);
    let first = stepper.cycle;

    let span = rec.open(Some(root), "core.measure");
    let started = Instant::now();
    match spec.run {
        RunKind::Cycles(n) => stepper.drive(first + n, false, &mut rec, span),
        RunKind::ToCompletion { max } => stepper.drive(first + max, true, &mut rec, span),
    }
    let wall = started.elapsed();
    rec.close(span);
    rec.close(root);
    if matches!(spec.run, RunKind::ToCompletion { .. }) && !stepper.done() {
        return Err("traced run did not complete and drain".into());
    }

    let stats = stepper.stats();
    let stages = stepper
        .kernel
        .as_ref()
        .zip(stages_before)
        .map(|(k, before)| minus(k.stage_times(), before));
    let (posedge_ns, negedge_ns) = (stepper.posedge_ns - pos0, stepper.negedge_ns - neg0);
    let (cycles, stepped) = (stepper.cycle - first, stepper.stepped - stepped0);
    // Dropping the tiles drops the wrapped agents, which report their counters.
    drop(stepper);
    let tally = probe.tally.lock().map_err(|e| e.to_string())?.clone();
    let total = |f: fn(&NetworkStats) -> u64| f(&before) + f(&stats);
    let injected = total(|s| s.injected_packets);
    let conserved = total(|s| s.routing_failures) == 0
        && total(|s| s.delivered_packets) <= injected
        && (spec.workload != DistWorkload::Synthetic || injected <= tally.offered_packets);
    Ok(Traced {
        build,
        compile,
        warmup,
        wall,
        stages,
        posedge_ns,
        negedge_ns,
        agent_tick_ns: probe.tick_ns.load(Ordering::Relaxed) - tick0,
        cycles,
        stepped,
        stats,
        conserved,
        tally,
        recorder: rec,
    })
}
