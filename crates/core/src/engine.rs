//! The parallel simulation engine — the paper's primary contribution.
//!
//! The simulated system is divided into tiles (router + traffic generators +
//! private PRNG + private statistics). A topology-aware partitioner
//! ([`hornet_shard::Partitioner`]) assigns contiguous sub-mesh blocks of
//! tiles to *shards*, one shard per worker of a persistent thread pool; a
//! tile is never split between shards. Links cut by the partition are
//! rewired onto lock-free boundary mailboxes
//! ([`hornet_net::boundary`]), so the only inter-thread communication is (a)
//! cycle-stamped flits and credits crossing those mailboxes and (b) per-shard
//! atomic progress counters that neighboring shards spin on — there is no
//! global barrier on the simulation path.
//!
//! Every synchronization mode is a window of `w` cycles
//! ([`SyncMode::window`]): a shard gates once per window, on its cut-link
//! neighbors having finished the window's first cycle `c0`, and for the
//! whole window consumes mailbox flits stamped `≤ c0 + 1` and credits
//! stamped `≤ c0` — exactly what the gate guaranteed.
//!
//! * [`SyncMode::CycleAccurate`] — `w = 1`: shards run in lock-step with
//!   their cut-link neighbors, and results are bit-identical to
//!   single-threaded simulation with the same seed, down to the latency
//!   histogram.
//! * [`SyncMode::Slack(k)`] — `w = k + 1` (`Slack(0)` is
//!   [`SyncMode::CycleAccurate`]); [`SyncMode::Periodic(n)`] — `w = n`, the
//!   paper's loose-sync headline configuration at `n = 5`. A cut-link flit
//!   or credit is seen 0 to `w − 1` cycles late; functional behaviour is
//!   exact (flits arrive in order, credits never overflow a buffer). A
//!   loose run is one defined model, identical on every repeat and on the
//!   process host; `Slack(k)` and `Periodic(k + 1)` are the same simulation.
//!
//! When fast-forwarding is enabled, the engine skips idle periods: if, at a
//! synchronization boundary, no flit is buffered anywhere (including boundary
//! mailboxes) and no injector has pending work, all tile clocks jump to the
//! next injection event.
//!
//! The engine owns no cycle loop. It holds a [`Network`]: with one thread
//! (or a one-shard partition) a run *is* [`Network::run`] /
//! [`Network::run_to_completion`], the reference loop every backend is
//! checked against, and the compiled kernel survives across `run()` calls.
//! With more shards the tiles are lent to `hornet_shard`'s runtime, whose
//! `CycleDriver` is the production loop, and put back afterwards (dropping
//! the network's kernel: the tiles were rewired in between).

use crate::report::ShardSummary;
use hornet_net::geometry::{Geometry, Topology};
use hornet_net::ids::Cycle;
use hornet_net::kernel::KernelMode;
use hornet_net::network::Network;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::serve::ObsHub;
use hornet_obs::trace::TraceDump;
pub use hornet_shard::SyncMode;
use hornet_shard::{Partition, Partitioner, RunParams, ShardRuntime};
use std::sync::Arc;

/// Configuration of the parallel engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads (tiles are divided equally among them).
    /// `1` selects the purely sequential path.
    pub threads: usize,
    /// Synchronization mode.
    pub sync: SyncMode,
    /// Skip idle periods (no buffered flits, no pending injections) by
    /// advancing all clocks to the next injection event.
    pub fast_forward: bool,
    /// Whether to run tiles through the compiled SoA cycle kernel
    /// ([`hornet_net::kernel::MeshKernel`]). The kernel is bit-identical to
    /// the per-router interpreter; configurations it cannot specialize
    /// (>64 VCs per tile) silently fall back to the interpreter. Every
    /// routing algorithm, adaptive included, compiles.
    pub kernel: KernelMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            sync: SyncMode::CycleAccurate,
            fast_forward: false,
            kernel: KernelMode::Auto,
        }
    }
}

/// The parallel cycle-level simulation engine.
pub struct ParallelEngine {
    /// The simulated system. Runs itself when one thread (or one shard) is
    /// asked for; lends its tiles to the sharded runtime otherwise.
    network: Network,
    config: EngineConfig,
    /// The persistent worker pool, created on the first parallel run and
    /// reused (threads and all) across subsequent `run()` calls.
    runtime: Option<ShardRuntime>,
    /// Shard layout and per-shard statistics of the last parallel run.
    shard_info: Option<ShardSummary>,
    /// Attribute worker wall time to compute/wait/ingest/flush phases.
    profile: bool,
    /// Telemetry sampling period in cycles (`None` = off).
    telemetry_every: Option<u64>,
    /// Ring capacity used when tracing was enabled (also sizes the per-shard
    /// runtime rings of parallel runs); 0 = tracing off.
    trace_capacity: usize,
    /// Telemetry samples accumulated across runs (drained by the caller).
    samples: Vec<TelemetrySample>,
    /// Runtime events (slack waits, checkpoints) accumulated across parallel
    /// runs (drained by the caller).
    runtime_trace: TraceDump,
    /// Live observation hub fed a copy of every telemetry sample as it is
    /// emitted (the embedded HTTP server's data source); `None` = off.
    live_hub: Option<Arc<ObsHub>>,
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("network", &self.network)
            .field("config", &self.config)
            .finish()
    }
}

/// The partition of `geometry`'s tiles over `threads` shards: band-aligned
/// on row-major meshes, balanced contiguous index ranges otherwise.
fn partition_for(geometry: &Geometry, threads: usize) -> Partition {
    let partitioner = Partitioner::new(threads);
    match *geometry.topology() {
        Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
            partitioner.mesh(width, height)
        }
        // Row-major 3-D meshes stack layers of rows; partitioning the
        // flattened `height × layers` rows keeps blocks contiguous.
        Topology::Mesh3D {
            width,
            height,
            layers,
            ..
        } => partitioner.mesh(width, height * layers),
        Topology::Line { .. } | Topology::Ring { .. } | Topology::Custom { .. } => {
            partitioner.linear(geometry.node_count())
        }
    }
}

impl ParallelEngine {
    /// Creates an engine over an assembled network.
    pub fn from_network(network: Network, config: EngineConfig) -> Self {
        Self {
            network,
            config,
            runtime: None,
            shard_info: None,
            profile: false,
            telemetry_every: None,
            trace_capacity: 0,
            samples: Vec::new(),
            runtime_trace: TraceDump::default(),
            live_hub: None,
        }
    }

    /// The simulated system (tiles, payload store, geometry, clock).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the simulated system, e.g. to attach agents or
    /// inspect a tile through [`Network::node_mut`] between runs.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Enables flit-lifecycle event tracing on every tile (ring of
    /// `capacity` events per tile) plus, on parallel runs, a per-shard
    /// runtime event ring of the same capacity. Tracing never perturbs the
    /// simulation: traced runs are bit-identical to untraced ones.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
        self.network.enable_tracing(capacity);
    }

    /// Collects every tile's flit-lifecycle events into one dump, in
    /// node-index order (use [`TraceDump::canonicalize`] before comparing
    /// dumps across backends).
    pub fn drain_trace(&mut self) -> TraceDump {
        self.network.drain_trace()
    }

    /// Takes the runtime events (slack waits, checkpoint captures)
    /// accumulated by parallel runs since the last call.
    pub fn take_runtime_trace(&mut self) -> TraceDump {
        std::mem::take(&mut self.runtime_trace)
    }

    /// Enables per-shard wall-time phase attribution (reported in
    /// [`ShardSummary::stalls`]; all zeros otherwise).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profile = enabled;
    }

    /// Enables periodic telemetry sampling every `every` cycles on parallel
    /// runs (collected via [`take_samples`](Self::take_samples)).
    pub fn set_telemetry_every(&mut self, every: Option<u64>) {
        self.telemetry_every = every;
    }

    /// Takes the telemetry samples accumulated since the last call.
    pub fn take_samples(&mut self) -> Vec<TelemetrySample> {
        std::mem::take(&mut self.samples)
    }

    /// Attaches (or detaches) a live observation hub: parallel runs push a
    /// copy of every telemetry sample into it as emitted, so an embedded
    /// HTTP server can report progress mid-run. Strictly write-only from the
    /// simulation's point of view — results are unaffected.
    pub fn set_live_hub(&mut self, hub: Option<Arc<ObsHub>>) {
        self.live_hub = hub;
    }

    /// Shard layout and per-shard statistics of the most recent parallel
    /// run, if any.
    pub fn shard_info(&self) -> Option<&ShardSummary> {
        self.shard_info.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Changes the engine configuration (takes effect on the next `run`).
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.network.cycle()
    }

    /// Merged statistics across all tiles.
    pub fn stats(&self) -> NetworkStats {
        self.network.stats()
    }

    /// Per-tile statistics (for thermal maps and per-tile power).
    pub fn per_node_stats(&self) -> Vec<NetworkStats> {
        self.network.per_node_stats()
    }

    /// Clears every tile's statistics (used to discard the warm-up window).
    pub fn reset_stats(&mut self) {
        self.network.reset_stats();
    }

    /// True if no flit is buffered anywhere and no injector has pending work.
    pub fn is_idle(&self) -> bool {
        self.network.is_idle()
    }

    /// True once every agent has reported completion.
    pub fn finished(&self) -> bool {
        self.network.finished()
    }

    /// Runs for `cycles` simulated cycles.
    pub fn run(&mut self, cycles: Cycle) {
        self.run_inner(cycles, false);
    }

    /// Runs until every agent reports completion and the network drains, or
    /// until `max_cycles` elapse. Returns `true` on completion.
    pub fn run_to_completion(&mut self, max_cycles: Cycle) -> bool {
        self.run_inner(max_cycles, true);
        self.finished() && self.is_idle()
    }

    fn run_inner(&mut self, cycles: Cycle, detect_completion: bool) {
        if cycles == 0 {
            return;
        }
        // Idempotent: an unchanged kernel mode keeps the network's compiled
        // kernel across runs.
        self.network.set_kernel_mode(self.config.kernel);
        self.network.set_fast_forward(self.config.fast_forward);
        // One thread — or a partition the tiles clamp to one shard — means no
        // cross-thread communication: the reference loop is the whole run.
        let partition = (self.config.threads > 1)
            .then(|| partition_for(self.network.geometry(), self.config.threads))
            .filter(|p| p.shard_count() > 1);
        match partition {
            Some(partition) => self.run_sharded(cycles, detect_completion, &partition),
            None if detect_completion => {
                self.network.run_to_completion(cycles);
            }
            None => self.network.run(cycles),
        }
    }

    /// Lends the tiles to the sharded runtime — topology-aware partition,
    /// boundary mailboxes on cut links, windowed neighbor synchronization
    /// — and puts them back at the cycle the shards reached.
    fn run_sharded(&mut self, cycles: Cycle, detect_completion: bool, partition: &Partition) {
        let params = RunParams {
            start: self.network.cycle(),
            cycles,
            sync: self.config.sync,
            fast_forward: self.config.fast_forward,
            detect_completion,
            profile: self.profile,
            telemetry_every: self.telemetry_every,
            trace_runtime: self.trace_capacity,
            live: self.live_hub.clone(),
            kernel: self.config.kernel,
        };
        let runtime = self
            .runtime
            .get_or_insert_with(|| ShardRuntime::new(partition.shard_count()));
        let outcome = runtime.run(self.network.take_tiles(), partition, params);
        self.network.put_tiles(outcome.nodes, outcome.final_cycle);
        self.samples.extend(outcome.samples);
        self.runtime_trace.merge(outcome.runtime_trace);
        self.shard_info = Some(ShardSummary {
            shards: partition.shard_count(),
            tiles_per_shard: (0..partition.shard_count())
                .map(|s| partition.tiles(s))
                .collect(),
            cut_links: outcome.cut_links,
            per_shard: outcome.per_shard_stats,
            stalls: outcome.per_shard_profiles,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::config::NetworkConfig;
    use hornet_net::geometry::Geometry;
    use hornet_net::routing::RoutingKind;
    use hornet_net::vca::VcAllocKind;
    use hornet_traffic::injector::{
        attach_everywhere, flows_for_pattern, network_for_pattern, SyntheticConfig,
        SyntheticInjector,
    };
    use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
    use std::sync::Arc;

    fn build_engine(threads: usize, sync: SyncMode, seed: u64, rate: f64) -> ParallelEngine {
        let geometry = Arc::new(Geometry::mesh2d(4, 4));
        let pattern = SyntheticPattern::Transpose;
        let flows = flows_for_pattern(&pattern, &geometry);
        let cfg = NetworkConfig::new((*geometry).clone())
            .with_routing(RoutingKind::Xy)
            .with_vca(VcAllocKind::Dynamic)
            .with_flows(flows);
        let mut network = Network::new(&cfg, seed).unwrap();
        for node in geometry.nodes() {
            network.attach_agent(
                node,
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Bernoulli { rate },
                        packet_len: 4,
                        stop_after: None,
                        max_packets: Some(50),
                    },
                )),
            );
        }
        ParallelEngine::from_network(
            network,
            EngineConfig {
                threads,
                sync,
                fast_forward: false,
                kernel: KernelMode::Auto,
            },
        )
    }

    /// Asserts two runs simulated the same thing: every statistic except
    /// the stop cycle, which a completion run notices at a host-timed moment.
    fn assert_same_run(a: &NetworkStats, b: &NetworkStats, what: &str) {
        assert_eq!(a.delivered_packets, b.delivered_packets, "{what}");
        assert_eq!(a.delivered_flits, b.delivered_flits, "{what}");
        assert_eq!(a.injected_flits, b.injected_flits, "{what}");
        assert_eq!(a.total_packet_latency, b.total_packet_latency, "{what}");
        assert_eq!(a.total_hops, b.total_hops, "{what}");
        assert_eq!(a.latency_histogram, b.latency_histogram, "{what}");
        assert_eq!(a.busy_cycles, b.busy_cycles, "{what}");
    }

    /// Runs `sync` on 4 threads to completion.
    fn drained(sync: SyncMode, seed: u64) -> NetworkStats {
        let mut par = build_engine(4, sync, seed, 0.05);
        assert!(par.run_to_completion(100_000));
        par.stats()
    }

    #[test]
    fn cycle_accurate_parallel_matches_sequential_exactly() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 99, 0.05);
        seq.run(3_000);
        let s = seq.stats();

        for threads in [2, 4] {
            let mut par = build_engine(threads, SyncMode::CycleAccurate, 99, 0.05);
            par.run(3_000);
            let p = par.stats();
            assert_eq!(
                p.delivered_packets, s.delivered_packets,
                "{threads} threads"
            );
            assert_eq!(
                p.total_packet_latency, s.total_packet_latency,
                "{threads} threads"
            );
            assert_eq!(p.injected_flits, s.injected_flits, "{threads} threads");
            assert_eq!(p.total_hops, s.total_hops, "{threads} threads");
        }
    }

    #[test]
    fn loose_sync_preserves_functional_correctness() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 7, 0.05);
        seq.run_to_completion(100_000);
        let s = seq.stats();

        // The paper's headline loose-sync configuration synchronizes every 5
        // cycles (Table I).
        let p = drained(SyncMode::Periodic(5), 7);
        // Every offered packet is still delivered exactly once.
        assert_eq!(p.delivered_packets, s.delivered_packets);
        assert_eq!(p.delivered_flits, s.delivered_flits);
        assert_eq!(p.routing_failures, 0);
        // Timing may deviate slightly, but not wildly. (On this deliberately
        // tiny 16-tile network the relative skew is much larger than on the
        // paper's 1024-tile systems; the fidelity-vs-period curve itself is
        // measured by `repro_fig6b`.)
        let accuracy = p.latency_accuracy_vs(&s);
        assert!(accuracy > 0.6, "loose-sync accuracy {accuracy} too low");
        // One defined model: the same run every time, and `Slack(4)` is the
        // same 5-cycle window.
        assert_same_run(&p, &drained(SyncMode::Periodic(5), 7), "repeat");
        assert_same_run(&p, &drained(SyncMode::Slack(4), 7), "slack 4");
    }

    #[test]
    fn slack_zero_is_bit_identical_to_sequential() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 41, 0.05);
        seq.run(3_000);
        let s = seq.stats();
        for threads in [2, 4] {
            let mut par = build_engine(threads, SyncMode::Slack(0), 41, 0.05);
            par.run(3_000);
            let p = par.stats();
            assert_eq!(
                p.delivered_packets, s.delivered_packets,
                "{threads} threads"
            );
            assert_eq!(
                p.total_packet_latency, s.total_packet_latency,
                "{threads} threads"
            );
            assert_eq!(
                p.latency_histogram, s.latency_histogram,
                "{threads} threads"
            );
            assert_eq!(p.busy_cycles, s.busy_cycles, "{threads} threads");
        }
    }

    #[test]
    fn slack_preserves_functional_correctness_with_bounded_drift() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 7, 0.05);
        seq.run_to_completion(100_000);
        let s = seq.stats();

        let p = drained(SyncMode::Slack(5), 7);
        // Every offered packet is still delivered exactly once.
        assert_eq!(p.delivered_packets, s.delivered_packets);
        assert_eq!(p.delivered_flits, s.delivered_flits);
        assert_eq!(p.routing_failures, 0);
        // Timing skew is bounded by the 5-cycle slack per hop; on this tiny
        // mesh the relative deviation still stays moderate.
        let accuracy = p.latency_accuracy_vs(&s);
        assert!(accuracy > 0.6, "slack-sync accuracy {accuracy} too low");
        assert_same_run(&p, &drained(SyncMode::Slack(5), 7), "repeat");
    }

    #[test]
    fn shard_info_reports_layout_and_per_shard_stats() {
        let mut par = build_engine(4, SyncMode::CycleAccurate, 99, 0.05);
        par.run(1_000);
        let info = par.shard_info().expect("parallel run records shard info");
        assert_eq!(info.shards, 4, "4×4 mesh, 4 threads: one row per shard");
        assert_eq!(info.tiles_per_shard, vec![4, 4, 4, 4]);
        assert_eq!(info.cut_links, 12, "three row boundaries × four links");
        let merged: u64 = info.per_shard.iter().map(|s| s.delivered_packets).sum();
        assert_eq!(merged, par.stats().delivered_packets);
    }

    #[test]
    fn run_to_completion_stops_early() {
        let mut engine = build_engine(2, SyncMode::CycleAccurate, 3, 0.05);
        assert!(engine.run_to_completion(200_000));
        assert!(engine.cycle() < 200_000, "must stop well before the limit");
        assert!(engine.finished() && engine.is_idle());
        // 16 nodes x 50 packets each.
        assert_eq!(engine.stats().delivered_packets, 16 * 50);
    }

    #[test]
    fn fast_forward_skips_idle_time_in_parallel_mode() {
        let build = |ff: bool| {
            let geometry = Arc::new(Geometry::mesh2d(2, 2));
            let pattern = SyntheticPattern::NearestNeighbor;
            let flows = flows_for_pattern(&pattern, &geometry);
            let cfg = NetworkConfig::new((*geometry).clone()).with_flows(flows);
            let mut network = Network::new(&cfg, 5).unwrap();
            // Only node 0 injects, one packet every 400 cycles.
            network.attach_agent(
                hornet_net::ids::NodeId::new(0),
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Periodic {
                            period: 400,
                            offset: 0,
                        },
                        packet_len: 2,
                        stop_after: Some(1_600),
                        max_packets: Some(4),
                    },
                )),
            );
            let mut engine = ParallelEngine::from_network(
                network,
                EngineConfig {
                    threads: 2,
                    sync: SyncMode::CycleAccurate,
                    fast_forward: ff,
                    kernel: KernelMode::Auto,
                },
            );
            // Skips are best-effort in wall time: the detector acts on its
            // own schedule (a 200 µs poll, later on a loaded host), and a
            // 2 000-cycle run can end before its first poll. The long idle
            // tail after the last packet keeps the run going until then.
            engine.run(200_000);
            engine.stats()
        };
        let without = build(false);
        let with = build(true);
        assert_eq!(without.delivered_packets, with.delivered_packets);
        assert_eq!(without.total_packet_latency, with.total_packet_latency);
        assert!(with.fast_forwarded_cycles > 0);
        assert!(with.simulated_cycles < without.simulated_cycles);
    }

    #[test]
    fn a_stop_cycle_in_an_idle_gap_is_reached_with_fast_forward_on() {
        // One 4-flit packet per tile every 50 cycles until cycle 240: the
        // last injection is at 200, the network drains long before 240, and
        // nothing else happens until the injectors see their stop cycle.
        let run = |threads: usize, fast_forward: bool| {
            let geometry = Arc::new(Geometry::mesh2d(4, 4));
            let pattern = SyntheticPattern::Transpose;
            let mut network = network_for_pattern(
                (*geometry).clone(),
                &pattern,
                RoutingKind::Xy,
                VcAllocKind::Dynamic,
                11,
            )
            .unwrap();
            let injector = SyntheticConfig {
                pattern,
                process: InjectionProcess::Periodic {
                    period: 50,
                    offset: 0,
                },
                packet_len: 4,
                stop_after: Some(240),
                max_packets: None,
            };
            attach_everywhere(&mut network, &geometry, &injector);
            let mut engine = ParallelEngine::from_network(
                network,
                EngineConfig {
                    threads,
                    sync: SyncMode::CycleAccurate,
                    fast_forward,
                    kernel: KernelMode::Auto,
                },
            );
            let completed = engine.run_to_completion(100_000);
            // What the run simulated, without how many cycles it took to say so.
            let stats = NetworkStats {
                simulated_cycles: 0,
                fast_forwarded_cycles: 0,
                busy_cycles: 0,
                last_cycle: 0,
                ..engine.stats()
            };
            (completed, engine.cycle(), stats)
        };
        let (completed, cycle, reference) = run(1, false);
        assert!(completed && cycle == 240, "sequential: stopped at {cycle}");
        assert!(reference.delivered_packets > 0);
        let (completed, cycle, stats) = run(1, true);
        assert!(
            completed && cycle == 240,
            "fast-forward: stopped at {cycle}"
        );
        assert_eq!(stats, reference, "fast-forward");
        // The thread backend's detector reads the same `finished()`; its
        // workers notice the stop flag a few cycles apart.
        for fast_forward in [false, true] {
            let (completed, cycle, stats) = run(2, fast_forward);
            assert!(
                completed && (240..1_000).contains(&cycle),
                "2 threads, fast-forward {fast_forward}: stopped at {cycle}"
            );
            assert_eq!(stats, reference, "2 threads, fast-forward {fast_forward}");
        }
    }

    /// A 4×4 transpose network with sparse periodic traffic (long idle gaps,
    /// eight packets per tile): runs fast-forward heavily and complete.
    fn sparse_network() -> Network {
        let geometry = Arc::new(Geometry::mesh2d(4, 4));
        let pattern = SyntheticPattern::Transpose;
        let flows = flows_for_pattern(&pattern, &geometry);
        let cfg = NetworkConfig::new((*geometry).clone())
            .with_routing(RoutingKind::Xy)
            .with_flows(flows);
        let mut network = Network::new(&cfg, 23).unwrap();
        for node in geometry.nodes() {
            network.attach_agent(
                node,
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Periodic {
                            period: 300,
                            offset: (node.index() as u64 % 4) * 25,
                        },
                        packet_len: 4,
                        stop_after: None,
                        max_packets: Some(8),
                    },
                )),
            );
        }
        network
    }

    #[test]
    fn fast_forward_with_loose_sync_preserves_functional_results() {
        // fast_forward + SyncMode::Periodic ride the same boundary checks:
        // idle detection (now a single O(1) aggregate-counter load per tile)
        // decides when all clocks jump. Functional results must match the
        // sequential run exactly; only timings may skew.
        let build = |threads: usize, sync: SyncMode| {
            let mut engine = ParallelEngine::from_network(
                sparse_network(),
                EngineConfig {
                    threads,
                    sync,
                    fast_forward: true,
                    kernel: KernelMode::Auto,
                },
            );
            assert!(engine.run_to_completion(1_000_000), "must complete");
            engine.stats()
        };
        let seq = build(1, SyncMode::CycleAccurate);
        let par = build(4, SyncMode::Periodic(5));
        // Skips land wherever detector timing puts them; the windows, and
        // so the run, do not move.
        assert_same_run(&par, &build(4, SyncMode::Periodic(5)), "repeat");
        // Every offered packet is delivered exactly once in both runs.
        assert_eq!(par.delivered_packets, seq.delivered_packets);
        assert_eq!(par.delivered_flits, seq.delivered_flits);
        assert_eq!(par.injected_flits, seq.injected_flits);
        assert_eq!(par.routing_failures, 0);
        assert_eq!(seq.routing_failures, 0);
        // Both runs must actually have skipped idle periods.
        assert!(
            seq.fast_forwarded_cycles > 0,
            "sequential run never skipped"
        );
        assert!(par.fast_forwarded_cycles > 0, "parallel run never skipped");
    }

    #[test]
    fn network_run_to_completion_honours_fast_forward() {
        let reference = |fast_forward: bool| {
            let mut network = sparse_network();
            network.set_fast_forward(fast_forward);
            assert!(network.run_to_completion(1_000_000), "must complete");
            (network.stats(), network.cycle())
        };
        let (fast, slow) = (reference(true), reference(false));
        let mut engine = ParallelEngine::from_network(
            sparse_network(),
            EngineConfig {
                fast_forward: true,
                ..EngineConfig::default()
            },
        );
        assert!(engine.run_to_completion(1_000_000), "must complete");

        assert!(
            fast.0.fast_forwarded_cycles > 0,
            "idle gaps must be skipped"
        );
        for (stats, cycle) in [slow, (engine.stats(), engine.cycle())] {
            assert_eq!(fast.0.delivered_packets, stats.delivered_packets);
            assert_eq!(fast.0.total_packet_latency, stats.total_packet_latency);
            assert_eq!(fast.1, cycle);
        }
    }

    #[test]
    fn thread_count_is_clamped_to_tile_count() {
        let mut engine = build_engine(64, SyncMode::CycleAccurate, 1, 0.02);
        engine.run(200); // 16 tiles, 64 requested threads: must not panic
        assert_eq!(engine.cycle(), 200);
    }
}
