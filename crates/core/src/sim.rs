//! The top-level simulation façade.
//!
//! [`SimulationBuilder`] assembles a complete simulated multicore — geometry,
//! routing, VC allocation, traffic frontend (synthetic, trace-driven,
//! SPLASH-like, MIPS cores, native threads, or custom agents), parallel-engine
//! configuration, and optional power/thermal modeling — and produces a
//! [`Simulation`] whose [`run`](Simulation::run) yields a [`SimReport`].

use crate::engine::{EngineConfig, ParallelEngine, SyncMode};
use crate::report::{PowerReport, SimReport, ThermalReport};
use hornet_net::agent::NodeAgent;
use hornet_net::config::{ConfigError, NetworkConfig};
use hornet_net::geometry::Geometry;
use hornet_net::ids::{Cycle, NodeId};
use hornet_net::kernel::KernelMode;
use hornet_net::network::Network;
use hornet_net::routing::{FlowSpec, RoutingKind};
use hornet_net::stats::RouterActivity;
use hornet_net::vca::VcAllocKind;
use hornet_obs::serve::{ObsHub, ObsServer};
use hornet_power::energy::{activity_delta, PowerConfig, RouterPowerModel};
use hornet_power::thermal::{ThermalConfig, ThermalGrid};
use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use hornet_traffic::splash::{SplashBenchmark, SplashWorkload};
use hornet_traffic::trace::{Trace, TraceInjector};
use std::sync::Arc;
use std::time::Instant;

/// Errors produced while building or running a simulation.
#[derive(Debug)]
pub enum SimError {
    /// The network configuration was invalid.
    Config(ConfigError),
    /// The requested traffic frontend cannot be applied to the geometry.
    Traffic(String),
    /// The live-monitoring HTTP server could not be started.
    Http(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid network configuration: {e}"),
            SimError::Traffic(msg) => write!(f, "invalid traffic configuration: {msg}"),
            SimError::Http(msg) => write!(f, "cannot start HTTP server: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// The traffic frontend driving the simulation.
pub enum TrafficKind {
    /// No built-in traffic (attach custom agents with
    /// [`SimulationBuilder::agent`]).
    None,
    /// Synthetic pattern on every node.
    Synthetic {
        /// Destination pattern.
        pattern: SyntheticPattern,
        /// Injection process.
        process: InjectionProcess,
        /// Packet length in flits.
        packet_len: u32,
    },
    /// A SPLASH-2-like synthesized workload.
    Splash {
        /// Which benchmark to synthesize.
        benchmark: SplashBenchmark,
        /// Memory-controller placement.
        memory_controllers: Vec<NodeId>,
        /// Offered-load scaling factor (1.0 = the benchmark's default).
        load_scale: f64,
    },
    /// Replay a trace (events are split by source node).
    Trace {
        /// The trace to replay.
        trace: Trace,
        /// Horizon for periodic trace events.
        horizon: Cycle,
    },
}

impl TrafficKind {
    /// Uniform-random Bernoulli traffic at `rate` packets/node/cycle with
    /// 8-flit packets.
    pub fn uniform(rate: f64) -> Self {
        TrafficKind::Synthetic {
            pattern: SyntheticPattern::UniformRandom,
            process: InjectionProcess::Bernoulli { rate },
            packet_len: 8,
        }
    }

    /// A named synthetic pattern at `rate` packets/node/cycle.
    pub fn pattern(pattern: SyntheticPattern, rate: f64) -> Self {
        TrafficKind::Synthetic {
            pattern,
            process: InjectionProcess::Bernoulli { rate },
            packet_len: 8,
        }
    }

    /// A SPLASH-like workload with a single corner memory controller.
    pub fn splash(benchmark: SplashBenchmark) -> Self {
        TrafficKind::Splash {
            benchmark,
            memory_controllers: vec![NodeId::new(0)],
            load_scale: 1.0,
        }
    }
}

/// Options for power/thermal modeling during a run.
struct PowerOptions {
    power: PowerConfig,
    thermal: Option<ThermalConfig>,
    sample_interval: Cycle,
    /// Multiplies simulated time when integrating the thermal RC network, so
    /// that thermal transients are visible within the (short) simulated
    /// windows; equivalent to assuming each measured window repeats
    /// `time_scale` times.
    time_scale: f64,
}

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    geometry: Geometry,
    routing: RoutingKind,
    vca: VcAllocKind,
    vcs_per_port: usize,
    vc_buffer_depth: usize,
    link_bandwidth: u32,
    traffic: TrafficKind,
    custom_agents: Vec<(NodeId, Box<dyn NodeAgent>)>,
    extra_flows: Vec<FlowSpec>,
    warmup: Cycle,
    measured: Cycle,
    seed: u64,
    threads: usize,
    sync: SyncMode,
    fast_forward: bool,
    kernel: KernelMode,
    power: Option<PowerOptions>,
    trace_events: usize,
    profile: bool,
    telemetry_every: Option<u64>,
    http_addr: Option<String>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Creates a builder with the paper's default configuration: an 8×8 mesh,
    /// XY routing, dynamic VCA, 4 VCs of 4 flits, no traffic.
    pub fn new() -> Self {
        Self {
            geometry: Geometry::mesh2d(8, 8),
            routing: RoutingKind::Xy,
            vca: VcAllocKind::Dynamic,
            vcs_per_port: 4,
            vc_buffer_depth: 4,
            link_bandwidth: 1,
            traffic: TrafficKind::None,
            custom_agents: Vec::new(),
            extra_flows: Vec::new(),
            warmup: 0,
            measured: 10_000,
            seed: 0,
            threads: 1,
            sync: SyncMode::CycleAccurate,
            fast_forward: false,
            kernel: KernelMode::Auto,
            power: None,
            trace_events: 0,
            profile: false,
            telemetry_every: None,
            http_addr: None,
        }
    }

    /// Sets the interconnect geometry.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Sets the routing algorithm.
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the VC-allocation algorithm.
    pub fn vc_allocation(mut self, vca: VcAllocKind) -> Self {
        self.vca = vca;
        self
    }

    /// Sets the number of virtual channels per port.
    pub fn vcs_per_port(mut self, vcs: usize) -> Self {
        self.vcs_per_port = vcs;
        self
    }

    /// Sets the depth of each VC buffer, in flits.
    pub fn vc_buffer_depth(mut self, depth: usize) -> Self {
        self.vc_buffer_depth = depth;
        self
    }

    /// Sets the link bandwidth in flits/cycle.
    pub fn link_bandwidth(mut self, bw: u32) -> Self {
        self.link_bandwidth = bw;
        self
    }

    /// Selects the traffic frontend.
    pub fn traffic(mut self, traffic: TrafficKind) -> Self {
        self.traffic = traffic;
        self
    }

    /// Attaches a custom agent to a node (may be called repeatedly).
    pub fn agent(mut self, node: NodeId, agent: Box<dyn NodeAgent>) -> Self {
        self.custom_agents.push((node, agent));
        self
    }

    /// Adds flows that the routing tables must cover beyond the ones implied
    /// by the traffic frontend (needed when custom agents send packets).
    pub fn flows(mut self, flows: Vec<FlowSpec>) -> Self {
        self.extra_flows = flows;
        self
    }

    /// Sets the number of warm-up cycles discarded before measurement.
    pub fn warmup_cycles(mut self, cycles: Cycle) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the number of measured cycles.
    pub fn measured_cycles(mut self, cycles: Cycle) -> Self {
        self.measured = cycles;
        self
    }

    /// Sets the master random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of host threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the synchronization mode.
    pub fn sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Enables fast-forwarding of idle periods.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Selects whether tiles run through the compiled SoA cycle kernel
    /// ([`hornet_net::kernel::MeshKernel`]) or the per-router interpreter.
    /// The default, [`KernelMode::Auto`], uses the kernel whenever the
    /// configuration is eligible (and honors the `HORNET_KERNEL` environment
    /// variable); results are bit-identical either way.
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// Enables cycle-stamped flit-lifecycle event tracing with a per-tile
    /// ring of `capacity` events; the measured window's trace lands in
    /// [`SimReport::trace`](crate::report::SimReport). `0` disables tracing.
    pub fn trace_events(mut self, capacity: usize) -> Self {
        self.trace_events = capacity;
        self
    }

    /// Enables per-shard wall-time stall profiling (compute / slack-wait /
    /// ingest / flush), reported in the shard summary.
    pub fn profile_stalls(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Collects a telemetry sample per shard roughly every `every` cycles
    /// during parallel runs, reported in
    /// [`SimReport::samples`](crate::report::SimReport).
    pub fn telemetry_every(mut self, every: Option<u64>) -> Self {
        self.telemetry_every = every;
        self
    }

    /// Serves live run state over HTTP on `addr` (e.g. `"127.0.0.1:9464"`)
    /// for the duration of [`Simulation::run`]: `/healthz`, `/status`,
    /// `/metrics` (Prometheus text exposition), `/trace?since_cycle=N` and
    /// `/alerts`. The server is strictly read-only — enabling it does not
    /// perturb simulation results. Implies a default telemetry period of
    /// 1 000 cycles when [`telemetry_every`](Self::telemetry_every) is unset.
    pub fn http_addr(mut self, addr: Option<String>) -> Self {
        self.http_addr = addr;
        self
    }

    /// Enables power modeling (and, with `thermal`, thermal modeling),
    /// sampling every `sample_interval` cycles.
    pub fn power_model(
        mut self,
        power: PowerConfig,
        thermal: Option<ThermalConfig>,
        sample_interval: Cycle,
        time_scale: f64,
    ) -> Self {
        self.power = Some(PowerOptions {
            power,
            thermal,
            sample_interval: sample_interval.max(1),
            time_scale: time_scale.max(1.0),
        });
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid (disconnected
    /// geometry, zero-sized buffers, flows referencing unknown nodes, …).
    pub fn build(self) -> Result<Simulation, SimError> {
        let geometry = Arc::new(self.geometry.clone());
        // Work out which flows the routing tables must cover.
        let mut flows: Vec<FlowSpec> = self.extra_flows.clone();
        match &self.traffic {
            TrafficKind::None => {
                if flows.is_empty() && !self.custom_agents.is_empty() {
                    flows = FlowSpec::all_to_all(&geometry);
                }
            }
            TrafficKind::Synthetic { pattern, .. } => {
                flows.extend(flows_for_pattern(pattern, &geometry));
            }
            TrafficKind::Splash { .. } => flows.extend(FlowSpec::all_to_all(&geometry)),
            TrafficKind::Trace { trace, .. } => {
                flows.extend(
                    trace
                        .flow_pairs()
                        .into_iter()
                        .map(|(s, d)| FlowSpec::pair(s, d, geometry.node_count())),
                );
            }
        }
        flows.sort_by_key(|f| (f.src, f.dst));
        flows.dedup();

        let net_config = NetworkConfig::new(self.geometry.clone())
            .with_routing(self.routing)
            .with_vca(self.vca)
            .with_vcs(self.vcs_per_port, self.vc_buffer_depth)
            .with_link_bandwidth(self.link_bandwidth)
            .with_flows(flows);
        let mut network = Network::new(&net_config, self.seed)?;

        // Attach the traffic frontend.
        match self.traffic {
            TrafficKind::None => {}
            TrafficKind::Synthetic {
                pattern,
                process,
                packet_len,
            } => {
                for node in geometry.nodes() {
                    network.attach_agent(
                        node,
                        Box::new(SyntheticInjector::new(
                            Arc::clone(&geometry),
                            SyntheticConfig {
                                pattern: pattern.clone(),
                                process,
                                packet_len,
                                stop_after: None,
                                max_packets: None,
                            },
                        )),
                    );
                }
            }
            TrafficKind::Splash {
                benchmark,
                memory_controllers,
                load_scale,
            } => {
                if memory_controllers.is_empty() {
                    return Err(SimError::Traffic(
                        "SPLASH workloads need at least one memory controller".to_string(),
                    ));
                }
                let workload = SplashWorkload::new(benchmark, Arc::clone(&geometry))
                    .with_memory_controllers(memory_controllers)
                    .scaled(load_scale);
                workload.attach_all(&mut network);
            }
            TrafficKind::Trace { trace, horizon } => {
                let node_count = geometry.node_count();
                for (i, per_node) in trace.split_by_source(node_count).into_iter().enumerate() {
                    network.attach_agent(
                        NodeId::from(i),
                        Box::new(TraceInjector::new(per_node, node_count, horizon)),
                    );
                }
            }
        }
        for (node, agent) in self.custom_agents {
            if node.index() >= geometry.node_count() {
                return Err(SimError::Traffic(format!(
                    "agent attached to out-of-range node {node}"
                )));
            }
            network.attach_agent(node, agent);
        }

        let mut engine = ParallelEngine::from_network(
            network,
            EngineConfig {
                threads: self.threads,
                sync: self.sync,
                fast_forward: self.fast_forward,
                kernel: self.kernel,
            },
        );
        if self.trace_events > 0 {
            engine.enable_tracing(self.trace_events);
        }
        engine.set_profiling(self.profile);
        let telemetry_every = match (self.telemetry_every, &self.http_addr) {
            (None, Some(_)) => Some(1_000),
            (every, _) => every,
        };
        engine.set_telemetry_every(telemetry_every);
        // Start the live-monitoring server now (rather than inside `run`) so
        // callers can learn the bound address — `http_addr` may name port 0 —
        // before the run starts.
        let http = match &self.http_addr {
            None => None,
            Some(addr) => {
                let hub = Arc::new(ObsHub::new());
                engine.set_live_hub(Some(Arc::clone(&hub)));
                let server =
                    ObsServer::spawn(addr, hub).map_err(|e| SimError::Http(e.to_string()))?;
                Some(server)
            }
        };
        Ok(Simulation {
            engine,
            warmup: self.warmup,
            measured: self.measured,
            power: self.power,
            trace_events: self.trace_events,
            http,
        })
    }
}

/// A fully assembled simulation, ready to run.
pub struct Simulation {
    engine: ParallelEngine,
    warmup: Cycle,
    measured: Cycle,
    power: Option<PowerOptions>,
    trace_events: usize,
    http: Option<ObsServer>,
}

impl Simulation {
    /// The underlying engine (e.g. to inspect per-tile state between runs
    /// through [`ParallelEngine::network`]).
    pub fn engine(&self) -> &ParallelEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut ParallelEngine {
        &mut self.engine
    }

    /// The address the live-monitoring HTTP server is bound to, when
    /// [`SimulationBuilder::http_addr`] was set (useful with port 0).
    pub fn http_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(ObsServer::addr)
    }

    /// Runs the warm-up and measured windows and produces the report.
    ///
    /// # Errors
    ///
    /// Currently infallible at run time; the `Result` is kept so future
    /// frontends (e.g. external trace files) can report I/O failures.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let warmup_start = Instant::now();
        let mut warmup_wall_time = std::time::Duration::ZERO;
        if self.warmup > 0 {
            self.engine.run(self.warmup);
            // Discard warm-up statistics, trace events and telemetry so the
            // report covers exactly the measured window.
            self.engine.reset_stats();
            self.engine.take_samples();
            self.engine.take_runtime_trace();
            if self.trace_events > 0 {
                self.engine.drain_trace();
            }
            warmup_wall_time = warmup_start.elapsed();
        }
        let start = Instant::now();
        let power_options = self.power.take();
        let (power, thermal) = match &power_options {
            None => {
                self.engine.run(self.measured);
                (None, None)
            }
            Some(opts) => self.run_with_power(opts),
        };
        let wall_time = start.elapsed();
        let network = self.engine.stats();
        let per_node = self.engine.per_node_stats();
        let shard = self.engine.shard_info().cloned();
        let trace = (self.trace_events > 0).then(|| {
            let mut dump = self.engine.drain_trace();
            dump.merge(self.engine.take_runtime_trace());
            dump
        });
        let samples = self.engine.take_samples();
        if let Some(mut server) = self.http.take() {
            server.shutdown();
        }
        Ok(SimReport {
            network,
            per_node,
            measured_cycles: self.measured,
            wall_time,
            warmup_wall_time,
            threads: self.engine.config().threads,
            sync_label: self.engine.config().sync.label(),
            power,
            thermal,
            shard,
            trace,
            samples,
        })
    }

    /// Runs until every agent completes (closed-loop workloads such as the
    /// MIPS cores or Cannon's algorithm), up to `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Traffic`] if the workload did not complete within
    /// `max_cycles`.
    pub fn run_to_completion(mut self, max_cycles: Cycle) -> Result<SimReport, SimError> {
        let start = Instant::now();
        let completed = self.engine.run_to_completion(max_cycles);
        if !completed {
            return Err(SimError::Traffic(format!(
                "workload did not complete within {max_cycles} cycles"
            )));
        }
        let wall_time = start.elapsed();
        let shard = self.engine.shard_info().cloned();
        let trace = (self.trace_events > 0).then(|| {
            let mut dump = self.engine.drain_trace();
            dump.merge(self.engine.take_runtime_trace());
            dump
        });
        let samples = self.engine.take_samples();
        if let Some(mut server) = self.http.take() {
            server.shutdown();
        }
        Ok(SimReport {
            network: self.engine.stats(),
            per_node: self.engine.per_node_stats(),
            measured_cycles: self.engine.cycle(),
            wall_time,
            warmup_wall_time: std::time::Duration::ZERO,
            threads: self.engine.config().threads,
            sync_label: self.engine.config().sync.label(),
            power: None,
            thermal: None,
            shard,
            trace,
            samples,
        })
    }

    fn run_with_power(
        &mut self,
        opts: &PowerOptions,
    ) -> (Option<PowerReport>, Option<ThermalReport>) {
        let geometry = self.engine.network().geometry();
        let tiles = geometry.node_count();
        let model = RouterPowerModel::new(opts.power);
        let width = geometry.width().unwrap_or(tiles);
        let height = geometry.height().unwrap_or(1);
        let mut grid = opts.thermal.map(|cfg| ThermalGrid::new(width, height, cfg));
        let mut prev_activity: Vec<RouterActivity> = self
            .engine
            .per_node_stats()
            .iter()
            .map(|s| s.activity.clone())
            .collect();
        let mut power_samples = Vec::new();
        let mut thermal_series = Vec::new();
        let mut energy_per_tile = vec![0.0f64; tiles];

        let mut remaining = self.measured;
        while remaining > 0 {
            let step = opts.sample_interval.min(remaining);
            self.engine.run(step);
            remaining -= step;
            let stats = self.engine.per_node_stats();
            let samples: Vec<_> = stats
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let delta = activity_delta(&s.activity, &prev_activity[i]);
                    prev_activity[i] = s.activity.clone();
                    model.sample(&delta, step)
                })
                .collect();
            for (i, s) in samples.iter().enumerate() {
                energy_per_tile[i] += s.energy_j;
            }
            if let Some(grid) = grid.as_mut() {
                let powers: Vec<f64> = samples.iter().map(|s| s.total_w()).collect();
                let seconds = step as f64 / model.config().frequency_hz * opts.time_scale;
                let steps = (seconds / opts.thermal.expect("grid implies config").dt)
                    .ceil()
                    .max(1.0) as usize;
                grid.run(&powers, steps.min(100_000));
                thermal_series.push((self.engine.cycle(), grid.temperatures().to_vec()));
            }
            power_samples.push((self.engine.cycle(), samples));
        }

        let seconds_total = self.measured as f64 / model.config().frequency_hz;
        let per_tile_avg_w: Vec<f64> = energy_per_tile
            .iter()
            .map(|e| {
                if seconds_total > 0.0 {
                    e / seconds_total
                } else {
                    0.0
                }
            })
            .collect();
        let total_avg_w = per_tile_avg_w.iter().sum();
        let power_report = PowerReport {
            per_tile_avg_w,
            total_avg_w,
            samples: power_samples,
        };
        let thermal_report = grid.map(|g| ThermalReport {
            final_temperatures: g.temperatures().to_vec(),
            hotspot_tile: g.hotspot(),
            time_series: thermal_series,
        });
        (Some(power_report), thermal_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_a_small_synthetic_simulation() {
        let report = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(4, 4))
            .routing(RoutingKind::Xy)
            .vc_allocation(VcAllocKind::Dynamic)
            .traffic(TrafficKind::uniform(0.02))
            .warmup_cycles(200)
            .measured_cycles(2_000)
            .seed(42)
            .build()
            .expect("valid configuration")
            .run()
            .expect("runs");
        assert!(report.network.delivered_packets > 0);
        assert!(report.network.avg_packet_latency() > 0.0);
        assert_eq!(report.per_node.len(), 16);
        assert!(report.simulation_speed() > 0.0);
    }

    #[test]
    fn parallel_and_sequential_reports_agree_in_cycle_accurate_mode() {
        let build = |threads| {
            SimulationBuilder::new()
                .geometry(Geometry::mesh2d(4, 4))
                .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.03))
                .warmup_cycles(100)
                .measured_cycles(1_500)
                .threads(threads)
                .seed(9)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let seq = build(1);
        let par = build(4);
        assert_eq!(seq.network.delivered_packets, par.network.delivered_packets);
        assert_eq!(
            seq.network.total_packet_latency,
            par.network.total_packet_latency
        );
    }

    #[test]
    fn power_and_thermal_reports_are_produced() {
        let report = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(4, 4))
            .traffic(TrafficKind::uniform(0.05))
            .measured_cycles(2_000)
            .power_model(
                PowerConfig::default(),
                Some(ThermalConfig::default()),
                500,
                1_000.0,
            )
            .seed(3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let power = report.power.expect("power enabled");
        assert_eq!(power.per_tile_avg_w.len(), 16);
        assert!(power.total_avg_w > 0.0);
        assert_eq!(power.samples.len(), 4);
        let thermal = report.thermal.expect("thermal enabled");
        assert_eq!(thermal.final_temperatures.len(), 16);
        assert!(thermal.peak_temp() > 0.0);
    }

    #[test]
    fn invalid_agent_node_is_rejected() {
        let err = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(2, 2))
            .agent(
                NodeId::new(99),
                Box::new(hornet_net::agent::SinkAgent::new()),
            )
            .build();
        assert!(matches!(err, Err(SimError::Traffic(_))));
        let msg = format!("{}", err.err().unwrap());
        assert!(msg.contains("out-of-range"));
    }

    #[test]
    fn splash_traffic_requires_memory_controllers() {
        let err = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(4, 4))
            .traffic(TrafficKind::Splash {
                benchmark: SplashBenchmark::Radix,
                memory_controllers: vec![],
                load_scale: 1.0,
            })
            .build();
        assert!(matches!(err, Err(SimError::Traffic(_))));
    }
}
