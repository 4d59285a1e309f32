//! The six workloads and the one way a repetition of each is run.
//!
//! A workload is a [`DistSpec`] — mesh, routing, traffic, seed, run shape —
//! plus the backend that executes it end to end. Every repetition simulates a
//! fixed number of cycles, so both sides of a later comparison do identical
//! work. Sizes were chosen on a 2-core Xeon @ 2.1 GHz for about one second
//! per repetition.

use crate::sys::cpu_time;
use hornet_core::engine::SyncMode;
use hornet_core::report::ShardSummary;
use hornet_core::sim::{SimulationBuilder, TrafficKind};
use hornet_dist::{
    run_distributed, DistSpec, DistSync, DistWorkload, HostOptions, RunKind, TransportKind,
};
use hornet_net::geometry::Geometry;
use hornet_net::routing::RoutingKind;
use hornet_net::stats::NetworkStats;
use hornet_obs::profile::StallProfile;
use hornet_obs::trace::TraceDump;
use hornet_traffic::pattern::InjectionProcess;
use std::time::{Duration, Instant};

/// Cycles simulated and discarded before the measured window of an
/// [`Backend::Engine`] repetition; part of set-up.
pub const WARMUP: u64 = 1_000;

/// How a repetition executes its spec.
#[derive(Clone, Debug, PartialEq)]
pub enum Backend {
    /// `SimulationBuilder` → `Simulation::run`: warm-up, then the measured
    /// window, on this many threads.
    Engine { threads: usize },
    /// `DistSpec::build_network` → `Network::run` / `run_to_completion`:
    /// the sequential reference simulator, no warm-up.
    Network,
    /// `run_distributed` over worker processes, no warm-up.
    Procs {
        workers: usize,
        transport: TransportKind,
    },
}

/// The configuration whose simulated results a workload must reproduce
/// exactly, checked on every run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Reference {
    /// Nothing simpler to compare with (completion and conservation are
    /// still checked).
    None,
    /// The per-router interpreter (`KernelMode::Off`).
    Interpreter,
    /// The same run with fast-forward off.
    NoFastForward,
    /// The same simulation on one thread of this process.
    Sequential,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub spec: DistSpec,
    pub backend: Backend,
    pub reference: Reference,
    /// Attribute shard wall time to compute/wait/ingest/flush
    /// (`profile_stalls`; worker processes always do).
    pub profile: bool,
    /// Simulated cycles per host second this workload ran at when it was
    /// sized; a repetition slower than a tenth of it counts as failed.
    pub nominal_cps: f64,
}

fn spec(side: u32, cycles: u64) -> DistSpec {
    DistSpec {
        width: side,
        height: side,
        packet_len: 8,
        run: RunKind::Cycles(cycles),
        ..DistSpec::default()
    }
}

/// The benchmark's workloads. `shrink` divides every size (1 for a real run,
/// 20 for `--quick`).
pub fn all(shrink: u64) -> Vec<Workload> {
    let seq = Backend::Engine { threads: 1 };
    let w = |name, why, spec, backend, reference, nominal_cps| Workload {
        name,
        why,
        spec,
        backend,
        reference,
        profile: false,
        nominal_cps,
    };
    vec![
        w(
            "mesh8_seq",
            "8x8 XY transpose at 0.05: the compiled MeshKernel does nearly all the work",
            spec(8, 40_000 / shrink),
            seq.clone(),
            Reference::Interpreter,
            41_000.0,
        ),
        w(
            "adaptive8_seq",
            "same traffic, adaptive routing: kernel-ineligible, so the interpreter does all the work",
            DistSpec {
                routing: RoutingKind::AdaptiveMinimal,
                ..spec(8, 16_000 / shrink)
            },
            seq.clone(),
            Reference::None,
            17_000.0,
        ),
        w(
            "burst16_ff_seq",
            "16x16, one packet per tile every 500 cycles, fast-forward on: idle detection and skips dominate",
            DistSpec {
                process: InjectionProcess::Periodic {
                    period: 500,
                    offset: 0,
                },
                fast_forward: true,
                ..spec(16, 100_000 / shrink)
            },
            seq,
            Reference::NoFastForward,
            100_000.0,
        ),
        w(
            "vsum8_seq",
            "8x8 MIPS cores summing vectors over MSI coherence, run to completion: cpu and mem agents dominate",
            DistSpec {
                workload: DistWorkload::MemVectorSum {
                    base_stride: 65_536,
                    count: 4_096 / shrink,
                },
                run: RunKind::ToCompletion {
                    max: 400_000 / shrink,
                },
                ..spec(8, 0)
            },
            Backend::Network,
            Reference::None,
            93_000.0,
        ),
        w(
            "mesh16_t2_ca",
            "16x16 transpose on 2 threads, cycle-accurate: shard driver, boundary rings and slack waits",
            spec(16, 18_000 / shrink),
            Backend::Engine { threads: 2 },
            Reference::Sequential,
            18_500.0,
        ),
        w(
            "mesh16_p2_unix_ca",
            "16x16 transpose on 2 worker processes over Unix sockets: transport, wire codec and coordinator",
            DistSpec {
                packet_len: 4,
                ..spec(16, 10_000 / shrink)
            },
            Backend::Procs {
                workers: 2,
                transport: TransportKind::UnixSocket,
            },
            Reference::Sequential,
            7_800.0,
        ),
    ]
}

/// The workload called `name`, at `1/shrink` of its size.
pub fn by_name(name: &str, shrink: u64) -> Option<Workload> {
    all(shrink).into_iter().find(|w| w.name == name)
}

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// `SimulationBuilder::build` or `DistSpec::build_network`.
    pub build: Duration,
    /// Wall time of the warm-up cycles; for worker processes, of a 1-cycle
    /// `run_distributed` (spawn, handshake, teardown).
    pub warmup: Duration,
    /// Wall time of the measured window; for worker processes, of the whole
    /// `run_distributed` call.
    pub wall: Duration,
    /// Simulated cycles in the measured window.
    pub cycles: u64,
    /// User + system CPU time, children included, of the call that ran
    /// `cpu_cycles` cycles (warm-up and measured window together).
    pub cpu: Duration,
    pub cpu_cycles: u64,
    pub stats: NetworkStats,
    /// Shard layout, per-shard statistics and — for worker processes, or with
    /// `profile` — per-shard phase attribution.
    pub shard: Option<ShardSummary>,
    pub trace: Option<TraceDump>,
}

impl Rep {
    pub fn setup(&self) -> Duration {
        self.build + self.warmup
    }

    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64()
    }

    pub fn ns_per_cycle(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.cycles as f64
    }

    pub fn stalls(&self) -> &[StallProfile] {
        self.shard.as_ref().map_or(&[], |s| &s.stalls)
    }
}

fn engine_sync(sync: DistSync) -> SyncMode {
    match sync {
        DistSync::CycleAccurate => SyncMode::CycleAccurate,
        DistSync::Slack(k) => SyncMode::Slack(k),
        DistSync::Periodic(n) => SyncMode::Periodic(n),
    }
}

impl Workload {
    /// Cycles of warm-up a repetition discards before its measured window.
    pub fn warmup_cycles(&self) -> u64 {
        match self.backend {
            Backend::Engine { .. } => WARMUP,
            Backend::Network | Backend::Procs { .. } => 0,
        }
    }

    /// Host threads or processes simulating at once.
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Engine { threads } => threads,
            Backend::Network => 1,
            Backend::Procs { workers, .. } => workers,
        }
    }

    /// This workload simulating `spec` instead.
    pub fn with_spec(&self, spec: DistSpec) -> Workload {
        Workload {
            spec,
            ..self.clone()
        }
    }

    /// The same simulation on one thread of this process.
    pub fn sequential(&self) -> Workload {
        let backend = match self.backend {
            Backend::Engine { .. } => Backend::Engine { threads: 1 },
            Backend::Network | Backend::Procs { .. } => Backend::Network,
        };
        Workload {
            backend,
            ..self.clone()
        }
    }

    /// Runs one repetition with master seed `seed`.
    pub fn run(&self, seed: u64) -> Result<Rep, String> {
        let spec = DistSpec {
            seed,
            ..self.spec.clone()
        };
        match &self.backend {
            Backend::Engine { threads } => self.run_engine(&spec, *threads),
            Backend::Network => run_network(&spec),
            Backend::Procs { workers, transport } => run_procs(&spec, *workers, *transport),
        }
    }

    fn run_engine(&self, spec: &DistSpec, threads: usize) -> Result<Rep, String> {
        if spec.workload != DistWorkload::Synthetic {
            return Err("the engine backend runs synthetic traffic only".into());
        }
        let RunKind::Cycles(cycles) = spec.run else {
            return Err("the engine backend runs a fixed cycle count".into());
        };
        let started = Instant::now();
        let sim = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(spec.width as usize, spec.height as usize))
            .routing(spec.routing)
            .vc_allocation(spec.vca)
            .traffic(TrafficKind::Synthetic {
                pattern: spec.pattern.clone(),
                process: spec.process,
                packet_len: spec.packet_len,
            })
            .warmup_cycles(WARMUP)
            .measured_cycles(cycles)
            .seed(spec.seed)
            .threads(threads)
            .sync(engine_sync(spec.sync))
            .fast_forward(spec.fast_forward)
            .kernel(spec.kernel)
            .trace_events(spec.trace_capacity.unwrap_or(0) as usize)
            .profile_stalls(self.profile)
            .build()
            .map_err(|e| e.to_string())?;
        let build = started.elapsed();
        let cpu_before = cpu_time();
        let report = sim.run().map_err(|e| e.to_string())?;
        let cpu = cpu_time() - cpu_before;
        Ok(Rep {
            build,
            warmup: report.warmup_wall_time,
            wall: report.wall_time,
            cycles,
            cpu,
            cpu_cycles: WARMUP + cycles,
            stats: report.network,
            shard: report.shard,
            trace: report.trace,
        })
    }
}

fn run_network(spec: &DistSpec) -> Result<Rep, String> {
    let started = Instant::now();
    let mut network = spec.build_network().map_err(|e| e.to_string())?;
    network.set_fast_forward(spec.fast_forward);
    if let Some(capacity) = spec.trace_capacity {
        network.enable_tracing(capacity as usize);
    }
    let build = started.elapsed();
    let cpu_before = cpu_time();
    let started = Instant::now();
    match spec.run {
        RunKind::Cycles(n) => network.run(n),
        RunKind::ToCompletion { max } => {
            if !network.run_to_completion(max) {
                return Err(format!("not complete and drained within {max} cycles"));
            }
        }
    }
    let wall = started.elapsed();
    let cpu = cpu_time() - cpu_before;
    Ok(Rep {
        build,
        warmup: Duration::ZERO,
        wall,
        cycles: network.cycle(),
        cpu,
        cpu_cycles: network.cycle(),
        stats: network.stats(),
        shard: None,
        trace: spec.trace_capacity.map(|_| network.drain_trace()),
    })
}

fn host_options(workers: usize, transport: TransportKind) -> Result<HostOptions, String> {
    // The worker binary is built beside the harness (see run.sh).
    let worker = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("hornet-dist");
    Ok(HostOptions {
        workers,
        transport,
        worker_cmd: Some(worker),
        ..HostOptions::default()
    })
}

/// Wall time of a 1-cycle `run_distributed` of `spec`: spawn, handshake,
/// teardown.
pub fn spawn_teardown(
    spec: &DistSpec,
    workers: usize,
    transport: TransportKind,
) -> Result<Duration, String> {
    let one_cycle = DistSpec {
        run: RunKind::Cycles(1),
        ..spec.clone()
    };
    let started = Instant::now();
    run_distributed(&one_cycle, &host_options(workers, transport)?).map_err(|e| e.to_string())?;
    Ok(started.elapsed())
}

fn run_procs(spec: &DistSpec, workers: usize, transport: TransportKind) -> Result<Rep, String> {
    let warmup = spawn_teardown(spec, workers, transport)?;
    let opts = host_options(workers, transport)?;
    let cpu_before = cpu_time();
    let started = Instant::now();
    let outcome = run_distributed(spec, &opts).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let cpu = cpu_time() - cpu_before;
    if !outcome.completed || outcome.restarts > 0 {
        return Err(format!(
            "distributed run completed={} after {} restarts",
            outcome.completed, outcome.restarts
        ));
    }
    Ok(Rep {
        build: Duration::ZERO,
        warmup,
        wall,
        cycles: outcome.final_cycle,
        cpu,
        cpu_cycles: outcome.final_cycle,
        stats: outcome.stats,
        shard: Some(ShardSummary {
            shards: outcome.shards,
            tiles_per_shard: Vec::new(),
            cut_links: outcome.cut_links,
            per_shard: outcome.per_shard,
            stalls: outcome.per_shard_profiles,
        }),
        trace: spec.trace_capacity.map(|_| outcome.trace),
    })
}
