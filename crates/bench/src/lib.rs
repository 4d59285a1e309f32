//! Shared experiment harness for the `repro_*` binaries.
//!
//! Each function here corresponds to one measurement the paper reports; the
//! `repro_*` binaries wire them to the paper's parameters and print the same
//! rows/series the corresponding table or figure shows (plus a CSV copy under
//! `target/repro/`). The README's "Benchmarks & paper repro" section lists
//! the binaries.

use hornet_core::engine::SyncMode;
use hornet_core::sim::{SimulationBuilder, TrafficKind};
use hornet_cpu::pinlike::{NativeFrontendAgent, SyntheticThread, SyntheticThreadConfig};
use hornet_cpu::programs::{cannon_ideal_execution_time, CannonConfig, CannonThread};
use hornet_mem::hierarchy::MemoryConfig;
use hornet_net::geometry::Geometry;
use hornet_net::ideal::{IdealConfig, IdealNetwork};
use hornet_net::ids::{Cycle, NodeId};
use hornet_net::routing::RoutingKind;
use hornet_net::stats::NetworkStats;
use hornet_net::vca::VcAllocKind;
use hornet_power::energy::PowerConfig;
use hornet_power::thermal::ThermalConfig;
use hornet_traffic::pattern::SyntheticPattern;
use hornet_traffic::splash::{SplashBenchmark, SplashWorkload};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Writes a CSV table under `target/repro/<name>.csv` and echoes it to stdout.
pub fn emit_table(name: &str, header: &str, rows: &[String]) {
    println!("# {name}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!();
    let dir = std::path::Path::new("target/repro");
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.csv"))) {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
        }
    }
}

/// Scale knob for the repro binaries: `HORNET_REPRO_SCALE=full` runs the
/// paper-sized experiments (1024 tiles, millions of cycles); the default
/// `quick` scale keeps every binary under a few minutes on a laptop while
/// preserving the qualitative shapes.
pub fn full_scale() -> bool {
    std::env::var("HORNET_REPRO_SCALE")
        .map(|v| v.eq_ignore_ascii_case("full"))
        .unwrap_or(false)
}

/// Result of one SPLASH-like network run.
#[derive(Clone, Debug)]
pub struct SplashRun {
    /// Average in-network packet latency (cycles).
    pub avg_packet_latency: f64,
    /// Average flit latency (cycles).
    pub avg_flit_latency: f64,
    /// Delivered packets.
    pub delivered_packets: u64,
    /// Merged statistics.
    pub stats: NetworkStats,
}

/// Runs a SPLASH-like workload on the cycle-accurate network and reports the
/// average in-network latency (the measurement most of the paper's figures
/// use).
#[allow(clippy::too_many_arguments)]
pub fn splash_network_latency(
    benchmark: SplashBenchmark,
    mesh: usize,
    routing: RoutingKind,
    vca: VcAllocKind,
    vcs: usize,
    vc_capacity: usize,
    memory_controllers: Vec<NodeId>,
    load_scale: f64,
    cycles: Cycle,
    seed: u64,
) -> SplashRun {
    let geometry = Arc::new(Geometry::mesh2d(mesh, mesh));
    let workload = SplashWorkload::new(benchmark, Arc::clone(&geometry))
        .with_memory_controllers(memory_controllers)
        .scaled(load_scale);
    let mut network = workload.build_network(routing, vca, vcs, vc_capacity, seed);
    network.run(cycles / 10); // warm-up
    network.reset_stats();
    network.run(cycles);
    let stats = network.stats();
    SplashRun {
        avg_packet_latency: stats.avg_packet_latency(),
        avg_flit_latency: stats.avg_flit_latency(),
        delivered_packets: stats.delivered_packets,
        stats,
    }
}

/// Runs the same SPLASH-like workload on the congestion-oblivious (ideal)
/// network model: injection bandwidth is still limited, but transit latency is
/// a pure hop count (Figure 8's "without congestion" bars).
pub fn splash_ideal_latency(
    benchmark: SplashBenchmark,
    mesh: usize,
    memory_controllers: Vec<NodeId>,
    load_scale: f64,
    cycles: Cycle,
    seed: u64,
) -> f64 {
    let geometry = Arc::new(Geometry::mesh2d(mesh, mesh));
    let workload = SplashWorkload::new(benchmark, Arc::clone(&geometry))
        .with_memory_controllers(memory_controllers)
        .scaled(load_scale);
    let mut ideal = IdealNetwork::new(&geometry, IdealConfig::default(), seed);
    for node in geometry.nodes() {
        ideal.attach_agent(node, workload.agent_for(node));
    }
    ideal.run(cycles / 10);
    // The ideal model has no warm-up artefacts worth excluding; run measured.
    ideal.run(cycles);
    ideal.stats().avg_flit_latency()
}

/// Measures wall-clock simulation speed (simulated cycles per second) of a
/// synthetic workload for a given thread count and sync mode (Figure 6a).
pub fn parallel_speed(
    mesh: usize,
    threads: usize,
    sync: SyncMode,
    rate: f64,
    cycles: Cycle,
    seed: u64,
) -> f64 {
    let report = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(mesh, mesh))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::pattern(SyntheticPattern::Shuffle, rate))
        .measured_cycles(cycles)
        .threads(threads)
        .sync(sync)
        .seed(seed)
        .build()
        .expect("valid configuration")
        .run()
        .expect("runs");
    report.simulation_speed()
}

/// Measures wall-clock simulation speed of a multicore running the
/// blackscholes-like native workload (the MIPS/blackscholes curve of
/// Figure 6a).
pub fn parallel_speed_blackscholes(
    mesh: usize,
    threads: usize,
    sync: SyncMode,
    cycles: Cycle,
    seed: u64,
) -> f64 {
    let geometry = Geometry::mesh2d(mesh, mesh);
    let nodes = geometry.node_count();
    let mut builder = SimulationBuilder::new()
        .geometry(geometry)
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::None)
        .measured_cycles(cycles)
        .threads(threads)
        .sync(sync)
        .seed(seed)
        .flows(hornet_net::routing::FlowSpec::all_to_all(
            &Geometry::mesh2d(mesh, mesh),
        ));
    for i in 0..nodes {
        let node = NodeId::from(i);
        builder = builder.agent(
            node,
            Box::new(NativeFrontendAgent::new(
                node,
                nodes,
                Box::new(SyntheticThread::new(
                    node,
                    SyntheticThreadConfig::blackscholes(u64::MAX),
                )),
                MemoryConfig::default(),
                1,
            )),
        );
    }
    let start = Instant::now();
    let report = builder.build().expect("valid").run().expect("runs");
    let _ = report;
    cycles as f64 / start.elapsed().as_secs_f64()
}

/// Runs a synthetic workload twice — cycle-accurately and with the given sync
/// period — and returns `(speedup vs cycle-accurate, latency accuracy)`
/// (Figure 6b).
pub fn sync_period_tradeoff(
    mesh: usize,
    threads: usize,
    period: u64,
    rate: f64,
    cycles: Cycle,
    seed: u64,
) -> (f64, f64) {
    let run = |sync: SyncMode| {
        let start = Instant::now();
        let report = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(mesh, mesh))
            .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, rate))
            .warmup_cycles(cycles / 10)
            .measured_cycles(cycles)
            .threads(threads)
            .sync(sync)
            .seed(seed)
            .build()
            .expect("valid")
            .run()
            .expect("runs");
        (start.elapsed().as_secs_f64(), report.network)
    };
    let (t_acc, stats_acc) = run(SyncMode::CycleAccurate);
    let (t_loose, stats_loose) = if period <= 1 {
        (t_acc, stats_acc.clone())
    } else {
        run(SyncMode::Periodic(period))
    };
    let speedup = t_acc / t_loose.max(1e-9);
    let accuracy = stats_loose.latency_accuracy_vs(&stats_acc);
    (speedup, accuracy)
}

/// Measures the fast-forwarding benefit for a low-traffic workload
/// (Figure 7): returns wall-clock seconds without and with fast-forwarding.
pub fn fast_forward_benefit(
    mesh: usize,
    threads: usize,
    pattern: SyntheticPattern,
    bursty: bool,
    cycles: Cycle,
    seed: u64,
) -> (f64, f64) {
    let process = if bursty {
        hornet_traffic::pattern::InjectionProcess::Burst {
            burst_len: 4,
            gap: 600,
        }
    } else {
        hornet_traffic::pattern::InjectionProcess::Periodic {
            period: 150,
            offset: 0,
        }
    };
    let run = |ff: bool| {
        let start = Instant::now();
        let _ = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(mesh, mesh))
            .traffic(TrafficKind::Synthetic {
                pattern: pattern.clone(),
                process,
                packet_len: 8,
            })
            .measured_cycles(cycles)
            .threads(threads)
            .fast_forward(ff)
            .seed(seed)
            .build()
            .expect("valid")
            .run()
            .expect("runs");
        start.elapsed().as_secs_f64()
    };
    (run(false), run(true))
}

/// Result of the Cannon trace-vs-closed-loop comparison (Figure 12).
#[derive(Clone, Debug)]
pub struct CannonComparison {
    /// Total execution time assumed by the trace-based (ideal network) run.
    pub trace_execution_cycles: Cycle,
    /// Total execution time measured with the integrated core + network run.
    pub closed_loop_execution_cycles: Cycle,
    /// Average injection rate (flits/cycle/node) of the trace-based run.
    pub trace_injection_rate: f64,
    /// Average injection rate of the closed-loop run.
    pub closed_loop_injection_rate: f64,
}

/// Runs Cannon's algorithm both ways: the trace-based execution time assumes
/// an ideal single-cycle network (the schedule `cannon_ideal_schedule`
/// produces), while the closed-loop run executes the same message-passing
/// program on cores that interact with the real network.
pub fn cannon_comparison(config: &CannonConfig, seed: u64) -> CannonComparison {
    let p = config.grid_p;
    let nodes = p * p;
    let geometry = Geometry::mesh2d(p, p);
    let mut builder = SimulationBuilder::new()
        .geometry(geometry.clone())
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::None)
        .threads(1)
        .seed(seed)
        .flows(hornet_net::routing::FlowSpec::all_to_all(&geometry));
    for row in 0..p {
        for col in 0..p {
            let node = config.node_at(row, col);
            builder = builder.agent(
                node,
                Box::new(NativeFrontendAgent::new(
                    node,
                    nodes,
                    Box::new(CannonThread::new(config.clone(), row, col)),
                    MemoryConfig::default(),
                    1,
                )),
            );
        }
    }
    let report = builder
        .build()
        .expect("valid")
        .run_to_completion(200_000_000)
        .expect("cannon completes");
    let closed_cycles = report.measured_cycles.max(1);
    let trace_cycles = cannon_ideal_execution_time(config).max(1);
    let total_flits = report.network.injected_flits as f64;
    CannonComparison {
        trace_execution_cycles: trace_cycles,
        closed_loop_execution_cycles: closed_cycles,
        trace_injection_rate: total_flits / (trace_cycles as f64 * nodes as f64),
        closed_loop_injection_rate: total_flits / (closed_cycles as f64 * nodes as f64),
    }
}

/// Runs a SPLASH-like workload with power + thermal modeling and returns the
/// thermal report (Figures 13 and 14).
pub fn splash_thermal(
    benchmark: SplashBenchmark,
    mesh: usize,
    cycles: Cycle,
    sample_interval: Cycle,
    seed: u64,
) -> hornet_core::report::ThermalReport {
    let report = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(mesh, mesh))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::splash(benchmark))
        .measured_cycles(cycles)
        .power_model(
            PowerConfig::default(),
            Some(ThermalConfig::default()),
            sample_interval,
            20_000.0,
        )
        .seed(seed)
        .build()
        .expect("valid")
        .run()
        .expect("runs");
    report.thermal.expect("thermal enabled")
}

/// The worst-link flow count under DOR on an n×n mesh with all-to-all traffic
/// (the n³/4 analysis of §IV-A / footnote 1).
pub fn worst_link_flows(n: usize) -> usize {
    n * n * n / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_link_formula_matches_paper_examples() {
        assert_eq!(worst_link_flows(8), 128);
        assert_eq!(worst_link_flows(32), 8192);
    }

    #[test]
    fn radix_vs_swaptions_congestion_shape_holds() {
        // Scaled-down Figure 8 sanity check: the congestion-accurate latency
        // of the heavy benchmark exceeds its congestion-oblivious estimate by
        // a much larger factor than for the light benchmark.
        let mcs = vec![NodeId::new(0)];
        let cycles = 3_000;
        let radix = splash_network_latency(
            SplashBenchmark::Radix,
            8,
            RoutingKind::Xy,
            VcAllocKind::Dynamic,
            4,
            4,
            mcs.clone(),
            1.0,
            cycles,
            1,
        );
        let radix_ideal =
            splash_ideal_latency(SplashBenchmark::Radix, 8, mcs.clone(), 1.0, cycles, 1);
        let swap = splash_network_latency(
            SplashBenchmark::Swaptions,
            8,
            RoutingKind::Xy,
            VcAllocKind::Dynamic,
            4,
            4,
            mcs.clone(),
            1.0,
            cycles,
            1,
        );
        let swap_ideal = splash_ideal_latency(SplashBenchmark::Swaptions, 8, mcs, 1.0, cycles, 1);
        let radix_ratio = radix.avg_flit_latency / radix_ideal.max(1.0);
        let swap_ratio = swap.avg_flit_latency / swap_ideal.max(1.0);
        assert!(
            radix_ratio > swap_ratio,
            "congestion must matter more for radix ({radix_ratio:.2}) than swaptions ({swap_ratio:.2})"
        );
    }

    #[test]
    fn sync_period_five_keeps_high_accuracy() {
        let (_speedup, accuracy) = sync_period_tradeoff(4, 2, 5, 0.02, 2_000, 3);
        // On a deliberately tiny 4×4 mesh a 5-cycle window costs more
        // relative accuracy than on the paper's 1024-tile systems. The
        // fidelity-vs-period curve itself is measured by `repro_fig6b`.
        assert!(accuracy > 0.7, "accuracy {accuracy}");
        // A loose run is one defined model: the same figure on every repeat.
        let (_speedup, again) = sync_period_tradeoff(4, 2, 5, 0.02, 2_000, 3);
        assert_eq!(
            accuracy.to_bits(),
            again.to_bits(),
            "accuracy moved between repeats"
        );
    }
}
