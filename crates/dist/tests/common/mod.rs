//! What the distributed backend's integration tests share: the worker
//! binary, the sequential references every CycleAccurate run must reproduce,
//! the same spec on the thread host, and the bit-identity assertion. Each
//! test file compiles its own copy and uses a subset.
#![allow(dead_code)]

use hornet_core::engine::{EngineConfig, ParallelEngine};
use hornet_dist::spec::{DistSpec, RunKind};
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::trace::TraceDump;
use std::path::PathBuf;

pub fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_hornet-dist"))
}

/// Runs `spec` sequentially in this process. Returns
/// `(stats, final_cycle, completed)`.
pub fn run_sequential(spec: &DistSpec) -> (NetworkStats, u64, bool) {
    let mut network = spec.build_network().expect("valid spec");
    network.set_fast_forward(spec.fast_forward);
    let completed = match spec.run {
        RunKind::Cycles(n) => {
            network.run(n);
            true
        }
        RunKind::ToCompletion { max } => network.run_to_completion(max),
    };
    (network.stats(), network.cycle(), completed)
}

/// Runs `spec` on the thread host — the product engine, `threads` shards of
/// one process over shared boundary rings — with the spec's synchronization,
/// fast-forward, kernel, telemetry and tracing. Returns
/// `(stats, final_cycle, completed, samples, trace)`; the trace holds the
/// tiles' flit-lifecycle events.
///
/// # Panics
///
/// Panics unless the run was actually split into `threads` shards.
pub fn run_threads(
    spec: &DistSpec,
    threads: usize,
) -> (NetworkStats, u64, bool, Vec<TelemetrySample>, TraceDump) {
    let mut engine = ParallelEngine::from_network(
        spec.build_network().expect("valid spec"),
        EngineConfig {
            threads,
            sync: spec.sync,
            fast_forward: spec.fast_forward,
            kernel: spec.kernel,
        },
    );
    engine.set_telemetry_every(spec.telemetry_every);
    if let Some(capacity) = spec.trace_capacity {
        engine.enable_tracing(capacity as usize);
    }
    let completed = match spec.run {
        RunKind::Cycles(n) => {
            engine.run(n);
            true
        }
        RunKind::ToCompletion { max } => engine.run_to_completion(max),
    };
    assert_eq!(
        engine.shard_info().map(|info| info.shards),
        Some(threads),
        "the run must take the sharded path"
    );
    (
        engine.stats(),
        engine.cycle(),
        completed,
        engine.take_samples(),
        engine.drain_trace(),
    )
}

/// Sequential reference with tracing on: stats plus canonical flit trace.
pub fn sequential_reference(spec: &DistSpec, cycles: u64) -> (NetworkStats, TraceDump) {
    let mut net = spec.build_network().expect("valid spec");
    net.enable_tracing(spec.trace_capacity.unwrap() as usize);
    net.run(cycles);
    let dump = net.drain_trace();
    assert_eq!(dump.dropped, 0, "reference ring must not truncate");
    (net.stats(), dump.flit_events())
}

pub fn assert_bit_identical(seq: &NetworkStats, other: &NetworkStats, what: &str) {
    assert_eq!(
        other.delivered_packets, seq.delivered_packets,
        "{what}: packet count"
    );
    assert_eq!(other.delivered_flits, seq.delivered_flits, "{what}: flits");
    assert_eq!(
        other.injected_flits, seq.injected_flits,
        "{what}: injected flits"
    );
    assert_eq!(
        other.total_packet_latency, seq.total_packet_latency,
        "{what}: latency total"
    );
    assert_eq!(other.total_hops, seq.total_hops, "{what}: hops");
    assert_eq!(
        other.latency_histogram, seq.latency_histogram,
        "{what}: latency histogram"
    );
    assert_eq!(other.busy_cycles, seq.busy_cycles, "{what}: busy cycles");
}
