//! Observability across process boundaries: a 4-process CycleAccurate run
//! with event tracing and telemetry enabled must stay bit-identical to the
//! sequential reference — in its `NetworkStats` *and* in its canonicalized
//! flit-lifecycle trace — while the coordinator streams schema-valid NDJSON
//! metrics and collects one stall profile per shard. The thread host is held
//! to the same bar.

mod common;

use common::{run_threads, sequential_reference, worker_bin};
use hornet_dist::spec::{DistSpec, DistSync, RunKind};
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use hornet_obs::metrics::TelemetrySample;
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};

fn observed_spec() -> DistSpec {
    DistSpec {
        width: 8,
        height: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        packet_len: 4,
        seed: 31,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(1_200),
        telemetry_every: Some(200),
        trace_capacity: Some(1 << 15),
        ..DistSpec::default()
    }
}

/// The acceptance test: 4 worker processes over Unix sockets with tracing
/// and telemetry enabled — stats and flit trace bit-identical to sequential,
/// metrics stream schema-valid.
#[cfg(unix)]
#[test]
fn four_process_traced_run_is_bit_identical_and_streams_valid_metrics() {
    let spec = observed_spec();
    let (seq_stats, seq_trace) = sequential_reference(&spec, 1_200);
    assert!(
        !seq_trace.events.is_empty(),
        "reference records flit events"
    );

    let metrics_path =
        std::env::temp_dir().join(format!("hornet-dist-metrics-{}.ndjson", std::process::id()));
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            metrics_out: Some(metrics_path.clone()),
            ..HostOptions::default()
        },
    )
    .expect("distributed run");

    assert_eq!(outcome.shards, 4);
    assert_eq!(outcome.stats, seq_stats, "stats identical with tracing on");
    assert_eq!(
        outcome.trace.flit_events(),
        seq_trace,
        "canonical flit trace identical across process boundaries"
    );

    // One stall profile per shard, each attributing real wall time (the
    // dist driver always profiles).
    assert_eq!(outcome.per_shard_profiles.len(), 4);
    for (i, p) in outcome.per_shard_profiles.iter().enumerate() {
        assert!(p.total_ns() > 0, "shard {i} attributed no wall time");
    }

    // Telemetry arrived in-band and as the NDJSON stream on disk; every
    // sample line satisfies the schema, the stream closes with the terminal
    // summary record (carrying the merged latency quantiles), and shards
    // progressed to the final cycle.
    assert!(!outcome.samples.is_empty(), "workers shipped samples");
    let text = std::fs::read_to_string(&metrics_path).expect("metrics stream written");
    let _ = std::fs::remove_file(&metrics_path);
    let mut lines = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with("{\"summary\":true") {
            continue;
        }
        TelemetrySample::validate_ndjson_line(line)
            .unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
        lines += 1;
    }
    assert_eq!(lines, outcome.samples.len(), "stream mirrors the samples");
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    assert!(
        last.starts_with("{\"summary\":true") && last.contains("\"event\":\"end\""),
        "stream must close with the terminal summary: {last:?}"
    );
    assert!(
        last.contains("\"latency_p50\":") && last.contains("\"latency_p99\":"),
        "summary carries merged latency quantiles: {last:?}"
    );
    let max_cycle = outcome.samples.iter().map(|s| s.cycle).max().unwrap_or(0);
    assert!(
        max_cycle >= 1_000,
        "sampling must cover the run (last sample at cycle {max_cycle})"
    );
}

/// The thread host under the same observability load.
#[test]
fn threaded_traced_run_is_bit_identical_and_samples() {
    let spec = observed_spec();
    let (seq_stats, seq_trace) = sequential_reference(&spec, 1_200);
    let (stats, _, _, samples, trace) = run_threads(&spec, 4);
    assert_eq!(stats, seq_stats, "threaded stats identical");
    assert_eq!(
        trace.flit_events(),
        seq_trace,
        "threaded canonical flit trace identical"
    );
    assert!(!samples.is_empty(), "threaded workers sample too");
    for s in &samples {
        TelemetrySample::validate_ndjson_line(&s.to_ndjson()).expect("schema-valid sample");
    }
}
