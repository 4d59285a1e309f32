//! End-to-end fidelity tests of the distributed backend.
//!
//! The headline claims, asserted here exactly as the paper's reproduction
//! demands:
//!
//! * a **4-process** CycleAccurate run over the Unix-socket transport on a
//!   16×16 mesh reports the *identical* packet count, latency totals and
//!   log₂ latency histogram as sequential simulation of the same spec —
//!   under both uniform-random and transpose traffic;
//! * the same holds for the shared-memory transport and for the thread host
//!   (the product engine, shards on threads of one process);
//! * and for adaptive routing, whose congestion probe reads a cut link's
//!   free space through its boundary channel, with every shard on the
//!   compiled kernel;
//! * a distributed `ToCompletion` run stops early via coordinator-side
//!   credit-counting termination — no barrier anywhere — and still delivers
//!   every offered packet;
//! * a loose run (a sync window of more than one cycle) is one defined
//!   model: identical on every repeat and over threads, Unix sockets and
//!   shared memory, with `Slack(k)` equal to `Periodic(k + 1)`.

mod common;

use common::{assert_bit_identical, run_sequential, run_threads, worker_bin};
use hornet_dist::spec::{DistSpec, DistSync, RunKind};
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use hornet_net::kernel::KernelMode;
use hornet_net::routing::RoutingKind;
use hornet_net::stats::NetworkStats;
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};

fn spec_16x16(pattern: SyntheticPattern, seed: u64, cycles: u64) -> DistSpec {
    DistSpec {
        width: 16,
        height: 16,
        pattern,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        packet_len: 4,
        seed,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(cycles),
        ..DistSpec::default()
    }
}

/// The acceptance test: 4 worker processes over Unix sockets, CycleAccurate,
/// 16×16 mesh, uniform + transpose — bit-identical to sequential. The same
/// transpose spec over TCP loopback on 2 workers rides along: TCP shares the
/// socket transport's one code path.
#[cfg(unix)]
#[test]
fn four_process_unix_socket_cycle_accurate_is_bit_identical() {
    for (pattern, seed, transport, workers) in [
        (
            SyntheticPattern::UniformRandom,
            11u64,
            TransportKind::UnixSocket,
            4,
        ),
        (
            SyntheticPattern::Transpose,
            23u64,
            TransportKind::UnixSocket,
            4,
        ),
        (SyntheticPattern::Transpose, 23u64, TransportKind::Tcp, 2),
    ] {
        let spec = spec_16x16(pattern.clone(), seed, 1_500);
        let (seq, _, _) = run_sequential(&spec);
        assert!(seq.delivered_packets > 0, "workload must deliver traffic");
        let outcome = run_distributed(
            &spec,
            &HostOptions {
                workers,
                transport,
                worker_cmd: Some(worker_bin()),
                ..HostOptions::default()
            },
        )
        .expect("distributed run");
        assert_eq!(outcome.shards, workers);
        assert_eq!(outcome.final_cycle, 1_500);
        assert_bit_identical(
            &seq,
            &outcome.stats,
            &format!("{workers}-process {transport:?} {}", pattern.label()),
        );
        // Per-shard stats re-merge to the total.
        let mut merged = NetworkStats::new();
        for s in &outcome.per_shard {
            merged.merge(s);
        }
        assert_eq!(merged.delivered_packets, outcome.stats.delivered_packets);
    }
}

/// Two processes over a shared-memory segment, bit-identical to sequential.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn two_process_shm_cycle_accurate_is_bit_identical() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        seed: 5,
        run: RunKind::Cycles(1_200),
        ..spec_16x16(SyntheticPattern::Transpose, 5, 1_200)
    };
    let (seq, _, _) = run_sequential(&spec);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 2,
            transport: TransportKind::Shm,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("shared-memory run");
    assert_bit_identical(&seq, &outcome.stats, "2-process shm");
}

/// Two processes over TCP loopback (the cross-machine transport).
#[test]
fn two_process_tcp_cycle_accurate_is_bit_identical() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        seed: 9,
        run: RunKind::Cycles(1_000),
        ..spec_16x16(SyntheticPattern::UniformRandom, 9, 1_000)
    };
    let (seq, _, _) = run_sequential(&spec);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 2,
            transport: TransportKind::Tcp,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("tcp run");
    assert_bit_identical(&seq, &outcome.stats, "2-process tcp");
}

/// The same spec on the thread host (shards on threads over shared SPSC
/// rings, through the same cycle driver): bit-identical, and Slack preserves
/// functional totals, the same way on every repeat.
#[test]
fn threaded_transport_reference_is_bit_identical_and_slack_is_functional() {
    let spec = spec_16x16(SyntheticPattern::Transpose, 41, 2_000);
    let (seq, _, _) = run_sequential(&spec);
    let (ca, ..) = run_threads(&spec, 4);
    assert_bit_identical(&seq, &ca, "thread host");

    let slack_spec = DistSpec {
        sync: DistSync::Slack(5),
        max_packets: Some(40),
        run: RunKind::ToCompletion { max: 200_000 },
        ..spec.clone()
    };
    let (slack, _, completed, ..) = run_threads(&slack_spec, 4);
    assert!(completed, "slack run must complete");
    // Functional exactness: every offered packet delivered exactly once.
    assert_eq!(slack.delivered_packets, 256 * 40);
    assert_eq!(slack.routing_failures, 0);
    let (again, ..) = run_threads(&slack_spec, 4);
    assert_bit_identical(&slack, &again, "slack 5, repeated");
}

/// Loose synchronization is reproducible: a `Periodic(5)` run gives the
/// same stats on every repeat of the thread host and over 2 worker
/// processes on Unix sockets and on shared memory, and `Slack(4)` — the
/// same 5-cycle window — is the same simulation.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn loose_runs_are_identical_across_repeats_and_hosts() {
    let spec = DistSpec {
        sync: DistSync::Periodic(5),
        ..spec_16x16(SyntheticPattern::Transpose, 5, 1_000)
    };
    let (reference, ..) = run_threads(&spec, 2);
    assert!(reference.delivered_packets > 0);
    for repeat in 0..3 {
        let (again, ..) = run_threads(&spec, 2);
        assert_bit_identical(&reference, &again, &format!("thread repeat {repeat}"));
    }
    let slack = DistSpec {
        sync: DistSync::Slack(4),
        ..spec.clone()
    };
    assert_bit_identical(&reference, &run_threads(&slack, 2).0, "slack 4, threads");
    for transport in [TransportKind::UnixSocket, TransportKind::Shm] {
        for spec in [&spec, &slack] {
            let outcome = run_distributed(
                spec,
                &HostOptions {
                    workers: 2,
                    transport,
                    worker_cmd: Some(worker_bin()),
                    ..HostOptions::default()
                },
            )
            .expect("loose distributed run");
            assert_bit_identical(
                &reference,
                &outcome.stats,
                &format!("{} over {transport:?}", spec.sync.label()),
            );
        }
    }
}

/// Adaptive routing across cut links: the RC probe of a tile on a shard edge
/// reads downstream free space through the boundary channel's credit view,
/// and every shard steps on the compiled kernel. Both the thread host's
/// shards and the worker processes must reproduce the sequential
/// *interpreter*.
#[cfg(unix)]
#[test]
fn adaptive_routing_across_cut_links_is_bit_identical() {
    let spec = DistSpec {
        routing: RoutingKind::AdaptiveMinimal,
        kernel: KernelMode::Force,
        ..spec_16x16(SyntheticPattern::Transpose, 37, 1_500)
    };
    let (seq, _, _) = run_sequential(&spec);
    assert!(seq.delivered_packets > 0, "workload must deliver traffic");
    let mut interp = spec.build_network().expect("valid spec");
    interp.set_kernel_mode(KernelMode::Off);
    interp.run(1_500);
    assert_eq!(seq, interp.stats(), "sequential reference vs interpreter");

    // `run_threads` asserts the run was split into 4 shards.
    let (threaded, ..) = run_threads(&spec, 4);
    assert_bit_identical(&seq, &threaded, "adaptive, 4 thread-host shards");

    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 2,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("distributed run");
    assert_eq!(outcome.shards, 2);
    assert_bit_identical(&seq, &outcome.stats, "adaptive, 2-process unix");
}

/// Checkpointing alone (no crash) must not perturb the simulation: the
/// run's stats stay bit-identical to sequential, with zero restarts.
#[cfg(unix)]
#[test]
fn checkpointing_without_a_crash_is_free_of_side_effects() {
    let spec = DistSpec {
        width: 6,
        height: 6,
        seed: 29,
        run: RunKind::Cycles(600),
        checkpoint_every: Some(50),
        ..spec_16x16(SyntheticPattern::UniformRandom, 29, 600)
    };
    let (seq, _, _) = run_sequential(&spec);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 2,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("checkpointed run");
    assert_eq!(outcome.restarts, 0);
    assert_bit_identical(&seq, &outcome.stats, "checkpointed 2-process unix");
}

/// Distributed completion detection: 4 processes, bounded workload, credit
/// counting stops the run long before the cycle cap.
#[cfg(unix)]
#[test]
fn four_process_completion_detection_stops_early_and_delivers_everything() {
    let spec = DistSpec {
        max_packets: Some(30),
        run: RunKind::ToCompletion { max: 400_000 },
        ..spec_16x16(SyntheticPattern::Transpose, 3, 0)
    };
    let (seq, seq_cycle, seq_completed) = run_sequential(&spec);
    assert!(seq_completed);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("completion run");
    assert!(outcome.completed, "credit termination must declare");
    assert!(
        outcome.final_cycle < 400_000,
        "must stop well before the cap (stopped at {})",
        outcome.final_cycle
    );
    // 256 nodes × 30 packets each, delivered exactly once — and identical to
    // the sequential run's delivery set (CycleAccurate).
    assert_eq!(outcome.stats.delivered_packets, 256 * 30);
    assert_eq!(outcome.stats.delivered_packets, seq.delivered_packets);
    assert_eq!(outcome.stats.total_packet_latency, seq.total_packet_latency);
    // The distributed run may overshoot the sequential stop cycle by the
    // detection latency, but not wildly.
    assert!(
        outcome.final_cycle >= seq_cycle.saturating_sub(1),
        "distributed stop {} vs sequential {}",
        outcome.final_cycle,
        seq_cycle
    );
}
