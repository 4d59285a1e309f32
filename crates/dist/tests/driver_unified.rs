//! Tests of the unified cycle driver and payload-over-wire transport.
//!
//! PR 4's two claims, asserted end to end:
//!
//! * there is exactly **one** implementation of the per-cycle shard protocol
//!   ([`hornet_shard::driver::CycleDriver`]): the *same* driver runs under
//!   the thread host (the product engine's `ShardRuntime`, shards on
//!   threads over shared SPSC rings) and the process host
//!   (`run_distributed`, cycle frames over sockets or shared memory) and
//!   reports identical `NetworkStats`;
//! * packet **payloads** are first-class boundary traffic: a
//!   memory-hierarchy workload (MIPS-like cores over MSI coherence, whose
//!   protocol messages ride in packet payloads) runs under 4 socket-transport
//!   processes bit-identically to sequential simulation — packet count,
//!   latency totals and the log₂ latency histogram — and the same over a
//!   shared-memory segment.

mod common;

use common::{assert_bit_identical, run_sequential, run_threads, worker_bin};
use hornet_dist::spec::{DistSpec, DistSync, DistWorkload, RunKind};
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};

/// A memory workload: one MIPS-like core per tile storing and re-loading a
/// vector whose cache lines are interleaved across all tiles, so every miss
/// crosses the network with an MSI protocol payload.
fn mem_spec(sync: DistSync) -> DistSpec {
    DistSpec {
        width: 4,
        height: 4,
        workload: DistWorkload::MemVectorSum {
            base_stride: 0x1_0000,
            count: 4,
        },
        seed: 7,
        sync,
        run: RunKind::ToCompletion { max: 400_000 },
        ..DistSpec::default()
    }
}

/// The same `CycleDriver` under the thread host and the process host (Unix
/// sockets): identical `NetworkStats`, both equal to the sequential
/// reference.
#[cfg(unix)]
#[test]
fn same_cycle_driver_under_thread_and_process_hooks_is_identical() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        packet_len: 4,
        seed: 31,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(1_200),
        ..DistSpec::default()
    };
    let (seq, _, _) = run_sequential(&spec);
    assert!(seq.delivered_packets > 0);

    let (threaded, ..) = run_threads(&spec, 4);
    assert_bit_identical(&seq, &threaded, "driver under thread hooks");

    let process = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("process-backend hooks");
    assert_bit_identical(&seq, &process.stats, "driver under process hooks");

    // Thread hooks and process hooks agree with each other, field by field.
    assert_eq!(threaded, process.stats, "hooks must not diverge");
}

/// The payload round-trip acceptance test: a `crates/mem`-driven workload on
/// 4 socket-transport processes is bit-identical (packet count + latency
/// histogram) to sequential — payloads cross the wire with their tail flits.
#[cfg(unix)]
#[test]
fn memory_workload_over_four_socket_processes_is_bit_identical() {
    let spec = mem_spec(DistSync::CycleAccurate);
    let (seq, seq_cycle, seq_completed) = run_sequential(&spec);
    assert!(seq_completed, "reference must complete");
    assert!(
        seq.delivered_packets > 0,
        "misses must cross the network ({} packets)",
        seq.delivered_packets
    );

    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("4-process memory workload");
    assert!(outcome.completed, "cores must halt and drain");
    assert_bit_identical(&seq, &outcome.stats, "mem workload, 4-process unix");
    assert!(
        outcome.final_cycle >= seq_cycle.saturating_sub(1),
        "distributed stop {} vs sequential {}",
        outcome.final_cycle,
        seq_cycle
    );
}

/// The same memory workload over a shared-memory segment: payload records
/// travel the segment's byte rings.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn memory_workload_over_shm_is_bit_identical() {
    let spec = mem_spec(DistSync::CycleAccurate);
    let (seq, _, seq_completed) = run_sequential(&spec);
    assert!(seq_completed);

    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::Shm,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("4-process shm memory workload");
    assert!(outcome.completed);
    assert_bit_identical(&seq, &outcome.stats, "mem workload, 4-process shm");
}

/// A CPU workload (user-level MPI-style payloads) on the thread host's
/// drivers: the token makes it around the ring, which is only possible if
/// payloads reach the right cores.
#[test]
fn cpu_token_ring_completes_under_threaded_driver() {
    let spec = DistSpec {
        width: 4,
        height: 4,
        workload: DistWorkload::CpuTokenRing,
        seed: 3,
        sync: DistSync::CycleAccurate,
        run: RunKind::ToCompletion { max: 400_000 },
        ..DistSpec::default()
    };
    let (seq, _, seq_completed) = run_sequential(&spec);
    assert!(seq_completed);
    // One user packet per hop around the ring.
    assert_eq!(seq.delivered_packets, 16);

    let (stats, _, completed, ..) = run_threads(&spec, 4);
    assert!(completed, "token must circulate to completion");
    assert_bit_identical(&seq, &stats, "token ring, thread hooks");
}

/// How a worker's frame transport treats one sync window of `spec`, which
/// must be `window` cycles long: the driver pumps every cycle but flushes
/// only the last, and the peer sees nothing until that flush, then all of
/// the window at once.
#[cfg(unix)]
fn assert_window_is_written_at_its_end(spec: &DistSpec, window: u64) {
    use hornet_dist::transport::Stream;
    use hornet_dist::{BoundaryTransport, FrameTransport};
    use hornet_net::boundary::BoundaryLink;
    use hornet_shard::driver::NoPayloads;
    use hornet_shard::wiring::NeighborWiring;
    use std::sync::Arc;

    assert_eq!(spec.sync.window(), window);
    let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
    let (ab, ba) = (vec![BoundaryLink::new(4)], vec![BoundaryLink::new(4)]);
    let side = |peer, out_links, in_links, s| {
        let wiring = NeighborWiring {
            peer,
            out_links,
            in_links,
        };
        FrameTransport::new(Stream::Unix(s), &wiring, 0, Arc::new(NoPayloads)).unwrap()
    };
    let mut ta = side(1, ab.clone(), ba.clone(), a);
    let mut tb = side(0, ba, ab, b);
    for cycle in 1..=window {
        tb.ingest();
        assert_eq!(tb.peer_progress(), 0, "cycle {cycle}: nothing written yet");
        ta.pump(cycle, cycle == window).unwrap();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !tb.reached(window) {
        assert!(std::time::Instant::now() < deadline, "flush never landed");
        std::thread::yield_now();
    }
    // Both ends close at once, so neither waits out the other's silence.
    std::thread::scope(|s| {
        s.spawn(|| drop(ta));
        drop(tb);
    });
}

/// Regression test: Periodic(n) + fast-forward over batched sockets. Skip
/// directives land the clocks mid-window; the last cycle of every window
/// must still reach the wire, or the neighbors' next gates outrun the
/// flushed progress and every shard waits forever on buffered frames.
#[cfg(unix)]
#[test]
fn periodic_fast_forward_over_batched_sockets_completes() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Periodic {
            period: 301,
            offset: 7,
        },
        packet_len: 4,
        max_packets: Some(5),
        seed: 19,
        sync: DistSync::Periodic(3),
        run: RunKind::ToCompletion { max: 100_000 },
        fast_forward: true,
        ..DistSpec::default()
    };
    assert_window_is_written_at_its_end(&spec, 3);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("periodic fast-forward run");
    assert!(outcome.completed, "run must complete, not wedge");
    assert_eq!(outcome.stats.delivered_packets, 64 * 5);
    assert!(
        outcome.stats.fast_forwarded_cycles > 0,
        "idle gaps must actually be skipped"
    );
    // Where a skip lands (a matter of detector timing) does not move the
    // windows, so the run is the thread host's run.
    let (threads, _, completed, ..) = run_threads(&spec, 4);
    assert!(completed);
    assert_bit_identical(&threads, &outcome.stats, "periodic 3 + ff, unix vs threads");
}

/// A sync mode the CLI cannot parse is a usage error (exit 2), never a
/// silent fallback to some other mode.
#[test]
fn cli_rejects_unparsable_sync_modes() {
    for sync in ["slack:abc", "periodic:abc", "slack:", "periodic:-1"] {
        let out = std::process::Command::new(worker_bin())
            .args(["host", "--workers", "2", "--mesh", "4x4", "--cycles", "10"])
            .args(["--sync", sync])
            .output()
            .expect("run hornet-dist");
        assert_eq!(out.status.code(), Some(2), "--sync {sync}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "--sync {sync}: {stderr}");
    }
}

/// Host-list mode: pre-started workers connect to the coordinator's TCP
/// control plane, advertise their data-plane addresses, and the run is
/// bit-identical to sequential — the cross-machine path, on loopback.
#[test]
fn host_list_mode_with_prestarted_workers_is_bit_identical() {
    use std::net::TcpListener;
    use std::process::{Command, Stdio};

    // Reserve three loopback ports (control + two data planes), then free
    // them for the actual sockets. The window is tiny and the test retries
    // nothing — a collision would only surface as a bind error.
    let ports: Vec<u16> = (0..3)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .port()
        })
        .collect();
    let ctrl = format!("127.0.0.1:{}", ports[0]);
    let hosts: Vec<String> = ports[1..]
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();

    let spec = DistSpec {
        width: 4,
        height: 4,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        packet_len: 4,
        seed: 17,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(600),
        ..DistSpec::default()
    };
    let (seq, _, _) = run_sequential(&spec);

    // Start the two "remote" workers; they retry the control connection
    // until the coordinator is listening (spawned first, so give them the
    // address up front — connect() failing fast means they must be launched
    // after the listener, which run_distributed sets up before accepting).
    let host_thread = {
        let spec = spec.clone();
        let hosts = hosts.clone();
        let ctrl = ctrl.clone();
        std::thread::spawn(move || {
            run_distributed(
                &spec,
                &HostOptions {
                    transport: TransportKind::Tcp,
                    worker_hosts: Some(hosts),
                    ctrl_listen: Some(ctrl),
                    // Pre-started workers must present the same join nonce
                    // the coordinator expects (satellite: stray-worker guard).
                    nonce: Some(777),
                    ..HostOptions::default()
                },
            )
        })
    };
    // Give the coordinator a moment to bind, then launch the workers.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let children: Vec<_> = hosts
        .iter()
        .map(|advertise| {
            Command::new(worker_bin())
                .args([
                    "worker",
                    "--connect",
                    &ctrl,
                    "--family",
                    "tcp",
                    "--advertise",
                    advertise,
                    "--nonce",
                    "777",
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn host-list worker")
        })
        .collect();

    let outcome = host_thread
        .join()
        .expect("host thread")
        .expect("host-list run");
    for mut child in children {
        let _ = child.wait();
    }
    assert_eq!(outcome.shards, 2);
    assert_bit_identical(&seq, &outcome.stats, "host-list tcp loopback");
}

/// Socket-transport batching: a Slack(4) run is a 5-cycle window and
/// writes its 5 cycles in one socket flush; functional totals stay exact
/// (every offered packet is delivered exactly once), and the run is the
/// same simulation as `Periodic(5)` on the thread host.
#[cfg(unix)]
#[test]
fn slack_run_with_batched_socket_flushes_delivers_everything() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        packet_len: 4,
        max_packets: Some(30),
        seed: 13,
        sync: DistSync::Slack(4),
        run: RunKind::ToCompletion { max: 200_000 },
        ..DistSpec::default()
    };
    assert_window_is_written_at_its_end(&spec, 5);
    let outcome = run_distributed(
        &spec,
        &HostOptions {
            workers: 4,
            transport: TransportKind::UnixSocket,
            worker_cmd: Some(worker_bin()),
            ..HostOptions::default()
        },
    )
    .expect("batched slack run");
    assert!(outcome.completed, "slack run must complete");
    assert_eq!(outcome.stats.delivered_packets, 64 * 30);
    assert_eq!(outcome.stats.routing_failures, 0);
    let periodic = DistSpec {
        sync: DistSync::Periodic(5),
        ..spec
    };
    let (threads, _, completed, ..) = run_threads(&periodic, 4);
    assert!(completed);
    assert_bit_identical(
        &threads,
        &outcome.stats,
        "slack 4 unix vs periodic 5 threads",
    );
}
