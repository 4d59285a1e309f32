//! Fault tolerance of the distributed backend: a run that loses a worker to
//! SIGKILL mid-flight must recover from the last committed checkpoint set
//! and finish with `NetworkStats` bit-identical to an uninterrupted run —
//! and, when recovery is disallowed, abort cleanly with a diagnosable error
//! and no leaked worker processes.
//!
//! Crash injection uses the `HORNET_DIST_CRASH_TOKEN` environment variable:
//! the path of a file containing `"<shard> <cycle>"`. The named shard kills
//! itself (SIGKILL, no unwinding, no Drop) at its first checkpoint at or
//! after that cycle — *before* shipping it, so the coordinator can only
//! roll back to an earlier committed cycle. Claiming the token deletes the
//! file, which is what makes the respawned worker run through cleanly.

#![cfg(unix)]

mod common;

use common::{assert_bit_identical, run_sequential, worker_bin};
use hornet_dist::spec::{DistSpec, DistSync, RunKind};
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::time::Duration;

/// Counts live processes whose command line carries `needle` — used to
/// prove the coordinator leaks no workers (each run's workers are tagged by
/// its unique `--nonce`).
fn live_processes_mentioning(needle: &str) -> usize {
    let mut hits = 0;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path().join("cmdline");
        if let Ok(cmdline) = std::fs::read(&path) {
            let text = String::from_utf8_lossy(&cmdline).replace('\0', " ");
            if text.contains(needle) {
                hits += 1;
            }
        }
    }
    hits
}

/// The acceptance test. One `#[test]` on purpose: both halves set the
/// process-wide crash-token environment variable, so they must not run on
/// concurrent test threads.
#[test]
fn sigkill_recovery_is_bit_identical_and_unrecoverable_loss_aborts_cleanly() {
    let scratch = std::env::temp_dir().join(format!("hornet-crash-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("crash-token scratch dir");
    let token = scratch.join("token");
    std::env::set_var("HORNET_DIST_CRASH_TOKEN", &token);

    let spec = DistSpec {
        width: 8,
        height: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.06 },
        packet_len: 4,
        seed: 13,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(800),
        checkpoint_every: Some(100),
        ..DistSpec::default()
    };
    let (seq, _, _) = run_sequential(&spec);
    assert!(seq.delivered_packets > 0, "workload must deliver traffic");

    // Both halves over both pipes of the one cross-process data plane: a
    // killed worker closes its sockets but leaves a shared-memory ring
    // silent, so loss detection must not lean on the data plane.
    for (run, transport) in [(0u64, TransportKind::UnixSocket), (1, TransportKind::Shm)] {
        // --- Half 1: lose worker 2 at its cycle-300 checkpoint; recover. ---
        std::fs::write(&token, "2 300").expect("write crash token");
        let nonce = 0xFA17_0000 + (run << 16) + u64::from(std::process::id());
        let outcome = run_distributed(
            &spec,
            &HostOptions {
                workers: 4,
                transport,
                worker_cmd: Some(worker_bin()),
                nonce: Some(nonce),
                // Plenty of headroom for slow CI machines: liveness must come
                // from death detection here, not timeout tuning.
                heartbeat_timeout: Duration::from_secs(60),
                ..HostOptions::default()
            },
        )
        .expect("run must survive the SIGKILL and recover");
        assert!(
            outcome.restarts >= 1,
            "the injected crash must have forced at least one restart"
        );
        assert!(
            !token.exists(),
            "the dying worker must have claimed the crash token"
        );
        assert_eq!(outcome.final_cycle, 800);
        assert_bit_identical(
            &seq,
            &outcome.stats,
            &format!("post-recovery 4-process {transport:?}"),
        );
        assert_eq!(
            live_processes_mentioning(&nonce.to_string()),
            0,
            "recovered run must leave no worker processes behind"
        );

        // --- Half 2: same crash, but recovery disallowed — clean abort. ---
        std::fs::write(&token, "1 200").expect("write crash token");
        let nonce2 = 0xFA17_1000 + (run << 16) + u64::from(std::process::id());
        let err = run_distributed(
            &spec,
            &HostOptions {
                workers: 4,
                transport,
                worker_cmd: Some(worker_bin()),
                nonce: Some(nonce2),
                heartbeat_timeout: Duration::from_secs(60),
                max_restarts: 0,
                ..HostOptions::default()
            },
        )
        .expect_err("with max_restarts=0 the lost worker must abort the run");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::ConnectionAborted,
            "worker loss surfaces as a recoverable-loss error: {err}"
        );
        assert!(
            err.to_string().contains("shard"),
            "the error must name the lost shard: {err}"
        );
        assert_eq!(
            live_processes_mentioning(&nonce2.to_string()),
            0,
            "aborted run must leave no worker processes behind"
        );
    }

    std::env::remove_var("HORNET_DIST_CRASH_TOKEN");
    let _ = std::fs::remove_dir_all(&scratch);
}
