//! Checkpoint/restore determinism: snapshotting a run at an arbitrary cycle,
//! restoring the snapshot into a freshly built engine and running to the end
//! must be bit-identical to never having snapshotted at all — the property
//! the fault-tolerant distributed supervisor leans on when it rolls a run
//! back to the last committed checkpoint.
//!
//! Covered here:
//! * sequential roundtrips across all three workload families (synthetic
//!   traffic, the memory-hierarchy vector sum, the CPU token ring),
//!   property-tested over seeds and snapshot cycles;
//! * snapshot stability: re-serializing a restored engine reproduces the
//!   original byte string exactly (what lets the coordinator compare and
//!   commit checkpoints by content);
//! * the mixed path: snapshot a *sequential* run mid-flight, restore, and
//!   finish the run on the sharded thread runtime (strict CycleAccurate) —
//!   still bit-identical;
//! * a saturated injection backlog: more than ten thousand packets waiting
//!   in packed records round-trip through a checkpoint;
//! * layout versions: a network snapshot or a shard checkpoint whose version
//!   word is not this build's is refused.

use hornet_dist::spec::{DistSpec, DistSync, DistWorkload, RunKind};
use hornet_net::ids::NodeId;
use hornet_net::network::NETWORK_SNAPSHOT_VERSION;
use hornet_net::stats::NetworkStats;
use hornet_shard::driver::{merge_tile_stats, NoPayloads};
use hornet_shard::snapshot::{checkpoint_cycle, SHARD_CHECKPOINT_VERSION};
use hornet_shard::{restore_shard, snapshot_shard, Partitioner, RunParams, ShardRuntime};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use proptest::prelude::*;

fn synthetic_spec(seed: u64, cycles: u64) -> DistSpec {
    DistSpec {
        width: 6,
        height: 6,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.08 },
        packet_len: 4,
        seed,
        sync: DistSync::CycleAccurate,
        run: RunKind::Cycles(cycles),
        ..DistSpec::default()
    }
}

/// Runs `spec` uninterrupted, and again with a snapshot/restore cut at
/// `cut` cycles; asserts the two final `NetworkStats` are identical and
/// returns them. `total` must match the spec's cycle budget.
fn roundtrip(spec: &DistSpec, total: u64, cut: u64) -> NetworkStats {
    let mut whole = spec.build_network().expect("valid spec");
    whole.run(total);

    let mut first = spec.build_network().expect("valid spec");
    first.run(cut);
    let snap = first.snapshot();

    let mut resumed = spec.build_network().expect("valid spec");
    resumed.restore(&snap).expect("snapshot restores");
    assert_eq!(
        resumed.cycle(),
        cut,
        "restore resumes at the snapshot cycle"
    );
    // Stability: a restored engine re-serializes to the identical bytes.
    assert_eq!(
        resumed.snapshot(),
        snap,
        "snapshot of a restored engine must reproduce the original bytes"
    );
    resumed.run(total - cut);

    assert_eq!(whole.cycle(), resumed.cycle(), "final cycle");
    assert_eq!(
        whole.stats(),
        resumed.stats(),
        "stats after restore+resume must be bit-identical to uninterrupted"
    );
    whole.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Synthetic traffic: snapshot at a random cycle, restore, run on —
    /// bit-identical across seeds and cut points.
    #[test]
    fn synthetic_roundtrip_is_bit_identical(seed in 1u64..500, cut in 1u64..799) {
        let total = 800;
        let stats = roundtrip(&synthetic_spec(seed, total), total, cut);
        prop_assert!(stats.injected_flits > 0, "workload must offer traffic");
    }
}

/// An 8×8 XY transpose at 0.05 packets per tile per cycle with 8-flit
/// packets is past saturation: its tiles' backlogs grow by about 1.2
/// packets a cycle, to more than ten thousand after 10 000 cycles. A source's
/// packets follow one another (next id, same flow, destination and length),
/// so they wait as packed records of at most 2 bytes each on average, and
/// the saturated network checkpoints, restores and runs on exactly as the
/// snapshotted one does.
#[test]
fn a_saturated_backlog_is_packed_and_round_trips() {
    let spec = DistSpec {
        width: 8,
        height: 8,
        packet_len: 8,
        pattern: SyntheticPattern::Transpose,
        process: InjectionProcess::Bernoulli { rate: 0.05 },
        run: RunKind::Cycles(11_000),
        ..DistSpec::default()
    };
    let mut network = spec.build_network().expect("valid spec");
    network.run(10_000);
    let mut queued = 0;
    for i in 0..network.node_count() {
        let bridge = network.node(NodeId::new(i as u32)).bridge();
        assert!(
            bridge.backlog_bytes() <= 2 * bridge.queued_packets(),
            "tile {i}: {} bytes for {} packets",
            bridge.backlog_bytes(),
            bridge.queued_packets()
        );
        queued += bridge.queued_packets();
    }
    assert!(queued > 10_000, "only {queued} packets queued");

    let snap = network.snapshot();
    let mut resumed = spec.build_network().expect("valid spec");
    resumed.restore(&snap).expect("snapshot restores");
    assert_eq!(resumed.snapshot(), snap, "restored backlog re-serializes");
    network.run(1_000);
    resumed.run(1_000);
    assert_eq!(network.stats(), resumed.stats());
    assert_eq!(network.snapshot(), resumed.snapshot());
}

/// Memory hierarchy (caches, directories, in-flight coherence transactions):
/// cut the vector-sum workload mid-run at several points, including very
/// early (cold caches) and late (drained network).
#[test]
fn mem_vector_sum_roundtrip_is_bit_identical() {
    let spec = DistSpec {
        width: 4,
        height: 4,
        seed: 7,
        workload: DistWorkload::MemVectorSum {
            base_stride: 0x1_0000,
            count: 6,
        },
        run: RunKind::Cycles(4_000),
        ..synthetic_spec(7, 4_000)
    };
    for cut in [1, 37, 500, 2_000, 3_999] {
        let stats = roundtrip(&spec, 4_000, cut);
        assert!(stats.delivered_packets > 0, "vsum must exchange messages");
    }
}

/// CPU cores (register file, PC, user mailboxes): the token ring passes a
/// word through every core; a cut must not drop or duplicate the token.
#[test]
fn cpu_token_ring_roundtrip_is_bit_identical() {
    let spec = DistSpec {
        width: 4,
        height: 4,
        seed: 11,
        workload: DistWorkload::CpuTokenRing,
        run: RunKind::Cycles(6_000),
        ..synthetic_spec(11, 6_000)
    };
    for cut in [25, 1_000, 3_333] {
        roundtrip(&spec, 6_000, cut);
    }
}

/// To-completion semantics survive a cut: resuming a restored engine with
/// `run_to_completion` finishes at the same cycle with the same stats.
#[test]
fn to_completion_roundtrip_matches_cycle_and_stats() {
    let spec = DistSpec {
        width: 4,
        height: 4,
        seed: 3,
        max_packets: Some(20),
        run: RunKind::ToCompletion { max: 200_000 },
        ..synthetic_spec(3, 0)
    };
    let mut whole = spec.build_network().unwrap();
    let whole_done = whole.run_to_completion(200_000);

    let mut first = spec.build_network().unwrap();
    first.run(100);
    let snap = first.snapshot();
    let mut resumed = spec.build_network().unwrap();
    resumed.restore(&snap).unwrap();
    let resumed_done = resumed.run_to_completion(200_000);

    assert_eq!(whole_done, resumed_done, "completion verdict");
    assert_eq!(whole.cycle(), resumed.cycle(), "completion cycle");
    assert_eq!(whole.stats(), resumed.stats(), "completion stats");
}

/// The cross-backend roundtrip the supervisor actually performs: state
/// captured on one engine resumes on another. Snapshot a sequential run at
/// cycle C, restore, then *finish the run on the sharded thread runtime*
/// (strict CycleAccurate, 3 shards) — stats must equal the uninterrupted
/// sequential run bit-for-bit.
#[test]
fn sharded_resume_from_sequential_snapshot_is_bit_identical() {
    for (seed, cut) in [(21u64, 150u64), (22, 613), (23, 1)] {
        let total = 1_000;
        let spec = synthetic_spec(seed, total);
        let mut whole = spec.build_network().unwrap();
        whole.run(total);

        let mut first = spec.build_network().unwrap();
        first.run(cut);
        let snap = first.snapshot();

        let mut resumed = spec.build_network().unwrap();
        resumed.restore(&snap).unwrap();
        let (nodes, _payloads) = resumed.into_nodes();
        let partition = Partitioner::new(3).mesh(spec.width as usize, spec.height as usize);
        let mut runtime = ShardRuntime::new(partition.shard_count());
        let outcome = runtime.run(
            nodes,
            &partition,
            RunParams {
                start: cut,
                cycles: total - cut,
                sync: DistSync::CycleAccurate,
                fast_forward: false,
                detect_completion: false,
                profile: false,
                telemetry_every: None,
                trace_runtime: 0,
                live: None,
                kernel: hornet_net::kernel::KernelMode::Auto,
            },
        );
        assert_eq!(outcome.final_cycle, total, "seed {seed} cut {cut}: cycle");
        assert_eq!(
            merge_tile_stats(&outcome.nodes),
            whole.stats(),
            "seed {seed} cut {cut}: sharded resume must match sequential"
        );
    }
}

/// Both checkpoint layouts open with a version word. A snapshot written in
/// another layout is refused before a byte of state is read; the same bytes
/// with this build's version restore.
#[test]
fn a_checkpoint_of_another_layout_version_is_refused() {
    let spec = DistSpec {
        width: 4,
        height: 4,
        workload: DistWorkload::MemVectorSum {
            base_stride: 0x1_0000,
            count: 8,
        },
        run: RunKind::Cycles(400),
        ..DistSpec::default()
    };
    let with_version = |bytes: &[u8], version: u32| {
        let mut bytes = bytes.to_vec();
        bytes[..4].copy_from_slice(&version.to_le_bytes());
        bytes
    };
    let mut net = spec.build_network().unwrap();
    net.run(100);
    let snap = net.snapshot();
    assert_eq!(snap[..4], NETWORK_SNAPSHOT_VERSION.to_le_bytes());
    for version in [0, NETWORK_SNAPSHOT_VERSION + 1, u32::MAX] {
        let err = spec
            .build_network()
            .unwrap()
            .restore(&with_version(&snap, version))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("layout version"), "{err}");
    }

    let (tiles, _) = net.into_nodes();
    let shard = snapshot_shard(100, 7, &tiles, &[], &[], &NoPayloads);
    assert_eq!(shard[..4], SHARD_CHECKPOINT_VERSION.to_le_bytes());
    assert_eq!(checkpoint_cycle(&shard).unwrap(), 100);
    let fresh = || spec.build_network().unwrap().into_nodes().0;
    let restored = restore_shard(&shard, &mut fresh(), &[], &mut [], &NoPayloads).unwrap();
    assert_eq!(restored, (100, 7));
    for version in [SHARD_CHECKPOINT_VERSION - 1, SHARD_CHECKPOINT_VERSION + 1] {
        let bytes = with_version(&shard, version);
        for err in [
            checkpoint_cycle(&bytes).unwrap_err(),
            restore_shard(&bytes, &mut fresh(), &[], &mut [], &NoPayloads).unwrap_err(),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("version mismatch"), "{err}");
        }
    }
}
