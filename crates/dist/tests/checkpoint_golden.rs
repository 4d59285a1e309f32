//! Pins the exact bytes `Network::snapshot` writes for two mid-run states in
//! which the bridges hold work that has not entered the network yet:
//!
//! * 8×8 transpose at 0.05 after 2 000 cycles — past saturation, so every
//!   bridge has a backlog of packets waiting for an injection VC and most
//!   injection slots hold a packet whose flits have only partly gone in;
//! * 4×4 vector sum over MSI coherence at cycle 100 — memory-protocol
//!   packets carrying payload words wait in the backlog.
//!
//! The checkpoint format is a contract between the simulator and the files
//! (and worker processes) that hold its bytes: a change to how a bridge
//! stores its queues in memory must expand back into the same byte string.
//! Each case also restores the snapshot into a fresh network, runs on and
//! checks the result equals the uninterrupted run.

use hornet_dist::spec::{DistSpec, DistWorkload, RunKind};
use hornet_net::network::Network;

/// 64-bit FNV-1a over the snapshot bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `spec` to `cut`, pins the snapshot's length and digest, then checks
/// that restore → run `rest` cycles reproduces the uninterrupted run.
fn pin(spec: &DistSpec, cut: u64, rest: u64, len: usize, fnv: u64) -> Network {
    let mut first = spec.build_network().expect("valid spec");
    first.run(cut);
    let snap = first.snapshot();
    assert_eq!(
        (snap.len(), digest(&snap)),
        (len, fnv),
        "snapshot bytes at cycle {cut} changed: (len, digest) = ({}, {:#018x})",
        snap.len(),
        digest(&snap)
    );

    let mut resumed = spec.build_network().expect("valid spec");
    resumed.restore(&snap).expect("snapshot restores");
    assert_eq!(resumed.snapshot(), snap, "restore → snapshot is stable");
    resumed.run(rest);

    let mut whole = spec.build_network().expect("valid spec");
    whole.run(cut + rest);
    assert_eq!(whole.cycle(), resumed.cycle(), "final cycle");
    assert_eq!(whole.stats(), resumed.stats(), "stats after restore");
    first
}

#[test]
fn saturated_transpose_snapshot_bytes_are_pinned() {
    let spec = DistSpec {
        run: RunKind::Cycles(3_000),
        ..DistSpec::default()
    };
    let net = pin(&spec, 2_000, 1_000, 243_051, 0x57b5_b54a_bae6_212e);
    // The state the digest covers: packets offered but not yet injected, and
    // injected packets whose flits have not all entered the router.
    let s = net.stats();
    assert!(
        s.offered_packets > s.injected_packets,
        "bridges hold a backlog"
    );
    assert!(
        s.injected_flits < s.injected_packets * u64::from(spec.packet_len),
        "some injection slots are partly pushed"
    );
}

#[test]
fn vector_sum_snapshot_with_payload_backlog_is_pinned() {
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
    let net = pin(&spec, 100, 300, 27_627, 0x67aa_27b0_b67e_9779);
    let s = net.stats();
    assert!(
        s.offered_packets > s.injected_packets,
        "bridges hold a backlog"
    );
}
