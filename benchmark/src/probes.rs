//! Probes of single layers that no workload isolates: the two ring buffers,
//! checkpoint encode/restore, the partitioner, and worker spawn/teardown.
//! Each is a fixed piece of work, the same whichever workload is traced.

use crate::workloads::{Workload, WARMUP};
use hornet_net::flit::{Flit, FlitKind, FlitStats};
use hornet_net::ids::{FlowId, NodeId, PacketId};
use hornet_net::spsc::Spsc;
use hornet_net::vcbuf::VcBuffer;
use hornet_shard::Partitioner;
use std::hint::black_box;
use std::time::Instant;

/// Push/pop pairs per ring probe: 10 M operations.
pub const RING_PAIRS: u64 = 5_000_000;

fn ns_per(iterations: u64, work: impl FnOnce()) -> f64 {
    let started = Instant::now();
    work();
    started.elapsed().as_nanos() as f64 / iterations as f64
}

/// Host ns per push + absorb + pop of one flit through a 4-flit `VcBuffer`,
/// on one thread.
pub fn vcbuf_push_pop_ns(pairs: u64) -> f64 {
    let buffer = VcBuffer::new(4);
    let flit = Flit {
        packet: PacketId::new(1),
        flow: FlowId::new(0),
        original_flow: FlowId::new(0),
        kind: FlitKind::Body,
        seq: 1,
        packet_len: 8,
        dst: NodeId::new(1),
        src: NodeId::new(0),
        visible_at: 0,
        stats: FlitStats::default(),
    };
    ns_per(pairs, || {
        for now in 0..pairs {
            assert!(buffer.push(black_box(flit)));
            buffer.absorb_tail();
            black_box(buffer.pop_if(now, |_| true));
        }
    })
}

/// Host ns per push + pop of one word through an `Spsc` ring, on one thread.
pub fn spsc_push_pop_ns(pairs: u64) -> f64 {
    let ring = Spsc::<u64>::new(64);
    ns_per(pairs, || {
        for i in 0..pairs {
            assert!(ring.push(black_box(i)));
            black_box(ring.pop());
        }
    })
}

/// `(encode_us, restore_us, bytes)` of `Network::snapshot` / `restore` on
/// `w`'s network after the warm-up cycles.
pub fn snapshot_round_trip(w: &Workload, seed: u64) -> Result<(f64, f64, f64), String> {
    let spec = hornet_dist::DistSpec {
        seed,
        ..w.spec.clone()
    };
    let mut warmed = spec.build_network().map_err(|e| e.to_string())?;
    warmed.run(WARMUP);
    let started = Instant::now();
    let bytes = warmed.snapshot();
    let encode = started.elapsed();
    let mut fresh = spec.build_network().map_err(|e| e.to_string())?;
    let started = Instant::now();
    fresh.restore(&bytes).map_err(|e| e.to_string())?;
    let restore = started.elapsed();
    if fresh.snapshot() != bytes {
        return Err("a restored network does not snapshot to the same bytes".into());
    }
    Ok((
        encode.as_secs_f64() * 1e6,
        restore.as_secs_f64() * 1e6,
        bytes.len() as f64,
    ))
}

/// Host µs to partition a `side`×`side` mesh into `shards` blocks.
pub fn partition_us(side: usize, shards: usize) -> f64 {
    const ROUNDS: u64 = 1_000;
    ns_per(ROUNDS, || {
        for _ in 0..ROUNDS {
            black_box(Partitioner::new(shards).mesh(black_box(side), side));
        }
    }) / 1e3
}
