//! End-to-end integration test of the full stack: MIPS-like cores, MSI
//! coherence over the cycle-level network, and the MPI-style syscalls.

use hornet::cpu::agent::{CoreAgent, CoreConfig};
use hornet::cpu::programs::{token_ring_program, vector_sum_program};
use hornet::mem::cache::CacheConfig;
use hornet::mem::directory::DirState;
use hornet::mem::hierarchy::{CoherenceMode, MemoryConfig, MemoryNode};
use hornet::net::agent::{NodeAgent, NodeIo};
use hornet::net::codec::{Dec, Enc};
use hornet::net::config::NetworkConfig;
use hornet::net::geometry::Geometry;
use hornet::net::ids::{Cycle, NodeId};
use hornet::net::network::Network;
use hornet::net::rng::TileRng;
use hornet::net::routing::FlowSpec;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

fn mesh_network(side: usize, seed: u64) -> Network {
    let g = Geometry::mesh2d(side, side);
    let cfg = NetworkConfig::new(g.clone()).with_flows(FlowSpec::all_to_all(&g));
    Network::new(&cfg, seed).expect("valid configuration")
}

#[test]
fn vector_sums_are_correct_when_data_is_homed_remotely() {
    // Four cores each store and then re-load a 12-element vector whose lines
    // are interleaved across all four tiles; the sums must be exact even
    // though every access crosses the network through the MSI protocol.
    let mut net = mesh_network(2, 3);
    let count = 12u64;
    for i in 0..4u32 {
        let base = 0x1_0000 * (i as u64 + 1);
        net.attach_agent(
            NodeId::new(i),
            Box::new(CoreAgent::new(
                NodeId::new(i),
                4,
                vector_sum_program(base, count),
                CoreConfig::default(),
            )),
        );
    }
    assert!(net.run_to_completion(2_000_000), "cores must finish");
    let stats = net.stats();
    assert!(stats.delivered_packets > 0, "misses must cross the network");
    assert_eq!(stats.routing_failures, 0);
}

#[test]
fn token_ring_produces_the_expected_count_over_msi_and_user_traffic() {
    let nodes = 9usize;
    let mut net = mesh_network(3, 11);
    for i in 0..nodes {
        net.attach_agent(
            NodeId::from(i),
            Box::new(CoreAgent::new(
                NodeId::from(i),
                nodes,
                token_ring_program(i, nodes),
                CoreConfig::default(),
            )),
        );
    }
    assert!(net.run_to_completion(2_000_000));
    let stats = net.stats();
    // One user packet per hop around the ring.
    assert_eq!(stats.delivered_packets, nodes as u64);
}

#[test]
fn nuca_mode_also_completes_remote_accesses() {
    let mut net = mesh_network(2, 19);
    let config = CoreConfig {
        memory: MemoryConfig {
            mode: CoherenceMode::Nuca,
            ..MemoryConfig::default()
        },
        ..CoreConfig::default()
    };
    for i in 0..4u32 {
        let base = 0x2_0000 * (i as u64 + 1);
        net.attach_agent(
            NodeId::new(i),
            Box::new(CoreAgent::new(
                NodeId::new(i),
                4,
                vector_sum_program(base, 6),
                config.clone(),
            )),
        );
    }
    assert!(net.run_to_completion(2_000_000));
    assert!(net.stats().delivered_packets > 0);
}

/// A core agent the test keeps a handle on, to inspect its memory system
/// after (or during) a run.
struct Held(Arc<Mutex<CoreAgent>>);

impl NodeAgent for Held {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng) {
        self.0.lock().unwrap().tick(io, rng);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.0.lock().unwrap().next_event(now)
    }

    fn finished(&self) -> bool {
        self.0.lock().unwrap().finished()
    }
}

/// A `side`×`side` vector sum, `words` per core, on `memory`; returns the
/// network and a handle on every core.
fn held_vector_sum(
    side: usize,
    words: u64,
    memory: MemoryConfig,
) -> (Network, Vec<Arc<Mutex<CoreAgent>>>) {
    let mut net = mesh_network(side, 5);
    let nodes = side * side;
    let cores: Vec<_> = (0..nodes)
        .map(|i| {
            Arc::new(Mutex::new(CoreAgent::new(
                NodeId::from(i),
                nodes,
                vector_sum_program(0x1_0000 * (i as u64 + 1), words),
                CoreConfig {
                    memory: memory.clone(),
                    ..CoreConfig::default()
                },
            )))
        })
        .collect();
    for (i, core) in cores.iter().enumerate() {
        net.attach_agent(NodeId::from(i), Box::new(Held(Arc::clone(core))));
    }
    (net, cores)
}

#[test]
fn directory_lines_stay_compact_after_an_8x8_vector_sum() {
    // Each core's vector is twice its L1, as in the benchmark's vsum8_seq
    // (there 4 096 words against 16 KiB): the stores evict and write back,
    // and every line ends shared by the core that re-read it.
    let l1 = CacheConfig {
        sets: 8,
        ways: 4,
        line_bytes: 64,
    };
    let words = 2 * (l1.capacity_bytes() / 8) as u64;
    let memory = MemoryConfig {
        l1,
        ..MemoryConfig::default()
    };
    let (mut net, cores) = held_vector_sum(8, words, memory);
    assert!(net.run_to_completion(2_000_000), "cores must finish");
    let cores: Vec<_> = cores.iter().map(|c| c.lock().unwrap()).collect();
    for (i, core) in cores.iter().enumerate() {
        assert!(core.memory().l1_stats().writebacks > 0, "core {i} evicts");
        let first = 0x1_0000 * (i as u64 + 1) / 64;
        for line in first..first + words / 8 {
            let home = core.memory().home_of(line).index();
            assert_eq!(
                cores[home].memory().directory().state_of(line),
                DirState::Shared(BTreeSet::from([NodeId::from(i)])),
                "line {line:#x}"
            );
        }
    }
    let lines: usize = cores.iter().map(|c| c.memory().directory().len()).sum();
    let bytes: usize = cores
        .iter()
        .map(|c| c.memory().directory().heap_bytes())
        .sum();
    assert_eq!(
        lines as u64,
        64 * words / 8,
        "one directory line per cache line"
    );
    let per_line = bytes as f64 / lines as f64;
    assert!(per_line <= 96.0, "{per_line:.1} directory bytes per line");
}

#[test]
fn a_corrupt_memory_record_is_refused_without_a_panic() {
    // A 2×2 vector sum twice the size of a small L1, cut mid-run while core
    // 0 waits on a miss: its record holds cached lines, shared and modified
    // directory lines, and delayed protocol messages.
    let l1 = CacheConfig {
        sets: 8,
        ways: 4,
        line_bytes: 64,
    };
    let memory = MemoryConfig {
        l1,
        ..MemoryConfig::default()
    };
    let words = 2 * (l1.capacity_bytes() / 8) as u64;
    let (mut net, cores) = held_vector_sum(2, words, memory.clone());
    net.run(3_000);
    while cores[0].lock().unwrap().memory().is_quiescent() {
        net.step();
    }
    let fresh = MemoryNode::new(NodeId::new(0), 4, memory);
    let core = cores[0].lock().unwrap();
    assert!(core.memory().directory().len() > 16);
    let mut e = Enc::new();
    core.memory().snapshot(&mut e);
    let record = e.into_bytes();

    // Restores `bytes` into a fresh node. A record it accepts must be one a
    // snapshot writes: snapshotting the node gives back the bytes it read.
    let restore = |bytes: &[u8]| -> std::io::Result<()> {
        let mut node = fresh.clone();
        let mut d = Dec::new(bytes);
        node.restore(&mut d)?;
        let mut again = Enc::new();
        node.snapshot(&mut again);
        assert_eq!(again.bytes(), &bytes[..bytes.len() - d.remaining()]);
        Ok(())
    };
    restore(&record).expect("the record restores");
    for len in 0..record.len() {
        assert!(restore(&record[..len]).is_err(), "prefix of {len} bytes");
    }
    let mut refused = 0;
    for at in 0..record.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut bytes = record.clone();
            bytes[at] ^= flip;
            if let Err(e) = restore(&bytes) {
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ),
                    "byte {at} ^ {flip:#x}: {e}"
                );
                refused += 1;
            }
        }
    }
    assert!(refused > 0);
}
