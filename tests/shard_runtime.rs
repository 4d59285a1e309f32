//! Integration tests of the sharded execution runtime's central correctness
//! claims on the paper's canonical 8×8 mesh:
//!
//! * multi-thread `CycleAccurate` and `Slack(0)` are *bit-identical* to
//!   sequential simulation — same packet count, same latency totals, same
//!   latency histogram — under both uniform-random and transpose traffic;
//! * `Slack(k)` with `k > 0` preserves functional correctness exactly (run to
//!   completion, every offered packet is delivered once on its own flow, no
//!   routing failures) with only bounded timing skew, identically on every
//!   repeat;
//! * a sync window too long to ever end (`Periodic(u64::MAX)`) runs a
//!   warmed-up simulation to its end instead of wrapping around;
//! * the report surfaces the shard layout (row-aligned partition, cut set);
//! * at paper scale, a 32×32 mesh with all-to-all XY flows keeps its routing
//!   state to one shared computed function and is bit-identical on 4 shards.

use hornet::net::routing::{build_routing, RoutingPolicy};
use hornet::prelude::*;
use hornet::traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet::traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::collections::BTreeMap;
use std::sync::Arc;

fn run(
    threads: usize,
    sync: SyncMode,
    pattern: SyntheticPattern,
    seed: u64,
) -> hornet::net::NetworkStats {
    SimulationBuilder::new()
        .geometry(Geometry::mesh2d(8, 8))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::pattern(pattern, 0.03))
        .warmup_cycles(200)
        .measured_cycles(2_500)
        .threads(threads)
        .sync(sync)
        .seed(seed)
        .build()
        .expect("valid configuration")
        .run()
        .expect("runs")
        .network
}

fn assert_bit_identical(
    seq: &hornet::net::NetworkStats,
    par: &hornet::net::NetworkStats,
    what: &str,
) {
    assert_eq!(
        par.delivered_packets, seq.delivered_packets,
        "{what}: packets"
    );
    assert_eq!(par.delivered_flits, seq.delivered_flits, "{what}: flits");
    assert_eq!(par.injected_flits, seq.injected_flits, "{what}: injected");
    assert_eq!(
        par.total_packet_latency, seq.total_packet_latency,
        "{what}: latency"
    );
    assert_eq!(par.total_hops, seq.total_hops, "{what}: hops");
    assert_eq!(
        par.latency_histogram, seq.latency_histogram,
        "{what}: latency histogram"
    );
    assert_eq!(par.busy_cycles, seq.busy_cycles, "{what}: busy cycles");
}

#[test]
fn cycle_accurate_and_slack0_are_bit_identical_on_8x8() {
    for pattern in [SyntheticPattern::UniformRandom, SyntheticPattern::Transpose] {
        let seq = run(1, SyncMode::CycleAccurate, pattern.clone(), 42);
        for threads in [2usize, 4] {
            for sync in [SyncMode::CycleAccurate, SyncMode::Slack(0)] {
                let par = run(threads, sync, pattern.clone(), 42);
                assert_bit_identical(
                    &seq,
                    &par,
                    &format!("{pattern:?} {threads} threads {sync:?}"),
                );
            }
        }
    }
}

/// Transpose traffic on the 8×8 mesh, one packet per tile every 33 cycles
/// (tile `i` first at cycle `i mod 33`) until cycle 2 700, run until every
/// offered packet has been delivered.
///
/// The injectors are periodic, not Bernoulli, because a tile's agent and
/// router draw from one random stream: slack moves the router's draws
/// against the sequential run's, so Bernoulli sources would offer the two
/// runs different packets. Periodic transpose sources draw nothing, so both
/// offer the same packets.
fn run_drained(threads: usize, sync: SyncMode, seed: u64) -> hornet::net::NetworkStats {
    let geometry = Geometry::mesh2d(8, 8);
    let shared = Arc::new(geometry.clone());
    let pattern = SyntheticPattern::Transpose;
    let mut builder = SimulationBuilder::new()
        .geometry(geometry.clone())
        .routing(RoutingKind::Xy)
        .flows(flows_for_pattern(&pattern, &geometry))
        .threads(threads)
        .sync(sync)
        .seed(seed);
    for node in geometry.nodes() {
        let injector = SyntheticInjector::new(
            Arc::clone(&shared),
            SyntheticConfig {
                pattern: pattern.clone(),
                process: InjectionProcess::Periodic {
                    period: 33,
                    offset: u64::from(node.raw()) % 33,
                },
                packet_len: 8,
                stop_after: Some(2_700),
                max_packets: None,
            },
        );
        builder = builder.agent(node, Box::new(injector));
    }
    builder
        .build()
        .expect("valid configuration")
        .run_to_completion(100_000)
        .expect("every offered packet is delivered")
        .network
}

#[test]
fn slack_bounds_timing_skew_without_losing_packets() {
    let seq = run_drained(1, SyncMode::CycleAccurate, 7);
    let par = run_drained(4, SyncMode::Slack(5), 7);
    assert!(seq.offered_packets > 0);
    // Both runs offer the same packets; run to completion, every one of them
    // is delivered exactly once, on its own flow.
    for stats in [&seq, &par] {
        assert_eq!(stats.routing_failures, 0, "no flit may ever be lost");
        assert_eq!(stats.delivered_packets, stats.offered_packets);
    }
    assert_eq!(par.offered_packets, seq.offered_packets);
    let per_flow = |s: &hornet::net::NetworkStats| -> BTreeMap<u64, u64> {
        s.per_flow.iter().map(|(&f, r)| (f, r.packets)).collect()
    };
    assert_eq!(per_flow(&par), per_flow(&seq), "per-flow packet counts");
    // Timing is where slack may differ: the skew each shard can accumulate
    // is bounded by the slack, so average latency stays close.
    let accuracy = par.latency_accuracy_vs(&seq);
    assert!(
        accuracy > 0.7,
        "slack-5 latency accuracy {accuracy} too low"
    );
    // The skew is a defined model, not a host race.
    assert_bit_identical(&par, &run_drained(4, SyncMode::Slack(5), 7), "repeat");
}

/// A window end past `u64::MAX` must saturate: a warmed-up run (starting
/// past cycle 0) under an endless window must reach its end, not wrap its
/// window end below its start and spin forever.
#[test]
fn an_endless_sync_window_runs_to_the_end() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for sync in [SyncMode::Periodic(u64::MAX), SyncMode::Slack(u64::MAX)] {
            let report = SimulationBuilder::new()
                .geometry(Geometry::mesh2d(4, 4))
                .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.03))
                .warmup_cycles(100)
                .measured_cycles(200)
                .threads(2)
                .sync(sync)
                .seed(1)
                .build()
                .expect("valid configuration")
                .run()
                .expect("runs");
            tx.send(report.network.delivered_packets).unwrap();
        }
    });
    for _ in 0..2 {
        let delivered = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("an endless window must not hang the run");
        assert!(delivered > 0);
    }
}

#[test]
fn report_surfaces_row_aligned_shard_layout() {
    let report = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(8, 8))
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.03))
        .measured_cycles(500)
        .threads(4)
        .seed(1)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let shard = report.shard.expect("parallel run records shard layout");
    assert_eq!(shard.shards, 4);
    assert_eq!(shard.tiles_per_shard, vec![16, 16, 16, 16], "two rows each");
    assert_eq!(shard.cut_links, 24, "three row boundaries × eight links");
    // Sequential runs have no shard layout.
    let seq = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(4, 4))
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.03))
        .measured_cycles(200)
        .threads(1)
        .seed(1)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(seq.shard.is_none());
}

#[test]
fn a_1024_tile_all_to_all_xy_mesh_is_bit_identical_on_4_shards() {
    let geometry = Geometry::mesh2d(32, 32);
    let flows = flows_for_pattern(&SyntheticPattern::UniformRandom, &geometry);
    assert_eq!(flows.len(), 1024 * 1023);
    // Every router shares one computed route function: a bit per pair flow
    // and the tiles' coordinates, where frozen tables held ≈1 GB.
    let policies = build_routing(RoutingKind::Xy, &geometry, &flows);
    let RoutingPolicy::Dor(routes) = &policies[0] else {
        panic!("XY on a mesh is computed, not tabled");
    };
    assert!(policies
        .iter()
        .all(|p| matches!(p, RoutingPolicy::Dor(r) if Arc::ptr_eq(r, routes))));
    assert!(
        routes.heap_bytes() <= 256 << 10,
        "{} bytes of routing state",
        routes.heap_bytes()
    );
    let run = |threads| {
        SimulationBuilder::new()
            .geometry(geometry.clone())
            .routing(RoutingKind::Xy)
            .traffic(TrafficKind::pattern(SyntheticPattern::UniformRandom, 0.01))
            .warmup_cycles(50)
            .measured_cycles(250)
            .threads(threads)
            .sync(SyncMode::CycleAccurate)
            .seed(3)
            .build()
            .expect("valid configuration")
            .run()
            .expect("runs")
            .network
    };
    let seq = run(1);
    assert!(seq.delivered_packets > 0);
    assert_bit_identical(&seq, &run(4), "32x32 uniform XY, 4 threads");
}
