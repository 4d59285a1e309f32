//! Integration tests mirroring the qualitative claims of the paper's
//! evaluation section at reduced scale: congestion raises latency, the
//! congestion-oblivious model underestimates it for heavy traffic, and the VC
//! configuration effects of Figure 9 hold directionally.

use hornet::net::geometry::Geometry;
use hornet::net::routing::RoutingKind;
use hornet::net::vca::VcAllocKind;
use hornet::prelude::*;
use hornet::traffic::pattern::SyntheticPattern;
use hornet::traffic::splash::{SplashBenchmark, SplashWorkload};
use std::sync::Arc;

#[test]
fn latency_rises_with_offered_load() {
    let run = |rate: f64| {
        SimulationBuilder::new()
            .geometry(Geometry::mesh2d(4, 4))
            .traffic(TrafficKind::pattern(SyntheticPattern::UniformRandom, rate))
            .warmup_cycles(300)
            .measured_cycles(3_000)
            .seed(2)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .network
            .avg_packet_latency()
    };
    let light = run(0.005);
    let medium = run(0.04);
    let heavy = run(0.09);
    assert!(light < medium && medium < heavy, "{light} {medium} {heavy}");
}

#[test]
fn heavy_traffic_congestion_effect_exceeds_light_traffic_effect() {
    // Figure 8's shape at small scale.
    let geometry = Arc::new(Geometry::mesh2d(8, 8));
    let run = |benchmark| {
        let workload = SplashWorkload::new(benchmark, Arc::clone(&geometry));
        let mut network = workload.build_network(RoutingKind::Xy, VcAllocKind::Dynamic, 4, 4, 3);
        network.run(500);
        network.reset_stats();
        network.run(4_000);
        let stats = network.stats();
        (stats.avg_flit_latency(), stats.avg_hops())
    };
    let (radix_latency, radix_hops) = run(SplashBenchmark::Radix);
    let (swap_latency, swap_hops) = run(SplashBenchmark::Swaptions);
    // The hop-count baseline (congestion-oblivious) is comparable for both
    // workloads, so the latency inflation factor must be larger for radix.
    let radix_inflation = radix_latency / radix_hops.max(1.0);
    let swap_inflation = swap_latency / swap_hops.max(1.0);
    assert!(
        radix_inflation > swap_inflation,
        "radix {radix_inflation:.2} vs swaptions {swap_inflation:.2}"
    );
}

#[test]
fn equal_buffer_space_with_more_vcs_does_not_hurt_under_congestion() {
    // Figure 9: 4VCx4 (same total buffering as 2VCx8) should not be worse
    // than 4VCx8 (double the buffering) in a congested network.
    let run = |vcs: usize, depth: usize| {
        let geometry = Arc::new(Geometry::mesh2d(8, 8));
        let workload = SplashWorkload::new(SplashBenchmark::Radix, Arc::clone(&geometry));
        let mut network =
            workload.build_network(RoutingKind::Xy, VcAllocKind::Dynamic, vcs, depth, 5);
        network.run(500);
        network.reset_stats();
        network.run(5_000);
        network.stats().avg_packet_latency()
    };
    let four_by_eight = run(4, 8);
    let four_by_four = run(4, 4);
    assert!(
        four_by_four <= four_by_eight * 1.1,
        "4VCx4 ({four_by_four:.1}) should not be worse than 4VCx8 ({four_by_eight:.1})"
    );
}
