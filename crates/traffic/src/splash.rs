//! SPLASH-2 / PARSEC-like workload synthesizers.
//!
//! The paper drives HORNET with network traces captured from SPLASH-2
//! benchmarks running under Graphite (64 threads, CPU clock 10× the network
//! clock) and with PARSEC applications on the built-in MIPS core. Those traces
//! are not redistributable, so this module synthesizes traffic with the same
//! *qualitative characteristics* the paper's experiments depend on:
//!
//! * **RADIX, FFT** — heavy, bursty all-to-all exchange phases plus strong
//!   memory-controller traffic (the "high traffic" applications whose latency
//!   roughly doubles when congestion is modeled, Figure 8);
//! * **SWAPTIONS, BLACKSCHOLES** — light, memory-controller-dominated traffic
//!   (congestion barely matters);
//! * **WATER** — moderate traffic, mixed neighbour/all-to-all (used for the
//!   routing × VCA comparison of Figure 10);
//! * **OCEAN** — alternating compute (quiet) and exchange (busy) phases,
//!   producing the slowly varying temperature profile of Figure 13a;
//! * **H.264 profile** — low-rate traffic spread evenly over time (the
//!   fast-forwarding counter-example of Figure 7b).
//!
//! Every knob (rates, burstiness, packet sizes, memory-controller fraction) is
//! public so experiments can sweep them.

use crate::pattern::SyntheticPattern;
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::flit::Packet;
use hornet_net::geometry::Geometry;
use hornet_net::ids::{Cycle, FlowId, NodeId};
use hornet_net::rng::TileRng;
use hornet_net::routing::FlowSpec;
use std::sync::Arc;

/// The synthesized benchmarks.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SplashBenchmark {
    /// Radix sort: heavy, bursty, memory-controller-hungry.
    Radix,
    /// FFT: heavy transpose-style exchanges.
    Fft,
    /// Swaptions: light, mostly memory traffic.
    Swaptions,
    /// Water: moderate mixed traffic.
    Water,
    /// Ocean: alternating quiet/busy phases.
    Ocean,
    /// H.264 decoder profile: low, steady traffic.
    H264,
    /// Blackscholes: light PARSEC workload.
    Blackscholes,
}

impl SplashBenchmark {
    /// All synthesized benchmarks.
    pub fn all() -> [SplashBenchmark; 7] {
        [
            SplashBenchmark::Radix,
            SplashBenchmark::Fft,
            SplashBenchmark::Swaptions,
            SplashBenchmark::Water,
            SplashBenchmark::Ocean,
            SplashBenchmark::H264,
            SplashBenchmark::Blackscholes,
        ]
    }

    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SplashBenchmark::Radix => "radix",
            SplashBenchmark::Fft => "fft",
            SplashBenchmark::Swaptions => "swaptions",
            SplashBenchmark::Water => "water",
            SplashBenchmark::Ocean => "ocean",
            SplashBenchmark::H264 => "h264",
            SplashBenchmark::Blackscholes => "blackscholes",
        }
    }

    /// Default traffic profile for this benchmark.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            SplashBenchmark::Radix => WorkloadProfile {
                base_rate: 0.0035,
                burst_rate: 0.0080,
                phase_len: 4_000,
                busy_fraction: 0.6,
                mc_fraction: 0.55,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.7,
                peer_pattern: SyntheticPattern::UniformRandom,
            },
            SplashBenchmark::Fft => WorkloadProfile {
                base_rate: 0.0028,
                burst_rate: 0.0060,
                phase_len: 6_000,
                busy_fraction: 0.5,
                mc_fraction: 0.45,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.7,
                peer_pattern: SyntheticPattern::Transpose,
            },
            SplashBenchmark::Swaptions => WorkloadProfile {
                base_rate: 0.0004,
                burst_rate: 0.0008,
                phase_len: 10_000,
                busy_fraction: 0.3,
                mc_fraction: 0.7,
                data_packet_len: 8,
                control_packet_len: 1,
                data_fraction: 0.5,
                peer_pattern: SyntheticPattern::UniformRandom,
            },
            SplashBenchmark::Water => WorkloadProfile {
                base_rate: 0.0015,
                burst_rate: 0.0040,
                phase_len: 5_000,
                busy_fraction: 0.5,
                mc_fraction: 0.4,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.6,
                peer_pattern: SyntheticPattern::UniformRandom,
            },
            SplashBenchmark::Ocean => WorkloadProfile {
                base_rate: 0.0006,
                burst_rate: 0.0070,
                phase_len: 40_000,
                busy_fraction: 0.45,
                mc_fraction: 0.35,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.7,
                peer_pattern: SyntheticPattern::NearestNeighbor,
            },
            SplashBenchmark::H264 => WorkloadProfile {
                base_rate: 0.0007,
                burst_rate: 0.0007,
                phase_len: 1_000,
                busy_fraction: 1.0,
                mc_fraction: 0.5,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.6,
                peer_pattern: SyntheticPattern::UniformRandom,
            },
            SplashBenchmark::Blackscholes => WorkloadProfile {
                base_rate: 0.0009,
                burst_rate: 0.0018,
                phase_len: 8_000,
                busy_fraction: 0.4,
                mc_fraction: 0.6,
                data_packet_len: 8,
                control_packet_len: 2,
                data_fraction: 0.6,
                peer_pattern: SyntheticPattern::UniformRandom,
            },
        }
    }
}

impl std::fmt::Display for SplashBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The tunable traffic profile of a synthesized workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Offered load (packets/node/cycle) during quiet phases.
    pub base_rate: f64,
    /// Offered load during busy phases.
    pub burst_rate: f64,
    /// Length of one quiet+busy phase pair, in cycles.
    pub phase_len: Cycle,
    /// Fraction of each phase pair spent in the busy state.
    pub busy_fraction: f64,
    /// Fraction of packets addressed to a memory controller.
    pub mc_fraction: f64,
    /// Length of data packets, in flits.
    pub data_packet_len: u32,
    /// Length of control packets, in flits.
    pub control_packet_len: u32,
    /// Fraction of packets that are data-sized.
    pub data_fraction: f64,
    /// Destination pattern for core-to-core (non-MC) packets.
    pub peer_pattern: SyntheticPattern,
}

impl WorkloadProfile {
    /// Scales all rates by a factor (used to sweep congestion levels).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.base_rate *= factor;
        self.burst_rate *= factor;
        self
    }

    /// The offered load at a given cycle (busy phases first within each phase
    /// pair).
    pub fn rate_at(&self, cycle: Cycle) -> f64 {
        if self.phase_len == 0 {
            return self.burst_rate;
        }
        let phase = (cycle % self.phase_len) as f64 / self.phase_len as f64;
        if phase < self.busy_fraction {
            self.burst_rate
        } else {
            self.base_rate
        }
    }

    /// Average offered load over a full phase pair.
    pub fn average_rate(&self) -> f64 {
        self.burst_rate * self.busy_fraction + self.base_rate * (1.0 - self.busy_fraction)
    }
}

/// A synthesized workload: geometry, memory-controller placement, and traffic
/// profile.
#[derive(Clone, Debug)]
pub struct SplashWorkload {
    /// Which benchmark this synthesizes.
    pub benchmark: SplashBenchmark,
    /// The traffic profile (start from [`SplashBenchmark::profile`] and tweak).
    pub profile: WorkloadProfile,
    /// Memory-controller nodes (requests concentrate here; replies emanate
    /// from here).
    pub memory_controllers: Vec<NodeId>,
    geometry: Arc<Geometry>,
}

impl SplashWorkload {
    /// Creates a workload over a geometry with the benchmark's default profile
    /// and a single memory controller in the lower-left corner (the paper's
    /// SPLASH configuration).
    pub fn new(benchmark: SplashBenchmark, geometry: Arc<Geometry>) -> Self {
        Self {
            benchmark,
            profile: benchmark.profile(),
            memory_controllers: vec![NodeId::new(0)],
            geometry,
        }
    }

    /// Replaces the memory-controller placement.
    pub fn with_memory_controllers(mut self, mcs: Vec<NodeId>) -> Self {
        assert!(
            !mcs.is_empty(),
            "at least one memory controller is required"
        );
        self.memory_controllers = mcs;
        self
    }

    /// Replaces the traffic profile.
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Scales the offered load.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.profile = self.profile.scaled(factor);
        self
    }

    /// The geometry this workload targets.
    pub fn geometry(&self) -> &Arc<Geometry> {
        &self.geometry
    }

    /// The flow set the routing tables must cover (all-to-all: the synthesized
    /// peer traffic plus MC requests and replies can touch any pair).
    pub fn flows(&self) -> Vec<FlowSpec> {
        FlowSpec::all_to_all(&self.geometry)
    }

    /// Builds the per-node injector agent for `node`.
    pub fn agent_for(&self, node: NodeId) -> Box<dyn NodeAgent> {
        Box::new(SplashInjector {
            workload: self.clone(),
            node,
            is_mc: self.memory_controllers.contains(&node),
            offered: 0,
            received: 0,
        })
    }

    /// Attaches an injector to every node of a network.
    pub fn attach_all(&self, network: &mut hornet_net::network::Network) {
        for node in self.geometry.nodes() {
            network.attach_agent(node, self.agent_for(node));
        }
    }

    /// Builds a [`hornet_net::network::Network`] configured for this workload.
    pub fn build_network(
        &self,
        routing: hornet_net::routing::RoutingKind,
        vca: hornet_net::vca::VcAllocKind,
        vcs: usize,
        vc_capacity: usize,
        seed: u64,
    ) -> hornet_net::network::Network {
        let config = hornet_net::config::NetworkConfig::new((*self.geometry).clone())
            .with_routing(routing)
            .with_vca(vca)
            .with_vcs(vcs, vc_capacity)
            .with_flows(self.flows());
        let mut network =
            hornet_net::network::Network::new(&config, seed).expect("valid workload configuration");
        self.attach_all(&mut network);
        network
    }

    /// Materialises the workload as a [`crate::trace::Trace`] of the given
    /// duration (useful for the trace-replay experiments and for inspection).
    pub fn to_trace(&self, duration: Cycle, seed: u64) -> crate::trace::Trace {
        let mut events = Vec::new();
        for node in self.geometry.nodes() {
            let mut rng = TileRng::seed_from_u64(
                seed.wrapping_add(0x9E37_79B9u64.wrapping_mul(node.raw() as u64 + 1)),
            );
            let is_mc = self.memory_controllers.contains(&node);
            for cycle in 0..duration {
                if let Some((dst, size)) = synth_injection(
                    &self.profile,
                    &self.geometry,
                    &self.memory_controllers,
                    node,
                    is_mc,
                    cycle,
                    &mut rng,
                ) {
                    events.push(crate::trace::TraceEvent {
                        timestamp: cycle,
                        src: node,
                        dst,
                        size,
                        period: None,
                    });
                }
            }
        }
        crate::trace::Trace::new(events)
    }
}

/// Decides whether node `src` injects a packet at `cycle`, and if so to where
/// and how large. Shared between the live agent and the trace materialiser so
/// both produce statistically identical traffic.
fn synth_injection(
    profile: &WorkloadProfile,
    geometry: &Geometry,
    mcs: &[NodeId],
    src: NodeId,
    is_mc: bool,
    cycle: Cycle,
    rng: &mut TileRng,
) -> Option<(NodeId, u32)> {
    // Memory controllers answer the aggregate request stream: they inject at a
    // rate proportional to the number of requesting nodes divided among MCs.
    let rate = if is_mc {
        let requesters = (geometry.node_count() - mcs.len()).max(1) as f64;
        profile.rate_at(cycle) * profile.mc_fraction * requesters / mcs.len() as f64
    } else {
        profile.rate_at(cycle)
    };
    if rng.f64() >= rate.min(1.0) {
        return None;
    }
    let dst = if is_mc {
        // Reply to a random non-MC node.
        let mut d = src;
        for _ in 0..8 {
            let cand = NodeId::from(rng.range(0..geometry.node_count() as u64) as usize);
            if cand != src && !mcs.contains(&cand) {
                d = cand;
                break;
            }
        }
        if d == src {
            return None;
        }
        d
    } else if rng.f64() < profile.mc_fraction {
        // Request to the nearest memory controller (ties by index).
        *mcs.iter()
            .min_by_key(|&&m| (geometry.hop_distance(src, m), m))
            .expect("at least one MC")
    } else {
        profile.peer_pattern.destination(src, geometry, rng)
    };
    if dst == src {
        return None;
    }
    let size = if rng.f64() < profile.data_fraction {
        profile.data_packet_len
    } else {
        profile.control_packet_len
    };
    Some((dst, size.max(1)))
}

/// The live per-node injector for a synthesized workload.
#[derive(Debug)]
pub struct SplashInjector {
    workload: SplashWorkload,
    node: NodeId,
    is_mc: bool,
    offered: u64,
    received: u64,
}

impl SplashInjector {
    /// Packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl NodeAgent for SplashInjector {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng) {
        while io.try_recv().is_some() {
            self.received += 1;
        }
        let now = io.cycle();
        if let Some((dst, size)) = synth_injection(
            &self.workload.profile,
            &self.workload.geometry,
            &self.workload.memory_controllers,
            self.node,
            self.is_mc,
            now,
            rng,
        ) {
            let id = io.alloc_packet_id();
            let flow = FlowId::for_pair(self.node, dst, self.workload.geometry.node_count());
            io.send(Packet::new(id, flow, self.node, dst, size, now));
            self.offered += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1) // open-loop source with a per-cycle Bernoulli draw
    }

    fn finished(&self) -> bool {
        true // open-loop sources never block completion
    }

    fn label(&self) -> &str {
        self.workload.benchmark.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::routing::RoutingKind;
    use hornet_net::vca::VcAllocKind;

    fn mesh8() -> Arc<Geometry> {
        Arc::new(Geometry::mesh2d(8, 8))
    }

    #[test]
    fn profiles_have_sane_rates() {
        for b in SplashBenchmark::all() {
            let p = b.profile();
            assert!(p.base_rate > 0.0 && p.base_rate < 0.5, "{b}");
            assert!(p.burst_rate >= p.base_rate, "{b}");
            assert!(p.mc_fraction > 0.0 && p.mc_fraction <= 1.0, "{b}");
            assert!(p.data_packet_len >= p.control_packet_len, "{b}");
        }
        // Radix is the heavy benchmark, swaptions the light one (Figure 8).
        assert!(
            SplashBenchmark::Radix.profile().average_rate()
                > 4.0 * SplashBenchmark::Swaptions.profile().average_rate()
        );
    }

    #[test]
    fn rate_alternates_between_phases() {
        let p = SplashBenchmark::Ocean.profile();
        let busy = p.rate_at(0);
        let quiet = p.rate_at(p.phase_len - 1);
        assert!(busy > quiet);
    }

    #[test]
    fn trace_materialisation_matches_profile_roughly() {
        let w = SplashWorkload::new(SplashBenchmark::Water, mesh8());
        let duration = 5_000;
        let trace = w.to_trace(duration, 3);
        let expected = w.profile.average_rate() * 64.0 * duration as f64;
        let got = trace.len() as f64;
        assert!(
            got > expected * 0.5 && got < expected * 2.0,
            "expected ~{expected}, got {got}"
        );
        // A healthy share of the traffic heads to the memory controller.
        let to_mc = trace
            .events()
            .iter()
            .filter(|e| e.dst == NodeId::new(0))
            .count();
        assert!(to_mc > trace.len() / 10);
    }

    #[test]
    fn radix_congests_more_than_swaptions() {
        let run = |benchmark: SplashBenchmark| {
            let w = SplashWorkload::new(benchmark, mesh8());
            let mut net = w.build_network(RoutingKind::Xy, VcAllocKind::Dynamic, 4, 4, 11);
            net.run(4_000);
            net.stats().avg_packet_latency()
        };
        let radix = run(SplashBenchmark::Radix);
        let swaptions = run(SplashBenchmark::Swaptions);
        assert!(
            radix > swaptions,
            "radix ({radix:.1}) must see more latency than swaptions ({swaptions:.1})"
        );
    }

    #[test]
    fn memory_controller_placement_is_configurable() {
        let w = SplashWorkload::new(SplashBenchmark::Radix, mesh8()).with_memory_controllers(vec![
            NodeId::new(0),
            NodeId::new(7),
            NodeId::new(56),
            NodeId::new(63),
            NodeId::new(27),
        ]);
        assert_eq!(w.memory_controllers.len(), 5);
        let trace = w.to_trace(2_000, 1);
        // Traffic to MCs is spread over all five controllers.
        let hits = |n: u32| {
            trace
                .events()
                .iter()
                .filter(|e| e.dst == NodeId::new(n))
                .count()
        };
        assert!(hits(0) > 0 && hits(63) > 0);
    }
}
