//! Synthetic traffic injector agents.
//!
//! A [`SyntheticInjector`] is attached to one node; every cycle it consults
//! its [`InjectionProcess`] to decide whether to offer a packet and its
//! [`SyntheticPattern`] to pick the destination. Delivered packets addressed
//! to the node are consumed and counted.

use crate::pattern::{InjectionProcess, ProcessState, SyntheticPattern};
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::flit::Packet;
use hornet_net::geometry::Geometry;
#[cfg(test)]
use hornet_net::ids::NodeId;
use hornet_net::ids::{Cycle, FlowId};
use hornet_net::rng::TileRng;
use std::sync::Arc;

/// Configuration of a synthetic injector.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Destination pattern.
    pub pattern: SyntheticPattern,
    /// Injection process.
    pub process: InjectionProcess,
    /// Packet length in flits (the paper uses an average of 8).
    pub packet_len: u32,
    /// Stop offering new packets after this cycle (`None` = never stop).
    pub stop_after: Option<Cycle>,
    /// Cap on the number of packets to offer (`None` = unlimited).
    pub max_packets: Option<u64>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            pattern: SyntheticPattern::UniformRandom,
            process: InjectionProcess::Bernoulli { rate: 0.01 },
            packet_len: 8,
            stop_after: None,
            max_packets: None,
        }
    }
}

/// A synthetic traffic source/sink attached to one node.
#[derive(Debug)]
pub struct SyntheticInjector {
    geometry: Arc<Geometry>,
    config: SyntheticConfig,
    state: ProcessState,
    offered: u64,
    received: u64,
    last_cycle_seen: Cycle,
}

impl SyntheticInjector {
    /// Creates an injector for a node of the given geometry.
    pub fn new(geometry: Arc<Geometry>, config: SyntheticConfig) -> Self {
        Self {
            geometry,
            config,
            state: ProcessState::default(),
            offered: 0,
            received: 0,
            last_cycle_seen: 0,
        }
    }

    /// Packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets received (consumed) so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    fn may_offer(&self, now: Cycle) -> bool {
        if let Some(stop) = self.config.stop_after {
            if now > stop {
                return false;
            }
        }
        if let Some(max) = self.config.max_packets {
            if self.offered >= max {
                return false;
            }
        }
        true
    }
}

impl NodeAgent for SyntheticInjector {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng) {
        let now = io.cycle();
        self.last_cycle_seen = now;
        // Drain anything delivered to this node.
        while io.try_recv().is_some() {
            self.received += 1;
        }
        if !self.may_offer(now) {
            return;
        }
        let count = self.config.process.injections_at(now, &mut self.state, rng);
        for _ in 0..count {
            if !self.may_offer(now) {
                break;
            }
            let src = io.node();
            let dst = self.config.pattern.destination(src, &self.geometry, rng);
            if dst == src {
                continue;
            }
            let id = io.alloc_packet_id();
            let flow = FlowId::for_pair(src, dst, self.geometry.node_count());
            io.send(Packet::new(id, flow, src, dst, self.config.packet_len));
            self.offered += 1;
            self.state.injected += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let next = if self.may_offer(now) {
            self.config.process.next_injection(now)
        } else {
            None
        };
        let event = match self.config.stop_after {
            // The stop cycle is an event of its own: `finished()` turns true
            // only once a tick has seen it, so a fast-forward across an idle
            // gap must land on it, not on the end of the run.
            Some(stop) if self.last_cycle_seen < stop => Some(next.map_or(stop, |n| n.min(stop))),
            Some(stop) => next.filter(|&n| n <= stop),
            None => next,
        };
        event.map(|e| e.max(now))
    }

    fn finished(&self) -> bool {
        match (self.config.stop_after, self.config.max_packets) {
            (None, None) => true, // open-loop sources never block completion
            (Some(stop), _) => self.last_cycle_seen >= stop,
            (_, Some(max)) => self.offered >= max,
        }
    }

    fn label(&self) -> &str {
        self.config.pattern.label()
    }

    fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        e.u64(self.state.injected)
            .u64(self.offered)
            .u64(self.received)
            .u64(self.last_cycle_seen);
    }

    fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        self.state.injected = d.u64()?;
        self.offered = d.u64()?;
        self.received = d.u64()?;
        self.last_cycle_seen = d.u64()?;
        Ok(())
    }
}

/// Attaches one [`SyntheticInjector`] with the same configuration to every
/// node of a network built over `geometry`.
pub fn attach_everywhere(
    network: &mut hornet_net::network::Network,
    geometry: &Arc<Geometry>,
    config: &SyntheticConfig,
) {
    for node in geometry.nodes() {
        network.attach_agent(
            node,
            Box::new(SyntheticInjector::new(Arc::clone(geometry), config.clone())),
        );
    }
}

/// Builds the flow set a synthetic pattern needs the routing tables to cover.
pub fn flows_for_pattern(
    pattern: &SyntheticPattern,
    geometry: &Geometry,
) -> Vec<hornet_net::routing::FlowSpec> {
    pattern
        .flow_pairs(geometry)
        .into_iter()
        .map(|(s, d)| hornet_net::routing::FlowSpec::pair(s, d, geometry.node_count()))
        .collect()
}

/// Convenience: builds a network configured for a synthetic pattern.
pub fn network_for_pattern(
    geometry: Geometry,
    pattern: &SyntheticPattern,
    routing: hornet_net::routing::RoutingKind,
    vca: hornet_net::vca::VcAllocKind,
    seed: u64,
) -> Result<hornet_net::network::Network, hornet_net::config::ConfigError> {
    let flows = flows_for_pattern(pattern, &geometry);
    let config = hornet_net::config::NetworkConfig::new(geometry)
        .with_routing(routing)
        .with_vca(vca)
        .with_flows(flows);
    hornet_net::network::Network::new(&config, seed)
}

/// Result row of a network-only synthetic-traffic run.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticRunReport {
    /// Average in-network packet latency over the measured window.
    pub avg_packet_latency: f64,
    /// Delivered packets during the measured window.
    pub delivered_packets: u64,
    /// Injected packets during the measured window.
    pub injected_packets: u64,
    /// Measured cycles.
    pub cycles: Cycle,
}

/// Runs a network-only synthetic-traffic experiment: every node runs the same
/// injector; statistics are reset after `warmup` cycles and collected for
/// `measured` cycles (Table I's methodology).
#[allow(clippy::too_many_arguments)]
pub fn run_synthetic(
    geometry: Geometry,
    pattern: SyntheticPattern,
    routing: hornet_net::routing::RoutingKind,
    vca: hornet_net::vca::VcAllocKind,
    config: SyntheticConfig,
    warmup: Cycle,
    measured: Cycle,
    seed: u64,
) -> SyntheticRunReport {
    let geometry = Arc::new(geometry);
    let mut network = network_for_pattern((*geometry).clone(), &pattern, routing, vca, seed)
        .expect("valid synthetic configuration");
    let mut cfg = config;
    cfg.pattern = pattern;
    attach_everywhere(&mut network, &geometry, &cfg);
    network.run(warmup);
    network.reset_stats();
    network.run(measured);
    let stats = network.stats();
    SyntheticRunReport {
        avg_packet_latency: stats.avg_packet_latency(),
        delivered_packets: stats.delivered_packets,
        injected_packets: stats.injected_packets,
        cycles: measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::routing::RoutingKind;
    use hornet_net::vca::VcAllocKind;

    #[test]
    fn injector_offers_and_receives() {
        let report = run_synthetic(
            Geometry::mesh2d(4, 4),
            SyntheticPattern::Transpose,
            RoutingKind::Xy,
            VcAllocKind::Dynamic,
            SyntheticConfig {
                process: InjectionProcess::Bernoulli { rate: 0.02 },
                packet_len: 4,
                ..SyntheticConfig::default()
            },
            200,
            2_000,
            1,
        );
        assert!(report.delivered_packets > 0);
        assert!(report.avg_packet_latency > 0.0);
    }

    #[test]
    fn higher_load_means_higher_latency() {
        let run = |rate: f64| {
            run_synthetic(
                Geometry::mesh2d(4, 4),
                SyntheticPattern::UniformRandom,
                RoutingKind::Xy,
                VcAllocKind::Dynamic,
                SyntheticConfig {
                    process: InjectionProcess::Bernoulli { rate },
                    packet_len: 8,
                    ..SyntheticConfig::default()
                },
                500,
                3_000,
                7,
            )
        };
        let light = run(0.005);
        let heavy = run(0.08);
        assert!(
            heavy.avg_packet_latency > light.avg_packet_latency,
            "congestion must increase latency: {light:?} vs {heavy:?}"
        );
    }

    #[test]
    fn max_packets_bounds_offered_traffic() {
        let geometry = Arc::new(Geometry::mesh2d(2, 2));
        let mut injector = SyntheticInjector::new(
            Arc::clone(&geometry),
            SyntheticConfig {
                pattern: SyntheticPattern::NearestNeighbor,
                process: InjectionProcess::Periodic {
                    period: 1,
                    offset: 0,
                },
                packet_len: 1,
                stop_after: None,
                max_packets: Some(3),
            },
        );
        // Drive it with a mock IO for 10 cycles.
        struct CountingIo {
            cycle: Cycle,
            sent: u64,
            next: u64,
        }
        impl NodeIo for CountingIo {
            fn node(&self) -> NodeId {
                NodeId::new(0)
            }
            fn cycle(&self) -> Cycle {
                self.cycle
            }
            fn alloc_packet_id(&mut self) -> hornet_net::ids::PacketId {
                self.next += 1;
                hornet_net::ids::PacketId::new(self.next)
            }
            fn send(&mut self, _packet: Packet) {
                self.sent += 1;
            }
            fn try_recv(&mut self) -> Option<hornet_net::flit::DeliveredPacket> {
                None
            }
            fn peek_recv(&self) -> Option<&hornet_net::flit::DeliveredPacket> {
                None
            }
            fn injection_backlog(&self) -> usize {
                0
            }
            fn recv_backlog(&self) -> usize {
                0
            }
        }
        let mut io = CountingIo {
            cycle: 0,
            sent: 0,
            next: 0,
        };
        let mut rng = TileRng::seed_from_u64(0);
        for c in 0..10 {
            io.cycle = c;
            injector.tick(&mut io, &mut rng);
        }
        assert_eq!(io.sent, 3);
        assert!(injector.finished());
        assert_eq!(injector.next_event(20), None);
    }

    #[test]
    fn flows_for_pattern_matches_pairs() {
        let g = Geometry::mesh2d(3, 3);
        let flows = flows_for_pattern(&SyntheticPattern::Transpose, &g);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.src != f.dst));
    }
}
