//! A congestion-oblivious ("ideal") network model.
//!
//! High-level architectural simulators often approximate the interconnect with
//! an analytical model: injection bandwidth is limited as in the accurate
//! model, but transit latency is a simple function of hop count and ignores
//! contention entirely. HORNET's evaluation (Figure 8, Figure 12) uses such a
//! model as the congestion-oblivious baseline; this module provides it with
//! the same [`NodeAgent`] interface as the cycle-accurate network so the same
//! workloads can run on both.

use crate::agent::{NodeAgent, NodeIo};
use crate::flit::{DeliveredPacket, Packet};
use crate::geometry::Geometry;
use crate::ids::{Cycle, NodeId, PacketId};
use crate::rng::TileRng;
use crate::routing::DistanceMatrix;
use crate::stats::NetworkStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Parameters of the ideal model.
#[derive(Clone, Debug, PartialEq)]
pub struct IdealConfig {
    /// Cycles of latency per hop (the paper's baseline uses plain hop counts,
    /// i.e. 1).
    pub per_hop_latency: u64,
    /// Injection bandwidth in flits per cycle (matches the accurate model's
    /// link bandwidth).
    pub injection_bandwidth: u32,
    /// Ejection bandwidth in flits per cycle.
    pub ejection_bandwidth: u32,
}

impl Default for IdealConfig {
    fn default() -> Self {
        Self {
            per_hop_latency: 1,
            injection_bandwidth: 1,
            ejection_bandwidth: 1,
        }
    }
}

struct InFlight {
    deliver_at: Cycle,
    injected_at: Cycle,
    hops: u32,
    packet: Packet,
}

struct IdealNode {
    node: NodeId,
    agents: Vec<Box<dyn NodeAgent>>,
    rng: TileRng,
    pending: VecDeque<Packet>,
    /// Flits of the head pending packet already pushed into the network.
    injected_flits_of_head: u32,
    delivered: VecDeque<DeliveredPacket>,
    stats: NetworkStats,
    next_seq: u64,
}

struct IdealIo<'a> {
    node: NodeId,
    now: Cycle,
    pending: &'a mut VecDeque<Packet>,
    delivered: &'a mut VecDeque<DeliveredPacket>,
    next_seq: &'a mut u64,
}

impl NodeIo for IdealIo<'_> {
    fn node(&self) -> NodeId {
        self.node
    }
    fn cycle(&self) -> Cycle {
        self.now
    }
    fn alloc_packet_id(&mut self) -> PacketId {
        let id = PacketId::new(((self.node.raw() as u64) << 40) | *self.next_seq);
        *self.next_seq += 1;
        id
    }
    fn send(&mut self, packet: Packet) {
        self.pending.push_back(packet);
    }
    fn try_recv(&mut self) -> Option<DeliveredPacket> {
        self.delivered.pop_front()
    }
    fn peek_recv(&self) -> Option<&DeliveredPacket> {
        self.delivered.front()
    }
    fn injection_backlog(&self) -> usize {
        self.pending.len()
    }
    fn recv_backlog(&self) -> usize {
        self.delivered.len()
    }
}

/// The congestion-oblivious network simulator.
pub struct IdealNetwork {
    config: IdealConfig,
    dist: DistanceMatrix,
    nodes: Vec<IdealNode>,
    in_flight: BinaryHeap<Reverse<(Cycle, u64)>>,
    flights: std::collections::HashMap<u64, InFlight>,
    flight_seq: u64,
    cycle: Cycle,
}

impl std::fmt::Debug for IdealNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdealNetwork")
            .field("nodes", &self.nodes.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl IdealNetwork {
    /// Builds an ideal network over a geometry.
    pub fn new(geometry: &Geometry, config: IdealConfig, seed: u64) -> Self {
        let dist = DistanceMatrix::new(geometry);
        let nodes = geometry
            .nodes()
            .map(|node| IdealNode {
                node,
                agents: Vec::new(),
                rng: TileRng::seed_from_u64(
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.raw() as u64 + 1)),
                ),
                pending: VecDeque::new(),
                injected_flits_of_head: 0,
                delivered: VecDeque::new(),
                stats: NetworkStats::new(),
                next_seq: 0,
            })
            .collect();
        Self {
            config,
            dist,
            nodes,
            in_flight: BinaryHeap::new(),
            flights: std::collections::HashMap::new(),
            flight_seq: 0,
            cycle: 0,
        }
    }

    /// Attaches an agent to a node.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn NodeAgent>) {
        self.nodes[node.index()].agents.push(agent);
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// True if nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.flights.is_empty() && self.nodes.iter().all(|n| n.pending.is_empty())
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle + 1;

        // Deliver packets whose arrival time has come.
        while let Some(&Reverse((t, key))) = self.in_flight.peek() {
            if t > now {
                break;
            }
            self.in_flight.pop();
            let flight = self.flights.remove(&key).expect("flight present");
            let dst = flight.packet.dst;
            let latency = flight.deliver_at - flight.injected_at;
            let node = &mut self.nodes[dst.index()];
            node.stats.record_delivery(
                flight.packet.flow,
                flight.packet.len_flits as u64,
                flight.hops as u64 * self.config.per_hop_latency,
                latency,
                flight.hops,
            );
            node.stats.total_flit_latency += latency * flight.packet.len_flits as u64;
            node.stats.delivered_flits += flight.packet.len_flits as u64;
            node.delivered.push_back(DeliveredPacket {
                packet: flight.packet,
                delivered_at: now,
                head_latency: flight.hops as u64 * self.config.per_hop_latency,
                tail_latency: latency,
                hops: flight.hops,
            });
        }

        // Step agents.
        for node in &mut self.nodes {
            for agent in &mut node.agents {
                let mut io = IdealIo {
                    node: node.node,
                    now,
                    pending: &mut node.pending,
                    delivered: &mut node.delivered,
                    next_seq: &mut node.next_seq,
                };
                agent.tick(&mut io, &mut node.rng);
            }
        }

        // Inject: each node pushes up to `injection_bandwidth` flits of its
        // head-of-line packet per cycle; when the last flit enters, the packet
        // is scheduled for delivery after `hops × per_hop_latency` cycles.
        for node in &mut self.nodes {
            let mut budget = self.config.injection_bandwidth;
            while budget > 0 {
                let Some(head) = node.pending.front() else {
                    break;
                };
                if node.injected_flits_of_head == 0 {
                    node.stats.injected_packets += 1;
                }
                let remaining = head.len_flits - node.injected_flits_of_head;
                let push = remaining.min(budget);
                node.injected_flits_of_head += push;
                node.stats.injected_flits += push as u64;
                budget -= push;
                if node.injected_flits_of_head == head.len_flits {
                    let packet = node.pending.pop_front().expect("head present");
                    node.injected_flits_of_head = 0;
                    let hops = self.dist.distance(packet.src, packet.dst);
                    let deliver_at = now + hops as u64 * self.config.per_hop_latency;
                    let injected_at = now.saturating_sub(packet.len_flits as u64 - 1);
                    let key = self.flight_seq;
                    self.flight_seq += 1;
                    self.in_flight.push(Reverse((deliver_at.max(now + 1), key)));
                    self.flights.insert(
                        key,
                        InFlight {
                            deliver_at: deliver_at.max(now + 1),
                            injected_at,
                            hops,
                            packet,
                        },
                    );
                } else {
                    break;
                }
            }
        }

        for node in &mut self.nodes {
            node.stats.simulated_cycles += 1;
            node.stats.last_cycle = now;
        }
        self.cycle = now;
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until all agents are finished and the network drained, or
    /// `max_cycles` elapse. Returns true on completion.
    pub fn run_to_completion(&mut self, max_cycles: Cycle) -> bool {
        let end = self.cycle + max_cycles;
        while self.cycle < end {
            let done = self
                .nodes
                .iter()
                .all(|n| n.agents.iter().all(|a| a.finished()))
                && self.is_idle();
            if done {
                return true;
            }
            self.step();
        }
        false
    }

    /// Merged statistics across all nodes.
    pub fn stats(&self) -> NetworkStats {
        let mut merged = NetworkStats::new();
        for n in &self.nodes {
            merged.merge(&n.stats);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    struct Burst {
        sent: u32,
        total: u32,
        dst: NodeId,
    }
    impl NodeAgent for Burst {
        fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
            while self.sent < self.total {
                let id = io.alloc_packet_id();
                let src = io.node();
                io.send(Packet::new(
                    id,
                    FlowId::for_pair(src, self.dst, 16),
                    src,
                    self.dst,
                    8,
                ));
                self.sent += 1;
            }
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            (self.sent < self.total).then_some(now + 1)
        }
        fn finished(&self) -> bool {
            self.sent == self.total
        }
    }

    #[test]
    fn ideal_latency_is_hops_plus_serialization() {
        let g = Geometry::mesh2d(4, 4);
        let mut net = IdealNetwork::new(&g, IdealConfig::default(), 0);
        net.attach_agent(
            NodeId::new(0),
            Box::new(Burst {
                sent: 0,
                total: 1,
                dst: NodeId::new(15),
            }),
        );
        assert!(net.run_to_completion(1_000));
        let stats = net.stats();
        assert_eq!(stats.delivered_packets, 1);
        // 0 -> 15 is 6 hops; 8-flit packet serializes over 8 cycles.
        // Latency = serialization (7) + hops (6) = 13.
        assert_eq!(stats.avg_packet_latency(), 13.0);
        assert_eq!(stats.avg_hops(), 6.0);
    }

    #[test]
    fn ideal_model_ignores_contention() {
        // Many nodes all sending to one hotspot: the ideal model's latency
        // stays at the zero-load value no matter the load.
        let g = Geometry::mesh2d(4, 4);
        let mut net = IdealNetwork::new(&g, IdealConfig::default(), 0);
        for i in 0..15u32 {
            net.attach_agent(
                NodeId::new(i),
                Box::new(Burst {
                    sent: 0,
                    total: 20,
                    dst: NodeId::new(15),
                }),
            );
        }
        assert!(net.run_to_completion(100_000));
        let stats = net.stats();
        assert_eq!(stats.delivered_packets, 15 * 20);
        // Worst-case zero-load latency on a 4x4 mesh with 8-flit packets is
        // 7 (serialization) + 6 (hops) = 13: no queueing ever shows up.
        assert!(stats.avg_packet_latency() <= 13.0);
    }

    #[test]
    fn injection_bandwidth_limits_throughput() {
        let g = Geometry::mesh2d(2, 2);
        let mut net = IdealNetwork::new(&g, IdealConfig::default(), 0);
        net.attach_agent(
            NodeId::new(0),
            Box::new(Burst {
                sent: 0,
                total: 10,
                dst: NodeId::new(3),
            }),
        );
        // 10 packets x 8 flits at 1 flit/cycle needs at least 80 cycles.
        assert!(!net.run_to_completion(40));
        assert!(net.run_to_completion(10_000));
    }
}
