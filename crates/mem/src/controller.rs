//! A standalone memory-controller agent.
//!
//! Tiles at the edge of the chip (or a single corner tile, as in the paper's
//! SPLASH experiments) host memory controllers: they accept `DramRead` /
//! `DramWrite` packets, model DRAM access latency and limited service
//! bandwidth, and send `DramReadResp` packets back. The number and placement
//! of memory controllers is the knob Figure 11 sweeps.

use crate::msg::{MemMessage, MsgClass};
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::ids::{Cycle, NodeId};
use hornet_net::rng::TileRng;
use std::collections::VecDeque;

/// Memory-controller timing parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemoryControllerConfig {
    /// DRAM access latency, in network cycles.
    pub dram_latency: Cycle,
    /// Requests the controller can start servicing per cycle.
    pub requests_per_cycle: u32,
    /// Flits in a control packet.
    pub control_packet_len: u32,
    /// Flits in a data packet.
    pub data_packet_len: u32,
}

impl Default for MemoryControllerConfig {
    fn default() -> Self {
        Self {
            dram_latency: 50,
            requests_per_cycle: 1,
            control_packet_len: 2,
            data_packet_len: 8,
        }
    }
}

/// Counters kept by a memory controller.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryControllerStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests absorbed.
    pub writes: u64,
    /// Sum of queueing delays (cycles spent waiting before service).
    pub total_queue_delay: u64,
    /// Maximum queue depth observed.
    pub max_queue_depth: usize,
}

#[derive(Copy, Clone, Debug)]
struct PendingRead {
    line: u64,
    requester: NodeId,
    arrived_at: Cycle,
}

#[derive(Copy, Clone, Debug)]
struct InService {
    line: u64,
    requester: NodeId,
    done_at: Cycle,
}

/// A memory-controller agent attached to one tile.
#[derive(Debug)]
pub struct MemoryControllerAgent {
    node: NodeId,
    node_count: usize,
    config: MemoryControllerConfig,
    queue: VecDeque<PendingRead>,
    in_service: Vec<InService>,
    values: std::collections::HashMap<u64, u64>,
    stats: MemoryControllerStats,
}

impl MemoryControllerAgent {
    /// Creates a memory controller for `node`.
    pub fn new(node: NodeId, node_count: usize, config: MemoryControllerConfig) -> Self {
        Self {
            node,
            node_count,
            config,
            queue: VecDeque::new(),
            in_service: Vec::new(),
            values: std::collections::HashMap::new(),
            stats: MemoryControllerStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &MemoryControllerStats {
        &self.stats
    }

    /// Pending plus in-service requests.
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }
}

impl NodeAgent for MemoryControllerAgent {
    fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
        let now = io.cycle();
        // Accept new requests.
        while let Some(delivered) = io.peek_recv() {
            let Some(msg) = MemMessage::decode(&delivered.packet.payload) else {
                break; // not a memory packet; leave it for other agents
            };
            if msg.class() != MsgClass::MemoryController {
                break;
            }
            let delivered = io.try_recv().expect("peeked");
            let _ = delivered;
            match msg {
                MemMessage::DramRead { line, requester } => {
                    self.queue.push_back(PendingRead {
                        line,
                        requester,
                        arrived_at: now,
                    });
                    self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
                }
                MemMessage::DramWrite { line, value } => {
                    self.values.insert(line, value);
                    self.stats.writes += 1;
                }
                _ => {}
            }
        }
        // Start servicing up to `requests_per_cycle` queued reads.
        for _ in 0..self.config.requests_per_cycle {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            self.stats.reads += 1;
            self.stats.total_queue_delay += now.saturating_sub(req.arrived_at);
            self.in_service.push(InService {
                line: req.line,
                requester: req.requester,
                done_at: now + self.config.dram_latency,
            });
        }
        // Complete finished reads.
        let mut done = Vec::new();
        self.in_service.retain(|s| {
            if s.done_at <= now {
                done.push(*s);
                false
            } else {
                true
            }
        });
        for s in done {
            let value = self.values.get(&s.line).copied().unwrap_or(0);
            let id = io.alloc_packet_id();
            let packet = MemMessage::DramReadResp {
                line: s.line,
                value,
            }
            .to_packet(
                id,
                self.node,
                s.requester,
                self.node_count,
                self.config.control_packet_len,
                self.config.data_packet_len,
            );
            io.send(packet);
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.queue.is_empty() && self.in_service.is_empty() {
            None
        } else {
            Some(
                self.in_service
                    .iter()
                    .map(|s| s.done_at)
                    .min()
                    .unwrap_or(now + 1)
                    .max(now + 1),
            )
        }
    }

    fn finished(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_empty()
    }

    fn label(&self) -> &str {
        "memory-controller"
    }

    fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        e.u32(self.queue.len() as u32);
        for r in &self.queue {
            e.u64(r.line).u32(r.requester.raw()).u64(r.arrived_at);
        }
        e.u32(self.in_service.len() as u32);
        for s in &self.in_service {
            e.u64(s.line).u32(s.requester.raw()).u64(s.done_at);
        }
        let mut values: Vec<(&u64, &u64)> = self.values.iter().collect();
        values.sort_by_key(|(line, _)| **line);
        e.u32(values.len() as u32);
        for (line, value) in values {
            e.u64(*line).u64(*value);
        }
        e.u64(self.stats.reads)
            .u64(self.stats.writes)
            .u64(self.stats.total_queue_delay)
            .u64(self.stats.max_queue_depth as u64);
    }

    fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        self.queue.clear();
        for _ in 0..d.u32()? {
            self.queue.push_back(PendingRead {
                line: d.u64()?,
                requester: NodeId::new(d.u32()?),
                arrived_at: d.u64()?,
            });
        }
        self.in_service.clear();
        for _ in 0..d.u32()? {
            self.in_service.push(InService {
                line: d.u64()?,
                requester: NodeId::new(d.u32()?),
                done_at: d.u64()?,
            });
        }
        self.values.clear();
        for _ in 0..d.u32()? {
            let line = d.u64()?;
            let value = d.u64()?;
            self.values.insert(line, value);
        }
        self.stats = MemoryControllerStats {
            reads: d.u64()?,
            writes: d.u64()?,
            total_queue_delay: d.u64()?,
            max_queue_depth: d.u64()? as usize,
        };
        Ok(())
    }
}

/// Places memory controllers on a mesh: `1` puts one in the lower-left corner
/// (the paper's SPLASH configuration), `5` puts one in each corner plus the
/// centre (the Figure 11 comparison point).
pub fn default_mc_placement(width: usize, height: usize, count: usize) -> Vec<NodeId> {
    let at = |x: usize, y: usize| NodeId::from(y * width + x);
    match count {
        0 => Vec::new(),
        1 => vec![at(0, 0)],
        2 => vec![at(0, 0), at(width - 1, height - 1)],
        4 => vec![
            at(0, 0),
            at(width - 1, 0),
            at(0, height - 1),
            at(width - 1, height - 1),
        ],
        _ => {
            let mut v = vec![
                at(0, 0),
                at(width - 1, 0),
                at(0, height - 1),
                at(width - 1, height - 1),
                at(width / 2, height / 2),
            ];
            v.truncate(count);
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::config::NetworkConfig;
    use hornet_net::flit::Packet;
    use hornet_net::geometry::Geometry;
    use hornet_net::ids::PacketId;
    use hornet_net::network::Network;
    use hornet_net::routing::FlowSpec;

    /// An agent that sends a few DRAM reads to the MC and collects replies.
    struct Requester {
        mc: NodeId,
        to_send: u32,
        got: u32,
        node_count: usize,
    }
    impl NodeAgent for Requester {
        fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
            while let Some(d) = io.try_recv() {
                if matches!(
                    MemMessage::decode(&d.packet.payload),
                    Some(MemMessage::DramReadResp { .. })
                ) {
                    self.got += 1;
                }
            }
            if self.to_send > 0 {
                let id = io.alloc_packet_id();
                let src = io.node();
                let msg = MemMessage::DramRead {
                    line: self.to_send as u64,
                    requester: src,
                };
                io.send(msg.to_packet(id, src, self.mc, self.node_count, 2, 8));
                self.to_send -= 1;
            }
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            (self.to_send > 0).then_some(now + 1)
        }
        fn finished(&self) -> bool {
            self.to_send == 0 && self.got > 0
        }
    }

    #[test]
    fn default_placement_counts() {
        assert_eq!(default_mc_placement(8, 8, 1), vec![NodeId::new(0)]);
        assert_eq!(default_mc_placement(8, 8, 5).len(), 5);
        assert_eq!(default_mc_placement(8, 8, 4).len(), 4);
        assert!(default_mc_placement(8, 8, 0).is_empty());
    }

    #[test]
    fn controller_replies_to_requests_over_the_network() {
        let g = Geometry::mesh2d(3, 3);
        let flows = FlowSpec::all_to_all(&g);
        let cfg = NetworkConfig::new(g).with_flows(flows);
        let mut net = Network::new(&cfg, 5).unwrap();
        let mc = NodeId::new(0);
        net.attach_agent(
            mc,
            Box::new(MemoryControllerAgent::new(
                mc,
                9,
                MemoryControllerConfig {
                    dram_latency: 10,
                    ..MemoryControllerConfig::default()
                },
            )),
        );
        net.attach_agent(
            NodeId::new(8),
            Box::new(Requester {
                mc,
                to_send: 3,
                got: 0,
                node_count: 9,
            }),
        );
        assert!(net.run_to_completion(5_000));
        let stats = net.stats();
        // 3 requests + 3 responses crossed the network.
        assert_eq!(stats.delivered_packets, 6);
    }

    #[test]
    fn queueing_delay_grows_when_oversubscribed() {
        // Feed the MC directly (no network) through a mock IO and check that
        // the queue model reports delay when many requests arrive at once.
        struct MockIo {
            cycle: Cycle,
            inbox: VecDeque<hornet_net::flit::DeliveredPacket>,
            sent: Vec<Packet>,
            next: u64,
        }
        impl NodeIo for MockIo {
            fn node(&self) -> NodeId {
                NodeId::new(0)
            }
            fn cycle(&self) -> Cycle {
                self.cycle
            }
            fn alloc_packet_id(&mut self) -> PacketId {
                self.next += 1;
                PacketId::new(self.next)
            }
            fn send(&mut self, packet: Packet) {
                self.sent.push(packet);
            }
            fn try_recv(&mut self) -> Option<hornet_net::flit::DeliveredPacket> {
                self.inbox.pop_front()
            }
            fn peek_recv(&self) -> Option<&hornet_net::flit::DeliveredPacket> {
                self.inbox.front()
            }
            fn injection_backlog(&self) -> usize {
                0
            }
            fn recv_backlog(&self) -> usize {
                self.inbox.len()
            }
        }
        let mut mc =
            MemoryControllerAgent::new(NodeId::new(0), 4, MemoryControllerConfig::default());
        let mut io = MockIo {
            cycle: 0,
            inbox: VecDeque::new(),
            sent: Vec::new(),
            next: 0,
        };
        // Ten simultaneous requests.
        for i in 0..10u64 {
            let msg = MemMessage::DramRead {
                line: i,
                requester: NodeId::new(3),
            };
            let packet = msg.to_packet(PacketId::new(i), NodeId::new(3), NodeId::new(0), 4, 2, 8);
            io.inbox.push_back(hornet_net::flit::DeliveredPacket {
                packet,
                delivered_at: 0,
                head_latency: 0,
                tail_latency: 0,
                hops: 0,
            });
        }
        let mut rng = TileRng::seed_from_u64(0);
        for cycle in 0..200 {
            io.cycle = cycle;
            mc.tick(&mut io, &mut rng);
        }
        assert_eq!(mc.stats().reads, 10);
        assert_eq!(io.sent.len(), 10);
        assert!(
            mc.stats().total_queue_delay > 0,
            "bandwidth limit must queue"
        );
        assert!(mc.finished());
    }
}
