//! The agent abstraction: anything that can be attached to a tile and produce
//! or consume network traffic — trace-driven injectors, synthetic pattern
//! generators, cycle-level CPU cores, memory controllers, directories.
//!
//! A common bridge presents agents with a simple packet interface
//! ([`NodeIo`]); the details of flit framing, DMA, and retransmission live in
//! [`Bridge`](crate::bridge::Bridge), which facilitates development of new
//! agent (core) types, exactly as described in the paper (§II-D).

use crate::codec::{Dec, Enc};
use crate::flit::{DeliveredPacket, Packet};
use crate::ids::{Cycle, NodeId, PacketId};
use crate::rng::TileRng;

/// The per-cycle interface an agent uses to talk to the network.
pub trait NodeIo {
    /// The node this agent is attached to.
    fn node(&self) -> NodeId;

    /// The current cycle (the tile's local clock).
    fn cycle(&self) -> Cycle;

    /// Allocates a fresh, simulation-unique packet identifier.
    fn alloc_packet_id(&mut self) -> PacketId;

    /// Queues a packet for injection into the network. Injection is subject to
    /// backpressure; the packet may enter the network several cycles later.
    /// The packet's source must be [`node`](Self::node): a tile injects its
    /// own packets only, and panics with
    /// [`ForeignSource`](crate::bridge::ForeignSource) on another node's.
    fn send(&mut self, packet: Packet);

    /// Takes the next packet delivered to this node, if any.
    fn try_recv(&mut self) -> Option<DeliveredPacket>;

    /// Peeks at the next delivered packet without consuming it.
    fn peek_recv(&self) -> Option<&DeliveredPacket>;

    /// Number of packets queued at the injector and not yet fully in the
    /// network (backpressure signal).
    fn injection_backlog(&self) -> usize;

    /// Number of delivered packets waiting to be received.
    fn recv_backlog(&self) -> usize;
}

/// A traffic-producing or -consuming entity attached to one tile.
///
/// Agents are stepped once per simulated cycle by the tile that owns them; the
/// tile also owns a private PRNG which is passed in so that simulations remain
/// reproducible under any thread mapping.
pub trait NodeAgent: Send {
    /// Advances the agent by one cycle. The agent may inspect delivered
    /// packets and queue new ones through `io`.
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng);

    /// The next cycle at which this agent will want to inject traffic or do
    /// work, if it is currently idle. Used for fast-forwarding: when every
    /// agent and every router in the system is idle, the engine advances the
    /// clock to the earliest `next_event` across all tiles.
    ///
    /// `None` means the agent has no future work of its own (it may still
    /// react to packets delivered to it).
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// True once the agent has completed its workload. A simulation driven by
    /// `run_to_completion` ends when every agent is finished and the network
    /// has drained.
    fn finished(&self) -> bool;

    /// A short human-readable label for reports.
    fn label(&self) -> &str {
        "agent"
    }

    /// Serializes the agent's state into a checkpoint. The default writes
    /// nothing, which is correct only for stateless agents; every agent
    /// carrying workload state (counters, protocol machines, queues) must
    /// override both this and [`restore`](Self::restore) or a restored run
    /// will diverge from an uninterrupted one.
    fn snapshot(&self, e: &mut Enc) {
        let _ = e;
    }

    /// Restores the state written by [`snapshot`](Self::snapshot). The tile
    /// frames each agent's bytes, so an agent only ever sees its own record.
    fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        let _ = d;
        Ok(())
    }
}

/// A no-op agent: consumes delivered packets and never injects. Useful as the
/// sink on nodes that only receive traffic.
#[derive(Debug, Default, Clone)]
pub struct SinkAgent {
    received: u64,
}

impl SinkAgent {
    /// Creates a sink agent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packets this sink has consumed.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl NodeAgent for SinkAgent {
    fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
        while io.try_recv().is_some() {
            self.received += 1;
        }
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn finished(&self) -> bool {
        true
    }

    fn label(&self) -> &str {
        "sink"
    }

    fn snapshot(&self, e: &mut Enc) {
        e.u64(self.received);
    }

    fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        self.received = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Payload;
    use crate::ids::FlowId;
    use std::collections::VecDeque;

    /// Minimal in-memory NodeIo for unit-testing agents without a network.
    #[derive(Debug, Default)]
    pub struct MockIo {
        pub node: u32,
        pub cycle: Cycle,
        pub sent: Vec<Packet>,
        pub inbox: VecDeque<DeliveredPacket>,
        next_id: u64,
    }

    impl NodeIo for MockIo {
        fn node(&self) -> NodeId {
            NodeId::new(self.node)
        }
        fn cycle(&self) -> Cycle {
            self.cycle
        }
        fn alloc_packet_id(&mut self) -> PacketId {
            self.next_id += 1;
            PacketId::new(self.next_id)
        }
        fn send(&mut self, packet: Packet) {
            self.sent.push(packet);
        }
        fn try_recv(&mut self) -> Option<DeliveredPacket> {
            self.inbox.pop_front()
        }
        fn peek_recv(&self) -> Option<&DeliveredPacket> {
            self.inbox.front()
        }
        fn injection_backlog(&self) -> usize {
            0
        }
        fn recv_backlog(&self) -> usize {
            self.inbox.len()
        }
    }

    fn delivered(id: u64) -> DeliveredPacket {
        let p = Packet::new(
            PacketId::new(id),
            FlowId::new(0),
            NodeId::new(1),
            NodeId::new(0),
            1,
            0,
        )
        .with_payload(Payload::empty());
        DeliveredPacket {
            packet: p,
            delivered_at: 10,
            head_latency: 5,
            tail_latency: 5,
            hops: 2,
        }
    }

    #[test]
    fn sink_agent_consumes_everything() {
        let mut sink = SinkAgent::new();
        let mut io = MockIo::default();
        io.inbox.push_back(delivered(1));
        io.inbox.push_back(delivered(2));
        let mut rng = TileRng::seed_from_u64(0);
        sink.tick(&mut io, &mut rng);
        assert_eq!(sink.received(), 2);
        assert_eq!(io.recv_backlog(), 0);
        assert!(sink.finished());
        assert_eq!(sink.next_event(0), None);
        assert_eq!(sink.label(), "sink");
    }
}
