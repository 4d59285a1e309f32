//! Trace-driven injection.
//!
//! HORNET's trace injector reads a text-format trace of injection events; each
//! event carries a timestamp, the flow identifier, the packet size, and
//! optionally a repeat period for periodic flows. The injector offers packets
//! to the network at the appropriate times, buffering them in an injector
//! queue if the network cannot accept them and retrying until they are
//! injected; delivered packets are discarded.

use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::flit::Packet;
use hornet_net::ids::{Cycle, FlowId, NodeId};
use hornet_net::rng::TileRng;
use std::str::FromStr;

/// One injection event of a trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the packet is offered to the network.
    pub timestamp: Cycle,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet size in flits.
    pub size: u32,
    /// Repeat period for periodic flows (`None` = one-shot event).
    pub period: Option<Cycle>,
}

impl TraceEvent {
    /// Formats the event as one line of the text trace format:
    /// `timestamp src dst size [period]`.
    pub fn to_line(&self) -> String {
        match self.period {
            Some(p) => format!(
                "{} {} {} {} {}",
                self.timestamp,
                self.src.index(),
                self.dst.index(),
                self.size,
                p
            ),
            None => format!(
                "{} {} {} {}",
                self.timestamp,
                self.src.index(),
                self.dst.index(),
                self.size
            ),
        }
    }
}

/// Errors produced when parsing a trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// The offending line.
    pub line: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid trace line `{}`: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for TraceEvent {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields: Vec<&str> = s.split_whitespace().collect();
        if fields.len() != 4 && fields.len() != 5 {
            return Err(ParseTraceError {
                line: s.to_string(),
                reason: "expected `timestamp src dst size [period]`",
            });
        }
        let parse = |i: usize| -> Result<u64, ParseTraceError> {
            fields[i].parse().map_err(|_| ParseTraceError {
                line: s.to_string(),
                reason: "non-numeric field",
            })
        };
        Ok(TraceEvent {
            timestamp: parse(0)?,
            src: NodeId::from(parse(1)? as usize),
            dst: NodeId::from(parse(2)? as usize),
            size: parse(3)? as u32,
            period: if fields.len() == 5 {
                Some(parse(4)?)
            } else {
                None
            },
        })
    }
}

/// A complete trace: a list of injection events, sorted by timestamp.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace from events (sorting them by timestamp).
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.timestamp);
        Self { events }
    }

    /// Parses the text trace format (one event per line, `#` comments and
    /// blank lines allowed).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line encountered.
    pub fn parse(text: &str) -> Result<Self, ParseTraceError> {
        let mut events = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            events.push(line.parse()?);
        }
        Ok(Self::new(events))
    }

    /// Renders the trace back to its text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// The events, sorted by timestamp.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Splits the trace into per-source-node traces (the per-tile injectors).
    pub fn split_by_source(&self, node_count: usize) -> Vec<Trace> {
        let mut per_node = vec![Vec::new(); node_count];
        for e in &self.events {
            if e.src.index() < node_count {
                per_node[e.src.index()].push(*e);
            }
        }
        per_node.into_iter().map(Trace::new).collect()
    }

    /// All (src, dst) pairs appearing in the trace, for routing-table
    /// construction.
    pub fn flow_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .events
            .iter()
            .filter(|e| e.src != e.dst)
            .map(|e| (e.src, e.dst))
            .collect();
        pairs.sort();
        pairs.dedup();
        pairs
    }

    /// Scales every timestamp by an integer factor; the paper runs the
    /// SPLASH-2 traces with the CPU clock 10× faster than the network clock,
    /// which corresponds to *dividing* CPU-cycle timestamps by 10 (factor
    /// applied as a rational `num/den`).
    pub fn rescale_time(&self, num: u64, den: u64) -> Trace {
        assert!(den > 0, "denominator must be non-zero");
        Trace::new(
            self.events
                .iter()
                .map(|e| TraceEvent {
                    timestamp: e.timestamp * num / den,
                    ..*e
                })
                .collect(),
        )
    }

    /// Last event timestamp, or 0 for an empty trace.
    pub fn horizon(&self) -> Cycle {
        self.events.last().map(|e| e.timestamp).unwrap_or(0)
    }
}

/// A trace-driven injector agent for one node: offers the node's events at the
/// right times (retrying under backpressure via the bridge's injector queue)
/// and discards packets delivered to the node.
#[derive(Debug)]
pub struct TraceInjector {
    node_count: usize,
    events: Vec<TraceEvent>,
    /// Index of the next event to offer.
    cursor: usize,
    /// Expanded periodic events: (next_fire, event index).
    periodic: Vec<(Cycle, usize)>,
    /// Stop repeating periodic events after this cycle.
    periodic_horizon: Cycle,
    offered: u64,
    received: u64,
}

impl TraceInjector {
    /// Creates an injector for the events of one source node (see
    /// [`Trace::split_by_source`]); a tile panics with the bridge's
    /// `ForeignSource` error when asked to send an event from another node.
    ///
    /// Periodic events repeat until `periodic_horizon`.
    pub fn new(trace: Trace, node_count: usize, periodic_horizon: Cycle) -> Self {
        let events = trace.events().to_vec();
        let periodic = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.period.is_some())
            .map(|(i, e)| (e.timestamp, i))
            .collect();
        Self {
            node_count,
            events,
            cursor: 0,
            periodic,
            periodic_horizon,
            offered: 0,
            received: 0,
        }
    }

    /// Packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets received (and discarded) so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    fn offer(&mut self, e: TraceEvent, io: &mut dyn NodeIo) {
        if e.src == e.dst || e.size == 0 {
            return;
        }
        let id = io.alloc_packet_id();
        let flow = FlowId::for_pair(e.src, e.dst, self.node_count);
        io.send(Packet::new(id, flow, e.src, e.dst, e.size));
        self.offered += 1;
    }
}

impl NodeAgent for TraceInjector {
    fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
        let now = io.cycle();
        while io.try_recv().is_some() {
            self.received += 1;
        }
        // One-shot events whose time has come.
        while self.cursor < self.events.len() && self.events[self.cursor].timestamp <= now {
            let e = self.events[self.cursor];
            self.cursor += 1;
            if e.period.is_none() {
                self.offer(e, io);
            }
        }
        // Periodic events.
        for i in 0..self.periodic.len() {
            let (next_fire, idx) = self.periodic[i];
            if next_fire <= now && next_fire <= self.periodic_horizon {
                let e = self.events[idx];
                self.offer(e, io);
                let period = e.period.unwrap_or(1).max(1);
                self.periodic[i].0 = next_fire + period;
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        if self.cursor < self.events.len() {
            next = Some(self.events[self.cursor].timestamp);
        }
        for (fire, _) in &self.periodic {
            if *fire <= self.periodic_horizon {
                next = Some(next.map_or(*fire, |n| n.min(*fire)));
            }
        }
        next.map(|n| n.max(now))
    }

    fn finished(&self) -> bool {
        self.cursor >= self.events.len()
            && self
                .periodic
                .iter()
                .all(|(fire, _)| *fire > self.periodic_horizon)
    }

    fn label(&self) -> &str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_line_roundtrip() {
        let e = TraceEvent {
            timestamp: 100,
            src: NodeId::new(3),
            dst: NodeId::new(7),
            size: 8,
            period: None,
        };
        let parsed: TraceEvent = e.to_line().parse().unwrap();
        assert_eq!(parsed, e);
        let p = TraceEvent {
            period: Some(50),
            ..e
        };
        let parsed: TraceEvent = p.to_line().parse().unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!("1 2 3".parse::<TraceEvent>().is_err());
        assert!("a b c d".parse::<TraceEvent>().is_err());
        assert!("1 2 3 4 5 6".parse::<TraceEvent>().is_err());
    }

    #[test]
    fn trace_parse_skips_comments_and_sorts() {
        let text = "# a comment\n\n20 0 1 4\n10 1 0 8\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].timestamp, 10);
        assert_eq!(trace.horizon(), 20);
        let round = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(round, trace);
    }

    #[test]
    fn split_by_source_partitions_events() {
        let trace = Trace::new(vec![
            TraceEvent {
                timestamp: 1,
                src: NodeId::new(0),
                dst: NodeId::new(1),
                size: 1,
                period: None,
            },
            TraceEvent {
                timestamp: 2,
                src: NodeId::new(1),
                dst: NodeId::new(0),
                size: 1,
                period: None,
            },
            TraceEvent {
                timestamp: 3,
                src: NodeId::new(0),
                dst: NodeId::new(2),
                size: 1,
                period: None,
            },
        ]);
        let per_node = trace.split_by_source(3);
        assert_eq!(per_node[0].len(), 2);
        assert_eq!(per_node[1].len(), 1);
        assert_eq!(per_node[2].len(), 0);
        assert_eq!(trace.flow_pairs().len(), 3);
    }

    #[test]
    fn rescale_time_divides_timestamps() {
        let trace = Trace::new(vec![TraceEvent {
            timestamp: 100,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            size: 1,
            period: None,
        }]);
        let scaled = trace.rescale_time(1, 10);
        assert_eq!(scaled.events()[0].timestamp, 10);
    }

    #[test]
    fn trace_injector_replays_on_a_network() {
        use hornet_net::config::NetworkConfig;
        use hornet_net::geometry::Geometry;
        use hornet_net::network::Network;
        use hornet_net::routing::FlowSpec;

        let trace = Trace::new(vec![
            TraceEvent {
                timestamp: 0,
                src: NodeId::new(0),
                dst: NodeId::new(3),
                size: 4,
                period: None,
            },
            TraceEvent {
                timestamp: 5,
                src: NodeId::new(0),
                dst: NodeId::new(3),
                size: 4,
                period: None,
            },
            TraceEvent {
                timestamp: 0,
                src: NodeId::new(3),
                dst: NodeId::new(0),
                size: 2,
                period: Some(20),
            },
        ]);
        let flows: Vec<FlowSpec> = trace
            .flow_pairs()
            .into_iter()
            .map(|(s, d)| FlowSpec::pair(s, d, 4))
            .collect();
        let cfg = NetworkConfig::new(Geometry::mesh2d(2, 2)).with_flows(flows);
        let mut net = Network::new(&cfg, 9).unwrap();
        for (i, t) in trace.split_by_source(4).into_iter().enumerate() {
            net.attach_agent(NodeId::from(i), Box::new(TraceInjector::new(t, 4, 60)));
        }
        assert!(net.run_to_completion(10_000));
        let stats = net.stats();
        // 2 one-shot events + periodic at cycles 0,20,40,60 = 4 -> 6 packets.
        assert_eq!(stats.delivered_packets, 6);
    }
}
