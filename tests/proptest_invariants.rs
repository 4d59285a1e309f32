//! Property-based tests of the core data-structure and protocol invariants.

use hornet::mem::cache::{Cache, CacheConfig, LineState};
use hornet::mem::directory::{DirState, DirectorySlice};
use hornet::mem::msg::MemMessage;
use hornet::net::flit::Packet;
use hornet::net::geometry::Geometry;
use hornet::net::ids::NodeId;
use hornet::net::ids::{FlowId, PacketId};
use hornet::net::routing::{build_routing, trace_route, FlowSpec, RoutingKind};
use hornet::net::vcbuf::VcBuffer;
use hornet::traffic::trace::{Trace, TraceEvent};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every routing scheme delivers every flow over links that exist, for
    /// random mesh sizes and random flow subsets.
    #[test]
    fn routing_always_reaches_the_destination(
        width in 2usize..6,
        height in 2usize..6,
        pairs in proptest::collection::vec((0usize..36, 0usize..36), 1..20),
        kind_idx in 0usize..6,
    ) {
        let geometry = Geometry::mesh2d(width, height);
        let n = geometry.node_count();
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| FlowSpec::pair(NodeId::from(a), NodeId::from(b), n))
            .collect();
        prop_assume!(!flows.is_empty());
        let kinds = [
            RoutingKind::Xy,
            RoutingKind::Yx,
            RoutingKind::O1Turn,
            RoutingKind::Romm,
            RoutingKind::Prom,
            RoutingKind::StaticLoadBalanced,
        ];
        let policies = build_routing(kinds[kind_idx], &geometry, &flows);
        for f in &flows {
            let path = trace_route(&policies, f.src, f.dst, f.flow, 4 * (width + height))
                .expect("route exists");
            prop_assert_eq!(*path.last().unwrap(), f.dst);
            for w in path.windows(2) {
                prop_assert!(geometry.connected(w[0], w[1]));
            }
        }
    }

    /// The VC buffer never exceeds its capacity, never loses flits, and
    /// preserves FIFO order for any interleaving of pushes and pops.
    #[test]
    fn vc_buffer_is_a_bounded_fifo(
        capacity in 1usize..8,
        ops in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let packet = Packet::new(
            PacketId::new(1),
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            1,
        );
        let template = packet.to_flits(0)[0];
        let buf = VcBuffer::new(capacity);
        let mut pushed = 0u32;
        let mut popped = 0u32;
        for push in ops {
            if push {
                let mut flit = template;
                flit.seq = pushed;
                if buf.push(flit) {
                    pushed += 1;
                }
            } else {
                buf.absorb_tail();
                if let Some(f) = buf.pop_if(u64::MAX, |_| true) {
                    prop_assert_eq!(f.seq, popped, "FIFO order violated");
                    popped += 1;
                }
            }
            prop_assert!(buf.occupancy() <= capacity);
            prop_assert_eq!(buf.occupancy() as u32, pushed - popped);
        }
    }

    /// The fixed-capacity ring storage behind `VcBuffer` behaves exactly like
    /// a capacity-bounded two-segment `VecDeque` reference model under any
    /// sequence of push / absorb / pop_if / drain operations: same accept
    /// decisions, same absorb counts, same popped values, same occupancy and
    /// head lengths.
    #[test]
    fn vc_ring_matches_vecdeque_reference(
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u8..8, any::<bool>()), 1..200),
    ) {
        use std::collections::VecDeque;
        let packet = Packet::new(
            PacketId::new(1),
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            1,
        );
        let template = packet.to_flits(0)[0];
        let buf = VcBuffer::new(capacity);
        // Reference model: `pending` holds deposited-but-unabsorbed flits,
        // `absorbed` the ones visible to the consumer.
        let mut pending: VecDeque<u32> = VecDeque::new();
        let mut absorbed: VecDeque<u32> = VecDeque::new();
        let mut next_seq = 0u32;
        for (op, flag) in ops {
            match op {
                // Push (weighted 3/8 so buffers actually fill up).
                0..=2 => {
                    let mut flit = template;
                    flit.seq = next_seq;
                    let accepted = buf.push(flit);
                    let model_accepts = pending.len() + absorbed.len() < capacity;
                    prop_assert_eq!(accepted, model_accepts, "push decision diverged");
                    if accepted {
                        pending.push_back(next_seq);
                        next_seq += 1;
                    }
                }
                // Absorb: every pending flit becomes visible, and the count
                // is reported (the absorbed-flit statistic).
                3 => {
                    let n = buf.absorb_tail();
                    prop_assert_eq!(n, pending.len(), "absorb count diverged");
                    absorbed.extend(pending.drain(..));
                }
                // Pop with a predicate that accepts or rejects the head.
                4..=6 => {
                    let popped = buf.pop_if(u64::MAX, |_| flag);
                    let model_pops = flag && !absorbed.is_empty();
                    prop_assert_eq!(popped.is_some(), model_pops, "pop decision diverged");
                    if let Some(f) = popped {
                        let expect = absorbed.pop_front().unwrap();
                        prop_assert_eq!(f.seq, expect, "pop order diverged");
                    }
                }
                // Drain everything (teardown path), absorbed before pending.
                _ => {
                    let drained: Vec<u32> = buf.drain_all().iter().map(|f| f.seq).collect();
                    let expect: Vec<u32> =
                        absorbed.drain(..).chain(pending.drain(..)).collect();
                    prop_assert_eq!(drained, expect, "drain order diverged");
                }
            }
            prop_assert_eq!(buf.occupancy(), pending.len() + absorbed.len());
            prop_assert_eq!(buf.head_len(), absorbed.len());
            let head = buf.peek(u64::MAX).map(|f| f.seq);
            prop_assert_eq!(head, absorbed.front().copied(), "peek diverged");
        }
    }

    /// Cache occupancy never exceeds its configured capacity and lookups
    /// after insertion always hit.
    #[test]
    fn cache_respects_capacity(
        lines in proptest::collection::vec(0u64..64, 1..100),
    ) {
        let config = CacheConfig { sets: 4, ways: 2, line_bytes: 64 };
        let mut cache = Cache::new(config);
        for &line in &lines {
            cache.insert(line, LineState::Shared, line);
            prop_assert!(cache.len() <= config.sets * config.ways);
            prop_assert_eq!(cache.peek(line), Some((LineState::Shared, line)));
        }
    }

    /// The directory never records two owners, and a modified owner excludes
    /// sharers, under any interleaving of GetS/GetM requests (each fetch or
    /// invalidation answered immediately).
    #[test]
    fn msi_directory_single_writer_invariant(
        requests in proptest::collection::vec((0u64..4, 0u32..4, any::<bool>()), 1..60),
    ) {
        let mut dir = DirectorySlice::new();
        let (mut out, mut answers) = (Vec::new(), Vec::new());
        for (line, node, exclusive) in requests {
            let requester = NodeId::new(node);
            if exclusive {
                dir.handle_into(MemMessage::GetM { line, requester }, &mut out);
            } else {
                dir.handle_into(MemMessage::GetS { line, requester }, &mut out);
            }
            for o in out.drain(..) {
                match o.msg {
                    MemMessage::Fetch { line, .. } => {
                        dir.handle_into(MemMessage::PutM { line, value: 0, from: o.dst }, &mut answers);
                    }
                    MemMessage::Invalidate { line } => {
                        dir.handle_into(MemMessage::InvAck { line, from: o.dst }, &mut answers);
                    }
                    _ => {}
                }
            }
            match dir.state_of(line) {
                DirState::Modified(_) | DirState::Uncached => {}
                DirState::Shared(sharers) => prop_assert!(!sharers.is_empty()),
            }
        }
    }

    /// The text trace format round-trips for arbitrary events.
    #[test]
    fn trace_text_format_roundtrips(
        events in proptest::collection::vec(
            (0u64..1_000_000, 0usize..64, 0usize..64, 1u32..32, proptest::option::of(1u64..10_000)),
            0..50,
        ),
    ) {
        let trace = Trace::new(
            events
                .into_iter()
                .map(|(t, s, d, size, period)| TraceEvent {
                    timestamp: t,
                    src: NodeId::from(s),
                    dst: NodeId::from(d),
                    size,
                    period,
                })
                .collect(),
        );
        let parsed = Trace::parse(&trace.to_text()).expect("round-trips");
        prop_assert_eq!(parsed, trace);
    }

    /// Flit conservation: for random loads, every injected packet is either
    /// delivered or still buffered when the run stops; nothing is duplicated
    /// or silently dropped.
    #[test]
    fn flit_conservation_under_random_load(rate in 0.001f64..0.08, seed in 0u64..1000) {
        use hornet::prelude::*;
        use hornet::traffic::pattern::SyntheticPattern;
        let report = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(3, 3))
            .traffic(TrafficKind::pattern(SyntheticPattern::UniformRandom, rate))
            .measured_cycles(800)
            .seed(seed)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let stats = &report.network;
        prop_assert!(stats.delivered_flits <= stats.injected_flits);
        prop_assert_eq!(stats.routing_failures, 0);
        prop_assert!(stats.delivered_packets <= stats.injected_packets);
        // Whatever was not delivered is bounded by what the network can hold.
        let undelivered = stats.injected_flits - stats.delivered_flits;
        let max_in_flight = 9 * (4 * 4 * 5 + 4 * 8) as u64; // buffers per node
        prop_assert!(undelivered <= max_in_flight, "undelivered {undelivered}");
    }
}
