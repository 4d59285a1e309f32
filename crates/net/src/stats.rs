//! Statistics collection.
//!
//! Each tile keeps its own private statistics structure (no sharing between
//! threads); most measurements travel inside the flits themselves (see
//! [`FlitStats`](crate::flit::FlitStats)) and are folded into the per-tile
//! counters at delivery time. A final `merge` across tiles produces the
//! network-wide report.

use crate::ids::{Cycle, FlowId};
use std::collections::HashMap;

/// Event counters that also drive the dynamic power model (buffer accesses,
/// crossbar transits, link traversals, arbitration operations).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into a VC buffer.
    pub buffer_writes: u64,
    /// Flits read out of a VC buffer.
    pub buffer_reads: u64,
    /// Flits that crossed the crossbar.
    pub crossbar_transits: u64,
    /// Flits that traversed an inter-router link.
    pub link_flits: u64,
    /// Switch/VC arbitration operations performed.
    pub arbitrations: u64,
}

impl RouterActivity {
    /// Adds another activity record into this one.
    pub fn merge(&mut self, other: &RouterActivity) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_transits += other.crossbar_transits;
        self.link_flits += other.link_flits;
        self.arbitrations += other.arbitrations;
    }
}

/// Per-flow delivery record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowRecord {
    /// Packets delivered for this flow.
    pub packets: u64,
    /// Flits delivered for this flow.
    pub flits: u64,
    /// Sum of per-packet (tail-flit) latencies.
    pub total_packet_latency: u64,
}

/// Statistics kept by one tile (router + attached agents).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Packets agents handed to the tile for sending (`NodeIo::send`), whether
    /// or not they have entered the network yet.
    pub offered_packets: u64,
    /// Packets whose first flit entered a router ingress buffer.
    pub injected_packets: u64,
    /// Flits injected into the network.
    pub injected_flits: u64,
    /// Packets fully delivered (tail flit ejected).
    pub delivered_packets: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Sum of in-network latencies over delivered flits.
    pub total_flit_latency: u64,
    /// Sum of in-network latencies over delivered packets (tail flit).
    pub total_packet_latency: u64,
    /// Sum of head-flit latencies over delivered packets.
    pub total_head_latency: u64,
    /// Sum of hop counts over delivered packets.
    pub total_hops: u64,
    /// Packets dropped because no routing-table entry matched.
    pub routing_failures: u64,
    /// Router activity counters (drive the power model).
    pub activity: RouterActivity,
    /// Number of cycles this tile actually simulated (excludes fast-forwarded
    /// cycles).
    pub simulated_cycles: u64,
    /// Number of cycles skipped by fast-forwarding.
    pub fast_forwarded_cycles: u64,
    /// Cycles in which at least one flit was buffered in this router.
    /// Sampled from the router's O(1) aggregate occupancy counter at each
    /// positive edge (not by scanning the VC buffers).
    pub busy_cycles: u64,
    /// Per-flow delivery records.
    pub per_flow: HashMap<u64, FlowRecord>,
    /// Log₂-bucketed packet-latency histogram: bucket `i` counts delivered
    /// packets whose tail-flit latency `l` satisfies `2^i ≤ l < 2^(i+1)`
    /// (bucket 0 also counts `l = 0`). Bit-identical parallel runs must
    /// reproduce this histogram exactly, which makes it the cheapest strong
    /// fingerprint of the full latency distribution.
    pub latency_histogram: Vec<u64>,
    /// Highest cycle this tile has simulated.
    pub last_cycle: Cycle,
}

/// Number of log₂ latency buckets (covers latencies up to 2^31 cycles).
pub const LATENCY_BUCKETS: usize = 32;

/// The histogram bucket for a packet latency.
fn latency_bucket(latency: u64) -> usize {
    ((64 - latency.max(1).leading_zeros() as usize) - 1).min(LATENCY_BUCKETS - 1)
}

impl NetworkStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the delivery of a packet whose tail flit had the given
    /// accumulated latency, head latency, hop count and flit count.
    ///
    /// Flit-level counters (`delivered_flits`, `total_flit_latency`) are *not*
    /// touched here — the router updates them as each flit leaves the network,
    /// so that packet reassembly and flit accounting stay independent.
    pub fn record_delivery(
        &mut self,
        flow: FlowId,
        flits: u64,
        head_latency: u64,
        tail_latency: u64,
        hops: u32,
    ) {
        self.delivered_packets += 1;
        self.total_packet_latency += tail_latency;
        self.total_head_latency += head_latency;
        self.total_hops += hops as u64;
        if self.latency_histogram.is_empty() {
            self.latency_histogram = vec![0; LATENCY_BUCKETS];
        }
        self.latency_histogram[latency_bucket(tail_latency)] += 1;
        let rec = self.per_flow.entry(flow.base()).or_default();
        rec.packets += 1;
        rec.flits += flits;
        rec.total_packet_latency += tail_latency;
    }

    /// Average in-network packet latency (tail flit), in cycles.
    pub fn avg_packet_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.delivered_packets as f64
        }
    }

    /// Average in-network flit latency, in cycles.
    pub fn avg_flit_latency(&self) -> f64 {
        if self.delivered_flits == 0 {
            0.0
        } else {
            self.total_flit_latency as f64 / self.delivered_flits as f64
        }
    }

    /// Average hop count of delivered packets.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered_packets as f64
        }
    }

    /// Delivered-packet throughput in packets per simulated cycle.
    pub fn throughput(&self) -> f64 {
        if self.last_cycle == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / self.last_cycle as f64
        }
    }

    /// Merges another tile's statistics into this one (cycle counters take the
    /// maximum; everything else sums).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.offered_packets += other.offered_packets;
        self.injected_packets += other.injected_packets;
        self.injected_flits += other.injected_flits;
        self.delivered_packets += other.delivered_packets;
        self.delivered_flits += other.delivered_flits;
        self.total_flit_latency += other.total_flit_latency;
        self.total_packet_latency += other.total_packet_latency;
        self.total_head_latency += other.total_head_latency;
        self.total_hops += other.total_hops;
        self.routing_failures += other.routing_failures;
        self.activity.merge(&other.activity);
        self.simulated_cycles = self.simulated_cycles.max(other.simulated_cycles);
        self.fast_forwarded_cycles = self.fast_forwarded_cycles.max(other.fast_forwarded_cycles);
        self.busy_cycles += other.busy_cycles;
        self.last_cycle = self.last_cycle.max(other.last_cycle);
        for (flow, rec) in &other.per_flow {
            let mine = self.per_flow.entry(*flow).or_default();
            mine.packets += rec.packets;
            mine.flits += rec.flits;
            mine.total_packet_latency += rec.total_packet_latency;
        }
        if !other.latency_histogram.is_empty() {
            if self.latency_histogram.is_empty() {
                self.latency_histogram = vec![0; LATENCY_BUCKETS];
            }
            for (mine, theirs) in self
                .latency_histogram
                .iter_mut()
                .zip(&other.latency_histogram)
            {
                *mine += *theirs;
            }
        }
    }

    /// Relative difference between this record's average packet latency and a
    /// reference (used to report the accuracy of loosely-synchronized runs
    /// against the cycle-accurate baseline, as in Figure 6b).
    pub fn latency_accuracy_vs(&self, reference: &NetworkStats) -> f64 {
        let a = self.avg_packet_latency();
        let b = reference.avg_packet_latency();
        if b == 0.0 {
            return if a == 0.0 { 1.0 } else { 0.0 };
        }
        1.0 - ((a - b).abs() / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_start_at_zero() {
        let s = NetworkStats::new();
        assert_eq!(s.avg_packet_latency(), 0.0);
        assert_eq!(s.avg_flit_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn record_delivery_updates_counters() {
        let mut s = NetworkStats::new();
        s.record_delivery(FlowId::new(3), 8, 10, 20, 4);
        s.record_delivery(FlowId::new(3), 8, 12, 40, 6);
        assert_eq!(s.delivered_packets, 2);
        assert_eq!(s.per_flow[&3].flits, 16);
        assert_eq!(s.avg_packet_latency(), 30.0);
        assert_eq!(s.avg_hops(), 5.0);
        assert_eq!(s.per_flow[&3].packets, 2);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = NetworkStats::new();
        a.record_delivery(FlowId::new(1), 4, 5, 10, 2);
        a.simulated_cycles = 100;
        a.last_cycle = 100;
        let mut b = NetworkStats::new();
        b.record_delivery(FlowId::new(2), 4, 5, 30, 2);
        b.simulated_cycles = 90;
        b.last_cycle = 120;
        a.merge(&b);
        assert_eq!(a.delivered_packets, 2);
        assert_eq!(a.avg_packet_latency(), 20.0);
        assert_eq!(a.simulated_cycles, 100);
        assert_eq!(a.last_cycle, 120);
        assert_eq!(a.per_flow.len(), 2);
    }

    #[test]
    fn accuracy_is_one_for_identical_results() {
        let mut a = NetworkStats::new();
        a.record_delivery(FlowId::new(1), 1, 1, 10, 1);
        let b = a.clone();
        assert!((a.latency_accuracy_vs(&b) - 1.0).abs() < 1e-12);
        let mut c = NetworkStats::new();
        c.record_delivery(FlowId::new(1), 1, 1, 15, 1);
        let acc = c.latency_accuracy_vs(&a);
        assert!((acc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn activity_merges() {
        let mut a = RouterActivity {
            buffer_writes: 1,
            buffer_reads: 2,
            crossbar_transits: 3,
            link_flits: 4,
            arbitrations: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.buffer_writes, 2);
        assert_eq!(a.arbitrations, 10);
    }
}
