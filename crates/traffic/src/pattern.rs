//! Synthetic traffic patterns and injection processes.
//!
//! These are the standard destination patterns used throughout the NoC
//! literature (and in the paper's evaluation): transpose, bit-complement,
//! shuffle, uniform-random, hotspot, tornado and nearest-neighbour, combined
//! with Bernoulli, periodic or bursty injection processes.

use hornet_net::geometry::Geometry;
use hornet_net::ids::{Cycle, NodeId};
use hornet_net::rng::TileRng;

/// A synthetic destination pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum SyntheticPattern {
    /// Destination = transpose of the source's (x, y) mesh coordinates.
    Transpose,
    /// Destination = bitwise complement of the source index (modulo the node
    /// count).
    BitComplement,
    /// Destination = source index rotated left by one bit (perfect shuffle).
    Shuffle,
    /// Destination drawn uniformly at random among all other nodes.
    UniformRandom,
    /// All traffic heads to a fixed set of hotspot nodes (e.g. memory
    /// controllers), chosen uniformly among them.
    Hotspot(Vec<NodeId>),
    /// Destination = node half-way across the mesh in both dimensions.
    Tornado,
    /// Destination = right-hand neighbour (wrapping within the row).
    NearestNeighbor,
}

impl SyntheticPattern {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SyntheticPattern::Transpose => "transpose",
            SyntheticPattern::BitComplement => "bit-complement",
            SyntheticPattern::Shuffle => "shuffle",
            SyntheticPattern::UniformRandom => "uniform",
            SyntheticPattern::Hotspot(_) => "hotspot",
            SyntheticPattern::Tornado => "tornado",
            SyntheticPattern::NearestNeighbor => "neighbor",
        }
    }

    /// Computes the destination for a packet injected at `src`.
    ///
    /// Only the random patterns draw from `rng`. The result is never equal to
    /// `src` except for degenerate single-node geometries (in which case
    /// `src` is returned).
    pub fn destination(&self, src: NodeId, geometry: &Geometry, rng: &mut TileRng) -> NodeId {
        let n = geometry.node_count();
        let dst = match self {
            SyntheticPattern::UniformRandom if n > 1 => {
                let mut d = rng.range(0..n as u64 - 1) as usize;
                if d >= src.index() {
                    d += 1;
                }
                NodeId::from(d)
            }
            SyntheticPattern::Hotspot(targets) if n > 1 && !targets.is_empty() => {
                targets[rng.range(0..targets.len() as u64) as usize]
            }
            _ => return self.fixed_destination(src, geometry),
        };
        not_self(dst, src, n)
    }

    /// The destination a deterministic pattern maps `src` to. Random
    /// patterns, an empty hotspot list and single-node geometries give `src`.
    fn fixed_destination(&self, src: NodeId, geometry: &Geometry) -> NodeId {
        let n = geometry.node_count();
        if n <= 1 {
            return src;
        }
        let dst = match self {
            SyntheticPattern::Transpose => {
                let (x, y, l) = geometry.coords(src).unwrap_or((src.index(), 0, 0));
                let w = geometry.width().unwrap_or(n);
                let h = geometry.height().unwrap_or(1);
                // Transpose only makes sense on square meshes; clamp otherwise.
                let (tx, ty) = (y.min(w.saturating_sub(1)), x.min(h.saturating_sub(1)));
                geometry
                    .node_at(tx, ty, l)
                    .unwrap_or_else(|| NodeId::from((src.index() + n / 2) % n))
            }
            SyntheticPattern::BitComplement => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                let mask = (1usize << bits) - 1;
                NodeId::from((!src.index() & mask) % n)
            }
            SyntheticPattern::Shuffle => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                let v = src.index();
                let rotated = ((v << 1) | (v >> (bits - 1).max(1))) & ((1usize << bits) - 1);
                NodeId::from(rotated % n)
            }
            SyntheticPattern::Tornado => {
                let (x, y, l) = geometry.coords(src).unwrap_or((src.index(), 0, 0));
                let w = geometry.width().unwrap_or(n);
                let h = geometry.height().unwrap_or(1);
                geometry
                    .node_at((x + w / 2) % w, (y + h / 2) % h.max(1), l)
                    .unwrap_or_else(|| NodeId::from((src.index() + n / 2) % n))
            }
            SyntheticPattern::NearestNeighbor => {
                let (x, y, l) = geometry.coords(src).unwrap_or((src.index(), 0, 0));
                let w = geometry.width().unwrap_or(n);
                geometry
                    .node_at((x + 1) % w, y, l)
                    .unwrap_or_else(|| NodeId::from((src.index() + 1) % n))
            }
            SyntheticPattern::UniformRandom | SyntheticPattern::Hotspot(_) => return src,
        };
        not_self(dst, src, n)
    }

    /// Enumerates every (source, destination) pair this pattern can produce,
    /// which is what the routing tables need to cover. Random patterns return
    /// the full all-to-all set; hotspot patterns return every source paired
    /// with every hotspot.
    pub fn flow_pairs(&self, geometry: &Geometry) -> Vec<(NodeId, NodeId)> {
        let n = geometry.node_count();
        match self {
            SyntheticPattern::UniformRandom => {
                let mut pairs = Vec::with_capacity(n * (n - 1));
                for s in geometry.nodes() {
                    for d in geometry.nodes() {
                        if s != d {
                            pairs.push((s, d));
                        }
                    }
                }
                pairs
            }
            SyntheticPattern::Hotspot(targets) => {
                let mut pairs = Vec::new();
                for s in geometry.nodes() {
                    for &t in targets {
                        if s != t {
                            pairs.push((s, t));
                        }
                    }
                }
                pairs
            }
            _ => geometry
                .nodes()
                .map(|s| (s, self.fixed_destination(s, geometry)))
                .filter(|(s, d)| s != d)
                .collect(),
        }
    }
}

/// `dst`, or the node after `src` when a pattern maps `src` onto itself.
fn not_self(dst: NodeId, src: NodeId, n: usize) -> NodeId {
    if dst == src {
        NodeId::from((src.index() + 1) % n)
    } else {
        dst
    }
}

/// When packets are offered to the network.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum InjectionProcess {
    /// Each cycle, inject a packet with the given probability.
    Bernoulli {
        /// Packets per node per cycle (0.0–1.0).
        rate: f64,
    },
    /// Inject one packet every `period` cycles, starting at `offset`.
    Periodic {
        /// Cycles between packets.
        period: Cycle,
        /// First injection cycle.
        offset: Cycle,
    },
    /// Inject `burst_len` packets back-to-back, then stay idle for `gap`
    /// cycles (the "coordinated bursts" shape of low-traffic bit-complement in
    /// Figure 7).
    Burst {
        /// Packets per burst.
        burst_len: u32,
        /// Idle cycles between bursts.
        gap: Cycle,
    },
}

impl InjectionProcess {
    /// Average offered load in packets per node per cycle.
    pub fn offered_load(&self) -> f64 {
        match self {
            InjectionProcess::Bernoulli { rate } => *rate,
            InjectionProcess::Periodic { period, .. } => {
                if *period == 0 {
                    1.0
                } else {
                    1.0 / *period as f64
                }
            }
            InjectionProcess::Burst { burst_len, gap } => {
                *burst_len as f64 / (*burst_len as f64 + *gap as f64)
            }
        }
    }

    /// Decides how many packets to inject at `now`, given the previous
    /// injection state, and returns the new state.
    pub fn injections_at(&self, now: Cycle, state: &mut ProcessState, rng: &mut TileRng) -> u32 {
        match self {
            InjectionProcess::Bernoulli { rate } => {
                if rng.f64() < *rate {
                    1
                } else {
                    0
                }
            }
            InjectionProcess::Periodic { period, offset } => {
                if now < *offset {
                    return 0;
                }
                if *period == 0 {
                    return 1;
                }
                if (now - offset).is_multiple_of(*period) {
                    1
                } else {
                    0
                }
            }
            InjectionProcess::Burst { burst_len, gap } => {
                let cycle_len = *burst_len as u64 + *gap;
                if cycle_len == 0 {
                    return 0;
                }
                let phase = now % cycle_len;
                let _ = state;
                if phase < *burst_len as u64 {
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Earliest cycle at or after `now` at which this process will inject.
    pub fn next_injection(&self, now: Cycle) -> Option<Cycle> {
        match self {
            InjectionProcess::Bernoulli { rate } => {
                if *rate <= 0.0 {
                    None
                } else {
                    Some(now)
                }
            }
            InjectionProcess::Periodic { period, offset } => {
                if now <= *offset {
                    return Some(*offset);
                }
                if *period == 0 {
                    return Some(now);
                }
                let since = now - offset;
                let rem = since % period;
                Some(if rem == 0 { now } else { now + (period - rem) })
            }
            InjectionProcess::Burst { burst_len, gap } => {
                let cycle_len = *burst_len as u64 + *gap;
                if cycle_len == 0 || *burst_len == 0 {
                    return None;
                }
                let phase = now % cycle_len;
                Some(if phase < *burst_len as u64 {
                    now
                } else {
                    now + (cycle_len - phase)
                })
            }
        }
    }
}

/// Mutable state carried between calls to
/// [`InjectionProcess::injections_at`]. Currently only needed by stateful
/// processes added in the future; kept so the interface is stable.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessState {
    /// Packets injected so far.
    pub injected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams these tests were written against: `seed` without the
    /// tile domain mix.
    fn seeded(seed: u64) -> TileRng {
        TileRng::seed_from_u64(seed ^ 0xC4AC_4A12_C4AC_4A12)
    }

    fn mesh(n: usize) -> Geometry {
        Geometry::mesh2d(n, n)
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let g = mesh(4);
        let mut rng = seeded(0);
        // Node 1 = (1,0); transpose = (0,1) = node 4.
        assert_eq!(
            SyntheticPattern::Transpose.destination(NodeId::new(1), &g, &mut rng),
            NodeId::new(4)
        );
        // A diagonal node maps to itself; the pattern must divert it.
        let d = SyntheticPattern::Transpose.destination(NodeId::new(5), &g, &mut rng);
        assert_ne!(d, NodeId::new(5));
    }

    #[test]
    fn bit_complement_is_involutive_for_power_of_two() {
        let g = mesh(4); // 16 nodes
        let mut rng = seeded(0);
        for i in 0..16u32 {
            let d = SyntheticPattern::BitComplement.destination(NodeId::new(i), &g, &mut rng);
            let back = SyntheticPattern::BitComplement.destination(d, &g, &mut rng);
            if d != NodeId::new(i) {
                assert_eq!(back, NodeId::new(i), "complement of complement");
            }
        }
    }

    #[test]
    fn uniform_random_never_targets_self_and_covers_nodes() {
        let g = mesh(3);
        let mut rng = seeded(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let d = SyntheticPattern::UniformRandom.destination(NodeId::new(4), &g, &mut rng);
            assert_ne!(d, NodeId::new(4));
            seen.insert(d);
        }
        assert_eq!(seen.len(), 8, "all other nodes should be hit eventually");
    }

    #[test]
    fn hotspot_targets_only_hotspots() {
        let g = mesh(4);
        let mut rng = seeded(3);
        let targets = vec![NodeId::new(0), NodeId::new(15)];
        let p = SyntheticPattern::Hotspot(targets.clone());
        for _ in 0..100 {
            let d = p.destination(NodeId::new(5), &g, &mut rng);
            assert!(targets.contains(&d));
        }
    }

    #[test]
    fn flow_pairs_cover_deterministic_patterns() {
        let g = mesh(4);
        let pairs = SyntheticPattern::Transpose.flow_pairs(&g);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(s, d)| s != d));
        let uni = SyntheticPattern::UniformRandom.flow_pairs(&g);
        assert_eq!(uni.len(), 16 * 15);
        let hs = SyntheticPattern::Hotspot(vec![NodeId::new(0)]).flow_pairs(&g);
        assert_eq!(hs.len(), 15);
    }

    #[test]
    fn bernoulli_rate_is_respected_statistically() {
        let p = InjectionProcess::Bernoulli { rate: 0.25 };
        let mut rng = seeded(11);
        let mut state = ProcessState::default();
        let total: u32 = (0..10_000)
            .map(|c| p.injections_at(c, &mut state, &mut rng))
            .sum();
        assert!((2000..3000).contains(&total), "got {total}");
        assert!((p.offered_load() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn periodic_process_fires_on_schedule() {
        let p = InjectionProcess::Periodic {
            period: 10,
            offset: 5,
        };
        let mut rng = seeded(0);
        let mut state = ProcessState::default();
        let fired: Vec<Cycle> = (0..40)
            .filter(|&c| p.injections_at(c, &mut state, &mut rng) > 0)
            .collect();
        assert_eq!(fired, vec![5, 15, 25, 35]);
        assert_eq!(p.next_injection(6), Some(15));
        assert_eq!(p.next_injection(15), Some(15));
        assert_eq!(p.next_injection(0), Some(5));
    }

    #[test]
    fn burst_process_alternates_bursts_and_gaps() {
        let p = InjectionProcess::Burst {
            burst_len: 3,
            gap: 7,
        };
        let mut rng = seeded(0);
        let mut state = ProcessState::default();
        let fired: Vec<Cycle> = (0..20)
            .filter(|&c| p.injections_at(c, &mut state, &mut rng) > 0)
            .collect();
        assert_eq!(fired, vec![0, 1, 2, 10, 11, 12]);
        assert_eq!(p.next_injection(3), Some(10));
        assert!((p.offered_load() - 0.3).abs() < 1e-9);
    }
}
