//! Strongly-typed identifiers used throughout the network model.
//!
//! Newtypes keep node indices, flow identifiers, virtual-channel indices and
//! packet identifiers from being confused with one another (and with plain
//! integers) at compile time.

use std::fmt;

/// Identifier of a network node (router + attached agent).
///
/// Nodes are numbered densely from `0..n` by the [`Geometry`](crate::geometry::Geometry)
/// that created them; for 2-D meshes the numbering is row-major.
///
/// ```
/// use hornet_net::ids::NodeId;
/// let n = NodeId::new(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(format!("{n}"), "n5");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

/// Identifier of a traffic flow.
///
/// A flow is a (source, destination) stream of packets; table-driven routing
/// and VC allocation are both addressed by flow identifiers. Multi-phase
/// routing schemes (Valiant, ROMM, O1TURN) temporarily *rename* flows in
/// flight; the renamed identifiers live in a disjoint part of the `u64` space
/// (see [`FlowId::with_phase`]).
///
/// ```
/// use hornet_net::ids::{FlowId, NodeId};
/// let f = FlowId::for_pair(NodeId::new(6), NodeId::new(2), 9);
/// assert_eq!(f.source(9), NodeId::new(6));
/// assert_eq!(f.destination(9), NodeId::new(2));
/// assert_eq!(f.phase(), 0);
/// let g = f.with_phase(1);
/// assert_eq!(g.phase(), 1);
/// assert_eq!(g.base(), f.base());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl FlowId {
    /// Number of bits reserved for the routing phase tag.
    const PHASE_SHIFT: u32 = 56;
    const BASE_MASK: u64 = (1 << Self::PHASE_SHIFT) - 1;

    /// Creates a flow identifier from a raw value (phase 0).
    pub const fn new(raw: u64) -> Self {
        Self(raw & Self::BASE_MASK)
    }

    /// Canonical flow identifier for a (source, destination) pair in a network
    /// of `node_count` nodes: `src * node_count + dst`.
    pub fn for_pair(src: NodeId, dst: NodeId, node_count: usize) -> Self {
        Self::new(src.index() as u64 * node_count as u64 + dst.index() as u64)
    }

    /// Source node encoded in a pair-canonical flow identifier.
    pub fn source(self, node_count: usize) -> NodeId {
        NodeId::new((self.base() / node_count as u64) as u32)
    }

    /// Destination node encoded in a pair-canonical flow identifier.
    pub fn destination(self, node_count: usize) -> NodeId {
        NodeId::new((self.base() % node_count as u64) as u32)
    }

    /// The base (phase-stripped) flow identifier.
    pub const fn base(self) -> u64 {
        self.0 & Self::BASE_MASK
    }

    /// The routing phase tag (0 for the original flow).
    pub const fn phase(self) -> u8 {
        (self.0 >> Self::PHASE_SHIFT) as u8
    }

    /// Returns this flow renamed to the given routing phase.
    ///
    /// Phase renaming is how multi-phase oblivious schemes (Valiant, ROMM) and
    /// subroute-separated schemes (O1TURN) distinguish their stages inside the
    /// routing and VC-allocation tables.
    pub const fn with_phase(self, phase: u8) -> Self {
        Self(self.base() | (phase as u64) << Self::PHASE_SHIFT)
    }

    /// The raw 64-bit value (base | phase).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The flow whose [`raw`](Self::raw) value is `raw`, phase included.
    pub(crate) const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phase() == 0 {
            write!(f, "FlowId({})", self.base())
        } else {
            write!(f, "FlowId({}.p{})", self.base(), self.phase())
        }
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phase() == 0 {
            write!(f, "f{}", self.base())
        } else {
            write!(f, "f{}.p{}", self.base(), self.phase())
        }
    }
}

/// Index of a virtual channel within an ingress port.
///
/// ```
/// use hornet_net::ids::VcId;
/// assert_eq!(VcId::new(3).index(), 3);
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(u16);

impl VcId {
    /// Creates a virtual-channel index.
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VcId({})", self.0)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

impl From<u16> for VcId {
    fn from(v: u16) -> Self {
        Self(v)
    }
}

/// Globally unique packet identifier (unique within one simulation run).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet identifier from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketId({})", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a port on a router.
///
/// Port `0..k` face neighbouring routers (in the order the geometry lists the
/// connections); ports `k..` face locally attached agents (CPU cores, packet
/// injectors, memory controllers).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(u16);

impl PortId {
    /// Creates a port index.
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortId({})", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A simulated clock cycle count.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.raw(), 17);
        assert_eq!(NodeId::from(17usize), n);
        assert_eq!(NodeId::from(17u32), n);
    }

    #[test]
    fn flow_id_pair_encoding() {
        let n = 64;
        for (s, d) in [(0u32, 1u32), (6, 2), (63, 0), (31, 31)] {
            let f = FlowId::for_pair(NodeId::new(s), NodeId::new(d), n);
            assert_eq!(f.source(n), NodeId::new(s));
            assert_eq!(f.destination(n), NodeId::new(d));
        }
    }

    #[test]
    fn flow_id_phase_is_disjoint_from_base() {
        let f = FlowId::new(12345);
        let p1 = f.with_phase(1);
        let p2 = f.with_phase(2);
        assert_ne!(f, p1);
        assert_ne!(p1, p2);
        assert_eq!(p1.base(), f.base());
        assert_eq!(p2.base(), f.base());
        assert_eq!(p1.with_phase(0), f);
    }

    #[test]
    fn display_formats_are_nonempty_and_stable() {
        assert_eq!(format!("{}", NodeId::new(3)), "n3");
        assert_eq!(format!("{}", VcId::new(2)), "vc2");
        assert_eq!(format!("{}", PacketId::new(9)), "p9");
        assert_eq!(format!("{}", FlowId::new(7)), "f7");
        assert_eq!(format!("{}", FlowId::new(7).with_phase(1)), "f7.p1");
        assert_eq!(format!("{}", PortId::new(4)), "port4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        set.insert(NodeId::new(1));
        assert_eq!(set.len(), 2);
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(VcId::new(0) < VcId::new(1));
    }
}
