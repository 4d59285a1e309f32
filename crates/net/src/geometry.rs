//! Interconnect geometry.
//!
//! Nodes can be connected pairwise to form any geometry; this module provides
//! ready-made builders for the topologies the paper uses (2-D meshes and tori,
//! rings) as well as the multi-layer 3-D mesh variants of Figure 4
//! (`x1`, `x1y1`, `xcube`) and fully custom connection lists.

use crate::ids::NodeId;
use std::collections::BTreeSet;
use std::fmt;

/// A bidirectional connection between two nodes (one physical link, modeled as
/// a pair of unidirectional channels).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Connection {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
}

impl Connection {
    /// Creates a connection between two distinct nodes, normalising the order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-links are not meaningful).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a node cannot be connected to itself");
        if a <= b {
            Self { a, b }
        } else {
            Self { a: b, b: a }
        }
    }

    /// Given one endpoint, returns the other; `None` if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The topology family a geometry was built from; retained because routing
/// table generators need coordinates for mesh-like topologies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Linear array of `n` nodes.
    Line { n: usize },
    /// Ring of `n` nodes.
    Ring { n: usize },
    /// 2-D mesh, `width × height`, row-major numbering.
    Mesh2D { width: usize, height: usize },
    /// 2-D torus (mesh plus wraparound links).
    Torus2D { width: usize, height: usize },
    /// Multi-layer (3-D) mesh. `vertical` selects the inter-layer connectivity
    /// of Figure 4.
    Mesh3D {
        /// X dimension of each layer.
        width: usize,
        /// Y dimension of each layer.
        height: usize,
        /// Number of layers.
        layers: usize,
        /// Inter-layer connectivity style.
        vertical: VerticalLinks,
    },
    /// Arbitrary user-provided connection list.
    Custom { n: usize },
}

/// Inter-layer connectivity for multi-layer meshes (paper Figure 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VerticalLinks {
    /// `x1`: one vertical pillar per layer pair (at x = 0, y = 0).
    X1,
    /// `x1y1`: vertical pillars along the x = 0 column and y = 0 row.
    X1Y1,
    /// `xcube`: every node is connected to the node above/below it.
    XCube,
}

/// An interconnect geometry: a set of nodes and the connections between them.
///
/// ```
/// use hornet_net::geometry::Geometry;
/// let g = Geometry::mesh2d(3, 3);
/// assert_eq!(g.node_count(), 9);
/// // An interior node of a 3x3 mesh has four neighbours.
/// assert_eq!(g.neighbors(hornet_net::ids::NodeId::new(4)).len(), 4);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Geometry {
    topology: Topology,
    node_count: usize,
    connections: Vec<Connection>,
    /// neighbors[i] = sorted list of neighbours of node i.
    neighbors: Vec<Vec<NodeId>>,
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Geometry")
            .field("topology", &self.topology)
            .field("node_count", &self.node_count)
            .field("connections", &self.connections.len())
            .finish()
    }
}

impl Geometry {
    fn from_connections(topology: Topology, node_count: usize, conns: Vec<Connection>) -> Self {
        let set: BTreeSet<Connection> = conns.into_iter().collect();
        let connections: Vec<Connection> = set.into_iter().collect();
        let mut neighbors = vec![Vec::new(); node_count];
        for c in &connections {
            neighbors[c.a.index()].push(c.b);
            neighbors[c.b.index()].push(c.a);
        }
        for n in &mut neighbors {
            n.sort();
            n.dedup();
        }
        Self {
            topology,
            node_count,
            connections,
            neighbors,
        }
    }

    /// A linear array of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "a geometry needs at least one node");
        let conns = (1..n)
            .map(|i| Connection::new(NodeId::from(i - 1), NodeId::from(i)))
            .collect();
        Self::from_connections(Topology::Line { n }, n, conns)
    }

    /// A ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least three nodes");
        let mut conns: Vec<Connection> = (1..n)
            .map(|i| Connection::new(NodeId::from(i - 1), NodeId::from(i)))
            .collect();
        conns.push(Connection::new(NodeId::from(n - 1), NodeId::from(0usize)));
        Self::from_connections(Topology::Ring { n }, n, conns)
    }

    /// A `width × height` 2-D mesh with row-major node numbering.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh2d(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let mut conns = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let id = y * width + x;
                if x + 1 < width {
                    conns.push(Connection::new(NodeId::from(id), NodeId::from(id + 1)));
                }
                if y + 1 < height {
                    conns.push(Connection::new(NodeId::from(id), NodeId::from(id + width)));
                }
            }
        }
        Self::from_connections(Topology::Mesh2D { width, height }, width * height, conns)
    }

    /// A `width × height` 2-D torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 3 (wraparound links would
    /// duplicate mesh links otherwise).
    pub fn torus2d(width: usize, height: usize) -> Self {
        assert!(width >= 3 && height >= 3, "torus dimensions must be >= 3");
        let mesh = Self::mesh2d(width, height);
        let mut conns = mesh.connections.clone();
        for y in 0..height {
            conns.push(Connection::new(
                NodeId::from(y * width),
                NodeId::from(y * width + width - 1),
            ));
        }
        for x in 0..width {
            conns.push(Connection::new(
                NodeId::from(x),
                NodeId::from((height - 1) * width + x),
            ));
        }
        Self::from_connections(Topology::Torus2D { width, height }, width * height, conns)
    }

    /// A multi-layer 3-D mesh (paper Figure 4). Layers are stacked copies of a
    /// `width × height` 2-D mesh; `vertical` selects which nodes get
    /// inter-layer links.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn mesh3d(width: usize, height: usize, layers: usize, vertical: VerticalLinks) -> Self {
        assert!(
            width > 0 && height > 0 && layers > 0,
            "mesh dimensions must be non-zero"
        );
        let per_layer = width * height;
        let mut conns = Vec::new();
        for l in 0..layers {
            let base = l * per_layer;
            for y in 0..height {
                for x in 0..width {
                    let id = base + y * width + x;
                    if x + 1 < width {
                        conns.push(Connection::new(NodeId::from(id), NodeId::from(id + 1)));
                    }
                    if y + 1 < height {
                        conns.push(Connection::new(NodeId::from(id), NodeId::from(id + width)));
                    }
                    if l + 1 < layers {
                        let above = id + per_layer;
                        let link = match vertical {
                            VerticalLinks::XCube => true,
                            VerticalLinks::X1 => x == 0 && y == 0,
                            VerticalLinks::X1Y1 => x == 0 || y == 0,
                        };
                        if link {
                            conns.push(Connection::new(NodeId::from(id), NodeId::from(above)));
                        }
                    }
                }
            }
        }
        Self::from_connections(
            Topology::Mesh3D {
                width,
                height,
                layers,
                vertical,
            },
            per_layer * layers,
            conns,
        )
    }

    /// A geometry from an explicit connection list over `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a connection references a node `>= node_count`.
    pub fn custom(node_count: usize, connections: Vec<Connection>) -> Self {
        for c in &connections {
            assert!(
                c.a.index() < node_count && c.b.index() < node_count,
                "connection {c:?} references a node outside 0..{node_count}"
            );
        }
        Self::from_connections(Topology::Custom { n: node_count }, node_count, connections)
    }

    /// The topology family this geometry was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All connections (each physical link once).
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Neighbours of a node, sorted by node id.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.neighbors[n.index()]
    }

    /// All node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::from)
    }

    /// True if the two nodes are directly connected.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors[a.index()].binary_search(&b).is_ok()
    }

    /// (x, y, layer) coordinates of a node, for mesh-like topologies.
    ///
    /// Returns `None` for topologies without a natural coordinate system
    /// (`Custom`).
    pub fn coords(&self, n: NodeId) -> Option<(usize, usize, usize)> {
        let i = n.index();
        match self.topology {
            Topology::Line { .. } | Topology::Ring { .. } => Some((i, 0, 0)),
            Topology::Mesh2D { width, .. } | Topology::Torus2D { width, .. } => {
                Some((i % width, i / width, 0))
            }
            Topology::Mesh3D { width, height, .. } => {
                let per_layer = width * height;
                let l = i / per_layer;
                let r = i % per_layer;
                Some((r % width, r / width, l))
            }
            Topology::Custom { .. } => None,
        }
    }

    /// Node at (x, y, layer), for mesh-like topologies.
    pub fn node_at(&self, x: usize, y: usize, layer: usize) -> Option<NodeId> {
        match self.topology {
            Topology::Line { n } | Topology::Ring { n } => {
                (y == 0 && layer == 0 && x < n).then(|| NodeId::from(x))
            }
            Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
                (x < width && y < height && layer == 0).then(|| NodeId::from(y * width + x))
            }
            Topology::Mesh3D {
                width,
                height,
                layers,
                ..
            } => (x < width && y < height && layer < layers)
                .then(|| NodeId::from(layer * width * height + y * width + x)),
            Topology::Custom { .. } => None,
        }
    }

    /// Width of the mesh (x dimension), if mesh-like.
    pub fn width(&self) -> Option<usize> {
        match self.topology {
            Topology::Line { n } | Topology::Ring { n } => Some(n),
            Topology::Mesh2D { width, .. }
            | Topology::Torus2D { width, .. }
            | Topology::Mesh3D { width, .. } => Some(width),
            Topology::Custom { .. } => None,
        }
    }

    /// Height of the mesh (y dimension), if mesh-like.
    pub fn height(&self) -> Option<usize> {
        match self.topology {
            Topology::Line { .. } | Topology::Ring { .. } => Some(1),
            Topology::Mesh2D { height, .. }
            | Topology::Torus2D { height, .. }
            | Topology::Mesh3D { height, .. } => Some(height),
            Topology::Custom { .. } => None,
        }
    }

    /// Minimal hop distance between two nodes (breadth-first search; exact for
    /// any geometry).
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> usize {
        if from == to {
            return 0;
        }
        let mut dist = vec![usize::MAX; self.node_count];
        let mut queue = std::collections::VecDeque::new();
        dist[from.index()] = 0;
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            for &w in self.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = d + 1;
                    if w == to {
                        return d + 1;
                    }
                    queue.push_back(w);
                }
            }
        }
        usize::MAX
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        let mut seen = vec![false; self.node_count];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId::from(0usize));
        let mut count = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh2d_structure() {
        let g = Geometry::mesh2d(3, 3);
        assert_eq!(g.node_count(), 9);
        // 2 * 3 * 2 = 12 links in a 3x3 mesh.
        assert_eq!(g.connections().len(), 12);
        // Corner has 2 neighbours, edge 3, centre 4.
        assert_eq!(g.neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(g.neighbors(NodeId::new(1)).len(), 3);
        assert_eq!(g.neighbors(NodeId::new(4)).len(), 4);
        assert!(g.is_connected());
        assert_eq!(g.coords(NodeId::new(5)), Some((2, 1, 0)));
        assert_eq!(g.node_at(2, 1, 0), Some(NodeId::new(5)));
    }

    #[test]
    fn torus_has_wraparound() {
        let g = Geometry::torus2d(4, 4);
        assert_eq!(g.node_count(), 16);
        // Every node in a torus has exactly 4 neighbours.
        for n in g.nodes() {
            assert_eq!(g.neighbors(n).len(), 4, "node {n}");
        }
        assert!(g.connected(NodeId::new(0), NodeId::new(3)));
        assert!(g.connected(NodeId::new(0), NodeId::new(12)));
    }

    #[test]
    fn ring_and_line() {
        let r = Geometry::ring(5);
        assert!(r.connected(NodeId::new(0), NodeId::new(4)));
        assert_eq!(r.hop_distance(NodeId::new(0), NodeId::new(3)), 2);
        let l = Geometry::line(5);
        assert!(!l.connected(NodeId::new(0), NodeId::new(4)));
        assert_eq!(l.hop_distance(NodeId::new(0), NodeId::new(4)), 4);
    }

    #[test]
    fn mesh3d_variants_have_expected_vertical_links() {
        let per_layer_links = |g: &Geometry| {
            g.connections()
                .iter()
                .filter(|c| {
                    let (.., la) = g.coords(c.a).unwrap();
                    let (.., lb) = g.coords(c.b).unwrap();
                    la != lb
                })
                .count()
        };
        let x1 = Geometry::mesh3d(3, 3, 2, VerticalLinks::X1);
        let x1y1 = Geometry::mesh3d(3, 3, 2, VerticalLinks::X1Y1);
        let xcube = Geometry::mesh3d(3, 3, 2, VerticalLinks::XCube);
        assert_eq!(per_layer_links(&x1), 1);
        assert_eq!(per_layer_links(&x1y1), 5); // x==0 column (3) + y==0 row (3) - corner counted once
        assert_eq!(per_layer_links(&xcube), 9);
        assert!(x1.is_connected() && x1y1.is_connected() && xcube.is_connected());
    }

    #[test]
    fn custom_geometry_rejects_out_of_range() {
        let conns = vec![Connection::new(NodeId::new(0), NodeId::new(1))];
        let g = Geometry::custom(2, conns);
        assert_eq!(g.node_count(), 2);
        assert!(g.is_connected());
        let result = std::panic::catch_unwind(|| {
            Geometry::custom(2, vec![Connection::new(NodeId::new(0), NodeId::new(5))])
        });
        assert!(result.is_err());
    }

    #[test]
    fn connection_normalises_order_and_rejects_self_link() {
        let c = Connection::new(NodeId::new(7), NodeId::new(2));
        assert_eq!(c.a, NodeId::new(2));
        assert_eq!(c.b, NodeId::new(7));
        assert_eq!(c.other(NodeId::new(2)), Some(NodeId::new(7)));
        assert_eq!(c.other(NodeId::new(9)), None);
        assert!(
            std::panic::catch_unwind(|| Connection::new(NodeId::new(1), NodeId::new(1))).is_err()
        );
    }

    #[test]
    fn duplicate_connections_are_deduplicated() {
        let conns = vec![
            Connection::new(NodeId::new(0), NodeId::new(1)),
            Connection::new(NodeId::new(1), NodeId::new(0)),
        ];
        let g = Geometry::custom(2, conns);
        assert_eq!(g.connections().len(), 1);
        assert_eq!(g.neighbors(NodeId::new(0)).len(), 1);
    }

    #[test]
    fn hop_distance_disconnected_is_max() {
        let g = Geometry::custom(3, vec![Connection::new(NodeId::new(0), NodeId::new(1))]);
        assert!(!g.is_connected());
        assert_eq!(g.hop_distance(NodeId::new(0), NodeId::new(2)), usize::MAX);
    }
}
