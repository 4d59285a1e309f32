//! Shard wiring: the canonical cut-channel enumeration and the per-shard
//! boundary endpoints built from it.
//!
//! Every process — the coordinator and each worker — derives the *same*
//! ordered list of directed cut-link VC channels from `(geometry, partition,
//! router parameters)`. That shared order is the addressing scheme of the
//! whole data plane: frame records refer to a channel by its position in the
//! per-neighbor-direction sub-list, so no channel table ever needs to cross
//! the wire.

use crate::spec::DistSpec;
use hornet_net::boundary::{BoundaryLink, BoundaryRx, EgressChannel};
use hornet_net::config::ConfigError;
use hornet_net::geometry::Geometry;
use hornet_net::ids::NodeId;
use hornet_net::network::NetworkNode;
use hornet_net::payload::PayloadStore;
use hornet_shard::{Partition, Partitioner};
use std::sync::Arc;

/// One directed cut-link virtual channel.
#[derive(Clone, Debug)]
pub struct CutChannel {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Shard of the sending node.
    pub src_shard: usize,
    /// Shard of the receiving node.
    pub dst_shard: usize,
    /// Virtual channel index within the link.
    pub vc: usize,
    /// Capacity of the downstream ingress VC buffer, in flits.
    pub capacity: usize,
}

/// The undirected cut pairs of a partition over a geometry, in canonical
/// order (node-index order, each link once as `(low, high)`).
pub fn cut_pairs(geometry: &Geometry, partition: &Partition) -> Vec<(NodeId, NodeId)> {
    let edges = geometry.nodes().flat_map(|id| {
        geometry
            .neighbors(id)
            .iter()
            .filter(move |nb| nb.index() > id.index())
            .map(move |&nb| (id, nb))
    });
    partition.cut_links(edges)
}

/// Every directed cut-link VC channel, in canonical order: cut pairs in
/// [`cut_pairs`] order, each expanded to both directions (`low→high` first),
/// each direction expanded to its VCs in index order.
pub fn cut_channels(
    geometry: &Geometry,
    partition: &Partition,
    vcs_per_port: usize,
    vc_capacity: usize,
) -> Vec<CutChannel> {
    let mut channels = Vec::new();
    for (a, b) in cut_pairs(geometry, partition) {
        for (src, dst) in [(a, b), (b, a)] {
            for vc in 0..vcs_per_port {
                channels.push(CutChannel {
                    src,
                    dst,
                    src_shard: partition.shard_of(src),
                    dst_shard: partition.shard_of(dst),
                    vc,
                    capacity: vc_capacity,
                });
            }
        }
    }
    channels
}

/// The boundary endpoints of one shard toward one neighboring shard, in
/// canonical channel order. The `out_links`/`in_links` positions are the
/// channel indices used on the wire.
pub struct NeighborWiring {
    /// The neighboring shard.
    pub peer: usize,
    /// Outbound halves (this shard's routers push into these).
    pub out_links: Vec<Arc<BoundaryLink>>,
    /// Inbound halves (filled by the transport, drained into ingress
    /// buffers by this shard's [`BoundaryRx`] endpoints).
    pub in_links: Vec<Arc<BoundaryLink>>,
}

/// Everything one shard needs to run: its tiles and boundary endpoints.
pub struct ShardParts {
    /// This shard's index.
    pub shard: usize,
    /// The tiles, in partition-member order.
    pub tiles: Vec<NetworkNode>,
    /// All outbound halves, canonical order (for credit application and the
    /// termination ledger's `sent` count).
    pub outbound: Vec<Arc<BoundaryLink>>,
    /// All inbound receiver endpoints, canonical order.
    pub inbound: Vec<BoundaryRx>,
    /// Per-neighbor channel lists (the wire addressing).
    pub neighbors: Vec<NeighborWiring>,
}

/// Builds the partition a distributed run of `spec` over `workers` shards
/// uses (band-aligned, cut-minimal orientation).
pub fn partition_for(spec: &DistSpec, workers: usize) -> Partition {
    Partitioner::new(workers).mesh(spec.width as usize, spec.height as usize)
}

/// Builds the full network for `spec`, splits it into per-shard parts, and
/// wires every cut channel onto boundary-link halves. Also returns the
/// process's payload store (the DMA side channel every bridge deposits into):
/// multi-process transports claim payloads from it when tail flits leave for
/// another process.
///
/// The halves are *shared*: the outbound half of channel `c` in the sender's
/// parts is the same `Arc` as the inbound half in the receiver's parts. The
/// in-process transport uses that sharing directly (the ring *is* the
/// channel); a worker process simply drops every shard's parts but its own,
/// leaving its halves exclusive so a transport pump can play the peer side.
pub fn build_shards(
    spec: &DistSpec,
    partition: &Partition,
) -> Result<(Vec<ShardParts>, Arc<PayloadStore>), ConfigError> {
    let network = spec.build_network()?;
    let geometry = network.geometry().clone();
    let (mut nodes, store) = network.into_nodes();
    let shards = partition.shard_count();
    assert_eq!(partition.node_count(), nodes.len());

    let channels = cut_channels(
        &geometry,
        partition,
        spec.vcs_per_port as usize,
        spec.vc_capacity as usize,
    );

    let mut parts: Vec<ShardParts> = (0..shards)
        .map(|shard| ShardParts {
            shard,
            tiles: Vec::new(),
            outbound: Vec::new(),
            inbound: Vec::new(),
            neighbors: Vec::new(),
        })
        .collect();

    // Wire channels: group consecutive channels of the same directed link so
    // the egress swap replaces all VCs at once.
    let mut i = 0;
    while i < channels.len() {
        let (src, dst) = (channels[i].src, channels[i].dst);
        let mut j = i;
        while j < channels.len() && channels[j].src == src && channels[j].dst == dst {
            j += 1;
        }
        let group = &channels[i..j];
        let (s_src, s_dst) = (group[0].src_shard, group[0].dst_shard);
        let targets = nodes[dst.index()]
            .router()
            .ingress_buffers_from(src)
            .to_vec();
        assert_eq!(targets.len(), group.len(), "VC count mismatch on cut link");
        let links: Vec<Arc<BoundaryLink>> = targets
            .iter()
            .map(|t| BoundaryLink::with_resident(t.capacity(), t.occupancy()))
            .collect();
        let egress: Vec<EgressChannel> = links
            .iter()
            .map(|l| EgressChannel::Boundary(Arc::clone(l)))
            .collect();
        nodes[src.index()]
            .router_mut()
            .swap_egress_channels(dst, egress);
        assert!(
            !nodes[src.index()].router().has_bidir_toward(dst),
            "bandwidth-adaptive bidirectional links cannot cross process boundaries"
        );

        // Sender side.
        {
            let p = &mut parts[s_src];
            p.outbound.extend(links.iter().cloned());
            let nb = neighbor_entry(&mut p.neighbors, s_dst);
            nb.out_links.extend(links.iter().cloned());
        }
        // Receiver side.
        {
            let p = &mut parts[s_dst];
            let nb = neighbor_entry(&mut p.neighbors, s_src);
            nb.in_links.extend(links.iter().cloned());
            p.inbound.extend(
                links
                    .into_iter()
                    .zip(targets)
                    .map(|(link, target)| BoundaryRx::new(link, target)),
            );
        }
        i = j;
    }

    // Distribute the tiles.
    let mut slots: Vec<Option<NetworkNode>> = nodes.into_iter().map(Some).collect();
    for (shard, part) in parts.iter_mut().enumerate() {
        part.tiles = partition
            .members(shard)
            .iter()
            .map(|&n| slots[n].take().expect("tile owned by exactly one shard"))
            .collect();
        // Canonical neighbor order (ascending shard id) for transports.
        part.neighbors.sort_by_key(|n| n.peer);
    }
    Ok((parts, store))
}

fn neighbor_entry(neighbors: &mut Vec<NeighborWiring>, peer: usize) -> &mut NeighborWiring {
    if let Some(pos) = neighbors.iter().position(|n| n.peer == peer) {
        &mut neighbors[pos]
    } else {
        neighbors.push(NeighborWiring {
            peer,
            out_links: Vec::new(),
            in_links: Vec::new(),
        });
        neighbors.last_mut().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_enumeration_is_deterministic_and_complete() {
        let spec = DistSpec {
            width: 8,
            height: 8,
            ..DistSpec::default()
        };
        let partition = partition_for(&spec, 4);
        let geometry = Geometry::mesh2d(8, 8);
        let a = cut_channels(&geometry, &partition, 4, 4);
        let b = cut_channels(&geometry, &partition, 4, 4);
        assert_eq!(a.len(), b.len());
        // 3 boundaries × 8 links × 2 directions × 4 VCs.
        assert_eq!(a.len(), 3 * 8 * 2 * 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.src, x.dst, x.vc), (y.src, y.dst, y.vc));
        }
    }

    #[test]
    fn shard_parts_share_halves_and_cover_all_tiles() {
        let spec = DistSpec {
            width: 4,
            height: 4,
            ..DistSpec::default()
        };
        let partition = partition_for(&spec, 2);
        let (parts, _store) = build_shards(&spec, &partition).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].tiles.len() + parts[1].tiles.len(), 16);
        // One boundary, 4 links, 4 VCs per direction.
        assert_eq!(parts[0].outbound.len(), 16);
        assert_eq!(parts[1].outbound.len(), 16);
        assert_eq!(parts[0].neighbors.len(), 1);
        // The outbound half of shard 0 toward shard 1 is the inbound half of
        // shard 1 from shard 0 (shared Arc).
        let out0 = &parts[0].neighbors[0].out_links;
        let in1 = &parts[1].neighbors[0].in_links;
        assert_eq!(out0.len(), in1.len());
        for (a, b) in out0.iter().zip(in1) {
            assert!(Arc::ptr_eq(a, b));
        }
    }
}
