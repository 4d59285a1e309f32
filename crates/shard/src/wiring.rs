//! Shard wiring: the one routine that splits tiles into shards and rewires
//! every cut link onto boundary mailboxes, for the thread host
//! ([`crate::ShardRuntime`]) and every worker process of `hornet-dist` alike.
//!
//! The channel order it produces is canonical: cut pairs in node-index order
//! (each link once as `(low, high)`), each expanded to both directions
//! (`low→high` first), each direction to its VCs in index order. A shard's
//! lists — `outbound`, `inbound` and each neighbor's `out_links` /
//! `in_links` — are that order filtered to the shard, so every process
//! derives the same positions independently, and a position in a
//! [`NeighborWiring`] list is the channel index a cycle frame uses on the
//! wire.

use crate::partition::Partition;
use hornet_net::boundary::{BoundaryLink, BoundaryRx, EgressChannel};
use hornet_net::ids::NodeId;
use hornet_net::network::NetworkNode;
use std::sync::Arc;

/// The boundary endpoints of one shard toward one neighboring shard, in
/// canonical channel order.
pub struct NeighborWiring {
    /// The neighboring shard.
    pub peer: usize,
    /// Outbound halves (this shard's routers push into these).
    pub out_links: Vec<Arc<BoundaryLink>>,
    /// Inbound halves (fed by the peer, drained into ingress buffers by
    /// this shard's [`BoundaryRx`] endpoints).
    pub in_links: Vec<Arc<BoundaryLink>>,
}

/// Everything one shard needs to run.
pub struct ShardParts {
    /// This shard's index.
    pub shard: usize,
    /// The tiles, in partition-member order.
    pub tiles: Vec<NetworkNode>,
    /// Sender-side halves whose credits this shard applies (canonical order;
    /// also the termination ledger's `sent` count).
    pub outbound: Vec<Arc<BoundaryLink>>,
    /// Receiver endpoints of the links feeding this shard, canonical order.
    pub inbound: Vec<BoundaryRx>,
    /// One entry per neighboring shard, in ascending shard order.
    pub neighbors: Vec<NeighborWiring>,
}

/// The links `partition` cuts that touch at least one of `tiles`, in
/// canonical order (node-index order, each link once as `(low, high)`).
/// With every tile given, that is the whole cut set.
pub fn cut_links(tiles: &[NetworkNode], partition: &Partition) -> Vec<(NodeId, NodeId)> {
    let mut built = vec![false; partition.node_count()];
    for tile in tiles {
        built[tile.node().index()] = true;
    }
    // A link is listed from its low end, or from its high end when the low
    // end was not built. Neighbor lists are sorted, so sorting the pairs
    // restores node-index order for any tile set.
    let edges = tiles.iter().flat_map(|tile| {
        let id = tile.node();
        let built = &built;
        tile.neighbors()
            .iter()
            .filter(move |nb| nb.index() > id.index() || !built[nb.index()])
            .map(move |&nb| (id, nb))
    });
    let mut cuts = partition.cut_links(edges);
    cuts.sort_unstable();
    cuts
}

/// Rewires every link `partition` cuts onto boundary mailboxes and splits
/// `tiles` into per-shard parts, one for each shard whose tiles were given,
/// in shard order.
///
/// `tiles` is any set of whole shards: the thread host builds and passes
/// every tile, a worker process only its own shard's. The sender's egress
/// port gets one [`BoundaryLink`] per VC in place of its direct buffer
/// handles; the link's receiving end goes to the shard owning the buffer it
/// feeds. Where both ends were built the halves are shared: the outbound
/// half of a channel in the sender's parts is the same `Arc` as the inbound
/// half in the receiver's, which the thread host uses directly. Where the
/// far end was not built, the link is made from the sender's router config
/// (`vcs_per_port` links of `vc_capacity`, none resident) and the process's
/// transports play the peer side. Either way the channel order is the
/// canonical one, so every process derives the same wire addressing.
///
/// # Panics
///
/// Panics if a tile lies outside `partition`, appears twice, or if a shard
/// is given only in part.
pub fn wire_shards(mut tiles: Vec<NetworkNode>, partition: &Partition) -> Vec<ShardParts> {
    let mut slot: Vec<Option<usize>> = vec![None; partition.node_count()];
    for (i, tile) in tiles.iter().enumerate() {
        assert!(
            slot[tile.node().index()].replace(i).is_none(),
            "each tile at most once"
        );
    }
    let mut parts: Vec<Option<ShardParts>> = (0..partition.shard_count())
        .map(|shard| {
            let members = partition.members(shard);
            let present = members.iter().filter(|&&m| slot[m].is_some()).count();
            assert!(
                present == 0 || present == members.len(),
                "shard {shard} must be built whole or not at all"
            );
            (present > 0).then(|| ShardParts {
                shard,
                tiles: Vec::new(),
                outbound: Vec::new(),
                inbound: Vec::new(),
                neighbors: Vec::new(),
            })
        })
        .collect();
    for (a, b) in cut_links(&tiles, partition) {
        for (src, dst) in [(a, b), (b, a)] {
            let (s_src, s_dst) = (partition.shard_of(src), partition.shard_of(dst));
            let (i_src, i_dst) = (slot[src.index()], slot[dst.index()]);
            let targets = i_dst.map(|i| tiles[i].router().ingress_buffers_from(src).to_vec());
            // Seed the sender's credit view with the buffer's current
            // occupancy: wiring may happen mid-simulation, with flits from a
            // previous run still resident downstream.
            let links: Vec<Arc<BoundaryLink>> = match &targets {
                Some(targets) => targets
                    .iter()
                    .map(|t| BoundaryLink::with_resident(t.capacity(), t.occupancy()))
                    .collect(),
                None => {
                    let i = i_src.expect("one end of a listed link is built");
                    let cfg = tiles[i].router().config();
                    (0..cfg.vcs_per_port)
                        .map(|_| BoundaryLink::with_resident(cfg.vc_capacity, 0))
                        .collect()
                }
            };
            if let Some(i) = i_src {
                tiles[i].router_mut().swap_egress_channels(
                    dst,
                    links
                        .iter()
                        .map(|l| EgressChannel::Boundary(Arc::clone(l)))
                        .collect(),
                );
                let part = parts[s_src]
                    .as_mut()
                    .expect("a built tile's shard is built");
                part.outbound.extend(links.iter().cloned());
                neighbor(part, s_dst)
                    .out_links
                    .extend(links.iter().cloned());
            }
            if let Some(targets) = targets {
                let part = parts[s_dst]
                    .as_mut()
                    .expect("a built tile's shard is built");
                neighbor(part, s_src).in_links.extend(links.iter().cloned());
                part.inbound.extend(
                    links
                        .into_iter()
                        .zip(targets)
                        .map(|(link, target)| BoundaryRx::new(link, target)),
                );
            }
        }
    }
    let mut tiles: Vec<Option<NetworkNode>> = tiles.into_iter().map(Some).collect();
    parts
        .into_iter()
        .flatten()
        .map(|mut part| {
            part.tiles = partition
                .members(part.shard)
                .iter()
                .map(|&i| {
                    tiles[slot[i].expect("whole shard")]
                        .take()
                        .expect("each tile in exactly one shard")
                })
                .collect();
            part.neighbors.sort_by_key(|n| n.peer);
            part
        })
        .collect()
}

/// The entry of `part` toward `peer`, created on first use.
fn neighbor(part: &mut ShardParts, peer: usize) -> &mut NeighborWiring {
    let pos = match part.neighbors.iter().position(|n| n.peer == peer) {
        Some(pos) => pos,
        None => {
            part.neighbors.push(NeighborWiring {
                peer,
                out_links: Vec::new(),
                in_links: Vec::new(),
            });
            part.neighbors.len() - 1
        }
    };
    &mut part.neighbors[pos]
}

/// Restores direct shared-buffer wiring on every link `partition` cuts. The
/// caller has flushed every in-flight mailbox flit into the real ingress
/// buffers, so this is a pure pointer swap.
pub fn unwire(nodes: &mut [NetworkNode], partition: &Partition) {
    for (a, b) in cut_links(nodes, partition) {
        for (src, dst) in [(a, b), (b, a)] {
            let channels = nodes[dst.index()]
                .router()
                .ingress_buffers_from(src)
                .iter()
                .cloned()
                .map(EgressChannel::Local)
                .collect();
            nodes[src.index()]
                .router_mut()
                .swap_egress_channels(dst, channels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use hornet_net::config::NetworkConfig;
    use hornet_net::geometry::Geometry;
    use hornet_net::network::Network;
    use hornet_net::vcbuf::VcBuffer;
    use std::collections::HashMap;

    fn mesh_nodes(width: usize, height: usize) -> Vec<NetworkNode> {
        let cfg = NetworkConfig::new(Geometry::mesh2d(width, height));
        Network::new(&cfg, 1).unwrap().into_nodes().0
    }

    /// Puts the tiles of `parts` back in node-index order.
    fn reassemble(parts: Vec<ShardParts>, partition: &Partition) -> Vec<NetworkNode> {
        let mut slots: Vec<Option<NetworkNode>> =
            (0..partition.node_count()).map(|_| None).collect();
        for part in parts {
            for (&i, tile) in partition.members(part.shard).iter().zip(part.tiles) {
                slots[i] = Some(tile);
            }
        }
        slots.into_iter().map(Option::unwrap).collect()
    }

    /// The structural fact the single-owner `VcBuffer` rests on, for the
    /// thread host and every worker process alike (both wire through
    /// [`wire_shards`]): every buffer reachable through an
    /// `EgressChannel::Local` belongs to a tile of the sender's own shard,
    /// every link that crosses a cut is a boundary mailbox, and the mailbox's
    /// receiving end is handed to the shard that owns the buffer it feeds.
    #[test]
    fn wiring_leaves_no_local_channel_across_a_cut() {
        for shards in [2, 4] {
            let nodes = mesh_nodes(4, 4);
            let vcs = nodes[0]
                .router()
                .ingress_buffers_from(nodes[1].node())
                .len();
            let partition = Partitioner::new(shards).mesh(4, 4);
            assert_eq!(partition.shard_count(), shards);
            let cuts = cut_links(&nodes, &partition).len();
            assert!(cuts > 0);
            let parts = wire_shards(nodes, &partition);

            // Which shard owns each router-facing ingress buffer.
            let mut owner: HashMap<*const VcBuffer, usize> = HashMap::new();
            for part in &parts {
                for node in &part.tiles {
                    for &from in node.neighbors() {
                        for buf in node.router().ingress_buffers_from(from) {
                            owner.insert(Arc::as_ptr(buf), part.shard);
                        }
                    }
                }
            }

            let (mut local, mut boundary) = (0, 0);
            for part in &parts {
                for node in &part.tiles {
                    let src = node.node();
                    for &dst in node.neighbors() {
                        let cut = partition.shard_of(src) != partition.shard_of(dst);
                        for channel in node.router().egress_channels(dst) {
                            match channel {
                                EgressChannel::Local(buf) => {
                                    assert!(!cut, "{src} -> {dst}: local channel across a cut");
                                    assert_eq!(owner[&Arc::as_ptr(buf)], part.shard);
                                    local += 1;
                                }
                                EgressChannel::Boundary(_) => {
                                    assert!(cut, "{src} -> {dst}: mailbox inside a shard");
                                    boundary += 1;
                                }
                            }
                        }
                    }
                }
                for rx in &part.inbound {
                    assert_eq!(owner[&Arc::as_ptr(rx.target())], part.shard);
                }
            }
            assert_eq!(boundary, 2 * cuts * vcs, "{shards} shards");
            assert_eq!(local + boundary, 2 * 24 * vcs, "a 4x4 mesh has 24 links");

            // Unwiring restores the direct handles everywhere.
            let mut nodes = reassemble(parts, &partition);
            unwire(&mut nodes, &partition);
            for node in &nodes {
                for &dst in node.neighbors() {
                    let channels = node.router().egress_channels(dst);
                    assert!(channels
                        .iter()
                        .all(|c| matches!(c, EgressChannel::Local(_))));
                }
            }
        }
    }

    #[test]
    fn shard_parts_share_halves_and_cover_all_tiles() {
        let partition = Partitioner::new(2).mesh(4, 4);
        let parts = wire_shards(mesh_nodes(4, 4), &partition);
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

    /// Every shard's per-neighbor `(src, dst, vc)` lists, read back from the
    /// routers' egress ports: the wire addressing.
    type Addressing = Vec<Vec<(Vec<(NodeId, NodeId, usize)>, Vec<(NodeId, NodeId, usize)>)>>;

    fn addressing(parts: &[ShardParts]) -> Addressing {
        let mut channel: HashMap<*const BoundaryLink, (NodeId, NodeId, usize)> = HashMap::new();
        for node in parts.iter().flat_map(|p| &p.tiles) {
            for &dst in node.neighbors() {
                for (vc, c) in node.router().egress_channels(dst).iter().enumerate() {
                    if let EgressChannel::Boundary(link) = c {
                        channel.insert(Arc::as_ptr(link), (node.node(), dst, vc));
                    }
                }
            }
        }
        let names = |links: &[Arc<BoundaryLink>]| -> Vec<(NodeId, NodeId, usize)> {
            links.iter().map(|l| channel[&Arc::as_ptr(l)]).collect()
        };
        parts
            .iter()
            .map(|p| {
                p.neighbors
                    .iter()
                    .map(|n| (names(&n.out_links), names(&n.in_links)))
                    .collect()
            })
            .collect()
    }

    /// Two fresh networks wire to the same per-neighbor `(src, dst, vc)`
    /// order — the addressing each process derives independently — and that
    /// order is the canonical one.
    #[test]
    fn channel_enumeration_is_deterministic_and_complete() {
        let partition = Partitioner::new(4).mesh(8, 8);
        let a = addressing(&wire_shards(mesh_nodes(8, 8), &partition));
        let b = addressing(&wire_shards(mesh_nodes(8, 8), &partition));
        assert_eq!(a, b);
        // 3 boundaries × 8 links × 2 directions × 4 VCs.
        let total: usize = a.iter().flatten().map(|(out, _)| out.len()).sum();
        assert_eq!(total, 3 * 8 * 2 * 4);

        let cuts = cut_links(&mesh_nodes(8, 8), &partition);
        for (shard, neighbors) in a.iter().enumerate() {
            for (out, inn) in neighbors {
                let peer = partition.shard_of(out[0].1);
                let canonical = |from: usize, to: usize| -> Vec<(NodeId, NodeId, usize)> {
                    let mut expected = Vec::new();
                    for &(lo, hi) in &cuts {
                        for (src, dst) in [(lo, hi), (hi, lo)] {
                            if (partition.shard_of(src), partition.shard_of(dst)) == (from, to) {
                                expected.extend((0..4).map(|vc| (src, dst, vc)));
                            }
                        }
                    }
                    expected
                };
                assert_eq!(*out, canonical(shard, peer));
                assert_eq!(*inn, canonical(peer, shard));
            }
        }
    }
}
