//! Shard construction for a distributed run: the partition of a spec, its
//! cut set, and the per-shard parts every process builds for itself.
//!
//! Every process — the coordinator and each worker — derives the same
//! partition and cut set from the spec, and every worker wires its network
//! with [`hornet_shard::wiring::wire_shards`], the routine the thread host
//! uses too. Its canonical channel order is the addressing scheme of the
//! whole data plane: frame records refer to a channel by its position in the
//! per-neighbor lists, so no channel table ever needs to cross the wire.

use crate::spec::DistSpec;
use hornet_net::config::ConfigError;
use hornet_net::geometry::Geometry;
use hornet_net::ids::NodeId;
use hornet_net::payload::PayloadStore;
use hornet_shard::wiring::{wire_shards, ShardParts};
use hornet_shard::{Partition, Partitioner};
use std::sync::Arc;

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

/// Builds the partition a distributed run of `spec` over `workers` shards
/// uses (band-aligned, cut-minimal orientation).
pub fn partition_for(spec: &DistSpec, workers: usize) -> Partition {
    Partitioner::new(workers).mesh(spec.width as usize, spec.height as usize)
}

/// Builds the full network for `spec` and wires it into per-shard parts.
/// Also returns the process's payload store (the DMA side channel every
/// bridge deposits into), from which the transports claim payloads when
/// tail flits leave for another process. A worker keeps its own shard's
/// parts and drops the rest, leaving its boundary halves exclusive so its
/// transports can play the peer side.
pub fn build_shards(
    spec: &DistSpec,
    partition: &Partition,
) -> Result<(Vec<ShardParts>, Arc<PayloadStore>), ConfigError> {
    let (nodes, store) = spec.build_network()?.into_nodes();
    Ok((wire_shards(nodes, partition), store))
}
