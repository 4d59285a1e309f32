//! Shard construction for a distributed run: the partition of a spec, its
//! cut set, and the per-shard parts every worker builds for itself.
//!
//! Every process — the coordinator and each worker — derives the same
//! partition and cut set from the spec. Every worker builds only its own
//! shard's tiles and wires them with
//! [`hornet_shard::wiring::wire_shards`], the routine the thread host uses
//! too. Its canonical channel order is the addressing scheme of the
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

/// Builds the tiles of `shard` and nothing else, and wires them into that
/// shard's parts: every cut link toward another shard becomes a boundary
/// link whose far end this process's transports play. Also returns the
/// process's payload store (the DMA side channel every bridge deposits
/// into), from which the transports claim payloads when tail flits leave for
/// another process.
///
/// # Panics
///
/// Panics if `shard` is not a shard of `partition`.
pub fn build_shard(
    spec: &DistSpec,
    partition: &Partition,
    shard: usize,
) -> Result<(ShardParts, Arc<PayloadStore>), ConfigError> {
    let (tiles, store) = spec.build_tiles(partition.members(shard))?;
    let mut parts = wire_shards(tiles, partition);
    let part = parts.pop().expect("one shard was built");
    debug_assert!(parts.is_empty() && part.shard == shard);
    Ok((part, store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DistWorkload, RunKind};
    use crate::transport::Stream;
    use crate::worker::{ShardWorker, WorkerControl};
    use hornet_net::boundary::{BoundaryLink, EgressChannel};
    use hornet_net::ids::Cycle;
    use hornet_net::vcbuf::VcBuffer;
    use hornet_shard::driver::CheckpointSink;
    use hornet_shard::snapshot::snapshot_shard;
    use std::collections::HashMap;
    use std::io;

    /// One shard cut from the whole network by `wire_shards`: the reference
    /// a worker-built shard must equal.
    fn cut_from_full(
        spec: &DistSpec,
        partition: &Partition,
        shard: usize,
    ) -> (ShardParts, Arc<PayloadStore>) {
        let (nodes, store) = spec.build_network().expect("valid spec").into_nodes();
        let part = wire_shards(nodes, partition).swap_remove(shard);
        (part, store)
    }

    /// A channel by its sending tile, receiving tile and VC.
    type Channel = (NodeId, NodeId, usize);

    /// Each neighbor's `(peer, out_links, in_links)`, every link named by
    /// the channel it carries — read from the shard alone: outbound links
    /// from its routers' egress ports, inbound ones from the ingress buffers
    /// their receiver endpoints feed.
    fn addressing(part: &ShardParts) -> Vec<(usize, Vec<Channel>, Vec<Channel>)> {
        let mut name: HashMap<*const BoundaryLink, Channel> = HashMap::new();
        let mut buffer: HashMap<*const VcBuffer, Channel> = HashMap::new();
        for tile in &part.tiles {
            for &nb in tile.neighbors() {
                for (vc, c) in tile.router().egress_channels(nb).iter().enumerate() {
                    if let EgressChannel::Boundary(link) = c {
                        name.insert(Arc::as_ptr(link), (tile.node(), nb, vc));
                    }
                }
                for (vc, b) in tile.router().ingress_buffers_from(nb).iter().enumerate() {
                    buffer.insert(Arc::as_ptr(b), (nb, tile.node(), vc));
                }
            }
        }
        for rx in &part.inbound {
            name.insert(Arc::as_ptr(rx.link()), buffer[&Arc::as_ptr(rx.target())]);
        }
        let names = |links: &[Arc<BoundaryLink>]| -> Vec<Channel> {
            links.iter().map(|l| name[&Arc::as_ptr(l)]).collect()
        };
        part.neighbors
            .iter()
            .map(|n| (n.peer, names(&n.out_links), names(&n.in_links)))
            .collect()
    }

    fn snapshot_at_start(part: &ShardParts, store: &PayloadStore) -> Vec<u8> {
        snapshot_shard(0, 0, &part.tiles, &part.outbound, &part.inbound, store)
    }

    /// Keeps the checkpoint a shard takes at one cycle.
    #[cfg(unix)]
    struct KeepAt(Cycle, Option<Vec<u8>>);

    #[cfg(unix)]
    impl CheckpointSink for KeepAt {
        fn checkpoint(&mut self, cycle: Cycle, state: &[u8]) -> io::Result<()> {
            if cycle == self.0 {
                self.1 = Some(state.to_vec());
            }
            Ok(())
        }
    }

    /// Runs every shard through the worker's own loop, each on a thread,
    /// adjacent shards joined by Unix socket pairs, and returns each
    /// shard's checkpoint at cycle `at`. `build` makes a shard's parts.
    #[cfg(unix)]
    fn checkpoints_at(
        spec: &DistSpec,
        partition: &Partition,
        at: Cycle,
        build: impl Fn(usize) -> (ShardParts, Arc<PayloadStore>),
    ) -> Vec<Vec<u8>> {
        let spec = DistSpec {
            checkpoint_every: Some(at),
            ..spec.clone()
        };
        let shards = partition.shard_count();
        let mut ends: HashMap<(usize, usize), Stream> = HashMap::new();
        let mut workers: Vec<ShardWorker> = (0..shards)
            .map(|shard| {
                let (parts, payloads) = build(shard);
                ShardWorker {
                    parts,
                    transports: Vec::new(),
                    payloads,
                    spec: spec.clone(),
                    control: WorkerControl::new(),
                }
            })
            .collect();
        for (shard, worker) in workers.iter_mut().enumerate() {
            for (i, peer) in worker.transports_plan().into_iter().enumerate() {
                let end = ends.remove(&(shard, peer)).unwrap_or_else(|| {
                    let (a, b) = std::os::unix::net::UnixStream::pair().expect("socket pair");
                    ends.insert((peer, shard), Stream::Unix(b));
                    Stream::Unix(a)
                });
                worker.attach_pipe(i, end, 0).expect("transport");
            }
        }
        let threads: Vec<_> = workers
            .into_iter()
            .map(|worker| {
                std::thread::spawn(move || {
                    let mut sink = KeepAt(at, None);
                    worker
                        .run(0, at + 1, 0, Some(&mut sink), None)
                        .expect("shard runs");
                    sink.1.expect("a checkpoint at the cycle asked for")
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("shard thread"))
            .collect()
    }

    /// A worker's own build of its shard — only its tiles, boundary links
    /// made from the router config — is the shard cut from the whole
    /// network: same checkpoint bytes and same wire addressing at cycle 0,
    /// and same checkpoint bytes after 200 cycles of a run over sockets.
    #[cfg(unix)]
    #[test]
    fn a_worker_built_shard_is_the_shard_cut_from_the_whole_network() {
        let transpose = DistSpec {
            width: 16,
            height: 16,
            ..DistSpec::default()
        };
        let vsum = DistSpec {
            workload: DistWorkload::MemVectorSum {
                base_stride: 0x1_0000,
                count: 8,
            },
            run: RunKind::ToCompletion { max: 400_000 },
            ..DistSpec::default()
        };
        for (spec, workers) in [(transpose, 2), (vsum, 4)] {
            let partition = partition_for(&spec, workers);
            assert_eq!(partition.shard_count(), workers);
            for shard in 0..workers {
                let (own, own_store) = build_shard(&spec, &partition, shard).unwrap();
                let (cut, cut_store) = cut_from_full(&spec, &partition, shard);
                assert_eq!(own.shard, shard);
                assert_eq!(own.tiles.len(), partition.members(shard).len());
                assert!(!own.neighbors.is_empty());
                assert_eq!(
                    addressing(&own),
                    addressing(&cut),
                    "shard {shard} of {workers}"
                );
                assert_eq!(
                    snapshot_at_start(&own, &own_store),
                    snapshot_at_start(&cut, &cut_store),
                    "shard {shard} of {workers} at cycle 0"
                );
            }
            let own = checkpoints_at(&spec, &partition, 200, |shard| {
                build_shard(&spec, &partition, shard).unwrap()
            });
            let cut = checkpoints_at(&spec, &partition, 200, |shard| {
                cut_from_full(&spec, &partition, shard)
            });
            for (shard, (own, cut)) in own.iter().zip(&cut).enumerate() {
                assert!(own == cut, "shard {shard} of {workers} at cycle 200");
            }
        }
    }

    /// At paper scale each worker process holds its quarter of the tiles.
    #[test]
    fn a_32x32_worker_holds_only_its_quarter() {
        let spec = DistSpec {
            width: 32,
            height: 32,
            ..DistSpec::default()
        };
        let partition = partition_for(&spec, 4);
        for shard in 0..4 {
            let (part, _) = build_shard(&spec, &partition, shard).unwrap();
            assert_eq!(part.tiles.len(), 256, "shard {shard}");
            for (tile, &member) in part.tiles.iter().zip(partition.members(shard)) {
                assert_eq!(tile.node().index(), member);
            }
        }
    }
}
