//! Out-of-band payload transport (DMA model).
//!
//! The cycle-level network model moves *flits*, which carry timing and
//! identity but not bulk data — exactly like HORNET, where packet contents are
//! DMA-ed functionally while the NoC model provides the timing. The
//! [`PayloadStore`] is the functional side of that DMA: the sending bridge
//! deposits the full packet (with payload) keyed by packet id, and the
//! receiving bridge claims it when the tail flit arrives. It is sharded to
//! keep lock contention negligible.

use crate::flit::Packet;
use crate::ids::PacketId;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

const SHARDS: usize = 64;

/// Packets each shard has room for from the start: 512 in flight over the
/// store. A table that starts empty grows in steps as the most packets it
/// has held at once creeps up over a long run; one that starts at its
/// working size does not allocate once the run is warm.
const SHARD_CAPACITY: usize = 8;

/// A sharded, thread-safe map from packet id to the in-flight packet.
#[derive(Debug)]
pub struct PayloadStore {
    shards: Vec<Mutex<HashMap<PacketId, Packet>>>,
}

impl Default for PayloadStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::with_capacity(SHARD_CAPACITY)))
                .collect(),
        }
    }

    fn shard(&self, id: PacketId) -> MutexGuard<'_, HashMap<PacketId, Packet>> {
        // A packet id is its source node above bit 40 and the source's
        // sequence number below. Folding the node in spreads the
        // same-numbered packets of a synchronised burst over the shards;
        // by the sequence number alone, every tile's k-th packet would share
        // one shard's lock and grow its table to the size of the burst.
        let raw = id.raw();
        lock(&self.shards[((raw ^ (raw >> 40)) as usize) % SHARDS])
    }

    /// Deposits a packet (with its payload) for later pickup at the
    /// destination.
    pub fn deposit(&self, packet: Packet) {
        self.shard(packet.id).insert(packet.id, packet);
    }

    /// Claims (removes and returns) the packet with the given id, if present.
    pub fn claim(&self, id: PacketId) -> Option<Packet> {
        self.shard(id).remove(&id)
    }

    /// Number of packets currently parked in the store.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True if no packet is parked in the store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoint capture: every parked packet, sorted by packet id so the
    /// serialized form is deterministic regardless of hash-map iteration
    /// order.
    pub fn snapshot_packets(&self) -> Vec<Packet> {
        let mut all: Vec<Packet> = self
            .shards
            .iter()
            .flat_map(|s| lock(s).values().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|p| p.id.raw());
        all
    }
}

fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard
        .lock()
        .expect("a thread panicked while holding a payload-store shard lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Payload;
    use crate::ids::{FlowId, NodeId};

    fn packet(id: u64) -> Packet {
        Packet::new(
            PacketId::new(id),
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            2,
            0,
        )
        .with_payload(Payload::from_words(&[id]))
    }

    #[test]
    fn deposit_and_claim_roundtrip() {
        let store = PayloadStore::new();
        assert!(store.is_empty());
        store.deposit(packet(5));
        store.deposit(packet(69)); // same shard as 5 with 64 shards
        assert_eq!(store.len(), 2);
        let p = store.claim(PacketId::new(5)).expect("present");
        assert_eq!(p.payload.words(), &[5]);
        assert!(store.claim(PacketId::new(5)).is_none(), "claim removes");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_synchronised_burst_spreads_over_every_shard() {
        let store = PayloadStore::new();
        for node in 0..4 * SHARDS as u64 {
            store.deposit(packet(node << 40));
        }
        assert!(store.shards.iter().all(|s| lock(s).len() == 4));
    }

    #[test]
    fn concurrent_deposit_and_claim() {
        use std::sync::Arc;
        let store = Arc::new(PayloadStore::new());
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    store.deposit(packet(i));
                }
            })
        };
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut claimed = 0usize;
                while claimed < 1000 {
                    for i in 0..1000u64 {
                        if store.claim(PacketId::new(i)).is_some() {
                            claimed += 1;
                        }
                    }
                }
                claimed
            })
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 1000);
        assert!(store.is_empty());
    }
}
