//! Out-of-band payload transport (DMA model).
//!
//! The cycle-level network model moves *flits*, which carry timing and
//! identity but not bulk data — exactly like HORNET, where packet contents are
//! DMA-ed functionally while the NoC model provides the timing. The
//! [`PayloadStore`] is the functional side of that DMA: the sending bridge
//! deposits a packet's payload keyed by packet id, and the receiving bridge
//! claims it when the tail flit arrives. It is sharded to keep lock
//! contention negligible.
//!
//! The store holds payloads and nothing else. Everything else a delivered
//! packet carries comes from its head flit, so a packet without a payload —
//! all synthetic traffic — is never deposited and costs the store nothing
//! until its destination asks for a payload and finds none.

use crate::flit::Payload;
use crate::ids::PacketId;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

const SHARDS: usize = 64;

/// Payloads each shard has room for once used: 512 in flight over the store.
/// A table that starts small grows in steps as the most payloads it has held
/// at once creeps up over a long run; one that starts at its working size
/// does not allocate once the run is warm.
const SHARD_CAPACITY: usize = 8;

/// A sharded, thread-safe map from packet id to the payload of a packet in
/// flight. Only non-empty payloads are parked.
#[derive(Debug)]
pub struct PayloadStore {
    shards: Vec<Mutex<HashMap<PacketId, Payload>>>,
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
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, id: PacketId) -> MutexGuard<'_, HashMap<PacketId, Payload>> {
        // A packet id is its source node above bit 40 and the source's
        // sequence number below. Folding the node in spreads the
        // same-numbered packets of a synchronised burst over the shards;
        // by the sequence number alone, every tile's k-th packet would share
        // one shard's lock and grow its table to the size of the burst.
        let raw = id.raw();
        lock(&self.shards[((raw ^ (raw >> 40)) as usize) % SHARDS])
    }

    /// Parks the payload of packet `id` for its destination to claim.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on an empty payload: a packet without one is
    /// never deposited.
    pub fn deposit(&self, id: PacketId, payload: Payload) {
        debug_assert!(!payload.is_empty(), "an empty payload is never parked");
        let mut shard = self.shard(id);
        if shard.capacity() == 0 {
            shard.reserve(SHARD_CAPACITY);
        }
        shard.insert(id, payload);
    }

    /// Claims (removes and returns) the payload of packet `id`, if one is
    /// parked.
    pub fn claim(&self, id: PacketId) -> Option<Payload> {
        let mut shard = self.shard(id);
        // Synthetic traffic parks nothing: an empty table skips hashing.
        if shard.is_empty() {
            return None;
        }
        shard.remove(&id)
    }

    /// Number of payloads currently parked in the store.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True if no payload is parked in the store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoint capture: every parked payload with its packet id, sorted
    /// by id so the serialized form is deterministic regardless of hash-map
    /// iteration order.
    pub fn snapshot_payloads(&self) -> Vec<(PacketId, Payload)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).iter().map(|(&id, p)| (id, p.clone())));
        }
        all.sort_by_key(|(id, _)| id.raw());
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

    fn words(id: u64) -> Payload {
        Payload::from_words(&[id])
    }

    #[test]
    fn deposit_and_claim_roundtrip() {
        let store = PayloadStore::new();
        assert!(store.is_empty());
        store.deposit(PacketId::new(5), words(5));
        store.deposit(PacketId::new(69), words(69)); // same shard as 5 with 64 shards
        assert_eq!(store.len(), 2);
        let p = store.claim(PacketId::new(5)).expect("present");
        assert_eq!(p.words(), &[5]);
        assert!(store.claim(PacketId::new(5)).is_none(), "claim removes");
        assert!(store.claim(PacketId::new(6)).is_none(), "never deposited");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_synchronised_burst_spreads_over_every_shard() {
        let store = PayloadStore::new();
        for node in 0..4 * SHARDS as u64 {
            store.deposit(PacketId::new(node << 40), words(node));
        }
        assert!(store.shards.iter().all(|s| lock(s).len() == 4));
    }

    #[test]
    fn a_parked_payload_costs_its_id_and_its_words_only() {
        assert!(std::mem::size_of::<(PacketId, Payload)>() <= 56);
        let store = PayloadStore::new();
        let mut expected = Vec::new();
        for id in 0..300u64 {
            let id = PacketId::new((id % 7) << 40 | id);
            let payload = Payload::from_words(&[id.raw(), !id.raw()]);
            expected.push((id, payload.clone()));
            store.deposit(id, payload);
        }
        expected.sort_by_key(|(id, _)| id.raw());
        assert_eq!(store.snapshot_payloads(), expected);
        for (id, payload) in &expected {
            assert_eq!(store.claim(*id).as_ref(), Some(payload));
            assert_eq!(store.claim(*id), None);
        }
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_deposit_and_claim() {
        use std::sync::Arc;
        let store = Arc::new(PayloadStore::new());
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    store.deposit(PacketId::new(i), words(i));
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
