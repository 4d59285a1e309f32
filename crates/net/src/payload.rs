//! Out-of-band payload transport (DMA model).
//!
//! The cycle-level network model moves *flits*, which carry timing and
//! identity but not bulk data — exactly like HORNET, where packet contents are
//! DMA-ed functionally while the NoC model provides the timing. The
//! [`PayloadStore`] is the functional side of that DMA: the sending bridge
//! deposits the full packet (with payload) keyed by packet id, and the
//! receiving bridge claims it when the tail flit arrives. It is sharded to
//! keep lock contention negligible.
//!
//! Most packets in flight carry no payload (all synthetic traffic), so a
//! shard parks those as a 40-byte [`Header`] in a table of their own and
//! only packets with a payload as a whole [`Packet`]; a claim rebuilds the
//! identical packet either way.

use crate::flit::{Packet, Payload};
use crate::ids::{Cycle, FlowId, NodeId, PacketId};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

const SHARDS: usize = 64;

/// Packets each of a shard's tables has room for once used: 512 in flight
/// over the store. A table that starts small grows in steps as the most
/// packets it has held at once creeps up over a long run; one that starts at
/// its working size does not allocate once the run is warm.
const SHARD_CAPACITY: usize = 8;

/// A parked packet that carries no payload: everything but its id (the
/// table's key).
#[derive(Copy, Clone, Debug)]
struct Header {
    flow: FlowId,
    created_at: Cycle,
    injected_at: Cycle,
    src: NodeId,
    dst: NodeId,
    len_flits: u32,
}

impl Header {
    fn of(p: &Packet) -> Self {
        Self {
            flow: p.flow,
            created_at: p.created_at,
            injected_at: p.injected_at,
            src: p.src,
            dst: p.dst,
            len_flits: p.len_flits,
        }
    }

    fn packet(&self, id: PacketId) -> Packet {
        Packet {
            id,
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            len_flits: self.len_flits,
            created_at: self.created_at,
            injected_at: self.injected_at,
            payload: Payload::empty(),
        }
    }
}

/// One lock's worth of parked packets, by whether they carry a payload.
#[derive(Debug, Default)]
struct Shard {
    headers: HashMap<PacketId, Header>,
    packets: HashMap<PacketId, Packet>,
}

/// Inserts into `table`, giving it its working size on first use.
fn park<V>(table: &mut HashMap<PacketId, V>, id: PacketId, value: V) {
    if table.capacity() == 0 {
        table.reserve(SHARD_CAPACITY);
    }
    table.insert(id, value);
}

/// A sharded, thread-safe map from packet id to the in-flight packet.
#[derive(Debug)]
pub struct PayloadStore {
    shards: Vec<Mutex<Shard>>,
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

    fn shard(&self, id: PacketId) -> MutexGuard<'_, Shard> {
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
        let mut shard = self.shard(packet.id);
        if packet.payload.is_empty() {
            park(&mut shard.headers, packet.id, Header::of(&packet));
        } else {
            park(&mut shard.packets, packet.id, packet);
        }
    }

    /// Claims (removes and returns) the packet with the given id, if present.
    pub fn claim(&self, id: PacketId) -> Option<Packet> {
        let mut shard = self.shard(id);
        match shard.headers.remove(&id) {
            Some(header) => Some(header.packet(id)),
            None => shard.packets.remove(&id),
        }
    }

    /// Number of packets currently parked in the store.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = lock(s);
                s.headers.len() + s.packets.len()
            })
            .sum()
    }

    /// True if no packet is parked in the store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoint capture: every parked packet, sorted by packet id so the
    /// serialized form is deterministic regardless of hash-map iteration
    /// order.
    pub fn snapshot_packets(&self) -> Vec<Packet> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            all.extend(shard.headers.iter().map(|(&id, h)| h.packet(id)));
            all.extend(shard.packets.values().cloned());
        }
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
        assert!(store.shards.iter().all(|s| lock(s).packets.len() == 4));
    }

    #[test]
    fn payload_less_packets_park_as_headers_and_come_back_whole() {
        assert!(std::mem::size_of::<(PacketId, Header)>() <= 48);
        let store = PayloadStore::new();
        // The single-table store this one replaced, as a model.
        let mut model: HashMap<PacketId, Packet> = HashMap::new();
        for id in 0..300u64 {
            let mut p = Packet::new(
                PacketId::new((id % 7) << 40 | id),
                FlowId::new(id * 3).with_phase((id % 3) as u8),
                NodeId::new(id as u32 % 7),
                NodeId::new(id as u32 % 11),
                1 + id as u32 % 8,
                1_000 + id,
            );
            p.injected_at = 1_000 + 2 * id;
            if id % 3 == 0 {
                p = p.with_payload(Payload::from_words(&[id, !id]));
            }
            model.insert(p.id, p.clone());
            store.deposit(p);
        }
        let (headers, packets) = store.shards.iter().fold((0, 0), |(h, p), s| {
            let s = lock(s);
            assert!(s.packets.values().all(|p| !p.payload.is_empty()));
            (h + s.headers.len(), p + s.packets.len())
        });
        assert_eq!((headers, packets), (200, 100));
        let mut expected: Vec<Packet> = model.values().cloned().collect();
        expected.sort_by_key(|p| p.id.raw());
        assert_eq!(store.snapshot_packets(), expected);
        for p in &expected {
            assert_eq!(store.claim(p.id).as_ref(), Some(p));
            assert_eq!(store.claim(p.id), None);
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
