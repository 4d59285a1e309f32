//! The ingress virtual-channel buffer: a bounded flit FIFO that one thread
//! drives from both ends.
//!
//! As in the paper (§II-C), each VC buffer has a producer (tail) end fed from
//! *upstream* and a consumer (head) end owned by the *downstream* router, and
//! a cycle is split in two so that the ends never see each other's work of
//! the same cycle: deposits land at the negative edge and become visible to
//! the consumer's pipeline only when it absorbs them at its next positive
//! edge ([`absorb_tail`]).
//!
//! # Ownership contract
//!
//! **Between two wiring changes, exactly one thread calls every method of a
//! given `VcBuffer` and of the [`Aggregate`] it reports into.** The buffer
//! does not synchronise anything; it is plain memory.
//!
//! The two ends are, on every backend:
//!
//! * producer — one of three endpoints, depending on what feeds the VC: the
//!   upstream router's negative edge (`Router::apply_move`, through
//!   [`EgressChannel::Local`]), the tile's own bridge (`Bridge::inject`, for
//!   the injection VCs), or the boundary receiver ([`BoundaryRx::deliver`],
//!   for a VC whose upstream router lives in another shard);
//! * consumer — the owning router (`absorb_tail` at its positive edge,
//!   [`pop_if`] at its negative edge), plus whoever snapshots, restores or
//!   drains the tile between cycles.
//!
//! Who the one thread is:
//!
//! * sequential runs (`Network::run`, the benchmark's stepper): the caller's
//!   thread drives every tile, so it owns every buffer;
//! * the thread host (`hornet_shard::ShardRuntime`) and every `hornet-dist`
//!   worker process: before a run, one routine,
//!   `hornet_shard::wiring::wire_shards`, rewires *every link whose two
//!   routers land in different shards* — the upstream egress port gets a
//!   [`BoundaryLink`] mailbox ([`crate::spsc`] rings) in place of the
//!   `Arc<VcBuffer>` handles, and the receiving shard gets the matching
//!   `BoundaryRx`. What is left behind an `EgressChannel::Local` is always a
//!   buffer of a tile in the *same* shard, so the shard's driver thread is
//!   the only one that touches it. After a thread-host run the links are
//!   swapped back (`hornet_shard::wiring::unwire`).
//!
//! Ownership changes hands only while no cycle is in flight: when the tiles
//! are moved to a worker (a channel send), when they come back (a channel
//! receive, after which the caller flushes the boundary mailboxes into the
//! buffers), or when a thread is joined. Each of those is a happens-before
//! edge, which is all a plain-memory structure needs. [`crate::spsc::Spsc`]
//! is therefore the *only* ring in the simulator that synchronises two
//! threads; nothing may share a `VcBuffer` across a shard cut.
//!
//! `hornet-shard`'s `wiring_leaves_no_local_channel_across_a_cut` test checks
//! the structural half of this on the tiles `wire_shards` hands out, which
//! covers both hosts.
//!
//! # Storage
//!
//! Flits live in a fixed-capacity ring allocated once at construction —
//! steady-state operation never touches the heap. The `occupancy` flits at
//! ring positions `read_idx, read_idx + 1, …` (wrapping) are initialised; the
//! last `pending` of them were deposited since the last absorb and are not
//! yet visible to the consumer. The credit check upstream reads `occupancy`
//! at its positive edge, when no buffer moves, so it sees the pops of the
//! previous negative edge and none of this cycle's — a hardware credit loop
//! with a one-cycle round trip.
//!
//! An optional [`Aggregate`] shared by all ingress buffers of one router
//! makes the router's `buffered_flits()` / `is_idle()` O(1).
//!
//! [`absorb_tail`]: VcBuffer::absorb_tail
//! [`pop_if`]: VcBuffer::pop_if
//! [`EgressChannel::Local`]: crate::boundary::EgressChannel::Local
//! [`BoundaryRx::deliver`]: crate::boundary::BoundaryRx::deliver
//! [`BoundaryLink`]: crate::boundary::BoundaryLink

use crate::flit::Flit;
use crate::ids::Cycle;
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::Arc;

/// The number of flits resident in all ingress buffers of one router: every
/// buffer built [`with_aggregate`](VcBuffer::with_aggregate) counts its
/// pushes and pops here too. Same single owner as the buffers.
#[derive(Debug, Default)]
pub struct Aggregate(Cell<usize>);

// SAFETY: the module-level ownership contract — one thread at a time calls
// into a router's buffers and reads their aggregate, and hand-offs between
// threads are happens-before edges — so the `Cell` is never accessed
// concurrently. (`Send` is automatic: the field is a plain `usize`.)
unsafe impl Sync for Aggregate {}

impl Aggregate {
    /// The current count.
    #[inline]
    pub fn get(&self) -> usize {
        self.0.get()
    }

    #[inline]
    fn add(&self, n: usize) {
        self.0.set(self.0.get() + n);
    }

    #[inline]
    fn sub(&self, n: usize) {
        self.0.set(self.0.get() - n);
    }
}

/// A bounded FIFO of flits with a producer (tail) end and a consumer (head)
/// end, backed by a fixed ring allocated at construction. Single-owner: see
/// the module-level ownership contract.
pub struct VcBuffer {
    capacity: usize,
    /// Ring storage; initialised at `read_idx .. read_idx + occupancy`
    /// (wrapping).
    slots: Box<[UnsafeCell<MaybeUninit<Flit>>]>,
    /// Ring index of the head flit.
    read_idx: Cell<usize>,
    /// Ring index the next deposit goes to.
    write_idx: Cell<usize>,
    /// Flits resident in the buffer; the credit-check value.
    occupancy: Cell<usize>,
    /// The youngest `pending` resident flits are deposited but not absorbed.
    pending: Cell<usize>,
    /// Optional router-wide occupancy aggregate (all ingress buffers of one
    /// router share it), making the router's idle check O(1).
    aggregate: Option<Arc<Aggregate>>,
}

// SAFETY: this is the module-level ownership contract, and the only thing
// that makes sharing `Arc<VcBuffer>` handles between tiles sound: between two
// wiring changes one thread makes every call on a given buffer, and ownership
// moves between threads only across happens-before edges (channel sends,
// joins), so neither the cursor `Cell`s nor the slot `UnsafeCell`s are ever
// accessed concurrently. `Flit` is `Copy + Send`, so `Send` is automatic.
unsafe impl Sync for VcBuffer {}

impl std::fmt::Debug for VcBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcBuffer")
            .field("capacity", &self.capacity)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

impl VcBuffer {
    /// Creates a buffer holding at most `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// Creates a buffer that additionally reports its occupancy into a shared
    /// per-router aggregate counter (see [`occupancy`](Self::occupancy)).
    pub fn with_aggregate(capacity: usize, aggregate: Arc<Aggregate>) -> Self {
        Self::build(capacity, Some(aggregate))
    }

    fn build(capacity: usize, aggregate: Option<Arc<Aggregate>>) -> Self {
        assert!(
            capacity > 0,
            "a VC buffer needs capacity for at least one flit"
        );
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            capacity,
            slots,
            read_idx: Cell::new(0),
            write_idx: Cell::new(0),
            occupancy: Cell::new(0),
            pending: Cell::new(0),
            aggregate,
        }
    }

    /// Buffer capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy (flits resident in the buffer, absorbed or not).
    /// This is the value upstream credit checks use.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy.get()
    }

    /// Free space, in flits.
    #[inline]
    pub fn free_space(&self) -> usize {
        self.capacity - self.occupancy()
    }

    /// The ring index `steps` (at most `capacity`) past `idx`.
    #[inline]
    fn advance(&self, idx: usize, steps: usize) -> usize {
        let next = idx + steps;
        if next >= self.capacity {
            next - self.capacity
        } else {
            next
        }
    }

    /// The flit `k` places behind the head.
    ///
    /// # Safety
    ///
    /// `k < occupancy` (the slot holds an initialised flit), and the
    /// reference must not outlive the next push into this buffer.
    #[inline]
    unsafe fn resident(&self, k: usize) -> &Flit {
        (*self.slots[self.advance(self.read_idx.get(), k)].get()).assume_init_ref()
    }

    /// Deposits a flit at the tail end. Called by the producer endpoint (the
    /// upstream router, the local bridge, or the boundary receiver) during
    /// the tile's negative clock edge.
    ///
    /// Returns `false` (and does not enqueue) if the buffer is full; callers
    /// are expected to have performed a credit check first, so a `false`
    /// return indicates a flow-control bug and is counted by the router.
    #[must_use]
    #[inline]
    pub fn push(&self, flit: Flit) -> bool {
        let occupancy = self.occupancy.get();
        if occupancy >= self.capacity {
            return false;
        }
        let idx = self.write_idx.get();
        // SAFETY: `occupancy < capacity`, so slot `write_idx` lies outside
        // the initialised run and no reference into it exists.
        unsafe {
            (*self.slots[idx].get()).write(flit);
        }
        self.write_idx.set(self.advance(idx, 1));
        self.occupancy.set(occupancy + 1);
        self.pending.set(self.pending.get() + 1);
        if let Some(agg) = &self.aggregate {
            agg.add(1);
        }
        true
    }

    /// Makes flits deposited at the tail end visible to the head end. Called
    /// by the owning router at the start of its cycle; after this,
    /// [`peek`](Self::peek) and [`pop_if`](Self::pop_if) observe them.
    /// Returns the number of flits absorbed.
    #[inline]
    pub fn absorb_tail(&self) -> usize {
        self.pending.replace(0)
    }

    /// Number of flits currently visible at the head end (ignores the
    /// visibility timestamp; used for statistics).
    #[inline]
    pub fn head_len(&self) -> usize {
        self.occupancy.get() - self.pending.get()
    }

    /// The `visible_at` stamp of the head flit among the absorbed run, or
    /// `Cycle::MAX` if nothing is absorbed. This is all switch arbitration
    /// needs to know about a head, so the router caches it per VC in place of
    /// the flit.
    #[inline]
    pub fn head_visible_at(&self) -> Cycle {
        if self.head_len() == 0 {
            return Cycle::MAX;
        }
        // SAFETY: an absorbed flit is resident; the reference ends here.
        unsafe { self.resident(0).visible_at }
    }

    /// Returns a copy of the flit at the head of the buffer, if any, provided
    /// it has become visible by `now` (its `visible_at` stamp has passed).
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<Flit> {
        if self.head_len() == 0 {
            return None;
        }
        // SAFETY: an absorbed flit is resident; copied out at once.
        let flit = unsafe { *self.resident(0) };
        (flit.visible_at <= now).then_some(flit)
    }

    /// Pops the head flit if it is visible by `now` and `pred` accepts it.
    #[inline]
    pub fn pop_if(&self, now: Cycle, pred: impl FnOnce(&Flit) -> bool) -> Option<Flit> {
        let flit = self.peek(now)?;
        if !pred(&flit) {
            return None;
        }
        self.read_idx.set(self.advance(self.read_idx.get(), 1));
        self.occupancy.set(self.occupancy.get() - 1);
        if let Some(agg) = &self.aggregate {
            agg.sub(1);
        }
        Some(flit)
    }

    /// True if the buffer holds no flits at all.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// A non-destructive copy of the buffer's contents, split at the absorb
    /// boundary: `(visible, pending)` where `visible` holds the flits already
    /// absorbed into the consumer's pipeline view and `pending` the flits
    /// deposited but not yet absorbed. Checkpoint restore replays the two
    /// runs around an [`absorb_tail`](Self::absorb_tail) call so the restored
    /// buffer splits exactly where the snapshot did.
    pub fn snapshot_split(&self) -> (Vec<Flit>, Vec<Flit>) {
        // SAFETY: every `k < occupancy` is resident; copied out at once.
        let copy = |k| unsafe { *self.resident(k) };
        let absorbed = self.head_len();
        (
            (0..absorbed).map(copy).collect(),
            (absorbed..self.occupancy()).map(copy).collect(),
        )
    }

    /// Restores the contents captured by [`snapshot_split`](Self::snapshot_split)
    /// into this (empty, freshly built) buffer: the `visible` run is pushed
    /// and absorbed, the `pending` run pushed but left unabsorbed.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not empty or the snapshot exceeds capacity.
    pub fn restore_split(&self, visible: &[Flit], pending: &[Flit]) {
        assert!(self.is_empty(), "restore into a non-empty VC buffer");
        for f in visible {
            assert!(self.push(*f), "snapshot exceeds VC buffer capacity");
        }
        self.absorb_tail();
        for f in pending {
            assert!(self.push(*f), "snapshot exceeds VC buffer capacity");
        }
    }

    /// Drains every flit out of the buffer, absorbed or not, oldest first
    /// (test / teardown helper).
    pub fn drain_all(&self) -> Vec<Flit> {
        let (mut out, pending) = self.snapshot_split();
        out.extend(pending);
        self.read_idx.set(self.write_idx.get());
        self.occupancy.set(0);
        self.pending.set(0);
        if let Some(agg) = &self.aggregate {
            agg.sub(out.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitStats};
    use crate::ids::{FlowId, NodeId, PacketId};

    fn flit(seq: u32, visible_at: Cycle) -> Flit {
        Flit {
            packet: PacketId::new(1),
            flow: FlowId::new(1),
            original_flow: FlowId::new(1),
            kind: if seq == 0 {
                FlitKind::Head
            } else {
                FlitKind::Body
            },
            seq,
            packet_len: 8,
            dst: NodeId::new(1),
            src: NodeId::new(0),
            visible_at,
            stats: FlitStats::default(),
        }
    }

    #[test]
    fn push_respects_capacity() {
        let buf = VcBuffer::new(2);
        assert!(buf.push(flit(0, 0)));
        assert!(buf.push(flit(1, 0)));
        assert!(!buf.push(flit(2, 0)));
        assert_eq!(buf.occupancy(), 2);
        assert_eq!(buf.free_space(), 0);
    }

    #[test]
    fn fifo_order_preserved_across_absorb() {
        let buf = VcBuffer::new(8);
        for i in 0..4 {
            assert!(buf.push(flit(i, 0)));
        }
        assert_eq!(buf.absorb_tail(), 4);
        for i in 0..4 {
            let f = buf.pop_if(10, |_| true).expect("flit present");
            assert_eq!(f.seq, i);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn visibility_timestamp_hides_future_flits() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 5)));
        buf.absorb_tail();
        assert!(buf.peek(4).is_none());
        assert!(buf.pop_if(4, |_| true).is_none());
        assert!(buf.peek(5).is_some());
        assert!(buf.pop_if(5, |_| true).is_some());
    }

    #[test]
    fn pop_if_respects_predicate() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 0)));
        buf.absorb_tail();
        assert!(buf.pop_if(1, |f| f.seq == 9).is_none());
        assert_eq!(buf.occupancy(), 1);
        assert!(buf.pop_if(1, |f| f.seq == 0).is_some());
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn occupancy_counts_both_ends() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 0)));
        buf.absorb_tail();
        assert!(buf.push(flit(1, 0)));
        assert_eq!(buf.occupancy(), 2);
        assert_eq!(buf.head_len(), 1);
        let drained = buf.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn head_stamp_follows_the_absorbed_head() {
        let buf = VcBuffer::new(8);
        assert_eq!(buf.head_visible_at(), Cycle::MAX);
        assert!(buf.push(flit(0, 7)));
        assert!(buf.push(flit(1, 9)));
        // Deposited but not absorbed: no head yet.
        assert_eq!(buf.head_visible_at(), Cycle::MAX);
        buf.absorb_tail();
        // Absorbed: the stamp is reported whether or not it has come due.
        assert_eq!(buf.head_visible_at(), 7);
        assert!(buf.pop_if(7, |_| true).is_some());
        assert_eq!(buf.head_visible_at(), 9);
        assert!(buf.pop_if(9, |_| true).is_some());
        assert_eq!(buf.head_visible_at(), Cycle::MAX);
    }

    #[test]
    fn ring_reuses_slots_across_many_wraps() {
        let buf = VcBuffer::new(3);
        let mut next = 0u32;
        let mut expect = 0u32;
        for _ in 0..50 {
            while buf.push(flit(next, 0)) {
                next += 1;
            }
            buf.absorb_tail();
            while let Some(f) = buf.pop_if(u64::MAX, |_| true) {
                assert_eq!(f.seq, expect);
                expect += 1;
            }
        }
        assert_eq!(next, expect);
        assert!(next >= 150, "three flits per round expected");
    }

    #[test]
    fn aggregate_counter_tracks_all_movements() {
        let agg = Arc::new(Aggregate::default());
        let a = VcBuffer::with_aggregate(4, Arc::clone(&agg));
        let b = VcBuffer::with_aggregate(4, Arc::clone(&agg));
        assert!(a.push(flit(0, 0)));
        assert!(b.push(flit(1, 0)));
        assert!(b.push(flit(2, 0)));
        assert_eq!(agg.get(), 3);
        a.absorb_tail();
        assert!(a.pop_if(1, |_| true).is_some());
        assert_eq!(agg.get(), 2);
        b.drain_all();
        assert_eq!(agg.get(), 0);
        // A full buffer's rejected push must not disturb the aggregate.
        let full = VcBuffer::with_aggregate(1, Arc::clone(&agg));
        assert!(full.push(flit(0, 0)));
        assert!(!full.push(flit(1, 0)));
        assert_eq!(agg.get(), 1);
    }
}
