//! Cross-shard boundary channels: lock-free SPSC mailboxes for flits and
//! credits crossing a cut link.
//!
//! When the sharded runtime (the `hornet-shard` crate) partitions the tiles of
//! a network across worker threads, every link whose endpoints land in
//! different shards — a *cut link* — is rewired. The downstream ingress
//! [`VcBuffer`]s stay entirely shard-local (only the owning worker touches
//! them); in their place the upstream router's egress port is given a
//! [`BoundaryLink`] per virtual channel:
//!
//! * **flits** travel through a fixed-capacity lock-free SPSC ring
//!   ([`Spsc`]), written by the sender's negative clock edge and drained by
//!   the receiving worker at the top of each of its cycles. Each flit already
//!   carries its `visible_at` cycle stamp, and the receiver consumes only
//!   the flits stamped up to a limit its synchronization window guarantees
//!   have arrived — never whatever else happens to be in the ring;
//! * **credits** return through a second SPSC ring of cycle-stamped
//!   [`CreditMsg`] records, emitted by the receiving worker after its negative
//!   edge (one message summarizing the flits its router drained that cycle)
//!   and folded into the sender-side `outstanding` counter, again up to a
//!   stamp limit, before the sender's next positive edge.
//!
//! The sender's credit check — `free_space()` on the [`BoundaryLink`] — is a
//! single atomic load of `outstanding` (flits sent minus credits applied), so
//! cross-shard traffic never touches a lock of any kind, let alone a global
//! one. Because `outstanding` is only decremented *after* a credit message is
//! consumed, `flits-in-ring + flits-in-downstream-buffer ≤ capacity` holds at
//! all times; a ring sized to the VC capacity can therefore never overflow,
//! and a drained flit always fits in the downstream buffer.
//!
//! [`EgressChannel`] is the small enum that lets a router's egress port face
//! either a local shared [`VcBuffer`] (sequential and intra-shard links) or a
//! [`BoundaryLink`] (cut links) with identical credit semantics.

use crate::flit::Flit;
use crate::ids::Cycle;
use crate::vcbuf::VcBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::spsc::Spsc;

/// A cycle-stamped credit return: `count` flits left the downstream ingress
/// buffer during the receiver's cycle `cycle`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CreditMsg {
    /// Receiver-local cycle whose negative edge freed the buffer slots.
    pub cycle: Cycle,
    /// Number of slots freed.
    pub count: u32,
}

/// One virtual channel of one *directed* cut link: the flit mailbox, the
/// credit mailbox, and the sender-side credit state.
#[derive(Debug)]
pub struct BoundaryLink {
    capacity: usize,
    /// Sender-side view of the downstream VC occupancy: flits pushed minus
    /// credits applied. Includes flits still in flight in the mailbox, which
    /// is exactly what makes the credit check conservative.
    outstanding: AtomicUsize,
    flits: Spsc<Flit>,
    credits: Spsc<CreditMsg>,
}

impl BoundaryLink {
    /// Creates a boundary link mirroring a downstream VC of `capacity` flits.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_resident(capacity, 0)
    }

    /// Creates a boundary link for a downstream VC that already holds
    /// `resident` flits (wiring mid-simulation): the sender's credit view
    /// must start at the real occupancy or it would oversubscribe the buffer
    /// and diverge from the sequential schedule.
    pub fn with_resident(capacity: usize, resident: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Self {
            capacity,
            outstanding: AtomicUsize::new(resident.min(capacity)),
            flits: Spsc::new(capacity),
            // Every unapplied message carries at least one credit and
            // together they carry at most `outstanding ≤ capacity`, however
            // far the receiver runs ahead; the spare slot keeps that bound
            // from ever meeting a full ring (`emit_credits` asserts it).
            credits: Spsc::new(capacity + 1),
        })
    }

    /// Downstream VC capacity, in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sender-side occupancy view (downstream-resident plus in-flight flits).
    pub fn occupancy(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Free space as seen by the sender's credit check.
    pub fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.occupancy())
    }

    /// Flits currently in flight in the mailbox (not yet drained by the
    /// receiver); used for idle detection at synchronization boundaries.
    pub fn in_flight(&self) -> usize {
        self.flits.len()
    }

    /// Sender side: sends a flit across the cut link. Returns `false` without
    /// sending if no credit is available (callers have already performed a
    /// credit check, so `false` indicates a flow-control bug upstream).
    #[must_use]
    pub fn push(&self, flit: Flit) -> bool {
        let prev = self.outstanding.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        // `outstanding ≤ capacity` now holds, which bounds ring occupancy by
        // `capacity`: this push cannot fail.
        let ok = self.flits.push(flit);
        debug_assert!(ok, "boundary flit ring overflow despite credit check");
        ok
    }

    /// Sender side: folds the returned credits stamped `≤ limit` into the
    /// outstanding counter (the sender observes exactly the pops its
    /// synchronization window has made visible).
    pub fn apply_credits(&self, limit: Cycle) {
        while let Some(msg) = self.credits.pop_if(|m| m.cycle <= limit) {
            self.outstanding
                .fetch_sub(msg.count as usize, Ordering::AcqRel);
        }
    }

    /// Cumulative flits pushed into this link over its lifetime. Monotone;
    /// this is the sender-side `sent` count the credit-counting termination
    /// detector balances against the receiver's delivery count.
    pub fn flits_pushed(&self) -> u64 {
        self.flits.pushed()
    }

    // --- transport-side raw endpoints -----------------------------------
    //
    // The multi-process backends split one logical cut link into two local
    // half-links: an *outbound* half whose flit ring is drained to the wire
    // by a transport pump, and an *inbound* half whose flit ring is filled
    // from the wire. The pump plays the role of the remote peer, so it needs
    // ring access that bypasses the sender-side credit accounting (credits
    // are tracked end-to-end by the shard loops, not per hop).

    /// Transport pump (consumer side of an outbound half): drains every
    /// staged flit, in order, into `f`. Returns the number drained.
    pub fn drain_staged_flits(&self, mut f: impl FnMut(Flit)) -> usize {
        let mut n = 0;
        while let Some(flit) = self.flits.pop() {
            f(flit);
            n += 1;
        }
        n
    }

    /// Transport pump (producer side of an inbound half): appends a flit
    /// that arrived from the wire *without* touching the credit window — the
    /// end-to-end credit check already ran on the sending shard. Returns
    /// `false` if the ring is full (a protocol violation: end-to-end credits
    /// bound ring occupancy by its capacity).
    #[must_use]
    pub fn inject_flit(&self, flit: Flit) -> bool {
        self.flits.push(flit)
    }

    /// Transport pump (consumer side of an inbound half): takes one staged
    /// credit message for forwarding to the wire.
    pub fn take_staged_credit(&self) -> Option<CreditMsg> {
        self.credits.pop()
    }

    /// Transport pump (producer side of an outbound half): appends a credit
    /// message that arrived from the wire, to be folded in by the sender's
    /// next [`apply_credits`](Self::apply_credits). Returns `false` if the
    /// ring is full (retry after the shard loop drains it).
    #[must_use]
    pub fn inject_credit(&self, msg: CreditMsg) -> bool {
        self.credits.push(msg)
    }

    // --- checkpoint capture / restore ------------------------------------
    //
    // A checkpoint taken at a rendezvous cycle captures the raw channel
    // state as plain data; the serialization lives with the caller (the
    // shard snapshot module), keeping this module codec-free.

    /// Checkpoint capture: every flit currently staged in the mailbox, in
    /// FIFO order. Safe to call while the producer side is still live.
    pub fn staged_flit_snapshot(&self) -> Vec<Flit> {
        self.flits.snapshot()
    }

    /// Checkpoint capture: every credit message currently staged, in FIFO
    /// order.
    pub fn staged_credit_snapshot(&self) -> Vec<CreditMsg> {
        self.credits.snapshot()
    }

    /// Checkpoint restore of the *sender* side of a link (an outbound half
    /// under the multi-process backends): re-establishes the cumulative
    /// `pushed` cursor the credit-counting termination detector balances
    /// against, refills both rings with the checkpointed items and restores
    /// the sender's credit window.
    ///
    /// Must be called on a freshly created, never-used link.
    ///
    /// # Panics
    ///
    /// Panics if the link has already carried traffic or if the checkpointed
    /// items no longer fit (both indicate a corrupt checkpoint).
    pub fn restore_outbound(
        &self,
        pushed: u64,
        outstanding: usize,
        flits: &[Flit],
        credits: &[CreditMsg],
    ) {
        self.flits.rebase(pushed - flits.len() as u64);
        for &f in flits {
            assert!(self.flits.push(f), "checkpointed flit overflows the ring");
        }
        for &c in credits {
            assert!(
                self.credits.push(c),
                "checkpointed credit overflows the ring"
            );
        }
        self.outstanding
            .store(outstanding.min(self.capacity), Ordering::Release);
    }

    /// Checkpoint restore of the *receiver* side of a link (an inbound half
    /// under the multi-process backends): refills the mailbox with the flits
    /// that were in flight at the checkpoint. The fresh ring's zero cursor
    /// base is kept — receiver-side delivery totals are restored in the
    /// cycle driver, not here.
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed flits no longer fit.
    pub fn restore_inbound(&self, flits: &[Flit]) {
        for &f in flits {
            assert!(self.flits.push(f), "checkpointed flit overflows the ring");
        }
    }
}

/// The receiver-side endpoint of one boundary link: drains the flit mailbox
/// into the real (shard-local) ingress [`VcBuffer`] and emits credits for the
/// flits the router has consumed. Owned by exactly one worker at a time.
#[derive(Debug)]
pub struct BoundaryRx {
    link: Arc<BoundaryLink>,
    target: Arc<VcBuffer>,
    /// Flits resident in `target` when the link was wired (their pops must
    /// produce credits too, since they are part of the sender's initial
    /// `outstanding`).
    baseline: u64,
    /// Flits moved from the mailbox into `target` so far.
    forwarded: u64,
    /// Credits enqueued so far.
    credited: u64,
}

impl BoundaryRx {
    /// Creates the receiver endpoint draining `link` into `target`. The
    /// buffer's current occupancy becomes the credit baseline and must match
    /// the `resident` count the link was created with.
    pub fn new(link: Arc<BoundaryLink>, target: Arc<VcBuffer>) -> Self {
        let baseline = target.occupancy() as u64;
        Self {
            link,
            target,
            baseline,
            forwarded: 0,
            credited: 0,
        }
    }

    /// The downstream ingress buffer this endpoint feeds.
    pub fn target(&self) -> &Arc<VcBuffer> {
        &self.target
    }

    /// Flits still in flight in the mailbox.
    pub fn in_flight(&self) -> usize {
        self.link.in_flight()
    }

    /// Cumulative flits moved out of the mailbox into the ingress buffer.
    /// Monotone; this is the receiver-side `recv` count the credit-counting
    /// termination detector balances against the sender's push count.
    pub fn delivered_total(&self) -> u64 {
        self.forwarded
    }

    /// The underlying link (for transports that pump the mailbox).
    pub fn link(&self) -> &Arc<BoundaryLink> {
        &self.link
    }

    /// Moves the mailbox flits stamped `visible_at ≤ limit` into the ingress
    /// buffer (flit stamps are nondecreasing, so this consumes exactly the
    /// prefix the sequential schedule would have delivered by cycle
    /// `limit`). Returns the number of flits delivered.
    pub fn deliver(&mut self, limit: Cycle) -> usize {
        let mut moved = 0usize;
        while let Some(flit) = self
            .link
            .flits
            .pop_if(|f| f.visible_at <= limit && self.target.free_space() > 0)
        {
            let ok = self.target.push(flit);
            debug_assert!(ok, "boundary delivery overflowed the ingress buffer");
            self.forwarded += 1;
            moved += 1;
        }
        moved
    }

    /// Emits one cycle-stamped credit message covering every flit the router
    /// has popped from the ingress buffer since the last emission. Called
    /// after the shard's negative edge of cycle `now`. The ring cannot be
    /// full (see [`BoundaryLink::with_resident`]): each unapplied message
    /// carries at least one credit and together at most the link capacity.
    ///
    /// # Panics
    ///
    /// Panics if the credit ring is full, which would otherwise lose the
    /// credits.
    pub fn emit_credits(&mut self, now: Cycle) {
        let resident = self.target.occupancy() as u64;
        let freed = (self.baseline + self.forwarded).saturating_sub(resident);
        let owed = freed.saturating_sub(self.credited);
        if owed > 0 {
            let msg = CreditMsg {
                cycle: now,
                count: owed.min(u32::MAX as u64) as u32,
            };
            let pushed = self.link.credits.push(msg);
            assert!(
                pushed,
                "credit ring full: unapplied credits exceed the link capacity"
            );
            self.credited += msg.count as u64;
        }
    }

    /// Checkpoint restore: folds `owed` uncredited pops into the baseline of
    /// a freshly wired endpoint, so the first post-restore emission covers
    /// exactly the credits the (equally rolled-back) sender is still waiting
    /// for.
    pub fn restore_owed(&mut self, owed: u64) {
        self.baseline += owed;
    }

    /// Checkpoint restore: re-reads the credit baseline from the ingress
    /// buffer's current occupancy. Endpoints are wired before the tile
    /// restore repopulates the buffers, so the baseline captured at
    /// construction is stale; call this afterwards, before
    /// [`restore_owed`](Self::restore_owed).
    pub fn reset_baseline(&mut self) {
        debug_assert_eq!(self.forwarded, 0, "reset_baseline on a used endpoint");
        self.baseline = self.target.occupancy() as u64;
    }

    /// Drains every remaining mailbox flit into the ingress buffer (used when
    /// unwiring boundaries at the end of a parallel run; the credit invariant
    /// guarantees everything fits).
    pub fn flush(mut self) {
        self.deliver(Cycle::MAX);
        debug_assert!(self.link.flits.is_empty(), "boundary flush left flits");
    }
}

/// What a router egress port pushes into: a shared downstream [`VcBuffer`]
/// (sequential and intra-shard links) or a cross-shard [`BoundaryLink`].
/// Both expose the same credit interface, so the router pipeline is agnostic.
#[derive(Clone, Debug)]
pub enum EgressChannel {
    /// Directly shared downstream ingress buffer.
    Local(Arc<VcBuffer>),
    /// Cross-shard boundary mailbox.
    Boundary(Arc<BoundaryLink>),
}

impl EgressChannel {
    /// Downstream VC capacity, in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        match self {
            EgressChannel::Local(b) => b.capacity(),
            EgressChannel::Boundary(l) => l.capacity(),
        }
    }

    /// Downstream occupancy as seen by the sender's credit loop.
    #[inline]
    pub fn occupancy(&self) -> usize {
        match self {
            EgressChannel::Local(b) => b.occupancy(),
            EgressChannel::Boundary(l) => l.occupancy(),
        }
    }

    /// Free space as seen by the sender's credit loop.
    #[inline]
    pub fn free_space(&self) -> usize {
        match self {
            EgressChannel::Local(b) => b.free_space(),
            EgressChannel::Boundary(l) => l.free_space(),
        }
    }

    /// Sends a flit downstream. `false` indicates a flow-control violation.
    #[inline]
    #[must_use]
    pub fn push(&self, flit: Flit) -> bool {
        match self {
            EgressChannel::Local(b) => b.push(flit),
            EgressChannel::Boundary(l) => l.push(flit),
        }
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
            kind: FlitKind::Body,
            seq,
            packet_len: 8,
            dst: NodeId::new(1),
            src: NodeId::new(0),
            visible_at,
            stats: FlitStats::default(),
        }
    }

    #[test]
    fn spsc_is_a_bounded_fifo() {
        let ring: Spsc<u32> = Spsc::new(3);
        assert!(ring.push(1) && ring.push(2) && ring.push(3));
        assert!(!ring.push(4), "full ring must reject");
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pop(), Some(1));
        assert!(ring.push(4));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), Some(4));
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_pop_if_leaves_rejected_head_in_place() {
        let ring: Spsc<u32> = Spsc::new(2);
        assert!(ring.push(7));
        assert_eq!(ring.pop_if(|&v| v > 10), None);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop_if(|&v| v == 7), Some(7));
    }

    #[test]
    fn spsc_survives_concurrent_producer_consumer() {
        let ring = Arc::new(Spsc::<u32>::new(4));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0u32;
                while sent < 10_000 {
                    if ring.push(sent) {
                        sent += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expect = 0u32;
        while expect < 10_000 {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn boundary_credit_loop_round_trips() {
        let link = BoundaryLink::new(2);
        let target = Arc::new(VcBuffer::new(2));
        let mut rx = BoundaryRx::new(Arc::clone(&link), Arc::clone(&target));

        // Sender fills its credit window.
        assert!(link.push(flit(0, 1)));
        assert!(link.push(flit(1, 1)));
        assert!(!link.push(flit(2, 1)), "no credit left");
        assert_eq!(link.free_space(), 0);
        assert_eq!(link.in_flight(), 2);

        // Receiver drains the mailbox into the real buffer.
        assert_eq!(rx.deliver(1), 2);
        assert_eq!(target.occupancy(), 2);
        // Nothing popped yet: no credits flow, sender still blocked.
        rx.emit_credits(1);
        link.apply_credits(1);
        assert_eq!(link.free_space(), 0);

        // The router consumes one flit; the credit returns.
        target.absorb_tail();
        assert!(target.pop_if(5, |_| true).is_some());
        rx.emit_credits(2);
        link.apply_credits(2);
        assert_eq!(link.free_space(), 1);
        assert!(link.push(flit(2, 3)));
    }

    #[test]
    fn strict_delivery_respects_cycle_stamps() {
        let link = BoundaryLink::new(4);
        let target = Arc::new(VcBuffer::new(4));
        let mut rx = BoundaryRx::new(Arc::clone(&link), Arc::clone(&target));
        assert!(link.push(flit(0, 3)));
        assert!(link.push(flit(1, 5)));
        // At cycle 3 only the first flit is due.
        assert_eq!(rx.deliver(3), 1);
        assert_eq!(link.in_flight(), 1);
        // At cycle 5 the rest follows.
        assert_eq!(rx.deliver(5), 1);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn strict_credit_application_respects_cycle_stamps() {
        let link = BoundaryLink::new(4);
        let target = Arc::new(VcBuffer::new(4));
        let mut rx = BoundaryRx::new(Arc::clone(&link), Arc::clone(&target));
        assert!(link.push(flit(0, 1)));
        rx.deliver(Cycle::MAX);
        target.absorb_tail();
        assert!(target.pop_if(9, |_| true).is_some());
        rx.emit_credits(7);
        // The credit is stamped cycle 7: invisible at 6, visible at 7.
        link.apply_credits(6);
        assert_eq!(link.occupancy(), 1);
        link.apply_credits(7);
        assert_eq!(link.occupancy(), 0);
    }

    #[test]
    fn credits_fit_the_ring_when_the_receiver_runs_a_window_ahead() {
        // A capacity-1 link under a 4-cycle window: per window the receiver
        // simulates every cycle (draining and crediting each cycle) before
        // the sender simulates any of it, then the sender applies only the
        // credits stamped up to the window's first cycle. No emission may
        // ever find the credit ring full (which would defer and re-stamp a
        // credit).
        let window = 4;
        let link = BoundaryLink::new(1);
        let target = Arc::new(VcBuffer::new(1));
        let mut rx = BoundaryRx::new(Arc::clone(&link), Arc::clone(&target));
        let mut sent = 0u32;
        for c0 in (0..200).step_by(window) {
            for c in c0 + 1..=c0 + window as Cycle {
                rx.deliver(c0 + 1);
                target.absorb_tail();
                let _ = target.pop_if(c, |_| true);
                rx.emit_credits(c);
                assert!(link.staged_credit_snapshot().len() <= link.capacity());
            }
            for c in c0 + 1..=c0 + window as Cycle {
                link.apply_credits(c0);
                if link.free_space() > 0 {
                    assert!(link.push(flit(sent, c + 1)));
                    sent += 1;
                }
            }
        }
        // One flit per two windows: the credit for a flit sent in one
        // window is applied at the start of the next but one.
        assert_eq!(sent, 200 / (2 * window as u32), "traffic must keep flowing");
    }

    #[test]
    fn flush_moves_every_leftover_flit() {
        let link = BoundaryLink::new(3);
        let target = Arc::new(VcBuffer::new(3));
        let rx = BoundaryRx::new(Arc::clone(&link), Arc::clone(&target));
        assert!(link.push(flit(0, 100)));
        assert!(link.push(flit(1, 200)));
        rx.flush();
        assert_eq!(link.in_flight(), 0);
        assert_eq!(target.occupancy(), 2);
    }
}
