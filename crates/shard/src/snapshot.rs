//! Shard-level checkpoint capture and restore.
//!
//! A checkpoint freezes everything a shard needs to resume bit-identically
//! at a rendezvous cycle `C`: the tiles (routers, bridges, agents, RNG
//! cursors), the cumulative delivery counter the termination ledger reports,
//! and the in-flight contents of every boundary half-link. It is taken at
//! the top of the [`CycleDriver`](crate::driver::CycleDriver) window loop —
//! after `wait_peers(C)` and transport ingestion — under one-cycle sync
//! windows (bit-exact synchronization) only.
//!
//! # Why the stamp filters make the cut consistent
//!
//! At the capture point every peer has finished its negedge of `C`, and its
//! cycle-`C` emissions travel the same FIFO channel ahead of the progress
//! publication, so every flit stamped `visible_at ≤ C+1` and every credit
//! stamped `≤ C` has already been ingested locally. A peer may however have
//! raced *one* cycle ahead (a one-cycle window allows simulating `C+1`
//! before we do),
//! depositing flits stamped `C+2` and credits stamped `C+1` into our rings.
//! Those are dropped by the stamp filters below: after a global rollback to
//! `C` the peer re-executes `C+1` and regenerates exactly the same
//! emissions, so nothing is lost and nothing is duplicated.
//!
//! Our *own* staged emissions never need filtering — a shard cannot race
//! ahead of itself — so the outbound flit ring and the receiver-side staged
//! credits are captured whole.

use crate::driver::{CheckpointSink, PayloadChannel};
use hornet_net::boundary::{BoundaryLink, BoundaryRx, CreditMsg};
use hornet_net::codec::{self, Dec, Enc};
use hornet_net::flit::Flit;
use hornet_net::ids::Cycle;
use hornet_net::network::NetworkNode;
use std::io;
use std::sync::Arc;

/// Layout version of the shard checkpoint encoding.
pub const SHARD_CHECKPOINT_VERSION: u32 = 2;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("shard checkpoint: {what}"),
    )
}

/// Serializes one shard's complete resumable state at rendezvous cycle
/// `cycle`.
///
/// `outbound` are the sender half-links whose credits this shard applies and
/// `inbound` the receiver endpoints feeding it — the same slices the cycle
/// driver borrows. `received` is the driver's cumulative mailbox delivery
/// counter at the capture point.
pub fn snapshot_shard(
    cycle: Cycle,
    received: u64,
    tiles: &[NetworkNode],
    outbound: &[Arc<BoundaryLink>],
    inbound: &[BoundaryRx],
    payloads: &dyn PayloadChannel,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(SHARD_CHECKPOINT_VERSION).u64(cycle).u64(received);

    e.u32(tiles.len() as u32);
    for tile in tiles {
        let mut sub = Enc::new();
        tile.snapshot(&mut sub);
        e.blob(sub.bytes());
    }

    // Sender halves: cumulative pushed cursor, credit window, whole staged
    // flit ring (all ours, stamps ≤ cycle+1 by construction) and the staged
    // credit ring filtered to stamps ≤ cycle (later ones came from a peer
    // that raced one cycle ahead; rollback regenerates them).
    e.u32(outbound.len() as u32);
    for link in outbound {
        let flits = link.staged_flit_snapshot();
        let credits: Vec<CreditMsg> = link
            .staged_credit_snapshot()
            .into_iter()
            .filter(|c| c.cycle <= cycle)
            .collect();
        e.u64(link.flits_pushed()).u64(link.occupancy() as u64);
        e.u32(flits.len() as u32);
        for f in &flits {
            codec::encode_flit(&mut e, f);
        }
        e.u32(credits.len() as u32);
        for c in &credits {
            codec::encode_credit(&mut e, c);
        }
    }

    // Receiver halves: in-flight flits filtered to visible_at ≤ cycle+1
    // (later stamps are raced-ahead peer emissions), plus the credits owed
    // back to the sender: those still staged for the wire (every computed
    // credit is emitted at once). The restore folds `owed` into the
    // receiver's pop baseline so the next emission cycle re-issues them.
    e.u32(inbound.len() as u32);
    for rx in inbound {
        let flits: Vec<Flit> = rx
            .link()
            .staged_flit_snapshot()
            .into_iter()
            .filter(|f| f.visible_at <= cycle + 1)
            .collect();
        let staged: u64 = rx
            .link()
            .staged_credit_snapshot()
            .iter()
            .map(|c| u64::from(c.count))
            .sum();
        e.u32(flits.len() as u32);
        for f in &flits {
            codec::encode_flit(&mut e, f);
        }
        e.u64(staged);
    }

    // Parked payloads: in a distributed shard the payload store is
    // process-local, so any payload waiting for its tail flit to claim it
    // must travel with the checkpoint or restored flits would lose it.
    codec::encode_parked(&mut e, &payloads.parked());

    e.into_bytes()
}

/// Restores a shard checkpoint produced by [`snapshot_shard`] into freshly
/// wired state: `tiles` must be newly built from the same spec (programs and
/// configuration are reconstructed, not serialized) and every boundary
/// half-link must be newly created and unused. Tiles are restored *first*;
/// callers that seed sender credit windows from ingress occupancy must wire
/// the boundaries after the tile restore so the occupancies are the
/// checkpointed ones.
///
/// Returns `(cycle, received)`: the rendezvous cycle to resume from and the
/// driver's delivery counter (its `received_start`).
pub fn restore_shard(
    bytes: &[u8],
    tiles: &mut [NetworkNode],
    outbound: &[Arc<BoundaryLink>],
    inbound: &mut [BoundaryRx],
    payloads: &dyn PayloadChannel,
) -> io::Result<(Cycle, u64)> {
    let mut d = Dec::new(bytes);
    let version = d.u32()?;
    if version != SHARD_CHECKPOINT_VERSION {
        return Err(corrupt("version mismatch"));
    }
    let cycle = d.u64()?;
    let received = d.u64()?;

    let tile_count = d.u32()? as usize;
    if tile_count != tiles.len() {
        return Err(corrupt("tile count mismatch"));
    }
    for tile in tiles.iter_mut() {
        let blob = d.blob()?;
        tile.restore(&mut Dec::new(blob))?;
    }

    let out_count = d.u32()? as usize;
    if out_count != outbound.len() {
        return Err(corrupt("outbound link count mismatch"));
    }
    for link in outbound {
        let pushed = d.u64()?;
        let outstanding = d.u64()? as usize;
        let n = d.u32()? as usize;
        let mut flits = Vec::with_capacity(n);
        for _ in 0..n {
            flits.push(codec::decode_flit(&mut d)?);
        }
        let n = d.u32()? as usize;
        let mut credits = Vec::with_capacity(n);
        for _ in 0..n {
            credits.push(codec::decode_credit(&mut d)?);
        }
        if (flits.len() as u64) > pushed {
            return Err(corrupt("staged flits exceed cumulative pushed"));
        }
        if flits.len() > link.capacity() || credits.len() > link.capacity() + 1 {
            return Err(corrupt("staged items exceed ring capacity"));
        }
        link.restore_outbound(pushed, outstanding, &flits, &credits);
    }

    let in_count = d.u32()? as usize;
    if in_count != inbound.len() {
        return Err(corrupt("inbound link count mismatch"));
    }
    for rx in inbound.iter_mut() {
        let n = d.u32()? as usize;
        let mut flits = Vec::with_capacity(n);
        for _ in 0..n {
            flits.push(codec::decode_flit(&mut d)?);
        }
        if flits.len() > rx.link().capacity() {
            return Err(corrupt("in-flight flits exceed ring capacity"));
        }
        rx.link().restore_inbound(&flits);
        // The freshly built receiver captured its pop baseline before the
        // tile restore changed the ingress occupancy; re-read it so credit
        // emission starts from the checkpointed state, then fold the owed
        // credits back in.
        rx.reset_baseline();
        let owed = d.u64()?;
        rx.restore_owed(owed);
    }

    codec::decode_parked(&mut d, |id, payload| payloads.deposit(id, payload))?;

    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok((cycle, received))
}

/// Reads only the rendezvous cycle of a checkpoint (for commit bookkeeping
/// without decoding the full state).
pub fn checkpoint_cycle(bytes: &[u8]) -> io::Result<Cycle> {
    let mut d = Dec::new(bytes);
    let version = d.u32()?;
    if version != SHARD_CHECKPOINT_VERSION {
        return Err(corrupt("version mismatch"));
    }
    d.u64()
}

/// A [`CheckpointSink`] that keeps only the most recent checkpoint in
/// memory. Test and single-process hosts use it directly; the distributed
/// worker ships each capture to its coordinator instead.
#[derive(Debug, Default)]
pub struct LatestCheckpoint {
    latest: Option<(Cycle, Vec<u8>)>,
}

impl LatestCheckpoint {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent capture, if any.
    pub fn latest(&self) -> Option<(Cycle, &[u8])> {
        self.latest.as_ref().map(|(c, b)| (*c, b.as_slice()))
    }

    /// Takes the most recent capture out of the sink.
    pub fn take(&mut self) -> Option<(Cycle, Vec<u8>)> {
        self.latest.take()
    }
}

impl CheckpointSink for LatestCheckpoint {
    fn checkpoint(&mut self, cycle: Cycle, state: &[u8]) -> io::Result<()> {
        self.latest = Some((cycle, state.to_vec()));
        Ok(())
    }
}
