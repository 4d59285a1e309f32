//! The directory slice of the MSI cache-coherence protocol.
//!
//! Each tile (or each memory-controller tile, depending on
//! [`DirectoryPlacement`](crate::hierarchy::DirectoryPlacement)) owns the
//! directory state and the functional backing storage for the cache lines
//! homed there. The directory serialises transactions per line: while a line
//! is busy (waiting for a writeback or for invalidation acknowledgements), new
//! requests for it are queued and replayed when the transaction completes.
//!
//! The slice is a pure state machine: it consumes [`MemMessage`]s and appends
//! `(destination, message, from_memory)` outputs to a buffer the caller owns;
//! the surrounding [`MemoryNode`](crate::hierarchy::MemoryNode) turns those
//! into network packets (adding DRAM latency where requested).
//!
//! A line costs 32 bytes in the slice's hash table: who holds it (inline for
//! one holder; a sorted heap list only for two or more sharers), a pointer
//! that is null unless a transaction is in flight, and its value. At the
//! 1000-core scale this per-line state is most of what a simulator process
//! holds.

use crate::msg::{LineAddr, MemMessage};
use hornet_net::ids::NodeId;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Sharing state of one line, as known by the directory: the public view
/// [`DirectorySlice::state_of`] builds from the compact per-line record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold read-only copies.
    Shared(BTreeSet<NodeId>),
    /// Exactly one cache holds a modified copy.
    Modified(NodeId),
}

/// Who holds a line. 16 bytes: a single holder is inline, and only a line
/// shared by two or more caches owns a heap list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
// A `Vec` behind a thin `Box` keeps the enum at 16 bytes; a `Box<[NodeId]>`
// is a fat pointer and would make it 24.
#[allow(clippy::box_collection)]
enum Holders {
    #[default]
    Uncached,
    /// One cache holds a modified copy.
    Modified(NodeId),
    /// One cache holds a read-only copy.
    Shared(NodeId),
    /// Two or more caches hold read-only copies: sorted, no duplicates.
    SharedMany(Box<Vec<NodeId>>),
}

impl Holders {
    /// The sharers, ascending (empty unless the line is shared).
    fn sharers(&self) -> &[NodeId] {
        match self {
            Holders::Shared(node) => std::slice::from_ref(node),
            Holders::SharedMany(nodes) => nodes,
            Holders::Uncached | Holders::Modified(_) => &[],
        }
    }

    /// Read-only copies at the (possibly equal) nodes `a` and `b`.
    fn shared_by(a: NodeId, b: NodeId) -> Self {
        match a.cmp(&b) {
            std::cmp::Ordering::Equal => Holders::Shared(a),
            std::cmp::Ordering::Less => Holders::SharedMany(Box::new(Vec::from([a, b]))),
            std::cmp::Ordering::Greater => Holders::SharedMany(Box::new(Vec::from([b, a]))),
        }
    }
}

/// A transaction the directory is waiting to finish.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Pending {
    /// Waiting for the owner's writeback triggered by a Fetch on behalf of
    /// `requester`; `exclusive` distinguishes GetM from GetS.
    AwaitWriteback {
        requester: NodeId,
        exclusive: bool,
        owner: NodeId,
    },
    /// Waiting for `remaining` (≥ 1) invalidation acks before granting M to
    /// `requester`.
    AwaitInvAcks { requester: NodeId, remaining: u32 },
}

/// The state of a line with a transaction in flight.
#[derive(Clone, Debug, Default)]
struct Busy {
    /// The transaction; `None` only while the queue behind a finished one is
    /// being replayed.
    pending: Option<Pending>,
    /// Requests that arrived while the line was busy, in arrival order.
    queued: VecDeque<MemMessage>,
}

/// Directory bookkeeping for one line: 32 bytes.
#[derive(Clone, Debug, Default)]
struct Entry {
    holders: Holders,
    /// Present only while a transaction is in flight.
    busy: Option<Box<Busy>>,
    value: u64,
}

impl Entry {
    fn pending(&self) -> Option<Pending> {
        self.busy.as_ref().and_then(|b| b.pending)
    }

    fn start(&mut self, pending: Pending) {
        self.busy.get_or_insert_with(Box::default).pending = Some(pending);
    }
}

/// Counters kept by a directory slice.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// GetS requests processed.
    pub get_s: u64,
    /// GetM requests processed.
    pub get_m: u64,
    /// Invalidations sent to sharers.
    pub invalidations: u64,
    /// Fetch/forward requests sent to owners.
    pub fetches: u64,
    /// Writebacks absorbed.
    pub writebacks: u64,
    /// Requests that had to read the backing memory (DRAM).
    pub dram_reads: u64,
    /// Requests queued behind a busy line.
    pub queued: u64,
}

/// An outbound message produced by the directory: destination, message, and
/// whether it models a DRAM access (so the caller adds memory latency).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirOutput {
    /// Destination node.
    pub dst: NodeId,
    /// The protocol message.
    pub msg: MemMessage,
    /// True if a DRAM access was needed to produce this message.
    pub from_memory: bool,
}

/// The directory slice homed at one node.
#[derive(Clone, Debug, Default)]
pub struct DirectorySlice {
    lines: HashMap<LineAddr, Entry>,
    stats: DirectoryStats,
}

impl DirectorySlice {
    /// Creates an empty directory slice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Number of lines the slice keeps state for.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if the slice keeps state for no line.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Bytes of heap memory the slice owns: its hash table at the current
    /// capacity — as the standard library lays it out, one `(address, line)`
    /// slot and one control byte per bucket, at most 7/8 of the buckets
    /// full — plus every sharer list and in-flight transaction.
    pub fn heap_bytes(&self) -> usize {
        const GROUP_WIDTH: usize = 16;
        let capacity = self.lines.capacity();
        let buckets = match capacity {
            0 => 0,
            c if c < 8 => c + 1,
            c => (c / 7 * 8).next_power_of_two(),
        };
        let table = if buckets == 0 {
            0
        } else {
            buckets * (std::mem::size_of::<(LineAddr, Entry)>() + 1) + GROUP_WIDTH
        };
        let lines: usize = self
            .lines
            .values()
            .map(|e| {
                let sharers = match &e.holders {
                    Holders::SharedMany(nodes) => {
                        std::mem::size_of::<Vec<NodeId>>()
                            + nodes.capacity() * std::mem::size_of::<NodeId>()
                    }
                    _ => 0,
                };
                let busy = e.busy.as_ref().map_or(0, |b| {
                    std::mem::size_of::<Busy>()
                        + b.queued.capacity() * std::mem::size_of::<MemMessage>()
                });
                sharers + busy
            })
            .sum();
        table + lines
    }

    /// The directory's view of a line's sharing state (for tests and
    /// invariant checks).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        match self.lines.get(&line).map(|e| &e.holders) {
            None | Some(Holders::Uncached) => DirState::Uncached,
            Some(Holders::Modified(owner)) => DirState::Modified(*owner),
            Some(shared) => DirState::Shared(shared.sharers().iter().copied().collect()),
        }
    }

    /// The functional value of a line as known by the home memory.
    pub fn value_of(&self, line: LineAddr) -> u64 {
        self.lines.get(&line).map(|e| e.value).unwrap_or(0)
    }

    /// True if the line currently has a transaction in flight.
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.lines.get(&line).is_some_and(|e| e.pending().is_some())
    }

    /// Reads the home memory's word at `addr` (NUCA homes are word
    /// addressed), keeping state for it from now on.
    pub fn read(&mut self, addr: u64) -> u64 {
        self.lines.entry(addr).or_default().value
    }

    /// Writes the home memory's word at `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        self.lines.entry(addr).or_default().value = value;
    }

    /// Handles one inbound directory-class message and appends the outbound
    /// messages it produces to `out`.
    pub fn handle_into(&mut self, msg: MemMessage, out: &mut Vec<DirOutput>) {
        match msg {
            MemMessage::GetS { line, requester } => self.handle_get(line, requester, false, out),
            MemMessage::GetM { line, requester } => self.handle_get(line, requester, true, out),
            MemMessage::PutM { line, value, from } => self.handle_putm(line, value, from, out),
            MemMessage::InvAck { line, .. } => self.handle_inv_ack(line, out),
            MemMessage::RemoteRead { addr, requester } => out.push(DirOutput {
                dst: requester,
                msg: MemMessage::RemoteReadResp {
                    addr,
                    value: self.read(addr),
                },
                from_memory: true,
            }),
            MemMessage::RemoteWrite {
                addr,
                value,
                requester,
            } => {
                self.write(addr, value);
                out.push(DirOutput {
                    dst: requester,
                    msg: MemMessage::RemoteWriteAck { addr },
                    from_memory: true,
                });
            }
            _ => {}
        }
    }

    fn handle_get(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        exclusive: bool,
        out: &mut Vec<DirOutput>,
    ) {
        if exclusive {
            self.stats.get_m += 1;
        } else {
            self.stats.get_s += 1;
        }
        let entry = self.lines.entry(line).or_default();
        if let Some(busy) = entry.busy.as_mut().filter(|b| b.pending.is_some()) {
            self.stats.queued += 1;
            busy.queued.push_back(if exclusive {
                MemMessage::GetM { line, requester }
            } else {
                MemMessage::GetS { line, requester }
            });
            return;
        }
        let data = |value, from_memory| DirOutput {
            dst: requester,
            msg: MemMessage::Data { line, value },
            from_memory,
        };
        match entry.holders {
            Holders::Uncached => {
                entry.holders = if exclusive {
                    Holders::Modified(requester)
                } else {
                    Holders::Shared(requester)
                };
                self.stats.dram_reads += 1;
                out.push(data(entry.value, true));
            }
            Holders::Modified(owner) if owner == requester => {
                // The owner re-requesting (e.g. lost its copy silently is
                // impossible in this protocol, but be permissive): grant.
                out.push(data(entry.value, false));
            }
            Holders::Modified(owner) => {
                entry.start(Pending::AwaitWriteback {
                    requester,
                    exclusive,
                    owner,
                });
                self.stats.fetches += 1;
                out.push(DirOutput {
                    dst: owner,
                    msg: MemMessage::Fetch {
                        line,
                        requester,
                        invalidate: exclusive,
                    },
                    from_memory: false,
                });
            }
            Holders::Shared(one) if !exclusive => {
                entry.holders = Holders::shared_by(one, requester);
                out.push(data(entry.value, false));
            }
            Holders::SharedMany(ref mut nodes) if !exclusive => {
                if let Err(at) = nodes.binary_search(&requester) {
                    nodes.insert(at, requester);
                }
                out.push(data(entry.value, false));
            }
            Holders::Shared(_) | Holders::SharedMany(_) => {
                // GetM over a shared line: invalidate every other sharer.
                let before = out.len();
                out.extend(
                    entry
                        .holders
                        .sharers()
                        .iter()
                        .filter(|&&s| s != requester)
                        .map(|&dst| DirOutput {
                            dst,
                            msg: MemMessage::Invalidate { line },
                            from_memory: false,
                        }),
                );
                let invalidations = out.len() - before;
                if invalidations == 0 {
                    entry.holders = Holders::Modified(requester);
                    out.push(data(entry.value, false));
                    return;
                }
                entry.start(Pending::AwaitInvAcks {
                    requester,
                    remaining: invalidations as u32,
                });
                self.stats.invalidations += invalidations as u64;
            }
        }
    }

    fn handle_putm(&mut self, line: LineAddr, value: u64, from: NodeId, out: &mut Vec<DirOutput>) {
        self.stats.writebacks += 1;
        let entry = self.lines.entry(line).or_default();
        entry.value = value;
        match entry.pending() {
            Some(Pending::AwaitWriteback {
                requester,
                exclusive,
                owner,
            }) if owner == from => {
                if let Some(busy) = &mut entry.busy {
                    busy.pending = None;
                }
                entry.holders = if exclusive {
                    Holders::Modified(requester)
                } else {
                    Holders::shared_by(owner, requester)
                };
            }
            _ => {
                // Plain eviction writeback.
                if entry.holders == Holders::Modified(from) {
                    entry.holders = Holders::Uncached;
                }
            }
        }
        self.drain_queue(line, out);
    }

    fn handle_inv_ack(&mut self, line: LineAddr, out: &mut Vec<DirOutput>) {
        let entry = self.lines.entry(line).or_default();
        let Some(busy) = &mut entry.busy else {
            return;
        };
        let Some(Pending::AwaitInvAcks {
            requester,
            remaining,
        }) = &mut busy.pending
        else {
            return;
        };
        if *remaining > 1 {
            *remaining -= 1;
            return;
        }
        let requester = *requester;
        busy.pending = None;
        entry.holders = Holders::Modified(requester);
        out.push(DirOutput {
            dst: requester,
            msg: MemMessage::Data {
                line,
                value: entry.value,
            },
            from_memory: false,
        });
        self.drain_queue(line, out);
    }

    /// Replays requests queued behind a line that just became quiescent,
    /// and drops the line's transaction state once nothing is left.
    fn drain_queue(&mut self, line: LineAddr, out: &mut Vec<DirOutput>) {
        loop {
            let Some(entry) = self.lines.get_mut(&line) else {
                return;
            };
            let Some(busy) = &mut entry.busy else {
                return;
            };
            if busy.pending.is_some() {
                return;
            }
            let Some(next) = busy.queued.pop_front() else {
                entry.busy = None;
                return;
            };
            self.handle_into(next, out);
        }
    }

    /// Serializes the slice's full state — per-line sharing state, in-flight
    /// transactions, queued requests, functional line values and counters —
    /// for a checkpoint. Lines are sorted by address so the encoding is
    /// canonical regardless of hash-map iteration order.
    pub fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        let mut lines: Vec<(&LineAddr, &Entry)> = self.lines.iter().collect();
        lines.sort_by_key(|(addr, _)| **addr);
        e.u32(lines.len() as u32);
        for (addr, entry) in lines {
            e.u64(*addr);
            match &entry.holders {
                Holders::Uncached => {
                    e.u8(0);
                }
                Holders::Modified(owner) => {
                    e.u8(2).u32(owner.raw());
                }
                shared => {
                    let sharers = shared.sharers();
                    e.u8(1).u32(sharers.len() as u32);
                    for s in sharers {
                        e.u32(s.raw());
                    }
                }
            }
            match entry.pending() {
                None => {
                    e.u8(0);
                }
                Some(Pending::AwaitWriteback {
                    requester,
                    exclusive,
                    owner,
                }) => {
                    e.u8(1)
                        .u32(requester.raw())
                        .u8(exclusive as u8)
                        .u32(owner.raw());
                }
                Some(Pending::AwaitInvAcks {
                    requester,
                    remaining,
                }) => {
                    e.u8(2).u32(requester.raw()).u32(remaining);
                }
            }
            let queued = entry.busy.as_ref().map(|b| &b.queued);
            e.u32(queued.map_or(0, VecDeque::len) as u32);
            for msg in queued.into_iter().flatten() {
                msg.snapshot(e);
            }
            e.u64(entry.value);
        }
        e.u64(self.stats.get_s)
            .u64(self.stats.get_m)
            .u64(self.stats.invalidations)
            .u64(self.stats.fetches)
            .u64(self.stats.writebacks)
            .u64(self.stats.dram_reads)
            .u64(self.stats.queued);
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a corrupt record, and on any record a
    /// snapshot cannot have written: lines out of address order, an empty,
    /// unsorted or duplicated sharer list, a flag other than 0/1, a
    /// transaction waiting for zero acks, requests queued behind an idle
    /// line, or a queued message that does not decode.
    pub fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        let corrupt =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.lines.clear();
        let mut last = None;
        for _ in 0..d.u32()? {
            let addr = d.u64()?;
            if last.is_some_and(|last| addr <= last) {
                return Err(corrupt("directory checkpoint: lines out of address order"));
            }
            last = Some(addr);
            let holders = match d.u8()? {
                0 => Holders::Uncached,
                1 => {
                    let count = d.u32()?;
                    if count == 0 {
                        return Err(corrupt("directory checkpoint: empty sharer list"));
                    }
                    let first = NodeId::new(d.u32()?);
                    if count == 1 {
                        Holders::Shared(first)
                    } else {
                        let mut nodes = Vec::from([first]);
                        for _ in 1..count {
                            let node = NodeId::new(d.u32()?);
                            if nodes.last().is_some_and(|&prev| node <= prev) {
                                return Err(corrupt(
                                    "directory checkpoint: sharers unsorted or duplicated",
                                ));
                            }
                            nodes.push(node);
                        }
                        Holders::SharedMany(Box::new(nodes))
                    }
                }
                2 => Holders::Modified(NodeId::new(d.u32()?)),
                _ => return Err(corrupt("directory checkpoint: bad sharing state")),
            };
            let pending = match d.u8()? {
                0 => None,
                1 => Some(Pending::AwaitWriteback {
                    requester: NodeId::new(d.u32()?),
                    exclusive: match d.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(corrupt("directory checkpoint: bad exclusive flag")),
                    },
                    owner: NodeId::new(d.u32()?),
                }),
                2 => {
                    let requester = NodeId::new(d.u32()?);
                    let remaining = d.u32()?;
                    if remaining == 0 {
                        return Err(corrupt("directory checkpoint: waiting for zero acks"));
                    }
                    Some(Pending::AwaitInvAcks {
                        requester,
                        remaining,
                    })
                }
                _ => return Err(corrupt("directory checkpoint: bad pending state")),
            };
            let mut queued = VecDeque::new();
            for _ in 0..d.u32()? {
                queued.push_back(
                    MemMessage::restore(d)?
                        .ok_or_else(|| corrupt("directory checkpoint: bad queued message"))?,
                );
            }
            if pending.is_none() && !queued.is_empty() {
                return Err(corrupt(
                    "directory checkpoint: requests queued behind an idle line",
                ));
            }
            let value = d.u64()?;
            self.lines.insert(
                addr,
                Entry {
                    holders,
                    busy: pending.map(|pending| {
                        Box::new(Busy {
                            pending: Some(pending),
                            queued,
                        })
                    }),
                    value,
                },
            );
        }
        self.stats = DirectoryStats {
            get_s: d.u64()?,
            get_m: d.u64()?,
            invalidations: d.u64()?,
            fetches: d.u64()?,
            writebacks: d.u64()?,
            dram_reads: d.u64()?,
            queued: d.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn handle(d: &mut DirectorySlice, msg: MemMessage) -> Vec<DirOutput> {
        let mut out = Vec::new();
        d.handle_into(msg, &mut out);
        out
    }

    #[test]
    fn get_s_on_uncached_reads_memory_and_shares() {
        let mut d = DirectorySlice::new();
        let out = handle(
            &mut d,
            MemMessage::GetS {
                line: 4,
                requester: n(1),
            },
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].from_memory);
        assert_eq!(out[0].dst, n(1));
        assert!(matches!(out[0].msg, MemMessage::Data { line: 4, .. }));
        assert_eq!(d.state_of(4), DirState::Shared(BTreeSet::from([n(1)])));
        assert_eq!(d.stats().dram_reads, 1);
    }

    #[test]
    fn get_m_over_shared_invalidates_everyone_else() {
        let mut d = DirectorySlice::new();
        handle(
            &mut d,
            MemMessage::GetS {
                line: 4,
                requester: n(1),
            },
        );
        handle(
            &mut d,
            MemMessage::GetS {
                line: 4,
                requester: n(2),
            },
        );
        handle(
            &mut d,
            MemMessage::GetS {
                line: 4,
                requester: n(3),
            },
        );
        let out = handle(
            &mut d,
            MemMessage::GetM {
                line: 4,
                requester: n(1),
            },
        );
        // Invalidations to nodes 2 and 3; data comes only after both acks.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|o| matches!(o.msg, MemMessage::Invalidate { line: 4 })));
        assert!(d.is_busy(4));
        assert!(handle(
            &mut d,
            MemMessage::InvAck {
                line: 4,
                from: n(2)
            }
        )
        .is_empty());
        let done = handle(
            &mut d,
            MemMessage::InvAck {
                line: 4,
                from: n(3),
            },
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].dst, n(1));
        assert_eq!(d.state_of(4), DirState::Modified(n(1)));
        assert!(!d.is_busy(4));
    }

    #[test]
    fn get_s_over_modified_fetches_from_owner() {
        let mut d = DirectorySlice::new();
        handle(
            &mut d,
            MemMessage::GetM {
                line: 8,
                requester: n(5),
            },
        );
        assert_eq!(d.state_of(8), DirState::Modified(n(5)));
        let out = handle(
            &mut d,
            MemMessage::GetS {
                line: 8,
                requester: n(6),
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, n(5));
        assert!(matches!(
            out[0].msg,
            MemMessage::Fetch { line: 8, requester, invalidate: false } if requester == n(6)
        ));
        // Owner writes back; directory becomes Shared{5,6}.
        let after = handle(
            &mut d,
            MemMessage::PutM {
                line: 8,
                value: 99,
                from: n(5),
            },
        );
        assert!(
            after.is_empty(),
            "owner forwards data directly to the requester"
        );
        assert_eq!(
            d.state_of(8),
            DirState::Shared(BTreeSet::from([n(5), n(6)]))
        );
        assert_eq!(d.value_of(8), 99);
    }

    #[test]
    fn busy_lines_queue_requests_and_replay_them() {
        let mut d = DirectorySlice::new();
        handle(
            &mut d,
            MemMessage::GetM {
                line: 1,
                requester: n(1),
            },
        );
        // Second requester: directory fetches from owner and goes busy.
        let _ = handle(
            &mut d,
            MemMessage::GetM {
                line: 1,
                requester: n(2),
            },
        );
        assert!(d.is_busy(1));
        // Third requester must be queued.
        let out = handle(
            &mut d,
            MemMessage::GetS {
                line: 1,
                requester: n(3),
            },
        );
        assert!(out.is_empty());
        assert_eq!(d.stats().queued, 1);
        // Owner's writeback completes the second transaction and replays the
        // queued GetS, which fetches from the new owner (node 2).
        let replay = handle(
            &mut d,
            MemMessage::PutM {
                line: 1,
                value: 7,
                from: n(1),
            },
        );
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].dst, n(2));
        assert!(matches!(replay[0].msg, MemMessage::Fetch { .. }));
    }

    #[test]
    fn eviction_writeback_returns_line_to_uncached() {
        let mut d = DirectorySlice::new();
        handle(
            &mut d,
            MemMessage::GetM {
                line: 2,
                requester: n(4),
            },
        );
        let out = handle(
            &mut d,
            MemMessage::PutM {
                line: 2,
                value: 123,
                from: n(4),
            },
        );
        assert!(out.is_empty());
        assert_eq!(d.state_of(2), DirState::Uncached);
        assert_eq!(d.value_of(2), 123);
        // A later read sees the written-back value.
        let read = handle(
            &mut d,
            MemMessage::GetS {
                line: 2,
                requester: n(5),
            },
        );
        assert!(matches!(read[0].msg, MemMessage::Data { value: 123, .. }));
    }

    #[test]
    fn nuca_remote_accesses_touch_home_memory() {
        let mut d = DirectorySlice::new();
        let w = handle(
            &mut d,
            MemMessage::RemoteWrite {
                addr: 0x20,
                value: 77,
                requester: n(1),
            },
        );
        assert!(matches!(
            w[0].msg,
            MemMessage::RemoteWriteAck { addr: 0x20 }
        ));
        let r = handle(
            &mut d,
            MemMessage::RemoteRead {
                addr: 0x20,
                requester: n(2),
            },
        );
        assert!(matches!(
            r[0].msg,
            MemMessage::RemoteReadResp {
                addr: 0x20,
                value: 77
            }
        ));
        assert_eq!(r[0].dst, n(2));
    }

    #[test]
    fn at_most_one_modified_owner_ever() {
        // Drive a random-ish sequence and check the single-owner invariant.
        let mut d = DirectorySlice::new();
        let line = 3;
        for i in 0..20u32 {
            let req = n(i % 4);
            let out = if i % 3 == 0 {
                handle(
                    &mut d,
                    MemMessage::GetM {
                        line,
                        requester: req,
                    },
                )
            } else {
                handle(
                    &mut d,
                    MemMessage::GetS {
                        line,
                        requester: req,
                    },
                )
            };
            // Answer any fetch/invalidate immediately so the protocol advances.
            for o in out {
                match o.msg {
                    MemMessage::Fetch { line, .. } => {
                        handle(
                            &mut d,
                            MemMessage::PutM {
                                line,
                                value: 0,
                                from: o.dst,
                            },
                        );
                    }
                    MemMessage::Invalidate { line } => {
                        handle(&mut d, MemMessage::InvAck { line, from: o.dst });
                    }
                    _ => {}
                }
            }
            match d.state_of(line) {
                DirState::Modified(_) | DirState::Shared(_) | DirState::Uncached => {}
            }
        }
    }

    #[test]
    fn a_line_costs_32_bytes() {
        assert_eq!(std::mem::size_of::<Holders>(), 16);
        assert!(std::mem::size_of::<Entry>() <= 32);
    }

    #[test]
    fn sharer_lists_stay_sorted_and_collapse_on_upgrade() {
        let mut d = DirectorySlice::new();
        for r in [5, 2, 9, 2] {
            handle(
                &mut d,
                MemMessage::GetS {
                    line: 1,
                    requester: n(r),
                },
            );
        }
        assert_eq!(
            d.lines[&1].holders,
            Holders::SharedMany(Box::new(Vec::from([n(2), n(5), n(9)])))
        );
        // A sharer upgrading invalidates the others, ascending.
        let out = handle(
            &mut d,
            MemMessage::GetM {
                line: 1,
                requester: n(5),
            },
        );
        let dsts: Vec<NodeId> = out.iter().map(|o| o.dst).collect();
        assert_eq!(dsts, [n(2), n(9)]);
        for from in [9, 2] {
            handle(
                &mut d,
                MemMessage::InvAck {
                    line: 1,
                    from: n(from),
                },
            );
        }
        assert_eq!(d.lines[&1].holders, Holders::Modified(n(5)));
        assert!(
            d.lines[&1].busy.is_none(),
            "a finished transaction leaves nothing"
        );
    }

    /// A slice with a line of every kind: shared by three, waiting for
    /// acks with a request queued behind, waiting for a writeback with two
    /// queued, modified, and written back.
    fn busy_slice() -> DirectorySlice {
        let mut d = DirectorySlice::new();
        for r in [1, 2, 3] {
            handle(
                &mut d,
                MemMessage::GetS {
                    line: 10,
                    requester: n(r),
                },
            );
            handle(
                &mut d,
                MemMessage::GetS {
                    line: 11,
                    requester: n(r),
                },
            );
        }
        handle(
            &mut d,
            MemMessage::GetM {
                line: 11,
                requester: n(1),
            },
        );
        handle(
            &mut d,
            MemMessage::GetS {
                line: 11,
                requester: n(4),
            },
        );
        handle(
            &mut d,
            MemMessage::GetM {
                line: 12,
                requester: n(1),
            },
        );
        handle(
            &mut d,
            MemMessage::GetS {
                line: 12,
                requester: n(2),
            },
        );
        handle(
            &mut d,
            MemMessage::GetM {
                line: 12,
                requester: n(3),
            },
        );
        handle(
            &mut d,
            MemMessage::GetS {
                line: 12,
                requester: n(4),
            },
        );
        handle(
            &mut d,
            MemMessage::GetM {
                line: 13,
                requester: n(6),
            },
        );
        handle(
            &mut d,
            MemMessage::GetM {
                line: 14,
                requester: n(7),
            },
        );
        handle(
            &mut d,
            MemMessage::PutM {
                line: 14,
                value: 3,
                from: n(7),
            },
        );
        d
    }

    fn snapshot(d: &DirectorySlice) -> Vec<u8> {
        let mut e = hornet_net::codec::Enc::new();
        d.snapshot(&mut e);
        e.into_bytes()
    }

    #[test]
    fn busy_lines_survive_a_checkpoint() {
        let mut d = busy_slice();
        assert!(d.is_busy(11) && d.is_busy(12) && !d.is_busy(13));
        let bytes = snapshot(&d);
        let mut r = DirectorySlice::new();
        r.restore(&mut hornet_net::codec::Dec::new(&bytes))
            .expect("restores");
        assert_eq!(snapshot(&r), bytes);
        for line in 10..=14 {
            assert_eq!(r.state_of(line), d.state_of(line), "line {line}");
            assert_eq!(r.is_busy(line), d.is_busy(line), "line {line}");
        }
        // Both finish their transactions identically, queues included.
        for msg in [
            MemMessage::InvAck {
                line: 11,
                from: n(2),
            },
            MemMessage::InvAck {
                line: 11,
                from: n(3),
            },
            MemMessage::PutM {
                line: 12,
                value: 8,
                from: n(1),
            },
        ] {
            assert_eq!(handle(&mut r, msg), handle(&mut d, msg), "{msg:?}");
        }
        assert_eq!(snapshot(&r), snapshot(&d));
    }

    /// Writes the body of one line's record.
    type LineBody<'a> = &'a dyn Fn(&mut hornet_net::codec::Enc);

    /// A slice record: each `(address, body)` line, then zeroed counters.
    fn record(lines: &[(u64, LineBody)]) -> Vec<u8> {
        let mut e = hornet_net::codec::Enc::new();
        e.u32(lines.len() as u32);
        for (addr, body) in lines {
            e.u64(*addr);
            body(&mut e);
        }
        for _ in 0..7 {
            e.u64(0);
        }
        e.into_bytes()
    }

    #[test]
    fn records_a_snapshot_cannot_write_are_invalid_data() {
        use hornet_net::codec::Enc;
        let uncached = |e: &mut Enc| {
            e.u8(0).u8(0).u32(0).u64(0);
        };
        let sharers = |ids: &'static [u32]| {
            move |e: &mut Enc| {
                e.u8(1).u32(ids.len() as u32);
                for &i in ids {
                    e.u32(i);
                }
                e.u8(0).u32(0).u64(0);
            }
        };
        let acks = |remaining: u32| {
            move |e: &mut Enc| {
                e.u8(1)
                    .u32(1)
                    .u32(1)
                    .u8(2)
                    .u32(4)
                    .u32(remaining)
                    .u32(0)
                    .u64(0);
            }
        };
        let queued = |words: &'static [u64]| {
            move |e: &mut Enc| {
                e.u8(2).u32(3).u8(1).u32(4).u8(1).u32(3).u32(1);
                e.u32(words.len() as u32);
                for &w in words {
                    e.u64(w);
                }
                e.u64(0);
            }
        };
        // GetS of line 7 by node 2: directory class, opcode 1.
        const GET_S: &[u64] = &[2, 1, 7, 2];
        assert_eq!(
            MemMessage::decode_words(GET_S),
            Some(MemMessage::GetS {
                line: 7,
                requester: n(2)
            })
        );
        let behind_idle = |e: &mut Enc| {
            e.u8(0).u8(0).u32(1).u32(GET_S.len() as u32);
            for &w in GET_S {
                e.u64(w);
            }
            e.u64(0);
        };
        let flag = |e: &mut Enc| {
            e.u8(2).u32(3).u8(1).u32(4).u8(2).u32(3).u32(0).u64(0);
        };
        let fine: [Vec<u8>; 4] = [
            record(&[(1, &uncached), (2, &uncached)]),
            record(&[(1, &sharers(&[3])), (2, &sharers(&[1, 4, 9]))]),
            record(&[(1, &acks(2))]),
            record(&[(1, &queued(GET_S))]),
        ];
        for bytes in fine {
            let mut d = DirectorySlice::new();
            d.restore(&mut hornet_net::codec::Dec::new(&bytes))
                .expect("a record a snapshot writes");
            assert_eq!(snapshot(&d), bytes);
        }
        let cases: [(&str, Vec<u8>); 10] = [
            (
                "lines out of order",
                record(&[(2, &uncached), (1, &uncached)]),
            ),
            ("a line twice", record(&[(1, &uncached), (1, &uncached)])),
            ("empty sharer list", record(&[(1, &sharers(&[]))])),
            ("unsorted sharers", record(&[(1, &sharers(&[4, 1]))])),
            ("duplicated sharer", record(&[(1, &sharers(&[1, 4, 4]))])),
            ("waiting for no acks", record(&[(1, &acks(0))])),
            (
                "undecodable queued message",
                record(&[(1, &queued(&[2, 1, 7]))]),
            ),
            (
                "request queued behind an idle line",
                record(&[(1, &behind_idle)]),
            ),
            ("exclusive flag of 2", record(&[(1, &flag)])),
            (
                "six-word queued message",
                record(&[(1, &queued(&[2, 1, 7, 2, 0, 0]))]),
            ),
        ];
        for (what, bytes) in cases {
            let err = DirectorySlice::new()
                .restore(&mut hornet_net::codec::Dec::new(&bytes))
                .expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn heap_bytes_count_the_table_and_the_lists() {
        let mut d = DirectorySlice::new();
        assert_eq!(d.heap_bytes(), 0);
        for line in 0..100 {
            handle(
                &mut d,
                MemMessage::GetS {
                    line,
                    requester: n(1),
                },
            );
        }
        let table = d.heap_bytes();
        // 100 lines fit 128 buckets of (address, line) and a control byte.
        assert_eq!(table, 128 * (8 + std::mem::size_of::<Entry>() + 1) + 16);
        handle(
            &mut d,
            MemMessage::GetS {
                line: 0,
                requester: n(2),
            },
        );
        assert!(d.heap_bytes() > table, "a two-sharer list is on the heap");
    }
}
