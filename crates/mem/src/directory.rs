//! The directory slice of the MSI cache-coherence protocol.
//!
//! Each tile (or each memory-controller tile, depending on
//! [`DirectoryPlacement`](crate::hierarchy::DirectoryPlacement)) owns the
//! directory state and the functional backing storage for the cache lines
//! homed there. The directory serialises transactions per line: while a line
//! is busy (waiting for a writeback or for invalidation acknowledgements), new
//! requests for it are queued and replayed when the transaction completes.
//!
//! The slice is a pure state machine: it consumes [`MemMessage`]s and produces
//! `(destination, message, extra_latency)` triples; the surrounding
//! [`MemoryNode`](crate::hierarchy::MemoryNode) turns those into network
//! packets (adding DRAM latency where requested).

use crate::msg::{LineAddr, MemMessage};
use hornet_net::ids::NodeId;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Sharing state of one line, as known by the directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold read-only copies.
    Shared(BTreeSet<NodeId>),
    /// Exactly one cache holds a modified copy.
    Modified(NodeId),
}

/// A transaction the directory is waiting to finish.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Pending {
    /// Waiting for the owner's writeback triggered by a Fetch on behalf of
    /// `requester`; `exclusive` distinguishes GetM from GetS.
    AwaitWriteback {
        requester: NodeId,
        exclusive: bool,
        owner: NodeId,
    },
    /// Waiting for `remaining` invalidation acks before granting M to
    /// `requester`.
    AwaitInvAcks { requester: NodeId, remaining: usize },
}

/// Directory bookkeeping for one line.
#[derive(Clone, Debug)]
struct Entry {
    state: DirState,
    pending: Option<Pending>,
    queued: VecDeque<MemMessage>,
    value: u64,
}

impl Default for Entry {
    fn default() -> Self {
        Self {
            state: DirState::Uncached,
            pending: None,
            queued: VecDeque::new(),
            value: 0,
        }
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

    /// The directory's view of a line's sharing state (for tests and
    /// invariant checks).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        self.lines
            .get(&line)
            .map(|e| e.state.clone())
            .unwrap_or(DirState::Uncached)
    }

    /// The functional value of a line as known by the home memory.
    pub fn value_of(&self, line: LineAddr) -> u64 {
        self.lines.get(&line).map(|e| e.value).unwrap_or(0)
    }

    /// True if the line currently has a transaction in flight.
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.lines
            .get(&line)
            .map(|e| e.pending.is_some())
            .unwrap_or(false)
    }

    /// Handles one inbound directory-class message and returns the outbound
    /// messages it produces.
    pub fn handle(&mut self, msg: MemMessage) -> Vec<DirOutput> {
        match msg {
            MemMessage::GetS { line, requester } => self.handle_get(line, requester, false),
            MemMessage::GetM { line, requester } => self.handle_get(line, requester, true),
            MemMessage::PutM { line, value, from } => self.handle_putm(line, value, from),
            MemMessage::InvAck { line, from } => self.handle_inv_ack(line, from),
            MemMessage::RemoteRead { addr, requester } => {
                let line = addr; // NUCA operates on word addresses directly
                let value = self.lines.entry(line).or_default().value;
                vec![DirOutput {
                    dst: requester,
                    msg: MemMessage::RemoteReadResp { addr, value },
                    from_memory: true,
                }]
            }
            MemMessage::RemoteWrite {
                addr,
                value,
                requester,
            } => {
                self.lines.entry(addr).or_default().value = value;
                vec![DirOutput {
                    dst: requester,
                    msg: MemMessage::RemoteWriteAck { addr },
                    from_memory: true,
                }]
            }
            _ => Vec::new(),
        }
    }

    fn handle_get(&mut self, line: LineAddr, requester: NodeId, exclusive: bool) -> Vec<DirOutput> {
        if exclusive {
            self.stats.get_m += 1;
        } else {
            self.stats.get_s += 1;
        }
        let entry = self.lines.entry(line).or_default();
        if entry.pending.is_some() {
            self.stats.queued += 1;
            entry.queued.push_back(if exclusive {
                MemMessage::GetM { line, requester }
            } else {
                MemMessage::GetS { line, requester }
            });
            return Vec::new();
        }
        let value = entry.value;
        match entry.state.clone() {
            DirState::Uncached => {
                entry.state = if exclusive {
                    DirState::Modified(requester)
                } else {
                    DirState::Shared(BTreeSet::from([requester]))
                };
                self.stats.dram_reads += 1;
                vec![DirOutput {
                    dst: requester,
                    msg: MemMessage::Data { line, value },
                    from_memory: true,
                }]
            }
            DirState::Shared(mut sharers) => {
                if !exclusive {
                    sharers.insert(requester);
                    entry.state = DirState::Shared(sharers);
                    return vec![DirOutput {
                        dst: requester,
                        msg: MemMessage::Data { line, value },
                        from_memory: false,
                    }];
                }
                // GetM over a shared line: invalidate every other sharer.
                let others: Vec<NodeId> = sharers
                    .iter()
                    .copied()
                    .filter(|&s| s != requester)
                    .collect();
                if others.is_empty() {
                    entry.state = DirState::Modified(requester);
                    return vec![DirOutput {
                        dst: requester,
                        msg: MemMessage::Data { line, value },
                        from_memory: false,
                    }];
                }
                entry.pending = Some(Pending::AwaitInvAcks {
                    requester,
                    remaining: others.len(),
                });
                self.stats.invalidations += others.len() as u64;
                others
                    .into_iter()
                    .map(|dst| DirOutput {
                        dst,
                        msg: MemMessage::Invalidate { line },
                        from_memory: false,
                    })
                    .collect()
            }
            DirState::Modified(owner) => {
                if owner == requester {
                    // The owner re-requesting (e.g. lost its copy silently is
                    // impossible in this protocol, but be permissive): grant.
                    entry.state = DirState::Modified(requester);
                    return vec![DirOutput {
                        dst: requester,
                        msg: MemMessage::Data { line, value },
                        from_memory: false,
                    }];
                }
                entry.pending = Some(Pending::AwaitWriteback {
                    requester,
                    exclusive,
                    owner,
                });
                self.stats.fetches += 1;
                vec![DirOutput {
                    dst: owner,
                    msg: MemMessage::Fetch {
                        line,
                        requester,
                        invalidate: exclusive,
                    },
                    from_memory: false,
                }]
            }
        }
    }

    fn handle_putm(&mut self, line: LineAddr, value: u64, from: NodeId) -> Vec<DirOutput> {
        self.stats.writebacks += 1;
        let entry = self.lines.entry(line).or_default();
        entry.value = value;
        match entry.pending.clone() {
            Some(Pending::AwaitWriteback {
                requester,
                exclusive,
                owner,
            }) if owner == from => {
                entry.pending = None;
                entry.state = if exclusive {
                    DirState::Modified(requester)
                } else {
                    DirState::Shared(BTreeSet::from([owner, requester]))
                };
                self.drain_queue(line)
            }
            _ => {
                // Plain eviction writeback.
                if entry.state == DirState::Modified(from) {
                    entry.state = DirState::Uncached;
                }
                self.drain_queue(line)
            }
        }
    }

    fn handle_inv_ack(&mut self, line: LineAddr, _from: NodeId) -> Vec<DirOutput> {
        let entry = self.lines.entry(line).or_default();
        let mut out = Vec::new();
        if let Some(Pending::AwaitInvAcks {
            requester,
            remaining,
        }) = entry.pending.clone()
        {
            if remaining <= 1 {
                entry.pending = None;
                entry.state = DirState::Modified(requester);
                let value = entry.value;
                out.push(DirOutput {
                    dst: requester,
                    msg: MemMessage::Data { line, value },
                    from_memory: false,
                });
                out.extend(self.drain_queue(line));
            } else {
                entry.pending = Some(Pending::AwaitInvAcks {
                    requester,
                    remaining: remaining - 1,
                });
            }
        }
        out
    }

    /// Replays requests queued behind a line that just became quiescent.
    fn drain_queue(&mut self, line: LineAddr) -> Vec<DirOutput> {
        let mut out = Vec::new();
        loop {
            let Some(entry) = self.lines.get_mut(&line) else {
                return out;
            };
            if entry.pending.is_some() {
                return out;
            }
            let Some(next) = entry.queued.pop_front() else {
                return out;
            };
            out.extend(self.handle(next));
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
            match &entry.state {
                DirState::Uncached => {
                    e.u8(0);
                }
                DirState::Shared(sharers) => {
                    e.u8(1).u32(sharers.len() as u32);
                    for s in sharers {
                        e.u32(s.raw());
                    }
                }
                DirState::Modified(owner) => {
                    e.u8(2).u32(owner.raw());
                }
            }
            match &entry.pending {
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
                        .u8(*exclusive as u8)
                        .u32(owner.raw());
                }
                Some(Pending::AwaitInvAcks {
                    requester,
                    remaining,
                }) => {
                    e.u8(2).u32(requester.raw()).u32(*remaining as u32);
                }
            }
            e.u32(entry.queued.len() as u32);
            for msg in &entry.queued {
                let words = msg.encode();
                e.u32(words.len() as u32);
                for w in words.words() {
                    e.u64(*w);
                }
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
    /// Fails with `InvalidData` on a corrupt record.
    pub fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        let corrupt =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.lines.clear();
        for _ in 0..d.u32()? {
            let addr = d.u64()?;
            let state = match d.u8()? {
                0 => DirState::Uncached,
                1 => {
                    let mut sharers = BTreeSet::new();
                    for _ in 0..d.u32()? {
                        sharers.insert(NodeId::new(d.u32()?));
                    }
                    DirState::Shared(sharers)
                }
                2 => DirState::Modified(NodeId::new(d.u32()?)),
                _ => return Err(corrupt("directory checkpoint: bad sharing state")),
            };
            let pending = match d.u8()? {
                0 => None,
                1 => Some(Pending::AwaitWriteback {
                    requester: NodeId::new(d.u32()?),
                    exclusive: d.u8()? != 0,
                    owner: NodeId::new(d.u32()?),
                }),
                2 => Some(Pending::AwaitInvAcks {
                    requester: NodeId::new(d.u32()?),
                    remaining: d.u32()? as usize,
                }),
                _ => return Err(corrupt("directory checkpoint: bad pending state")),
            };
            let mut queued = VecDeque::new();
            for _ in 0..d.u32()? {
                let words = (0..d.u32()?)
                    .map(|_| d.u64())
                    .collect::<std::io::Result<Vec<u64>>>()?;
                let payload = hornet_net::flit::Payload::from_words(&words);
                queued.push_back(
                    MemMessage::decode(&payload)
                        .ok_or_else(|| corrupt("directory checkpoint: bad queued message"))?,
                );
            }
            let value = d.u64()?;
            self.lines.insert(
                addr,
                Entry {
                    state,
                    pending,
                    queued,
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

    #[test]
    fn get_s_on_uncached_reads_memory_and_shares() {
        let mut d = DirectorySlice::new();
        let out = d.handle(MemMessage::GetS {
            line: 4,
            requester: n(1),
        });
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
        d.handle(MemMessage::GetS {
            line: 4,
            requester: n(1),
        });
        d.handle(MemMessage::GetS {
            line: 4,
            requester: n(2),
        });
        d.handle(MemMessage::GetS {
            line: 4,
            requester: n(3),
        });
        let out = d.handle(MemMessage::GetM {
            line: 4,
            requester: n(1),
        });
        // Invalidations to nodes 2 and 3; data comes only after both acks.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|o| matches!(o.msg, MemMessage::Invalidate { line: 4 })));
        assert!(d.is_busy(4));
        assert!(d
            .handle(MemMessage::InvAck {
                line: 4,
                from: n(2)
            })
            .is_empty());
        let done = d.handle(MemMessage::InvAck {
            line: 4,
            from: n(3),
        });
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].dst, n(1));
        assert_eq!(d.state_of(4), DirState::Modified(n(1)));
        assert!(!d.is_busy(4));
    }

    #[test]
    fn get_s_over_modified_fetches_from_owner() {
        let mut d = DirectorySlice::new();
        d.handle(MemMessage::GetM {
            line: 8,
            requester: n(5),
        });
        assert_eq!(d.state_of(8), DirState::Modified(n(5)));
        let out = d.handle(MemMessage::GetS {
            line: 8,
            requester: n(6),
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, n(5));
        assert!(matches!(
            out[0].msg,
            MemMessage::Fetch { line: 8, requester, invalidate: false } if requester == n(6)
        ));
        // Owner writes back; directory becomes Shared{5,6}.
        let after = d.handle(MemMessage::PutM {
            line: 8,
            value: 99,
            from: n(5),
        });
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
        d.handle(MemMessage::GetM {
            line: 1,
            requester: n(1),
        });
        // Second requester: directory fetches from owner and goes busy.
        let _ = d.handle(MemMessage::GetM {
            line: 1,
            requester: n(2),
        });
        assert!(d.is_busy(1));
        // Third requester must be queued.
        let out = d.handle(MemMessage::GetS {
            line: 1,
            requester: n(3),
        });
        assert!(out.is_empty());
        assert_eq!(d.stats().queued, 1);
        // Owner's writeback completes the second transaction and replays the
        // queued GetS, which fetches from the new owner (node 2).
        let replay = d.handle(MemMessage::PutM {
            line: 1,
            value: 7,
            from: n(1),
        });
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].dst, n(2));
        assert!(matches!(replay[0].msg, MemMessage::Fetch { .. }));
    }

    #[test]
    fn eviction_writeback_returns_line_to_uncached() {
        let mut d = DirectorySlice::new();
        d.handle(MemMessage::GetM {
            line: 2,
            requester: n(4),
        });
        let out = d.handle(MemMessage::PutM {
            line: 2,
            value: 123,
            from: n(4),
        });
        assert!(out.is_empty());
        assert_eq!(d.state_of(2), DirState::Uncached);
        assert_eq!(d.value_of(2), 123);
        // A later read sees the written-back value.
        let read = d.handle(MemMessage::GetS {
            line: 2,
            requester: n(5),
        });
        assert!(matches!(read[0].msg, MemMessage::Data { value: 123, .. }));
    }

    #[test]
    fn nuca_remote_accesses_touch_home_memory() {
        let mut d = DirectorySlice::new();
        let w = d.handle(MemMessage::RemoteWrite {
            addr: 0x20,
            value: 77,
            requester: n(1),
        });
        assert!(matches!(
            w[0].msg,
            MemMessage::RemoteWriteAck { addr: 0x20 }
        ));
        let r = d.handle(MemMessage::RemoteRead {
            addr: 0x20,
            requester: n(2),
        });
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
                d.handle(MemMessage::GetM {
                    line,
                    requester: req,
                })
            } else {
                d.handle(MemMessage::GetS {
                    line,
                    requester: req,
                })
            };
            // Answer any fetch/invalidate immediately so the protocol advances.
            for o in out {
                match o.msg {
                    MemMessage::Fetch { line, .. } => {
                        d.handle(MemMessage::PutM {
                            line,
                            value: 0,
                            from: o.dst,
                        });
                    }
                    MemMessage::Invalidate { line } => {
                        d.handle(MemMessage::InvAck { line, from: o.dst });
                    }
                    _ => {}
                }
            }
            match d.state_of(line) {
                DirState::Modified(_) | DirState::Shared(_) | DirState::Uncached => {}
            }
        }
    }
}
