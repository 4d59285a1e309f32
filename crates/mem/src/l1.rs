//! The private L1 cache controller (the requester side of the MSI protocol).
//!
//! The controller is blocking — one outstanding miss at a time — which matches
//! the single-cycle in-order core that drives it. Like the directory slice, it
//! is a pure state machine: core accesses and inbound protocol messages go in,
//! and outbound protocol messages are appended to a buffer the caller owns;
//! the surrounding [`MemoryNode`](crate::hierarchy::MemoryNode) handles
//! packetisation.

use crate::cache::{Cache, CacheConfig, LineState};
use crate::msg::{LineAddr, MemMessage};
use hornet_net::ids::{Cycle, NodeId};

/// A memory operation issued by the core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CoreMemOp {
    /// Load a word.
    Load {
        /// Byte address.
        addr: u64,
    },
    /// Store a word.
    Store {
        /// Byte address.
        addr: u64,
        /// Value to store.
        value: u64,
    },
}

impl CoreMemOp {
    /// The byte address accessed.
    pub fn addr(&self) -> u64 {
        match self {
            CoreMemOp::Load { addr } => *addr,
            CoreMemOp::Store { addr, .. } => *addr,
        }
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, CoreMemOp::Store { .. })
    }
}

/// Outcome of a core access presented to the L1.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessOutcome {
    /// The access hit in the L1 and completed immediately with this value.
    Hit(u64),
    /// The access missed; the returned coherence request must be sent to the
    /// line's home directory, and the core must stall until
    /// [`L1Controller::take_completion`] yields a value.
    Miss(MemMessage),
    /// A previous miss is still outstanding; the core must retry later.
    Busy,
}

/// Where an outbound L1 message should go.
#[derive(Clone, Debug, PartialEq)]
pub enum L1Out {
    /// Send to the home directory of `line`.
    ToHome {
        /// The line whose home should receive the message.
        line: LineAddr,
        /// The message.
        msg: MemMessage,
    },
    /// Send to an explicit node (cache-to-cache forwarding).
    ToNode {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: MemMessage,
    },
}

/// Counters kept by the L1 controller.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Core loads presented.
    pub loads: u64,
    /// Core stores presented.
    pub stores: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and generated coherence traffic).
    pub misses: u64,
    /// Invalidations received.
    pub invalidations: u64,
    /// Fetch/forward requests served.
    pub fetches_served: u64,
    /// Dirty writebacks sent (evictions and downgrades).
    pub writebacks: u64,
    /// Sum of miss latencies (issue to completion), in cycles.
    pub total_miss_latency: u64,
    /// Completed misses.
    pub completed_misses: u64,
}

#[derive(Copy, Clone, Debug)]
struct Outstanding {
    op: CoreMemOp,
    line: LineAddr,
    issued_at: Cycle,
}

/// The L1 cache controller for one core.
#[derive(Clone, Debug)]
pub struct L1Controller {
    node: NodeId,
    cache: Cache,
    outstanding: Option<Outstanding>,
    completion: Option<u64>,
    stats: L1Stats,
}

impl L1Controller {
    /// Creates an L1 controller with the given cache geometry.
    pub fn new(node: NodeId, config: CacheConfig) -> Self {
        Self {
            node,
            cache: Cache::new(config),
            outstanding: None,
            completion: None,
            stats: L1Stats::default(),
        }
    }

    /// The node this L1 belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Counters.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// The underlying cache (for inspection in tests).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// True if a miss is outstanding.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Takes the completion value of the last finished miss, if any.
    pub fn take_completion(&mut self) -> Option<u64> {
        self.completion.take()
    }

    /// Presents a core access.
    pub fn access(&mut self, op: CoreMemOp, now: Cycle) -> AccessOutcome {
        if self.outstanding.is_some() {
            return AccessOutcome::Busy;
        }
        if op.is_store() {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let line = self.cache.config().line_of(op.addr());
        match (self.cache.lookup(line), op) {
            (Some((LineState::Modified, value)), CoreMemOp::Load { .. }) => {
                self.stats.hits += 1;
                AccessOutcome::Hit(value)
            }
            (Some((LineState::Shared, value)), CoreMemOp::Load { .. }) => {
                self.stats.hits += 1;
                AccessOutcome::Hit(value)
            }
            (Some((LineState::Modified, _)), CoreMemOp::Store { value, .. }) => {
                self.stats.hits += 1;
                self.cache.write_value(line, value);
                AccessOutcome::Hit(value)
            }
            (_, op) => {
                // Miss (or store to a Shared line, which needs an upgrade).
                self.stats.misses += 1;
                self.outstanding = Some(Outstanding {
                    op,
                    line,
                    issued_at: now,
                });
                let msg = if op.is_store() {
                    MemMessage::GetM {
                        line,
                        requester: self.node,
                    }
                } else {
                    MemMessage::GetS {
                        line,
                        requester: self.node,
                    }
                };
                AccessOutcome::Miss(msg)
            }
        }
    }

    /// Handles an inbound L1-class protocol message and appends the outbound
    /// messages it produces to `out`.
    pub fn handle_into(&mut self, msg: MemMessage, now: Cycle, out: &mut Vec<L1Out>) {
        match msg {
            MemMessage::Data { line, value } | MemMessage::FwdData { line, value } => {
                self.complete_fill(line, value, now, out)
            }
            MemMessage::Fetch {
                line,
                requester,
                invalidate,
            } => {
                self.stats.fetches_served += 1;
                let value = self.cache.peek(line).map(|(_, v)| v).unwrap_or(0);
                let new_state = if invalidate {
                    LineState::Invalid
                } else {
                    LineState::Shared
                };
                self.cache.set_state(line, new_state);
                self.stats.writebacks += 1;
                out.push(L1Out::ToNode {
                    dst: requester,
                    msg: MemMessage::FwdData { line, value },
                });
                out.push(L1Out::ToHome {
                    line,
                    msg: MemMessage::PutM {
                        line,
                        value,
                        from: self.node,
                    },
                });
            }
            MemMessage::Invalidate { line } => {
                self.stats.invalidations += 1;
                self.cache.set_state(line, LineState::Invalid);
                out.push(L1Out::ToHome {
                    line,
                    msg: MemMessage::InvAck {
                        line,
                        from: self.node,
                    },
                });
            }
            MemMessage::RemoteReadResp { value, .. } | MemMessage::DramReadResp { value, .. } => {
                self.finish_outstanding(value, now);
            }
            MemMessage::RemoteWriteAck { .. } => {
                let value = match self.outstanding.map(|o| o.op) {
                    Some(CoreMemOp::Store { value, .. }) => value,
                    _ => 0,
                };
                self.finish_outstanding(value, now);
            }
            _ => {}
        }
    }

    fn complete_fill(&mut self, line: LineAddr, value: u64, now: Cycle, out: &mut Vec<L1Out>) {
        let (state, fill_value, completion) = match self.outstanding {
            Some(o) if o.line == line => match o.op {
                CoreMemOp::Load { .. } => (LineState::Shared, value, value),
                CoreMemOp::Store { value: stored, .. } => (LineState::Modified, stored, stored),
            },
            // Fill we were not waiting for (e.g. prefetch-like duplicate):
            // install as Shared.
            _ => (LineState::Shared, value, value),
        };
        if let Some(evicted) = self.cache.insert(line, state, fill_value) {
            if evicted.state == LineState::Modified {
                self.stats.writebacks += 1;
                out.push(L1Out::ToHome {
                    line: evicted.line,
                    msg: MemMessage::PutM {
                        line: evicted.line,
                        value: evicted.value,
                        from: self.node,
                    },
                });
            }
        }
        if matches!(self.outstanding, Some(o) if o.line == line) {
            self.finish_outstanding(completion, now);
        }
    }

    fn finish_outstanding(&mut self, value: u64, now: Cycle) {
        if let Some(o) = self.outstanding.take() {
            self.stats.completed_misses += 1;
            self.stats.total_miss_latency += now.saturating_sub(o.issued_at);
            self.completion = Some(value);
        }
    }

    /// Serializes the controller's state (cache contents, the outstanding
    /// miss, any unconsumed completion and the counters) for a checkpoint.
    pub fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        self.cache.snapshot(e);
        match self.outstanding {
            None => {
                e.u8(0);
            }
            Some(o) => {
                e.u8(1);
                match o.op {
                    CoreMemOp::Load { addr } => e.u8(0).u64(addr),
                    CoreMemOp::Store { addr, value } => e.u8(1).u64(addr).u64(value),
                };
                e.u64(o.line).u64(o.issued_at);
            }
        }
        match self.completion {
            None => e.u8(0),
            Some(v) => e.u8(1).u64(v),
        };
        e.u64(self.stats.loads)
            .u64(self.stats.stores)
            .u64(self.stats.hits)
            .u64(self.stats.misses)
            .u64(self.stats.invalidations)
            .u64(self.stats.fetches_served)
            .u64(self.stats.writebacks)
            .u64(self.stats.total_miss_latency)
            .u64(self.stats.completed_misses);
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a corrupt record.
    pub fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        let corrupt =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.cache.restore(d)?;
        self.outstanding = match d.u8()? {
            0 => None,
            1 => {
                let op = match d.u8()? {
                    0 => CoreMemOp::Load { addr: d.u64()? },
                    1 => CoreMemOp::Store {
                        addr: d.u64()?,
                        value: d.u64()?,
                    },
                    _ => return Err(corrupt("L1 checkpoint: bad op tag")),
                };
                Some(Outstanding {
                    op,
                    line: d.u64()?,
                    issued_at: d.u64()?,
                })
            }
            _ => return Err(corrupt("L1 checkpoint: bad outstanding-miss tag")),
        };
        self.completion = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            _ => return Err(corrupt("L1 checkpoint: bad completion tag")),
        };
        self.stats = L1Stats {
            loads: d.u64()?,
            stores: d.u64()?,
            hits: d.u64()?,
            misses: d.u64()?,
            invalidations: d.u64()?,
            fetches_served: d.u64()?,
            writebacks: d.u64()?,
            total_miss_latency: d.u64()?,
            completed_misses: d.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(c: &mut L1Controller, msg: MemMessage, now: Cycle) -> Vec<L1Out> {
        let mut out = Vec::new();
        c.handle_into(msg, now, &mut out);
        out
    }

    fn l1() -> L1Controller {
        L1Controller::new(
            NodeId::new(3),
            CacheConfig {
                sets: 4,
                ways: 2,
                line_bytes: 64,
            },
        )
    }

    #[test]
    fn load_miss_then_hit() {
        let mut c = l1();
        let out = c.access(CoreMemOp::Load { addr: 0x100 }, 0);
        let AccessOutcome::Miss(MemMessage::GetS { line, requester }) = out else {
            panic!("expected a GetS miss, got {out:?}");
        };
        assert_eq!(line, 4);
        assert_eq!(requester, NodeId::new(3));
        assert!(c.has_outstanding());
        // While the miss is outstanding, further accesses are refused.
        assert_eq!(
            c.access(CoreMemOp::Load { addr: 0x200 }, 1),
            AccessOutcome::Busy
        );
        // Data arrives.
        assert!(handle(&mut c, MemMessage::Data { line: 4, value: 42 }, 10).is_empty());
        assert_eq!(c.take_completion(), Some(42));
        assert!(!c.has_outstanding());
        // Now it hits.
        assert_eq!(
            c.access(CoreMemOp::Load { addr: 0x108 }, 11),
            AccessOutcome::Hit(42)
        );
        assert_eq!(c.stats().completed_misses, 1);
        assert_eq!(c.stats().total_miss_latency, 10);
    }

    #[test]
    fn store_to_shared_line_upgrades() {
        let mut c = l1();
        c.access(CoreMemOp::Load { addr: 0x40 }, 0);
        handle(&mut c, MemMessage::Data { line: 1, value: 7 }, 1);
        c.take_completion();
        let out = c.access(
            CoreMemOp::Store {
                addr: 0x40,
                value: 9,
            },
            2,
        );
        assert!(matches!(
            out,
            AccessOutcome::Miss(MemMessage::GetM { line: 1, .. })
        ));
        handle(&mut c, MemMessage::Data { line: 1, value: 7 }, 5);
        assert_eq!(c.take_completion(), Some(9));
        assert_eq!(c.cache().peek(1), Some((LineState::Modified, 9)));
        // A store to a Modified line hits.
        assert_eq!(
            c.access(
                CoreMemOp::Store {
                    addr: 0x48,
                    value: 11
                },
                6
            ),
            AccessOutcome::Hit(11)
        );
    }

    #[test]
    fn fetch_forwards_data_and_writes_back() {
        let mut c = l1();
        c.access(
            CoreMemOp::Store {
                addr: 0x80,
                value: 5,
            },
            0,
        );
        handle(&mut c, MemMessage::Data { line: 2, value: 0 }, 1);
        c.take_completion();
        let out = handle(
            &mut c,
            MemMessage::Fetch {
                line: 2,
                requester: NodeId::new(9),
                invalidate: false,
            },
            2,
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0],
            L1Out::ToNode { dst, msg: MemMessage::FwdData { line: 2, value: 5 } } if *dst == NodeId::new(9)
        ));
        assert!(matches!(
            &out[1],
            L1Out::ToHome {
                line: 2,
                msg: MemMessage::PutM { value: 5, .. }
            }
        ));
        // Downgraded to Shared, not invalidated.
        assert_eq!(c.cache().peek(2), Some((LineState::Shared, 5)));
        // An invalidating fetch removes the line.
        handle(
            &mut c,
            MemMessage::Fetch {
                line: 2,
                requester: NodeId::new(9),
                invalidate: true,
            },
            3,
        );
        assert_eq!(c.cache().peek(2), None);
    }

    #[test]
    fn invalidate_acks_to_home() {
        let mut c = l1();
        c.access(CoreMemOp::Load { addr: 0xc0 }, 0);
        handle(&mut c, MemMessage::Data { line: 3, value: 1 }, 1);
        c.take_completion();
        let out = handle(&mut c, MemMessage::Invalidate { line: 3 }, 2);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            L1Out::ToHome {
                line: 3,
                msg: MemMessage::InvAck { .. }
            }
        ));
        assert_eq!(c.cache().peek(3), None);
        // The next load misses again.
        assert!(matches!(
            c.access(CoreMemOp::Load { addr: 0xc0 }, 3),
            AccessOutcome::Miss(_)
        ));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = L1Controller::new(
            NodeId::new(0),
            CacheConfig {
                sets: 1,
                ways: 1,
                line_bytes: 64,
            },
        );
        c.access(
            CoreMemOp::Store {
                addr: 0x0,
                value: 1,
            },
            0,
        );
        handle(&mut c, MemMessage::Data { line: 0, value: 0 }, 1);
        c.take_completion();
        // A miss to a different line evicts the dirty line 0.
        c.access(CoreMemOp::Load { addr: 0x40 }, 2);
        let out = handle(&mut c, MemMessage::Data { line: 1, value: 3 }, 3);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            L1Out::ToHome {
                line: 0,
                msg: MemMessage::PutM {
                    line: 0,
                    value: 1,
                    ..
                }
            }
        ));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn nuca_responses_complete_without_caching() {
        let mut c = l1();
        // Simulate the hierarchy putting the L1 into a waiting state manually:
        // a NUCA access is issued as a miss by the MemoryNode, so here we just
        // check that the response completes an outstanding op.
        c.access(CoreMemOp::Load { addr: 0x200 }, 0);
        handle(
            &mut c,
            MemMessage::RemoteReadResp {
                addr: 0x200,
                value: 55,
            },
            4,
        );
        assert_eq!(c.take_completion(), Some(55));
    }
}
