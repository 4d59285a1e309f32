//! Cycle-stamped structured event tracing.
//!
//! Simulation and runtime layers record fixed-size [`TraceEvent`]s into
//! fixed-capacity [`TraceRing`]s: one ring per tile for the deterministic
//! flit lifecycle (inject → route → eject), one ring per shard (and one on
//! the coordinator) for runtime events — slack waits, checkpoint
//! capture/commit, worker loss/rollback/respawn.
//!
//! # Cost model
//!
//! * **No ring attached** (the default): a record site pays one `Option`
//!   branch.
//! * **Ring attached**: one bounds check and a 40-byte copy per event.
//!   Recording never allocates — the ring's buffer is reserved up front.
//!
//! # Truncation contract
//!
//! A full ring drops *new* events (keeping the earliest, which is the
//! deterministic choice — what is retained depends only on the event
//! sequence, not on timing) and counts every drop. Exporters always emit
//! the drop counter, so truncation can lose events but never the fact that
//! events were lost.
//!
//! # Determinism
//!
//! In cycle-accurate mode the per-tile event sequence (including which
//! events a full ring drops) is a pure function of the workload, so tile
//! rings are bit-identical across the sequential, thread-shard and
//! multi-process backends. Runtime events (waits, checkpoints, recoveries)
//! are host-timing-dependent by nature and live in separate rings;
//! [`TraceDump::flit_events`] selects the deterministic subset.

use crate::json;
use crate::metrics::{get_u32, get_u64, take};
use std::io;

/// What happened. The meaning of [`TraceEvent::a`] / [`TraceEvent::b`]
/// depends on the kind; see each variant.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// A flit entered the network at `node`: `a` = packet id, `b` = flit seq.
    FlitInject = 0,
    /// A head flit was route-computed at `node`: `a` = packet id,
    /// `b` = chosen egress port.
    FlitRoute = 1,
    /// A flit was delivered to the local agent at `node`: `a` = packet id,
    /// `b` = flit seq.
    FlitEject = 2,
    /// Shard `node` started waiting for neighbors to reach floor `a`.
    SlackWaitBegin = 3,
    /// Shard `node` resumed: `a` = nanoseconds waited, `b` = the floor.
    SlackWaitEnd = 4,
    /// Shard `node` captured a checkpoint: `a` = serialized bytes.
    CheckpointCapture = 5,
    /// The coordinator committed a consistent checkpoint cut: `a` = total
    /// bytes across shards.
    CheckpointCommit = 6,
    /// The coordinator lost worker `node`: `a` = restarts used so far.
    WorkerLost = 7,
    /// The coordinator rolled the run back to cycle `cycle` (node is the
    /// sentinel `u32::MAX`: the rollback is global).
    Rollback = 8,
    /// The coordinator respawned the workers: `a` = attempt number.
    Respawn = 9,
}

impl TraceKind {
    /// All kinds, in tag order.
    pub const ALL: [TraceKind; 10] = [
        TraceKind::FlitInject,
        TraceKind::FlitRoute,
        TraceKind::FlitEject,
        TraceKind::SlackWaitBegin,
        TraceKind::SlackWaitEnd,
        TraceKind::CheckpointCapture,
        TraceKind::CheckpointCommit,
        TraceKind::WorkerLost,
        TraceKind::Rollback,
        TraceKind::Respawn,
    ];

    /// Stable snake_case name (JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FlitInject => "flit_inject",
            TraceKind::FlitRoute => "flit_route",
            TraceKind::FlitEject => "flit_eject",
            TraceKind::SlackWaitBegin => "slack_wait_begin",
            TraceKind::SlackWaitEnd => "slack_wait_end",
            TraceKind::CheckpointCapture => "checkpoint_capture",
            TraceKind::CheckpointCommit => "checkpoint_commit",
            TraceKind::WorkerLost => "worker_lost",
            TraceKind::Rollback => "rollback",
            TraceKind::Respawn => "respawn",
        }
    }

    /// True for the deterministic flit-lifecycle kinds recorded by tiles
    /// (the bit-identity subset).
    pub fn is_flit(self) -> bool {
        matches!(
            self,
            TraceKind::FlitInject | TraceKind::FlitRoute | TraceKind::FlitEject
        )
    }

    fn from_tag(tag: u8) -> io::Result<Self> {
        TraceKind::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad trace-event kind"))
    }
}

/// One recorded event: fixed-size, `Copy`, allocation-free to record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event is stamped with.
    pub cycle: u64,
    /// Tile id for flit events, shard id for runtime events
    /// (`u32::MAX` = whole run).
    pub node: u32,
    /// Event kind (fixes the meaning of `a` and `b`).
    pub kind: TraceKind,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

/// A fixed-capacity, drop-newest event ring with a drop counter.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events. The buffer is
    /// reserved up front so recording never allocates.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            dropped: 0,
        }
    }

    /// Records one event (drops it, counted, when the ring is full).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.buf.push(ev);
    }

    /// The retained events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.buf
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring and resets the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }

    /// Moves the ring's contents into a dump, leaving it empty.
    pub fn drain_into(&mut self, dump: &mut TraceDump) {
        dump.events.append(&mut self.buf);
        dump.dropped += self.dropped;
        self.dropped = 0;
    }
}

/// A collection of drained rings: the unit of export and wire transfer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// The retained events.
    pub events: Vec<TraceEvent>,
    /// Total events dropped by the contributing rings.
    pub dropped: u64,
}

impl TraceDump {
    /// Merges another dump into this one.
    pub fn merge(&mut self, mut other: TraceDump) {
        self.events.append(&mut other.events);
        self.dropped += other.dropped;
    }

    /// Stably reorders events by node id, preserving each node's recording
    /// order — the canonical form in which any per-node-contiguous
    /// collection (sequential tiles, shard-concatenated tiles) compares
    /// equal.
    pub fn canonicalize(&mut self) {
        self.events.sort_by_key(|e| e.node);
    }

    /// The deterministic flit-lifecycle subset, canonically ordered.
    pub fn flit_events(&self) -> TraceDump {
        let mut out = TraceDump {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.kind.is_flit())
                .collect(),
            dropped: self.dropped,
        };
        out.canonicalize();
        out
    }

    /// Serializes the dump to the fixed little-endian wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.events.len() * 29);
        buf.extend_from_slice(&self.dropped.to_le_bytes());
        buf.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            buf.extend_from_slice(&e.cycle.to_le_bytes());
            buf.extend_from_slice(&e.node.to_le_bytes());
            buf.push(e.kind as u8);
            buf.extend_from_slice(&e.a.to_le_bytes());
            buf.extend_from_slice(&e.b.to_le_bytes());
        }
        buf
    }

    /// Decodes a dump written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// `InvalidData` / `UnexpectedEof` on a corrupt or truncated dump.
    pub fn decode(mut buf: &[u8]) -> io::Result<Self> {
        let buf = &mut buf;
        let dropped = get_u64(buf)?;
        let count = get_u32(buf)? as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            events.push(TraceEvent {
                cycle: get_u64(buf)?,
                node: get_u32(buf)?,
                kind: TraceKind::from_tag(take(buf, 1)?[0])?,
                a: get_u64(buf)?,
                b: get_u64(buf)?,
            });
        }
        Ok(Self { events, dropped })
    }

    /// Exports as JSONL: one object per event, terminated by one summary
    /// object carrying the drop counter. The summary line is emitted
    /// *unconditionally* — truncation never silently reads as "complete".
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.events, self.dropped)
    }

    /// Exports as Chrome `trace_event` JSON (load in perfetto, speedscope
    /// or `chrome://tracing`). Timestamps are the simulated cycle (as µs of
    /// virtual time); flit events render as instants on `tile-N` tracks,
    /// runtime events on `shard-N` / `run` tracks, with waits and
    /// checkpoint captures as duration slices (their recorded wall
    /// nanoseconds as the slice length).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 128);
        json::object(&mut out, |o| {
            o.str("displayTimeUnit", "ms")
                .array("traceEvents", &self.events, |t, e| {
                    let tid = if e.kind.is_flit() {
                        format!("tile-{}", e.node)
                    } else if e.node == u32::MAX {
                        "run".to_string()
                    } else {
                        format!("shard-{}", e.node)
                    };
                    t.str("name", e.kind.name());
                    match e.kind {
                        TraceKind::SlackWaitEnd | TraceKind::CheckpointCapture => {
                            let dur_us = (e.a as f64 / 1000.0).max(0.001);
                            t.str("ph", "X").u64("ts", e.cycle).f64("dur", dur_us, 3);
                        }
                        _ => {
                            t.str("ph", "i").u64("ts", e.cycle).str("s", "t");
                        }
                    }
                    t.u64("pid", 0).str("tid", &tid).object("args", |g| {
                        g.u64("a", e.a).u64("b", e.b);
                    });
                })
                .object("otherData", |d| {
                    d.u64("dropped", self.dropped)
                        .u64("events", self.events.len() as u64);
                });
        });
        out
    }
}

/// The JSONL form of `events` shared by [`TraceDump::to_jsonl`] and the
/// `/trace` endpoint: one object per event, then the unconditional
/// `{"events":N,"dropped":D}` summary line.
pub(crate) fn jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>, dropped: u64) -> String {
    let mut out = String::new();
    let mut n = 0u64;
    for e in events {
        json::object(&mut out, |o| {
            o.u64("cycle", e.cycle)
                .u64("node", u64::from(e.node))
                .str("kind", e.kind.name())
                .u64("a", e.a)
                .u64("b", e.b);
        });
        out.push('\n');
        n += 1;
    }
    json::object(&mut out, |o| {
        o.u64("events", n).u64("dropped", dropped);
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            node,
            kind,
            a: 7,
            b: 9,
        }
    }

    #[test]
    fn ring_drops_newest_and_counts() {
        let mut ring = TraceRing::new(2);
        ring.record(ev(1, 0, TraceKind::FlitInject));
        ring.record(ev(2, 0, TraceKind::FlitRoute));
        ring.record(ev(3, 0, TraceKind::FlitEject));
        assert_eq!(ring.events().len(), 2);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.events()[0].cycle, 1, "earliest events are retained");
    }

    #[test]
    fn dump_round_trips_and_canonicalizes_stably() {
        let mut ring_a = TraceRing::new(4);
        let mut ring_b = TraceRing::new(4);
        ring_b.record(ev(5, 2, TraceKind::FlitInject));
        ring_b.record(ev(6, 2, TraceKind::FlitEject));
        ring_a.record(ev(1, 1, TraceKind::SlackWaitEnd));
        let mut dump = TraceDump::default();
        ring_b.drain_into(&mut dump);
        ring_a.drain_into(&mut dump);
        dump.dropped += 3;
        dump.canonicalize();
        assert_eq!(dump.events[0].node, 1);
        assert_eq!(dump.events[1].cycle, 5, "per-node order preserved");
        assert_eq!(dump.events[2].cycle, 6);
        let back = TraceDump::decode(&dump.encode()).unwrap();
        assert_eq!(back, dump);
        assert!(TraceDump::decode(&dump.encode()[..5]).is_err());
    }

    #[test]
    fn flit_subset_excludes_runtime_events() {
        let dump = TraceDump {
            events: vec![
                ev(1, 0, TraceKind::SlackWaitBegin),
                ev(2, 1, TraceKind::FlitInject),
                ev(3, 0, TraceKind::Respawn),
            ],
            dropped: 0,
        };
        let flits = dump.flit_events();
        assert_eq!(flits.events.len(), 1);
        assert_eq!(flits.events[0].kind, TraceKind::FlitInject);
    }
}
