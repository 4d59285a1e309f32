//! The coordinator↔worker control protocol.
//!
//! A handful of length-prefixed frames: handshake and shard assignment, data
//! plane address exchange, the start signal, the credit-counting termination
//! probe/ledger/directive loop, and the final per-shard report.
//!
//! The handshake is one sequence whatever carries the data plane: `Hello`
//! (worker) → `Assign` (coordinator) → `Listening` (worker; socket media
//! only) → `PeerMap` (coordinator: one endpoint per shard adjacency) →
//! `Start`.

use crate::spec::DistSpec;
use crate::wire::{decode_stats, encode_stats, read_frame, write_frame, Dec, Enc, WIRE_VERSION};
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::profile::StallProfile;
use hornet_shard::termination::LedgerState;
use std::io::{self, Read, Write};
use std::time::Duration;

/// How often a worker tells the coordinator it is alive.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// A control message that does not fit the protocol.
pub(crate) fn proto_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol: {msg}"))
}

/// How worker data planes reach each other.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Unix domain stream sockets (co-located processes).
    UnixSocket,
    /// TCP loopback / cross-machine sockets.
    Tcp,
    /// Shared-memory segments (co-located processes).
    Shm,
}

impl TransportKind {
    /// Wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            TransportKind::UnixSocket => 0,
            TransportKind::Tcp => 1,
            TransportKind::Shm => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> io::Result<Self> {
        Ok(match v {
            0 => TransportKind::UnixSocket,
            1 => TransportKind::Tcp,
            2 => TransportKind::Shm,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad transport kind",
                ))
            }
        })
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "unix" => Some(TransportKind::UnixSocket),
            "tcp" => Some(TransportKind::Tcp),
            "shm" => Some(TransportKind::Shm),
            _ => None,
        }
    }
}

/// A control-plane message.
#[derive(Debug)]
pub enum CtrlMsg {
    /// Worker → coordinator: first frame after connecting.
    Hello {
        /// Must equal [`WIRE_VERSION`].
        version: u32,
        /// Host-list mode: the `host:port` this worker's data plane is
        /// reachable at from the other machines (empty when the coordinator
        /// spawned the worker locally).
        advertise: String,
        /// Run handshake nonce: must match the coordinator's, so a stray
        /// worker (stale respawn, wrong run, port scan) cannot join.
        nonce: u64,
    },
    /// Coordinator → worker: shard assignment.
    Assign {
        /// This worker's shard.
        shard: u32,
        /// Total shard count.
        shards: u32,
        /// The workload.
        spec: Box<DistSpec>,
        /// Data-plane transport.
        transport: TransportKind,
        /// Unix data-plane listen path for this worker (empty for TCP, which
        /// binds an ephemeral port, and for shm).
        listen: String,
        /// Shard checkpoint to restore before simulating (crash recovery).
        resume: Option<Vec<u8>>,
    },
    /// Worker → coordinator: socket data plane bound at `addr` (shared-memory
    /// workers bind nothing and skip this message).
    Listening {
        /// The worker's data-plane address.
        addr: String,
    },
    /// Coordinator → worker: one endpoint per shard adjacency as
    /// `(lo, hi, endpoint)` — the lower shard's listen address, which the
    /// higher shard dials, or the shared-memory segment both map.
    PeerMap {
        /// Adjacency → endpoint triples.
        entries: Vec<(u32, u32, String)>,
    },
    /// Coordinator → worker: begin simulating.
    Start,
    /// Coordinator → worker: report your termination ledger.
    Probe {
        /// Round identifier echoed in the reply.
        round: u64,
    },
    /// Worker → coordinator: ledger reply.
    Ledger {
        /// Echoed probe round.
        round: u64,
        /// Ledger version at read time.
        version: u64,
        /// The ledger state.
        state: LedgerState,
    },
    /// Coordinator → worker: fast-forward every clock to `target`.
    Skip {
        /// Jump target cycle.
        target: u64,
    },
    /// Coordinator → worker: completion declared, stop simulating.
    Stop,
    /// Worker → coordinator: run finished.
    Done(Box<ShardReport>),
    /// Worker → worker: identifies the connecting shard on a data socket.
    PeerHello {
        /// The connecting shard.
        from: u32,
    },
    /// Worker → coordinator: periodic liveness signal.
    Heartbeat {
        /// The shard's current simulated cycle.
        cycle: u64,
    },
    /// Worker → coordinator: a shard checkpoint captured at a rendezvous
    /// cycle. The coordinator commits a cycle once every shard reported it.
    Checkpoint {
        /// The rendezvous cycle.
        cycle: u64,
        /// The serialized shard state ([`hornet_shard::snapshot`] layout).
        data: Vec<u8>,
    },
    /// Worker → coordinator: periodic telemetry sample (wire v4). The
    /// coordinator aggregates these into the live metrics stream.
    Telemetry {
        /// The sample.
        sample: Box<TelemetrySample>,
    },
}

/// One shard's final report.
#[derive(Debug)]
pub struct ShardReport {
    /// The cycle the worker stopped at.
    pub final_now: u64,
    /// Every local agent finished and the shard drained.
    pub completed: bool,
    /// Per-shard statistics.
    pub stats: NetworkStats,
    /// Wall-time attribution of the worker's run.
    pub profile: StallProfile,
    /// Encoded [`hornet_obs::trace::TraceDump`] of the shard's tile and
    /// runtime rings (empty when tracing was off).
    pub trace: Vec<u8>,
}

impl CtrlMsg {
    /// Writes the message as one frame and flushes it.
    pub fn send(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, &self.encode())?;
        w.flush()
    }

    /// Reads and decodes one frame.
    pub fn recv(r: &mut impl Read) -> io::Result<CtrlMsg> {
        CtrlMsg::decode(&read_frame(r)?)
    }

    /// Encodes the message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            CtrlMsg::Hello {
                version,
                advertise,
                nonce,
            } => {
                e.u8(0).u32(*version).str(advertise).u64(*nonce);
            }
            CtrlMsg::Assign {
                shard,
                shards,
                spec,
                transport,
                listen,
                resume,
            } => {
                e.u8(1).u32(*shard).u32(*shards).u8(transport.to_u8());
                e.str(listen);
                spec.encode(&mut e);
                match resume {
                    Some(data) => {
                        e.u8(1).blob(data);
                    }
                    None => {
                        e.u8(0);
                    }
                }
            }
            CtrlMsg::Listening { addr } => {
                e.u8(2).str(addr);
            }
            CtrlMsg::PeerMap { entries } => {
                e.u8(3).u32(entries.len() as u32);
                for (lo, hi, endpoint) in entries {
                    e.u32(*lo).u32(*hi).str(endpoint);
                }
            }
            CtrlMsg::Start => {
                e.u8(5);
            }
            CtrlMsg::Probe { round } => {
                e.u8(6).u64(*round);
            }
            CtrlMsg::Ledger {
                round,
                version,
                state,
            } => {
                e.u8(7).u64(*round).u64(*version);
                e.u64(state.busy)
                    .u8(u8::from(state.finished))
                    .u64(state.next_event)
                    .u64(state.sent)
                    .u64(state.recv)
                    .u64(state.cycle);
            }
            CtrlMsg::Skip { target } => {
                e.u8(8).u64(*target);
            }
            CtrlMsg::Stop => {
                e.u8(9);
            }
            CtrlMsg::Done(r) => {
                e.u8(10).u64(r.final_now).u8(u8::from(r.completed));
                encode_stats(&mut e, &r.stats);
                e.u64(r.profile.compute_ns)
                    .u64(r.profile.wait_ns)
                    .u64(r.profile.ingest_ns)
                    .u64(r.profile.flush_ns);
                e.blob(&r.trace);
            }
            CtrlMsg::PeerHello { from } => {
                e.u8(11).u32(*from);
            }
            CtrlMsg::Heartbeat { cycle } => {
                e.u8(12).u64(*cycle);
            }
            CtrlMsg::Checkpoint { cycle, data } => {
                e.u8(13).u64(*cycle).blob(data);
            }
            CtrlMsg::Telemetry { sample } => {
                let mut buf = Vec::new();
                sample.encode_into(&mut buf);
                e.u8(14).blob(&buf);
            }
        }
        e.into_bytes()
    }

    /// Decodes one frame payload.
    pub fn decode(buf: &[u8]) -> io::Result<CtrlMsg> {
        let mut d = Dec::new(buf);
        Ok(match d.u8()? {
            0 => CtrlMsg::Hello {
                version: d.u32()?,
                advertise: d.str()?,
                nonce: d.u64()?,
            },
            1 => {
                let shard = d.u32()?;
                let shards = d.u32()?;
                let transport = TransportKind::from_u8(d.u8()?)?;
                let listen = d.str()?;
                let spec = Box::new(DistSpec::decode(&mut d)?);
                let resume = match d.u8()? {
                    0 => None,
                    _ => Some(d.blob()?.to_vec()),
                };
                CtrlMsg::Assign {
                    shard,
                    shards,
                    spec,
                    transport,
                    listen,
                    resume,
                }
            }
            2 => CtrlMsg::Listening { addr: d.str()? },
            3 => {
                let n = d.u32()?;
                let entries = (0..n)
                    .map(|_| Ok((d.u32()?, d.u32()?, d.str()?)))
                    .collect::<io::Result<Vec<_>>>()?;
                CtrlMsg::PeerMap { entries }
            }
            5 => CtrlMsg::Start,
            6 => CtrlMsg::Probe { round: d.u64()? },
            7 => CtrlMsg::Ledger {
                round: d.u64()?,
                version: d.u64()?,
                state: LedgerState {
                    busy: d.u64()?,
                    finished: d.u8()? != 0,
                    next_event: d.u64()?,
                    sent: d.u64()?,
                    recv: d.u64()?,
                    cycle: d.u64()?,
                },
            },
            8 => CtrlMsg::Skip { target: d.u64()? },
            9 => CtrlMsg::Stop,
            10 => CtrlMsg::Done(Box::new(ShardReport {
                final_now: d.u64()?,
                completed: d.u8()? != 0,
                stats: decode_stats(&mut d)?,
                profile: StallProfile {
                    compute_ns: d.u64()?,
                    wait_ns: d.u64()?,
                    ingest_ns: d.u64()?,
                    flush_ns: d.u64()?,
                },
                trace: d.blob()?.to_vec(),
            })),
            11 => CtrlMsg::PeerHello { from: d.u32()? },
            12 => CtrlMsg::Heartbeat { cycle: d.u64()? },
            13 => CtrlMsg::Checkpoint {
                cycle: d.u64()?,
                data: d.blob()?.to_vec(),
            },
            14 => {
                let blob = d.blob()?;
                let mut cursor = blob;
                CtrlMsg::Telemetry {
                    sample: Box::new(TelemetrySample::decode_from(&mut cursor)?),
                }
            }
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad control tag {t}"),
                ))
            }
        })
    }
}

/// The hello every worker opens with; `advertise` is empty for locally
/// spawned workers and `host:port` for host-list (remote) workers, and
/// `nonce` must echo the coordinator's run nonce.
pub fn hello(advertise: &str, nonce: u64) -> CtrlMsg {
    CtrlMsg::Hello {
        version: WIRE_VERSION,
        advertise: advertise.to_string(),
        nonce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DistWorkload;
    use hornet_net::stats::FlowRecord;

    /// One message of every variant, with non-default payloads.
    fn every_variant() -> Vec<CtrlMsg> {
        let mut stats = NetworkStats::new();
        stats.delivered_packets = 12;
        stats.total_packet_latency = 345;
        stats.latency_histogram = vec![0, 3, 9];
        for (id, packets) in [(9, 4), (2, 8), (40, 1)] {
            let rec = FlowRecord {
                packets,
                flits: 4 * packets,
                total_packet_latency: 30 * packets,
            };
            stats.per_flow.insert(id, rec);
        }
        vec![
            hello("node7.cluster:9101", 0xfeed_beef_dead_cafe),
            CtrlMsg::Assign {
                shard: 2,
                shards: 4,
                spec: Box::new(DistSpec {
                    workload: DistWorkload::MemVectorSum {
                        base_stride: 0x1_0000,
                        count: 8,
                    },
                    checkpoint_every: Some(250),
                    trace_capacity: Some(4096),
                    ..DistSpec::default()
                }),
                transport: TransportKind::UnixSocket,
                listen: "/tmp/x.sock".into(),
                resume: Some(vec![1, 2, 3]),
            },
            CtrlMsg::Listening {
                addr: "127.0.0.1:4000".into(),
            },
            CtrlMsg::PeerMap {
                entries: vec![
                    (0, 1, "/tmp/data-0.sock".into()),
                    (1, 2, "/dev/shm/seg-1-2.shm".into()),
                ],
            },
            CtrlMsg::Start,
            CtrlMsg::Probe { round: 7 },
            CtrlMsg::Ledger {
                round: 7,
                version: 42,
                state: LedgerState {
                    busy: 3,
                    finished: true,
                    next_event: u64::MAX,
                    sent: 100,
                    recv: 99,
                    cycle: 500,
                },
            },
            CtrlMsg::Skip { target: 999 },
            CtrlMsg::Stop,
            CtrlMsg::Done(Box::new(ShardReport {
                final_now: 800,
                completed: true,
                stats,
                profile: StallProfile {
                    compute_ns: 1,
                    wait_ns: 2,
                    ingest_ns: 3,
                    flush_ns: 4,
                },
                trace: vec![7; 32],
            })),
            CtrlMsg::PeerHello { from: 3 },
            CtrlMsg::Heartbeat { cycle: 1234 },
            CtrlMsg::Checkpoint {
                cycle: 512,
                data: vec![9; 64],
            },
            CtrlMsg::Telemetry {
                sample: Box::new(TelemetrySample {
                    shard: 3,
                    cycle: 4096,
                    received: 17,
                    busy: 900,
                    delivered_packets: 10,
                    delivered_flits: 40,
                    injected_flits: 44,
                    buffered_flits: 4,
                    profile: StallProfile {
                        compute_ns: 5,
                        wait_ns: 6,
                        ingest_ns: 7,
                        flush_ns: 8,
                    },
                    metrics: vec![("batch_wait_ns.count".into(), 12)],
                }),
            },
        ]
    }

    /// Which variant `msg` is. Exhaustive, so a new variant fails to compile
    /// here until [`every_variant`] covers it too.
    fn variant(msg: &CtrlMsg) -> usize {
        match msg {
            CtrlMsg::Hello { .. } => 0,
            CtrlMsg::Assign { .. } => 1,
            CtrlMsg::Listening { .. } => 2,
            CtrlMsg::PeerMap { .. } => 3,
            CtrlMsg::Start => 4,
            CtrlMsg::Probe { .. } => 5,
            CtrlMsg::Ledger { .. } => 6,
            CtrlMsg::Skip { .. } => 7,
            CtrlMsg::Stop => 8,
            CtrlMsg::Done(_) => 9,
            CtrlMsg::PeerHello { .. } => 10,
            CtrlMsg::Heartbeat { .. } => 11,
            CtrlMsg::Checkpoint { .. } => 12,
            CtrlMsg::Telemetry { .. } => 13,
        }
    }

    #[test]
    fn control_messages_round_trip() {
        let msgs = every_variant();
        let mut seen: Vec<usize> = msgs.iter().map(variant).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..14).collect::<Vec<_>>(), "one message per variant");
        for msg in msgs {
            let bytes = msg.encode();
            let back = CtrlMsg::decode(&bytes).unwrap();
            assert_eq!(back.encode(), bytes, "{msg:?}");
        }
    }

    #[test]
    fn hostile_bytes_decode_to_a_result() {
        for msg in every_variant() {
            let bytes = msg.encode();
            for len in 0..bytes.len() {
                let _ = CtrlMsg::decode(&bytes[..len]);
            }
            let mut flipped = bytes.clone();
            for i in 0..flipped.len() {
                for mask in [0x01, 0x80, 0xff] {
                    flipped[i] ^= mask;
                    let _ = CtrlMsg::decode(&flipped);
                    flipped[i] ^= mask;
                }
            }
        }
    }
}
