//! # hornet-dist
//!
//! The distributed execution backend of HORNET-RS: shards of the simulated
//! system hosted in separate OS processes (and, via TCP, separate machines),
//! communicating over one data plane of cycle frames, with credit-counting
//! distributed termination detection instead of any global barrier.
//!
//! The pieces:
//!
//! * [`transport`] — the one cross-process data plane: the
//!   [`BoundaryTransport`](transport::BoundaryTransport) trait for one shard
//!   adjacency's cut-link channel (flits forward, credits backward, payloads
//!   with their tail flits, negedge progress alongside) and its one
//!   implementation, length-prefixed cycle frames over a byte pipe, which is
//!   a Unix/TCP socket or two byte rings in a shared-memory segment
//!   ([`shm`]). Shards on threads of one process need no transport: that is
//!   the thread host, `hornet_shard::ShardRuntime`, the one in-process host
//!   (this crate's tests use it as their thread reference);
//! * [`wiring`] — the spec's partition and cut set, and `build_shard`:
//!   every worker builds only its own shard's tiles and wires them with
//!   `hornet_shard::wiring::wire_shards`, the thread host's routine, whose
//!   canonical channel order doubles as the wire addressing scheme;
//! * [`worker`] — a thin host around the **unified**
//!   [`hornet_shard::driver::CycleDriver`] (the per-cycle shard protocol has
//!   exactly one implementation, shared with the thread host) and the
//!   worker process entry point;
//! * [`host`] — the coordinator: spawns workers (or, in host-list mode,
//!   waits for pre-started remote ones), runs the topology-aware
//!   partitioner, ships each worker the spec, wires the data plane, and
//!   drives probe-round credit-counting termination
//!   ([`hornet_shard::termination`]), acting on an idle verdict with the
//!   thread host's decision (`hornet_shard::termination::decide`);
//! * [`spec`] / [`protocol`] / [`wire`] — the workload description and the
//!   byte-level control/data protocol.
//!
//! In `CycleAccurate` (or `Slack(0)`) mode a distributed run is bit-identical
//! to the sequential simulation of the same spec — same packet count, same
//! latency totals, same log₂ latency histogram — because flits carry their
//! visibility stamps and the transport upholds the same delivery contract
//! as the in-process mailboxes; under a loose sync window it reproduces the
//! thread host's run of the spec. Packet *payloads* are first-class boundary
//! traffic: transports claim a packet's payload when its tail flit leaves
//! for another process and re-deposit it on arrival, which is what lets the
//! memory-hierarchy and CPU workloads ([`spec::DistWorkload`]) run
//! distributed with the same bit-identity guarantee.

pub mod host;
pub mod protocol;
pub mod shm;
pub mod spec;
pub mod transport;
pub mod wire;
pub mod wiring;
pub mod worker;

pub use host::{run_distributed, DistOutcome, HostOptions};
pub use protocol::TransportKind;
pub use spec::{DistSpec, DistSync, DistWorkload, RunKind};
pub use transport::{BoundaryTransport, FrameTransport, SocketTransport, TransportSet};
