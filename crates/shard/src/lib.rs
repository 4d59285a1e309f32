//! # hornet-shard
//!
//! The sharded execution runtime of HORNET-RS: the layer that scales the
//! cycle-level simulation across host threads (and, through the
//! `hornet-dist` crate, across processes and machines) without a global
//! barrier.
//!
//! Six pieces compose the subsystem:
//!
//! * [`driver`] — the **one** implementation of the per-cycle shard
//!   protocol ([`CycleDriver`](driver::CycleDriver)): strict flit/credit
//!   limits, fast-forward skip handling, slack waits, ledger
//!   publish-on-change. Parameterized by a transport pump (shared atomics
//!   and rings for threads; cycle frames over a socket or shared-memory pipe
//!   for processes) and a payload channel (how packet payloads follow tail
//!   flits across a boundary), so the thread and distributed hosts are thin
//!   around the same loop and a protocol fix can never land in one only;
//! * [`partition`] — a topology-aware [`Partitioner`](partition::Partitioner)
//!   assigns band-aligned sub-mesh blocks of tiles to shards, oriented along
//!   whichever mesh axis yields the smaller cut set (rows on tall/square
//!   meshes, columns on wide ones), and reports the cut set;
//! * [`wiring`] — the one routine both hosts build shards with: it splits
//!   the tiles by partition and rewires every cut link onto lock-free SPSC
//!   flit/credit mailboxes ([`hornet_net::boundary`]), in the canonical
//!   channel order that doubles as the cross-process wire addressing;
//! * [`termination`] — credit-counting distributed termination detection:
//!   every flit handed to a boundary transport carries an implicit credit,
//!   and a detector declares quiescence only when all shards are idle *and*
//!   the credits balance, over a two-wave consistent ledger scan. This
//!   replaces the global rendezvous that fast-forward and
//!   `run_to_completion` used to need — there is no barrier anywhere in the
//!   runtime. One decision ([`termination::decide`]) turns an idle verdict
//!   into stop or fast-forward for both hosts' detectors;
//! * [`runtime`] — a persistent worker pool (one run queue per shard, threads
//!   spawned once and reused across runs)
//!   executes the shards under *slack-based synchronization*: a shard only
//!   waits until its cut-link neighbors are within `k` cycles, using the
//!   one-cycle link latency as conservative lookahead. `k = 0` with strict
//!   cycle-stamped mailbox consumption reproduces the sequential simulation
//!   bit-exactly; `k > 0` trades bounded timing skew for scaling, exactly the
//!   accuracy/speed knob of the paper's loose synchronization, but pairwise
//!   instead of global.
//!
//! Every backend names its synchronization with the one [`SyncMode`], which
//! the driver maps onto `(slack, quantum, strict)`: `CycleAccurate` →
//! `(0, 1, strict)`, `Slack(k)` → `(k, 1, k == 0)`, `Periodic(n)` →
//! `(0, n, n == 1)`.

pub mod driver;
pub mod partition;
pub mod runtime;
pub mod snapshot;
pub mod sys;
pub mod termination;
pub mod wiring;

pub use driver::{
    CheckpointSink, CycleDriver, DriveOutcome, DriverParams, NoPayloads, PayloadChannel, SyncMode,
    TransportPump, WaitProfile,
};
pub use partition::{CutOrientation, Partition, Partitioner};
pub use runtime::{RunOutcome, RunParams, ShardRuntime};
pub use snapshot::{restore_shard, snapshot_shard, LatestCheckpoint};
