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
//!   protocol ([`CycleDriver`](driver::CycleDriver)): window gates and their
//!   flit/credit limits, fast-forward skip handling, ledger
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
//!   spawned once and reused across runs) executes the shards under
//!   *windowed* synchronization, pairwise instead of global.
//!
//! Every backend names its synchronization with the one [`SyncMode`], and
//! every mode is a window of `w` cycles ([`SyncMode::window`]):
//! `CycleAccurate` → 1, `Slack(k)` → `k + 1`, `Periodic(n)` → `n`. A shard
//! gates once per window, on its cut-link neighbors having finished the
//! window's first cycle `c0`, and for the whole window consumes exactly what
//! that gate guaranteed: flits stamped `≤ c0 + 1`, credits stamped `≤ c0`.
//! `w = 1` reproduces the sequential simulation bit-exactly; `w > 1` sees a
//! cut-link flit or credit 0 to `w − 1` cycles late — the paper's
//! accuracy/speed knob, as one defined model that every repeat and every
//! host (threads, Unix sockets, shared memory) simulates identically.

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
