//! # hornet-obs
//!
//! The observability substrate of HORNET-RS, deliberately placed *below*
//! `hornet-net` in the crate graph so every layer — router pipeline, shard
//! driver, distributed coordinator — can emit into the same primitives
//! without dependency cycles:
//!
//! * [`metrics`] — a lock-free, shard-local registry of named counters,
//!   gauges and log₂ histograms. Registration takes a lock once; every
//!   subsequent update is a single relaxed atomic op on a pre-resolved
//!   handle, so instrumented hot paths stay wait-free. The `CycleDriver`
//!   samples the registry periodically into [`metrics::TelemetrySample`]s,
//!   which the distributed backend ships to the coordinator as
//!   `CtrlMsg::Telemetry` (wire v4) and aggregates into a live NDJSON
//!   stream. The aggregations over samples live here too: log₂-histogram
//!   quantiles, the newest-histogram-per-shard merge, max/mean imbalance.
//! * [`trace`] — cycle-stamped structured event tracing into fixed-capacity
//!   ring buffers ([`trace::TraceRing`]): flit inject/route/eject lifecycle,
//!   slack-wait begin/end, checkpoint capture/commit, worker
//!   loss/rollback/respawn. Events are fixed-size `Copy` records; recording
//!   never allocates, and a tile with no ring attached pays one branch.
//!   Rings drop-newest when full and count every drop — truncation can lose
//!   events but never the fact that events were lost. Dumps export as JSONL
//!   or Chrome `trace_event` JSON (speedscope / perfetto / `chrome://tracing`).
//! * [`profile`] — wall-time stall attribution for the shard driver's cycle
//!   loop: compute vs. slack-wait vs. ingest vs. flush, the causal
//!   breakdown behind `ShardSummary::load_imbalance()`.
//! * [`log`] — leveled structured logging (`HORNET_LOG=debug|info|warn|off`)
//!   in logfmt style, replacing ad-hoc `eprintln!` supervision messages with
//!   machine-parseable, shard- and cycle-tagged lines.
//! * [`alert`] — rising-edge threshold alerting over the telemetry stream:
//!   stall fraction and load imbalance (where did the wall time go?),
//!   no-progress (is the run alive?), trace drops.
//! * [`json`] — the one JSON writer every emitted document goes through,
//!   and the one depth-bounded reader.
//! * [`serve`] — the embedded live-introspection control plane: a
//!   dependency-free HTTP/1.1 server over `std::net::TcpListener` exposing
//!   `/healthz`, `/status`, `/metrics` (Prometheus text exposition),
//!   `/trace?since_cycle=N` and `/alerts` from a shared [`serve::ObsHub`],
//!   plus the matching hand-rolled client and the exposition-format linter.

pub mod alert;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod serve;
pub mod trace;
