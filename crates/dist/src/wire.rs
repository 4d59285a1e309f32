//! The wire format of the distributed backend.
//!
//! The codec itself (little-endian primitives, frames, flit/packet/credit/
//! stats records) lives in [`hornet_net::codec`] so the per-crate snapshot
//! implementations can serialize through it without depending on this crate;
//! it is re-exported here under its historical name. This module keeps the
//! protocol version, which is a property of the coordinator↔worker protocol,
//! not of the codec.

pub use hornet_net::codec::{
    decode_credit, decode_flit, decode_packet, decode_stats, encode_credit, encode_flit,
    encode_packet, encode_stats, peek_frame, read_frame, write_frame, Dec, Enc, CREDIT_WIRE_BYTES,
    FLIT_WIRE_BYTES, MAX_FRAME_BYTES,
};

/// Protocol version, checked in every hello exchange.
/// v2: payload records in cycle frames, workload-bearing specs, host-list
/// hellos.
/// v3: handshake nonces, heartbeats, checkpoint shipping and resume-bearing
/// shard assignments (fault-tolerant supervision).
/// v4: periodic telemetry samples (`CtrlMsg::Telemetry`), stall profiles and
/// event-trace blobs in the final report, telemetry/trace knobs in the spec.
/// v5: one peer map for every medium (`CtrlMsg::PeerMap` carries one
/// endpoint per shard adjacency, sockets and shared memory alike), no
/// `Listening` from shared-memory workers, no heartbeat interval in
/// `Assign`.
pub const WIRE_VERSION: u32 = 5;
