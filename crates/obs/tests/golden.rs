//! Byte-exact goldens for every document `hornet-obs` emits: `/status`,
//! `/alerts`, `/trace?since_cycle=N`, `/metrics`, the trace dump's JSONL and
//! Chrome exports, and the telemetry NDJSON line. Only the wall-clock fields
//! (`uptime_ms`, `age_ms`, `cycles_per_sec`, `hornet_uptime_seconds`) are
//! masked; every other byte is pinned.

use hornet_obs::log::{set_max_level, Level};
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::profile::StallProfile;
use hornet_obs::serve::{lint_prometheus, ObsHub};
use hornet_obs::trace::{TraceDump, TraceEvent, TraceKind};

fn sample(shard: u32, cycle: u64) -> TelemetrySample {
    TelemetrySample {
        shard,
        cycle,
        received: 10 + u64::from(shard),
        busy: 1,
        delivered_packets: 5,
        delivered_flits: 20,
        injected_flits: 22,
        buffered_flits: 2,
        profile: StallProfile {
            compute_ns: 800 + 300 * u64::from(shard),
            wait_ns: 150,
            ingest_ns: 25,
            flush_ns: 25,
        },
        metrics: vec![
            ("packet_latency_count".to_string(), 5),
            ("packet_latency_b3".to_string(), 3),
            ("packet_latency_b5".to_string(), 2),
            ("trace_dropped".to_string(), 0),
            ("odd \"name\"\n".to_string(), 7),
        ],
    }
}

/// One event of every kind, runtime events on shard and run-wide tracks.
fn events() -> Vec<TraceEvent> {
    let ev = |cycle, node, kind, a, b| TraceEvent {
        cycle,
        node,
        kind,
        a,
        b,
    };
    vec![
        ev(10, 3, TraceKind::FlitInject, 7, 0),
        ev(11, 3, TraceKind::FlitRoute, 7, 2),
        ev(14, 4, TraceKind::FlitEject, 7, 0),
        ev(20, 1, TraceKind::SlackWaitBegin, 25, 0),
        ev(25, 1, TraceKind::SlackWaitEnd, 1_500, 25),
        ev(30, 0, TraceKind::CheckpointCapture, 0, 0),
        ev(30, u32::MAX, TraceKind::CheckpointCommit, 4_096, 0),
        ev(40, 1, TraceKind::WorkerLost, 0, 0),
        ev(30, u32::MAX, TraceKind::Rollback, 0, 0),
        ev(41, u32::MAX, TraceKind::Respawn, 1, 0),
    ]
}

/// A hub with two reporting shards (shard 0 twice: the newest sample wins),
/// two coordinator gauges, one firing of each rule that a sample can trip in
/// one step, and the trace events above.
fn hub() -> ObsHub {
    set_max_level(Level::Off);
    let hub = ObsHub::new();
    hub.set_gauge("restarts", 2);
    hub.set_gauge("committed cycle", 500);
    hub.ingest(&sample(0, 1_000));
    let mut slow = sample(1, 900);
    slow.profile.compute_ns = 5_000;
    slow.profile.wait_ns = 30_000;
    slow.metrics[3].1 = 4;
    hub.ingest(&slow);
    hub.ingest(&sample(0, 1_100));
    for e in events() {
        hub.record_trace(e);
    }
    hub
}

/// Replaces the value after each wall-clock JSON key with `#`.
fn mask_json(doc: &str) -> String {
    let mut out = doc.to_string();
    for key in ["\"uptime_ms\":", "\"age_ms\":", "\"cycles_per_sec\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let len = out[start..]
                .find([',', '}'])
                .expect("value is followed by a delimiter");
            out.replace_range(start..start + len, "#");
            from = start;
        }
    }
    out
}

/// Replaces the `hornet_uptime_seconds` sample value with `#`.
fn mask_prometheus(doc: &str) -> String {
    let key = "\nhornet_uptime_seconds ";
    let at = doc.find(key).expect("uptime sample") + key.len();
    let end = at + doc[at..].find('\n').expect("line end");
    format!("{}#{}", &doc[..at], &doc[end..])
}

#[test]
fn status_document_is_byte_stable() {
    assert_eq!(
        mask_json(&ObsHub::new().status_json()),
        r##"{"uptime_ms":#,"samples":0,"shards_reporting":0,"gauges":{},"latency":null,"load_imbalance":null,"alerts":{"active":0,"total":0},"shards":[]}"##
    );
    assert_eq!(
        mask_json(&hub().status_json()),
        r##"{"uptime_ms":#,"samples":3,"shards_reporting":2,"gauges":{"restarts":2,"committed cycle":500},"latency":{"count":10,"p50":14.7,"p95":60.0,"p99":63.2},"load_imbalance":1.7241,"alerts":{"active":3,"total":3},"shards":[{"shard":0,"cycle":1100,"age_ms":#,"cycles_per_sec":#,"received":10,"busy":1,"delivered_packets":5,"delivered_flits":20,"injected_flits":22,"buffered_flits":2,"stall":{"compute":0.8000,"wait":0.1500,"ingest":0.0250,"flush":0.0250}},{"shard":1,"cycle":900,"age_ms":#,"cycles_per_sec":#,"received":11,"busy":1,"delivered_packets":5,"delivered_flits":20,"injected_flits":22,"buffered_flits":2,"stall":{"compute":0.1427,"wait":0.8559,"ingest":0.0007,"flush":0.0007}}]}"##
    );
}

#[test]
fn alerts_document_is_byte_stable() {
    assert_eq!(
        hub().alerts_json(),
        r##"{"active":3,"total":3,"firings":[{"rule":"stall_fraction","shard":1,"cycle":900,"value":0.8559,"threshold":0.7500,"message":"shard spends 86% of wall time waiting"},{"rule":"trace_drops","shard":1,"cycle":900,"value":4.0000,"threshold":0.0000,"message":"trace ring dropped 4 events"},{"rule":"load_imbalance","shard":-1,"cycle":900,"value":1.7241,"threshold":1.5000,"message":"max/mean shard compute time is 1.72"}]}"##
    );
}

#[test]
fn trace_page_is_byte_stable() {
    assert_eq!(
        hub().trace_jsonl(25),
        r##"{"cycle":25,"node":1,"kind":"slack_wait_end","a":1500,"b":25}
{"cycle":30,"node":0,"kind":"checkpoint_capture","a":0,"b":0}
{"cycle":30,"node":4294967295,"kind":"checkpoint_commit","a":4096,"b":0}
{"cycle":40,"node":1,"kind":"worker_lost","a":0,"b":0}
{"cycle":30,"node":4294967295,"kind":"rollback","a":0,"b":0}
{"cycle":41,"node":4294967295,"kind":"respawn","a":1,"b":0}
{"events":6,"dropped":0}
"##
    );
}

#[test]
fn metrics_exposition_is_byte_stable() {
    let doc = hub().prometheus();
    lint_prometheus(&doc).expect("exposition lints clean");
    assert_eq!(
        mask_prometheus(&doc),
        r##"# HELP hornet_up Server liveness.
# TYPE hornet_up gauge
hornet_up 1
# HELP hornet_uptime_seconds Seconds since the hub started.
# TYPE hornet_uptime_seconds gauge
hornet_uptime_seconds #
# HELP hornet_samples_retained Telemetry samples in the history ring.
# TYPE hornet_samples_retained gauge
hornet_samples_retained 3
# HELP hornet_alerts_fired_total Rising-edge alert firings since start.
# TYPE hornet_alerts_fired_total counter
hornet_alerts_fired_total 3
# HELP hornet_alerts_active Alert conditions currently true.
# TYPE hornet_alerts_active gauge
hornet_alerts_active 3
# HELP hornet_restarts Coordinator gauge.
# TYPE hornet_restarts gauge
hornet_restarts 2
# HELP hornet_committed_cycle Coordinator gauge.
# TYPE hornet_committed_cycle gauge
hornet_committed_cycle 500
# HELP hornet_shard_cycle Latest per-shard sample field.
# TYPE hornet_shard_cycle gauge
hornet_shard_cycle{shard="0"} 1100
hornet_shard_cycle{shard="1"} 900
# HELP hornet_shard_received_flits Latest per-shard sample field.
# TYPE hornet_shard_received_flits gauge
hornet_shard_received_flits{shard="0"} 10
hornet_shard_received_flits{shard="1"} 11
# HELP hornet_shard_busy_flits Latest per-shard sample field.
# TYPE hornet_shard_busy_flits gauge
hornet_shard_busy_flits{shard="0"} 1
hornet_shard_busy_flits{shard="1"} 1
# HELP hornet_shard_delivered_packets Latest per-shard sample field.
# TYPE hornet_shard_delivered_packets gauge
hornet_shard_delivered_packets{shard="0"} 5
hornet_shard_delivered_packets{shard="1"} 5
# HELP hornet_shard_delivered_flits Latest per-shard sample field.
# TYPE hornet_shard_delivered_flits gauge
hornet_shard_delivered_flits{shard="0"} 20
hornet_shard_delivered_flits{shard="1"} 20
# HELP hornet_shard_injected_flits Latest per-shard sample field.
# TYPE hornet_shard_injected_flits gauge
hornet_shard_injected_flits{shard="0"} 22
hornet_shard_injected_flits{shard="1"} 22
# HELP hornet_shard_buffered_flits Latest per-shard sample field.
# TYPE hornet_shard_buffered_flits gauge
hornet_shard_buffered_flits{shard="0"} 2
hornet_shard_buffered_flits{shard="1"} 2
# HELP hornet_shard_stall_seconds Wall time attributed to each driver phase.
# TYPE hornet_shard_stall_seconds gauge
hornet_shard_stall_seconds{shard="0",phase="compute"} 0.000001
hornet_shard_stall_seconds{shard="0",phase="wait"} 0.000000
hornet_shard_stall_seconds{shard="0",phase="ingest"} 0.000000
hornet_shard_stall_seconds{shard="0",phase="flush"} 0.000000
hornet_shard_stall_seconds{shard="1",phase="compute"} 0.000005
hornet_shard_stall_seconds{shard="1",phase="wait"} 0.000030
hornet_shard_stall_seconds{shard="1",phase="ingest"} 0.000000
hornet_shard_stall_seconds{shard="1",phase="flush"} 0.000000
# HELP hornet_m_trace_dropped Shard registry metric.
# TYPE hornet_m_trace_dropped gauge
hornet_m_trace_dropped{shard="0"} 0
# HELP hornet_m_odd__name__ Shard registry metric.
# TYPE hornet_m_odd__name__ gauge
hornet_m_odd__name__{shard="0"} 7
hornet_m_trace_dropped{shard="1"} 4
hornet_m_odd__name__{shard="1"} 7
# HELP hornet_packet_latency Log2-bucketed histogram merged across shards.
# TYPE hornet_packet_latency histogram
hornet_packet_latency_bucket{le="2"} 0
hornet_packet_latency_bucket{le="4"} 0
hornet_packet_latency_bucket{le="8"} 0
hornet_packet_latency_bucket{le="16"} 6
hornet_packet_latency_bucket{le="32"} 6
hornet_packet_latency_bucket{le="64"} 10
hornet_packet_latency_bucket{le="128"} 10
hornet_packet_latency_bucket{le="256"} 10
hornet_packet_latency_bucket{le="512"} 10
hornet_packet_latency_bucket{le="1024"} 10
hornet_packet_latency_bucket{le="2048"} 10
hornet_packet_latency_bucket{le="4096"} 10
hornet_packet_latency_bucket{le="8192"} 10
hornet_packet_latency_bucket{le="16384"} 10
hornet_packet_latency_bucket{le="32768"} 10
hornet_packet_latency_bucket{le="65536"} 10
hornet_packet_latency_bucket{le="131072"} 10
hornet_packet_latency_bucket{le="262144"} 10
hornet_packet_latency_bucket{le="524288"} 10
hornet_packet_latency_bucket{le="1048576"} 10
hornet_packet_latency_bucket{le="2097152"} 10
hornet_packet_latency_bucket{le="4194304"} 10
hornet_packet_latency_bucket{le="8388608"} 10
hornet_packet_latency_bucket{le="16777216"} 10
hornet_packet_latency_bucket{le="33554432"} 10
hornet_packet_latency_bucket{le="67108864"} 10
hornet_packet_latency_bucket{le="134217728"} 10
hornet_packet_latency_bucket{le="268435456"} 10
hornet_packet_latency_bucket{le="536870912"} 10
hornet_packet_latency_bucket{le="1073741824"} 10
hornet_packet_latency_bucket{le="2147483648"} 10
hornet_packet_latency_bucket{le="4294967296"} 10
hornet_packet_latency_bucket{le="+Inf"} 10
hornet_packet_latency_count 10
# HELP hornet_packet_latency_p50 Estimated packet-latency quantile (cycles).
# TYPE hornet_packet_latency_p50 gauge
hornet_packet_latency_p50 14.7
# HELP hornet_packet_latency_p95 Estimated packet-latency quantile (cycles).
# TYPE hornet_packet_latency_p95 gauge
hornet_packet_latency_p95 60.0
# HELP hornet_packet_latency_p99 Estimated packet-latency quantile (cycles).
# TYPE hornet_packet_latency_p99 gauge
hornet_packet_latency_p99 63.2
"##
    );
}

#[test]
fn trace_dump_exports_are_byte_stable() {
    let dump = TraceDump {
        events: events(),
        dropped: 3,
    };
    assert_eq!(
        dump.to_jsonl(),
        r##"{"cycle":10,"node":3,"kind":"flit_inject","a":7,"b":0}
{"cycle":11,"node":3,"kind":"flit_route","a":7,"b":2}
{"cycle":14,"node":4,"kind":"flit_eject","a":7,"b":0}
{"cycle":20,"node":1,"kind":"slack_wait_begin","a":25,"b":0}
{"cycle":25,"node":1,"kind":"slack_wait_end","a":1500,"b":25}
{"cycle":30,"node":0,"kind":"checkpoint_capture","a":0,"b":0}
{"cycle":30,"node":4294967295,"kind":"checkpoint_commit","a":4096,"b":0}
{"cycle":40,"node":1,"kind":"worker_lost","a":0,"b":0}
{"cycle":30,"node":4294967295,"kind":"rollback","a":0,"b":0}
{"cycle":41,"node":4294967295,"kind":"respawn","a":1,"b":0}
{"events":10,"dropped":3}
"##
    );
    assert_eq!(
        dump.to_chrome_trace(),
        r##"{"displayTimeUnit":"ms","traceEvents":[{"name":"flit_inject","ph":"i","ts":10,"s":"t","pid":0,"tid":"tile-3","args":{"a":7,"b":0}},{"name":"flit_route","ph":"i","ts":11,"s":"t","pid":0,"tid":"tile-3","args":{"a":7,"b":2}},{"name":"flit_eject","ph":"i","ts":14,"s":"t","pid":0,"tid":"tile-4","args":{"a":7,"b":0}},{"name":"slack_wait_begin","ph":"i","ts":20,"s":"t","pid":0,"tid":"shard-1","args":{"a":25,"b":0}},{"name":"slack_wait_end","ph":"X","ts":25,"dur":1.500,"pid":0,"tid":"shard-1","args":{"a":1500,"b":25}},{"name":"checkpoint_capture","ph":"X","ts":30,"dur":0.001,"pid":0,"tid":"shard-0","args":{"a":0,"b":0}},{"name":"checkpoint_commit","ph":"i","ts":30,"s":"t","pid":0,"tid":"run","args":{"a":4096,"b":0}},{"name":"worker_lost","ph":"i","ts":40,"s":"t","pid":0,"tid":"shard-1","args":{"a":0,"b":0}},{"name":"rollback","ph":"i","ts":30,"s":"t","pid":0,"tid":"run","args":{"a":0,"b":0}},{"name":"respawn","ph":"i","ts":41,"s":"t","pid":0,"tid":"run","args":{"a":1,"b":0}}],"otherData":{"dropped":3,"events":10}}"##
    );
}

#[test]
fn telemetry_ndjson_is_byte_stable() {
    assert_eq!(
        sample(1, 900).to_ndjson(),
        r##"{"shard":1,"cycle":900,"received":11,"busy":1,"delivered_packets":5,"delivered_flits":20,"injected_flits":22,"buffered_flits":2,"compute_ns":1100,"wait_ns":150,"ingest_ns":25,"flush_ns":25,"metrics":{"packet_latency_count":5,"packet_latency_b3":3,"packet_latency_b5":2,"trace_dropped":0,"odd \"name\"\n":7}}"##
    );
}
