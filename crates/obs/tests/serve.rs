//! Integration test of the embedded live-introspection server: a real
//! `ObsServer` over a real TCP socket, fed by a producer thread while
//! several scraper threads hammer every endpoint — the concurrent-access
//! pattern a run with `--http` actually sees. Every scraped `/status`
//! parses and every `/metrics` passes the exposition linter; the byte-level
//! contract of each document is pinned in `golden.rs`.

use hornet_obs::json::Json;
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::profile::StallProfile;
use hornet_obs::serve::{http_get, lint_prometheus, ObsHub, ObsServer};
use hornet_obs::trace::{TraceEvent, TraceKind};
use std::sync::Arc;

/// A plausible shard sample at `cycle`, with a registry-flattened
/// `packet_latency` log₂ histogram riding in the metrics pairs.
fn sample(shard: u32, cycle: u64) -> TelemetrySample {
    TelemetrySample {
        shard,
        cycle,
        received: cycle * 2,
        busy: 7,
        delivered_packets: cycle / 2,
        delivered_flits: cycle * 2,
        injected_flits: cycle * 2 + 7,
        buffered_flits: 7,
        profile: StallProfile {
            compute_ns: 80_000 + u64::from(shard) * 1_000,
            wait_ns: 15_000,
            ingest_ns: 3_000,
            flush_ns: 2_000,
        },
        metrics: vec![
            ("packet_latency_count".to_string(), cycle / 2),
            ("packet_latency_b3".to_string(), cycle / 4),
            ("packet_latency_b4".to_string(), cycle / 2 - cycle / 4),
            ("trace_dropped".to_string(), 0),
            ("router_xbar_grants".to_string(), cycle * 3),
        ],
    }
}

#[test]
fn concurrent_scrapes_during_ingest_stay_well_formed() {
    let hub = Arc::new(ObsHub::new());
    hub.set_gauge("shards", 2);
    let mut server = ObsServer::spawn("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
    let addr = server.addr().to_string();

    // Producer: streams samples and trace events into the hub, exactly like
    // a coordinator absorbing telemetry mid-run.
    let producer = {
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || {
            for cycle in (100..5_000u64).step_by(100) {
                for shard in 0..2u32 {
                    hub.ingest(&sample(shard, cycle));
                }
                hub.record_trace(TraceEvent {
                    cycle,
                    node: 0,
                    kind: TraceKind::FlitInject,
                    a: cycle,
                    b: 0,
                });
            }
        })
    };

    // Scrapers: every endpoint, in parallel, while the producer writes.
    let scrapers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let (code, body) = http_get(&addr, "/status").expect("status");
                    assert_eq!(code, 200);
                    Json::parse(&body).expect("status parses");
                    let (code, body) = http_get(&addr, "/metrics").expect("metrics");
                    assert_eq!(code, 200);
                    lint_prometheus(&body).expect("exposition lints clean");
                    let (code, _) =
                        http_get(&addr, &format!("/trace?since_cycle={}", i * 500)).expect("trace");
                    assert_eq!(code, 200);
                    let (code, body) = http_get(&addr, "/healthz").expect("healthz");
                    assert_eq!(code, 200);
                    assert_eq!(body, "ok\n");
                }
            })
        })
        .collect();

    producer.join().expect("producer");
    for s in scrapers {
        s.join().expect("scraper");
    }
    server.shutdown();
}
