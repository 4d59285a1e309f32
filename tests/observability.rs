//! Observability must not perturb the simulation, and the event trace must
//! itself be deterministic: with tracing, stall profiling and telemetry all
//! enabled, a cycle-accurate parallel run reports the *identical* network
//! statistics and the *identical* (canonicalized) flit-lifecycle trace as a
//! sequential run of the same seed. Also covers the report surface those
//! features feed: `SimReport::text`/`to_json`, the shard stall breakdown,
//! and the JSONL / Chrome exports of the trace.

use hornet::prelude::*;
use hornet::traffic::pattern::SyntheticPattern;
use hornet_obs::trace::{TraceDump, TraceKind};

/// Runs a 4×4 transpose workload with every observability feature on.
fn observed_run(threads: usize, seed: u64) -> hornet::sim::report::SimReport {
    SimulationBuilder::new()
        .geometry(Geometry::mesh2d(4, 4))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.04))
        .warmup_cycles(200)
        .measured_cycles(1_500)
        .threads(threads)
        .sync(SyncMode::CycleAccurate)
        .seed(seed)
        .trace_events(1 << 15)
        .profile_stalls(true)
        .telemetry_every(Some(250))
        .build()
        .expect("valid configuration")
        .run()
        .expect("runs")
}

/// The deterministic flit subset in canonical order; asserts nothing was
/// truncated so the comparison is meaningful.
fn canonical_flits(report: &hornet::sim::report::SimReport, what: &str) -> TraceDump {
    let dump = report.trace.as_ref().expect("tracing was enabled");
    assert_eq!(dump.dropped, 0, "{what}: ring must be large enough");
    dump.flit_events()
}

#[test]
fn traced_parallel_run_matches_sequential_stats_and_trace_bit_for_bit() {
    let seq = observed_run(1, 77);
    assert!(seq.network.delivered_packets > 0, "workload offers traffic");
    let seq_trace = canonical_flits(&seq, "sequential");
    assert!(!seq_trace.events.is_empty(), "flit events were recorded");

    for threads in [2usize, 4] {
        let par = observed_run(threads, 77);
        assert_eq!(
            seq.network, par.network,
            "{threads} threads: stats must be bit-identical with tracing on"
        );
        assert_eq!(
            seq_trace,
            canonical_flits(&par, "parallel"),
            "{threads} threads: canonical flit trace must be bit-identical"
        );
    }
}

/// The trace covers the full flit lifecycle, with injections and ejections
/// in balance (every delivered flit was first injected and traced as such).
#[test]
fn trace_covers_inject_route_eject_consistently() {
    let report = observed_run(1, 13);
    let trace = canonical_flits(&report, "lifecycle");
    let count = |kind: TraceKind| trace.events.iter().filter(|e| e.kind == kind).count() as u64;
    let injects = count(TraceKind::FlitInject);
    let ejects = count(TraceKind::FlitEject);
    assert_eq!(
        ejects, report.network.delivered_flits,
        "one eject event per delivered flit"
    );
    assert!(injects >= ejects, "cannot eject more than was injected");
    assert!(
        count(TraceKind::FlitRoute) > 0,
        "transpose traffic must traverse intermediate routers"
    );
    // Exports: JSONL ends with the unconditional summary line; the Chrome
    // export is one well-formed trace_event document.
    let jsonl = trace.to_jsonl();
    let last = jsonl.lines().last().expect("summary line");
    assert!(last.contains("\"dropped\":0"), "summary carries drop count");
    let chrome = report.trace.as_ref().unwrap().to_chrome_trace();
    assert!(chrome.starts_with('{') && chrome.ends_with('}'));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("tile-"));
}

/// Parallel runs with profiling and telemetry enabled populate the shard
/// summary's stall attribution and the sample stream.
#[test]
fn stall_profiles_and_telemetry_reach_the_report() {
    let report = observed_run(4, 5);
    let shard = report.shard.as_ref().expect("parallel run records shards");
    assert_eq!(shard.stalls.len(), shard.shards, "one profile per shard");
    assert!(
        shard.total_stalls().total_ns() > 0,
        "profiling must attribute wall time somewhere"
    );
    let breakdown = shard.stall_breakdown();
    assert!(
        breakdown.contains("shard 0:"),
        "per-shard lines: {breakdown}"
    );
    assert!(breakdown.contains("compute"), "named phases: {breakdown}");

    assert!(
        !report.samples.is_empty(),
        "telemetry samples were collected"
    );
    for s in &report.samples {
        hornet_obs::metrics::TelemetrySample::validate_ndjson_line(&s.to_ndjson())
            .expect("every sample must satisfy the NDJSON schema");
    }
}

/// The report's human and machine summaries carry the new throughput and
/// phase-time fields.
#[test]
fn report_text_and_json_expose_throughput_and_phase_times() {
    let report = observed_run(4, 5);
    let text = report.text();
    assert!(text.contains("cycles/sec"), "text: {text}");
    assert!(text.contains("wall clock: warmup"), "text: {text}");
    assert!(text.contains("load imbalance"), "text: {text}");

    let json = report.to_json();
    for key in [
        "\"cycles_per_sec\":",
        "\"wall_time_s\":",
        "\"warmup_wall_time_s\":",
        "\"load_imbalance\":",
        "\"stalls\":[",
        "\"compute_ns\":",
    ] {
        assert!(json.contains(key), "json must carry {key}: {json}");
    }
}

/// The live HTTP server is strictly read-only: a parallel run with the
/// server enabled and *scraped concurrently* (status, metrics, trace,
/// health — hammered in a loop for the whole run) produces bit-identical
/// network statistics and an identical canonical flit trace to a plain run
/// of the same seed, and the scrapes themselves return well-formed payloads.
#[test]
fn http_server_scraped_mid_run_keeps_results_bit_identical() {
    let plain = observed_run(4, 77);
    let plain_trace = canonical_flits(&plain, "plain");

    let sim = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(4, 4))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.04))
        .warmup_cycles(200)
        .measured_cycles(1_500)
        .threads(4)
        .sync(SyncMode::CycleAccurate)
        .seed(77)
        .trace_events(1 << 15)
        .profile_stalls(true)
        .telemetry_every(Some(250))
        .http_addr(Some("127.0.0.1:0".to_string()))
        .build()
        .expect("valid configuration");
    let addr = sim
        .http_local_addr()
        .expect("server is up before the run")
        .to_string();

    // Scrape every endpoint in a tight loop until the run tears the server
    // down; record how many full sweeps succeeded and that payloads were
    // well-formed whenever they answered.
    let scraper = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut sweeps = 0u64;
            loop {
                let mut ok = true;
                for path in ["/healthz", "/status", "/metrics", "/trace?since_cycle=0"] {
                    match hornet_obs::serve::http_get(&addr, path) {
                        Ok((200, body)) => {
                            if path == "/status" {
                                hornet_obs::json::Json::parse(&body).expect("status is JSON");
                            } else if path == "/metrics" {
                                hornet_obs::serve::lint_prometheus(&body)
                                    .expect("exposition lints clean");
                            }
                        }
                        Ok((code, _)) => panic!("{path} returned {code}"),
                        Err(_) => {
                            // Server gone: the run ended.
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    return sweeps;
                }
                sweeps += 1;
            }
        })
    };

    let scraped = sim.run().expect("runs with the server enabled");
    let sweeps = scraper.join().expect("scraper thread");
    assert!(sweeps > 0, "at least one full scrape sweep mid-run");
    assert_eq!(
        plain.network, scraped.network,
        "stats must be bit-identical with the server scraped mid-run"
    );
    assert_eq!(
        plain_trace,
        canonical_flits(&scraped, "scraped"),
        "canonical flit trace must be bit-identical under scraping"
    );
}

/// With tracing off (the default), the report carries no trace and stats are
/// unchanged relative to a traced run — observability is read-only.
#[test]
fn tracing_is_read_only_and_absent_by_default() {
    let plain = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(4, 4))
        .routing(RoutingKind::Xy)
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, 0.04))
        .warmup_cycles(200)
        .measured_cycles(1_500)
        .seed(77)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(plain.trace.is_none(), "no trace unless requested");
    assert!(plain.samples.is_empty(), "no samples unless requested");
    let traced = observed_run(1, 77);
    assert_eq!(
        plain.network, traced.network,
        "tracing must not change simulation results"
    );
}
