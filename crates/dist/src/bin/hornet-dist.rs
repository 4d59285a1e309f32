//! The distributed simulation host binary.
//!
//! ```text
//! hornet-dist host --workers 4 --transport unix --mesh 16x16 \
//!     --pattern transpose --rate 0.05 --cycles 10000 [--sync ca|slack:K|periodic:N]
//! hornet-dist host --workers 4 --to-completion 1000000 --max-packets 50 --fast-forward
//! hornet-dist host --workers 4 --workload vsum:8 --to-completion 400000
//!
//! # Cross-machine (host-list) mode: start one worker per machine first,
//! # then point the coordinator at their data-plane addresses:
//! hornet-dist worker --connect coord:9100 --family tcp --advertise node1:9101
//! hornet-dist host --workers node1:9101,node2:9101 --listen 0.0.0.0:9100 ...
//!
//! hornet-dist worker --connect ADDR --family unix|tcp     (internal)
//! ```
//!
//! `host` partitions the mesh, spawns N copies of this binary in `worker`
//! mode (or waits for the listed remote workers), wires the cut links onto
//! the chosen transport, runs the workload and prints the merged report
//! (optionally as JSON with `--json`). With `--http ADDR` the coordinator
//! additionally serves `/healthz`, `/status`, `/metrics`, `/trace` and
//! `/alerts` for the duration of the run; `watch` renders a live per-shard
//! table from any such endpoint, and `lint-prom` validates a scraped
//! Prometheus exposition.

use hornet_dist::spec::{DistSpec, DistSync, DistWorkload, RunKind};
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use hornet_obs::json::Json;
use hornet_obs::metrics::{max_over_mean, TelemetrySample};
use hornet_obs::serve::{http_get, lint_prometheus};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hornet-dist host [--workers N | --workers h1:p,h2:p,...] [--listen ADDR]\n    \
         [--transport unix|tcp|shm] [--mesh WxH]\n    \
         [--workload synthetic|vsum:COUNT|tokenring]\n    \
         [--pattern transpose|uniform|bitcomp|shuffle|tornado|neighbor] [--rate F]\n    \
         [--cycles N | --to-completion MAX] [--packet-len N] [--max-packets N]\n    \
         [--seed N] [--sync ca|slack:K|periodic:N] [--fast-forward]\n    \
         [--checkpoint-every N] [--max-restarts N]\n    \
         [--metrics-out FILE] [--metrics-every N] [--trace CAPACITY] [--trace-out FILE]\n    \
         [--http ADDR] [--json] [--verbose]\n  \
         hornet-dist worker --connect ADDR --family unix|tcp [--advertise HOST:PORT]\n    \
         [--nonce N]\n  \
         hornet-dist watch --http ADDR [--interval MS] [--iterations N]\n  \
         hornet-dist lint-prom FILE\n  \
         hornet-dist validate-metrics FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("host") => host(&args[1..]),
        Some("watch") => watch(&args[1..]),
        Some("lint-prom") => lint_prom(&args[1..]),
        Some("validate-metrics") => validate_metrics(&args[1..]),
        _ => usage(),
    }
}

/// Validates a scraped `/metrics` payload against the Prometheus text
/// exposition format.
fn lint_prom(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lint-prom: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match lint_prometheus(&text) {
        Ok(()) => {
            println!("{path}: exposition ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lint-prom: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Polls a coordinator's (or in-process engine's) `/status` endpoint and
/// renders a live per-shard table. `--iterations 0` polls until the server
/// goes away.
fn watch(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut interval_ms = 1_000u64;
    let mut iterations = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--http" => addr = Some(next()),
            "--interval" => interval_ms = next().parse().unwrap_or(1_000),
            "--iterations" => iterations = next().parse().unwrap_or(0),
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        return usage();
    };
    let mut done = 0u64;
    loop {
        let status = match http_get(&addr, "/status") {
            Ok((200, body)) => body,
            Ok((code, _)) => {
                eprintln!("watch: {addr}/status returned {code}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                if done > 0 {
                    // The run ended and took the server with it.
                    println!("watch: {addr} gone ({e}); run over");
                    return ExitCode::SUCCESS;
                }
                eprintln!("watch: cannot reach {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match Json::parse(&status) {
            Ok(doc) => print_status_table(&addr, &doc),
            Err(e) => {
                eprintln!("watch: bad /status payload: {e}");
                return ExitCode::FAILURE;
            }
        }
        done += 1;
        if iterations > 0 && done >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `watch` frame: headline gauges, then one row per reporting shard.
fn print_status_table(addr: &str, doc: &Json) {
    let num = |j: Option<&Json>| j.and_then(Json::as_f64);
    let uptime_s = num(doc.get("uptime_ms")).unwrap_or(0.0) / 1e3;
    let alerts = num(doc.get("alerts").and_then(|a| a.get("active"))).unwrap_or(0.0);
    let imbalance = num(doc.get("load_imbalance"));
    print!("\x1b[H\x1b[2J"); // home + clear: repaint in place
    print!("{addr} | up {uptime_s:.0}s | active alerts {alerts:.0}");
    if let Some(i) = imbalance {
        print!(" | imbalance {i:.3}");
    }
    if let Some(lat) = doc.get("latency") {
        if let (Some(p50), Some(p95), Some(p99)) = (
            num(lat.get("p50")),
            num(lat.get("p95")),
            num(lat.get("p99")),
        ) {
            print!(" | latency p50 {p50:.1} p95 {p95:.1} p99 {p99:.1}");
        }
    }
    println!();
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>10} {:>8} {:>7}",
        "shard", "cycle", "cycles/sec", "delivered", "buffered", "wait%", "age_ms"
    );
    let Some(shards) = doc.get("shards").and_then(Json::as_array) else {
        return;
    };
    for s in shards {
        let cps =
            num(s.get("cycles_per_sec")).map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
        // `/status` already reports each phase as a fraction of the total.
        let wait = num(s.get("stall").and_then(|st| st.get("wait")))
            .map_or_else(|| "-".to_string(), |w| format!("{:.1}", w * 100.0));
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>10} {:>8} {:>7}",
            num(s.get("shard")).unwrap_or(-1.0) as i64,
            num(s.get("cycle")).unwrap_or(0.0) as u64,
            cps,
            num(s.get("delivered_packets")).unwrap_or(0.0) as u64,
            num(s.get("buffered_flits")).unwrap_or(0.0) as u64,
            wait,
            num(s.get("age_ms")).unwrap_or(0.0) as u64,
        );
    }
}

/// Checks every line of an NDJSON metrics stream against the telemetry
/// schema; prints a per-file verdict and fails on the first bad line.
fn validate_metrics(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-metrics: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut n = 0usize;
    let mut summaries = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let verdict = Json::parse(line)
            .map_err(|e| format!("line is not JSON: {e}"))
            .and_then(|doc| match doc.get("summary") {
                // Summary records (flushed on rollback/abort and at the end
                // of the run) are JSON objects too, but not telemetry samples.
                Some(Json::Bool(true)) => Ok(true),
                _ => TelemetrySample::validate_ndjson(&doc).map(|()| false),
            });
        match verdict {
            Ok(true) => summaries += 1,
            Ok(false) => n += 1,
            Err(e) => {
                eprintln!("validate-metrics: {path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{path}: {n} samples, {summaries} summary records, schema ok");
    ExitCode::SUCCESS
}

fn worker(args: &[String]) -> ExitCode {
    let mut connect = None;
    let mut family = "unix".to_string();
    let mut advertise: Option<String> = None;
    let mut nonce = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--family" => {
                if let Some(f) = it.next() {
                    family = f.clone();
                }
            }
            "--advertise" => advertise = it.next().cloned(),
            "--nonce" => {
                nonce = it.next().and_then(|n| n.parse().ok()).unwrap_or_default();
            }
            _ => return usage(),
        }
    }
    let Some(connect) = connect else {
        return usage();
    };
    match hornet_dist::worker::worker_main(&connect, &family, advertise.as_deref(), nonce) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[worker] error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn host(args: &[String]) -> ExitCode {
    let mut spec = DistSpec {
        width: 16,
        height: 16,
        run: RunKind::Cycles(10_000),
        ..DistSpec::default()
    };
    let mut opts = HostOptions {
        workers: 4,
        ..HostOptions::default()
    };
    let mut as_json = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_every: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--workers" => {
                let w = next();
                if w.contains(':') {
                    // Host-list mode: pre-started workers at these
                    // data-plane addresses (forces the TCP transport).
                    opts.worker_hosts = Some(w.split(',').map(str::to_string).collect());
                } else {
                    opts.workers = w.parse().unwrap_or(4);
                }
            }
            "--listen" => opts.ctrl_listen = Some(next()),
            "--workload" => {
                let w = next();
                spec.workload = if w == "synthetic" {
                    DistWorkload::Synthetic
                } else if w == "tokenring" {
                    DistWorkload::CpuTokenRing
                } else if let Some(count) = w.strip_prefix("vsum:") {
                    DistWorkload::MemVectorSum {
                        base_stride: 0x1_0000,
                        count: count.parse().unwrap_or(8),
                    }
                } else {
                    return usage();
                };
            }
            "--transport" => {
                let t = next();
                match TransportKind::parse(&t) {
                    Some(k) => opts.transport = k,
                    None => return usage(),
                }
            }
            "--mesh" => {
                let m = next();
                let Some((w, h)) = m.split_once('x') else {
                    return usage();
                };
                let (Ok(w), Ok(h)) = (w.parse(), h.parse()) else {
                    return usage();
                };
                (spec.width, spec.height) = (w, h);
            }
            "--pattern" => {
                spec.pattern = match next().as_str() {
                    "transpose" => SyntheticPattern::Transpose,
                    "uniform" => SyntheticPattern::UniformRandom,
                    "bitcomp" => SyntheticPattern::BitComplement,
                    "shuffle" => SyntheticPattern::Shuffle,
                    "tornado" => SyntheticPattern::Tornado,
                    "neighbor" => SyntheticPattern::NearestNeighbor,
                    _ => return usage(),
                }
            }
            "--rate" => {
                spec.process = InjectionProcess::Bernoulli {
                    rate: next().parse().unwrap_or(0.05),
                }
            }
            "--cycles" => spec.run = RunKind::Cycles(next().parse().unwrap_or(10_000)),
            "--to-completion" => {
                spec.run = RunKind::ToCompletion {
                    max: next().parse().unwrap_or(1_000_000),
                }
            }
            "--packet-len" => spec.packet_len = next().parse().unwrap_or(4),
            "--max-packets" => spec.max_packets = next().parse().ok(),
            "--seed" => spec.seed = next().parse().unwrap_or(1),
            "--sync" => {
                let s = next();
                let parsed = if s == "ca" {
                    Some(DistSync::CycleAccurate)
                } else if let Some(k) = s.strip_prefix("slack:") {
                    k.parse().ok().map(DistSync::Slack)
                } else if let Some(n) = s.strip_prefix("periodic:") {
                    n.parse().ok().map(DistSync::Periodic)
                } else {
                    None
                };
                let Some(sync) = parsed else {
                    return usage();
                };
                spec.sync = sync;
            }
            "--fast-forward" => spec.fast_forward = true,
            "--checkpoint-every" => spec.checkpoint_every = next().parse().ok(),
            "--max-restarts" => opts.max_restarts = next().parse().unwrap_or(2),
            "--metrics-out" => opts.metrics_out = Some(next().into()),
            "--metrics-every" => metrics_every = next().parse().ok(),
            "--http" => opts.http = Some(next()),
            "--trace" => spec.trace_capacity = next().parse().ok(),
            "--trace-out" => trace_out = Some(next()),
            "--json" => as_json = true,
            "--verbose" => opts.verbose = true,
            _ => return usage(),
        }
    }
    // `--metrics-out` or `--http` alone implies the default sampling period
    // (a live endpoint with no telemetry would have nothing to show); a
    // capacity for `--trace-out` likewise.
    if opts.metrics_out.is_some() || metrics_every.is_some() || opts.http.is_some() {
        spec.telemetry_every = Some(metrics_every.unwrap_or(1_000));
    }
    if trace_out.is_some() && spec.trace_capacity.is_none() {
        spec.trace_capacity = Some(65_536);
    }

    if let Err(e) = spec.validate() {
        eprintln!("[host] {e}");
        return usage();
    }

    let start = std::time::Instant::now();
    match run_distributed(&spec, &opts) {
        Ok(outcome) => {
            let secs = start.elapsed().as_secs_f64();
            let cps = outcome.final_cycle as f64 / secs.max(1e-9);
            if let Some(path) = &trace_out {
                let mut trace = outcome.trace.clone();
                trace.canonicalize();
                if let Err(e) = std::fs::write(path, trace.to_chrome_trace()) {
                    eprintln!("[host] cannot write trace to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if as_json {
                println!("{}", outcome.summary_json(cps));
            } else {
                println!(
                    "mesh {}x{} | {} shards ({:?}) | {} cut links | sync {}",
                    spec.width,
                    spec.height,
                    outcome.shards,
                    opts.transport,
                    outcome.cut_links,
                    spec.sync.label()
                );
                println!(
                    "cycle {} | {} packets delivered | avg latency {:.2} | {:.0} cycles/sec",
                    outcome.final_cycle,
                    outcome.stats.delivered_packets,
                    outcome.stats.avg_packet_latency(),
                    cps
                );
                // Per-shard progress/imbalance summary with the causal
                // breakdown from the workers' stall profiles.
                let busy: Vec<u64> = outcome.per_shard.iter().map(|s| s.busy_cycles).collect();
                println!(
                    "load imbalance {:.3} (busiest shard / average)",
                    max_over_mean(&busy)
                );
                for (i, p) in outcome.per_shard_profiles.iter().enumerate() {
                    println!(
                        "  shard {i}: {} delivered | {} ({:.1} ms attributed)",
                        outcome.per_shard[i].delivered_packets,
                        p.summary(),
                        p.total_ns() as f64 / 1e6
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[host] error: {e}");
            ExitCode::FAILURE
        }
    }
}
