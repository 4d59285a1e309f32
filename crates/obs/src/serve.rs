//! The embedded live-introspection control plane: a dependency-free
//! HTTP/1.1 server hand-rolled over `std::net::TcpListener` (matching the
//! repo's hand-rolled wire-codec idiom — no async runtime in the offline
//! image), serving read-only views of an [`ObsHub`]:
//!
//! * `GET /healthz` — liveness probe (`ok`);
//! * `GET /status`  — JSON: per-shard progress, cycles/sec over a sliding
//!   window, stall breakdown, load imbalance, merged latency quantiles,
//!   checkpoint/restart counters;
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4) rendered
//!   from the latest `MetricsRegistry` snapshots plus coordinator
//!   aggregates, with log₂ latency histograms merged across shards;
//! * `GET /trace?since_cycle=N` — recent runtime trace events as JSONL;
//! * `GET /alerts`  — rising-edge threshold-alert firings as JSON.
//!
//! The hub is strictly a *sink*: producers push copies of samples and
//! events in, HTTP handlers render snapshots out, and nothing ever flows
//! back into the simulation — which is how stats and flit traces stay
//! bit-identical with the server enabled. Also here: [`http_get`] (the
//! matching hand-rolled client used by `hornet-dist watch` and the tests)
//! and [`lint_prometheus`], the exposition-format linter CI runs over
//! scraped payloads. JSON is written and read by [`crate::json`].

use crate::alert::AlertEvaluator;
use crate::json;
use crate::metrics::{
    latency_quantiles, max_over_mean, merged_histogram, newest_per_shard, SampleField,
    TelemetrySample,
};
use crate::olog_info;
use crate::trace::{self, TraceEvent};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Sliding window for the `/status` cycles/sec estimate.
const RATE_WINDOW_MS: u64 = 5_000;

/// Telemetry samples the hub retains across all shards (drop-oldest: the
/// hub answers "what is happening now"; `--metrics-out` is the archive).
const SAMPLE_CAPACITY: usize = 2_048;

/// Runtime trace events the live buffer retains (drop-oldest, counted).
const TRACE_CAPACITY: usize = 4_096;

/// Everything the endpoints render, behind one mutex.
#[derive(Default)]
struct HubInner {
    /// Recent samples with their arrival time in milliseconds since the
    /// hub started, oldest first.
    samples: VecDeque<(u64, TelemetrySample)>,
    alerts: AlertEvaluator,
    trace: VecDeque<TraceEvent>,
    trace_dropped: u64,
    gauges: Vec<(String, u64)>,
}

impl HubInner {
    /// The newest retained sample of every shard, by shard id.
    fn latest(&self) -> Vec<&TelemetrySample> {
        newest_per_shard(self.samples.iter().map(|(_, s)| s))
    }

    /// Age at `now_ms` of `shard`'s newest sample, and the shard's simulated
    /// cycles per wall-clock second over the trailing [`RATE_WINDOW_MS`]
    /// (`None` until the window holds two samples separated by measurable
    /// wall time).
    fn timing(&self, shard: u32, now_ms: u64) -> (u64, Option<f64>) {
        let cutoff = now_ms.saturating_sub(RATE_WINDOW_MS);
        let mine = || self.samples.iter().filter(|(_, s)| s.shard == shard);
        let (last_at, last) = mine().next_back().expect("a reporting shard has a sample");
        let rate = mine()
            .find(|(at, _)| *at >= cutoff)
            .and_then(|(first_at, first)| {
                let dt_ms = last_at.saturating_sub(*first_at);
                (dt_ms > 0)
                    .then(|| last.cycle.saturating_sub(first.cycle) as f64 * 1000.0 / dt_ms as f64)
            });
        (now_ms.saturating_sub(*last_at), rate)
    }
}

/// The shared observation state an [`ObsServer`] serves: recent telemetry
/// samples, an alert evaluator, a bounded buffer of runtime trace events,
/// and named coordinator gauges (restarts, committed cycle, …).
///
/// Producers call [`ingest`](Self::ingest) / [`record_trace`](Self::record_trace)
/// / [`set_gauge`](Self::set_gauge); endpoint renderers only read. All
/// methods take `&self` — the hub is designed to be shared as an
/// `Arc<ObsHub>` between the simulation and the server threads.
pub struct ObsHub {
    started: Instant,
    inner: Mutex<HubInner>,
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (samples, events) = self
            .inner
            .lock()
            .map(|i| (i.samples.len(), i.trace.len()))
            .unwrap_or((0, 0));
        f.debug_struct("ObsHub")
            .field("samples", &samples)
            .field("trace_events", &events)
            .finish()
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// An empty hub retaining the newest 2 048 samples and 4 096 runtime
    /// trace events.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            inner: Mutex::default(),
        }
    }

    /// Milliseconds since the hub was created.
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().expect("obs hub poisoned")
    }

    /// Records one telemetry sample: retained (evicting the oldest when
    /// full) and fed through the alert evaluator.
    pub fn ingest(&self, sample: &TelemetrySample) {
        let at_ms = self.now_ms();
        let mut inner = self.lock();
        inner.alerts.observe(sample);
        if inner.samples.len() == SAMPLE_CAPACITY {
            inner.samples.pop_front();
        }
        inner.samples.push_back((at_ms, sample.clone()));
    }

    /// Records one runtime trace event into the live buffer (drop-oldest:
    /// the live view favors recency, unlike the deterministic
    /// [`TraceRing`](crate::trace::TraceRing), and counts what it evicts).
    pub fn record_trace(&self, ev: TraceEvent) {
        let mut inner = self.lock();
        if inner.trace.len() == TRACE_CAPACITY {
            inner.trace.pop_front();
            inner.trace_dropped += 1;
        }
        inner.trace.push_back(ev);
    }

    /// Sets (or creates) a named coordinator gauge — restart counts,
    /// committed checkpoint cycle, connected workers, and the like.
    pub fn set_gauge(&self, name: &str, v: u64) {
        let mut inner = self.lock();
        match inner.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = v,
            None => inner.gauges.push((name.to_string(), v)),
        }
    }

    /// The `/status` document.
    pub fn status_json(&self) -> String {
        let now_ms = self.now_ms();
        let inner = self.lock();
        let latest = inner.latest();
        // Run-wide load imbalance from the latest per-shard compute times.
        let computes: Vec<u64> = latest
            .iter()
            .map(|s| s.profile.compute_ns)
            .filter(|&c| c > 0)
            .collect();
        let mut s = String::with_capacity(1024);
        json::object(&mut s, |o| {
            o.u64("uptime_ms", now_ms)
                .u64("samples", inner.samples.len() as u64)
                .u64("shards_reporting", latest.len() as u64)
                .object("gauges", |g| {
                    for (name, v) in &inner.gauges {
                        g.u64(name, *v);
                    }
                });
            match merged_histogram(latest.iter().copied(), "packet_latency") {
                None => o.null("latency"),
                Some(h) => o.object("latency", |l| {
                    let [p50, p95, p99] = latency_quantiles(&h);
                    l.u64("count", h.iter().sum())
                        .f64("p50", p50, 1)
                        .f64("p95", p95, 1)
                        .f64("p99", p99, 1);
                }),
            };
            let imbalance = (computes.len() >= 2).then(|| max_over_mean(&computes));
            o.f64("load_imbalance", imbalance, 4)
                .object("alerts", |a| {
                    a.u64("active", inner.alerts.active() as u64)
                        .u64("total", inner.alerts.total_firings());
                })
                .array("shards", &latest, |r, sm| {
                    let (age_ms, rate) = inner.timing(sm.shard, now_ms);
                    r.u64("shard", u64::from(sm.shard))
                        .u64("cycle", sm.cycle)
                        .u64("age_ms", age_ms)
                        .f64("cycles_per_sec", rate, 1);
                    // The counters: every field but `shard`, `cycle` and the
                    // profile's `*_ns` (reported below as fractions).
                    for (key, get) in TelemetrySample::FIELDS {
                        if !matches!(key, "shard" | "cycle") && !key.ends_with("_ns") {
                            r.u64(key, get(sm));
                        }
                    }
                    r.object("stall", |st| {
                        let phases = ["compute", "wait", "ingest", "flush"];
                        for (phase, f) in phases.into_iter().zip(sm.profile.fractions()) {
                            st.f64(phase, f, 4);
                        }
                    });
                });
        });
        s
    }

    /// The `/alerts` document.
    pub fn alerts_json(&self) -> String {
        let inner = self.lock();
        let mut s = String::with_capacity(256);
        json::object(&mut s, |o| {
            o.u64("active", inner.alerts.active() as u64)
                .u64("total", inner.alerts.total_firings())
                .array("firings", inner.alerts.firings(), |j, f| {
                    let shard = if f.shard == u32::MAX {
                        -1
                    } else {
                        i64::from(f.shard)
                    };
                    j.str("rule", f.rule)
                        .i64("shard", shard)
                        .u64("cycle", f.cycle)
                        .f64("value", f.value, 4)
                        .f64("threshold", f.threshold, 4)
                        .str("message", &f.message);
                });
        });
        s
    }

    /// The `/trace` document: events at `cycle >= since_cycle` as JSONL,
    /// terminated by the unconditional summary line (same format as
    /// [`TraceDump::to_jsonl`](crate::trace::TraceDump::to_jsonl)).
    pub fn trace_jsonl(&self, since_cycle: u64) -> String {
        let inner = self.lock();
        trace::jsonl(
            inner.trace.iter().filter(|e| e.cycle >= since_cycle),
            inner.trace_dropped,
        )
    }

    /// The `/metrics` document (Prometheus text exposition, format 0.0.4).
    pub fn prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(4096);
        let decl = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        decl(&mut out, "hornet_up", "gauge", "Server liveness.");
        let _ = writeln!(out, "hornet_up 1");
        decl(
            &mut out,
            "hornet_uptime_seconds",
            "gauge",
            "Seconds since the hub started.",
        );
        let _ = writeln!(
            out,
            "hornet_uptime_seconds {:.3}",
            self.started.elapsed().as_secs_f64()
        );
        decl(
            &mut out,
            "hornet_samples_retained",
            "gauge",
            "Telemetry samples in the history ring.",
        );
        let _ = writeln!(out, "hornet_samples_retained {}", inner.samples.len());
        decl(
            &mut out,
            "hornet_alerts_fired_total",
            "counter",
            "Rising-edge alert firings since start.",
        );
        let _ = writeln!(
            out,
            "hornet_alerts_fired_total {}",
            inner.alerts.total_firings()
        );
        decl(
            &mut out,
            "hornet_alerts_active",
            "gauge",
            "Alert conditions currently true.",
        );
        let _ = writeln!(out, "hornet_alerts_active {}", inner.alerts.active());
        // Coordinator gauges.
        for (name, v) in &inner.gauges {
            let metric = format!("hornet_{}", sanitize_metric_name(name));
            decl(&mut out, &metric, "gauge", "Coordinator gauge.");
            let _ = writeln!(out, "{metric} {v}");
        }

        // Per-shard fixed fields from the latest sample of each shard.
        let latest = inner.latest();
        let fixed: [(&str, &str, SampleField); 7] = [
            ("hornet_shard_cycle", "gauge", |s| s.cycle),
            ("hornet_shard_received_flits", "gauge", |s| s.received),
            ("hornet_shard_busy_flits", "gauge", |s| s.busy),
            ("hornet_shard_delivered_packets", "gauge", |s| {
                s.delivered_packets
            }),
            ("hornet_shard_delivered_flits", "gauge", |s| {
                s.delivered_flits
            }),
            ("hornet_shard_injected_flits", "gauge", |s| s.injected_flits),
            ("hornet_shard_buffered_flits", "gauge", |s| s.buffered_flits),
        ];
        if !latest.is_empty() {
            for (name, kind, get) in fixed {
                decl(&mut out, name, kind, "Latest per-shard sample field.");
                for s in &latest {
                    let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", s.shard, get(s));
                }
            }
            decl(
                &mut out,
                "hornet_shard_stall_seconds",
                "gauge",
                "Wall time attributed to each driver phase.",
            );
            for s in &latest {
                let p = &s.profile;
                for (phase, ns) in [
                    ("compute", p.compute_ns),
                    ("wait", p.wait_ns),
                    ("ingest", p.ingest_ns),
                    ("flush", p.flush_ns),
                ] {
                    let _ = writeln!(
                        out,
                        "hornet_shard_stall_seconds{{shard=\"{}\",phase=\"{phase}\"}} {:.6}",
                        s.shard,
                        ns as f64 / 1e9
                    );
                }
            }
        }

        // Generic registry metrics: histogram families (a `<f>_count` key
        // with at least one `<f>_b<i>` bucket in the same sample) are merged
        // across shards and re-assembled into cumulative buckets; everything
        // else is exported per shard as a gauge.
        let mut families: Vec<String> = Vec::new();
        for s in &latest {
            for (name, _) in &s.metrics {
                if let Some((prefix, idx)) = name.rsplit_once("_b") {
                    if idx.parse::<usize>().is_ok()
                        && s.metrics
                            .iter()
                            .any(|(n, _)| *n == format!("{prefix}_count"))
                        && !families.iter().any(|f| f == prefix)
                    {
                        families.push(prefix.to_string());
                    }
                }
            }
        }
        let is_hist_part = |name: &str| {
            families.iter().any(|f| {
                name == format!("{f}_count")
                    || name
                        .strip_prefix(&format!("{f}_b"))
                        .is_some_and(|i| i.parse::<usize>().is_ok())
            })
        };
        let mut scalar_declared: Vec<String> = Vec::new();
        for s in &latest {
            for (name, v) in &s.metrics {
                if is_hist_part(name) {
                    continue;
                }
                let metric = format!("hornet_m_{}", sanitize_metric_name(name));
                if !scalar_declared.contains(&metric) {
                    decl(&mut out, &metric, "gauge", "Shard registry metric.");
                    scalar_declared.push(metric.clone());
                }
                let _ = writeln!(out, "{metric}{{shard=\"{}\"}} {v}", s.shard);
            }
        }
        for family in &families {
            let merged = merged_histogram(latest.iter().copied(), family).unwrap_or_default();
            let metric = format!("hornet_{}", sanitize_metric_name(family));
            decl(
                &mut out,
                &metric,
                "histogram",
                "Log2-bucketed histogram merged across shards.",
            );
            let mut cum = 0u64;
            for (i, &b) in merged.iter().enumerate() {
                cum += b;
                // Upper bound of log2 bucket i in the packet-latency
                // convention ([2^i, 2^(i+1))).
                let le = 1u64 << (i + 1).min(63);
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{metric}_count {cum}");
        }
        // Merged latency quantiles as plain gauges (PromQL-free p50/p95/p99).
        if let Some(h) = merged_histogram(latest.iter().copied(), "packet_latency") {
            let names = [
                "hornet_packet_latency_p50",
                "hornet_packet_latency_p95",
                "hornet_packet_latency_p99",
            ];
            for (name, q) in names.into_iter().zip(latency_quantiles(&h)) {
                decl(
                    &mut out,
                    name,
                    "gauge",
                    "Estimated packet-latency quantile (cycles).",
                );
                let _ = writeln!(out, "{name} {q:.1}");
            }
        }
        out
    }
}

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_`, prefixing a
/// leading digit — Prometheus metric-name charset.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A running HTTP server bound to a local address: blocking accept loop in
/// one named thread, one short-lived thread per connection (scrape cadence,
/// not serving cadence). [`shutdown`](Self::shutdown) (also on drop) stops
/// the loop by raising a flag and self-connecting to unblock `accept`.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port — see
    /// [`addr`](Self::addr)) and starts serving `hub`.
    ///
    /// # Errors
    ///
    /// The bind or thread-spawn failure.
    pub fn spawn(addr: &str, hub: Arc<ObsHub>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = thread::Builder::new()
            .name("hornet-obs-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let hub = hub.clone();
                    let _ = thread::Builder::new()
                        .name("hornet-obs-conn".into())
                        .spawn(move || handle_connection(stream, &hub));
                }
            })?;
        olog_info!("obs", { addr = local }, "observability server listening");
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request head, routes it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, hub: &ObsHub) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, ctype, body) = route(hub, method, target);
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Maps a request to `(status, content-type, body)`.
fn route(hub: &ObsHub, method: &str, target: &str) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const JSON: &str = "application/json";
    if method != "GET" {
        return (405, TEXT, "method not allowed\n".into());
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => (
            200,
            TEXT,
            "hornet observability endpoints: /healthz /status /metrics /trace?since_cycle=N /alerts\n"
                .into(),
        ),
        "/healthz" => (200, TEXT, "ok\n".into()),
        "/status" => (200, JSON, hub.status_json()),
        "/alerts" => (200, JSON, hub.alerts_json()),
        "/metrics" => (200, "text/plain; version=0.0.4", hub.prometheus()),
        "/trace" => {
            let mut since = 0u64;
            for pair in query.split('&') {
                if let Some(v) = pair.strip_prefix("since_cycle=") {
                    match v.parse() {
                        Ok(n) => since = n,
                        Err(_) => return (400, TEXT, "bad since_cycle\n".into()),
                    }
                }
            }
            (200, "application/x-ndjson", hub.trace_jsonl(since))
        }
        _ => (404, TEXT, "not found\n".into()),
    }
}

/// Minimal blocking HTTP/1.1 GET (the client half of the hand-rolled
/// protocol): returns `(status_code, body)`.
///
/// # Errors
///
/// Connection, timeout or malformed-response failures.
pub fn http_get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let body = text.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
    Ok((status, body))
}

/// Lints one Prometheus text-exposition document (the subset this crate
/// emits): every line is a `# HELP`, a `# TYPE`, or a sample; metric names
/// match the Prometheus charset; every sample belongs to a family with a
/// preceding `# TYPE`; for histogram families the `_bucket` series is
/// cumulative non-decreasing with a `+Inf` bucket equal to `_count`.
///
/// # Errors
///
/// A description of the first violation, with its line number.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, String)> = Vec::new(); // (family, kind)
                                                       // Histogram bookkeeping keyed by (family, labels-minus-le).
    struct HistState {
        last_cum: u64,
        inf: Option<u64>,
        count: Option<u64>,
        key: (String, String),
    }
    let mut hists: Vec<HistState> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?} in TYPE"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {ln}: bad TYPE kind {kind:?}"));
            }
            if types.iter().any(|(n, _)| n == name) {
                return Err(format!("line {ln}: duplicate TYPE for {name:?}"));
            }
            types.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: unknown comment form"));
        }
        let (name, labels, value) =
            parse_sample_line(line).map_err(|e| format!("line {ln}: {e}"))?;
        if !(value.parse::<f64>().is_ok() || matches!(value.as_str(), "+Inf" | "-Inf" | "NaN")) {
            return Err(format!("line {ln}: bad sample value {value:?}"));
        }
        // Resolve the family: histogram series suffixes first, then the
        // name itself.
        let hist_family = ["_bucket", "_count", "_sum"].iter().find_map(|suf| {
            let base = name.strip_suffix(suf)?;
            types
                .iter()
                .find(|(n, k)| n == base && k == "histogram")
                .map(|_| (base.to_string(), *suf))
        });
        match hist_family {
            Some((family, suffix)) => {
                let others: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let key = (family.clone(), others.join(","));
                let idx = match hists.iter().position(|h| h.key == key) {
                    Some(i) => i,
                    None => {
                        hists.push(HistState {
                            last_cum: 0,
                            inf: None,
                            count: None,
                            key,
                        });
                        hists.len() - 1
                    }
                };
                let h = &mut hists[idx];
                match suffix {
                    "_bucket" => {
                        let le = labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .map(|(_, v)| v.as_str())
                            .ok_or_else(|| format!("line {ln}: _bucket without le label"))?;
                        let cum = value
                            .parse::<u64>()
                            .map_err(|_| format!("line {ln}: non-integer bucket value"))?;
                        if cum < h.last_cum {
                            return Err(format!(
                                "line {ln}: bucket series for {family:?} is not cumulative"
                            ));
                        }
                        h.last_cum = cum;
                        if le == "+Inf" {
                            h.inf = Some(cum);
                        }
                    }
                    "_count" => {
                        h.count = value.parse::<u64>().ok();
                    }
                    _ => {}
                }
            }
            None => {
                if !types.iter().any(|(n, _)| n == &name) {
                    return Err(format!("line {ln}: sample {name:?} has no preceding TYPE"));
                }
            }
        }
    }
    for h in &hists {
        let family = &h.key.0;
        let inf = h
            .inf
            .ok_or_else(|| format!("histogram {family:?} is missing the +Inf bucket"))?;
        if let Some(count) = h.count {
            if count != inf {
                return Err(format!(
                    "histogram {family:?}: _count {count} != +Inf bucket {inf}"
                ));
            }
        }
    }
    Ok(())
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed exposition sample line: metric name, label pairs, value text.
type SampleParts = (String, Vec<(String, String)>, String);

/// Splits `name{labels} value` / `name value` into parts.
fn parse_sample_line(line: &str) -> Result<SampleParts, String> {
    let (head, value) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label braces".to_string())?;
            if close < brace {
                return Err("mismatched label braces".into());
            }
            let labels = &line[brace + 1..close];
            let value = line[close + 1..].trim();
            return Ok((
                {
                    let name = &line[..brace];
                    if !valid_metric_name(name) {
                        return Err(format!("bad metric name {name:?}"));
                    }
                    name.to_string()
                },
                parse_labels(labels)?,
                value.to_string(),
            ));
        }
        None => {
            let mut it = line.split_whitespace();
            let name = it.next().ok_or_else(|| "empty line".to_string())?;
            let value = it
                .next()
                .ok_or_else(|| "sample without value".to_string())?;
            (name.to_string(), value.to_string())
        }
    };
    if !valid_metric_name(&head) {
        return Err(format!("bad metric name {head:?}"));
    }
    Ok((head, Vec::new(), value))
}

/// Parses `k="v",k2="v2"` with backslash escapes in values.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        let key = &s[start..pos];
        if key.is_empty() || !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        if pos >= bytes.len() || bytes.get(pos + 1) != Some(&b'"') {
            return Err("label value is not quoted".into());
        }
        pos += 2; // past ="
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    }
                    pos += 2;
                }
                Some(&b) => {
                    value.push(b as char);
                    pos += 1;
                }
            }
        }
        out.push((key.to_string(), value));
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            _ => return Err("expected ',' between labels".into()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::profile::StallProfile;
    use crate::trace::TraceKind;

    fn sample(shard: u32, cycle: u64) -> TelemetrySample {
        TelemetrySample {
            shard,
            cycle,
            received: 10,
            busy: 1,
            delivered_packets: 5,
            delivered_flits: 20,
            injected_flits: 22,
            buffered_flits: 2,
            profile: StallProfile {
                compute_ns: 800,
                wait_ns: 150,
                ingest_ns: 25,
                flush_ns: 25,
            },
            metrics: vec![
                ("packet_latency_count".to_string(), 5),
                ("packet_latency_b3".to_string(), 5),
                ("trace_dropped".to_string(), 0),
            ],
        }
    }

    #[test]
    fn linter_rejects_malformed_documents() {
        assert!(lint_prometheus("no_type_decl 1\n").is_err());
        assert!(lint_prometheus("# TYPE x bogus\nx 1\n").is_err());
        assert!(lint_prometheus("# TYPE x gauge\n9bad 1\n").is_err());
        assert!(
            lint_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n")
                .is_err(),
            "non-cumulative buckets"
        );
        assert!(
            lint_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n").is_err(),
            "missing +Inf bucket"
        );
        assert!(lint_prometheus(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"
        )
        .is_ok());
    }

    #[test]
    fn trace_buffer_evicts_oldest_and_counts_drops() {
        let hub = ObsHub::new();
        for cycle in 10..=10 + TRACE_CAPACITY as u64 {
            hub.record_trace(TraceEvent {
                cycle,
                node: u32::MAX,
                kind: TraceKind::Rollback,
                a: 0,
                b: 0,
            });
        }
        // One past capacity: the cycle-10 event was evicted (drop-oldest).
        let all = hub.trace_jsonl(0);
        assert!(!all.contains("\"cycle\":10,"));
        assert!(all.contains("\"cycle\":11,") && all.contains("\"cycle\":4106,"));
        assert!(all.lines().last().unwrap().contains("\"dropped\":1"));
    }

    #[test]
    fn samples_age_out_and_rates_use_the_window_endpoints() {
        let hub = ObsHub::new();
        for cycle in 0..=SAMPLE_CAPACITY as u64 {
            hub.ingest(&sample(0, cycle));
        }
        assert_eq!(hub.lock().samples.len(), SAMPLE_CAPACITY, "oldest evicted");

        let mut inner = HubInner::default();
        for (at_ms, cycle) in [(0, 0), (500, 1_000), (1_000, 2_000)] {
            inner.samples.push_back((at_ms, sample(0, cycle)));
        }
        inner.samples.push_back((1_000, sample(1, 7)));
        let (age_ms, rate) = inner.timing(0, 1_200);
        assert_eq!(age_ms, 200);
        assert!((rate.expect("two samples") - 2_000.0).abs() < 1e-9);
        // A window holding one sample of the shard yields no rate.
        assert_eq!(inner.timing(0, RATE_WINDOW_MS + 600).1, None);
        assert_eq!(inner.timing(1, 1_000), (0, None));
    }

    #[test]
    fn json_reader_survives_every_prefix_and_byte_flip_of_status() {
        let hub = ObsHub::new();
        hub.ingest(&sample(0, 1_000));
        hub.ingest(&sample(1, 900));
        hub.set_gauge("restarts", 2);
        let doc = hub.status_json();
        Json::parse(&doc).expect("the document itself parses");
        for end in 0..doc.len() {
            let _ = Json::parse(&doc[..end]);
        }
        let mut bytes = doc.into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for flip in b"{}[]\",:0-.e\\ntfu\xff" {
                bytes[i] = *flip;
                let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn server_round_trips_over_real_sockets() {
        let hub = Arc::new(ObsHub::new());
        hub.ingest(&sample(0, 42));
        let mut server = ObsServer::spawn("127.0.0.1:0", hub.clone()).expect("bind");
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/healthz").expect("healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = http_get(&addr, "/status").expect("status");
        assert_eq!(code, 200);
        Json::parse(&body).expect("status is valid JSON");
        let (code, body) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        lint_prometheus(&body).expect("scraped exposition lints clean");
        let (code, _) = http_get(&addr, "/nope").expect("404 route");
        assert_eq!(code, 404);
        for cycle in [10, 20, 30] {
            hub.record_trace(TraceEvent {
                cycle,
                node: 1,
                kind: TraceKind::FlitRoute,
                a: cycle,
                b: 2,
            });
        }
        for (since, events) in [(0, 3), (15, 2), (31, 0)] {
            let path = format!("/trace?since_cycle={since}");
            let (code, body) = http_get(&addr, &path).expect("trace page");
            assert_eq!((code, body.lines().count()), (200, events + 1), "{body}");
            assert_eq!(body, hub.trace_jsonl(since));
        }
        let (code, _) = http_get(&addr, "/trace?since_cycle=bogus").expect("bad query");
        assert_eq!(code, 400);
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
