//! The lock-free, shard-local metrics registry and the telemetry samples
//! drawn from it.
//!
//! A [`MetricsRegistry`] maps names to three kinds of instruments:
//!
//! * [`Counter`] — monotone `u64`, relaxed `fetch_add`;
//! * [`Gauge`] — last-written `u64`, relaxed `store`;
//! * [`Histogram`] — 32 log₂-bucketed occurrence counters, relaxed
//!   `fetch_add` on one bucket per recorded value.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes the registry lock
//! once and hands back a cheap cloneable handle; every subsequent update is
//! a single relaxed atomic operation with no lock anywhere, so instruments
//! can sit on simulation hot paths. Handles stay valid for the life of the
//! registry (they share ownership of the slot), so a sampler thread and an
//! updating shard thread never race on anything but the atomics themselves.
//!
//! [`TelemetrySample`] is the unit of periodic observation: the shard
//! driver's fixed progress fields (cycle, flit totals, stall profile) plus a
//! flattened snapshot of the registry. Samples serialize to a fixed
//! little-endian byte layout (for `CtrlMsg::Telemetry` on wire v4) and to
//! one NDJSON object per line (for `hornet-dist --metrics-out`).

use crate::json::{self, Json};
use crate::profile::StallProfile;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buckets per histogram: value `v` lands in bucket `⌈log₂(v+1)⌉`, capped.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotone counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed; the sampler tolerates torn inter-metric views).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂ histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<[AtomicU64; HISTOGRAM_BUCKETS]>);

impl Histogram {
    /// Records one occurrence of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all buckets.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// Total recorded occurrences.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named registry of counters, gauges and histograms.
///
/// Cloning the registry clones the *handle*; all clones share one slot
/// table, so a shard can hand its registry to a sampler without copying.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    slots: Arc<Mutex<Vec<(String, Slot)>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.slots.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("slots", &n)
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, mk: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        if let Some((_, slot)) = slots.iter().find(|(n, _)| n == name) {
            return slot.clone();
        }
        let slot = mk();
        slots.push((name.to_string(), slot.clone()));
        slot
    }

    /// The counter named `name`, created on first use. Re-registering the
    /// name returns a handle to the *same* counter; asking for a name that
    /// is already a gauge or histogram panics (a misconfigured instrument is
    /// a programming error, not a runtime condition).
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))) {
            Slot::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use (see [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use (see [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || {
            Slot::Histogram(Histogram(Arc::new(std::array::from_fn(|_| {
                AtomicU64::new(0)
            }))))
        }) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Flattens every instrument to `(name, u64)` pairs in registration
    /// order: counters and gauges as their value, histograms as
    /// `name_count` plus one `name_b<i>` entry per non-empty bucket.
    pub fn sample(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut out = Vec::with_capacity(slots.len());
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => out.push((name.clone(), c.get())),
                Slot::Gauge(g) => out.push((name.clone(), g.get())),
                Slot::Histogram(h) => {
                    let buckets = h.buckets();
                    out.push((format!("{name}_count"), buckets.iter().sum()));
                    for (i, &b) in buckets.iter().enumerate() {
                        if b != 0 {
                            out.push((format!("{name}_b{i}"), b));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Reads one fixed field of a sample (see [`TelemetrySample::FIELDS`]).
pub type SampleField = fn(&TelemetrySample) -> u64;

/// One periodic observation of one shard: fixed driver progress fields plus
/// the flattened registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Shard that produced the sample.
    pub shard: u32,
    /// Simulated cycle at sampling time.
    pub cycle: u64,
    /// Cumulative flits moved from boundary mailboxes into ingress buffers.
    pub received: u64,
    /// Flits buffered or pending anywhere in the shard right now.
    pub busy: u64,
    /// Packets delivered by the shard's tiles so far.
    pub delivered_packets: u64,
    /// Flits delivered by the shard's tiles so far.
    pub delivered_flits: u64,
    /// Flits injected by the shard's tiles so far.
    pub injected_flits: u64,
    /// Flits currently buffered in the shard's routers.
    pub buffered_flits: u64,
    /// Wall-time stall attribution accumulated so far this run.
    pub profile: StallProfile,
    /// Flattened registry snapshot (`MetricsRegistry::sample`).
    pub metrics: Vec<(String, u64)>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if buf.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated observability record",
        ));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> io::Result<u32> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> io::Result<u64> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
}

impl TelemetrySample {
    /// Serializes the sample to the fixed little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.shard);
        put_u64(buf, self.cycle);
        put_u64(buf, self.received);
        put_u64(buf, self.busy);
        put_u64(buf, self.delivered_packets);
        put_u64(buf, self.delivered_flits);
        put_u64(buf, self.injected_flits);
        put_u64(buf, self.buffered_flits);
        put_u64(buf, self.profile.compute_ns);
        put_u64(buf, self.profile.wait_ns);
        put_u64(buf, self.profile.ingest_ns);
        put_u64(buf, self.profile.flush_ns);
        put_u32(buf, self.metrics.len() as u32);
        for (name, v) in &self.metrics {
            put_u32(buf, name.len() as u32);
            buf.extend_from_slice(name.as_bytes());
            put_u64(buf, *v);
        }
    }

    /// Decodes a sample written by [`encode_into`](Self::encode_into),
    /// advancing the cursor.
    ///
    /// # Errors
    ///
    /// `InvalidData` / `UnexpectedEof` on a corrupt or truncated record.
    pub fn decode_from(buf: &mut &[u8]) -> io::Result<Self> {
        let shard = get_u32(buf)?;
        let cycle = get_u64(buf)?;
        let received = get_u64(buf)?;
        let busy = get_u64(buf)?;
        let delivered_packets = get_u64(buf)?;
        let delivered_flits = get_u64(buf)?;
        let injected_flits = get_u64(buf)?;
        let buffered_flits = get_u64(buf)?;
        let profile = StallProfile {
            compute_ns: get_u64(buf)?,
            wait_ns: get_u64(buf)?,
            ingest_ns: get_u64(buf)?,
            flush_ns: get_u64(buf)?,
        };
        let n = get_u32(buf)? as usize;
        let mut metrics = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = get_u32(buf)? as usize;
            let name = std::str::from_utf8(take(buf, len)?)
                .map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "metric name is not UTF-8")
                })?
                .to_string();
            let v = get_u64(buf)?;
            metrics.push((name, v));
        }
        Ok(Self {
            shard,
            cycle,
            received,
            busy,
            delivered_packets,
            delivered_flits,
            injected_flits,
            buffered_flits,
            profile,
            metrics,
        })
    }

    /// The fixed top-level keys of a sample's NDJSON object, in emission
    /// order, with their getters. The NDJSON writer, the schema check and
    /// `/status`'s per-shard counters all read this table.
    pub const FIELDS: [(&'static str, SampleField); 12] = [
        ("shard", |s| u64::from(s.shard)),
        ("cycle", |s| s.cycle),
        ("received", |s| s.received),
        ("busy", |s| s.busy),
        ("delivered_packets", |s| s.delivered_packets),
        ("delivered_flits", |s| s.delivered_flits),
        ("injected_flits", |s| s.injected_flits),
        ("buffered_flits", |s| s.buffered_flits),
        ("compute_ns", |s| s.profile.compute_ns),
        ("wait_ns", |s| s.profile.wait_ns),
        ("ingest_ns", |s| s.profile.ingest_ns),
        ("flush_ns", |s| s.profile.flush_ns),
    ];

    /// Renders the sample as one NDJSON object (no trailing newline): the
    /// [`FIELDS`](Self::FIELDS), then the registry snapshot as `metrics`.
    pub fn to_ndjson(&self) -> String {
        let mut s = String::with_capacity(256);
        json::object(&mut s, |o| {
            for (key, get) in Self::FIELDS {
                o.u64(key, get(self));
            }
            o.object("metrics", |m| {
                for (name, v) in &self.metrics {
                    m.u64(name, *v);
                }
            });
        });
        s
    }

    /// Checks one `--metrics-out` NDJSON line against the sample schema
    /// (see [`validate_ndjson`](Self::validate_ndjson)).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate_ndjson_line(line: &str) -> Result<(), String> {
        Self::validate_ndjson(&Json::parse(line).map_err(|e| format!("line is not JSON: {e}"))?)
    }

    /// Checks one parsed NDJSON document against the sample schema: an
    /// object holding a number at every [`FIELDS`](Self::FIELDS) key and an
    /// object at `metrics`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate_ndjson(doc: &Json) -> Result<(), String> {
        for (key, _) in Self::FIELDS {
            if !matches!(doc.get(key), Some(Json::Num(_))) {
                return Err(format!("key {key:?} is missing or not a number"));
            }
        }
        match doc.get("metrics") {
            Some(Json::Obj(_)) => Ok(()),
            _ => Err("key \"metrics\" is missing or not an object".into()),
        }
    }
}

/// The newest sample of every shard in `samples` (taken in arrival order),
/// ordered by shard id.
pub(crate) fn newest_per_shard<'a>(
    samples: impl IntoIterator<Item = &'a TelemetrySample>,
) -> Vec<&'a TelemetrySample> {
    let mut latest: Vec<&TelemetrySample> = Vec::new();
    for s in samples {
        match latest.iter_mut().find(|l| l.shard == s.shard) {
            Some(slot) => *slot = s,
            None => latest.push(s),
        }
    }
    latest.sort_by_key(|s| s.shard);
    latest
}

/// The `name` histograms of the newest sample of every shard in `samples`,
/// merged (registry histograms are cumulative over the run, so a shard's
/// newest is its total). `None` when no such sample carries one.
pub fn merged_histogram<'a>(
    samples: impl IntoIterator<Item = &'a TelemetrySample>,
    name: &str,
) -> Option<[u64; HISTOGRAM_BUCKETS]> {
    let mut histograms = newest_per_shard(samples)
        .into_iter()
        .filter_map(|s| metrics_histogram(&s.metrics, name));
    let mut merged = histograms.next()?;
    for h in histograms {
        merged.iter_mut().zip(h).for_each(|(slot, v)| *slot += v);
    }
    Some(merged)
}

/// Recovers a dense log₂ histogram from the flattened `<name>_count` +
/// sparse `<name>_b<i>` pairs produced by [`MetricsRegistry::sample`] (and
/// by the shard driver's packet-latency export). `None` when
/// `<name>_count` is absent from the sample.
fn metrics_histogram(metrics: &[(String, u64)], name: &str) -> Option<[u64; HISTOGRAM_BUCKETS]> {
    let count_key = format!("{name}_count");
    metrics.iter().find(|(n, _)| *n == count_key)?;
    let mut out = [0u64; HISTOGRAM_BUCKETS];
    let prefix = format!("{name}_b");
    for (n, v) in metrics {
        if let Some(idx) = n.strip_prefix(&prefix) {
            if let Ok(i) = idx.parse::<usize>() {
                if i < HISTOGRAM_BUCKETS {
                    out[i] = *v;
                }
            }
        }
    }
    Some(out)
}

/// Estimated `q`-quantile (`0.0 ..= 1.0`) of a log₂-bucketed histogram in
/// the packet-latency convention (bucket `i` covers `[2^i, 2^(i+1))`, bucket
/// 0 also counts zero), with linear interpolation inside the covering
/// bucket. Returns 0.0 for an empty histogram.
fn histogram_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        let next = cum + b;
        if next as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u128 << (i + 1)) as f64;
            let frac = (target - cum as f64) / b as f64;
            return lo + frac * (hi - lo);
        }
        cum = next;
    }
    (1u128 << buckets.len()) as f64
}

/// The reported packet-latency quantiles `[p50, p95, p99]` of a histogram.
pub fn latency_quantiles(buckets: &[u64]) -> [f64; 3] {
    [0.50, 0.95, 0.99].map(|q| histogram_quantile(buckets, q))
}

/// Max over mean of per-shard loads (1.0 = balanced); 1.0 when there is no
/// load to compare.
pub fn max_over_mean(values: &[u64]) -> f64 {
    let Some(&max) = values.iter().max() else {
        return 1.0;
    };
    let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
    if mean > 0.0 {
        max as f64 / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_handles_and_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("flits");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = reg.counter("flits");
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(reg.sample(), vec![("flits".to_string(), 40_000)]);
    }

    #[test]
    fn histogram_buckets_by_log2_and_flattens_sparsely() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(1);
        h.record(1000); // bucket 10
        assert_eq!(h.count(), 4);
        let sample = reg.sample();
        assert_eq!(sample[0], ("wait_count".to_string(), 4));
        assert!(sample.contains(&("wait_b0".to_string(), 1)));
        assert!(sample.contains(&("wait_b1".to_string(), 2)));
        assert!(sample.contains(&("wait_b10".to_string(), 1)));
        assert_eq!(sample.len(), 4, "empty buckets are omitted");
    }

    #[test]
    fn gauge_overwrites() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("cycle");
        g.set(10);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }

    #[test]
    fn sample_round_trips_and_emits_valid_ndjson() {
        let s = TelemetrySample {
            shard: 3,
            cycle: 12_000,
            received: 42,
            busy: 7,
            delivered_packets: 100,
            delivered_flits: 400,
            injected_flits: 410,
            buffered_flits: 9,
            profile: StallProfile {
                compute_ns: 1,
                wait_ns: 2,
                ingest_ns: 3,
                flush_ns: 4,
            },
            metrics: vec![("batch_wait_count".into(), 5)],
        };
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let back = TelemetrySample::decode_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, s);
        TelemetrySample::validate_ndjson_line(&s.to_ndjson()).expect("schema-valid line");
    }

    #[test]
    fn validator_parses_instead_of_searching() {
        let mut s = TelemetrySample {
            cycle: 900,
            metrics: vec![("cycle".into(), 900)],
            ..TelemetrySample::default()
        };
        let line = s.to_ndjson();
        TelemetrySample::validate_ndjson_line(&line).expect("schema-valid line");
        assert!(TelemetrySample::validate_ndjson_line("{\"shard\":1}").is_err());
        // Braces, keys and leading digits all in place, but not JSON.
        let broken = line.replace(",\"metrics\"", ",,\"metrics\"");
        assert!(TelemetrySample::validate_ndjson_line(&broken).is_err());
        // No top-level `cycle`: the registry gauge of that name inside
        // `metrics` must not stand in for it.
        let headless = line.replace("\"cycle\":900,\"received\"", "\"received\"");
        assert_ne!(headless, line);
        let err = TelemetrySample::validate_ndjson_line(&headless).unwrap_err();
        assert!(err.contains("\"cycle\""), "{err}");
        s.metrics.clear();
        let flat = s.to_ndjson().replace("\"metrics\":{}", "\"metrics\":0");
        assert!(TelemetrySample::validate_ndjson_line(&flat).is_err());
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        // 100 values in bucket 3 ([8, 16)).
        let mut b = [0u64; HISTOGRAM_BUCKETS];
        b[3] = 100;
        let [p50, _, p99] = latency_quantiles(&b);
        assert!((8.0..16.0).contains(&p50), "p50 {p50}");
        assert!(p99 <= 16.0);
        assert!(histogram_quantile(&b, 1.0) <= 16.0);
        assert_eq!(histogram_quantile(&[0; 4], 0.5), 0.0);
        // Mass split across buckets: p25 in the lower, p75 in the upper.
        let mut b = [0u64; HISTOGRAM_BUCKETS];
        b[1] = 50; // [2, 4)
        b[4] = 50; // [16, 32)
        assert!(histogram_quantile(&b, 0.25) < 4.0);
        assert!(histogram_quantile(&b, 0.75) >= 16.0);
    }

    #[test]
    fn newest_histogram_of_each_shard_is_merged() {
        let sample = |shard, b2| TelemetrySample {
            shard,
            metrics: vec![
                ("packet_latency_count".to_string(), b2 + 3),
                ("packet_latency_b2".to_string(), b2),
                ("packet_latency_b5".to_string(), 3),
                ("other".to_string(), 1),
            ],
            ..TelemetrySample::default()
        };
        let h = metrics_histogram(&sample(0, 4).metrics, "packet_latency").expect("present");
        assert_eq!((h[2], h[5], h.iter().sum::<u64>()), (4, 3, 7));
        assert!(metrics_histogram(&sample(0, 4).metrics, "absent").is_none());
        let stream = [sample(1, 1), sample(0, 2), sample(1, 10)];
        let newest = newest_per_shard(&stream);
        assert_eq!(newest.iter().map(|s| s.shard).collect::<Vec<_>>(), [0, 1]);
        // Shard 1's older sample is ignored.
        let merged = merged_histogram(&stream, "packet_latency").expect("present");
        assert_eq!((merged[2], merged[5]), (12, 6));
        assert!(merged_histogram(&stream, "absent").is_none());
    }

    #[test]
    fn max_over_mean_is_one_when_degenerate() {
        assert_eq!(max_over_mean(&[]), 1.0);
        assert_eq!(max_over_mean(&[0, 0]), 1.0);
        assert_eq!(max_over_mean(&[300, 100]), 1.5);
    }
}
