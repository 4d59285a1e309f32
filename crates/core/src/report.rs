//! Simulation reports: network statistics, per-tile breakdowns, and optional
//! power / thermal traces.

use hornet_net::ids::Cycle;
use hornet_net::stats::NetworkStats;
use hornet_obs::json;
use hornet_obs::metrics::{latency_quantiles, max_over_mean};
use hornet_obs::profile::StallProfile;
use hornet_power::energy::PowerSample;
use std::fmt::Write as _;
use std::time::Duration;

/// Power results of a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PowerReport {
    /// Average total (dynamic + leakage) power per tile over the measured
    /// window, in watts.
    pub per_tile_avg_w: Vec<f64>,
    /// Chip-wide average network power, in watts.
    pub total_avg_w: f64,
    /// Time series of per-tile power samples: one entry per sample interval.
    pub samples: Vec<(Cycle, Vec<PowerSample>)>,
}

impl PowerReport {
    /// Peak chip-wide power over the sample intervals, in watts.
    pub fn peak_total_w(&self) -> f64 {
        self.samples
            .iter()
            .map(|(_, s)| s.iter().map(PowerSample::total_w).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// Thermal results of a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThermalReport {
    /// Per-interval (cycle, per-tile temperature) trace, in °C.
    pub time_series: Vec<(Cycle, Vec<f64>)>,
    /// Final (end-of-run) per-tile temperatures, in °C.
    pub final_temperatures: Vec<f64>,
    /// Index of the hottest tile at the end of the run.
    pub hotspot_tile: usize,
}

impl ThermalReport {
    /// Maximum temperature observed anywhere over the whole run.
    pub fn peak_temp(&self) -> f64 {
        self.time_series
            .iter()
            .flat_map(|(_, t)| t.iter().copied())
            .fold(f64::MIN, f64::max)
    }

    /// Mean final temperature.
    pub fn mean_final_temp(&self) -> f64 {
        if self.final_temperatures.is_empty() {
            return 0.0;
        }
        self.final_temperatures.iter().sum::<f64>() / self.final_temperatures.len() as f64
    }

    /// The per-tile temperature trace of one tile.
    pub fn tile_trace(&self, tile: usize) -> Vec<(Cycle, f64)> {
        self.time_series
            .iter()
            .map(|(c, t)| (*c, t[tile]))
            .collect()
    }
}

/// Shard layout of a parallel run: how the tiles were partitioned and how
/// much of the topology the partition cut.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSummary {
    /// Number of shards (worker threads actually used).
    pub shards: usize,
    /// Tiles per shard, in shard order.
    pub tiles_per_shard: Vec<usize>,
    /// Physical links cut by the partition (each carried by lock-free
    /// boundary mailboxes during the run).
    pub cut_links: usize,
    /// Per-shard statistics, merged by each shard's worker (feeds
    /// load-imbalance diagnostics and, for distributed runs, per-process
    /// reporting).
    pub per_shard: Vec<NetworkStats>,
    /// Per-shard wall-time attribution (compute / slack-wait / ingest /
    /// flush), in shard order. Empty unless stall profiling was enabled.
    pub stalls: Vec<StallProfile>,
}

impl ShardSummary {
    /// Delivered packets per shard — the quickest load-balance signal.
    pub fn per_shard_delivered(&self) -> Vec<u64> {
        self.per_shard.iter().map(|s| s.delivered_packets).collect()
    }

    /// Ratio of the busiest shard's busy cycles to the average (1.0 =
    /// perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.per_shard.iter().map(|s| s.busy_cycles).collect();
        max_over_mean(&busy)
    }

    /// Causal breakdown of the imbalance reported by
    /// [`load_imbalance`](Self::load_imbalance): one line per shard
    /// attributing its wall time to compute vs. slack-wait vs. ingest vs.
    /// flush. A shard whose neighbors lag shows up as wait-heavy; the
    /// lagging shard itself as compute-heavy. Empty when profiling was off.
    pub fn stall_breakdown(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.stalls.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard {i}: {} ({:.1} ms attributed)",
                p.summary(),
                p.total_ns() as f64 / 1e6
            );
        }
        out
    }

    /// All shards' stall profiles merged into one.
    pub fn total_stalls(&self) -> StallProfile {
        let mut total = StallProfile::default();
        for p in &self.stalls {
            total.merge(p);
        }
        total
    }
}

/// The complete result of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Merged network statistics over the measured window.
    pub network: NetworkStats,
    /// Per-tile network statistics.
    pub per_node: Vec<NetworkStats>,
    /// Simulated cycles in the measured window.
    pub measured_cycles: Cycle,
    /// Wall-clock time spent simulating the measured window.
    pub wall_time: Duration,
    /// Wall-clock time spent simulating the warm-up window (zero when no
    /// warm-up was configured).
    pub warmup_wall_time: Duration,
    /// Host threads used.
    pub threads: usize,
    /// Synchronization mode label.
    pub sync_label: String,
    /// Power results, if power modeling was enabled.
    pub power: Option<PowerReport>,
    /// Thermal results, if thermal modeling was enabled.
    pub thermal: Option<ThermalReport>,
    /// Shard layout of the run, when it executed on the sharded runtime.
    pub shard: Option<ShardSummary>,
    /// Flit-lifecycle event trace of the measured window, when tracing was
    /// enabled on the builder (in node-index order; canonical by
    /// construction for a sequential run).
    pub trace: Option<hornet_obs::trace::TraceDump>,
    /// Telemetry samples collected during parallel runs, when periodic
    /// sampling was enabled.
    pub samples: Vec<hornet_obs::metrics::TelemetrySample>,
}

impl SimReport {
    /// Simulated cycles per wall-clock second — the simulator-performance
    /// metric behind the speedup curves of Figure 6.
    pub fn simulation_speed(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.measured_cycles as f64 / secs
        }
    }

    /// Estimated packet-latency quantiles `(p50, p95, p99)` in cycles,
    /// recovered from the merged log₂ latency histogram; `None` until a
    /// packet has been delivered.
    pub fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        let h = &self.network.latency_histogram;
        if h.is_empty() || h.iter().all(|&c| c == 0) {
            return None;
        }
        let [p50, p95, p99] = latency_quantiles(h);
        Some((p50, p95, p99))
    }

    /// Human-readable summary: headline throughput (cycles/sec), wall-clock
    /// phase totals, network statistics, and — when profiling ran — the
    /// per-shard stall breakdown.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulated {} cycles in {:.3} s ({:.0} cycles/sec, {} threads, {})",
            self.measured_cycles,
            self.wall_time.as_secs_f64(),
            self.simulation_speed(),
            self.threads,
            self.sync_label
        );
        let _ = writeln!(
            out,
            "wall clock: warmup {:.3} s, measured {:.3} s",
            self.warmup_wall_time.as_secs_f64(),
            self.wall_time.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "network: {} packets / {} flits delivered, avg latency {:.2} cycles",
            self.network.delivered_packets,
            self.network.delivered_flits,
            self.network.avg_packet_latency()
        );
        if let Some((p50, p95, p99)) = self.latency_quantiles() {
            let _ = writeln!(
                out,
                "latency quantiles (est. from log2 histogram): p50 {p50:.1}, p95 {p95:.1}, \
                 p99 {p99:.1} cycles"
            );
        }
        if let Some(shard) = &self.shard {
            let _ = writeln!(
                out,
                "shards: {} ({} cut links), load imbalance {:.3}",
                shard.shards,
                shard.cut_links,
                shard.load_imbalance()
            );
            if !shard.stalls.is_empty() {
                out.push_str(&shard.stall_breakdown());
            }
        }
        out
    }

    /// Machine-readable summary of the same fields as [`text`](Self::text),
    /// as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.u64("measured_cycles", self.measured_cycles)
                .f64("wall_time_s", self.wall_time.as_secs_f64(), 6)
                .f64("warmup_wall_time_s", self.warmup_wall_time.as_secs_f64(), 6)
                .f64("cycles_per_sec", self.simulation_speed(), 1)
                .u64("threads", self.threads as u64)
                .str("sync", &self.sync_label)
                .u64("delivered_packets", self.network.delivered_packets)
                .u64("delivered_flits", self.network.delivered_flits)
                .f64("avg_packet_latency", self.network.avg_packet_latency(), 4);
            if let Some((p50, p95, p99)) = self.latency_quantiles() {
                o.f64("latency_p50", p50, 4)
                    .f64("latency_p95", p95, 4)
                    .f64("latency_p99", p99, 4);
            }
            if let Some(shard) = &self.shard {
                o.u64("shards", shard.shards as u64)
                    .u64("cut_links", shard.cut_links as u64)
                    .f64("load_imbalance", shard.load_imbalance(), 4);
                if !shard.stalls.is_empty() {
                    o.array("stalls", &shard.stalls, |j, p| {
                        j.u64("compute_ns", p.compute_ns)
                            .u64("wait_ns", p.wait_ns)
                            .u64("ingest_ns", p.ingest_ns)
                            .u64("flush_ns", p.flush_ns);
                    });
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_report_peak() {
        let sample = |w: f64| PowerSample {
            dynamic_w: w,
            leakage_w: 0.0,
            energy_j: 0.0,
            cycles: 1,
        };
        let r = PowerReport {
            per_tile_avg_w: vec![1.0, 2.0],
            total_avg_w: 3.0,
            samples: vec![
                (10, vec![sample(1.0), sample(1.0)]),
                (20, vec![sample(3.0), sample(2.0)]),
            ],
        };
        assert_eq!(r.peak_total_w(), 5.0);
    }

    #[test]
    fn thermal_report_accessors() {
        let r = ThermalReport {
            time_series: vec![(10, vec![50.0, 60.0]), (20, vec![55.0, 70.0])],
            final_temperatures: vec![55.0, 70.0],
            hotspot_tile: 1,
        };
        assert_eq!(r.peak_temp(), 70.0);
        assert_eq!(r.mean_final_temp(), 62.5);
        assert_eq!(r.tile_trace(0), vec![(10, 50.0), (20, 55.0)]);
    }

    #[test]
    fn to_json_is_byte_stable() {
        assert_eq!(
            SimReport::default().to_json(),
            r#"{"measured_cycles":0,"wall_time_s":0.000000,"warmup_wall_time_s":0.000000,"cycles_per_sec":0.0,"threads":0,"sync":"","delivered_packets":0,"delivered_flits":0,"avg_packet_latency":0.0000}"#
        );
        let mut network = NetworkStats::new();
        network.delivered_packets = 10;
        network.delivered_flits = 40;
        network.total_packet_latency = 257;
        network.latency_histogram = vec![0; 32];
        network.latency_histogram[4] = 7;
        network.latency_histogram[5] = 3;
        let busy = |b: u64| NetworkStats {
            busy_cycles: b,
            ..NetworkStats::default()
        };
        let stalls = |compute_ns, wait_ns| StallProfile {
            compute_ns,
            wait_ns,
            ingest_ns: 30,
            flush_ns: 20,
        };
        let report = SimReport {
            network,
            measured_cycles: 20_000,
            wall_time: Duration::from_millis(2_500),
            warmup_wall_time: Duration::from_micros(500_250),
            threads: 2,
            sync_label: "slack:5".into(),
            shard: Some(ShardSummary {
                shards: 2,
                tiles_per_shard: vec![32, 32],
                cut_links: 16,
                per_shard: vec![busy(300), busy(100)],
                stalls: vec![stalls(900, 50), stalls(400, 550)],
            }),
            ..SimReport::default()
        };
        assert_eq!(
            report.to_json(),
            r#"{"measured_cycles":20000,"wall_time_s":2.500000,"warmup_wall_time_s":0.500250,"cycles_per_sec":8000.0,"threads":2,"sync":"slack:5","delivered_packets":10,"delivered_flits":40,"avg_packet_latency":25.7000,"latency_p50":27.4286,"latency_p95":58.6667,"latency_p99":62.9333,"shards":2,"cut_links":16,"load_imbalance":1.5000,"stalls":[{"compute_ns":900,"wait_ns":50,"ingest_ns":30,"flush_ns":20},{"compute_ns":400,"wait_ns":550,"ingest_ns":30,"flush_ns":20}]}"#
        );
    }
}
