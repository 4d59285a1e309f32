//! Every metric the benchmark reports, by name, and the one-line result the
//! benchmark contract asks for. `BENCHMARK.json` lists the same names, units,
//! directions and bounds; a unit test keeps the two equal.

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// `(name, unit, direction, bound)`: the bound is the share of a reference
/// median by which the metric may get worse before it counts as a regression.
/// The host-time bounds are the widest the benchmark contract allows: sets of
/// ten runs on the 2-core container the workloads were sized on spread by 1 %
/// in a quiet hour and by up to 10 % in a noisy one (see README.md).
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("sim_cycles_per_sec", "cycles/s", Better::Higher, 0.25),
    (
        "sim_cycles_per_cpu_sec",
        "cycles/cpu_s",
        Better::Higher,
        0.25,
    ),
    ("host_ns_per_flit_hop", "ns/flit_hop", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const H: Better = Better::Higher;
const L: Better = Better::Lower;

/// `(name, unit, direction)`. A layer a workload does not pass through
/// reports 0 for that workload.
pub const PER_LAYER: [(&str, &str, Better); 59] = [
    // Set-up, split by layer.
    ("core.build_us", "us", L),
    ("core.warmup_us", "us", L),
    ("net.kernel.compile_us", "us", L),
    ("shard.partition_us", "us", L),
    ("dist.host.spawn_teardown_ms", "ms", L),
    // The tile pipeline, stepped by the harness.
    ("net.posedge_ns_per_cycle", "ns/cycle", L),
    ("net.negedge_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.active", "bool", H),
    ("net.kernel.absorb_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.sa_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.va_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.rc_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.negedge_ns_per_cycle", "ns/cycle", L),
    ("net.kernel.bridge_ns_per_cycle", "ns/cycle", L),
    // The cycle loop around it.
    ("core.loop_overhead_ns_per_cycle", "ns/cycle", L),
    ("core.ff.skipped_cycle_share", "ratio", H),
    ("core.ff.ns_per_stepped_cycle", "ns/cycle", L),
    // Agents on the tiles.
    ("traffic.injector.tick_ns_per_cycle", "ns/cycle", L),
    ("traffic.injector.offered_packets", "count", H),
    ("cpu.agent.tick_ns_per_cycle", "ns/cycle", L),
    ("cpu.sim.instructions", "count", H),
    ("cpu.sim.mem_stall_cycle_share", "ratio", L),
    ("cpu.sim.completion_cycle", "cycles", L),
    ("mem.sim.l1_miss_ratio", "ratio", L),
    ("mem.sim.dir_requests", "count", L),
    // Ring micro-probes.
    ("net.vcbuf.push_pop_ns", "ns", L),
    ("net.spsc.push_pop_ns", "ns", L),
    // Thread backend.
    ("shard.driver.compute_ns_per_cycle", "ns/cycle", L),
    ("shard.driver.wait_ns_per_cycle", "ns/cycle", L),
    ("shard.driver.ingest_ns_per_cycle", "ns/cycle", L),
    ("shard.driver.flush_ns_per_cycle", "ns/cycle", L),
    ("shard.driver.wait_share_max", "ratio", L),
    ("shard.cut_links", "count", L),
    ("shard.load_imbalance", "ratio", L),
    ("shard.scaling_efficiency", "ratio", H),
    ("shard.sync.slack5_cps_ratio", "ratio", H),
    ("shard.sync.slack5_latency_err_pct", "%", L),
    // Process backend.
    ("dist.driver.compute_ns_per_cycle", "ns/cycle", L),
    ("dist.driver.wait_ns_per_cycle", "ns/cycle", L),
    ("dist.driver.ingest_ns_per_cycle", "ns/cycle", L),
    ("dist.driver.flush_ns_per_cycle", "ns/cycle", L),
    ("dist.host.ctrl_wall_share", "ratio", L),
    ("dist.transport.shm_cps_ratio", "ratio", H),
    ("dist.sync.slack5_cps_ratio", "ratio", H),
    ("dist.sync.slack5_latency_err_pct", "%", L),
    // Checkpointing and the program's own tracing: off in every timed run.
    ("net.snapshot.encode_us", "us", L),
    ("net.snapshot.restore_us", "us", L),
    ("net.snapshot.bytes", "bytes", L),
    ("obs.trace.overhead_pct", "%", L),
    ("obs.trace.events_per_cycle", "1/cycle", H),
    ("obs.trace.dropped_events", "count", L),
    ("obs.profile.overhead_pct", "%", L),
    // Simulated-time counts: exact at a fixed seed.
    ("net.sim.delivered_packets", "count", H),
    ("net.sim.avg_packet_latency_cycles", "cycles", L),
    ("net.sim.flit_hops", "count", H),
    ("net.sim.arbitrations", "count", L),
    ("net.sim.busy_tile_cycle_share", "ratio", L),
    ("net.sim.routing_failures", "count", L),
    // The harness's own spans.
    ("bench.trace.overhead_pct", "%", L),
];

/// Seconds one run measures for, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`: `harness --print-manifest` writes it, and a
/// unit test fails when the committed file differs.
pub fn benchmark_json() -> String {
    let object = |pairs: &[(&str, String)]| {
        let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("    {{{}}}", fields.join(", "))
    };
    let quoted = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = crate::workloads::all(1)
        .iter()
        .map(|w| object(&[("name", quoted(w.name)), ("why", quoted(w.why))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            object(&[
                ("name", quoted(name)),
                ("unit", quoted(unit)),
                ("better", quoted(better.label())),
                ("bound", bound.to_string()),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            object(&[
                ("name", quoted(name)),
                ("unit", quoted(unit)),
                ("better", quoted(better.label())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The result of one benchmark run: the last line of its standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One JSON object with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit they have.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back a line [`to_json`](Self::to_json) wrote (not general JSON).
    pub fn from_json(line: &str) -> Option<Outcome> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push((
                name.rsplit('"').next()?.to_string(),
                value.parse().ok()?,
                unit.to_string(),
            ));
        }
        Some(Outcome {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![
                (
                    "sim_cycles_per_sec".into(),
                    41234.567891234,
                    "cycles/s".into(),
                ),
                ("setup_s".into(), 0.004217, "s".into()),
                ("net.kernel.active".into(), 1.0, "bool".into()),
            ],
        };
        let line = outcome.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"sim_cycles_per_sec\": {\"value\": 41234.567891234, \"unit\": \"cycles/s\"}, \
             \"setup_s\": {\"value\": 0.004217, \"unit\": \"s\"}, \
             \"net.kernel.active\": {\"value\": 1, \"unit\": \"bool\"}}}"
        );
        assert_eq!(Outcome::from_json(&line), Some(outcome));
        assert_eq!(Outcome::from_json("no result here"), None);
    }

    fn manifest(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_in_benchmark_json() {
        let workloads = crate::workloads::all(1);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workloads.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &workloads {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", Better::Lower)));
        // The committed manifest is exactly what these tables render to, so
        // every name above appears in it and it names nothing else.
        assert_eq!(manifest("../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn release_profile_equals_the_root_workspaces() {
        let profile = |toml: &str| -> Vec<String> {
            toml.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = profile(&manifest("../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(profile(&manifest("Cargo.toml")), root);
    }
}
