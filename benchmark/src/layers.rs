//! The per-layer run of one workload: a few untraced repetitions for
//! reference, the traced run, the probes of the backend the workload uses,
//! and the fixed probes. Every `PER_LAYER` metric is reported; a layer the
//! workload does not pass through reports 0.

use crate::measure::{conserved, fingerprint};
use crate::metrics::{Outcome, PER_LAYER};
use crate::probes;
use crate::stats::summarize;
use crate::traced;
use crate::workloads::{self, Backend, Rep, Workload};
use hornet_dist::{DistSpec, DistSync, DistWorkload, TransportKind};
use hornet_obs::profile::StallProfile;
use std::collections::BTreeMap;
use std::path::Path;

/// Where span files go, relative to the repository root run.sh starts the
/// harness in.
const OUT_DIR: &str = "benchmark/out";

/// Ring capacity of the program's own event tracing when it is probed.
const TRACE_EVENTS: u32 = 65_536;

/// The driver's phases in `StallProfile` order, per backend.
const SHARD_PHASES: [&str; 4] = [
    "shard.driver.compute_ns_per_cycle",
    "shard.driver.wait_ns_per_cycle",
    "shard.driver.ingest_ns_per_cycle",
    "shard.driver.flush_ns_per_cycle",
];
const DIST_PHASES: [&str; 4] = [
    "dist.driver.compute_ns_per_cycle",
    "dist.driver.wait_ns_per_cycle",
    "dist.driver.ingest_ns_per_cycle",
    "dist.driver.flush_ns_per_cycle",
];

fn repeat(w: &Workload, seed: u64, n: usize) -> Result<Vec<Rep>, String> {
    (0..n).map(|_| w.run(seed)).collect()
}

fn median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    summarize(&reps.iter().map(f).collect::<Vec<_>>()).median
}

fn pct_slower(base_cps: f64, cps: f64) -> f64 {
    (base_cps / cps - 1.0) * 100.0
}

/// Mean over shards of each driver phase, in ns per simulated cycle, and the
/// largest share of its wall time any shard spent waiting.
fn driver_phases(rep: &Rep) -> ([f64; 4], f64) {
    let shards = rep.stalls().len().max(1) as f64;
    let per_cycle = |f: fn(&StallProfile) -> u64| {
        rep.stalls().iter().map(f).sum::<u64>() as f64 / shards / rep.cycles as f64
    };
    let wait_share_max = rep
        .stalls()
        .iter()
        .map(|p| p.fractions()[1])
        .fold(0.0, f64::max);
    (
        [
            per_cycle(|p| p.compute_ns),
            per_cycle(|p| p.wait_ns),
            per_cycle(|p| p.ingest_ns),
            per_cycle(|p| p.flush_ns),
        ],
        wait_share_max,
    )
}

/// `(cycles/s ratio, latency error %)` of `Slack(5)` against `base`, the
/// cycle-accurate repetitions of the same workload and seed.
fn slack5(w: &Workload, seed: u64, n: usize, base: &[Rep]) -> Result<(f64, f64), String> {
    let loose = repeat(
        &w.with_spec(DistSpec {
            sync: DistSync::Slack(5),
            ..w.spec.clone()
        }),
        seed,
        n,
    )?;
    let exact = base[0].stats.avg_packet_latency();
    Ok((
        median(&loose, Rep::cycles_per_sec) / median(base, Rep::cycles_per_sec),
        median(&loose, |r| {
            (r.stats.avg_packet_latency() - exact).abs() / exact * 100.0
        }),
    ))
}

pub struct Layers {
    pub outcome: Outcome,
    pub notes: Vec<String>,
}

/// Runs the traced run and the probes of `w`; `side` repetitions back every
/// comparison (`side + 1` the untraced reference). Spans go to
/// `benchmark/out/trace-<workload>.jsonl`, headed by `stamp`.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    side: usize,
    shrink: u64,
    stamp: &str,
) -> Result<Layers, String> {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let mut correct = true;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            correct = false;
            notes.push(format!("check failed: {what}"));
        }
    };

    // Untraced reference: the workload as the end-to-end run executes it,
    // and the same simulation on one thread, which the traced run steps.
    let base = repeat(w, seed, side + 1)?;
    let on_one_thread;
    let sequential = if w.parallelism() > 1 {
        on_one_thread = repeat(&w.sequential(), seed, side)?;
        &on_one_thread
    } else {
        &base
    };
    let base_cps = median(&base, Rep::cycles_per_sec);
    let seq_ns = median(sequential, Rep::ns_per_cycle);
    check(conserved(w, &base[0].stats), "conservation, untraced");

    let t = traced::run(w, seed)?;
    t.recorder
        .write_jsonl(
            &Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name)),
            stamp,
        )
        .map_err(|e| format!("writing the trace: {e}"))?;
    check(
        fingerprint(&t.stats) == fingerprint(&base[0].stats),
        "the traced run simulated what the untraced run did",
    );
    check(t.conserved, "conservation, traced");
    let self_ms: Vec<String> = [
        "workload",
        "core.build",
        "net.kernel.compile",
        "core.warmup",
        "core.measure",
        "window",
        "net.posedge",
        "agents.tick",
        "net.negedge",
    ]
    .iter()
    .map(|name| format!("{name} {:.3}", t.recorder.self_ns_of(name) as f64 / 1e6))
    .collect();
    let self_times = format!("span self time, ms: {}", self_ms.join(", "));
    let cycles = t.cycles as f64;
    let skipped = t.cycles - t.stepped;
    if w.parallelism() == 1 {
        check(
            base[0].stats.fast_forwarded_cycles == skipped,
            "the traced run skipped the cycles the untraced run did",
        );
    }

    // Set-up, split by layer: from the untraced repetitions where they have
    // a build and a warm-up of their own, from the traced run where they do
    // not (worker processes build inside the spawn; a run from cycle 0 has an
    // empty warm-up phase).
    let procs = matches!(w.backend, Backend::Procs { .. });
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    m.insert(
        "core.build_us",
        if procs {
            us(t.build)
        } else {
            median(&base, |r| us(r.build))
        },
    );
    m.insert(
        "core.warmup_us",
        if w.warmup_cycles() > 0 {
            median(&base, |r| us(r.warmup))
        } else {
            us(t.warmup)
        },
    );
    m.insert("net.kernel.compile_us", us(t.compile));
    m.insert(
        "shard.partition_us",
        probes::partition_us(w.spec.width as usize, crate::host::nproc().max(2)),
    );

    // The tile pipeline and the loop around it.
    m.insert("net.posedge_ns_per_cycle", t.posedge_ns as f64 / cycles);
    m.insert("net.negedge_ns_per_cycle", t.negedge_ns as f64 / cycles);
    if let Some(s) = t.stages {
        m.insert("net.kernel.active", 1.0);
        for (name, d) in [
            ("net.kernel.absorb_ns_per_cycle", s.absorb),
            ("net.kernel.sa_ns_per_cycle", s.sa),
            ("net.kernel.va_ns_per_cycle", s.va),
            ("net.kernel.rc_ns_per_cycle", s.rc),
            ("net.kernel.negedge_ns_per_cycle", s.negedge),
            ("net.kernel.bridge_ns_per_cycle", s.bridge),
        ] {
            m.insert(name, d.as_nanos() as f64 / cycles);
        }
    }
    m.insert(
        "core.loop_overhead_ns_per_cycle",
        seq_ns - (t.posedge_ns + t.negedge_ns) as f64 / cycles,
    );
    m.insert("core.ff.skipped_cycle_share", skipped as f64 / cycles);
    m.insert(
        "core.ff.ns_per_stepped_cycle",
        t.wall.as_nanos() as f64 / t.stepped as f64,
    );
    m.insert(
        "bench.trace.overhead_pct",
        (t.wall.as_nanos() as f64 / cycles / seq_ns - 1.0) * 100.0,
    );

    // Agents.
    let tick = t.agent_tick_ns as f64 / cycles;
    match w.spec.workload {
        DistWorkload::Synthetic => {
            m.insert("traffic.injector.tick_ns_per_cycle", tick);
            m.insert(
                "traffic.injector.offered_packets",
                t.tally.offered_packets as f64,
            );
        }
        _ => {
            m.insert("cpu.agent.tick_ns_per_cycle", tick);
            m.insert("cpu.sim.instructions", t.tally.instructions as f64);
            m.insert(
                "cpu.sim.mem_stall_cycle_share",
                t.tally.mem_stall_cycles as f64 / t.tally.core_cycles as f64,
            );
            m.insert("cpu.sim.completion_cycle", cycles);
            m.insert(
                "mem.sim.l1_miss_ratio",
                t.tally.l1_misses as f64 / t.tally.l1_accesses as f64,
            );
            m.insert("mem.sim.dir_requests", t.tally.dir_requests as f64);
        }
    }

    // Simulated-time counts.
    let tiles = w.spec.node_count() as f64;
    m.insert(
        "net.sim.delivered_packets",
        t.stats.delivered_packets as f64,
    );
    m.insert(
        "net.sim.avg_packet_latency_cycles",
        t.stats.avg_packet_latency(),
    );
    m.insert(
        "net.sim.flit_hops",
        t.stats.activity.crossbar_transits as f64,
    );
    m.insert("net.sim.arbitrations", t.stats.activity.arbitrations as f64);
    m.insert(
        "net.sim.busy_tile_cycle_share",
        t.stats.busy_cycles as f64 / (tiles * cycles),
    );
    m.insert("net.sim.routing_failures", t.stats.routing_failures as f64);

    // The backend the workload runs on.
    match w.backend {
        Backend::Engine { threads: 1 } => {
            let traced = repeat(
                &w.with_spec(DistSpec {
                    trace_capacity: Some(TRACE_EVENTS),
                    ..w.spec.clone()
                }),
                seed,
                side,
            )?;
            m.insert(
                "obs.trace.overhead_pct",
                pct_slower(base_cps, median(&traced, Rep::cycles_per_sec)),
            );
            let dump = traced[0].trace.as_ref().ok_or("tracing produced no dump")?;
            m.insert(
                "obs.trace.events_per_cycle",
                dump.events.len() as f64 / traced[0].cycles as f64,
            );
            m.insert("obs.trace.dropped_events", dump.dropped as f64);
            check(
                fingerprint(&traced[0].stats) == fingerprint(&base[0].stats),
                "event tracing left the simulation unchanged",
            );
        }
        Backend::Engine { threads } => {
            let profiled = repeat(
                &Workload {
                    profile: true,
                    ..w.clone()
                },
                seed,
                side,
            )?;
            for (i, name) in SHARD_PHASES.into_iter().enumerate() {
                m.insert(name, median(&profiled, |r| driver_phases(r).0[i]));
            }
            m.insert(
                "shard.driver.wait_share_max",
                median(&profiled, |r| driver_phases(r).1),
            );
            m.insert(
                "obs.profile.overhead_pct",
                pct_slower(base_cps, median(&profiled, Rep::cycles_per_sec)),
            );
            let shard = base[0].shard.as_ref().ok_or("no shard summary")?;
            m.insert("shard.cut_links", shard.cut_links as f64);
            m.insert("shard.load_imbalance", shard.load_imbalance());
            m.insert(
                "shard.scaling_efficiency",
                base_cps / (threads as f64 * median(sequential, Rep::cycles_per_sec)),
            );
            let (ratio, err) = slack5(w, seed, side, &base)?;
            m.insert("shard.sync.slack5_cps_ratio", ratio);
            m.insert("shard.sync.slack5_latency_err_pct", err);
        }
        Backend::Procs { workers, .. } => {
            for (i, name) in DIST_PHASES.into_iter().enumerate() {
                m.insert(name, median(&base, |r| driver_phases(r).0[i]));
            }
            m.insert(
                "dist.host.ctrl_wall_share",
                median(&base, |r| {
                    let in_shards = r.stalls().iter().map(StallProfile::total_ns).sum::<u64>();
                    1.0 - in_shards as f64 / workers as f64 / r.wall.as_nanos() as f64
                }),
            );
            m.insert(
                "dist.host.spawn_teardown_ms",
                median(&base, |r| r.warmup.as_secs_f64() * 1e3),
            );
            let shm = repeat(
                &Workload {
                    backend: Backend::Procs {
                        workers,
                        transport: TransportKind::Shm,
                    },
                    ..w.clone()
                },
                seed,
                side,
            )?;
            m.insert(
                "dist.transport.shm_cps_ratio",
                median(&shm, Rep::cycles_per_sec) / base_cps,
            );
            check(
                fingerprint(&shm[0].stats) == fingerprint(&base[0].stats),
                "shared memory and sockets simulate the same",
            );
            let (ratio, err) = slack5(w, seed, side, &base)?;
            m.insert("dist.sync.slack5_cps_ratio", ratio);
            m.insert("dist.sync.slack5_latency_err_pct", err);
        }
        Backend::Network => {}
    }

    // Fixed probes, the same on every workload.
    let mesh16 = |name| workloads::by_name(name, shrink).ok_or("a 16x16 workload is gone");
    if !procs {
        let spawn = workloads::spawn_teardown(
            &mesh16("mesh16_p2_unix_ca")?.spec,
            2,
            TransportKind::UnixSocket,
        )?;
        m.insert("dist.host.spawn_teardown_ms", spawn.as_secs_f64() * 1e3);
    }
    let pairs = probes::RING_PAIRS / shrink;
    m.insert("net.vcbuf.push_pop_ns", probes::vcbuf_push_pop_ns(pairs));
    m.insert("net.spsc.push_pop_ns", probes::spsc_push_pop_ns(pairs));
    let (encode, restore, bytes) = probes::snapshot_round_trip(&mesh16("mesh16_t2_ca")?, seed)?;
    m.insert("net.snapshot.encode_us", encode);
    m.insert("net.snapshot.restore_us", restore);
    m.insert("net.snapshot.bytes", bytes);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = m.remove(name).unwrap_or(0.0);
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    assert!(m.is_empty(), "metrics not in PER_LAYER: {m:?}");
    notes.push(self_times);
    Ok(Layers {
        outcome: Outcome {
            correct,
            attempted: 1,
            failed: u64::from(!correct),
            metrics,
        },
        notes,
    })
}
