//! The end-to-end run of one workload: timed repetitions with tracing off,
//! then the correctness checks that decide how many of them count as failed.

use crate::metrics::Outcome;
use crate::stats::{summarize, Summary};
use crate::sys::peak_rss_mb;
use crate::workloads::{Reference, Rep, Workload};
use hornet_dist::DistSpec;
use hornet_net::kernel::KernelMode;
use hornet_net::stats::NetworkStats;
use std::time::{Duration, Instant};

/// What must be equal between two runs that simulated the same thing:
/// delivered packets, their total latency, and the log₂ latency histogram.
pub fn fingerprint(stats: &NetworkStats) -> (u64, u64, Vec<u64>) {
    (
        stats.delivered_packets,
        stats.total_packet_latency,
        stats.latency_histogram.clone(),
    )
}

/// No routing failure, and delivered ≤ injected. Counts that start after a
/// warm-up may be off by what the network held when the warm-up ended, which
/// is at most its buffer capacity. (injected ≤ offered is checked in the
/// traced run, from the injectors' own count: the program never writes
/// `NetworkStats::offered_packets`.)
pub fn conserved(w: &Workload, stats: &NetworkStats) -> bool {
    let slack = if w.warmup_cycles() > 0 {
        // Four neighbours and the ejection side, then the injection port.
        let tile_flit_slots = 5 * w.spec.vcs_per_port * w.spec.vc_capacity
            + w.spec.injection_vcs * w.spec.injection_vc_capacity;
        w.spec.node_count() as u64 * u64::from(tile_flit_slots)
    } else {
        0
    };
    stats.routing_failures == 0 && stats.delivered_packets <= stats.injected_packets + slack
}

/// The configuration whose results a repetition of `w` must reproduce.
pub fn reference(w: &Workload) -> Option<Workload> {
    let with_spec = |spec: DistSpec| Workload { spec, ..w.clone() };
    match w.reference {
        Reference::None => None,
        Reference::Interpreter => Some(with_spec(DistSpec {
            kernel: KernelMode::Off,
            ..w.spec.clone()
        })),
        Reference::NoFastForward => Some(w.with_spec(DistSpec {
            fast_forward: false,
            ..w.spec.clone()
        })),
        Reference::Sequential => Some(w.sequential()),
    }
}

pub struct EndToEnd {
    pub outcome: Outcome,
    /// One summary per end-to-end metric, in `END_TO_END` order.
    pub summaries: Vec<Summary>,
    pub notes: Vec<String>,
}

/// Repeats `w` for about `seconds` (at least three times; exactly once with
/// `quick`), checks the results, and reports medians.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Result<EndToEnd, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut notes = Vec::new();
    let mut errors = 0u64;
    while errors < 3
        && if quick {
            reps.is_empty()
        } else {
            reps.len() < 3 || started.elapsed() < budget
        }
    {
        match w.run(seed) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                errors += 1;
                notes.push(format!("repetition failed: {e}"));
            }
        }
    }
    // Before the checks run, so that their reference simulations do not count.
    let peak_rss = peak_rss_mb();
    let first = reps
        .first()
        .ok_or_else(|| format!("no repetition of {} succeeded: {notes:?}", w.name))?;

    let mut failed = errors;
    let expected = fingerprint(&first.stats);
    for (i, rep) in reps.iter().enumerate() {
        let too_slow = rep.cycles_per_sec() < w.nominal_cps / 10.0;
        let ok = !too_slow && conserved(w, &rep.stats) && fingerprint(&rep.stats) == expected;
        if !ok {
            failed += 1;
            notes.push(format!(
                "repetition {i} failed a check: {:.0} cycles/s, routing failures {}, \
                 delivered {} injected {}, latency total {}",
                rep.cycles_per_sec(),
                rep.stats.routing_failures,
                rep.stats.delivered_packets,
                rep.stats.injected_packets,
                rep.stats.total_packet_latency
            ));
        }
    }
    if let Some(reference) = reference(w) {
        let theirs = fingerprint(&reference.run(seed)?.stats);
        if theirs != expected {
            failed = errors + reps.len() as u64;
            notes.push(format!(
                "differs from the {:?} reference: {:?} vs {:?}",
                w.reference, expected, theirs
            ));
        }
    }

    let column = |f: fn(&Rep) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>());
    let summaries = vec![
        column(Rep::cycles_per_sec),
        column(|r| r.cpu_cycles as f64 / r.cpu.as_secs_f64()),
        column(|r| r.wall.as_nanos() as f64 / r.stats.activity.crossbar_transits as f64),
        column(|r| r.setup().as_secs_f64()),
        summarize(&[peak_rss]),
    ];
    let metrics = crate::metrics::END_TO_END
        .iter()
        .zip(&summaries)
        .map(|((name, unit, _, _), s)| (name.to_string(), s.median, unit.to_string()))
        .collect();
    Ok(EndToEnd {
        outcome: Outcome {
            correct: failed == 0,
            attempted: errors + reps.len() as u64,
            failed,
            metrics,
        },
        summaries,
        notes,
    })
}
