//! Threshold alerting over the live telemetry stream.
//!
//! The [`AlertEvaluator`] inspects every incoming [`TelemetrySample`]
//! against a small set of built-in rules — excessive slack-wait fraction,
//! cross-shard load imbalance, a shard that stopped advancing, dropped trace
//! events — and records **rising-edge** firings: a condition that stays true
//! across many samples fires once, then re-arms when it clears. Firings are
//! surfaced on the `/alerts` endpoint and as `logfmt` warnings, and are the
//! same online signal optimistic-sync straggler detection and load-aware
//! repartitioning will consume.

use crate::metrics::{max_over_mean, TelemetrySample};
use crate::olog_warn;

/// Where did the wall time go — waiting on neighbours? Fire when a
/// shard's slack-wait share of its attributed wall time exceeds this
/// fraction (the straggler's victim signal).
pub const MAX_WAIT_FRACTION: f64 = 0.75;

/// Where did the wall time go — one shard carrying more of the work? Fire
/// when max/mean compute time across shards (at least two reporting)
/// exceeds this ratio.
pub const MAX_LOAD_IMBALANCE: f64 = 1.5;

/// Is the run alive? Fire after this many consecutive samples from one
/// shard without its cycle counter advancing.
pub const NO_PROGRESS_SAMPLES: u32 = 3;

/// Is the trace of where the time went complete? Fire when a shard reports
/// more dropped trace events than this.
pub const MAX_TRACE_DROPS: u64 = 0;

/// One rising-edge alert firing.
#[derive(Clone, Debug)]
pub struct AlertFiring {
    /// Rule identifier (`stall_fraction`, `load_imbalance`, `no_progress`,
    /// `trace_drops`).
    pub rule: &'static str,
    /// Shard the rule fired for; `u32::MAX` for run-wide rules.
    pub shard: u32,
    /// Simulated cycle of the triggering sample.
    pub cycle: u64,
    /// Observed value that crossed the threshold.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Human-readable description.
    pub message: String,
}

/// Retained firings; older ones age out (the logfmt stream is the archive).
const MAX_FIRINGS: usize = 256;

/// Per-shard evaluation state.
#[derive(Clone, Copy, Debug, Default)]
struct ShardState {
    cycle: u64,
    stagnant: u32,
    compute_ns: u64,
    seen: bool,
}

/// Evaluates every incoming sample against the thresholds above and keeps
/// a bounded log of rising-edge firings.
#[derive(Debug, Default)]
pub struct AlertEvaluator {
    shards: Vec<(u32, ShardState)>,
    /// `(rule, shard)` pairs whose condition is currently true.
    active: Vec<(&'static str, u32)>,
    firings: Vec<AlertFiring>,
    total: u64,
}

impl AlertEvaluator {
    /// Feeds one sample through every rule.
    pub fn observe(&mut self, sample: &TelemetrySample) {
        let shard = sample.shard;
        let idx = match self.shards.iter().position(|(s, _)| *s == shard) {
            Some(i) => i,
            None => {
                self.shards.push((shard, ShardState::default()));
                self.shards.len() - 1
            }
        };
        {
            let st = &mut self.shards[idx].1;
            if st.seen && sample.cycle <= st.cycle {
                st.stagnant += 1;
            } else {
                st.stagnant = 0;
            }
            st.cycle = st.cycle.max(sample.cycle);
            st.compute_ns = sample.profile.compute_ns;
            st.seen = true;
        }
        let st = self.shards[idx].1;

        // Rule: slack-wait fraction of attributed wall time.
        let wait_frac = sample.profile.fractions()[1];
        self.set(
            "stall_fraction",
            shard,
            wait_frac > MAX_WAIT_FRACTION,
            wait_frac,
            MAX_WAIT_FRACTION,
            sample.cycle,
            || {
                format!(
                    "shard spends {:.0}% of wall time waiting",
                    wait_frac * 100.0
                )
            },
        );

        // Rule: no forward progress across consecutive samples.
        self.set(
            "no_progress",
            shard,
            st.stagnant >= NO_PROGRESS_SAMPLES,
            st.stagnant as f64,
            f64::from(NO_PROGRESS_SAMPLES),
            sample.cycle,
            || format!("cycle stuck at {} for {} samples", st.cycle, st.stagnant),
        );

        // Rule: the trace ring lost events.
        let drops = sample
            .metrics
            .iter()
            .find(|(n, _)| n == "trace_dropped")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        self.set(
            "trace_drops",
            shard,
            drops > MAX_TRACE_DROPS,
            drops as f64,
            MAX_TRACE_DROPS as f64,
            sample.cycle,
            || format!("trace ring dropped {drops} events"),
        );

        // Rule: cross-shard load imbalance (max/mean compute time).
        let computes: Vec<u64> = self
            .shards
            .iter()
            .filter(|(_, s)| s.seen && s.compute_ns > 0)
            .map(|(_, s)| s.compute_ns)
            .collect();
        let imbalance = max_over_mean(&computes);
        self.set(
            "load_imbalance",
            u32::MAX,
            computes.len() >= 2 && imbalance > MAX_LOAD_IMBALANCE,
            imbalance,
            MAX_LOAD_IMBALANCE,
            sample.cycle,
            || format!("max/mean shard compute time is {imbalance:.2}"),
        );
    }

    /// Rising-edge bookkeeping for one `(rule, shard)` condition.
    #[allow(clippy::too_many_arguments)]
    fn set(
        &mut self,
        rule: &'static str,
        shard: u32,
        cond: bool,
        value: f64,
        threshold: f64,
        cycle: u64,
        message: impl FnOnce() -> String,
    ) {
        let pos = self.active.iter().position(|a| *a == (rule, shard));
        match (cond, pos) {
            (true, None) => {
                self.active.push((rule, shard));
                let message = message();
                olog_warn!(
                    "alert",
                    { rule = rule, shard = shard, cycle = cycle },
                    "{}",
                    message
                );
                if self.firings.len() == MAX_FIRINGS {
                    self.firings.remove(0);
                }
                self.firings.push(AlertFiring {
                    rule,
                    shard,
                    cycle,
                    value,
                    threshold,
                    message,
                });
                self.total += 1;
            }
            (false, Some(i)) => {
                self.active.swap_remove(i);
            }
            _ => {}
        }
    }

    /// Firings recorded so far (bounded; oldest age out).
    pub fn firings(&self) -> &[AlertFiring] {
        &self.firings
    }

    /// Number of `(rule, shard)` conditions currently true.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Total firings since the evaluator was created (not bounded).
    pub fn total_firings(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StallProfile;

    fn sample(shard: u32, cycle: u64) -> TelemetrySample {
        TelemetrySample {
            shard,
            cycle,
            ..TelemetrySample::default()
        }
    }

    #[test]
    fn no_progress_fires_once_and_rearms() {
        crate::log::set_max_level(crate::log::Level::Off);
        let mut ev = AlertEvaluator::default();
        for _ in 0..=NO_PROGRESS_SAMPLES {
            ev.observe(&sample(0, 100)); // the last one fires
        }
        ev.observe(&sample(0, 100)); // still true → no second firing
        assert_eq!(ev.total_firings(), 1);
        assert_eq!(ev.active(), 1);
        ev.observe(&sample(0, 200)); // progress → re-arms
        assert_eq!(ev.active(), 0);
        for _ in 0..NO_PROGRESS_SAMPLES {
            ev.observe(&sample(0, 200));
        }
        assert_eq!(ev.total_firings(), 2, "fires again after re-arming");
        assert_eq!(ev.firings()[0].rule, "no_progress");
    }

    #[test]
    fn stall_fraction_and_trace_drops_fire() {
        crate::log::set_max_level(crate::log::Level::Off);
        let mut ev = AlertEvaluator::default();
        let mut s = sample(1, 500);
        s.profile = StallProfile {
            compute_ns: 10,
            wait_ns: 90,
            ingest_ns: 0,
            flush_ns: 0,
        };
        s.metrics.push(("trace_dropped".to_string(), 4));
        ev.observe(&s);
        let rules: Vec<&str> = ev.firings().iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"stall_fraction"), "rules: {rules:?}");
        assert!(rules.contains(&"trace_drops"), "rules: {rules:?}");
    }

    #[test]
    fn imbalance_needs_two_shards() {
        crate::log::set_max_level(crate::log::Level::Off);
        let mut ev = AlertEvaluator::default();
        let mut a = sample(0, 100);
        a.profile.compute_ns = 1_000;
        ev.observe(&a);
        assert_eq!(ev.total_firings(), 0, "one shard cannot be imbalanced");
        let mut b = sample(1, 100);
        b.profile.compute_ns = 10;
        ev.observe(&b);
        assert!(
            ev.firings().iter().any(|f| f.rule == "load_imbalance"),
            "max/mean ≈ 1.98 exceeds 1.5"
        );
        let global = ev
            .firings()
            .iter()
            .find(|f| f.rule == "load_imbalance")
            .unwrap();
        assert_eq!(global.shard, u32::MAX, "imbalance is run-wide");
    }
}
