//! Credit-counting distributed termination detection.
//!
//! The classic way to decide "the simulation is globally idle" is a global
//! barrier: every shard stops, publishes its state, a leader decides. That
//! rendezvous is exactly what limits scaling, so this module implements a
//! barrier-free scheme in the credit-counting family (Mattern's counting
//! methods, Dijkstra–Safra's coloured token): every flit handed to a boundary
//! transport carries an implicit *credit* (the sender's cumulative `sent`
//! counter), redeemed when the receiver moves it out of the transport (the
//! receiver's cumulative `recv` counter). A detector — the caller thread for
//! the in-process runtime, the coordinator process for the distributed
//! backend — declares quiescence only when, over one consistent observation,
//!
//! 1. every shard reports itself locally idle (no buffered flits, no pending
//!    injections, no in-flight transport flits), and
//! 2. the credits balance: `Σ sent == Σ recv`, so no flit is hiding in a
//!    transport, and
//! 3. (for completion) every agent reports finished.
//!
//! Shards publish their state through a [`ShardLedger`] — a seqlock whose
//! version only advances when the *content* changes, so an idle shard burning
//! cycles does not disturb the detector. A consistent observation is obtained
//! with two waves ([`QuiescenceScan`]): read every ledger, evaluate the
//! conditions, then re-read every version. If no version moved, all first-wave
//! values coexisted at one instant (any instant between the end of wave one
//! and the start of wave two), which makes the vector a consistent global
//! snapshot. Soundness then follows from two structural facts about the
//! simulator: a flit spends at least one cycle buffered in its sender's
//! router before crossing a boundary (so a sender that pushed since its last
//! publish was visibly busy, or the push is already in its published `sent`),
//! and spontaneous activity comes only from agents, which is what the
//! `finished` / `next_event` gates cover.

use hornet_net::network::skip_target;
use std::sync::atomic::{AtomicU64, Ordering};

/// The state one shard publishes for termination/fast-forward decisions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerState {
    /// Locally buffered flits + non-idle indicators + flits in flight in
    /// inbound transports. `0` = locally idle.
    pub busy: u64,
    /// All agents on this shard report completion.
    pub finished: bool,
    /// Earliest future cycle at which an agent wants to act
    /// (`u64::MAX` = none).
    pub next_event: u64,
    /// Cumulative flits handed to outbound boundary transports this run.
    pub sent: u64,
    /// Cumulative flits taken out of inbound boundary transports this run.
    pub recv: u64,
    /// The shard's clock (last completed negative edge) at publish time.
    pub cycle: u64,
}

/// One shard's published ledger: a seqlock over [`LedgerState`].
///
/// Writers call [`publish`](Self::publish) (single writer per ledger); any
/// number of readers may call [`read`](Self::read) concurrently. The version
/// advances only when the published content changes.
#[derive(Debug)]
pub struct ShardLedger {
    /// Even = stable, odd = write in progress. Starts at 0.
    version: AtomicU64,
    busy: AtomicU64,
    finished: AtomicU64,
    next_event: AtomicU64,
    sent: AtomicU64,
    recv: AtomicU64,
    cycle: AtomicU64,
}

/// The conservative initial state, as [`ShardLedger::new`].
impl Default for ShardLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardLedger {
    /// Creates a ledger in the conservative initial state: busy, unfinished,
    /// no events — a shard that has not yet published cannot contribute to a
    /// quiescence declaration.
    pub fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            busy: AtomicU64::new(1),
            finished: AtomicU64::new(0),
            next_event: AtomicU64::new(u64::MAX),
            sent: AtomicU64::new(0),
            recv: AtomicU64::new(0),
            cycle: AtomicU64::new(0),
        }
    }

    /// Publishes a new state (single-writer). The version is bumped by two,
    /// passing through an odd (write-in-progress) value so readers retry.
    /// Classic seqlock write protocol: the release fence keeps the field
    /// stores from being reordered before the odd version store, and the
    /// final release store publishes them to acquire readers.
    pub fn publish(&self, s: &LedgerState) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        self.busy.store(s.busy, Ordering::Relaxed);
        self.finished
            .store(u64::from(s.finished), Ordering::Relaxed);
        self.next_event.store(s.next_event, Ordering::Relaxed);
        self.sent.store(s.sent, Ordering::Relaxed);
        self.recv.store(s.recv, Ordering::Relaxed);
        self.cycle.store(s.cycle, Ordering::Relaxed);
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// The current version (even = stable).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Reads a consistent `(version, state)` pair (seqlock retry loop).
    pub fn read(&self) -> (u64, LedgerState) {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let s = LedgerState {
                busy: self.busy.load(Ordering::Relaxed),
                finished: self.finished.load(Ordering::Relaxed) != 0,
                next_event: self.next_event.load(Ordering::Relaxed),
                sent: self.sent.load(Ordering::Relaxed),
                recv: self.recv.load(Ordering::Relaxed),
                cycle: self.cycle.load(Ordering::Relaxed),
            };
            // The acquire fence keeps the field loads above from being
            // reordered past the validating version re-read: an unchanged
            // version then proves every field was read while the slot was
            // stable.
            std::sync::atomic::fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                return (v1, s);
            }
            std::hint::spin_loop();
        }
    }
}

/// Pure evaluation of the quiescence conditions over one consistent vector of
/// ledger states. This is the function the proptests drill: it must never
/// accept a vector with unbalanced credits or a busy shard.
pub fn credits_balance(states: &[LedgerState]) -> bool {
    let sent: u64 = states.iter().map(|s| s.sent).sum();
    let recv: u64 = states.iter().map(|s| s.recv).sum();
    states.iter().all(|s| s.busy == 0) && sent == recv
}

/// What a quiescence scan concluded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Quiescence {
    /// Some shard is busy, credits are outstanding, or the snapshot was torn.
    Active,
    /// Globally idle with balanced credits; `next_event` is the earliest
    /// future agent event (`u64::MAX` = none) and `finished` whether every
    /// agent completed. `cycle` is the newest shard clock in the snapshot.
    Idle {
        /// Every agent on every shard reports completion.
        finished: bool,
        /// Earliest future agent event across all shards.
        next_event: u64,
        /// Newest shard clock observed in the snapshot.
        cycle: u64,
    },
}

/// Two-wave consistent scan over a set of ledgers.
///
/// `read` returns the `(version, state)` of ledger `i` (wave one also uses
/// it); `reread_version` returns just the current version of ledger `i`. The
/// scan declares [`Quiescence::Idle`] only if the conditions hold on wave one
/// *and* no version moved by wave two.
pub struct QuiescenceScan {
    wave1: Vec<(u64, LedgerState)>,
}

impl QuiescenceScan {
    /// Runs the scan over `n` ledgers.
    pub fn run(
        n: usize,
        mut read: impl FnMut(usize) -> (u64, LedgerState),
        mut reread_version: impl FnMut(usize) -> u64,
    ) -> Quiescence {
        let mut scan = Self {
            wave1: Vec::with_capacity(n),
        };
        for i in 0..n {
            scan.wave1.push(read(i));
        }
        let states: Vec<LedgerState> = scan.wave1.iter().map(|&(_, s)| s).collect();
        if !credits_balance(&states) {
            return Quiescence::Active;
        }
        // Wave two: the evaluation above only describes a single instant if
        // no ledger was republished while we were reading.
        for (i, &(v1, _)) in scan.wave1.iter().enumerate() {
            if reread_version(i) != v1 {
                return Quiescence::Active;
            }
        }
        Quiescence::Idle {
            finished: states.iter().all(|s| s.finished),
            next_event: states
                .iter()
                .map(|s| s.next_event)
                .min()
                .unwrap_or(u64::MAX),
            cycle: states.iter().map(|s| s.cycle).max().unwrap_or(0),
        }
    }
}

/// Convenience: runs a [`QuiescenceScan`] over shared-memory ledgers.
pub fn scan_ledgers(ledgers: &[ShardLedger]) -> Quiescence {
    QuiescenceScan::run(
        ledgers.len(),
        |i| ledgers[i].read(),
        |i| ledgers[i].version(),
    )
}

/// What a detector does about a quiescence verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Every agent finished and the system drained: stop every shard.
    Stop,
    /// Nothing happens before this cycle: jump every clock to it.
    Skip(u64),
}

/// The one decision both detectors — the thread host's caller thread and
/// the distributed coordinator — take on a verdict: stop a completion run
/// whose agents all finished, otherwise, under fast-forward, jump to the
/// next event (capped at `end`, the cycle budget) if that lies beyond
/// `floor`. The caller supplies `floor` from what it knows of the shard
/// clocks and the targets it already published, so a jump some shard has
/// already simulated past — a no-op, or one re-published forever — is never
/// issued.
pub fn decide(
    verdict: Quiescence,
    completion: bool,
    fast_forward: bool,
    end: u64,
    floor: u64,
) -> Option<Directive> {
    let Quiescence::Idle {
        finished,
        next_event,
        ..
    } = verdict
    else {
        return None;
    };
    if completion && finished {
        return Some(Directive::Stop);
    }
    let target = skip_target(next_event, end);
    (fast_forward && target > floor).then_some(Directive::Skip(target))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_default_ledger_reads_busy_with_no_next_event() {
        let (version, state) = ShardLedger::default().read();
        assert_eq!(version, 0);
        assert!(state.busy > 0 && !state.finished);
        assert_eq!(state.next_event, u64::MAX);
    }

    fn idle(sent: u64, recv: u64) -> LedgerState {
        LedgerState {
            busy: 0,
            finished: true,
            next_event: u64::MAX,
            sent,
            recv,
            cycle: 10,
        }
    }

    #[test]
    fn balanced_idle_ledgers_are_quiescent() {
        let ledgers: Vec<ShardLedger> = (0..3).map(|_| ShardLedger::new()).collect();
        for (i, l) in ledgers.iter().enumerate() {
            l.publish(&idle(5 + i as u64, 6 + i as u64 % 2));
        }
        // sent = 5+6+7 = 18, recv = 6+7+6 = 19: unbalanced.
        assert_eq!(scan_ledgers(&ledgers), Quiescence::Active);
        for l in &ledgers {
            l.publish(&idle(4, 4));
        }
        assert_eq!(
            scan_ledgers(&ledgers),
            Quiescence::Idle {
                finished: true,
                next_event: u64::MAX,
                cycle: 10
            }
        );
    }

    #[test]
    fn in_flight_credit_blocks_quiescence() {
        let ledgers: Vec<ShardLedger> = (0..2).map(|_| ShardLedger::new()).collect();
        // Shard 0 sent a flit shard 1 has not yet received.
        ledgers[0].publish(&idle(3, 0));
        ledgers[1].publish(&idle(0, 2));
        assert_eq!(scan_ledgers(&ledgers), Quiescence::Active);
    }

    #[test]
    fn busy_shard_blocks_quiescence() {
        let ledgers: Vec<ShardLedger> = (0..2).map(|_| ShardLedger::new()).collect();
        ledgers[0].publish(&idle(1, 1));
        ledgers[1].publish(&LedgerState {
            busy: 2,
            ..idle(1, 1)
        });
        assert_eq!(scan_ledgers(&ledgers), Quiescence::Active);
    }

    #[test]
    fn unpublished_ledger_blocks_quiescence() {
        let ledgers: Vec<ShardLedger> = (0..2).map(|_| ShardLedger::new()).collect();
        ledgers[0].publish(&idle(0, 0));
        // Ledger 1 still holds the conservative initial state (busy).
        assert_eq!(scan_ledgers(&ledgers), Quiescence::Active);
    }

    #[test]
    fn version_movement_between_waves_blocks_quiescence() {
        let ledgers: Vec<ShardLedger> = (0..2).map(|_| ShardLedger::new()).collect();
        ledgers[0].publish(&idle(1, 1));
        ledgers[1].publish(&idle(0, 0));
        let verdict = QuiescenceScan::run(
            2,
            |i| ledgers[i].read(),
            |i| {
                // A publish sneaks in between the waves.
                ledgers[i].publish(&idle(0, 0));
                ledgers[i].version()
            },
        );
        assert_eq!(verdict, Quiescence::Active);
    }

    #[test]
    fn unfinished_and_next_event_are_reported() {
        let ledgers: Vec<ShardLedger> = (0..2).map(|_| ShardLedger::new()).collect();
        ledgers[0].publish(&LedgerState {
            finished: false,
            next_event: 120,
            ..idle(2, 1)
        });
        ledgers[1].publish(&LedgerState {
            next_event: 90,
            ..idle(1, 2)
        });
        assert_eq!(
            scan_ledgers(&ledgers),
            Quiescence::Idle {
                finished: false,
                next_event: 90,
                cycle: 10
            }
        );
    }

    #[test]
    fn decide_stops_finished_completion_runs_and_skips_past_the_floor() {
        let idle = |finished, next_event| Quiescence::Idle {
            finished,
            next_event,
            cycle: 10,
        };
        assert_eq!(decide(Quiescence::Active, true, true, 100, 0), None);
        assert_eq!(
            decide(idle(true, 50), true, true, 100, 0),
            Some(Directive::Stop)
        );
        // Not a completion run: a finished system still only skips.
        assert_eq!(
            decide(idle(true, 50), false, true, 100, 0),
            Some(Directive::Skip(49))
        );
        assert_eq!(decide(idle(false, 50), true, false, 100, 0), None);
        // The target is capped at the budget end and must clear the floor.
        assert_eq!(
            decide(idle(false, u64::MAX), false, true, 100, 20),
            Some(Directive::Skip(100))
        );
        assert_eq!(decide(idle(false, 50), false, true, 100, 50), None);
    }
}
