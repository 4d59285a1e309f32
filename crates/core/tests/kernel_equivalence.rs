//! Kernel-vs-interpreter equivalence: the compiled SoA cycle kernel
//! ([`hornet_net::kernel::MeshKernel`]) must be *bit-identical* to the
//! per-router interpreter — not just in aggregate statistics but in the
//! canonical flit-lifecycle trace (every inject, route decision and eject,
//! cycle-stamped per tile).
//!
//! Covered here:
//! * property-tested equivalence over random mesh sizes, injection rates,
//!   seeds, thread counts, (bit-exact) synchronization modes and routing
//!   kinds — table-driven XY and congestion-aware `AdaptiveMinimal`, whose
//!   RC stage probes downstream free space and draws tie-breaks from the
//!   tile's RNG;
//! * loose synchronization: the same statistics (every offered packet
//!   delivered once, same hops, same latencies) with either execution path;
//! * mid-run snapshot/restore: a kernel run cut at an arbitrary cycle and
//!   resumed must still match an uninterrupted interpreter run;
//! * fallback: the structural configuration the kernel cannot specialize
//!   (more than 64 VCs on one tile) silently selects the interpreter, even
//!   under [`KernelMode::Force`], and still produces identical results —
//!   routing is never such a configuration;
//! * one engine switched between thread counts mid-run: the network's
//!   persistent kernel is rebuilt whenever its tiles were lent out;
//! * unroutable packets: the `Dropping` path, which ordinary traffic never
//!   takes, drains identically through the kernel's masks;
//! * `offered_packets` is counted, and counted identically, on every path;
//! * pinned totals of one congested XY run and one adaptive run: kernel and
//!   interpreter share their stage bodies, so a stage that refuses work it
//!   may not refuse changes both alike — only a fixed expectation sees it.
//!
//! All comparisons pin the mode programmatically ([`KernelMode::Force`] /
//! [`KernelMode::Off`]), which is immune to the `HORNET_KERNEL` environment
//! override (that only applies to [`KernelMode::Auto`]).

use hornet_core::engine::{EngineConfig, ParallelEngine, SyncMode};
use hornet_net::config::NetworkConfig;
use hornet_net::geometry::Geometry;
use hornet_net::kernel::KernelMode;
use hornet_net::network::Network;
use hornet_net::routing::RoutingKind;
use hornet_net::stats::NetworkStats;
use hornet_net::vca::VcAllocKind;
use hornet_obs::trace::TraceDump;
use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use proptest::prelude::*;
use std::sync::Arc;

/// Ring capacity large enough that no test run drops trace events (a drop
/// would silently shrink the compared set).
const TRACE_CAPACITY: usize = 1 << 15;

struct Case {
    width: usize,
    height: usize,
    routing: RoutingKind,
    /// VCs per ingress port, injection port included.
    vcs_per_port: usize,
    /// Leave every third source's flow out of the routing tables, so its
    /// packets fail route computation and are discarded.
    unroutable: bool,
    seed: u64,
    rate: f64,
    max_packets: Option<u64>,
}

impl Case {
    fn mesh(width: usize, height: usize, seed: u64, rate: f64) -> Self {
        Self {
            width,
            height,
            routing: RoutingKind::Xy,
            vcs_per_port: 4,
            unroutable: false,
            seed,
            rate,
            max_packets: None,
        }
    }

    fn network(&self) -> Network {
        let geometry = Arc::new(Geometry::mesh2d(self.width, self.height));
        let pattern = SyntheticPattern::Transpose;
        let mut flows = flows_for_pattern(&pattern, &geometry);
        if self.unroutable {
            flows.retain(|f| f.src.index() % 3 != 0);
        }
        let cfg = NetworkConfig::new((*geometry).clone())
            .with_routing(self.routing)
            .with_vca(VcAllocKind::Dynamic)
            .with_vcs(self.vcs_per_port, 4)
            .with_flows(flows);
        let mut network = Network::new(&cfg, self.seed).expect("valid config");
        for node in geometry.nodes() {
            network.attach_agent(
                node,
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Bernoulli { rate: self.rate },
                        packet_len: 4,
                        stop_after: None,
                        max_packets: self.max_packets,
                    },
                )),
            );
        }
        network
    }

    fn engine(&self, threads: usize, sync: SyncMode, kernel: KernelMode) -> ParallelEngine {
        let mut engine = ParallelEngine::from_network(
            self.network(),
            EngineConfig {
                threads,
                sync,
                fast_forward: false,
                kernel,
            },
        );
        engine.enable_tracing(TRACE_CAPACITY);
        engine
    }

    /// Runs `cycles` with the given backend and kernel selection; returns
    /// the stats and the canonical flit trace.
    fn run(
        &self,
        threads: usize,
        sync: SyncMode,
        kernel: KernelMode,
        cycles: u64,
    ) -> (NetworkStats, TraceDump) {
        let mut engine = self.engine(threads, sync, kernel);
        engine.run(cycles);
        let trace = engine.drain_trace().flit_events();
        (engine.stats(), trace)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline property: over random mesh shapes, loads, seeds, thread
    /// counts, bit-exact sync modes and routing kinds (table-driven XY or
    /// congestion-aware adaptive), forcing the kernel and forcing the
    /// interpreter produce identical `NetworkStats` *and* identical
    /// canonical flit traces.
    #[test]
    fn kernel_is_bit_identical_to_interpreter(
        width in 2usize..6,
        height in 2usize..6,
        seed in 1u64..10_000,
        rate_pct in 1u32..12,
        threads in 1usize..5,
        sync_sel in 0u8..3,
        adaptive in any::<bool>(),
    ) {
        let sync = match sync_sel {
            0 => SyncMode::CycleAccurate,
            1 => SyncMode::Slack(0),
            _ => SyncMode::Periodic(1),
        };
        let routing = if adaptive { RoutingKind::AdaptiveMinimal } else { RoutingKind::Xy };
        let case = Case {
            routing,
            ..Case::mesh(width, height, seed, f64::from(rate_pct) / 100.0)
        };
        let cycles = 1_200;
        let (ks, kt) = case.run(threads, sync, KernelMode::Force, cycles);
        let (is, it) = case.run(threads, sync, KernelMode::Off, cycles);
        prop_assert_eq!(&ks, &is, "stats diverge ({threads} threads, {sync:?}, {routing:?})");
        prop_assert_eq!(kt.events.len(), it.events.len(), "trace length diverges");
        prop_assert_eq!(kt.dropped, 0, "trace ring overflowed; grow TRACE_CAPACITY");
        prop_assert_eq!(kt, it, "canonical flit traces diverge");
        // Sanity: the workload actually exercised the network.
        prop_assert!(ks.injected_flits > 0, "case offered no traffic");
    }
}

/// Loose synchronization is a deterministic model too: with a bounded
/// offered load run to completion, both execution paths deliver every
/// packet exactly once over identical routes with identical latencies. The
/// stop cycle is left out: completion is noticed at a host-timed moment.
#[test]
fn loose_sync_kernel_matches_interpreter_functionally() {
    let mut case = Case::mesh(4, 4, 77, 0.05);
    case.max_packets = Some(40);
    for sync in [SyncMode::Periodic(5), SyncMode::Slack(3)] {
        let mut kernel = case.engine(4, sync, KernelMode::Force);
        let mut interp = case.engine(4, sync, KernelMode::Off);
        assert!(kernel.run_to_completion(200_000), "kernel run must drain");
        assert!(interp.run_to_completion(200_000), "interp run must drain");
        let (k, i) = (kernel.stats(), interp.stats());
        assert_eq!(k.injected_packets, i.injected_packets, "{sync:?}");
        assert_eq!(k.delivered_packets, i.delivered_packets, "{sync:?}");
        assert_eq!(k.delivered_flits, i.delivered_flits, "{sync:?}");
        assert_eq!(k.injected_flits, i.injected_flits, "{sync:?}");
        assert_eq!(k.total_packet_latency, i.total_packet_latency, "{sync:?}");
        assert_eq!(k.total_hops, i.total_hops, "{sync:?}");
        assert_eq!(k.latency_histogram, i.latency_histogram, "{sync:?}");
        assert_eq!(k.busy_cycles, i.busy_cycles, "{sync:?}");
    }
}

/// A kernel run snapshotted at an arbitrary cycle and resumed (still on the
/// kernel) must match an *uninterrupted interpreter* run bit-for-bit — the
/// kernel keeps no authoritative state, so a snapshot taken between cycles
/// is exactly the interpreter's snapshot.
#[test]
fn kernel_snapshot_roundtrip_matches_uninterrupted_interpreter() {
    let cases = [
        Case::mesh(5, 4, 913, 0.06),
        Case {
            routing: RoutingKind::AdaptiveMinimal,
            ..Case::mesh(5, 4, 914, 0.06)
        },
    ];
    let total = 1_500;
    for (case, cut) in cases
        .iter()
        .flat_map(|c| [1, 239, 1_499].map(|cut| (c, cut)))
    {
        let routing = case.routing;
        let mut reference = case.network();
        reference.set_kernel_mode(KernelMode::Off);
        reference.run(total);

        let mut first = case.network();
        first.set_kernel_mode(KernelMode::Force);
        assert!(first.kernel_active(), "{routing:?} must compile");
        first.run(cut);
        let snap = first.snapshot();

        let mut resumed = case.network();
        resumed.set_kernel_mode(KernelMode::Force);
        resumed.restore(&snap).expect("snapshot restores");
        assert_eq!(resumed.cycle(), cut);
        resumed.run(total - cut);

        assert_eq!(
            resumed.stats(),
            reference.stats(),
            "{routing:?}, cut {cut}: kernel snapshot/resume must match uninterrupted interpreter"
        );
    }
}

/// One engine taken from the network's own loop to the sharded runtime and
/// back. The network keeps its compiled kernel across `run()` calls, so it
/// must drop it while the tiles are lent out (the shards rewire cut links and
/// advance router state) — the third leg would otherwise step stale masks.
#[test]
fn switching_thread_counts_mid_run_matches_straight_sequential() {
    let cases = [
        Case::mesh(4, 4, 57, 0.06),
        Case {
            routing: RoutingKind::AdaptiveMinimal,
            ..Case::mesh(4, 4, 58, 0.06)
        },
    ];
    let modes = [KernelMode::Force, KernelMode::Off];
    for (case, kernel) in cases.iter().flat_map(|c| modes.map(|k| (c, k))) {
        let routing = case.routing;
        let (stats, trace) = case.run(1, SyncMode::CycleAccurate, kernel, 3_000);
        let mut engine = case.engine(1, SyncMode::CycleAccurate, kernel);
        for threads in [1, 2, 1] {
            engine.set_config(EngineConfig {
                threads,
                ..*engine.config()
            });
            engine.run(1_000);
        }
        assert_eq!(engine.stats(), stats, "{routing:?}, {kernel:?}");
        assert_eq!(
            engine.drain_trace().flit_events(),
            trace,
            "{routing:?}, {kernel:?}"
        );
    }
}

/// The structural configurations the kernel cannot specialize fall back to
/// the interpreter even under `Force` — silently, and with identical results.
/// Routing is not among them: an adaptive fabric compiles.
#[test]
fn exotic_configs_fall_back_to_the_interpreter() {
    let exotic = [
        // 16 VCs/port: a mesh interior tile has four neighbour ports plus the
        // injection port, 80 VCs — more than one mask word. Corner and edge
        // tiles (48 and 64 VCs) would fit; one oversized tile disqualifies.
        Case {
            vcs_per_port: 16,
            ..Case::mesh(4, 4, 34, 0.06)
        },
    ];
    for case in exotic {
        let mut forced = case.network();
        forced.set_kernel_mode(KernelMode::Force);
        assert!(
            !forced.kernel_active(),
            "ineligible config must not compile a kernel"
        );
        forced.run(1_000);

        let mut interp = case.network();
        interp.set_kernel_mode(KernelMode::Off);
        interp.run(1_000);

        assert_eq!(forced.stats(), interp.stats(), "fallback must be exact");
        assert!(forced.stats().injected_flits > 0, "case offered no traffic");
    }
    // And the plain meshes really do compile — whatever the routing — so the
    // negative assertions above are meaningful.
    for routing in [RoutingKind::Xy, RoutingKind::AdaptiveMinimal] {
        let case = Case {
            routing,
            ..Case::mesh(4, 4, 33, 0.06)
        };
        let mut plain = case.network();
        plain.set_kernel_mode(KernelMode::Force);
        assert!(plain.kernel_active(), "plain {routing:?} mesh must compile");
        plain.set_kernel_mode(KernelMode::Off);
        assert!(!plain.kernel_active(), "Off must interpret {routing:?}");
    }
}

/// Packets without a route are discarded flit by flit — the `Dropping` state,
/// which routable traffic never enters. The kernel reaches it only through
/// its `dropping` mask, so this fails if that mask is not maintained.
#[test]
fn unroutable_packets_drain_identically_through_the_kernel() {
    let case = Case {
        unroutable: true,
        ..Case::mesh(4, 4, 41, 0.08)
    };
    let mut plain = case.network();
    plain.set_kernel_mode(KernelMode::Force);
    assert!(plain.kernel_active(), "missing routes must not disqualify");
    for threads in [1, 2] {
        let sync = SyncMode::CycleAccurate;
        let (ks, kt) = case.run(threads, sync, KernelMode::Force, 1_500);
        let (is, it) = case.run(threads, sync, KernelMode::Off, 1_500);
        assert!(is.routing_failures > 0, "case dropped nothing");
        assert!(is.delivered_packets > 0, "case delivered nothing");
        assert_eq!(ks, is, "stats diverge ({threads} threads)");
        assert_eq!(kt, it, "canonical flit traces diverge ({threads} threads)");
    }
}

/// Every packet an agent hands to its tile is counted once, whichever path
/// steps the tiles, and bounds what was injected and delivered.
#[test]
fn offered_packets_are_counted_identically_on_every_path() {
    let case = Case::mesh(4, 4, 5, 0.06);
    let sync = SyncMode::CycleAccurate;
    let (seq, _) = case.run(1, sync, KernelMode::Force, 2_000);
    assert!(seq.offered_packets > 0, "case offered no traffic");
    assert!(seq.delivered_packets <= seq.injected_packets);
    assert!(seq.injected_packets <= seq.offered_packets);
    let (threaded, _) = case.run(2, sync, KernelMode::Force, 2_000);
    let (interp, _) = case.run(1, sync, KernelMode::Off, 2_000);
    assert_eq!(threaded.offered_packets, seq.offered_packets);
    assert_eq!(interp.offered_packets, seq.offered_packets);
}

/// The two enumerations call the same stage bodies, so a stage that skips a
/// step it may not skip (VA's "every out-VC of the port is owned" early
/// return widened to "any", say) changes both alike and every comparison
/// above still passes. These totals — 4×4 transpose at 0.10, seed 2024,
/// 2 000 cycles — pin the simulation itself; a change that moves them has
/// changed results or RNG streams, and must say so.
#[test]
fn stage_bodies_reproduce_the_pinned_totals() {
    // (routing, [offered, injected, delivered packets, delivered flits,
    //  packet latency, hops, arbitrations, crossbar transits, link flits])
    let pinned = [
        (
            RoutingKind::Xy,
            [
                3204, 3046, 2957, 11860, 108_976, 8955, 131_610, 48_073, 36_213,
            ],
        ),
        (
            RoutingKind::AdaptiveMinimal,
            [
                3293, 3293, 3252, 13030, 71_880, 9759, 102_916, 52_318, 39_288,
            ],
        ),
    ];
    for (routing, want) in pinned {
        let case = Case {
            routing,
            ..Case::mesh(4, 4, 2024, 0.10)
        };
        for (threads, kernel) in [
            (1, KernelMode::Force),
            (1, KernelMode::Off),
            (2, KernelMode::Force),
        ] {
            let (s, _) = case.run(threads, SyncMode::CycleAccurate, kernel, 2_000);
            let have = [
                s.offered_packets,
                s.injected_packets,
                s.delivered_packets,
                s.delivered_flits,
                s.total_packet_latency,
                s.total_hops,
                s.activity.arbitrations,
                s.activity.crossbar_transits,
                s.activity.link_flits,
            ];
            assert_eq!(have, want, "{routing:?}, {threads} thread(s), {kernel:?}");
            assert_eq!(s.routing_failures, 0);
        }
    }
}
