//! A steady-state simulated cycle performs zero heap allocations.
//!
//! An 8×8 mesh with XY routing carries uniform-random Bernoulli traffic at
//! 0.01 packets per tile per cycle, well below saturation. After a warm-up
//! that grows every queue, map and scratch buffer to its working size, a
//! further window of cycles must not allocate at all — neither on the
//! compiled kernel nor on the interpreter. Injection is the part this pins
//! down: a packet waits in the bridge's backlog as a packed record and
//! its flits are built one by one as they enter the router.
//!
//! The counting allocator is global to this test binary, so the binary
//! holds this one test, and counts only the allocations of the thread that
//! turns counting on.

use hornet::net::config::NetworkConfig;
use hornet::net::geometry::Geometry;
use hornet::net::kernel::KernelMode;
use hornet::net::network::Network;
use hornet::net::routing::{FlowSpec, RoutingKind};
use hornet::traffic::injector::{SyntheticConfig, SyntheticInjector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-locals, which neither
// allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Long enough for the structures that grow to a high-water mark — each
/// tile's per-flow delivery map (63 flows), reassembly slab and payload-store
/// shard — to reach it.
const WARMUP: u64 = 50_000;
const MEASURED: u64 = 5_000;

/// Builds the 8×8 uniform-random network on `mode`, warms it up, and returns
/// the allocations of the measured window with the packets it delivered.
fn steady_state(mode: KernelMode) -> (u64, u64) {
    let geometry = Geometry::mesh2d(8, 8);
    let cfg = NetworkConfig::new(geometry.clone())
        .with_routing(RoutingKind::Xy)
        .with_flows(FlowSpec::all_to_all(&geometry));
    let mut net = Network::new(&cfg, 7).expect("valid configuration");
    net.set_kernel_mode(mode);
    let geometry = Arc::new(geometry);
    for node in geometry.nodes() {
        let traffic = SyntheticConfig::default();
        net.attach_agent(
            node,
            Box::new(SyntheticInjector::new(Arc::clone(&geometry), traffic)),
        );
    }
    assert_eq!(net.kernel_active(), mode == KernelMode::Force);
    net.run(WARMUP);
    let before = net.stats().delivered_packets;
    let allocations = allocations_during(|| net.run(MEASURED));
    (allocations, net.stats().delivered_packets - before)
}

#[test]
fn a_steady_state_cycle_allocates_nothing() {
    for mode in [KernelMode::Force, KernelMode::Off] {
        let (allocations, delivered) = steady_state(mode);
        assert!(delivered > 500, "{mode:?}: the window carries traffic");
        assert_eq!(
            allocations, 0,
            "{mode:?}: {allocations} heap allocations over {MEASURED} cycles \
             ({delivered} packets delivered)"
        );
    }
}
