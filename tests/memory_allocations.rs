//! A vector sum's load phase performs zero heap allocations once warm.
//!
//! A 4×4 mesh of MIPS-like cores runs `vector_sum_program` over MSI
//! coherence, each core on its own 4 096-word vector: 32 KiB, twice the
//! 16 KiB L1. The store phase grows every directory table and scratch
//! buffer to its working size. In the first half of the load phase that
//! follows, every line misses, the fills evict the dirty lines the stores
//! left and write them back over the network, and the directory serves the
//! reads from memory. Over that whole stretch the simulation must not
//! allocate at all — neither on the compiled kernel nor on the
//! interpreter: protocol messages travel as inline payloads, the L1 and the
//! directory append their outputs to buffers the tile's memory system
//! keeps, and a reassembly slot holds a packet's head flit and a count, not
//! its flits, so a mix of 2-flit control and 8-flit data packets grows
//! nothing once warm.
//!
//! What is counted is whole cycles: everything a core agent's tick does
//! (demultiplexing delivered packets, the core, the L1, the directory, the
//! delayed-message lanes, packetisation, the hand-off to the bridge's
//! backlog) and the network layer's own work (injection, routing,
//! reassembly, the payload store).
//!
//! The counting allocator is global to this test binary, so the binary
//! holds this one test, and counts only the allocations of the thread that
//! turns counting on: the one that runs the network.

use hornet::cpu::agent::{CoreAgent, CoreConfig};
use hornet::cpu::programs::vector_sum_program;
use hornet::net::agent::{NodeAgent, NodeIo};
use hornet::net::config::NetworkConfig;
use hornet::net::geometry::Geometry;
use hornet::net::ids::{Cycle, NodeId};
use hornet::net::kernel::KernelMode;
use hornet::net::network::Network;
use hornet::net::rng::TileRng;
use hornet::net::routing::FlowSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
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

const SIDE: usize = 4;
/// Words per core: 32 KiB against the default 16 KiB L1.
const WORDS: u64 = 4_096;
/// Load-phase cycles run before the window opens.
const WARMUP: Cycle = 500;
/// About the first half of the load phase: the stretch with writebacks.
const MEASURED: Cycle = 28_000;

/// The L1 counters of every core, summed.
#[derive(Default)]
struct Shared {
    stores: AtomicU64,
    loads: AtomicU64,
    writebacks: AtomicU64,
}

impl Shared {
    fn read(&self) -> [u64; 3] {
        [&self.stores, &self.loads, &self.writebacks].map(|c| c.load(Ordering::Relaxed))
    }
}

/// A core agent that adds its L1 counters' growth to `shared` after every
/// tick so the test can tell which phase the program is in.
struct Probed {
    core: CoreAgent,
    last: [u64; 3],
    shared: Arc<Shared>,
}

impl NodeAgent for Probed {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng) {
        self.core.tick(io, rng);
        let s = self.core.memory().l1_stats();
        let now = [s.stores, s.loads, s.writebacks];
        let sums = [
            &self.shared.stores,
            &self.shared.loads,
            &self.shared.writebacks,
        ];
        for ((sum, now), last) in sums.into_iter().zip(now).zip(self.last) {
            sum.fetch_add(now - last, Ordering::Relaxed);
        }
        self.last = now;
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.core.next_event(now)
    }

    fn finished(&self) -> bool {
        self.core.finished()
    }
}

/// What one load-phase window measured.
struct Window {
    allocations: u64,
    delivered: u64,
    loads: u64,
    writebacks: u64,
}

/// Runs the vector sum on `mode` into its load phase, warms up, and
/// measures one window.
fn load_phase_window(mode: KernelMode) -> Window {
    let geometry = Geometry::mesh2d(SIDE, SIDE);
    let nodes = SIDE * SIDE;
    let cfg = NetworkConfig::new(geometry.clone()).with_flows(FlowSpec::all_to_all(&geometry));
    let mut net = Network::new(&cfg, 1).expect("valid configuration");
    net.set_kernel_mode(mode);
    let shared = Arc::new(Shared::default());
    for node in 0..nodes {
        let core = CoreAgent::new(
            NodeId::from(node),
            nodes,
            vector_sum_program(0x1_0000 * (node as u64 + 1), WORDS),
            CoreConfig::default(),
        );
        net.attach_agent(
            NodeId::from(node),
            Box::new(Probed {
                core,
                last: [0; 3],
                shared: Arc::clone(&shared),
            }),
        );
    }
    assert_eq!(net.kernel_active(), mode == KernelMode::Force);
    let all_stores = nodes as u64 * WORDS;
    while shared.read()[0] < all_stores {
        assert!(net.cycle() < 1_000_000, "{mode:?}: the store phase ends");
        net.run(100);
    }
    net.run(WARMUP);
    let [_, loads, writebacks] = shared.read();
    let delivered = net.stats().delivered_packets;
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    net.run(MEASURED);
    COUNTING.with(|c| c.set(false));
    let [_, loads_after, writebacks_after] = shared.read();
    assert!(
        loads_after < all_stores,
        "{mode:?}: the window ends inside the load phase"
    );
    Window {
        allocations: ALLOCATIONS.with(Cell::get),
        delivered: net.stats().delivered_packets - delivered,
        loads: loads_after - loads,
        writebacks: writebacks_after - writebacks,
    }
}

#[test]
fn the_load_phase_of_a_vector_sum_allocates_nothing() {
    for mode in [KernelMode::Force, KernelMode::Off] {
        let w = load_phase_window(mode);
        assert!(
            w.loads > 20_000,
            "{mode:?}: {} loads in the window",
            w.loads
        );
        assert!(
            w.writebacks > 3_000,
            "{mode:?}: {} dirty evictions in the window",
            w.writebacks
        );
        assert!(
            w.delivered > 8_000,
            "{mode:?}: {} packets in the window",
            w.delivered
        );
        assert_eq!(
            w.allocations, 0,
            "{mode:?}: the simulation allocated {} times over {MEASURED} \
             load-phase cycles ({} packets delivered)",
            w.allocations, w.delivered
        );
    }
}
