//! Allocation gate for the link-state path: a warm link flap allocates
//! nothing.
//!
//! Every LSA application used to run a full Dijkstra that built a fresh
//! SPF tree (about 34 heap allocations each). The incremental SPF update
//! rewrites the view's tree in place with buffers the control database
//! keeps, and the FEC repair touches only the tunnels whose route moved.
//! This binary counts heap allocations with its own global allocator and
//! pins the exact count of a flap on the `national` backbone (no sites,
//! Oracle mode) once a first identical flap has warmed every buffer. A
//! return to per-LSA allocation fails here.
//!
//! The count covers the two `reconverge()` calls: detection, LSA
//! origination and flooding, every view's SPF update, tunnel repair and
//! the LDP session refresh, all delivered by Oracle delivery. `fail_link`
//! and `repair_link` themselves only arm detection timers, which stay in
//! the simulator's calendar here because the simulator never runs; its
//! storage for them grows now and then, and is not control-plane work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mplsvpn_core::{BackboneBuilder, ProviderNetwork};
use netsim_routing::{LinkAttrs, Topology};

thread_local! {
    // Const-initialised and drop-free: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting the calling thread's
/// allocations (a `realloc` counts as one).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The `national` backbone: a ring of 8 P routers with one PE on each,
/// 1 Gb/s everywhere. Links 0–7 form the ring.
fn national() -> (Topology, Vec<usize>) {
    let attrs = LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 };
    let mut t = Topology::new(8);
    for i in 0..8 {
        t.add_link(i, (i + 1) % 8, attrs);
    }
    let pes = (0..8).map(|k| {
        let pe = t.add_node();
        t.add_link(pe, k, attrs);
        pe
    });
    let pes = pes.collect();
    (t, pes)
}

/// Cuts ring link 0 and reconverges, then repairs it and reconverges:
/// every view updates its SPF tree twice and repairs its tunnels. Returns
/// the LSAs delivered and the allocations the two reconvergences made.
fn flap(pn: &mut ProviderNetwork) -> (u64, u64) {
    let mut lsas = 0;
    let mut spent = 0;
    for repair in [false, true] {
        if repair {
            pn.repair_link(0);
        } else {
            pn.fail_link(0);
        }
        let before = allocs();
        lsas += pn.reconverge().igp_lsa_messages;
        spent += allocs() - before;
    }
    (lsas, spent)
}

#[test]
fn a_warm_link_flap_allocates_nothing() {
    let (topo, pes) = national();
    let mut pn = BackboneBuilder::new(topo, pes).build();
    let (_, cold) = flap(&mut pn);
    assert!(cold > 0, "the first flap sizes the buffers");
    let (lsas, spent) = flap(&mut pn);
    assert!(lsas > 0, "the flap reached every view");
    assert_eq!(spent, 0, "allocations in a warm flap");
}
