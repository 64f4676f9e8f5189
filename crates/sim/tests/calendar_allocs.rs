//! Allocation gate for the calendar: far timers on an idle network
//! allocate nothing once the wheel is warm.
//!
//! A timer armed 50 ms ahead lands in a level-1 wheel slot, cascades
//! through level 0 and fires from `cur`. Each slot `Vec` keeps its
//! capacity when it is drained, so allocations happen only while slots
//! are still cold: the first time the cursor reaches each of them, once
//! per wheel turn. After every slot the workload touches has held its
//! largest batch, arming and firing costs no allocation at all. This
//! binary counts heap allocations with its own global allocator and
//! pins that count at zero for batches of 1, 4 and 16 timers; a
//! calendar that allocates per timer fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim_sim::node::BlackHole;
use netsim_sim::{Network, NodeId, MSEC};

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

/// Rounds per phase: 600 × 60 ms = 36 s, two turns of the top wheel
/// level (about 17 s each), so the warm-up reaches every slot the
/// measured phase uses.
const ROUNDS: usize = 600;

/// Arms `batch` timers 50 ms ahead on `node` and runs 60 ms, so that
/// every one of them fires, `rounds` times. Returns the allocations made.
fn rounds(net: &mut Network, node: NodeId, batch: usize, rounds: usize) -> u64 {
    let before = allocs();
    for _ in 0..rounds {
        for token in 0..batch as u64 {
            net.arm_timer(node, 50 * MSEC, token);
        }
        let end = net.now() + 60 * MSEC;
        net.run_until(end);
    }
    allocs() - before
}

#[test]
fn warm_far_timers_allocate_nothing() {
    for batch in [1, 4, 16] {
        let mut net = Network::new();
        let node = net.add_node(Box::new(BlackHole::default()));
        net.add_node(Box::new(BlackHole::default()));
        let cold = rounds(&mut net, node, batch, ROUNDS);
        assert!(cold > 0, "the first turns size the wheel slots (batch {batch})");
        let fired = net.events_processed();
        let warm = rounds(&mut net, node, batch, ROUNDS);
        assert_eq!(net.events_processed() - fired, (batch * ROUNDS) as u64, "every timer fired");
        assert_eq!(warm, 0, "allocations in {ROUNDS} warm rounds of {batch} timers");
    }
}
