//! Counting-allocator proof that the frame pipeline is allocation-free.
//!
//! PR 3's contract: once a world is warmed up (buffer pools filled, event
//! slab and hash maps at their high-water sizes), dispatching events —
//! including every transmitted frame's scatter across receivers — touches
//! the heap zero times. This binary swaps in a counting global allocator
//! and drives a four-station saturated-UDP run in two segments: a warm-up
//! segment that is allowed to allocate, and a measured steady-state
//! segment that must not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use desim::{SimDuration, SimTime};
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::four_station::{figure, SessionTransport};
use dot11_testbed::adhoc::experiments::ExpConfig;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` verbatim; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_pipeline_does_not_allocate() {
    let cfg = ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_millis(250),
    };
    let mut world = figure(7)
        .scenario(cfg, SessionTransport::Udp, AccessScheme::Basic)
        .into_world();

    // Warm-up: pools, the event slab, and the in-flight map grow to their
    // steady-state footprint here.
    world.step_until(SimTime::ZERO + SimDuration::from_millis(500));

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    world.step_until(SimTime::ZERO + SimDuration::from_millis(1500));
    let during = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(
        during, 0,
        "steady-state second of four-station traffic hit the allocator \
         {during} times — the frame pipeline is supposed to reuse buffers"
    );
}
