//! Zero-allocation steady state, proven by a counting global allocator.
//!
//! The stepped engine recycles every per-period buffer: flood-tree buffers
//! through `TreeCache` / `FloodScratch`, the resolve scratch on `SteppedSim`
//! (the nodes in the scored area and the relay index over the tree's
//! members), query logs pre-reserved at admission, and hash maps (standing
//! queries, memoised tree costs) that keep their capacity once warm.
//! This test steps a steady workload (see `mobiquery_repro::steady`) with a
//! counting `#[global_allocator]` installed and asserts the warm loop's
//! heap-allocation delta is exactly zero per period boundary — not "small",
//! zero. Any new allocation on the hot path fails CI by name.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; this integration test is its own crate root, so the allow is scoped
// to exactly this file.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation (fresh allocs
/// and growing reallocs — the events a zero-alloc steady state must not
/// have; deallocations are free to happen and are not counted).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter increment,
// which cannot affect allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_stepped_period_allocates_exactly_zero() {
    const PERIODS: u64 = 24;
    let mut sim = mobiquery_repro::steady::warmed_sim(PERIODS, 4, 11);

    // Measure every remaining boundary except the last two: the final
    // boundary is resolve-only (a different shape from the steady state) and
    // stepping it leaves nothing to verify after.
    let mut measured = 0u64;
    while sim.next_boundary() + 2 <= sim.max_k() {
        let before = allocations();
        sim.step_period().expect("steady boundaries step cleanly");
        let delta = allocations() - before;
        measured += 1;
        assert_eq!(
            delta,
            0,
            "boundary {} allocated {delta} times in the warm steady state",
            sim.next_boundary() - 1
        );
    }
    assert!(
        measured >= 10,
        "too few boundaries measured ({measured}) for a meaningful steady-state claim"
    );

    // The run still finishes and resolves every period — the measured loop
    // was doing real protocol work, not an idle spin.
    sim.run_to_end().expect("tail boundaries step cleanly");
    let out = sim.finish();
    assert_eq!(out.users, 4);
    for log in &out.logs {
        assert_eq!(log.len() as u64, PERIODS);
    }
}
