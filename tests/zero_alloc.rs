//! Zero-allocation steady state and a bounded resident heap, proven by a
//! counting global allocator.
//!
//! The stepped engine recycles every per-period buffer: flood-tree buffers
//! through `TreeCache` / `FloodScratch`, the resolve scratch on `SteppedSim`
//! (the nodes in the scored area and the relay index over the tree's
//! members), query logs reserved at admission (a batch user's whole window,
//! a service user's one record, drained after every boundary), standing
//! queries kept in fixed slots on their user's row, and the memo of tree
//! costs, a hash map that keeps its capacity once warm. These tests step
//! steady workloads (see `mobiquery_repro::steady`) with a counting
//! `#[global_allocator]` installed and assert the warm loop's
//! heap-allocation delta is exactly zero per period boundary — not "small",
//! zero. Any new allocation on the hot path fails CI by name.
//!
//! The allocator also tracks the bytes live on the heap, so a third test
//! holds a resident service to what it promises: once its queries have
//! resolved and been polled, it keeps a fixed-size row per query served,
//! not the queries themselves.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; this integration test is its own crate root, so the allow is scoped
// to exactly this file.
#![allow(unsafe_code)]

use mobiquery_repro::mobiquery::sim::TreeSharing;
use mobiquery_repro::service::{QueryId, ServiceSim};
use mobiquery_repro::steady;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation (fresh allocs
/// and reallocs — the events a zero-alloc steady state must not have;
/// deallocations are free to happen and are not counted) and the bytes live.
struct CountingAlloc;

// Per thread: the engines run on the calling thread, while the test
// harness allocates on its own threads whenever another test finishes.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(allocs: u64, live: isize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are updates of thread-local
// counters that need no allocation, which cannot affect allocation
// behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        count(
            1,
            if ptr.is_null() {
                0
            } else {
                layout.size() as isize
            },
        );
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(0, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        let grown = new_size as isize - layout.size() as isize;
        count(1, if moved.is_null() { 0 } else { grown });
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread allocated and has not freed.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

#[test]
fn warm_stepped_period_allocates_exactly_zero() {
    const PERIODS: u64 = 24;
    let mut sim = steady::warmed_sim(PERIODS, 4, 11);

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

/// Lifetime of the short queries the service tests submit, in periods.
const LIFETIME: u64 = 3;

/// A service on `steady::scenario(periods, 11)`, submitting `per_boundary`
/// queries of [`LIFETIME`] periods at every boundary that can still admit
/// one, and polling every standing query after each boundary, as a resident
/// client does. `measure(b, allocations)` sees each boundary's
/// `step_period` allocation count. Returns the service after its final
/// boundary, every result polled.
fn drained_service(
    periods: u64,
    per_boundary: usize,
    resident: bool,
    mut measure: impl FnMut(u64, u64),
) -> ServiceSim {
    let scenario = steady::scenario(periods, 11);
    let mut spec = scenario.query.clone();
    let mut svc =
        ServiceSim::new(scenario, TreeSharing::Shared).expect("the probe scenario is valid");
    let max_k = svc.max_k();
    // Each standing query, with its last period.
    let mut standing: Vec<(QueryId, u64)> = Vec::with_capacity(64);
    if resident {
        // One query for the whole horizon keeps the one tree standing.
        spec.lifetime = spec.period * max_k;
        standing.push((svc.submit(&spec).expect("admitted"), max_k));
    }
    spec.lifetime = spec.period * LIFETIME;
    while !svc.is_finished() {
        let b = svc.next_boundary();
        if b < max_k {
            for _ in 0..per_boundary {
                let id = svc.submit(&spec).expect("admitted");
                standing.push((id, (b + LIFETIME).min(max_k)));
            }
        }
        let before = allocations();
        svc.step_period().expect("service boundaries step cleanly");
        measure(b, allocations() - before);
        for &(id, _) in &standing {
            svc.poll(id).expect("issued ids poll");
        }
        standing.retain(|&(_, last_k)| last_k > b);
    }
    assert!(standing.is_empty(), "every query resolved");
    svc
}

#[test]
fn warm_service_boundary_with_polling_clients_allocates_exactly_zero() {
    // One resident query plus one short query arriving at every boundary:
    // queries join and leave at every measured boundary, at most four stand
    // at once, and the one lattice cell keeps one tree standing.
    let mut measured = 0u64;
    let svc = drained_service(24, 1, true, |b, delta| {
        // The final boundary only resolves: a different shape.
        if (steady::WARM_BOUNDARIES..24).contains(&b) {
            measured += 1;
            assert_eq!(
                delta, 0,
                "service boundary {b} allocated {delta} times in the warm steady state"
            );
        }
    });
    assert!(
        measured >= 10,
        "too few boundaries measured ({measured}) for a meaningful steady-state claim"
    );
    let counters = svc.finish();
    assert_eq!(counters.users, 1 + 24);
    assert_eq!(counters.installs, 24 + 22 * LIFETIME + 2 + 1);
}

#[test]
fn a_drained_service_retains_a_small_row_per_query_served() {
    // Live bytes a service holds once every query resolved and was polled,
    // and the queries it served.
    let retained = |periods: u64| {
        let before = live_bytes();
        let svc = drained_service(periods, 2, false, |_, _| {});
        (live_bytes() - before, svc.queries_submitted())
    };
    let (short, short_queries) = retained(16);
    let (long, long_queries) = retained(32);
    assert!(
        long_queries >= 2 * short_queries,
        "the long run serves more"
    );
    // The deployment and every buffer sized by the standing queries are the
    // same in both runs, so the difference is what each extra query left.
    let per_query = (long as f64 - short as f64) / (long_queries - short_queries) as f64;
    assert!(
        per_query <= 128.0,
        "each extra query served left {per_query:.0} B on the heap \
         ({short} B for {short_queries} queries, {long} B for {long_queries})"
    );
}
