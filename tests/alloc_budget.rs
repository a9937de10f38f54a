//! The op hot path's heap budget: a closed-loop mix of GETs and SETs on
//! 4 KiB values must cost at most 20 heap allocations per op, counted in
//! the simulation run alone (after the load, after the ops are admitted).
//!
//! The budget guards the transport's one allocation per message, the
//! fan-out's by-value reply handles, the single placement lookup per op
//! and chunk keys that share their user key. The count is deterministic
//! for a build, so a regression shows as an exact number, not as noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eckv::prelude::*;

/// Allocations the budget allows per op.
const BUDGET: f64 = 20.0;

/// Counts the calling thread's allocations; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down its locals may still free
    // and allocate; those calls go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// `GlobalAlloc` contract `System` meets holds for `Counting` too. The
// counter is a thread-local `Cell` with a const initializer and no
// destructor: bumping it never allocates or re-enters the allocator, and
// each test thread counts only its own allocations.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const CLIENTS: usize = 32;
const OPS_PER_CLIENT: usize = 100;
const RECORDS: usize = 640;
const VALUE_LEN: u64 = 4096;

fn key(i: usize) -> String {
    format!("user{i:08}")
}

/// Loads `RECORDS` keys, then runs `CLIENTS` clients of `OPS_PER_CLIENT`
/// alternating GETs and SETs, and holds the run to the budget.
fn assert_within_budget(scheme: Scheme) {
    let world = World::new(EngineConfig::new(
        ClusterConfig::new(ClusterProfile::SdscComet, 5, CLIENTS).client_nodes(4),
        scheme,
    ));
    let mut sim = Simulation::new();
    let load: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            (c..RECORDS)
                .step_by(CLIENTS)
                .map(|i| Op::set_synthetic(key(i), VALUE_LEN, i as u64))
                .collect()
        })
        .collect();
    run_workload(&world, &mut sim, load);
    world.reset_metrics();

    let ops: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            (0..OPS_PER_CLIENT)
                .map(|j| {
                    let i = (c * 37 + j * 11) % RECORDS;
                    if j % 2 == 0 {
                        Op::get(key(i))
                    } else {
                        Op::set_synthetic(key(i), VALUE_LEN, (c * OPS_PER_CLIENT + j) as u64)
                    }
                })
                .collect()
        })
        .collect();
    enqueue_workload(&world, &mut sim, ops);
    let before = allocs();
    sim.run();
    let run = allocs() - before;

    let m = world.metrics.borrow();
    let total = (CLIENTS * OPS_PER_CLIENT) as u64;
    assert_eq!(m.ops(), total, "{scheme}: every op completes");
    assert_eq!(m.errors, 0, "{scheme}: no op fails");
    let per_op = run as f64 / total as f64;
    eprintln!("{scheme}: {per_op:.2} allocations per op");
    assert!(per_op <= BUDGET, "{scheme}: {per_op:.2} allocations per op");
}

#[test]
fn era_ce_cd_stays_within_the_allocation_budget() {
    assert_within_budget(Scheme::era_ce_cd(3, 2));
}

#[test]
fn era_se_sd_stays_within_the_allocation_budget() {
    assert_within_budget(Scheme::era_se_sd(3, 2));
}
