//! The executive's heap traffic is part of its wall cost (ROADMAP open
//! item 2): a steady-state frame of the paper's rig and the build of a rack
//! must each stay inside a fixed allocation budget, counted by a
//! `#[global_allocator]` that wraps the system allocator. The budgets are the
//! numbers the follow-up work drives toward zero; raise one only with a
//! measurement that says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crane_sim::{CraneSimulator, FidelityTier, OperatorKind, SimulatorConfig};

/// Mean heap allocations allowed per steady-state executive frame (75.2
/// measured since the audio LP renders into a buffer it keeps; 76.2 before).
const BUDGET_PER_FRAME: f64 = 75.2;
const WARM_UP_FRAMES: usize = 500;
const MEASURED_FRAMES: usize = 1000;

/// Heap allocations allowed to build one rack once the process's training
/// world and class registry exist, per tier (370 and 295 measured; 1 593 and
/// 1 262 while every rack copied the registry's class tables, 6 381 and
/// 3 656 while every rack also built its own worlds).
const BUDGET_PER_BUILD: [(FidelityTier, u64); 2] =
    [(FidelityTier::Full, 370), (FidelityTier::Coarse, 295)];

thread_local! {
    // Per thread, so the test harness's own threads never leak into the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator plus a per-thread count of `alloc` calls (`realloc`
/// and `alloc_zeroed` keep their default bodies, which go through `alloc`).
struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` without a destructor, so
// touching it from inside the allocator neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator, i.e.
        // from `System.alloc`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_frame_stays_inside_the_allocation_budget() {
    let config = SimulatorConfig {
        tier: FidelityTier::Full,
        operator: OperatorKind::Exam,
        display_width: 64,
        display_height: 48,
        ..SimulatorConfig::default()
    };
    let mut sim = CraneSimulator::new(config).unwrap();
    for _ in 0..WARM_UP_FRAMES {
        sim.step_frame().unwrap();
    }
    let before = allocations_on_this_thread();
    for _ in 0..MEASURED_FRAMES {
        sim.step_frame().unwrap();
    }
    let per_frame = (allocations_on_this_thread() - before) as f64 / MEASURED_FRAMES as f64;
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "a steady-state frame made {per_frame:.1} heap allocations, budget {BUDGET_PER_FRAME}"
    );
    println!("allocations per steady-state frame: {per_frame:.1}");
}

#[test]
fn rack_build_stays_inside_the_allocation_budget() {
    for (tier, budget) in BUDGET_PER_BUILD {
        let config = SimulatorConfig {
            tier,
            operator: OperatorKind::Exam,
            display_width: 64,
            display_height: 48,
            ..SimulatorConfig::default()
        };
        // The first build also builds the process's shared training world
        // and class registry.
        drop(CraneSimulator::new(config).unwrap());
        let before = allocations_on_this_thread();
        let _rack = CraneSimulator::new(config).unwrap();
        let allocations = allocations_on_this_thread() - before;
        assert!(
            allocations <= budget,
            "building a {tier:?} rack made {allocations} heap allocations, budget {budget}"
        );
        println!("allocations per {tier:?} rack build: {allocations}");
    }
}
