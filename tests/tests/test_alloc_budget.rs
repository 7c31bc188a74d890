//! The executive's heap traffic is part of its wall cost (ROADMAP open
//! item 5): a steady-state frame of the paper's rig, the build of a rack and
//! the recycle of a pooled one must each stay inside a fixed allocation
//! budget, counted by a `#[global_allocator]` that wraps the system
//! allocator. The budgets are the numbers the follow-up work drives toward
//! zero; raise one only with a measurement that says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crane_sim::{CraneSimulator, FidelityTier, OperatorKind, SimulatorConfig};

/// Mean heap allocations allowed per steady-state executive frame (42.715
/// measured — exact over the 1000 measured frames — since the instructor
/// dropped its unread hook state; 43.715 since an attribute set
/// is its wire encoding, so a text attribute is no separate allocation when
/// a set is built or received; 45.715 since the frame-sync
/// server keeps its ready channels and stale frames in vectors instead of a
/// fresh B-tree map and set; 46.115 since the LAN keeps one slab of payloads,
/// the CB builds no interaction that no resident LP reads and the executive
/// keeps its cost buffer; 75.1 since the telemetry keeps the largest and
/// latest hook swing instead of every sample and no chassis track; 75.2 since
/// the audio LP renders into a buffer it keeps; 76.2 before).
const BUDGET_PER_FRAME: f64 = 42.715;
const WARM_UP_FRAMES: usize = 500;
const MEASURED_FRAMES: usize = 1000;

/// Heap allocations allowed to build one rack once the process's training
/// world and class registry exist, per tier (288 and 234 measured since the
/// audio LP starts a session on the mixer it keeps; 289 and 235 before; 292
/// and 239 before interaction groups and the unread hook state went; 307 and
/// 250 while the LAN kept its inboxes in a B-tree and every datagram in a
/// fresh `Arc` and the CB decoded into a receive buffer; 350 and
/// 279 while each CB kept a second subscription table, a setup map per
/// subscription and a map of retry timers, and its channels in a B-tree; 360
/// and 287 while the LAN sat behind a shared lock and kept each computer's
/// name, 370 and 295 while the CB kernel stored each LP's name, 1 593 and
/// 1 262 while every rack copied the registry's class tables, 6 381 and
/// 3 656 while every rack also built its own worlds).
const BUDGET_PER_BUILD: [(FidelityTier, u64); 2] =
    [(FidelityTier::Full, 288), (FidelityTier::Coarse, 234)];

/// Heap allocations allowed to re-stamp a pooled Full rack with another
/// shard's CPU speed and reset it for the next session (0 measured since the
/// audio LP resets its mixer in place; 1 while it built a fresh one): what a
/// fleet pays per recycled admission, whichever shard's pool the rack came
/// from.
const BUDGET_PER_RECYCLE: u64 = 0;

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
    println!("allocations per steady-state frame: {per_frame:.3}");
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

#[test]
fn recycling_a_pooled_rack_stays_inside_the_allocation_budget() {
    let config = SimulatorConfig {
        tier: FidelityTier::Full,
        operator: OperatorKind::Exam,
        display_width: 64,
        display_height: 48,
        cpu_speed: 2.0,
        ..SimulatorConfig::default()
    };
    // A session ran on the rack before it was pooled.
    let mut rack = CraneSimulator::new(config).unwrap();
    rack.run_frames(WARM_UP_FRAMES).unwrap();
    let before = allocations_on_this_thread();
    rack.set_cpu_speed(0.5);
    rack.reset_for_session(config.seed ^ 0x5EED).unwrap();
    let allocations = allocations_on_this_thread() - before;
    // At a budget of zero, "at most" is "exactly".
    assert!(
        allocations == BUDGET_PER_RECYCLE,
        "re-stamping and resetting a pooled Full rack made {allocations} heap allocations, \
         budget {BUDGET_PER_RECYCLE}"
    );
    println!("allocations to re-stamp and reset a pooled Full rack: {allocations}");
}
