//! Allocation budget of trace generation: a workload object owns no heap
//! memory unless its bounding box needs three HTM ranges or more.
//!
//! This file holds one test on purpose: the counting allocator sees every
//! allocation of the process, so no other test may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use liferaft_workload::{TraceGenerator, WorkloadConfig};

/// Counts calls that obtain memory (`alloc`, `alloc_zeroed`, `realloc`) and
/// delegates every call to the system allocator.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, since every
        // allocation of this process goes through this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn trace_generation_allocates_far_less_than_once_per_object() {
    let generator = TraceGenerator::new(WorkloadConfig::paper_like(12, 2_048, 200, 77));
    let before = CALLS.load(Ordering::Relaxed);
    let trace = generator.generate_seeded();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let objects = trace.total_objects();
    let per_object = calls as f64 / objects as f64;
    assert!(
        objects > 50_000,
        "the trace is too small to judge: {objects} objects"
    );
    assert!(
        per_object < 0.1,
        "{calls} allocations for {objects} objects = {per_object:.3} per object"
    );
}
