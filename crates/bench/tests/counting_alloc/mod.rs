//! The counting allocator of the allocation gates. Each gate is its own
//! integration-test binary (the counter is process-wide) and installs it
//! with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Heap allocations (including reallocations) made by the process so far.
/// Each gate reads the counter it pins and leaves the other alone.
#[allow(dead_code)]
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Requested bytes currently allocated and not yet freed (layout sizes:
/// what the program asked for, without the allocator's own overhead).
#[allow(dead_code)]
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] has read since the last [`reset_peak`] (or
/// since the process started).
#[allow(dead_code)]
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Starts a new high-water mark at the bytes live now.
#[allow(dead_code)]
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Adds `delta` to the live bytes and raises the high-water mark to them.
fn grow_live(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grow_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grow_live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // Counted as the move it may be: both blocks live at once.
        grow_live(new_size as i64);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}
