//! A pass-through allocator that can count live heap bytes for the
//! per-layer memory metrics (`overlay.build_kb_per_node`,
//! `store.kb_per_sub`). Outside a counted window it adds one thread-local
//! flag test per call to the system allocator. Counting is per thread: the
//! benchmark drives everything from one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live-byte count while a window is open.
#[inline]
fn note(delta: i64) {
    // `try_with` only fails during thread teardown; nothing is counted then.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
        }
    });
}

pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only thread-local
// cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the net heap bytes it left
/// allocated (frees of memory allocated before the window count against
/// it, so keep such drops outside `f`).
pub fn live_bytes_of<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE_BYTES.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, LIVE_BYTES.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_the_closure_leaves_allocated() {
        let (kept, bytes) = live_bytes_of(|| {
            let scratch = vec![0u8; 1 << 20];
            drop(scratch);
            vec![0u64; 1000]
        });
        assert_eq!(kept.len(), 1000);
        assert_eq!(bytes, 8000);
    }
}
