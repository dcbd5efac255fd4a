//! Software prefetch hints for the single-threaded event loop.
//!
//! At the deployment sizes the roadmap aims for, every event lands on a
//! node last visited thousands of events ago, so an upcall starts with a
//! chain of cache misses: the node value, then the heap rows its pointers
//! name (routing table, location cache, logs). Once the node value is in,
//! those rows are independent loads that the handler merely *issues* one
//! after another. [`Simulator`](crate::Simulator) therefore gives every
//! node two chances to ask for its lines ahead of the upcall, through the
//! defaulted [`Node::prefetch`](crate::Node::prefetch) hook:
//!
//! * [`PrefetchStage::Node`] when a message to the node is queued — the
//!   lines of the node value itself, one simulated network delay early,
//!   and, the message being in hand, any line whose address depends on
//!   what it carries (the subscriber's dedup slot for a notification);
//! * [`PrefetchStage::Rows`] when an event for the node has just left the
//!   queue — what those lines point to, all at once instead of one miss
//!   behind the other.
//!
//! A hint has no architectural effect, so simulated results cannot depend
//! on it; a node that ignores the hook pays a bounds check per call.
//!
//! This module holds the workspace's only `unsafe` block in library
//! code; every other crate keeps `#![forbid(unsafe_code)]`. A hint is used
//! rather than a safe demand load (`black_box(field)`) because a load
//! blocks retirement until its line arrives and a hint does not: on the
//! benchmark's `route` workload demand loads gave half the gain.

/// Which of a node's cache lines a [`Node::prefetch`](crate::Node::prefetch)
/// call should ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchStage {
    /// A message to this node has just been queued: ask for the lines of
    /// the node value a handler reads first. Only fields at fixed offsets
    /// — following a pointer here would be the miss the hint is meant to
    /// hide — unless the queued message says which single row its handler
    /// will probe: that load is issued once and nothing waits on it.
    Node,
    /// An event for this node has just been taken off the queue and its
    /// upcall follows: ask for what the node's lines point to.
    Rows,
}

/// Bytes per cache line on every target this workspace is measured on.
const LINE: usize = 64;

/// Issues the hint for the line holding `at` (all cache levels). Empty on
/// targets other than x86_64, and under `--cfg cbps_no_prefetch`: the
/// build `ci.sh` proves hint-neutrality with (`tests/hint_neutrality.rs`).
#[inline(always)]
#[allow(unsafe_code)]
fn hint(at: *const u8) {
    #[cfg(all(target_arch = "x86_64", not(cbps_no_prefetch)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is a hint. It reads nothing architecturally
        // and cannot fault, whatever address it is given — valid, dangling
        // or unmapped — and SSE is part of the x86_64 baseline, so the
        // instruction exists wherever this block is compiled.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(at.cast::<i8>()) }
    }
    #[cfg(not(all(target_arch = "x86_64", not(cbps_no_prefetch))))]
    let _ = at;
}

/// Hints that the cache line holding the first byte of `at` will be read
/// soon.
#[inline(always)]
pub fn prefetch<T: ?Sized>(at: &T) {
    hint(std::ptr::from_ref(at).cast());
}

/// Hints every cache line `value` occupies — a struct's worth of fields,
/// or a slice's elements — wherever in its first line it starts.
#[inline(always)]
pub fn prefetch_span<T: ?Sized>(value: &T) {
    let first = std::ptr::from_ref(value).cast::<u8>();
    let bytes = std::mem::size_of_val(value);
    for line in 0..bytes / LINE {
        hint(first.wrapping_add(line * LINE));
    }
    // The last byte's line: the remainder, or the line a value that does
    // not start on a boundary spills into.
    hint(first.wrapping_add(bytes.saturating_sub(1)));
}

/// Hints the line of `slice[at]`; nothing when `at` is out of range, so
/// index arithmetic in a hook cannot panic.
#[inline]
pub fn prefetch_at<T>(slice: &[T], at: usize) {
    if let Some(element) = slice.get(at) {
        prefetch(element);
    }
}

/// Hints the line just past the end of `slice`: where the next element
/// pushed onto the vector it belongs to is written.
#[inline]
pub fn prefetch_tail<T>(slice: &[T]) {
    hint(slice.as_ptr_range().end.cast());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hints accept anything a reference can name, including nothing.
    #[test]
    fn hints_accept_every_shape_of_reference() {
        prefetch(&7u8);
        prefetch(&());
        prefetch("str");
        prefetch::<[u64]>(&[]);
        prefetch_span(&());
        prefetch_span::<[u64]>(&[]);
        prefetch_span(&[1u32]);
        prefetch_span(&[(); 100]);
        prefetch_span(&[[0u8; 200]; 3]);
        let long: Vec<u64> = (0..1000).collect();
        prefetch_span(&long[..]);
        prefetch_span(&long[3..12]);
        prefetch_span(&long);
        prefetch_at(&long, 999);
        prefetch_at(&long, 1000);
        prefetch_at::<u64>(&[], 0);
        prefetch_tail(&long);
        prefetch_tail::<u64>(&[]);
    }
}
