//! Hints that change no value: software prefetch for the single-threaded
//! event loop, and transparent huge pages for the node array.
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
//! Those lines are also far apart in the address space: at 10^5 nodes the
//! node array alone spans over 100 MB, so with 4 KiB pages nearly every
//! hop also misses the TLB. [`advise_huge_pages`] asks the kernel to back
//! the array's whole 2 MiB pages with transparent huge pages
//! (`madvise(MADV_HUGEPAGE)`); [`Simulator`](crate::Simulator) calls it
//! whenever the array is reserved or grows. The advice changes where bytes
//! live, never what they are, and a kernel that ignores it (THP `never`)
//! or applies it anyway (`always`) runs the same simulation.
//!
//! This module holds the workspace's only two `unsafe` blocks in library
//! code, the hint and the advice; every other crate keeps
//! `#![forbid(unsafe_code)]`. A hint is used rather than a safe demand
//! load (`black_box(field)`) because a load blocks retirement until its
//! line arrives and a hint does not: on the benchmark's `route` workload
//! demand loads gave half the gain.

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

/// Bytes in a transparent huge page on x86_64 Linux.
const HUGE_PAGE: usize = 2 << 20;

/// The whole 2 MiB pages inside `bytes` bytes from address `addr`, as
/// their aligned start and their total length; `None` when not one fits.
pub fn huge_page_span(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(bytes)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start, end - start))
}

/// Advises the kernel to back the whole 2 MiB pages of `buffer`'s
/// allocation — its capacity, not only its length — with transparent huge
/// pages. Issues no call when no whole page fits (a buffer under 2 MiB
/// never holds one); empty off Linux x86_64 and under
/// `--cfg cbps_no_prefetch`, like the hint.
#[allow(unsafe_code)]
pub fn advise_huge_pages<T>(buffer: &Vec<T>) {
    let bytes = buffer.capacity().saturating_mul(std::mem::size_of::<T>());
    let Some((start, len)) = huge_page_span(buffer.as_ptr() as usize, bytes) else {
        return;
    };
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(cbps_no_prefetch)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `MADV_HUGEPAGE` only marks the pages of
        // `[start, start + len)` as eligible for huge pages: it neither
        // reads nor writes nor unmaps them, and the kernel keeps their
        // contents when it collapses or splits them. The range lies inside
        // `buffer`'s own allocation and is 2 MiB-aligned, hence
        // page-aligned as the call requires. Failure (say, a kernel built
        // without THP) changes nothing, so the result is ignored.
        unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(cbps_no_prefetch))))]
    let _ = (start, len);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn huge_page_span_covers_only_whole_aligned_pages() {
        // Under 2 MiB: no whole page, aligned or not.
        assert_eq!(huge_page_span(2 * MIB, MIB), None);
        assert_eq!(huge_page_span(2 * MIB + 64, 2 * MIB - 1), None);
        // An unaligned start: the span begins at the next boundary.
        assert_eq!(huge_page_span(3 * MIB, 6 * MIB), Some((4 * MIB, 4 * MIB)));
        assert_eq!(huge_page_span(3 * MIB, 4 * MIB), Some((4 * MIB, 2 * MIB)));
        // An exact multiple from a boundary: all of it.
        assert_eq!(huge_page_span(4 * MIB, 6 * MIB), Some((4 * MIB, 6 * MIB)));
        // An unaligned start whose end falls on a boundary: up to the end.
        assert_eq!(
            huge_page_span(MIB + 4096, 5 * MIB - 4096),
            Some((2 * MIB, 4 * MIB))
        );
        // Zero bytes, at a boundary or not.
        assert_eq!(huge_page_span(2 * MIB, 0), None);
        assert_eq!(huge_page_span(3 * MIB, 0), None);
        // Near the top of the address space nothing overflows.
        assert_eq!(huge_page_span(usize::MAX - MIB, 4 * MIB), None);
    }

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
