//! Thread-local scratch pools for the routing hot path.
//!
//! The m-cast split runs once per hop of every multicast message — on the
//! figures workloads that is millions of calls — and hands back a list of
//! per-relay bundles. That list is recycled here through a small
//! thread-local free list, so a steady-state split performs no heap
//! allocation at all (the boundary list is the one buffer of
//! [`take_cuts`]; the bundle sets themselves are inline-first
//! [`KeyRangeSet`]s, which allocate only in the rare case that one spills
//! past its inline segments).
//!
//! [`Bundles`] is a safe plain wrapper around `Vec`: dropping one clears it
//! (dropping the member sets) and pushes the storage back onto the
//! current thread's free list. A simulator runs its nodes on
//! the one thread that drives it, so thread-local pooling needs no
//! synchronization.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

use crate::range::KeyRangeSet;
use crate::ring::Peer;

/// Buffers kept per thread. Splits are not recursive, so in
/// practice one or two buffers circulate; the cap only bounds pathological
/// callers that leak many at once.
const POOL_CAP: usize = 16;

thread_local! {
    static BUNDLES: RefCell<Vec<Vec<(Peer, KeyRangeSet)>>> = const { RefCell::new(Vec::new()) };
    static CUTS: Cell<Vec<(u64, u32)>> = const { Cell::new(Vec::new()) };
}

/// The thread's cut-list buffer for [`crate::split::Boundaries`], empty.
/// One slot: splits do not nest, and a second list alive at the same time
/// merely starts from an unallocated `Vec`.
pub(crate) fn take_cuts() -> Vec<(u64, u32)> {
    CUTS.take()
}

/// Hands a cut list's storage back for the next [`take_cuts`].
pub(crate) fn recycle_cuts(mut cuts: Vec<(u64, u32)>) {
    cuts.clear();
    CUTS.set(cuts);
}

/// The per-relay bundles produced by a `mcast_split`: recycled `Vec`
/// storage behind a `Deref` to `Vec<(Peer, KeyRangeSet)>`.
///
/// Consume it with `drain(..)` (or iterate by reference); dropping it —
/// drained or not — returns the buffer to the thread's pool.
#[derive(Debug, Default)]
pub struct Bundles(Vec<(Peer, KeyRangeSet)>);

impl Bundles {
    /// An empty bundle list, reusing pooled storage when available.
    pub fn take() -> Self {
        Bundles(BUNDLES.with(|p| p.borrow_mut().pop()).unwrap_or_default())
    }
}

impl Deref for Bundles {
    type Target = Vec<(Peer, KeyRangeSet)>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Bundles {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Drop for Bundles {
    fn drop(&mut self) {
        // Clearing drops the member range sets (freeing any spilled
        // segments); then the container itself goes back to the pool.
        self.0.clear();
        if self.0.capacity() == 0 {
            return;
        }
        let v = std::mem::take(&mut self.0);
        BUNDLES.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_CAP {
                p.push(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeySpace;

    #[test]
    fn bundles_recycle_storage() {
        let space = KeySpace::new(5);
        let peer = Peer {
            idx: 3,
            key: space.key(7),
        };
        let cap = {
            let mut b = Bundles::take();
            for _ in 0..10 {
                b.push((peer, KeyRangeSet::full(space)));
            }
            let cap = b.capacity();
            assert!(cap >= 10);
            cap
        }; // dropped → pooled
        let b = Bundles::take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "storage was not recycled");
    }
}
