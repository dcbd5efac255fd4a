//! Generation-checked slab pool for in-flight events.
//!
//! The event queue (a binary heap) moves entries on every push and pop,
//! sifting them along a path of the heap. Storing fat event payloads
//! inline (a routed envelope easily exceeds a hundred bytes) makes every
//! one of those moves a large memcpy. The pool fixes the payload in place
//! instead: events live in a slab, the queue orders 8-byte copyable
//! [`Handle`]s, and a payload is written into the slab once — when the
//! node sends it, before the simulator has decided its delay or whether it
//! is lost — and read out of it once, at pop time. A lost send is checked
//! in and out again without being queued.
//!
//! Freed slots are recycled through a free list, so steady-state
//! scheduling performs **zero heap allocations**: slab and free list reach
//! their high-water capacity during warm-up and the allocator is never
//! consulted again. A per-slot generation counter turns any stale-handle
//! use into an immediate panic instead of silently aliasing another
//! event's payload.

/// A ticket for one pooled event: slab slot plus the generation the slot
/// had when the event was inserted. 8 bytes, `Copy` — this is what the
/// event queue actually orders and moves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Handle {
    slot: u32,
    gen: u32,
}

struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

/// The slab: indexed by [`Handle::slot`], recycled through `free`.
pub(crate) struct EventPool<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> EventPool<T> {
    pub(crate) fn new() -> Self {
        EventPool {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of events currently checked in.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Slots the slab has ever grown to (capacity planning / audit).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Checks `val` in and returns its ticket.
    #[inline]
    pub(crate) fn insert(&mut self, val: T) -> Handle {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let e = &mut self.entries[slot as usize];
            debug_assert!(e.val.is_none(), "free list pointed at a live slot");
            e.val = Some(val);
            return Handle { slot, gen: e.gen };
        }
        let slot = u32::try_from(self.entries.len()).expect("event slab exceeds u32 slots");
        self.entries.push(Entry {
            gen: 0,
            val: Some(val),
        });
        Handle { slot, gen: 0 }
    }

    /// The event behind `h`, left in place.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale.
    #[inline]
    pub(crate) fn get(&self, h: Handle) -> &T {
        let e = &self.entries[h.slot as usize];
        assert_eq!(e.gen, h.gen, "stale event handle");
        e.val.as_ref().expect("event slot already vacated")
    }

    /// Checks the event behind `h` out, retiring the slot's generation.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale: its slot was already vacated, or vacated and
    /// reissued to a different event.
    #[inline]
    pub(crate) fn remove(&mut self, h: Handle) -> T {
        let e = &mut self.entries[h.slot as usize];
        assert_eq!(e.gen, h.gen, "stale event handle");
        let val = e.val.take().expect("event slot already vacated");
        e.gen = e.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(h.slot);
        val
    }
}

impl<T> std::fmt::Debug for EventPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventPool")
            .field("live", &self.live)
            .field("slots", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_recycles_slots_without_growing() {
        let mut pool: EventPool<u64> = EventPool::new();
        let h = pool.insert(1);
        assert_eq!(*pool.get(h), 1);
        assert_eq!(pool.remove(h), 1);
        for i in 0..100 {
            let h = pool.insert(i);
            assert_eq!(h.slot, 0, "single-slot workload must stay in slot 0");
            assert_eq!(pool.remove(h), i);
        }
        assert_eq!(pool.slots(), 1);
        assert_eq!(pool.len(), 0);
    }

    /// Seeded inserts and removes in waves that fill the pool and drain it
    /// again, so nearly every insert lands in a recycled slot: each handle
    /// returns exactly what was inserted under it, no live handle is ever
    /// issued twice, and the slab never outgrows the peak live count.
    #[test]
    fn recycled_handles_return_what_was_inserted() {
        use cbps_rng::Rng;
        use std::collections::HashMap;

        let mut rng = Rng::seed_from_u64(0x9001);
        let mut pool: EventPool<u64> = EventPool::new();
        let mut model: HashMap<Handle, u64> = HashMap::new();
        let mut live: Vec<Handle> = Vec::new();
        let (mut peak, mut reissued) = (0, 0);
        for wave in 0..40u32 {
            // Even waves mostly insert, odd waves mostly remove.
            let insert_share = if wave % 2 == 0 { 0.7 } else { 0.3 };
            for _ in 0..500 {
                if live.is_empty() || rng.gen_bool(insert_share) {
                    let val = rng.next_u64();
                    let recycled = pool.len() < pool.slots();
                    let h = pool.insert(val);
                    reissued += usize::from(recycled);
                    assert!(model.insert(h, val).is_none(), "{h:?} issued twice");
                    live.push(h);
                    peak = peak.max(live.len());
                } else {
                    let h = live.swap_remove(rng.gen_range(0..live.len()));
                    assert_eq!(Some(pool.remove(h)), model.remove(&h), "{h:?}");
                }
                assert_eq!(pool.len(), live.len());
                assert!(pool.slots() <= peak, "slab outgrew the peak live count");
            }
        }
        assert_eq!(pool.slots(), peak);
        assert!(reissued > 5_000, "only {reissued} inserts recycled a slot");
        for h in live {
            assert_eq!(Some(pool.remove(h)), model.remove(&h));
        }
        assert!(model.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn stale_handle_detected_after_reissue() {
        let mut pool: EventPool<u64> = EventPool::new();
        let h = pool.insert(1);
        pool.remove(h);
        let _again = pool.insert(2); // same slot, new generation
        pool.remove(h);
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn double_remove_detected() {
        let mut pool: EventPool<u64> = EventPool::new();
        let h = pool.insert(1);
        pool.remove(h);
        pool.remove(h);
    }
}
