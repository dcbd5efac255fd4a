//! The location cache behind the paper's "finger caching" remark.
//!
//! §5.1 reports that lookups at `n = 500` averaged ≈ 2.5 hops — "better
//! than log n due to the finger caching mechanism". We reproduce that
//! effect with a bounded LRU cache of `(node key → node address)` entries
//! learned opportunistically from message traffic; routing considers cache
//! entries alongside the finger table when picking the closest preceding
//! hop.
//!
//! The cache is two parallel arrays sorted by key: the keys, and one word
//! per entry holding `stamp << 32 | address`. Every routed message probes
//! it two or three times (`learn(sender)`, `learn(src)`,
//! `closest_preceding`), so the probes are binary searches over one
//! contiguous key array and the closest preceding node is simply the ring
//! predecessor of the target. Inserting and evicting shift the tails of
//! the arrays; the LRU victim is the minimum of the contiguous words. The
//! first [`INLINE_ENTRIES`] entries live in the cache value itself — most
//! nodes of a large ring hear from a handful of peers, and the routing
//! state that holds the cache is hinted whole one network delay ahead of
//! the probe — and a cache that learns more spills to the heap, where it
//! grows with the entries learned and never past the bound.

use cbps_sim::prefetch::prefetch_at;

use crate::inline::InlineVec;
use crate::key::{Key, KeySpace};
use crate::ring::Peer;

/// Entries held in place before the arrays spill to the heap.
pub const INLINE_ENTRIES: usize = 24;

/// A bounded LRU set of known remote nodes, keyed by ring identifier.
///
/// # Examples
///
/// ```
/// use cbps_overlay::{KeySpace, LocationCache, Peer};
///
/// let s = KeySpace::new(8);
/// let mut cache = LocationCache::new(2);
/// cache.learn(Peer { idx: 1, key: s.key(10) });
/// cache.learn(Peer { idx: 2, key: s.key(20) });
/// cache.learn(Peer { idx: 3, key: s.key(30) }); // evicts the LRU entry
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LocationCache {
    capacity: usize,
    /// The last stamp drawn. Stamps are 32 bits wide; just before they
    /// would wrap they are renumbered by rank, which keeps their order.
    clock: u32,
    /// Cached node keys, ascending by raw value.
    keys: InlineVec<Key, INLINE_ENTRIES>,
    /// Parallel to `keys`: last-touched stamp in the upper half (distinct,
    /// since every touch draws a fresh `clock` value), simulator address
    /// in the lower.
    slots: InlineVec<u64, INLINE_ENTRIES>,
}

/// `warm` pre-faults at most this many entries: a larger configured bound
/// is a "never evict" setting, not a working-set size.
const WARM_CAP: usize = 1024;

/// The address half of a slot.
const IDX_MASK: u64 = u32::MAX as u64;

/// Drops `v[victim]` and puts `value` where an insertion at `at` (a
/// position found before the drop) would have put it, shifting only the
/// entries between the two.
fn replace_sorted<T: Copy>(v: &mut [T], victim: usize, at: usize, value: T) {
    if victim < at {
        v.copy_within(victim + 1..at, victim);
        v[at - 1] = value;
    } else {
        v.copy_within(at..victim, at + 1);
        v[at] = value;
    }
}

impl LocationCache {
    /// Creates a cache holding at most `capacity` entries. Zero disables
    /// caching entirely. Nothing is allocated until a cache has learned
    /// more than [`INLINE_ENTRIES`] peers (or is [`Self::warm`]ed).
    pub fn new(capacity: usize) -> Self {
        LocationCache {
            capacity,
            clock: 0,
            keys: InlineVec::new(),
            slots: InlineVec::new(),
        }
    }

    /// Pre-faults the arrays to the configured bound, so later `learn`s
    /// perform no heap allocation. Idempotent.
    pub fn warm(&mut self) {
        self.reserve_to(self.capacity.min(WARM_CAP));
    }

    /// Grows the two arrays to hold exactly `total` entries (no-op when
    /// they already do).
    fn reserve_to(&mut self, total: usize) {
        self.keys.reserve_exact_to(total);
        self.slots.reserve_exact_to(total);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `true` while every entry lives in the cache value itself.
    pub fn is_inline(&self) -> bool {
        self.keys.is_inline()
    }

    /// Hints the heap lines a `learn` or `closest_preceding` will read
    /// first (see [`cbps_sim::prefetch`]): nothing while the entries are
    /// in place — they arrive with the value that holds the cache — and of
    /// a spilled cache the key lines where a binary search can look first,
    /// second and third: its first misses are among these seven wherever
    /// it goes from there.
    pub fn prefetch_spill(&self) {
        if !self.keys.is_inline() {
            let keys = self.keys.as_slice();
            for eighths in [4, 2, 6, 1, 3, 5, 7] {
                prefetch_at(keys, keys.len() * eighths / 8);
            }
        }
    }

    /// Records that `peer` exists, refreshing recency; evicts the least
    /// recently used entry when full.
    pub fn learn(&mut self, peer: Peer) {
        self.touch(peer, 1);
    }

    /// Two `learn`s of the same peer, back to back, in one probe: the
    /// second could only have restamped what the first left behind.
    pub fn learn_twice(&mut self, peer: Peer) {
        self.touch(peer, 2);
    }

    fn touch(&mut self, peer: Peer, touches: u32) {
        if self.capacity == 0 {
            return;
        }
        let slot = self.draw_stamp(touches) | u64::from(peer.idx as u32);
        let at = match self.keys.as_slice().binary_search(&peer.key) {
            Ok(at) => {
                self.slots.as_mut_slice()[at] = slot;
                return;
            }
            Err(at) => at,
        };
        if self.keys.len() >= self.capacity {
            let victim = self.lru_position();
            replace_sorted(self.keys.as_mut_slice(), victim, at, peer.key);
            replace_sorted(self.slots.as_mut_slice(), victim, at, slot);
            return;
        }
        if self.keys.len() == self.keys.capacity() {
            // Double, but never past the bound: a full cache owns exactly
            // `capacity` entries' worth of storage.
            self.reserve_to((self.keys.len() * 2).min(self.capacity));
        }
        self.keys.insert(at, peer.key);
        self.slots.insert(at, slot);
    }

    /// Advances the clock by `touches` and returns the new stamp, placed
    /// in a slot's upper half.
    fn draw_stamp(&mut self, touches: u32) -> u64 {
        if self.clock > u32::MAX - touches {
            // Renumber by rank: the oldest entry gets stamp 1, the clock
            // continues from the youngest. Once per 2^32 touches.
            let slots = self.slots.as_mut_slice();
            let mut by_age: Vec<usize> = (0..slots.len()).collect();
            by_age.sort_unstable_by_key(|&at| slots[at]);
            for (rank, at) in by_age.into_iter().enumerate() {
                slots[at] = (rank as u64 + 1) << 32 | slots[at] & IDX_MASK;
            }
            self.clock = slots.len() as u32;
        }
        self.clock += touches;
        u64::from(self.clock) << 32
    }

    /// Position of the least recently used entry (the cache is non-empty):
    /// stamps are distinct and lead the word, so the least word. Two
    /// passes, the minimum and then where it is, each free of the
    /// loop-carried reload of the best slot so far that one pass needs.
    fn lru_position(&self) -> usize {
        let slots = self.slots.as_slice();
        let least = slots.iter().fold(u64::MAX, |least, &slot| least.min(slot));
        slots.iter().position(|&slot| slot == least).unwrap_or(0)
    }

    fn peer_at(&self, at: usize) -> Peer {
        Peer {
            idx: (self.slots.as_slice()[at] & IDX_MASK) as usize,
            key: self.keys.as_slice()[at],
        }
    }

    /// Forgets a peer (e.g. after observing its failure).
    pub fn forget(&mut self, key: Key) {
        if let Ok(at) = self.keys.as_slice().binary_search(&key) {
            self.keys.remove(at);
            self.slots.remove(at);
        }
    }

    /// Forgets every peer registered under simulator address `idx`.
    pub fn forget_idx(&mut self, idx: usize) {
        for at in (0..self.keys.len()).rev() {
            if self.peer_at(at).idx == idx {
                self.keys.remove(at);
                self.slots.remove(at);
            }
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
    }

    /// Among cached nodes, the one whose key lies strictly within the arc
    /// `(from, target)` and is closest to `target` — the cache's candidate
    /// for Chord's *closest preceding node*. Touches the returned entry's
    /// recency.
    ///
    /// That node, when it exists, is the ring predecessor of `target`
    /// among the cached keys: any key inside the arc is at least as far
    /// from `target` as the predecessor is, so the predecessor lies inside
    /// the arc too. One binary search and one arc test decide.
    pub fn closest_preceding(&mut self, space: KeySpace, from: Key, target: Key) -> Option<Peer> {
        let keys = self.keys.as_slice();
        let below = keys.partition_point(|&k| k < target);
        // Wraps to the largest key; `None` only when the cache is empty.
        let at = below.checked_sub(1).or(keys.len().checked_sub(1))?;
        let peer = self.peer_at(at);
        if !space.in_arc_oo(peer.key, from, target) {
            return None;
        }
        let stamp = self.draw_stamp(1);
        let slot = &mut self.slots.as_mut_slice()[at];
        *slot = stamp | *slot & IDX_MASK;
        Some(peer)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cbps_rng::Rng;

    use super::*;

    /// The cache as a `HashMap` scanned end to end — the implementation
    /// the sorted arrays replaced, kept as the reference model: clock
    /// increments, victim and returned peer must be exactly its, and so
    /// must the stamps (their order, once the cache has renumbered its
    /// 32-bit ones; the model's are 64 bits wide and never wrap).
    struct MapCache {
        capacity: usize,
        clock: u64,
        entries: HashMap<Key, (usize, u64)>,
    }

    impl MapCache {
        fn new(capacity: usize, clock: u32) -> Self {
            MapCache {
                capacity,
                clock: u64::from(clock),
                entries: HashMap::new(),
            }
        }

        fn learn(&mut self, peer: Peer) {
            if self.capacity == 0 {
                return;
            }
            self.clock += 1;
            let clock = self.clock;
            if let Some(slot) = self.entries.get_mut(&peer.key) {
                *slot = (peer.idx, clock);
                return;
            }
            if self.entries.len() >= self.capacity {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &(_, stamp))| stamp)
                {
                    self.entries.remove(&victim);
                }
            }
            self.entries.insert(peer.key, (peer.idx, clock));
        }

        fn forget(&mut self, key: Key) {
            self.entries.remove(&key);
        }

        fn forget_idx(&mut self, idx: usize) {
            self.entries.retain(|_, &mut (i, _)| i != idx);
        }

        fn closest_preceding(&mut self, space: KeySpace, from: Key, target: Key) -> Option<Peer> {
            let best = self
                .entries
                .iter()
                .filter(|(&k, _)| space.in_arc_oo(k, from, target))
                .max_by_key(|(&k, _)| space.distance_cw(from, k))
                .map(|(&k, &(idx, _))| Peer { idx, key: k });
            if let Some(peer) = best {
                self.clock += 1;
                let clock = self.clock;
                if let Some(slot) = self.entries.get_mut(&peer.key) {
                    slot.1 = clock;
                }
            }
            best
        }

        /// `(key, idx, stamp)` rows in ascending key order.
        fn rows(&self) -> Vec<(Key, usize, u64)> {
            let mut rows: Vec<_> = self
                .entries
                .iter()
                .map(|(&k, &(idx, stamp))| (k, idx, stamp))
                .collect();
            rows.sort_by_key(|r| r.0);
            rows
        }
    }

    impl LocationCache {
        /// A cache whose clock has already drawn `clock` stamps.
        fn with_clock(capacity: usize, clock: u32) -> Self {
            LocationCache {
                clock,
                ..LocationCache::new(capacity)
            }
        }

        fn rows(&self) -> Vec<(Key, usize, u64)> {
            (0..self.len())
                .map(|at| (self.peer_at(at), self.slots.as_slice()[at] >> 32))
                .map(|(peer, stamp)| (peer.key, peer.idx, stamp))
                .collect()
        }
    }

    /// Rows with each stamp replaced by its rank among the table's stamps:
    /// what eviction order depends on, and all that survives a renumbering.
    fn ranked(rows: &[(Key, usize, u64)]) -> Vec<(Key, usize, usize)> {
        rows.iter()
            .map(|&(key, idx, stamp)| (key, idx, rows.iter().filter(|r| r.2 < stamp).count()))
            .collect()
    }

    fn peer(idx: usize, key: u64, s: KeySpace) -> Peer {
        Peer {
            idx,
            key: s.key(key),
        }
    }

    /// One seeded op stream against the map model, both clocks starting at
    /// `clock`: every return value and the full `(key, idx, stamp)` table —
    /// hence `len` and each eviction's victim — must agree after every
    /// step; by rank once the cache has renumbered, to the digit before.
    fn run_against_model(space: KeySpace, capacity: usize, clock: u32, steps: usize) {
        let bits = space.bits();
        let mut rng = Rng::seed_from_u64(0xcac4e ^ (u64::from(bits) << 32) ^ capacity as u64);
        let mut cache = LocationCache::with_clock(capacity, clock);
        let mut model = MapCache::new(capacity, clock);
        // Keys recur (hits, re-learns under a new address) and outnumber
        // the bound (evictions) wherever the space allows; a few sit at
        // the ends of the linear key range so arcs wrap.
        let mut pool: Vec<Key> = (0..(3 * capacity + 4).min(space.size() as usize))
            .map(|_| space.key(rng.next_u64()))
            .collect();
        pool.extend([space.key(0), space.key(1), space.key(space.max_value())]);
        let pick = |rng: &mut Rng| pool[rng.gen_range(0..pool.len())];
        for step in 0..steps {
            let ctx = format!("m={bits} capacity={capacity} clock={clock} step={step}");
            match rng.gen_range(0u32..100) {
                op @ 0..=54 => {
                    let p = Peer {
                        idx: rng.gen_range(0usize..12),
                        key: pick(&mut rng),
                    };
                    // A first hop: sender and source are one peer, learned
                    // in one probe where the model learns twice.
                    if op < 8 {
                        cache.learn_twice(p);
                        model.learn(p);
                    } else {
                        cache.learn(p);
                    }
                    model.learn(p);
                }
                55..=84 => {
                    // Cached keys double as `from` and `target`: covers
                    // `from == target` (the full ring less one key) and a
                    // target that is itself cached.
                    let from = pick(&mut rng);
                    let target = match rng.gen_range(0u32..4) {
                        0 => from,
                        1 => space.key(rng.next_u64()),
                        _ => pick(&mut rng),
                    };
                    assert_eq!(
                        cache.closest_preceding(space, from, target),
                        model.closest_preceding(space, from, target),
                        "{ctx}: closest_preceding({from}, {target})"
                    );
                }
                85..=92 => {
                    let key = pick(&mut rng);
                    cache.forget(key);
                    model.forget(key);
                }
                93..=98 => {
                    let idx = rng.gen_range(0usize..12);
                    cache.forget_idx(idx);
                    model.forget_idx(idx);
                }
                _ => {
                    cache.clear();
                    model.entries.clear();
                }
            }
            let (got, want) = (cache.rows(), model.rows());
            if model.clock <= u64::from(u32::MAX) {
                assert_eq!(got, want, "{ctx}");
                assert_eq!(u64::from(cache.clock), model.clock, "{ctx}: clock");
            } else {
                assert_eq!(ranked(&got), ranked(&want), "{ctx}: after renumbering");
            }
            assert!(cache.len() <= capacity, "{ctx}: bound");
        }
    }

    /// Bounds below, at and above the in-place entries, so the streams
    /// cross the spill in both directions (learned past it, forgotten and
    /// cleared back below it, evicting while spilled).
    #[test]
    fn matches_the_map_model_step_by_step() {
        let n = INLINE_ENTRIES;
        for bits in [5u32, 13, 40] {
            for capacity in [0usize, 1, 2, 8, n - 1, n, n + 1, 256] {
                run_against_model(KeySpace::new(bits), capacity, 0, 6_000);
            }
        }
    }

    /// The same streams with the clock a few touches short of the end of
    /// its 32 bits: learn, evict and `closest_preceding` run across the
    /// renumbering (the last stamp before it drawn by a single and by a
    /// double touch) and go on choosing the model's victims.
    #[test]
    fn renumbering_the_stamps_keeps_their_order() {
        for short_by in [0u32, 1, 2, 3, 40, 700] {
            for capacity in [1usize, 8, INLINE_ENTRIES + 1, 256] {
                let clock = u32::MAX - short_by;
                run_against_model(KeySpace::new(13), capacity, clock, 1_500);
            }
        }
        // Renumbered stamps are ranks: the clock restarts at the entry count.
        let s = KeySpace::new(13);
        let mut c = LocationCache::with_clock(8, u32::MAX - 2);
        for k in 0..3 {
            c.learn(peer(k, 10 * k as u64, s));
        }
        assert_eq!(c.clock, 3);
        assert_eq!(
            c.rows(),
            [(s.key(0), 0, 1), (s.key(10), 1, 2), (s.key(20), 2, 3)]
        );
    }

    /// The spill boundary step by step: `N - 1`, `N` and `N + 1` entries,
    /// `forget` back below `N` (storage stays spilled, contents stay
    /// right), `clear`, and a refill.
    #[test]
    fn entries_move_to_the_heap_at_the_boundary_and_stay_sorted() {
        let s = KeySpace::new(13);
        let n = INLINE_ENTRIES;
        let mut cache = LocationCache::new(256);
        let mut model = MapCache::new(256, 0);
        let teach = |cache: &mut LocationCache, model: &mut MapCache, k: usize| {
            let p = peer(k, (977 * k as u64) % 8192, s);
            cache.learn(p);
            model.learn(p);
            assert_eq!(cache.rows(), model.rows(), "after teaching {k}");
        };
        for k in 0..n - 1 {
            teach(&mut cache, &mut model, k);
        }
        assert!(cache.is_inline() && cache.len() == n - 1);
        teach(&mut cache, &mut model, n - 1);
        assert!(cache.is_inline() && cache.len() == n);
        teach(&mut cache, &mut model, n);
        assert!(!cache.is_inline() && cache.len() == n + 1);
        for k in [3, n, 0] {
            let key = s.key((977 * k as u64) % 8192);
            cache.forget(key);
            model.forget(key);
            assert_eq!(cache.rows(), model.rows(), "after forgetting {k}");
        }
        assert_eq!(cache.len(), n - 2);
        cache.clear();
        model.entries.clear();
        assert!(cache.is_empty());
        for k in 0..2 * n {
            teach(&mut cache, &mut model, k);
        }
    }

    /// Storage follows the entries learned: in place up to
    /// `INLINE_ENTRIES`, then heap arrays that double but are never larger
    /// than the bound; `warm` tops them up so that later learns do not
    /// allocate.
    #[test]
    fn storage_grows_on_demand_up_to_the_bound() {
        let s = KeySpace::new(13);
        let n = INLINE_ENTRIES;
        let mut c = LocationCache::new(100);
        for k in 0..n {
            c.learn(peer(k, 10 * k as u64, s));
            assert!(c.is_inline() && c.slots.is_inline());
        }
        c.learn(peer(n, 10 * n as u64, s));
        assert!(!c.keys.is_inline() && !c.slots.is_inline());
        assert_eq!((c.keys.capacity(), c.slots.capacity()), (2 * n, 2 * n));
        for k in n + 1..300 {
            c.learn(peer(k, 10 * k as u64, s));
            assert!(c.keys.capacity() <= 100 && c.slots.capacity() <= 100);
        }
        assert_eq!(
            (c.len(), c.keys.capacity(), c.slots.capacity()),
            (100, 100, 100)
        );
        // A bound that fits in place never reaches the heap, warmed or not.
        let mut small = LocationCache::new(n);
        small.warm();
        for k in 0..300 {
            small.learn(peer(k, 10 * k as u64, s));
            assert!(small.is_inline() && small.slots.is_inline());
        }
        assert_eq!(small.len(), n);
        let mut w = LocationCache::new(100);
        w.warm();
        assert!(!w.is_inline());
        let warmed = (w.keys.as_slice().as_ptr(), w.slots.as_slice().as_ptr());
        for k in 0..300 {
            w.learn(peer(k, 10 * k as u64, s));
        }
        assert_eq!(
            warmed,
            (w.keys.as_slice().as_ptr(), w.slots.as_slice().as_ptr())
        );
    }

    /// The hook's index arithmetic on both sides of each of its cases:
    /// bounds 0, 1 and 256 holding nothing, one entry, the largest cache
    /// held in place (no hint), the smallest spilled one, and a full one —
    /// and while a spilled cache shrinks back through every size to none.
    #[test]
    fn prefetch_has_no_size_it_cannot_take() {
        for bits in [5u32, 13, 40] {
            let s = KeySpace::new(bits);
            for capacity in [0usize, 1, 256] {
                for fill in [0usize, 1, INLINE_ENTRIES, INLINE_ENTRIES + 1, 256] {
                    let mut c = LocationCache::new(capacity);
                    c.prefetch_spill();
                    for k in 0..fill.min(s.size() as usize) {
                        c.learn(peer(k, k as u64, s));
                    }
                    let len = fill.min(capacity).min(s.size() as usize);
                    assert_eq!((c.len(), c.is_inline()), (len, len <= INLINE_ENTRIES));
                    c.prefetch_spill();
                    while let Some(&key) = c.keys.as_slice().last() {
                        c.forget(key);
                        c.prefetch_spill();
                    }
                    c.warm();
                    c.prefetch_spill();
                }
            }
        }
    }

    #[test]
    fn zero_capacity_disables() {
        let s = KeySpace::new(8);
        let mut c = LocationCache::new(0);
        c.learn(peer(1, 5, s));
        assert!(c.is_empty());
        assert_eq!(c.closest_preceding(s, s.key(0), s.key(100)), None);
    }

    #[test]
    fn lru_eviction_order() {
        let s = KeySpace::new(8);
        let mut c = LocationCache::new(2);
        c.learn(peer(1, 10, s));
        c.learn(peer(2, 20, s));
        c.learn(peer(1, 10, s)); // refresh 10; 20 becomes LRU
        c.learn(peer(3, 30, s));
        assert_eq!(c.len(), 2);
        assert!(c.closest_preceding(s, s.key(9), s.key(11)).is_some()); // 10 kept
        assert_eq!(c.closest_preceding(s, s.key(19), s.key(21)), None); // 20 gone
    }

    #[test]
    fn closest_preceding_picks_nearest_below_target() {
        let s = KeySpace::new(8);
        let mut c = LocationCache::new(8);
        for (i, k) in [10u64, 50, 90, 130].iter().enumerate() {
            c.learn(peer(i, *k, s));
        }
        let got = c.closest_preceding(s, s.key(0), s.key(100)).unwrap();
        assert_eq!(got.key, s.key(90));
        // Wrapping arc (200, 60): candidates 10 and 50; closest preceding 60
        // is 50.
        let got = c.closest_preceding(s, s.key(200), s.key(60)).unwrap();
        assert_eq!(got.key, s.key(50));
    }

    #[test]
    fn target_itself_is_excluded() {
        let s = KeySpace::new(8);
        let mut c = LocationCache::new(4);
        c.learn(peer(1, 100, s));
        // Arc (0, 100) is open at 100: the node at exactly 100 must not be
        // returned as a *preceding* hop.
        assert_eq!(c.closest_preceding(s, s.key(0), s.key(100)), None);
    }

    #[test]
    fn forget_and_clear() {
        let s = KeySpace::new(8);
        let mut c = LocationCache::new(4);
        c.learn(peer(1, 10, s));
        c.learn(peer(2, 20, s));
        c.forget(s.key(10));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
