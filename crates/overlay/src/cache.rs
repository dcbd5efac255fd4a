//! The location cache behind the paper's "finger caching" remark.
//!
//! §5.1 reports that lookups at `n = 500` averaged ≈ 2.5 hops — "better
//! than log n due to the finger caching mechanism". We reproduce that
//! effect with a bounded LRU cache of `(node key → node address)` entries
//! learned opportunistically from message traffic; routing considers cache
//! entries alongside the finger table when picking the closest preceding
//! hop.
//!
//! The cache is three parallel arrays sorted by key. Every routed
//! message probes it two or three times (`learn(sender)`, `learn(src)`,
//! `closest_preceding`), so the probes are binary searches over one
//! contiguous key array — 2 KB at the default 256 entries — and the
//! closest preceding node is simply the ring predecessor of the target.
//! Inserting and evicting shift the tails of the arrays; the LRU victim is
//! found by scanning the contiguous stamps. Storage grows with the entries
//! actually learned: most nodes of a large ring hear from a handful of
//! peers, and a table sized for the bound on every one of them would
//! dominate the deployment's memory.

use cbps_sim::prefetch::{prefetch_at, prefetch_span};

use crate::key::{Key, KeySpace};
use crate::ring::Peer;

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
    clock: u64,
    /// Cached node keys, ascending by raw value.
    keys: Vec<Key>,
    /// Simulator addresses, parallel to `keys`.
    idxs: Vec<u32>,
    /// Last-touched stamps, parallel to `keys`; distinct, since every
    /// touch draws a fresh `clock` value.
    stamps: Vec<u64>,
}

/// `warm` pre-faults at most this many entries: a larger configured bound
/// is a "never evict" setting, not a working-set size.
const WARM_CAP: usize = 1024;

/// [`LocationCache::prefetch`] asks for a cache of up to this many entries
/// whole: three key lines, two of `idxs`, three of `stamps`.
const PREFETCH_WHOLE: usize = 24;

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
    /// caching entirely. Nothing is allocated until the first
    /// [`Self::learn`] (or [`Self::warm`]).
    pub fn new(capacity: usize) -> Self {
        LocationCache {
            capacity,
            clock: 0,
            keys: Vec::new(),
            idxs: Vec::new(),
            stamps: Vec::new(),
        }
    }

    /// Pre-faults the arrays to the configured bound, so later `learn`s
    /// perform no heap allocation. Idempotent.
    pub fn warm(&mut self) {
        self.reserve_to(self.capacity.min(WARM_CAP));
    }

    /// Grows the three arrays to hold exactly `total` entries (no-op when
    /// they already do).
    fn reserve_to(&mut self, total: usize) {
        let extra = total.saturating_sub(self.keys.len());
        self.keys.reserve_exact(extra);
        self.idxs.reserve_exact(extra);
        self.stamps.reserve_exact(extra);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Hints the lines a `learn` or `closest_preceding` will read (see
    /// [`cbps_sim::prefetch`]). A cache of up to 24 entries (`PREFETCH_WHOLE`)
    /// — what a node of a large ring holds — is asked for whole: a search
    /// can end on any key line, a hit then stores to the `idxs` and
    /// `stamps` lines of that position and an insertion shifts all three
    /// tails. Of a larger one, the key lines where a binary search can
    /// look first, second and third: its first misses are among these
    /// seven wherever it goes from there.
    pub fn prefetch(&self) {
        let len = self.keys.len();
        if len <= PREFETCH_WHOLE {
            prefetch_span(&self.keys[..]);
            prefetch_span(&self.idxs[..]);
            prefetch_span(&self.stamps[..]);
        } else {
            for eighths in [4, 2, 6, 1, 3, 5, 7] {
                prefetch_at(&self.keys, len * eighths / 8);
            }
        }
    }

    /// Records that `peer` exists, refreshing recency; evicts the least
    /// recently used entry when full.
    pub fn learn(&mut self, peer: Peer) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let idx = peer.idx as u32;
        let at = match self.keys.binary_search(&peer.key) {
            Ok(at) => {
                self.idxs[at] = idx;
                self.stamps[at] = self.clock;
                return;
            }
            Err(at) => at,
        };
        if self.keys.len() >= self.capacity {
            let victim = self.lru_position();
            replace_sorted(&mut self.keys, victim, at, peer.key);
            replace_sorted(&mut self.idxs, victim, at, idx);
            replace_sorted(&mut self.stamps, victim, at, self.clock);
            return;
        }
        if self.keys.len() == self.keys.capacity() {
            // Double, but never past the bound: a full cache owns exactly
            // `capacity` entries' worth of storage.
            self.reserve_to((self.keys.len() * 2).max(4).min(self.capacity));
        }
        self.keys.insert(at, peer.key);
        self.idxs.insert(at, idx);
        self.stamps.insert(at, self.clock);
    }

    /// Position of the least recently used entry (the cache is non-empty).
    fn lru_position(&self) -> usize {
        let mut victim = 0;
        for (i, &stamp) in self.stamps.iter().enumerate() {
            if stamp < self.stamps[victim] {
                victim = i;
            }
        }
        victim
    }

    fn peer_at(&self, at: usize) -> Peer {
        Peer {
            idx: self.idxs[at] as usize,
            key: self.keys[at],
        }
    }

    /// Forgets a peer (e.g. after observing its failure).
    pub fn forget(&mut self, key: Key) {
        if let Ok(at) = self.keys.binary_search(&key) {
            self.keys.remove(at);
            self.idxs.remove(at);
            self.stamps.remove(at);
        }
    }

    /// Every cached peer registered under simulator address `idx`, in
    /// ascending key order.
    pub fn peers_at(&self, idx: usize) -> Vec<Peer> {
        (0..self.keys.len())
            .filter(|&at| self.idxs[at] as usize == idx)
            .map(|at| self.peer_at(at))
            .collect()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.idxs.clear();
        self.stamps.clear();
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
        let below = self.keys.partition_point(|&k| k < target);
        // Wraps to the largest key; `None` only when the cache is empty.
        let at = below.checked_sub(1).or(self.keys.len().checked_sub(1))?;
        let peer = self.peer_at(at);
        if !space.in_arc_oo(peer.key, from, target) {
            return None;
        }
        self.clock += 1;
        self.stamps[at] = self.clock;
        Some(peer)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cbps_rng::Rng;

    use super::*;

    /// The cache as a `HashMap` scanned end to end — the implementation
    /// the sorted arrays replaced, kept as the reference model: stamps,
    /// clock increments, victim and returned peer must be exactly its.
    struct MapCache {
        capacity: usize,
        clock: u64,
        entries: HashMap<Key, (usize, u64)>,
    }

    impl MapCache {
        fn new(capacity: usize) -> Self {
            MapCache {
                capacity,
                clock: 0,
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

        fn peers_at(&self, idx: usize) -> Vec<Peer> {
            let mut out: Vec<Peer> = self
                .entries
                .iter()
                .filter(|(_, &(i, _))| i == idx)
                .map(|(&key, &(i, _))| Peer { idx: i, key })
                .collect();
            out.sort_by_key(|p| p.key);
            out
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
        fn rows(&self) -> Vec<(Key, usize, u64)> {
            (0..self.keys.len())
                .map(|at| (self.keys[at], self.idxs[at] as usize, self.stamps[at]))
                .collect()
        }
    }

    fn peer(idx: usize, key: u64, s: KeySpace) -> Peer {
        Peer {
            idx,
            key: s.key(key),
        }
    }

    /// Seeded op streams against the map model: every return value and the
    /// full `(key, idx, stamp)` table — hence `len` and each eviction's
    /// victim — must agree after every step.
    #[test]
    fn matches_the_map_model_step_by_step() {
        for bits in [5u32, 13, 40] {
            let space = KeySpace::new(bits);
            for capacity in [0usize, 1, 2, 8, 256] {
                let mut rng =
                    Rng::seed_from_u64(0xcac4e ^ (u64::from(bits) << 32) ^ capacity as u64);
                let mut cache = LocationCache::new(capacity);
                let mut model = MapCache::new(capacity);
                // Keys recur (hits, re-learns under a new address) and
                // outnumber the bound (evictions) wherever the space
                // allows; a few sit at the ends of the linear key range so
                // arcs wrap.
                let mut pool: Vec<Key> = (0..(3 * capacity + 4).min(space.size() as usize))
                    .map(|_| space.key(rng.next_u64()))
                    .collect();
                pool.extend([space.key(0), space.key(1), space.key(space.max_value())]);
                let pick = |rng: &mut Rng| pool[rng.gen_range(0..pool.len())];
                for step in 0..6_000 {
                    let ctx = format!("m={bits} capacity={capacity} step={step}");
                    match rng.gen_range(0u32..100) {
                        0..=54 => {
                            let p = Peer {
                                idx: rng.gen_range(0usize..12),
                                key: pick(&mut rng),
                            };
                            cache.learn(p);
                            model.learn(p);
                        }
                        55..=84 => {
                            // Cached keys double as `from` and `target`:
                            // covers `from == target` (the full ring less
                            // one key) and a target that is itself cached.
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
                            assert_eq!(cache.peers_at(idx), model.peers_at(idx), "{ctx}: peers_at");
                        }
                        _ => {
                            cache.clear();
                            model.entries.clear();
                        }
                    }
                    assert_eq!(cache.rows(), model.rows(), "{ctx}");
                    assert_eq!(cache.len(), model.entries.len(), "{ctx}: len");
                    assert!(cache.len() <= capacity, "{ctx}: bound");
                }
            }
        }
    }

    /// Storage follows the entries learned, is never larger than the
    /// bound, and `warm` tops it up so that later learns do not allocate.
    #[test]
    fn storage_grows_on_demand_up_to_the_bound() {
        let s = KeySpace::new(13);
        let mut c = LocationCache::new(100);
        assert_eq!(c.keys.capacity(), 0);
        for k in 0..3 {
            c.learn(peer(k, 10 * k as u64, s));
        }
        assert_eq!(c.keys.capacity(), 4);
        for k in 3..300 {
            c.learn(peer(k, 10 * k as u64, s));
            assert!(c.keys.capacity() <= 100 && c.stamps.capacity() <= 100);
        }
        assert_eq!((c.len(), c.idxs.capacity()), (100, 100));
        let mut w = LocationCache::new(100);
        w.warm();
        let warmed = (w.keys.as_ptr(), w.idxs.as_ptr(), w.stamps.as_ptr());
        for k in 0..300 {
            w.learn(peer(k, 10 * k as u64, s));
        }
        assert_eq!(
            warmed,
            (w.keys.as_ptr(), w.idxs.as_ptr(), w.stamps.as_ptr())
        );
    }

    /// The hook's index arithmetic on both sides of each of its cases:
    /// bounds 0, 1 and 256 holding nothing, one entry, the largest cache
    /// asked for whole, the smallest asked for by search path, and a full
    /// one — and while a cache shrinks back through every size.
    #[test]
    fn prefetch_has_no_size_it_cannot_take() {
        for bits in [5u32, 13, 40] {
            let s = KeySpace::new(bits);
            for capacity in [0usize, 1, 256] {
                for fill in [0usize, 1, PREFETCH_WHOLE, PREFETCH_WHOLE + 1, 256] {
                    let mut c = LocationCache::new(capacity);
                    c.prefetch();
                    for k in 0..fill.min(s.size() as usize) {
                        c.learn(peer(k, k as u64, s));
                    }
                    assert_eq!(c.len(), fill.min(capacity).min(s.size() as usize));
                    c.prefetch();
                    while let Some(&key) = c.keys.last() {
                        c.forget(key);
                        c.prefetch();
                    }
                    c.warm();
                    c.prefetch();
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
