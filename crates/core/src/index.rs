//! A matching index over stored subscriptions.
//!
//! Rendezvous nodes must match every incoming event against their stored
//! subscriptions (§3.2). The index is one flat bounds table with a row per
//! slot of its owner: `(lo, hi − lo)` on each dimension, a wildcard as the
//! row that admits every value. An event is matched by one pass over the
//! table in slot order, testing every dimension of a row without a branch
//! (`v − lo ≤ hi − lo` in wrapping arithmetic is `lo ≤ v ≤ hi`), so the
//! hits come out ascending. At the sizes a rendezvous node holds — at
//! most a few thousand entries — the pass costs a few nanoseconds a row,
//! and an insert writes one row where the per-dimension bucket lists of
//! the counting algorithm (Fabret et al. [6]) took a push onto a dozen
//! list tails, each a miss.

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::Subscription;

/// The bounds of a dimension a row leaves unconstrained: every value.
const WILDCARD: (u64, u64) = (0, u64::MAX);

/// The bounds of every dimension of a vacant row. They admit `u64::MAX`
/// alone, which no attribute domain holds (a domain of size `s` is
/// `0..s`), so a vacant row never matches.
const VACANT: (u64, u64) = (u64::MAX, 0);

/// Flat-table subscription index for one rendezvous node.
///
/// # Examples
///
/// ```
/// use cbps::{AttributeDef, Event, EventSpace, MatchIndex, Subscription};
///
/// let space = EventSpace::new(vec![
///     AttributeDef::new("x", 100),
///     AttributeDef::new("y", 100),
/// ]);
/// let mut index = MatchIndex::new(&space);
/// let sub = Subscription::builder(&space).range("x", 10, 20)?.build()?;
/// index.insert(1, sub);
/// let mut hits = Vec::new();
/// index.matches_into(&Event::new(&space, vec![15, 99])?, &mut hits);
/// assert_eq!(hits, vec![1]);
/// # Ok::<(), cbps::PubSubError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MatchIndex {
    dims: usize,
    /// `bounds[slot * dims + i]` = `(lo, hi − lo)` of the constraint under
    /// `slot` on dimension `i`; [`WILDCARD`] where it has none, [`VACANT`]
    /// on every dimension of an empty slot.
    bounds: Vec<(u64, u64)>,
    /// The subscriptions, by the slot their owner filed them under: the
    /// index mints no numbers of its own, so a hit leads its owner straight
    /// to whatever it keeps under the same number.
    subs: Vec<Option<Subscription>>,
    len: usize,
}

impl MatchIndex {
    /// Creates an empty index for the given space.
    pub fn new(space: &EventSpace) -> Self {
        MatchIndex {
            dims: space.dims(),
            bounds: Vec::new(),
            subs: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed subscriptions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the indexed `(slot, subscription)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Subscription)> {
        let slots = (0u32..).zip(&self.subs);
        slots.filter_map(|(slot, sub)| Some((slot, sub.as_ref()?)))
    }

    /// Indexes a subscription under `slot`, a number its caller owns and
    /// keeps dense (the table grows to the largest one in use).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is occupied: two tenants of one slot would
    /// answer for each other's events.
    pub fn insert(&mut self, slot: u32, sub: Subscription) {
        let at = slot as usize;
        if at >= self.subs.len() {
            self.subs.resize_with(at + 1, || None);
            self.bounds.resize(self.subs.len() * self.dims, VACANT);
        }
        assert!(self.subs[at].is_none(), "engine slot {slot} is occupied");
        debug_assert_eq!(sub.dims(), self.dims);
        for (b, c) in self.row_mut(slot).iter_mut().zip(sub.constraints()) {
            *b = c.map_or(WILDCARD, |c| (c.lo(), c.hi() - c.lo()));
        }
        self.subs[at] = Some(sub);
        self.len += 1;
    }

    /// Removes the subscription under `slot`, returning it if present.
    pub fn remove(&mut self, slot: u32) -> Option<Subscription> {
        let sub = self.subs.get_mut(slot as usize)?.take()?;
        self.row_mut(slot).fill(VACANT);
        self.len -= 1;
        Some(sub)
    }

    /// The subscription stored under `slot`.
    pub fn get(&self, slot: u32) -> Option<&Subscription> {
        self.subs.get(slot as usize)?.as_ref()
    }

    fn row_mut(&mut self, slot: u32) -> &mut [(u64, u64)] {
        &mut self.bounds[slot as usize * self.dims..][..self.dims]
    }

    /// Writes the slots of all subscriptions matched by `event` into `out`
    /// (cleared first), in ascending order. Allocation-free once `out` has
    /// grown to the largest match.
    pub fn matches_into(&self, event: &Event, out: &mut Vec<u32>) {
        out.clear();
        let values = event.values();
        debug_assert_eq!(values.len(), self.dims);
        for (slot, row) in (0u32..).zip(self.bounds.chunks_exact(self.dims)) {
            let dims = row.iter().zip(values);
            if dims.fold(true, |all, (&(lo, width), &v)| {
                all & (v.wrapping_sub(lo) <= width)
            }) {
                out.push(slot);
            }
        }
    }

    /// Reference implementation: linear scan with exact matching. Used by
    /// tests and micro-benchmarks to validate and compare the index.
    pub fn matches_brute_force(&self, event: &Event) -> Vec<u32> {
        let hits = self.iter().filter(|(_, sub)| sub.matches(event));
        hits.map(|(slot, _)| slot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use crate::space::AttributeDef;
    use cbps_rng::Rng;

    fn space() -> EventSpace {
        EventSpace::new(vec![
            AttributeDef::new("x", 1000),
            AttributeDef::new("y", 1000),
            AttributeDef::new("z", 10),
        ])
    }

    /// What a slot costs the index — its row of bounds and the handle to
    /// its subscription — in the paper's four-dimensional space is the
    /// larger half of what a founding copy writes (88 B while the entry was
    /// a record with its bucket positions in place).
    #[test]
    fn slot_entry_stays_under_its_size_ceiling() {
        let dims = EventSpace::paper_default().dims();
        let bytes =
            dims * std::mem::size_of::<(u64, u64)>() + std::mem::size_of::<Option<Subscription>>();
        assert!(bytes <= 88, "a slot grew to {bytes} B (ceiling 88)");
    }

    #[test]
    fn insert_match_remove_roundtrip() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s)
            .range("x", 100, 200)
            .unwrap()
            .eq("z", 5)
            .build()
            .unwrap();
        idx.insert(1, sub.clone());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(1), Some(&sub));
        assert_eq!((idx.get(0), idx.get(7)), (None, None));

        let hit = Event::new_unchecked(vec![150, 0, 5]);
        let miss = Event::new_unchecked(vec![150, 0, 6]);
        assert_eq!(idx.matches(&hit), vec![1]);
        assert!(idx.matches(&miss).is_empty());

        assert!(idx.remove(1).is_some());
        assert!(idx.remove(1).is_none());
        assert!(idx.remove(7).is_none());
        assert!(idx.matches(&hit).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn multiple_overlapping_subscriptions() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        for i in 0..10u64 {
            let sub = Subscription::builder(&s)
                .range("x", i * 50, i * 50 + 100)
                .unwrap()
                .build()
                .unwrap();
            idx.insert(i as u32, sub);
        }
        // x = 120 lies in [50,150], [100,200] → subs 1 and 2... and [0,100]?
        // 120 > 100, no. Check against brute force instead of hand-counting.
        let e = Event::new_unchecked(vec![120, 0, 0]);
        assert_eq!(idx.matches(&e), idx.matches_brute_force(&e));
        assert!(!idx.matches(&e).is_empty());
    }

    #[test]
    fn wildcard_dimensions_ignored() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 3).build().unwrap();
        idx.insert(7, sub);
        // x and y arbitrary; the vacant slots below 7 match nothing.
        assert_eq!(idx.matches(&Event::new_unchecked(vec![999, 0, 3])), vec![7]);
        assert!(idx
            .matches(&Event::new_unchecked(vec![999, 0, 4]))
            .is_empty());
    }

    /// The bounds at both ends of a dimension's domain, a range that spans
    /// all of it, and a wildcard over the widest domain there is.
    #[test]
    fn bounds_hold_at_the_edges_of_the_domain() {
        let s = EventSpace::new(vec![
            AttributeDef::new("x", u64::MAX),
            AttributeDef::new("y", 2),
        ]);
        let mut idx = MatchIndex::new(&s);
        let edges = [
            (0, 0),
            (0, u64::MAX - 1),
            (u64::MAX - 1, u64::MAX - 1),
            (5, 9),
        ];
        for (slot, (lo, hi)) in (0u32..).zip(edges) {
            let sub = Subscription::builder(&s).range("x", lo, hi).unwrap();
            idx.insert(slot, sub.build().unwrap());
        }
        idx.insert(6, Subscription::builder(&s).eq("x", 7).build().unwrap());
        idx.insert(7, Subscription::builder(&s).eq("y", 1).build().unwrap());
        for x in [0, 1, 4, 5, 7, 9, 10, 1 << 32, u64::MAX - 2, u64::MAX - 1] {
            for y in [0, 1] {
                let e = Event::new_unchecked(vec![x, y]);
                assert_eq!(idx.matches(&e), idx.matches_brute_force(&e), "{x}, {y}");
            }
        }
    }

    #[test]
    fn iter_and_get() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 1).build().unwrap();
        idx.insert(9, sub.clone());
        assert_eq!(idx.get(9), Some(&sub));
        assert_eq!(idx.iter().collect::<Vec<_>>(), [(9, &sub)]);
    }

    /// Interleaved inserts and removes keep the table consistent: every
    /// removal leaves a vacant row behind, freed slots go to the next
    /// newcomer the way an owner's free list hands them out, and matching
    /// stays equal to brute force throughout.
    #[test]
    fn removal_keeps_index_consistent() {
        let mut rng = Rng::seed_from_u64(0xdead_5107);
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let mut live: Vec<u32> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut next_slot = 0u32;
        for _ in 0..2000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let xlo = rng.gen_range(0u64..1000);
                let xw = rng.gen_range(0u64..500);
                let sub = Subscription::builder(&s)
                    .range("x", xlo, (xlo + xw).min(999))
                    .unwrap()
                    .eq("z", rng.gen_range(0u64..10))
                    .build()
                    .unwrap();
                let slot = free.pop().unwrap_or_else(|| {
                    next_slot += 1;
                    next_slot - 1
                });
                idx.insert(slot, sub);
                live.push(slot);
            } else {
                let k = rng.gen_range(0u64..live.len() as u64) as usize;
                let slot = live.swap_remove(k);
                assert!(idx.remove(slot).is_some());
                free.push(slot);
            }
            if rng.gen_bool(0.25) {
                let e = Event::new_unchecked(vec![
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..10),
                ]);
                assert_eq!(idx.matches(&e), idx.matches_brute_force(&e));
            }
        }
        assert_eq!(idx.len(), live.len());
    }

    /// The index agrees with brute force on random workloads (seeded-loop
    /// port of the original property test).
    #[test]
    fn index_equals_brute_force() {
        let mut rng = Rng::seed_from_u64(0x1d_c0de);
        let s = space();
        for case in 0..256 {
            let mut idx = MatchIndex::new(&s);
            let sub_count = rng.gen_range(1usize..60);
            for i in 0..sub_count {
                let xlo = rng.gen_range(0u64..1000);
                let xw = rng.gen_range(0u64..400);
                let ylo = rng.gen_range(0u64..1000);
                let yw = rng.gen_range(0u64..400);
                let mut constraints = vec![
                    Some(crate::subscription::Constraint::range(xlo, (xlo + xw).min(999)).unwrap()),
                    Some(crate::subscription::Constraint::range(ylo, (ylo + yw).min(999)).unwrap()),
                    None,
                ];
                if rng.gen_bool(0.5) {
                    constraints[2] =
                        Some(crate::subscription::Constraint::eq(rng.gen_range(0u64..10)));
                }
                let sub = Subscription::from_constraints(&s, constraints).unwrap();
                idx.insert(i as u32, sub);
            }
            for _ in 0..rng.gen_range(1usize..30) {
                let e = Event::new_unchecked(vec![
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..10),
                ]);
                assert_eq!(
                    idx.matches(&e),
                    idx.matches_brute_force(&e),
                    "case {case}: index disagrees with brute force"
                );
            }
        }
    }
}
