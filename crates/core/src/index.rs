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
/// `0..s`), so a vacant row never matches; and no constraint's lower bound
/// reaches `u64::MAX`, so a row is vacant iff its first dimension is.
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
/// index.insert(1, &sub);
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
    /// on every dimension of an empty slot. The index mints no numbers and
    /// keeps no subscriptions of its own: a hit names the slot its owner
    /// filed the subscription under, and the owner keeps the rest.
    bounds: Vec<(u64, u64)>,
    len: usize,
}

impl MatchIndex {
    /// Creates an empty index for the given space.
    pub fn new(space: &EventSpace) -> Self {
        MatchIndex {
            dims: space.dims(),
            bounds: Vec::new(),
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

    /// Indexes the bounds of `sub` under `slot`, a number its caller owns
    /// and keeps dense (the table grows to the largest one in use).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is occupied: two tenants of one slot would
    /// answer for each other's events.
    pub fn insert(&mut self, slot: u32, sub: &Subscription) {
        debug_assert_eq!(sub.dims(), self.dims);
        let end = (slot as usize + 1) * self.dims;
        if end > self.bounds.len() {
            self.bounds.resize(end, VACANT);
        }
        let row = &mut self.bounds[end - self.dims..end];
        assert!(row[0] == VACANT, "engine slot {slot} is occupied");
        for (b, c) in row.iter_mut().zip(sub.constraints()) {
            *b = c.map_or(WILDCARD, |c| (c.lo(), c.hi() - c.lo()));
        }
        self.len += 1;
    }

    /// Vacates the row under `slot`; `false` if it was vacant already.
    pub fn remove(&mut self, slot: u32) -> bool {
        let start = slot as usize * self.dims;
        match self.bounds.get_mut(start..start + self.dims) {
            Some(row) if row[0] != VACANT => {
                row.fill(VACANT);
                self.len -= 1;
                true
            }
            _ => false,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use crate::space::AttributeDef;
    use crate::subscription::Constraint;
    use cbps_rng::Rng;

    fn space() -> EventSpace {
        EventSpace::new(vec![
            AttributeDef::new("x", 1000),
            AttributeDef::new("y", 1000),
            AttributeDef::new("z", 10),
        ])
    }

    /// The reference the index is held to: the slots of the live shapes
    /// that admit `e`, by a plain scan.
    fn brute_force(live: &[(u32, Subscription)], e: &Event) -> Vec<u32> {
        let mut out: Vec<u32> = live
            .iter()
            .filter(|(_, s)| s.matches(e))
            .map(|&(slot, _)| slot)
            .collect();
        out.sort_unstable();
        out
    }

    /// What a slot costs the index — its row of bounds and nothing else —
    /// in the paper's four-dimensional space (88 B while the entry was a
    /// record with its bucket positions in place, 88 B too while a handle
    /// to the subscription sat beside the row).
    #[test]
    fn slot_entry_stays_under_its_size_ceiling() {
        let dims = EventSpace::paper_default().dims();
        let bytes = dims * std::mem::size_of::<(u64, u64)>();
        assert!(bytes <= 64, "a slot grew to {bytes} B (ceiling 64)");
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
        idx.insert(1, &sub);
        assert_eq!(idx.len(), 1);

        let hit = Event::new_unchecked(vec![150, 0, 5]);
        let miss = Event::new_unchecked(vec![150, 0, 6]);
        assert_eq!(idx.matches(&hit), vec![1]);
        assert!(idx.matches(&miss).is_empty());

        assert!(!idx.remove(0), "slot 0 below the tenant is vacant");
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert!(!idx.remove(7));
        assert!(idx.matches(&hit).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn multiple_overlapping_subscriptions() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let mut live = Vec::new();
        for i in 0..10u64 {
            let sub = Subscription::builder(&s)
                .range("x", i * 50, i * 50 + 100)
                .unwrap()
                .build()
                .unwrap();
            idx.insert(i as u32, &sub);
            live.push((i as u32, sub));
        }
        // x = 120 lies in [50,150], [100,200] → subs 1 and 2... and [0,100]?
        // 120 > 100, no. Check against brute force instead of hand-counting.
        let e = Event::new_unchecked(vec![120, 0, 0]);
        assert_eq!(idx.matches(&e), brute_force(&live, &e));
        assert!(!idx.matches(&e).is_empty());
    }

    #[test]
    fn wildcard_dimensions_ignored() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 3).build().unwrap();
        idx.insert(7, &sub);
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
        let mut live = Vec::new();
        let edges = [
            (0, 0),
            (0, u64::MAX - 1),
            (u64::MAX - 1, u64::MAX - 1),
            (5, 9),
        ];
        for (slot, (lo, hi)) in (0u32..).zip(edges) {
            let sub = Subscription::builder(&s).range("x", lo, hi).unwrap();
            live.push((slot, sub.build().unwrap()));
        }
        live.push((6, Subscription::builder(&s).eq("x", 7).build().unwrap()));
        live.push((7, Subscription::builder(&s).eq("y", 1).build().unwrap()));
        for (slot, sub) in &live {
            idx.insert(*slot, sub);
        }
        for x in [0, 1, 4, 5, 7, 9, 10, 1 << 32, u64::MAX - 2, u64::MAX - 1] {
            for y in [0, 1] {
                let e = Event::new_unchecked(vec![x, y]);
                assert_eq!(idx.matches(&e), brute_force(&live, &e), "{x}, {y}");
            }
        }
        // The highest lower bound there is still reads as an occupied row.
        assert!(idx.remove(2));
        assert!(!idx.remove(2));
    }

    /// A slot is occupied from its insert until its row is vacated,
    /// whatever its first dimension holds — here a wildcard — and a second
    /// tenant for an occupied slot is refused.
    #[test]
    #[should_panic(expected = "engine slot 9 is occupied")]
    fn an_occupied_slot_refuses_a_second_tenant() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 1).build().unwrap();
        idx.insert(9, &sub);
        assert!(idx.remove(9));
        idx.insert(9, &sub);
        assert_eq!(idx.len(), 1);
        idx.insert(9, &sub);
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
        let mut live: Vec<(u32, Subscription)> = Vec::new();
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
                idx.insert(slot, &sub);
                live.push((slot, sub));
            } else {
                let k = rng.gen_range(0u64..live.len() as u64) as usize;
                let (slot, _) = live.swap_remove(k);
                assert!(idx.remove(slot));
                free.push(slot);
            }
            if rng.gen_bool(0.25) {
                let e = Event::new_unchecked(vec![
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..10),
                ]);
                assert_eq!(idx.matches(&e), brute_force(&live, &e));
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
            let mut live = Vec::new();
            let sub_count = rng.gen_range(1usize..60);
            for slot in 0..sub_count as u32 {
                let xlo = rng.gen_range(0u64..1000);
                let xw = rng.gen_range(0u64..400);
                let ylo = rng.gen_range(0u64..1000);
                let yw = rng.gen_range(0u64..400);
                let mut constraints = vec![
                    Some(Constraint::range(xlo, (xlo + xw).min(999)).unwrap()),
                    Some(Constraint::range(ylo, (ylo + yw).min(999)).unwrap()),
                    None,
                ];
                if rng.gen_bool(0.5) {
                    constraints[2] = Some(Constraint::eq(rng.gen_range(0u64..10)));
                }
                let sub = Subscription::from_constraints(&s, constraints).unwrap();
                idx.insert(slot, &sub);
                live.push((slot, sub));
            }
            for _ in 0..rng.gen_range(1usize..30) {
                let e = Event::new_unchecked(vec![
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..10),
                ]);
                assert_eq!(
                    idx.matches(&e),
                    brute_force(&live, &e),
                    "case {case}: index disagrees with brute force"
                );
            }
        }
    }
}
