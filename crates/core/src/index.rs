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
//!
//! A row may also record the attribute that *placed* its subscription on
//! this node (Mapping 3, §4.2: `SK(σ) = H_s(σ.c_s)`), one byte per slot. A
//! scan given the set of attributes whose event key this node owns skips
//! a row placed by any other attribute without reading its bounds: some
//! other node owns that attribute's key, and it matches the pair. A row
//! filed without an attribute is taken only by the plain scan, so a store
//! that skips rows must have every row placed.

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

/// The placing attribute of a row filed without one: only a scan that
/// owns every attribute takes it.
const UNPLACED: u8 = u8::MAX;

/// An owned-attribute mask with every attribute in it: the plain scan,
/// which takes every row.
pub(crate) const ALL_ATTRIBUTES: u64 = u64::MAX;

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
    /// `placed[slot]` = the attribute that placed the subscription under
    /// `slot`, or [`UNPLACED`]. Empty until the first placed insert, and
    /// from then on covering at least every placed slot: a slot past its
    /// end is unplaced.
    placed: Vec<u8>,
    len: usize,
}

impl MatchIndex {
    /// An empty index over no attributes: the engine of the store a node
    /// lends before it stores anything.
    pub(crate) const EMPTY: MatchIndex = MatchIndex {
        dims: 0,
        bounds: Vec::new(),
        placed: Vec::new(),
        len: 0,
    };

    /// Creates an empty index for the given space.
    pub fn new(space: &EventSpace) -> Self {
        MatchIndex {
            dims: space.dims(),
            bounds: Vec::new(),
            placed: Vec::new(),
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
        self.insert_placed(slot, sub, None);
    }

    /// [`MatchIndex::insert`], recording `placed_by`, the attribute that
    /// placed `sub` on this node: a scan whose owned-attribute mask leaves
    /// that attribute out skips the row. `None`, or an attribute past the
    /// mask's 64 bits, files the row unplaced: only the plain scan takes
    /// it.
    ///
    /// # Panics
    ///
    /// As [`MatchIndex::insert`].
    pub fn insert_placed(&mut self, slot: u32, sub: &Subscription, placed_by: Option<usize>) {
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
        let tag = placed_by
            .filter(|&dim| dim < u64::BITS as usize)
            .map_or(UNPLACED, |dim| dim as u8);
        let at = slot as usize;
        if at < self.placed.len() {
            self.placed[at] = tag;
        } else if tag != UNPLACED {
            self.placed.resize(at, UNPLACED);
            self.placed.push(tag);
        }
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
        self.scan(event, ALL_ATTRIBUTES, |slot| out.push(slot));
    }

    /// Hands `hit` the slot of every subscription matched by `event` whose
    /// row `owned` takes (bit `i` for attribute `i`), in ascending order: a
    /// row placed by attribute `i` when bit `i` is set, an unplaced row
    /// only when every attribute of the space is. That full mask is the
    /// plain scan, with no per-row test; any other skips a row it does not
    /// take without reading its bounds.
    pub fn scan(&self, event: &Event, owned: u64, mut hit: impl FnMut(u32)) {
        let values = event.values();
        debug_assert_eq!(values.len(), self.dims);
        let admits = |row: &[(u64, u64)]| {
            let dims = row.iter().zip(values);
            dims.fold(true, |all, (&(lo, width), &v)| {
                all & (v.wrapping_sub(lo) <= width)
            })
        };
        let every = u64::MAX
            .checked_shr(u64::BITS.saturating_sub(self.dims as u32))
            .unwrap_or(0);
        if owned & every == every {
            for (slot, row) in (0u32..).zip(self.bounds.chunks_exact(self.dims)) {
                if admits(row) {
                    hit(slot);
                }
            }
            return;
        }
        // Rows of different attributes interleave, so a branch on each
        // row's tag would mispredict about as often as it skips: look 64
        // tags up at a time into one word, without a branch, and visit only
        // its set bits. `UNPLACED` looks up 0, and a row past the end of
        // `placed` is unplaced: this scan skips both.
        let mut takes_tag = [0u8; 256];
        for (dim, takes) in takes_tag.iter_mut().take(self.dims.min(64)).enumerate() {
            *takes = (owned >> dim & 1) as u8;
        }
        for (base, tags) in (0u32..).step_by(64).zip(self.placed.chunks(64)) {
            let mut takes = tags.iter().enumerate().fold(0u64, |word, (i, &tag)| {
                word | u64::from(takes_tag[usize::from(tag)]) << i
            });
            while takes != 0 {
                let slot = base + takes.trailing_zeros();
                takes &= takes - 1;
                let start = slot as usize * self.dims;
                if admits(&self.bounds[start..start + self.dims]) {
                    hit(slot);
                }
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

    /// A masked scan is the plain scan less the rows placed by an attribute
    /// outside the mask and, unless the mask is full, the unplaced rows; a
    /// slot refilled without an attribute drops the old tenant's.
    #[test]
    fn masked_scan_skips_rows_of_unowned_attributes() {
        let mut rng = Rng::seed_from_u64(0x0b5e_55ed);
        let s = space();
        for case in 0..128 {
            let mut idx = MatchIndex::new(&s);
            let mut live: Vec<(u32, Subscription, Option<usize>)> = Vec::new();
            for slot in 0..rng.gen_range(1u32..40) {
                let lo = rng.gen_range(0u64..1000);
                let sub = Subscription::builder(&s)
                    .range("x", lo, (lo + rng.gen_range(0u64..600)).min(999))
                    .unwrap()
                    .build()
                    .unwrap();
                let placed = match rng.gen_range(0u64..4) {
                    3 => None,
                    dim => Some(dim as usize),
                };
                idx.insert_placed(slot, &sub, placed);
                live.push((slot, sub, placed));
            }
            // Refill a slot unplaced: it must not inherit the old tag.
            let (slot, sub, _) = live.remove(0);
            assert!(idx.remove(slot));
            idx.insert(slot, &sub);
            live.push((slot, sub, None));
            for _ in 0..16 {
                let e = Event::new_unchecked(vec![rng.gen_range(0u64..1000), 0, 0]);
                let owned = rng.next_u64() & 0b111;
                let mut want: Vec<u32> = live
                    .iter()
                    .filter(|(_, sub, placed)| {
                        let full = owned == 0b111;
                        sub.matches(&e) && placed.map_or(full, |dim| owned >> dim & 1 == 1)
                    })
                    .map(|&(slot, ..)| slot)
                    .collect();
                want.sort_unstable();
                let mut got = Vec::new();
                idx.scan(&e, owned, |slot| got.push(slot));
                assert_eq!(got, want, "case {case}, mask {owned:#b}");
                let mut all = Vec::new();
                idx.scan(&e, 0b111, |slot| all.push(slot));
                assert_eq!(
                    all,
                    idx.matches(&e),
                    "case {case}: a full mask skipped a row"
                );
            }
        }
    }

    /// An index that only ever sees unplaced inserts keeps no tag bytes;
    /// the plain scan takes its rows and no other does.
    #[test]
    fn unplaced_inserts_write_no_tags() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 3).build().unwrap();
        idx.insert(4, &sub);
        idx.insert_placed(5, &sub, None);
        assert!(idx.placed.is_empty());
        let e = Event::new_unchecked(vec![0, 0, 3]);
        let scan = |owned| {
            let mut hits = Vec::new();
            idx.scan(&e, owned, |slot| hits.push(slot));
            hits
        };
        assert_eq!(scan(ALL_ATTRIBUTES), vec![4, 5]);
        assert_eq!(scan(0b111), vec![4, 5]);
        assert!(scan(0b011).is_empty());
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
