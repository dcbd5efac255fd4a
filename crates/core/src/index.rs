//! A matching index over stored subscriptions.
//!
//! Rendezvous nodes must match every incoming event against their stored
//! subscriptions (§3.2). The index implements the classic *counting*
//! algorithm over per-attribute bucket lists (à la Fabret et al. [6]): for
//! each dimension, bucket lookup yields the candidate constraints, exact
//! bound checks count satisfied constraints per subscription, and a
//! subscription matches when all of its constraints are satisfied.
//! Wildcard dimensions never enter the count.

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::Subscription;
use cbps_overlay::InlineVec;
use cbps_sim::prefetch::{prefetch_at, prefetch_tail};

/// Number of buckets per dimension. Chosen so bucket lists stay short for
/// the evaluation workloads without bloating empty stores.
const BUCKETS: usize = 64;

/// What a bucket list allocates on its first entry. `Vec`'s own first step
/// is 4, and under Mapping 1 a node's lists pass 4 entries within its
/// first few dozen subscriptions: starting at 8 saves every list one
/// reallocation for 16 bytes a list.
const FIRST_BUCKET_CAP: usize = 8;

/// Bucket positions an index entry records in place. The paper's workload
/// needs 8 on average and at most 12 (four dimensions, ranges spanning up
/// to three buckets); broader subscriptions spill to the heap.
const INLINE_POSITIONS: usize = 12;

/// Counting-based subscription index for one rendezvous node.
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
    /// Bucket width per dimension (`ceil(|Ω_i| / BUCKETS)`).
    widths: Vec<u64>,
    /// Empty until the first insert: a fresh index is ~6 KB of bucket
    /// vectors per node otherwise, which dominates deployment build
    /// memory at large ring sizes where most stores never fill.
    ///
    /// `buckets[i * BUCKETS + b]` = dense slots of subscriptions whose
    /// constraint on dimension `i` overlaps bucket `b`.
    buckets: Vec<Vec<u32>>,
    /// The entries, by the slot their owner filed them under: the index
    /// mints no numbers of its own, so a hit leads its owner straight to
    /// whatever it keeps under the same number.
    slots: Vec<Option<SlotEntry>>,
    len: usize,
    /// Scratch for the counting algorithm, reused across `matches` calls:
    /// `counts[slot]` is current only when `epochs[slot] == epoch`, so one
    /// counter bump invalidates every stale count instead of zeroing a
    /// slot-sized vector per event.
    epoch: u32,
    epochs: Vec<u32>,
    counts: Vec<u32>,
    touched: Vec<u32>,
}

/// One indexed subscription.
#[derive(Clone, Debug)]
struct SlotEntry {
    sub: Subscription,
    /// Number of constrained (non-wildcard) dimensions.
    constrained: u32,
    /// This slot's position inside each bucket list it appears in,
    /// flattened dimension-major (for each constrained dimension, one
    /// entry per bucket of its span, in ascending bucket order). Kept in
    /// lockstep by `swap_remove` fix-ups so removal never scans a bucket.
    positions: InlineVec<u32, INLINE_POSITIONS>,
}

impl MatchIndex {
    /// Creates an empty index for the given space.
    pub fn new(space: &EventSpace) -> Self {
        MatchIndex {
            widths: space
                .attrs()
                .iter()
                .map(|a| a.size().div_ceil(BUCKETS as u64).max(1))
                .collect(),
            buckets: Vec::new(),
            slots: Vec::new(),
            len: 0,
            epoch: 0,
            epochs: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
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
        let slots = (0u32..).zip(&self.slots);
        slots.filter_map(|(slot, e)| Some((slot, &e.as_ref()?.sub)))
    }

    /// Indexes a subscription under `slot`, a number its caller owns and
    /// keeps dense (the table below grows to the largest one in use).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is occupied: two tenants of one slot would
    /// answer for each other's events.
    pub fn insert(&mut self, slot: u32, sub: Subscription) {
        if slot as usize >= self.slots.len() {
            self.slots.resize_with(slot as usize + 1, || None);
        }
        assert!(
            self.slots[slot as usize].is_none(),
            "engine slot {slot} is occupied"
        );
        self.len += 1;
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); self.widths.len() * BUCKETS];
        }
        let mut positions = InlineVec::new();
        for (i, c) in sub.constraints().iter().enumerate() {
            if let Some(c) = c {
                let (blo, bhi) = bucket_span(&self.widths, i, c.lo(), c.hi());
                for list in &mut self.buckets[i * BUCKETS + blo..=i * BUCKETS + bhi] {
                    if list.capacity() == 0 {
                        list.reserve_exact(FIRST_BUCKET_CAP);
                    }
                    positions.push(list.len() as u32);
                    list.push(slot);
                }
            }
        }
        let constrained = sub.constrained_count() as u32;
        self.slots[slot as usize] = Some(SlotEntry {
            sub,
            constrained,
            positions,
        });
    }

    /// Hints the lines an insert of `sub` under a fresh slot writes first:
    /// the tail of the slot table and the headers of the bucket lists of
    /// `sub`'s spans (see [`cbps_sim::prefetch`]).
    pub(crate) fn prefetch_insert(&self, sub: &Subscription) {
        prefetch_tail(&self.slots);
        for lists in spans(&self.widths, sub) {
            prefetch_at(&self.buckets, lists.start);
            prefetch_at(&self.buckets, lists.end - 1);
        }
    }

    /// The second round of [`MatchIndex::prefetch_insert`], once the
    /// headers it asked for are in: the tails of those bucket lists.
    pub(crate) fn prefetch_tails(&self, sub: &Subscription) {
        for lists in spans(&self.widths, sub) {
            // No lists at all before the first insert.
            self.buckets
                .get(lists)
                .into_iter()
                .flatten()
                .for_each(|list| prefetch_tail(list));
        }
    }

    /// Removes the subscription under `slot`, returning it if present.
    ///
    /// O(1) per bucket: each bucket entry is evicted by `swap_remove` at
    /// its recorded position, and the one entry that gets moved has its
    /// own recorded position fixed up in place.
    pub fn remove(&mut self, slot: u32) -> Option<Subscription> {
        let entry = self.slots.get_mut(slot as usize)?.take()?;
        self.len -= 1;
        let mut pi = 0;
        for (i, c) in entry.sub.constraints().iter().enumerate() {
            if let Some(c) = c {
                let (blo, bhi) = bucket_span(&self.widths, i, c.lo(), c.hi());
                for b in blo..=bhi {
                    let pos = entry.positions.as_slice()[pi] as usize;
                    pi += 1;
                    let list = &mut self.buckets[i * BUCKETS + b];
                    debug_assert_eq!(list[pos], slot, "stale position record");
                    list.swap_remove(pos);
                    if pos < list.len() {
                        let moved = self.slots[list[pos] as usize]
                            .as_mut()
                            .expect("bucket lists only hold live slots");
                        let off = position_offset(&self.widths, &moved.sub, i, b);
                        moved.positions.as_mut_slice()[off] = pos as u32;
                    }
                }
            }
        }
        Some(entry.sub)
    }

    /// The subscription stored under `slot`.
    pub fn get(&self, slot: u32) -> Option<&Subscription> {
        self.slots.get(slot as usize)?.as_ref().map(|e| &e.sub)
    }

    /// Grows the counting scratch to its steady-state size (bounded by the
    /// slot count) so subsequent [`MatchIndex::matches_into`] calls never
    /// reallocate. `matches_into` warms the same buffers incrementally;
    /// this lets a measurement harness pre-fault nodes that have not
    /// matched an event yet.
    pub fn warm(&mut self) {
        let need = self.slots.len();
        if self.epochs.len() < need {
            self.epochs.resize(need, 0);
            self.counts.resize(need, 0);
        }
        if self.touched.capacity() < need {
            self.touched.reserve(need - self.touched.len());
        }
    }

    /// Writes the slots of all subscriptions matched by `event` into `out`
    /// (cleared first), in ascending order. Allocation-free at steady
    /// state: the counting scratch is epoch-stamped rather than re-zeroed,
    /// so a call touches only the candidate slots.
    pub fn matches_into(&mut self, event: &Event, out: &mut Vec<u32>) {
        out.clear();
        if self.buckets.is_empty() {
            // Nothing was ever inserted; the bucket lists don't exist yet.
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrapped: stale stamps could collide, so reset them all.
            self.epochs.fill(0);
            self.epoch = 1;
        }
        if self.epochs.len() < self.slots.len() {
            self.epochs.resize(self.slots.len(), 0);
            self.counts.resize(self.slots.len(), 0);
        }
        self.touched.clear();
        for (i, &v) in event.values().iter().enumerate() {
            let b = ((v / self.widths[i]) as usize).min(BUCKETS - 1);
            for &slot in &self.buckets[i * BUCKETS + b] {
                let entry = self.slots[slot as usize]
                    .as_ref()
                    .expect("bucket lists only hold live slots");
                if entry
                    .sub
                    .constraint(i)
                    .expect("indexed constraint")
                    .admits(v)
                {
                    let s = slot as usize;
                    if self.epochs[s] != self.epoch {
                        self.epochs[s] = self.epoch;
                        self.counts[s] = 0;
                        self.touched.push(slot);
                    }
                    self.counts[s] += 1;
                }
            }
        }
        for &slot in &self.touched {
            let entry = self.slots[slot as usize].as_ref().expect("live slot");
            if self.counts[slot as usize] == entry.constrained {
                out.push(slot);
            }
        }
        out.sort_unstable();
    }

    /// Reference implementation: linear scan with exact matching. Used by
    /// tests and micro-benchmarks to validate and compare the index.
    pub fn matches_brute_force(&self, event: &Event) -> Vec<u32> {
        let hits = self.iter().filter(|(_, sub)| sub.matches(event));
        hits.map(|(slot, _)| slot).collect()
    }
}

fn bucket_span(widths: &[u64], dim: usize, lo: u64, hi: u64) -> (usize, usize) {
    let w = widths[dim];
    (
        ((lo / w) as usize).min(BUCKETS - 1),
        ((hi / w) as usize).min(BUCKETS - 1),
    )
}

/// The bucket lists `sub` is entered in, as ranges of
/// [`MatchIndex::buckets`], one per constrained dimension.
fn spans<'a>(
    widths: &'a [u64],
    sub: &'a Subscription,
) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
    let constrained = sub.constraints().iter().enumerate();
    constrained.filter_map(move |(i, c)| {
        let (blo, bhi) = bucket_span(widths, i, c.as_ref()?.lo(), c.as_ref()?.hi());
        Some(i * BUCKETS + blo..i * BUCKETS + bhi + 1)
    })
}

/// Index into a [`SlotEntry::positions`] vector for dimension `dim`,
/// bucket `bucket`: the sum of earlier constrained dimensions' span widths
/// plus the offset within `dim`'s own span.
fn position_offset(widths: &[u64], sub: &Subscription, dim: usize, bucket: usize) -> usize {
    let mut off = 0;
    for (i, c) in sub.constraints().iter().enumerate() {
        if let Some(c) = c {
            let (blo, bhi) = bucket_span(widths, i, c.lo(), c.hi());
            if i == dim {
                debug_assert!((blo..=bhi).contains(&bucket));
                return off + (bucket - blo);
            }
            off += bhi - blo + 1;
        }
    }
    unreachable!("position_offset called for an unconstrained dimension")
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

    /// The index entry is the larger half of what a founding copy writes
    /// (96 B while it carried the id it was found by).
    #[test]
    fn slot_entry_stays_under_its_size_ceiling() {
        let bytes = std::mem::size_of::<Option<SlotEntry>>();
        assert!(bytes <= 88, "SlotEntry grew to {bytes} B (ceiling 88)");
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
        // x and y arbitrary.
        assert_eq!(idx.matches(&Event::new_unchecked(vec![999, 0, 3])), vec![7]);
        assert!(idx
            .matches(&Event::new_unchecked(vec![999, 0, 4]))
            .is_empty());
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

    /// Interleaved inserts and removes keep the bucket position records
    /// consistent: every removal exercises the `swap_remove` fix-up path,
    /// freed slots go to the next newcomer the way an owner's free list
    /// hands them out, and matching stays equal to brute force throughout.
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

    /// The bucket index agrees with brute force on random workloads
    /// (seeded-loop port of the original property test).
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
