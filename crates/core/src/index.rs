//! A matching index over stored subscriptions.
//!
//! Rendezvous nodes must match every incoming event against their stored
//! subscriptions (§3.2). The index implements the classic *counting*
//! algorithm over per-attribute bucket lists (à la Fabret et al. [6]): for
//! each dimension, bucket lookup yields the candidate constraints, exact
//! bound checks count satisfied constraints per subscription, and a
//! subscription matches when all of its constraints are satisfied.
//! Wildcard dimensions never enter the count.

use std::collections::hash_map::Entry;

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::{IdMap, SubId, Subscription};
use cbps_overlay::InlineVec;

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
/// use cbps::{AttributeDef, Event, EventSpace, MatchIndex, SubId, Subscription};
///
/// let space = EventSpace::new(vec![
///     AttributeDef::new("x", 100),
///     AttributeDef::new("y", 100),
/// ]);
/// let mut index = MatchIndex::new(&space);
/// let sub = Subscription::builder(&space).range("x", 10, 20)?.build()?;
/// index.insert(SubId(1), sub);
/// let mut hits = Vec::new();
/// index.matches_into(&Event::new(&space, vec![15, 99])?, &mut hits);
/// assert_eq!(hits, vec![SubId(1)]);
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
    /// Dense slot table; freed slots are recycled.
    slots: Vec<Option<SlotEntry>>,
    free: Vec<u32>,
    /// Id → slot.
    by_id: IdMap<u32>,
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
    id: SubId,
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
            free: Vec::new(),
            by_id: IdMap::default(),
            epoch: 0,
            epochs: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Number of indexed subscriptions.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// `true` iff `id` is indexed.
    pub fn contains(&self, id: SubId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Iterates over the indexed `(id, subscription)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SubId, &Subscription)> {
        self.slots.iter().flatten().map(|e| (e.id, &e.sub))
    }

    /// Inserts a subscription under `id`. Returns `false` (and leaves the
    /// index unchanged) when `id` is already present.
    pub fn insert(&mut self, id: SubId, sub: Subscription) -> bool {
        let Entry::Vacant(by_id) = self.by_id.entry(id) else {
            return false;
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        by_id.insert(slot);
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
            id,
            sub,
            constrained,
            positions,
        });
        true
    }

    /// Removes the subscription under `id`, returning it if present.
    ///
    /// O(1) per bucket: each bucket entry is evicted by `swap_remove` at
    /// its recorded position, and the one entry that gets moved has its
    /// own recorded position fixed up in place.
    pub fn remove(&mut self, id: SubId) -> Option<Subscription> {
        let slot = self.by_id.remove(&id)?;
        let entry = self.slots[slot as usize].take()?;
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
        self.free.push(slot);
        Some(entry.sub)
    }

    /// The subscription stored under `id`.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        let slot = *self.by_id.get(&id)?;
        self.slots[slot as usize].as_ref().map(|e| &e.sub)
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

    /// Writes all subscriptions matched by `event` into `out` (cleared
    /// first), in ascending id order. Allocation-free at steady state:
    /// the counting scratch is epoch-stamped rather than re-zeroed, so a
    /// call touches only the candidate slots.
    pub fn matches_into(&mut self, event: &Event, out: &mut Vec<SubId>) {
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
                out.push(entry.id);
            }
        }
        out.sort_unstable();
    }

    /// Reference implementation: linear scan with exact matching. Used by
    /// tests and micro-benchmarks to validate and compare the index.
    pub fn matches_brute_force(&self, event: &Event) -> Vec<SubId> {
        let mut out: Vec<SubId> = self
            .slots
            .iter()
            .flatten()
            .filter(|e| e.sub.matches(event))
            .map(|e| e.id)
            .collect();
        out.sort_unstable();
        out
    }
}

fn bucket_span(widths: &[u64], dim: usize, lo: u64, hi: u64) -> (usize, usize) {
    let w = widths[dim];
    (
        ((lo / w) as usize).min(BUCKETS - 1),
        ((hi / w) as usize).min(BUCKETS - 1),
    )
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
        assert!(idx.insert(SubId(1), sub.clone()));
        assert!(!idx.insert(SubId(1), sub)); // duplicate rejected
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(SubId(1)));

        let hit = Event::new_unchecked(vec![150, 0, 5]);
        let miss = Event::new_unchecked(vec![150, 0, 6]);
        assert_eq!(idx.matches(&hit), vec![SubId(1)]);
        assert!(idx.matches(&miss).is_empty());

        assert!(idx.remove(SubId(1)).is_some());
        assert!(idx.remove(SubId(1)).is_none());
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
            idx.insert(SubId(i), sub);
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
        idx.insert(SubId(7), sub);
        // x and y arbitrary.
        assert_eq!(
            idx.matches(&Event::new_unchecked(vec![999, 0, 3])),
            vec![SubId(7)]
        );
        assert!(idx
            .matches(&Event::new_unchecked(vec![999, 0, 4]))
            .is_empty());
    }

    #[test]
    fn iter_and_get() {
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 1).build().unwrap();
        idx.insert(SubId(9), sub.clone());
        assert_eq!(idx.get(SubId(9)), Some(&sub));
        assert_eq!(idx.iter().count(), 1);
    }

    /// Interleaved inserts and removes keep the bucket position records
    /// consistent: every removal exercises the `swap_remove` fix-up path,
    /// and matching stays equal to brute force throughout.
    #[test]
    fn removal_keeps_index_consistent() {
        let mut rng = Rng::seed_from_u64(0xdead_5107);
        let s = space();
        let mut idx = MatchIndex::new(&s);
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
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
                assert!(idx.insert(SubId(next_id), sub));
                live.push(next_id);
                next_id += 1;
            } else {
                let k = rng.gen_range(0u64..live.len() as u64) as usize;
                let id = live.swap_remove(k);
                assert!(idx.remove(SubId(id)).is_some());
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
                idx.insert(SubId(i as u64), sub);
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
