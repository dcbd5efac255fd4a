//! A flat, cache-friendly matching engine for very large stores.
//!
//! [`MatchIndex`](crate::MatchIndex) scans its whole bounds table for
//! every event, which stops paying once a rendezvous node holds 10^4 or
//! more subscriptions. [`SortedIndex`] visits only candidates instead,
//! from struct-of-arrays storage:
//!
//! * **Row store.** Every subscription is one *row* in flat parallel
//!   arrays (`lo`/`hi` per dimension, a constrained-dimension bitmask, the
//!   owner's slot). Candidate verification is sequential loads, no
//!   pointers. Rows are the engine's own: a removed row lingers in the
//!   runs until a merge drops it, so the slot its owner recycles at once
//!   cannot double as the row number.
//! * **Span-class segments.** Rows are grouped by `(first constrained
//!   dimension d, ⌊log2 span⌋)` and kept sorted by their lower bound on
//!   `d`. For an event value `v`, every constraint in a class-`k` segment
//!   that admits `v` has `lo ∈ [v − (2^(k+1) − 2), v]`: one binary search
//!   plus a backward scan with early exit visits only true candidates
//!   (within a factor ≈ 2).
//! * **Sorted runs.** Each segment holds a logarithmic stack of sorted
//!   runs (binary-counter merging). Inserts go to a small unsorted
//!   staging tail that is batch-sorted and merged, so a subscribe costs
//!   O(1) amortized array appends plus O(log n) amortized merge work —
//!   never an O(n) in-place shift.
//! * **Deferred cleanup.** `remove` only tombstones a row; merges and an
//!   occasional compaction sweep reclaim dead rows in bulk, keeping
//!   unsubscription O(1).
//!
//! The engine is limited to event spaces of at most 64 dimensions (the
//! constrained-dimension bitmask); deployments select it through
//! [`MatchEngineKind`](cbps_sim::MatchEngineKind), which validates that
//! bound. Match sets are identical to the flat table's by construction
//! and checked by the differential suites.

use std::collections::{BTreeMap, HashMap};

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::Subscription;

/// Rows buffered unsorted before being batch-merged into segment runs.
/// Queries scan the staging tail linearly, so it stays cache-sized.
const STAGING_MAX: usize = 1024;

/// One sorted run of a segment: rows ordered by their lower bound on the
/// segment's dimension. `lo`/`hi` duplicate the segment-dimension bounds
/// so the scan stays inside two hot arrays until a candidate survives.
#[derive(Clone, Debug, Default)]
struct Run {
    lo: Vec<u64>,
    hi: Vec<u64>,
    row: Vec<u32>,
}

impl Run {
    fn len(&self) -> usize {
        self.row.len()
    }
}

/// A `(first constrained dimension, span class)` segment: a stack of
/// sorted runs merged binary-counter style.
#[derive(Clone, Debug, Default)]
struct Segment {
    runs: Vec<Run>,
}

/// In [`SortedIndex::by_slot`]: nothing is indexed under the slot.
const VACANT: u32 = u32::MAX;

/// Flat sorted-table matching engine (see the module docs).
#[derive(Clone, Debug)]
pub struct SortedIndex {
    dims: usize,
    /// Flat row store: `lo[row * dims + d]` / `hi[...]` are the bounds on
    /// dimension `d` (unconstrained dimensions hold `0..=u64::MAX`).
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Bit `d` set iff the row constrains dimension `d`.
    mask: Vec<u64>,
    /// Row → the slot its owner knows it by, and the subscription itself
    /// (`None` once removed).
    slots: Vec<u32>,
    subs: Vec<Option<Subscription>>,
    /// Tombstones: dead rows are skipped by queries and reclaimed lazily.
    dead: Vec<bool>,
    free: Vec<u32>,
    /// Slot → row ([`VACANT`] = none), as dense as the owner keeps its
    /// slots.
    by_slot: Vec<u32>,
    len: usize,
    /// Ordered by `(dimension, span class)` so scans visit segments in a
    /// deterministic order.
    segments: BTreeMap<(u32, u32), Segment>,
    staging: Vec<u32>,
    dead_rows: usize,
}

impl SortedIndex {
    /// Creates an empty index for the given space.
    ///
    /// # Panics
    ///
    /// Panics when the space has more than 64 dimensions (the row bitmask
    /// width); [`PubSubNetworkBuilder`](crate::PubSubNetworkBuilder)
    /// surfaces this as a [`ConfigError`](crate::ConfigError) instead.
    pub fn new(space: &EventSpace) -> Self {
        assert!(
            space.dims() <= 64,
            "SortedIndex supports at most 64 dimensions, space has {}",
            space.dims()
        );
        SortedIndex {
            dims: space.dims(),
            lo: Vec::new(),
            hi: Vec::new(),
            mask: Vec::new(),
            slots: Vec::new(),
            subs: Vec::new(),
            dead: Vec::new(),
            free: Vec::new(),
            by_slot: Vec::new(),
            len: 0,
            segments: BTreeMap::new(),
            staging: Vec::new(),
            dead_rows: 0,
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

    /// Indexes a subscription under `slot`, a number its caller owns and
    /// keeps dense.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is occupied.
    pub fn insert(&mut self, slot: u32, sub: Subscription) {
        if slot as usize >= self.by_slot.len() {
            self.by_slot.resize(slot as usize + 1, VACANT);
        }
        assert_eq!(
            self.by_slot[slot as usize], VACANT,
            "engine slot {slot} is occupied"
        );
        debug_assert_eq!(sub.dims(), self.dims);
        let row = match self.free.pop() {
            Some(r) => r,
            None => {
                let r = self.slots.len() as u32;
                self.lo.resize(self.lo.len() + self.dims, 0);
                self.hi.resize(self.hi.len() + self.dims, u64::MAX);
                self.mask.push(0);
                self.slots.push(VACANT);
                self.subs.push(None);
                self.dead.push(false);
                r
            }
        };
        let base = row as usize * self.dims;
        let mut mask = 0u64;
        for (d, c) in sub.constraints().iter().enumerate() {
            match c {
                Some(c) => {
                    self.lo[base + d] = c.lo();
                    self.hi[base + d] = c.hi();
                    mask |= 1 << d;
                }
                None => {
                    self.lo[base + d] = 0;
                    self.hi[base + d] = u64::MAX;
                }
            }
        }
        self.mask[row as usize] = mask;
        self.slots[row as usize] = slot;
        self.subs[row as usize] = Some(sub);
        self.dead[row as usize] = false;
        self.by_slot[slot as usize] = row;
        self.len += 1;
        self.staging.push(row);
        if self.staging.len() >= STAGING_MAX {
            self.flush_staging();
        }
    }

    /// Removes the subscription under `slot`, returning it if present.
    ///
    /// O(1): the row is only tombstoned; dead rows are reclaimed in bulk
    /// by run merges and by a compaction sweep once more than a quarter of
    /// the table is dead.
    pub fn remove(&mut self, slot: u32) -> Option<Subscription> {
        let row = std::mem::replace(self.by_slot.get_mut(slot as usize)?, VACANT);
        if row == VACANT {
            return None;
        }
        let sub = self.subs[row as usize].take();
        self.len -= 1;
        self.dead[row as usize] = true;
        self.dead_rows += 1;
        if self.dead_rows * 4 > self.len + 64 {
            self.compact();
        }
        sub
    }

    /// The subscription stored under `slot`.
    pub fn get(&self, slot: u32) -> Option<&Subscription> {
        let &row = self.by_slot.get(slot as usize)?;
        self.subs.get(row as usize)?.as_ref()
    }

    /// Writes the slots of all subscriptions matched by `event` into `out`
    /// (cleared first), in ascending order.
    pub fn matches_into(&self, event: &Event, out: &mut Vec<u32>) {
        out.clear();
        for &row in &self.staging {
            let r = row as usize;
            if !self.dead[r] && self.admits(row, event, 0) {
                out.push(self.slots[r]);
            }
        }
        for (&(d, class), seg) in &self.segments {
            let v = event.value(d as usize);
            // Class-`k` spans are at most `2^(k+1) − 1`, so an admitting
            // constraint has `lo ≥ v − (2^(k+1) − 2)`.
            let lo_min = if class >= 63 {
                0
            } else {
                v.saturating_sub((1u64 << (class + 1)) - 2)
            };
            let skip = 1u64 << d;
            for run in &seg.runs {
                let end = run.lo.partition_point(|&lo| lo <= v);
                for j in (0..end).rev() {
                    if run.lo[j] < lo_min {
                        break;
                    }
                    if run.hi[j] < v {
                        continue;
                    }
                    let row = run.row[j];
                    if !self.dead[row as usize] && self.admits(row, event, skip) {
                        out.push(self.slots[row as usize]);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// `true` iff the row's constraints (minus the dimensions in `skip`,
    /// already checked by the segment scan) admit the event.
    #[inline]
    fn admits(&self, row: u32, event: &Event, skip: u64) -> bool {
        let base = row as usize * self.dims;
        let mut m = self.mask[row as usize] & !skip;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            let v = event.value(d);
            if v < self.lo[base + d] || v > self.hi[base + d] {
                return false;
            }
            m &= m - 1;
        }
        true
    }

    /// The `(first constrained dimension, ⌊log2 span⌋)` segment key of a
    /// live row.
    fn seg_key(&self, row: u32) -> (u32, u32) {
        let m = self.mask[row as usize];
        debug_assert_ne!(m, 0, "subscriptions constrain at least one dimension");
        let d = m.trailing_zeros();
        let base = row as usize * self.dims + d as usize;
        let span = self.hi[base] - self.lo[base] + 1;
        (d, 63 - span.leading_zeros())
    }

    fn release_row(&mut self, row: u32) {
        debug_assert!(self.dead[row as usize]);
        self.dead[row as usize] = false;
        self.dead_rows -= 1;
        self.free.push(row);
    }

    /// Sorts the staging tail into one run per segment, then restores the
    /// binary-counter invariant (each run at least as long as the one
    /// stacked on top) with O(S + B) two-pointer merges.
    fn flush_staging(&mut self) {
        let staged = std::mem::take(&mut self.staging);
        let mut groups: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        let mut released: Vec<u32> = Vec::new();
        for row in staged {
            if self.dead[row as usize] {
                released.push(row);
            } else {
                groups.entry(self.seg_key(row)).or_default().push(row);
            }
        }
        for (key, mut rows) in groups {
            let dims = self.dims;
            let d = key.0 as usize;
            rows.sort_unstable_by_key(|&r| self.lo[r as usize * dims + d]);
            let mut run = Run::default();
            for r in rows {
                let base = r as usize * dims + d;
                run.lo.push(self.lo[base]);
                run.hi.push(self.hi[base]);
                run.row.push(r);
            }
            let seg = self.segments.entry(key).or_default();
            seg.runs.push(run);
            while seg.runs.len() >= 2
                && seg.runs[seg.runs.len() - 2].len() <= seg.runs[seg.runs.len() - 1].len()
            {
                let b = seg.runs.pop().expect("checked len");
                let a = seg.runs.pop().expect("checked len");
                seg.runs.push(merge_runs(a, b, &self.dead, &mut released));
            }
        }
        for row in released {
            self.release_row(row);
        }
    }

    /// Collapses every segment to a single dead-free run and drops dead
    /// staging rows. O(n); triggered when over a quarter of rows are dead.
    fn compact(&mut self) {
        let mut released: Vec<u32> = Vec::new();
        {
            let dead = &self.dead;
            self.staging.retain(|&row| {
                if dead[row as usize] {
                    released.push(row);
                    false
                } else {
                    true
                }
            });
        }
        for seg in self.segments.values_mut() {
            while seg.runs.len() >= 2 {
                let b = seg.runs.pop().expect("checked len");
                let a = seg.runs.pop().expect("checked len");
                seg.runs.push(merge_runs(a, b, &self.dead, &mut released));
            }
            if let Some(run) = seg.runs.last_mut() {
                if run.row.iter().any(|&r| self.dead[r as usize]) {
                    let mut clean = Run::default();
                    for j in 0..run.len() {
                        if self.dead[run.row[j] as usize] {
                            released.push(run.row[j]);
                        } else {
                            clean.lo.push(run.lo[j]);
                            clean.hi.push(run.hi[j]);
                            clean.row.push(run.row[j]);
                        }
                    }
                    *run = clean;
                }
            }
        }
        self.segments
            .retain(|_, seg| seg.runs.iter().any(|r| r.len() > 0));
        for row in released {
            self.release_row(row);
        }
    }
}

/// Merges two lo-sorted runs, dropping dead rows along the way (their row
/// indices are pushed to `released` for reclamation by the caller).
fn merge_runs(a: Run, b: Run, dead: &[bool], released: &mut Vec<u32>) -> Run {
    let mut out = Run {
        lo: Vec::with_capacity(a.len() + b.len()),
        hi: Vec::with_capacity(a.len() + b.len()),
        row: Vec::with_capacity(a.len() + b.len()),
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a.lo[i] <= b.lo[j]);
        let (run, k) = if take_a {
            let k = i;
            i += 1;
            (&a, k)
        } else {
            let k = j;
            j += 1;
            (&b, k)
        };
        if dead[run.row[k] as usize] {
            released.push(run.row[k]);
        } else {
            out.lo.push(run.lo[k]);
            out.hi.push(run.hi[k]);
            out.row.push(run.row[k]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;
    use cbps_rng::Rng;

    fn space() -> EventSpace {
        EventSpace::new(vec![
            AttributeDef::new("x", 1000),
            AttributeDef::new("y", 1000),
            AttributeDef::new("z", 10),
        ])
    }

    fn brute_force(live: &[(u32, Subscription)], e: &Event) -> Vec<u32> {
        let mut out: Vec<u32> = live
            .iter()
            .filter(|(_, s)| s.matches(e))
            .map(|&(slot, _)| slot)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_match_remove_roundtrip() {
        let s = space();
        let mut idx = SortedIndex::new(&s);
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

        let mut out = Vec::new();
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 5]), &mut out);
        assert_eq!(out, vec![1]);
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 6]), &mut out);
        assert!(out.is_empty());

        assert_eq!(idx.remove(1), Some(sub));
        assert!(idx.remove(1).is_none());
        assert!(idx.remove(7).is_none());
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 5]), &mut out);
        assert!(out.is_empty());
        assert!(idx.is_empty());
    }

    /// Random churn at a size that forces many staging flushes, run
    /// merges, and compactions; matching must equal brute force at every
    /// probe point. A freed slot goes to the next newcomer at once, as an
    /// owner's free list hands it out — while the previous tenant's row is
    /// still a tombstone in some run.
    #[test]
    fn differential_under_churn() {
        let mut rng = Rng::seed_from_u64(0x50e7_ed1d);
        let s = space();
        let mut idx = SortedIndex::new(&s);
        let mut live: Vec<(u32, Subscription)> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut next_slot = 0u32;
        let mut out = Vec::new();
        for step in 0..12_000 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let xlo = rng.gen_range(0u64..1000);
                let xw = rng.gen_range(0u64..500);
                let mut b = Subscription::builder(&s)
                    .range("x", xlo, (xlo + xw).min(999))
                    .unwrap();
                if rng.gen_bool(0.5) {
                    b = b.eq("z", rng.gen_range(0u64..10));
                }
                let sub = b.build().unwrap();
                let slot = free.pop().unwrap_or_else(|| {
                    next_slot += 1;
                    next_slot - 1
                });
                idx.insert(slot, sub.clone());
                assert_eq!(idx.get(slot), Some(&sub));
                live.push((slot, sub));
            } else {
                let k = rng.gen_range(0u64..live.len() as u64) as usize;
                let (slot, sub) = live.swap_remove(k);
                assert_eq!(idx.remove(slot), Some(sub));
                free.push(slot);
            }
            if step % 7 == 0 {
                let e = Event::new_unchecked(vec![
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..1000),
                    rng.gen_range(0u64..10),
                ]);
                idx.matches_into(&e, &mut out);
                assert_eq!(out, brute_force(&live, &e), "step {step}");
            }
        }
        assert_eq!(idx.len(), live.len());
    }

    /// Wildcard-heavy subscriptions land in segments keyed by their first
    /// constrained dimension, including dimensions past the first.
    #[test]
    fn wildcard_first_dimensions() {
        let s = space();
        let mut idx = SortedIndex::new(&s);
        let sub = Subscription::builder(&s).eq("z", 3).build().unwrap();
        idx.insert(7, sub);
        // Force the row out of staging so the segment path is exercised.
        for i in 0..STAGING_MAX as u64 {
            let filler = Subscription::builder(&s)
                .range("y", 0, i % 1000)
                .unwrap()
                .build()
                .unwrap();
            idx.insert(1000 + i as u32, filler);
        }
        let mut out = Vec::new();
        idx.matches_into(&Event::new_unchecked(vec![999, 1, 3]), &mut out);
        assert!(out.contains(&7));
        idx.matches_into(&Event::new_unchecked(vec![999, 1, 4]), &mut out);
        assert!(!out.contains(&7));
    }

    #[test]
    #[should_panic(expected = "at most 64 dimensions")]
    fn too_many_dimensions_rejected() {
        let attrs = (0..65)
            .map(|i| AttributeDef::new(format!("a{i}"), 10))
            .collect();
        let _ = SortedIndex::new(&EventSpace::new(attrs));
    }
}
