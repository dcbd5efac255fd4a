//! A flat, cache-friendly matching engine for very large stores.
//!
//! [`MatchIndex`](crate::MatchIndex) (the counting algorithm) walks
//! per-dimension bucket lists — a `Vec<Vec<u32>>` matrix — whose pointer
//! chasing dominates once a rendezvous node holds 10^5–10^6 subscriptions.
//! [`SortedIndex`] replaces it with struct-of-arrays storage:
//!
//! * **Row store.** Every subscription is one *row* in flat parallel
//!   arrays (`lo`/`hi` per dimension, a constrained-dimension bitmask, the
//!   id). Candidate verification is sequential loads, no pointers.
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
//!   unsubscription O(1) (the counting index's eager `swap_remove` is its
//!   insert-time mirror image).
//!
//! The engine is limited to event spaces of at most 64 dimensions (the
//! constrained-dimension bitmask); deployments select it through
//! [`MatchEngineKind`](cbps_sim::MatchEngineKind), which validates that
//! bound. Match sets are identical to the counting index by construction
//! and checked by the differential suites.

use std::collections::{BTreeMap, HashMap};

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::{Constraint, IdMap, SubId, Subscription};

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

/// Flat sorted-table matching engine (see the module docs).
#[derive(Clone, Debug)]
pub struct SortedIndex {
    space: EventSpace,
    dims: usize,
    /// Flat row store: `lo[row * dims + d]` / `hi[...]` are the bounds on
    /// dimension `d` (unconstrained dimensions hold `0..=u64::MAX`).
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Bit `d` set iff the row constrains dimension `d`.
    mask: Vec<u64>,
    ids: Vec<SubId>,
    /// Tombstones: dead rows are skipped by queries and reclaimed lazily.
    dead: Vec<bool>,
    free: Vec<u32>,
    by_id: IdMap<u32>,
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
            space: space.clone(),
            dims: space.dims(),
            lo: Vec::new(),
            hi: Vec::new(),
            mask: Vec::new(),
            ids: Vec::new(),
            dead: Vec::new(),
            free: Vec::new(),
            by_id: IdMap::default(),
            segments: BTreeMap::new(),
            staging: Vec::new(),
            dead_rows: 0,
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

    /// Inserts a subscription under `id`. Returns `false` (and leaves the
    /// index unchanged) when `id` is already present.
    pub fn insert(&mut self, id: SubId, sub: Subscription) -> bool {
        if self.by_id.contains_key(&id) {
            return false;
        }
        debug_assert_eq!(sub.dims(), self.dims);
        let row = match self.free.pop() {
            Some(r) => r,
            None => {
                let r = self.ids.len() as u32;
                self.lo.resize(self.lo.len() + self.dims, 0);
                self.hi.resize(self.hi.len() + self.dims, u64::MAX);
                self.mask.push(0);
                self.ids.push(SubId(0));
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
        self.ids[row as usize] = id;
        self.dead[row as usize] = false;
        self.by_id.insert(id, row);
        self.staging.push(row);
        if self.staging.len() >= STAGING_MAX {
            self.flush_staging();
        }
        true
    }

    /// Removes the subscription under `id`, returning it if present.
    ///
    /// O(1): the row is only tombstoned; dead rows are reclaimed in bulk
    /// by run merges and by a compaction sweep once more than a quarter of
    /// the table is dead.
    pub fn remove(&mut self, id: SubId) -> Option<Subscription> {
        let row = self.by_id.remove(&id)?;
        let sub = self.reconstruct(row);
        self.dead[row as usize] = true;
        self.dead_rows += 1;
        if self.dead_rows * 4 > self.by_id.len() + 64 {
            self.compact();
        }
        Some(sub)
    }

    /// The subscription stored under `id` (rebuilt from the row store).
    pub fn get(&self, id: SubId) -> Option<Subscription> {
        self.by_id.get(&id).map(|&row| self.reconstruct(row))
    }

    /// Writes all subscriptions matched by `event` into `out` (cleared
    /// first), in ascending id order.
    pub fn matches_into(&self, event: &Event, out: &mut Vec<SubId>) {
        out.clear();
        for &row in &self.staging {
            let r = row as usize;
            if !self.dead[r] && self.admits(row, event, 0) {
                out.push(self.ids[r]);
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
                        out.push(self.ids[row as usize]);
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

    fn reconstruct(&self, row: u32) -> Subscription {
        let base = row as usize * self.dims;
        let constraints = (0..self.dims)
            .map(|d| {
                if self.mask[row as usize] & (1 << d) != 0 {
                    Some(
                        Constraint::range(self.lo[base + d], self.hi[base + d])
                            .expect("stored bounds are ordered"),
                    )
                } else {
                    None
                }
            })
            .collect();
        Subscription::from_constraints(&self.space, constraints).expect("stored rows are valid")
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

    fn brute_force(live: &[(u64, Subscription)], e: &Event) -> Vec<SubId> {
        let mut out: Vec<SubId> = live
            .iter()
            .filter(|(_, s)| s.matches(e))
            .map(|&(id, _)| SubId(id))
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
        assert!(idx.insert(SubId(1), sub.clone()));
        assert!(!idx.insert(SubId(1), sub.clone()));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(SubId(1)));
        assert_eq!(idx.get(SubId(1)), Some(sub.clone()));

        let mut out = Vec::new();
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 5]), &mut out);
        assert_eq!(out, vec![SubId(1)]);
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 6]), &mut out);
        assert!(out.is_empty());

        assert_eq!(idx.remove(SubId(1)), Some(sub));
        assert!(idx.remove(SubId(1)).is_none());
        idx.matches_into(&Event::new_unchecked(vec![150, 0, 5]), &mut out);
        assert!(out.is_empty());
        assert!(idx.is_empty());
    }

    /// Random churn at a size that forces many staging flushes, run
    /// merges, and compactions; matching must equal brute force at every
    /// probe point.
    #[test]
    fn differential_under_churn() {
        let mut rng = Rng::seed_from_u64(0x50e7_ed1d);
        let s = space();
        let mut idx = SortedIndex::new(&s);
        let mut live: Vec<(u64, Subscription)> = Vec::new();
        let mut next_id = 0u64;
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
                assert!(idx.insert(SubId(next_id), sub.clone()));
                live.push((next_id, sub));
                next_id += 1;
            } else {
                let k = rng.gen_range(0u64..live.len() as u64) as usize;
                let (id, sub) = live.swap_remove(k);
                assert_eq!(idx.remove(SubId(id)), Some(sub));
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
        idx.insert(SubId(7), sub);
        // Force the row out of staging so the segment path is exercised.
        for i in 0..STAGING_MAX as u64 {
            let filler = Subscription::builder(&s)
                .range("y", 0, i % 1000)
                .unwrap()
                .build()
                .unwrap();
            idx.insert(SubId(1000 + i), filler);
        }
        let mut out = Vec::new();
        idx.matches_into(&Event::new_unchecked(vec![999, 1, 3]), &mut out);
        assert!(out.contains(&SubId(7)));
        idx.matches_into(&Event::new_unchecked(vec![999, 1, 4]), &mut out);
        assert!(!out.contains(&SubId(7)));
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
