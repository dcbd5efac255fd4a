//! Circular key intervals and normalized sets of them.
//!
//! The stateless mappings of the pub/sub layer send subscriptions to
//! *contiguous runs* of keys (the image of a range constraint under a
//! monotone scaling hash), and the `m-cast` primitive repeatedly splits a
//! target key set along finger boundaries. [`KeyRange`] is one circular
//! interval; [`KeyRangeSet`] is a normalized union of them supporting the
//! arc intersections both layers need.
//!
//! Internally a set is stored as sorted, disjoint, non-adjacent *linear*
//! segments `[lo, hi]` (wrapping ranges are split in two), which turns all
//! circular reasoning into ordinary interval algebra. The segments live in
//! an [`InlineVec`]: up to [`INLINE_SEGS`] segments are stored in place, so
//! the common few-segment sets built on every m-cast hop never touch the
//! heap. Wider sets spill into a plain `Vec`.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::inline::InlineVec;
use crate::key::{Key, KeySpace};

/// Number of segments a [`KeyRangeSet`] stores inline before spilling.
pub const INLINE_SEGS: usize = 4;

/// A circular interval of keys, walking clockwise from `start` to `end`,
/// both inclusive.
///
/// A range always contains at least one key; `start == end` is the
/// singleton, and `end == start - 1` covers the entire ring.
///
/// # Examples
///
/// ```
/// use cbps_overlay::{KeyRange, KeySpace};
///
/// let s = KeySpace::new(5);
/// let wrap = KeyRange::new(s.key(30), s.key(2));
/// assert_eq!(wrap.count(s), 5); // 30, 31, 0, 1, 2
/// assert!(wrap.contains(s, s.key(0)));
/// assert!(!wrap.contains(s, s.key(3)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeyRange {
    start: Key,
    end: Key,
}

impl KeyRange {
    /// The circular interval `[start, end]`.
    #[inline]
    pub fn new(start: Key, end: Key) -> Self {
        KeyRange { start, end }
    }

    /// The singleton interval `[key, key]`.
    #[inline]
    pub fn singleton(key: Key) -> Self {
        KeyRange {
            start: key,
            end: key,
        }
    }

    /// First key of the interval (clockwise).
    #[inline]
    pub fn start(self) -> Key {
        self.start
    }

    /// Last key of the interval (clockwise).
    #[inline]
    pub fn end(self) -> Key {
        self.end
    }

    /// Number of keys in the interval.
    #[inline]
    pub fn count(self, space: KeySpace) -> u64 {
        space.distance_cw(self.start, self.end) + 1
    }

    /// `true` iff `key` lies within the interval.
    #[inline]
    pub fn contains(self, space: KeySpace, key: Key) -> bool {
        space.distance_cw(self.start, key) <= space.distance_cw(self.start, self.end)
    }

    /// The key at the clockwise midpoint of the interval.
    ///
    /// Used by the notification-collecting optimization: the middle node of
    /// a subscription's rendezvous range acts as the aggregation agent.
    #[inline]
    pub fn midpoint(self, space: KeySpace) -> Key {
        space.add(self.start, space.distance_cw(self.start, self.end) / 2)
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

/// A normalized set of keys on the ring, stored as disjoint intervals.
///
/// This is the value flowing through `SK`/`EK` mappings and the `m-cast`
/// primitive. All operations keep the representation normalized (sorted,
/// disjoint, non-adjacent linear segments). Sets of up to [`INLINE_SEGS`]
/// segments are heap-free; wider sets spill to the heap.
///
/// # Examples
///
/// ```
/// use cbps_overlay::{KeyRange, KeyRangeSet, KeySpace};
///
/// let s = KeySpace::new(5);
/// let mut set = KeyRangeSet::new();
/// set.insert_range(s, KeyRange::new(s.key(30), s.key(2))); // wraps
/// set.insert_key(s, s.key(3)); // adjacent: merges into 30..=3
/// assert_eq!(set.count(), 6);
/// assert_eq!(set.iter_keys(s).count(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct KeyRangeSet {
    /// Sorted, disjoint, non-adjacent inclusive segments in linear space.
    segments: InlineVec<(u64, u64), INLINE_SEGS>,
}

/// Equality is over the key set; inline and spilled representations of the
/// same segments compare equal (the representation is normalized, so
/// segment-slice equality is set equality).
impl PartialEq for KeyRangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.segments.as_slice() == other.segments.as_slice()
    }
}

impl Eq for KeyRangeSet {}

impl Hash for KeyRangeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segments.as_slice().hash(state);
    }
}

impl KeyRangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        KeyRangeSet::default()
    }

    /// The set holding a single key.
    pub fn of_key(space: KeySpace, key: Key) -> Self {
        let mut s = KeyRangeSet::new();
        s.insert_key(space, key);
        s
    }

    /// The set holding one circular range.
    pub fn of_range(space: KeySpace, range: KeyRange) -> Self {
        let mut s = KeyRangeSet::new();
        s.insert_range(space, range);
        s
    }

    /// The set covering the entire ring.
    pub fn full(space: KeySpace) -> Self {
        let mut s = KeyRangeSet::new();
        s.segments.push((0, space.max_value()));
        s
    }

    /// `true` when the set holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of keys in the set.
    #[inline]
    pub fn count(&self) -> u64 {
        self.segments
            .as_slice()
            .iter()
            .map(|&(lo, hi)| hi - lo + 1)
            .sum()
    }

    /// Number of disjoint linear segments (an implementation-level measure
    /// of fragmentation, exposed for tests and diagnostics).
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// `true` while the segments fit the inline buffer (diagnostics for
    /// the allocation audit).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.segments.is_inline()
    }

    /// `true` iff the set contains `key`.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        let v = key.value();
        self.segments
            .as_slice()
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Inserts a single key.
    pub fn insert_key(&mut self, space: KeySpace, key: Key) {
        self.insert_range(space, KeyRange::singleton(key));
    }

    /// Inserts a circular range, merging with existing segments.
    pub fn insert_range(&mut self, space: KeySpace, range: KeyRange) {
        let (a, b) = (range.start().value(), range.end().value());
        if a <= b {
            self.insert_linear(a, b);
        } else {
            // Wrapping range: split at the top of the linear space.
            self.insert_linear(a, space.max_value());
            self.insert_linear(0, b);
        }
    }

    /// Union with another set.
    pub fn union_with(&mut self, other: &KeyRangeSet) {
        for &(lo, hi) in other.segments.as_slice() {
            self.insert_linear(lo, hi);
        }
    }

    /// The sorted, disjoint, non-adjacent linear segments `[lo, hi]`.
    pub(crate) fn segments(&self) -> &[(u64, u64)] {
        self.segments.as_slice()
    }

    /// Inserts the linear (non-wrapping) run `lo..=hi`.
    pub(crate) fn insert_linear(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo <= hi);
        // Find all segments overlapping or adjacent to [lo, hi] and fuse.
        let mut new_lo = lo;
        let mut new_hi = hi;
        let mut i = 0;
        let mut first = None;
        while i < self.segments.len() {
            let (slo, shi) = self.segments.as_slice()[i];
            // A segment interacts iff it overlaps or touches [lo, hi].
            let touches = slo <= hi.saturating_add(1) && lo <= shi.saturating_add(1);
            if touches {
                new_lo = new_lo.min(slo);
                new_hi = new_hi.max(shi);
                if first.is_none() {
                    first = Some(i);
                }
                self.segments.remove(i);
            } else if slo > hi {
                break;
            } else {
                i += 1;
            }
        }
        let pos = match first {
            Some(p) => p,
            None => self
                .segments
                .as_slice()
                .partition_point(|&(slo, _)| slo < new_lo),
        };
        self.segments.insert(pos, (new_lo, new_hi));
    }

    /// The subset of this set lying on the circular arc `(a, b]`.
    ///
    /// This is the paper's `extract-targets(K, n1, n2)` (Figure 4), the
    /// workhorse of the `m-cast` splitting step. When `a == b` the arc is
    /// the full ring and the whole set is returned.
    pub fn extract_arc_oc(&self, space: KeySpace, a: Key, b: Key) -> KeyRangeSet {
        if space.distance_cw(a, b) == 0 {
            return self.clone();
        }
        // Arc (a, b] in linear segments (at most two: it may wrap).
        let (av, bv) = (a.value(), b.value());
        let mut arcs = [(0u64, 0u64); 2];
        let mut n_arcs = 0;
        if av < bv {
            arcs[0] = (av + 1, bv);
            n_arcs = 1;
        } else {
            // Wraps: (a, max] and [0, b].
            if av < space.max_value() {
                arcs[0] = (av + 1, space.max_value());
                n_arcs = 1;
            }
            arcs[n_arcs] = (0, bv);
            n_arcs += 1;
        }
        let mut out = KeyRangeSet::new();
        for &(alo, ahi) in &arcs[..n_arcs] {
            for &(slo, shi) in self.segments.as_slice() {
                let lo = slo.max(alo);
                let hi = shi.min(ahi);
                if lo <= hi {
                    out.insert_linear(lo, hi);
                }
            }
        }
        out
    }

    /// Iterates over every key in the set in increasing linear order.
    pub fn iter_keys(&self, space: KeySpace) -> impl Iterator<Item = Key> + '_ {
        self.segments
            .as_slice()
            .iter()
            .flat_map(move |&(lo, hi)| (lo..=hi).map(move |v| space.key(v)))
    }

    /// Iterates over the linear segments as circular [`KeyRange`]s.
    pub fn iter_ranges(&self, space: KeySpace) -> impl Iterator<Item = KeyRange> + '_ {
        self.segments
            .as_slice()
            .iter()
            .map(move |&(lo, hi)| KeyRange::new(space.key(lo), space.key(hi)))
    }

    /// The smallest key (linear order), if the set is non-empty.
    pub fn min_key(&self, space: KeySpace) -> Option<Key> {
        self.segments
            .as_slice()
            .first()
            .map(|&(lo, _)| space.key(lo))
    }

    /// `true` iff the two sets share at least one key.
    pub fn intersects(&self, other: &KeyRangeSet) -> bool {
        let a = self.segments.as_slice();
        let b = other.segments.as_slice();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (alo, ahi) = a[i];
            let (blo, bhi) = b[j];
            if alo.max(blo) <= ahi.min(bhi) {
                return true;
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

impl fmt::Display for KeyRangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, &(lo, hi)) in self.segments.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}..={hi}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> KeySpace {
        KeySpace::new(5)
    }

    fn set_of(space: KeySpace, pairs: &[(u64, u64)]) -> KeyRangeSet {
        let mut s = KeyRangeSet::new();
        for &(a, b) in pairs {
            s.insert_range(space, KeyRange::new(space.key(a), space.key(b)));
        }
        s
    }

    #[test]
    fn range_basics() {
        let s = sp();
        let r = KeyRange::new(s.key(3), s.key(7));
        assert_eq!(r.count(s), 5);
        assert!(r.contains(s, s.key(3)));
        assert!(r.contains(s, s.key(7)));
        assert!(!r.contains(s, s.key(8)));
        assert_eq!(r.midpoint(s), s.key(5));
        assert_eq!(r.to_string(), "[k3, k7]");
    }

    #[test]
    fn wrapping_range() {
        let s = sp();
        let r = KeyRange::new(s.key(30), s.key(2));
        assert_eq!(r.count(s), 5);
        assert!(r.contains(s, s.key(31)));
        assert!(r.contains(s, s.key(0)));
        assert!(!r.contains(s, s.key(29)));
        assert_eq!(r.midpoint(s), s.key(0));
    }

    #[test]
    fn full_ring_range() {
        let s = sp();
        let r = KeyRange::new(s.key(9), s.key(8));
        assert_eq!(r.count(s), 32);
        assert!(r.contains(s, s.key(9)));
        assert!(r.contains(s, s.key(8)));
        assert!(r.contains(s, s.key(20)));
    }

    #[test]
    fn set_insert_merges_overlaps_and_adjacency() {
        let s = sp();
        let set = set_of(s, &[(1, 3), (5, 7), (4, 4)]);
        // 1..=3, 4, 5..=7 all fuse into one segment.
        assert_eq!(set.segment_count(), 1);
        assert_eq!(set.count(), 7);
        assert!(set.contains(s.key(4)));
        assert!(!set.contains(s.key(0)));
    }

    #[test]
    fn set_insert_disjoint_stays_sorted() {
        let s = sp();
        let set = set_of(s, &[(10, 12), (1, 2), (20, 20)]);
        assert_eq!(set.segment_count(), 3);
        let keys: Vec<u64> = set.iter_keys(s).map(Key::value).collect();
        assert_eq!(keys, vec![1, 2, 10, 11, 12, 20]);
        assert_eq!(set.min_key(s), Some(s.key(1)));
    }

    #[test]
    fn wrapping_insert_splits() {
        let s = sp();
        let set = set_of(s, &[(30, 2)]);
        assert_eq!(set.segment_count(), 2);
        assert_eq!(set.count(), 5);
        assert!(set.contains(s.key(31)));
        assert!(set.contains(s.key(0)));
    }

    #[test]
    fn union_and_display() {
        let s = sp();
        let mut a = set_of(s, &[(1, 2)]);
        let b = set_of(s, &[(4, 5), (2, 3)]);
        a.union_with(&b);
        assert_eq!(a.to_string(), "{1..=5}");
        assert_eq!(KeyRangeSet::new().to_string(), "{}");
    }

    #[test]
    fn extract_arc_simple() {
        let s = sp();
        let set = set_of(s, &[(0, 31)]);
        let part = set.extract_arc_oc(s, s.key(3), s.key(10));
        let keys: Vec<u64> = part.iter_keys(s).map(Key::value).collect();
        assert_eq!(keys, (4..=10).collect::<Vec<_>>());
    }

    #[test]
    fn extract_arc_wrapping() {
        let s = sp();
        let set = set_of(s, &[(29, 31), (0, 1), (15, 16)]);
        // Arc (30, 1] = {31, 0, 1}.
        let part = set.extract_arc_oc(s, s.key(30), s.key(1));
        let keys: Vec<u64> = part.iter_keys(s).map(Key::value).collect();
        assert_eq!(keys, vec![0, 1, 31]);
    }

    #[test]
    fn extract_arc_degenerate_returns_all() {
        let s = sp();
        let set = set_of(s, &[(3, 5)]);
        let part = set.extract_arc_oc(s, s.key(9), s.key(9));
        assert_eq!(part, set);
    }

    #[test]
    fn extract_arc_at_top_of_space() {
        let s = sp();
        let set = set_of(s, &[(0, 31)]);
        // Arc (31, 2] = {0, 1, 2}: the (a, max] half is empty.
        let part = set.extract_arc_oc(s, s.key(31), s.key(2));
        let keys: Vec<u64> = part.iter_keys(s).map(Key::value).collect();
        assert_eq!(keys, vec![0, 1, 2]);
    }

    #[test]
    fn intersects() {
        let s = sp();
        let a = set_of(s, &[(1, 5), (20, 22)]);
        let b = set_of(s, &[(5, 6)]);
        let c = set_of(s, &[(7, 19), (23, 31)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!KeyRangeSet::new().intersects(&a));
    }

    #[test]
    fn full_set() {
        let s = sp();
        let f = KeyRangeSet::full(s);
        assert_eq!(f.count(), 32);
        assert!(f.contains(s.key(0)));
        assert!(f.contains(s.key(31)));
    }

    /// Few-segment sets stay inline; crossing INLINE_SEGS spills and the
    /// spilled set behaves identically (equality is representation-blind).
    #[test]
    fn spill_preserves_semantics_and_equality() {
        let mut inline = KeyRangeSet::new();
        for i in 0..INLINE_SEGS as u64 {
            inline.insert_linear(i * 10, i * 10 + 2);
        }
        assert!(inline.is_inline());
        let mut wide = inline.clone();
        for i in INLINE_SEGS as u64..(INLINE_SEGS as u64 + 4) {
            wide.insert_linear(i * 10, i * 10 + 2);
        }
        assert!(!wide.is_inline());
        assert_eq!(wide.segment_count(), INLINE_SEGS + 4);
        assert_eq!(wide.count(), (INLINE_SEGS as u64 + 4) * 3);
        // Merging collapses the spilled set back down logically (the
        // representation stays spilled; equality must not care).
        let mut merged = KeyRangeSet::new();
        merged.insert_linear(0, (INLINE_SEGS as u64 + 4) * 10 + 2);
        let mut wide2 = wide.clone();
        wide2.insert_linear(0, (INLINE_SEGS as u64 + 4) * 10 + 2);
        assert_eq!(wide2.segment_count(), 1);
        assert!(!wide2.is_inline());
        assert_eq!(wide2, merged);
        use std::collections::hash_map::DefaultHasher;
        let h = |set: &KeyRangeSet| {
            let mut hasher = DefaultHasher::new();
            set.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&wide2), h(&merged));
    }
}
