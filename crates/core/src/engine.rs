//! The pluggable matching-engine API.
//!
//! Rendezvous matching is the hot path of the whole system (§3.2), so the
//! store is generic over *how* matching is implemented: the classic
//! counting index ([`MatchIndex`]) is the reference, the flat sorted table
//! ([`SortedIndex`]) is the large-store specialist, and both are selected
//! at deployment time through
//! [`MatchEngineKind`](cbps_sim::MatchEngineKind) — the same knob pattern
//! as the heap-vs-wheel scheduler. Engines must produce identical match
//! sets; the differential suites enforce it.

use cbps_sim::MatchEngineKind;

use crate::event::Event;
use crate::index::MatchIndex;
use crate::sorted::SortedIndex;
use crate::space::EventSpace;
use crate::subscription::{SubId, Subscription};

/// The matching operations every engine provides.
///
/// `matches_into` is the one true entry point — buffer-reusing and
/// allocation-free at steady state. [`MatchEngine::matches`] is a
/// convenience wrapper for tests and examples.
pub trait MatchEngine {
    /// Inserts a subscription under `id`. Returns `false` (and leaves the
    /// engine unchanged) when `id` is already present.
    fn insert(&mut self, id: SubId, sub: Subscription) -> bool;

    /// Removes the subscription under `id`, returning it if present.
    fn remove(&mut self, id: SubId) -> Option<Subscription>;

    /// Writes all subscriptions matched by `event` into `out` (cleared
    /// first), in ascending id order.
    fn matches_into(&mut self, event: &Event, out: &mut Vec<SubId>);

    /// Number of indexed subscriptions.
    fn len(&self) -> usize;

    /// `true` when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocating convenience form of [`MatchEngine::matches_into`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cbps::{AttributeDef, Event, EventSpace, MatchEngine, MatchIndex, SubId, Subscription};
    ///
    /// let space = EventSpace::new(vec![AttributeDef::new("x", 100)]);
    /// let mut engine = MatchIndex::new(&space);
    /// let sub = Subscription::builder(&space).range("x", 10, 20)?.build()?;
    /// engine.insert(SubId(1), sub);
    /// assert_eq!(engine.matches(&Event::new(&space, vec![15])?), vec![SubId(1)]);
    /// assert!(engine.matches(&Event::new(&space, vec![25])?).is_empty());
    /// # Ok::<(), cbps::PubSubError>(())
    /// ```
    fn matches(&mut self, event: &Event) -> Vec<SubId> {
        let mut out = Vec::new();
        self.matches_into(event, &mut out);
        out
    }
}

impl MatchEngine for MatchIndex {
    fn insert(&mut self, id: SubId, sub: Subscription) -> bool {
        MatchIndex::insert(self, id, sub)
    }

    fn remove(&mut self, id: SubId) -> Option<Subscription> {
        MatchIndex::remove(self, id)
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<SubId>) {
        MatchIndex::matches_into(self, event, out)
    }

    fn len(&self) -> usize {
        MatchIndex::len(self)
    }
}

impl MatchEngine for SortedIndex {
    fn insert(&mut self, id: SubId, sub: Subscription) -> bool {
        SortedIndex::insert(self, id, sub)
    }

    fn remove(&mut self, id: SubId) -> Option<Subscription> {
        SortedIndex::remove(self, id)
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<SubId>) {
        SortedIndex::matches_into(self, event, out)
    }

    fn len(&self) -> usize {
        SortedIndex::len(self)
    }
}

/// Runtime-selected engine, one variant per [`MatchEngineKind`].
#[derive(Clone, Debug)]
pub enum AnyMatchEngine {
    /// The counting index (reference implementation).
    Counting(MatchIndex),
    /// The flat sorted table.
    Sorted(SortedIndex),
}

impl AnyMatchEngine {
    /// Creates an empty engine of the given kind over `space`.
    pub fn new(kind: MatchEngineKind, space: &EventSpace) -> Self {
        match kind {
            MatchEngineKind::Sorted => AnyMatchEngine::Sorted(SortedIndex::new(space)),
            _ => AnyMatchEngine::Counting(MatchIndex::new(space)),
        }
    }

    /// The kind this engine was created as.
    pub fn kind(&self) -> MatchEngineKind {
        match self {
            AnyMatchEngine::Counting(_) => MatchEngineKind::Counting,
            AnyMatchEngine::Sorted(_) => MatchEngineKind::Sorted,
        }
    }

    /// Grows engine-internal scratch to its steady-state size so matching
    /// never reallocates afterwards. The sorted engine keeps no per-match
    /// scratch; the counting engine's is bounded by its slot count.
    pub fn warm(&mut self) {
        match self {
            AnyMatchEngine::Counting(e) => e.warm(),
            AnyMatchEngine::Sorted(_) => {}
        }
    }
}

impl MatchEngine for AnyMatchEngine {
    fn insert(&mut self, id: SubId, sub: Subscription) -> bool {
        match self {
            AnyMatchEngine::Counting(e) => e.insert(id, sub),
            AnyMatchEngine::Sorted(e) => e.insert(id, sub),
        }
    }

    fn remove(&mut self, id: SubId) -> Option<Subscription> {
        match self {
            AnyMatchEngine::Counting(e) => e.remove(id),
            AnyMatchEngine::Sorted(e) => e.remove(id),
        }
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<SubId>) {
        match self {
            AnyMatchEngine::Counting(e) => MatchIndex::matches_into(e, event, out),
            AnyMatchEngine::Sorted(e) => SortedIndex::matches_into(e, event, out),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyMatchEngine::Counting(e) => MatchIndex::len(e),
            AnyMatchEngine::Sorted(e) => SortedIndex::len(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;

    #[test]
    fn any_engine_dispatches_per_kind() {
        let space = EventSpace::new(vec![AttributeDef::new("x", 100)]);
        for kind in [MatchEngineKind::Counting, MatchEngineKind::Sorted] {
            let mut engine = AnyMatchEngine::new(kind, &space);
            assert_eq!(engine.kind(), kind);
            assert!(engine.is_empty());
            let sub = Subscription::builder(&space)
                .range("x", 10, 20)
                .unwrap()
                .build()
                .unwrap();
            assert!(engine.insert(SubId(1), sub.clone()));
            assert_eq!(engine.len(), 1);
            assert_eq!(
                engine.matches(&Event::new_unchecked(vec![15])),
                vec![SubId(1)]
            );
            assert_eq!(engine.remove(SubId(1)), Some(sub));
            assert!(engine.is_empty());
        }
    }
}
