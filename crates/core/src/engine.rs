//! The matching-engine API.
//!
//! Rendezvous matching is the hot path of the whole system (§3.2). Every
//! store runs the flat bounds table ([`MatchIndex`]); the sorted-segment
//! index ([`SortedIndex`]) is a library engine for stores far larger than
//! any deployment here holds, measured by the benchmark (DESIGN.md,
//! "Matching engines"). Both must produce identical match sets; the
//! differential suite holds each to the brute-force oracle.

use cbps_sim::MatchEngineKind;

use crate::event::Event;
use crate::index::MatchIndex;
use crate::sorted::SortedIndex;
use crate::space::EventSpace;
use crate::subscription::{SubId, Subscription};

/// The matching operations every engine provides.
///
/// An engine mints no names of its own: every entry goes by the *slot* its
/// caller files it under — for a store, the subscription's row — and a
/// match names slots. The caller keeps its slots dense (engines size
/// tables by the largest in use) and may hand a removed entry's slot to
/// the next insert at once.
///
/// `matches_into` is the one true entry point — buffer-reusing and
/// allocation-free at steady state. [`MatchEngine::matches`] is a
/// convenience wrapper for tests and examples.
pub trait MatchEngine {
    /// Indexes `sub` under `slot`; panics when the slot is occupied.
    fn insert(&mut self, slot: impl SlotKey, sub: Subscription);

    /// Removes the entry under `slot`; `false` if there was none.
    fn remove(&mut self, slot: u32) -> bool;

    /// Writes the slots of all subscriptions matched by `event` into `out`
    /// (cleared first), in ascending order.
    fn matches_into(&mut self, event: &Event, out: &mut Vec<u32>);

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
    /// use cbps::{AttributeDef, Event, EventSpace, MatchEngine, MatchIndex, Subscription};
    ///
    /// let space = EventSpace::new(vec![AttributeDef::new("x", 100)]);
    /// let mut engine = MatchIndex::new(&space);
    /// let sub = Subscription::builder(&space).range("x", 10, 20)?.build()?;
    /// engine.insert(1, &sub);
    /// assert_eq!(engine.matches(&Event::new(&space, vec![15])?), vec![1]);
    /// assert!(engine.matches(&Event::new(&space, vec![25])?).is_empty());
    /// # Ok::<(), cbps::PubSubError>(())
    /// ```
    fn matches(&mut self, event: &Event) -> Vec<u32> {
        let mut out = Vec::new();
        self.matches_into(event, &mut out);
        out
    }
}

/// What [`MatchEngine::insert`] takes for a slot: the number itself, or a
/// [`SubId`] whose value is one — for a caller that numbers its
/// subscriptions from zero and keeps no table of its own (the benchmark's
/// engine replay).
pub trait SlotKey {
    /// The slot.
    fn slot(self) -> u32;
}

impl SlotKey for u32 {
    fn slot(self) -> u32 {
        self
    }
}

impl SlotKey for SubId {
    fn slot(self) -> u32 {
        u32::try_from(self.0).expect("an id used as an engine slot fits 32 bits")
    }
}

impl MatchEngine for MatchIndex {
    fn insert(&mut self, slot: impl SlotKey, sub: Subscription) {
        MatchIndex::insert(self, slot.slot(), &sub)
    }

    fn remove(&mut self, slot: u32) -> bool {
        MatchIndex::remove(self, slot)
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<u32>) {
        MatchIndex::matches_into(self, event, out)
    }

    fn len(&self) -> usize {
        MatchIndex::len(self)
    }
}

impl MatchEngine for SortedIndex {
    fn insert(&mut self, slot: impl SlotKey, sub: Subscription) {
        SortedIndex::insert(self, slot.slot(), sub)
    }

    fn remove(&mut self, slot: u32) -> bool {
        SortedIndex::remove(self, slot).is_some()
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<u32>) {
        SortedIndex::matches_into(self, event, out)
    }

    fn len(&self) -> usize {
        SortedIndex::len(self)
    }
}

/// Runtime-selected engine, one variant per [`MatchEngineKind`].
///
/// No store holds one: it stays only because the frozen `benchmark/` crate
/// replays its engine layer through it; ROADMAP item 2's benchmark-only
/// change removes it.
#[derive(Clone, Debug)]
pub enum AnyMatchEngine {
    /// The flat bounds table (the variant keeps the name of the counting
    /// index it replaced).
    Counting(MatchIndex),
    /// The sorted-segment index, boxed: its dozen array headers would
    /// otherwise size the flat table's variant too.
    Sorted(Box<SortedIndex>),
}

impl AnyMatchEngine {
    /// Creates an empty engine of the given kind over `space`.
    pub fn new(kind: MatchEngineKind, space: &EventSpace) -> Self {
        match kind {
            MatchEngineKind::Sorted => AnyMatchEngine::Sorted(Box::new(SortedIndex::new(space))),
            _ => AnyMatchEngine::Counting(MatchIndex::new(space)),
        }
    }
}

impl MatchEngine for AnyMatchEngine {
    fn insert(&mut self, slot: impl SlotKey, sub: Subscription) {
        match self {
            AnyMatchEngine::Counting(e) => e.insert(slot.slot(), &sub),
            AnyMatchEngine::Sorted(e) => e.insert(slot.slot(), sub),
        }
    }

    fn remove(&mut self, slot: u32) -> bool {
        match self {
            AnyMatchEngine::Counting(e) => e.remove(slot),
            AnyMatchEngine::Sorted(e) => e.remove(slot).is_some(),
        }
    }

    fn matches_into(&mut self, event: &Event, out: &mut Vec<u32>) {
        match self {
            AnyMatchEngine::Counting(e) => e.matches_into(event, out),
            AnyMatchEngine::Sorted(e) => e.matches_into(event, out),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyMatchEngine::Counting(e) => e.len(),
            AnyMatchEngine::Sorted(e) => e.len(),
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
            assert!(engine.is_empty());
            let sub = Subscription::builder(&space)
                .range("x", 10, 20)
                .unwrap()
                .build()
                .unwrap();
            engine.insert(1, sub);
            assert_eq!(engine.len(), 1);
            assert_eq!(engine.matches(&Event::new_unchecked(vec![15])), vec![1]);
            assert!(engine.remove(1));
            assert!(!engine.remove(1));
            assert!(engine.is_empty());
        }
    }
}
