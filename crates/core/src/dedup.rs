//! The subscriber's record of the `(subscription, event)` pairs it has been
//! notified of (§4.3.2: one event can match a subscription at more than one
//! rendezvous).

use cbps_sim::prefetch::prefetch_at;

use crate::event::EventId;
use crate::subscription::SubId;

/// An exact set of pairs: one flat table of 16-byte slots, four to a cache
/// line, probed linearly from a home slot that depends on the pair alone —
/// so the line can be asked for as soon as the pair is known
/// ([`PairSet::prefetch`]) and a probe rarely reads a second. No memory
/// before the first pair, one line for the first table, never more than
/// three quarters full (≤ 22 bytes a pair when fullest).
#[derive(Clone, Debug, Default)]
pub(crate) struct PairSet {
    /// A power of two of slots, or none; [`FREE`] marks an unused one.
    slots: Box<[(u64, u64)]>,
    len: usize,
    /// Whether the set holds the pair that reads as [`FREE`]. It is a real
    /// one — node 0's first subscription with node 0's first event — and
    /// lives here so that no id has to be reserved for the marker.
    zero: bool,
}

const FREE: (u64, u64) = (0, 0);

impl PairSet {
    /// The top `log2(slots.len())` bits of a mix of the pair (ids are
    /// `node << 32 | sequence`: both halves have to reach the top). Out of
    /// range for the empty table.
    fn home(&self, (sub, event): (u64, u64)) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mixed = (sub.wrapping_mul(K) ^ event).wrapping_mul(K);
        (mixed >> (u64::BITS - self.slots.len().trailing_zeros())) as usize
    }

    /// Adds the pair; `false` if it was there already.
    pub(crate) fn insert(&mut self, sub: SubId, event: EventId) -> bool {
        let pair = (sub.0, event.0);
        if pair == FREE {
            return !std::mem::replace(&mut self.zero, true);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = (self.slots.len() * 2).max(4);
            let old = std::mem::replace(&mut self.slots, vec![FREE; doubled].into());
            for &pair in old.iter().filter(|&&pair| pair != FREE) {
                self.place(pair);
            }
        }
        let fresh = self.place(pair);
        self.len += usize::from(fresh);
        fresh
    }

    /// Walks from the pair's home to the pair (`false`) or to the first
    /// free slot, which then takes it (`true`).
    fn place(&mut self, pair: (u64, u64)) -> bool {
        let mut at = self.home(pair);
        while self.slots[at] != FREE {
            if self.slots[at] == pair {
                return false;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
        self.slots[at] = pair;
        true
    }

    /// Empties the set and keeps its memory.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(FREE);
        (self.len, self.zero) = (0, false);
    }

    /// Hints the line an [`PairSet::insert`] of this pair probes first.
    #[inline]
    pub(crate) fn prefetch(&self, sub: SubId, event: EventId) {
        prefetch_at(&self.slots, self.home((sub.0, event.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_rng::Rng;
    use std::collections::HashSet;

    /// No pair of ids is mistaken for a free slot or for another pair:
    /// the all-zero pair, pairs with a zero half, the largest ids there
    /// are, and node `n`'s first subscription with node `m`'s first event
    /// for every node of a small deployment (node 0's being the all-zero
    /// pair again). Each goes in once, before and after `clear`.
    #[test]
    fn every_pair_of_ids_is_representable() {
        let mut pairs = vec![
            (SubId(0), EventId(0)),
            (SubId(0), EventId(u64::MAX)),
            (SubId(u64::MAX), EventId(0)),
            (SubId(u64::MAX), EventId(u64::MAX)),
            (SubId(0), EventId(1)),
            (SubId(1), EventId(0)),
        ];
        for n in 0..300 {
            pairs.push((SubId::compose(n, 0), EventId::compose(n, 0)));
            pairs.push((SubId::compose(n, 0), EventId::compose(299 - n, 0)));
        }
        let distinct: HashSet<_> = pairs.iter().copied().collect();
        let mut set = PairSet::default();
        for round in 0..2 {
            let mut seen = HashSet::new();
            for &(sub, event) in &pairs {
                let fresh = seen.insert((sub, event));
                assert_eq!(
                    set.insert(sub, event),
                    fresh,
                    "round {round}: {sub} {event:?}"
                );
                set.prefetch(sub, event);
            }
            for &(sub, event) in &pairs {
                assert!(
                    !set.insert(sub, event),
                    "round {round}: {sub} {event:?} again"
                );
            }
            assert_eq!(set.len + usize::from(set.zero), distinct.len());
            set.clear();
        }
    }

    /// Seeded streams shaped like a subscriber's — a hundred subscriptions
    /// of one node, events of many publishers, one delivery in twenty a
    /// repeat — against a `HashSet`, over a dozen growth steps, then
    /// cleared and filled again: every answer equal, never more than three
    /// quarters full, and the second filling allocates nothing.
    #[test]
    fn seeded_streams_agree_with_a_hash_set() {
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut set = PairSet::default();
            set.prefetch(SubId(7), EventId(7));
            assert!(set.slots.is_empty(), "no memory before the first pair");
            let me = rng.gen_range(0usize..200);
            let mut sizes = HashSet::new();
            for round in 0..2 {
                let mut model: HashSet<(SubId, EventId)> = HashSet::new();
                let mut order = Vec::new();
                let held = set.slots.as_ptr();
                for _ in 0..6_000 {
                    let pair = if !order.is_empty() && rng.gen_bool(0.05) {
                        order[rng.gen_range(0..order.len())]
                    } else {
                        let sub = SubId::compose(me, rng.gen_range(0u32..100));
                        let publisher = rng.gen_range(0usize..200);
                        (sub, EventId::compose(publisher, rng.gen_range(0u32..50)))
                    };
                    order.push(pair);
                    assert_eq!(
                        set.insert(pair.0, pair.1),
                        model.insert(pair),
                        "seed {seed}"
                    );
                    assert_eq!(set.len, model.len());
                    assert!(set.len * 4 <= set.slots.len() * 3);
                    sizes.insert(set.slots.len());
                }
                let live = set.slots.iter().filter(|&&slot| slot != FREE);
                assert_eq!(live.count(), model.len());
                if round == 1 {
                    assert_eq!(set.slots.as_ptr(), held, "the refill moved the table");
                }
                let slots = set.slots.len();
                set.clear();
                assert_eq!((set.len, set.slots.len()), (0, slots));
                assert!(set.slots.iter().all(|&slot| slot == FREE));
            }
            assert!(sizes.len() > 10, "grew through {sizes:?} only");
        }
    }

    /// A table grows on the insert that would take it past three quarters
    /// and on no other, so when fullest it spends 16 · 4 ⁄ 3 bytes a pair.
    #[test]
    fn a_table_doubles_exactly_at_three_quarters() {
        let mut set = PairSet::default();
        let mut grown = 0;
        for n in 1..=3_000u64 {
            let before = set.slots.len();
            assert!(set.insert(SubId(n), EventId(n << 32)));
            if set.slots.len() != before {
                grown += 1;
                assert_eq!((n - 1) * 4, before as u64 * 3, "grew early or late at {n}");
            }
        }
        assert_eq!((set.slots.len(), grown), (4096, 11));
    }
}
