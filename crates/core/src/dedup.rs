//! The subscriber's log of the notifications it has been delivered, which
//! is also its record of the `(subscription, event)` pairs it has been
//! notified of (§4.3.2: one event can match a subscription at more than one
//! rendezvous).

use cbps_sim::prefetch::prefetch_at;
use cbps_sim::SimTime;

use crate::event::EventId;
use crate::msg::DeliveredNote;
use crate::subscription::SubId;

/// The delivered notes in arrival order, and an exact set over their pairs:
/// one flat table of 8-byte slots, eight to a cache line, probed linearly
/// from a home slot that depends on the pair alone — so the line can be
/// asked for as soon as the pair is known ([`DeliveredLog::prefetch`]) and a
/// probe rarely reads a second. A slot holds a 32-bit tag of the pair beside
/// its note's position + 1, so 0 is free and every pair of ids can be held.
/// A probe reads a note only when the tags match, and the table grows from
/// its tags alone. No memory before the first pair, one line for the first
/// table, never more than three quarters full (≤ 11 bytes a pair when
/// fullest, beside the 24-byte note).
#[derive(Clone, Debug, Default)]
pub(crate) struct DeliveredLog {
    notes: Vec<DeliveredNote>,
    /// A power of two of slots, or none: `tag << 32 | position + 1`, or
    /// [`FREE`].
    slots: Box<[u64]>,
}

const FREE: u64 = 0;

/// Slots in the first table: one cache line.
const FIRST_TABLE: usize = 8;

impl DeliveredLog {
    /// The top half of a mix of the pair (ids are `node << 32 | sequence`:
    /// both halves have to reach the top).
    fn tag(sub: SubId, event: EventId) -> u32 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        ((sub.0.wrapping_mul(K) ^ event.0).wrapping_mul(K) >> 32) as u32
    }

    /// The top `log2(slots.len())` bits of the tag (and zeros below it, for
    /// a table of more than 2^32 slots). Out of range for the empty table.
    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(tag) << 32) >> (u64::BITS - bits)) as usize
    }

    /// The notes, in arrival order.
    pub(crate) fn notes(&self) -> &[DeliveredNote] {
        &self.notes
    }

    /// Appends a note of the pair arriving at `at`; `false`, and nothing
    /// appended, if the log holds the pair already.
    pub(crate) fn insert(&mut self, sub: SubId, event: EventId, at: SimTime) -> bool {
        if (self.notes.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = Self::tag(sub, event);
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while self.slots[i] != FREE {
            let slot = self.slots[i];
            if (slot >> 32) as u32 == tag {
                let note = &self.notes[(slot as u32 - 1) as usize];
                if (note.sub_id, note.event_id) == (sub, event) {
                    return false;
                }
            }
            i = (i + 1) & mask;
        }
        let position = u32::try_from(self.notes.len() + 1)
            .expect("a delivered log holds fewer than 2^32 notes");
        self.slots[i] = u64::from(tag) << 32 | u64::from(position);
        self.notes.push(DeliveredNote {
            sub_id: sub,
            event_id: event,
            at,
        });
        true
    }

    /// Doubles the table, placing each slot again by its tag.
    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(FIRST_TABLE);
        let old = std::mem::replace(&mut self.slots, vec![FREE; doubled].into());
        for &slot in old.iter().filter(|&&slot| slot != FREE) {
            let mut i = self.home((slot >> 32) as u32);
            while self.slots[i] != FREE {
                i = (i + 1) & (doubled - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// Empties the log and keeps its memory.
    pub(crate) fn clear(&mut self) {
        self.notes.clear();
        self.slots.fill(FREE);
    }

    /// Hints the line an [`DeliveredLog::insert`] of this pair probes first.
    #[inline]
    pub(crate) fn prefetch(&self, sub: SubId, event: EventId) {
        prefetch_at(&self.slots, self.home(Self::tag(sub, event)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_rng::Rng;
    use std::collections::{HashMap, HashSet};

    /// No pair of ids is mistaken for a free slot or for another pair:
    /// the all-zero pair, pairs with a zero half, the largest ids there
    /// are, node `n`'s first subscription with node `m`'s first event for
    /// every node of a small deployment (node 0's being the all-zero pair
    /// again), and two pairs that share a tag. Each goes in once, before
    /// and after `clear`.
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
        // Random pairs share a 32-bit tag after about 2^16 draws.
        let mut rng = Rng::seed_from_u64(1);
        let mut by_tag = HashMap::new();
        let twin = (0..1 << 20).find_map(|_| {
            let pair = (SubId(rng.next_u64()), EventId(rng.next_u64()));
            let first = *by_tag
                .entry(DeliveredLog::tag(pair.0, pair.1))
                .or_insert(pair);
            (first != pair).then_some([first, pair])
        });
        pairs.extend(twin.expect("a 32-bit tag repeats"));
        let distinct: HashSet<_> = pairs.iter().copied().collect();
        let mut log = DeliveredLog::default();
        for round in 0..2 {
            let mut seen = HashSet::new();
            for &(sub, event) in &pairs {
                let fresh = seen.insert((sub, event));
                assert_eq!(
                    log.insert(sub, event, SimTime::ZERO),
                    fresh,
                    "round {round}: {sub} {event:?}"
                );
                log.prefetch(sub, event);
            }
            for &(sub, event) in &pairs {
                assert!(
                    !log.insert(sub, event, SimTime::ZERO),
                    "round {round}: {sub} {event:?} again"
                );
            }
            assert_eq!(log.notes().len(), distinct.len());
            log.clear();
        }
    }

    /// Seeded streams shaped like a subscriber's — a hundred subscriptions
    /// of one node, events of many publishers, one delivery in twenty a
    /// repeat — against a `HashSet`, over a dozen growth steps, then
    /// cleared and filled again: every answer equal, never more than three
    /// quarters full, and the refill allocates nothing.
    #[test]
    fn seeded_streams_agree_with_a_hash_set() {
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut log = DeliveredLog::default();
            log.prefetch(SubId(7), EventId(7));
            assert!(log.slots.is_empty(), "no memory before the first pair");
            let me = rng.gen_range(0usize..200);
            let mut sizes = HashSet::new();
            for round in 0..2 {
                let mut model: HashSet<(SubId, EventId)> = HashSet::new();
                let mut order = Vec::new();
                let held = (log.slots.as_ptr(), log.notes.as_ptr());
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
                        log.insert(pair.0, pair.1, SimTime::ZERO),
                        model.insert(pair),
                        "seed {seed}"
                    );
                    assert_eq!(log.notes().len(), model.len());
                    assert!(log.notes().len() * 4 <= log.slots.len() * 3);
                    sizes.insert(log.slots.len());
                }
                let live = log.slots.iter().filter(|&&slot| slot != FREE);
                assert_eq!(live.count(), model.len());
                if round == 1 {
                    let now = (log.slots.as_ptr(), log.notes.as_ptr());
                    assert_eq!(now, held, "the refill moved the table or the notes");
                }
                let slots = log.slots.len();
                log.clear();
                assert_eq!((log.notes().len(), log.slots.len()), (0, slots));
                assert!(log.slots.iter().all(|&slot| slot == FREE));
            }
            assert!(sizes.len() > 10, "grew through {sizes:?} only");
        }
    }

    /// A table grows on the insert that would take it past three quarters
    /// and on no other, so when fullest it spends 8 · 4 ⁄ 3 bytes a pair.
    #[test]
    fn a_table_doubles_exactly_at_three_quarters() {
        let mut log = DeliveredLog::default();
        let mut grown = 0;
        for n in 1..=3_000u64 {
            let before = log.slots.len();
            assert!(log.insert(SubId(n), EventId(n << 32), SimTime::ZERO));
            if log.slots.len() != before {
                grown += 1;
                assert_eq!((n - 1) * 4, before as u64 * 3, "grew early or late at {n}");
            }
        }
        assert_eq!((log.slots.len(), grown), (4096, 10));
    }

    /// The log is the fresh pairs in the order they arrived, each with its
    /// first arrival time: a repeat neither appends nor reorders.
    #[test]
    fn notes_hold_the_fresh_pairs_in_arrival_order() {
        let pair = |n: u32| (SubId::compose(3, n % 4), EventId::compose(n as usize, n));
        let mut log = DeliveredLog::default();
        let mut expected = Vec::new();
        for n in 0..40u32 {
            let (sub, event) = pair(n);
            let at = SimTime::from_millis(u64::from(n));
            assert!(log.insert(sub, event, at));
            expected.push(DeliveredNote {
                sub_id: sub,
                event_id: event,
                at,
            });
            for earlier in [0, n / 2, n] {
                let (sub, event) = pair(earlier);
                assert!(!log.insert(sub, event, SimTime::from_millis(1_000)));
            }
            assert_eq!(log.notes(), expected.as_slice(), "after note {n}");
        }
    }
}
