//! Per-rendezvous-node subscription storage with expiration.
//!
//! Subscriptions carry an expiration time simulating unsubscription
//! requests (§5.1); the store purges them lazily and tracks the peak number
//! of simultaneously live subscriptions — the "maximum number of
//! subscriptions per node" metric of Figures 6 and 8.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use cbps_overlay::{KeyRangeSet, Peer};
use cbps_sim::prefetch::prefetch_tail;
use cbps_sim::{MatchEngineKind, SimTime, TraceId};

use crate::event::Event;
use crate::index::{MatchIndex, ALL_ATTRIBUTES};
use crate::space::EventSpace;
use crate::subscription::{IdMap, SubId, Subscription};

/// A subscription as stored at a rendezvous node: the query plus the
/// routing metadata the rendezvous needs to serve it.
///
/// The subscriber builds one record per `sub(σ)` and every rendezvous
/// node stores a handle to that same record (`Arc<StoredSub>`); nobody
/// writes to a record once it is shared.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSub {
    /// The subscription itself.
    pub sub: Subscription,
    /// Who to notify on a match.
    pub subscriber: Peer,
    /// When the subscription lapses ([`SimTime::MAX`] = never).
    pub expires: SimTime,
    /// The full rendezvous key set `SK(σ)` — needed by the collecting
    /// optimization (to locate the range's middle node) and by state
    /// transfer (to decide which node covers which part).
    pub sk: KeyRangeSet,
    /// Causal trace of the `sub(σ)` operation that created this record
    /// (always minted — ids are cheap; recording is what observability
    /// gates).
    pub trace: TraceId,
    /// Always `0`, and read by nothing in this workspace: it stays only
    /// because the frozen `benchmark/` crate writes it in a struct literal;
    /// the benchmark-only change that drops `NetConfig::shards` drops it
    /// too.
    pub subgroups: u64,
}

/// The subscription store of one rendezvous node.
///
/// # Examples
///
/// ```
/// use cbps::{AttributeDef, EventSpace, StoredSub, SubId, Subscription, SubscriptionStore};
/// use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
/// use cbps_sim::{SimTime, TraceId};
///
/// let space = EventSpace::new(vec![AttributeDef::new("x", 100)]);
/// let mut store = SubscriptionStore::new(&space);
/// let sub = Subscription::builder(&space).range("x", 0, 10)?.build()?;
/// let keys = KeySpace::new(8);
/// store.insert(
///     SubId(1),
///     StoredSub {
///         sub,
///         subscriber: Peer { idx: 0, key: keys.key(5) },
///         expires: SimTime::from_secs(60),
///         sk: KeyRangeSet::of_key(keys, keys.key(3)),
///         trace: TraceId::NONE,
///         subgroups: 0,
///     },
///     SimTime::ZERO,
/// );
/// assert_eq!(store.len(), 1);
/// store.purge_expired(SimTime::from_secs(61));
/// assert_eq!(store.len(), 0);
/// assert_eq!(store.peak(), 1);
/// # Ok::<(), cbps::PubSubError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SubscriptionStore {
    /// The matching engine, one entry per stored subscription, filed under
    /// the subscription's row.
    engine: MatchIndex,
    /// The record table: one row per stored subscription, found through
    /// `by_id`, or by number from an engine hit; freed rows are recycled.
    rows: Vec<Option<Row>>,
    free: Vec<u32>,
    /// Id → row: the one id-keyed entry a stored subscription costs.
    by_id: IdMap<u32>,
    /// Min-heap of (expiry, id); entries may be stale (removed ids).
    expiry: BinaryHeap<Reverse<(SimTime, SubId)>>,
    peak: usize,
}

/// A subscription an event matched: its id, whom to notify, and the row
/// [`SubscriptionStore::matched_record`] finds its record by.
pub type MatchHit = (SubId, Peer, u32);

/// One stored subscription.
#[derive(Clone, Debug)]
struct Row {
    id: SubId,
    /// The record's subscriber, so that a match reads it off the row.
    subscriber: Peer,
    /// A handle to the record the subscriber built: storing bumps a
    /// reference count instead of copying a record.
    rec: Arc<StoredSub>,
}

/// An empty store of no event space, holding no heap: what a node that
/// never stored anything lends as its store. It can be read, not filled or
/// matched against.
pub(crate) static EMPTY_STORE: SubscriptionStore = SubscriptionStore {
    engine: MatchIndex::EMPTY,
    rows: Vec::new(),
    free: Vec::new(),
    by_id: IdMap::with_hasher(BuildHasherDefault::new()),
    expiry: BinaryHeap::new(),
    peak: 0,
};

impl SubscriptionStore {
    /// Creates an empty store for subscriptions over `space`.
    pub fn new(space: &EventSpace) -> Self {
        SubscriptionStore {
            engine: MatchIndex::new(space),
            rows: Vec::new(),
            free: Vec::new(),
            by_id: IdMap::default(),
            expiry: BinaryHeap::new(),
            peak: 0,
        }
    }

    /// [`SubscriptionStore::new`] under the signature the frozen
    /// `benchmark/` crate calls; ROADMAP item 2's benchmark-only change
    /// removes it. `covering` is ignored: no store shares engine entries
    /// between subscriptions any more.
    ///
    /// # Panics
    ///
    /// When `engine` is not [`MatchEngineKind::Counting`]: a store runs
    /// the flat table only.
    pub fn with_options(space: &EventSpace, engine: MatchEngineKind, _covering: bool) -> Self {
        assert_eq!(
            engine,
            MatchEngineKind::Counting,
            "a store runs the flat table"
        );
        SubscriptionStore::new(space)
    }

    /// Number of live subscriptions (assuming expired ones were purged).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// [`SubscriptionStore::len`], under the name the frozen `benchmark/`
    /// crate reads (`store.physical_ratio`, now always 1); ROADMAP item 2's
    /// benchmark-only change removes it.
    pub fn physical_len(&self) -> usize {
        self.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The highest number of simultaneously stored subscriptions observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// `true` iff `id` is currently stored.
    pub fn contains(&self, id: SubId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The stored record under `id` (clone the handle to pass it on).
    pub fn get(&self, id: SubId) -> Option<&Arc<StoredSub>> {
        self.by_id.get(&id).map(|&row| &self.row(row).rec)
    }

    /// Iterates over stored records (clone a handle to pass one on).
    pub fn iter(&self) -> impl Iterator<Item = (SubId, &Arc<StoredSub>)> {
        self.rows.iter().flatten().map(|row| (row.id, &row.rec))
    }

    fn row(&self, row: u32) -> &Row {
        self.rows[row as usize]
            .as_ref()
            .expect("`by_id` and the engine name live rows")
    }

    /// Inserts (or refreshes) a subscription, given as a record or as a
    /// handle to a shared one. Purges expired entries first so that the
    /// peak metric reflects live subscriptions only. Returns `false` if
    /// `id` was already stored (the refresh still updates the expiry, and
    /// only the expiry).
    pub fn insert(&mut self, id: SubId, stored: impl Into<Arc<StoredSub>>, now: SimTime) -> bool {
        self.insert_placed(id, stored, None, now)
    }

    /// [`SubscriptionStore::insert`], filing a fresh row under `placed_by`,
    /// the attribute that placed the subscription on this node
    /// ([`AkMapping::placed_by`](crate::AkMapping::placed_by)): a
    /// [`SubscriptionStore::match_owned_into`] whose mask leaves that
    /// attribute out skips the row. A refresh keeps the row's attribute.
    pub fn insert_placed(
        &mut self,
        id: SubId,
        stored: impl Into<Arc<StoredSub>>,
        placed_by: Option<usize>,
        now: SimTime,
    ) -> bool {
        let stored: Arc<StoredSub> = stored.into();
        // The row a fresh insert writes is a miss of its own by the time
        // the insert gets there; asked for now, it arrives while `by_id` is
        // probed.
        prefetch_tail(&self.rows);
        self.purge_expired(now);
        let expires = stored.expires;
        let fresh = match self.by_id.entry(id) {
            Entry::Occupied(slot) => {
                let rec = &mut self.rows[*slot.get() as usize]
                    .as_mut()
                    .expect("`by_id` names live rows")
                    .rec;
                if rec.expires == expires {
                    return false;
                }
                // Refresh: the engine entry is untouched, and so is the
                // record other stores may share — adopt the incoming one,
                // or copy before writing.
                if differs_only_in_expiry(rec, &stored) {
                    *rec = stored;
                } else {
                    Arc::make_mut(rec).expires = expires;
                }
                false
            }
            Entry::Vacant(slot) => {
                let row = self.free.pop().unwrap_or_else(|| {
                    self.rows.push(None);
                    (self.rows.len() - 1) as u32
                });
                slot.insert(row);
                self.engine.insert_placed(row, &stored.sub, placed_by);
                self.rows[row as usize] = Some(Row {
                    id,
                    subscriber: stored.subscriber,
                    rec: stored,
                });
                self.peak = self.peak.max(self.by_id.len());
                true
            }
        };
        // After the record is in place: the sweep keeps an entry only if
        // it agrees with the stored expiry.
        if expires != SimTime::MAX {
            self.expiry.push(Reverse((expires, id)));
            self.shrink_expiry_heap();
        }
        fresh
    }

    /// Removes a subscription (unsubscription), returning its record.
    pub fn remove(&mut self, id: SubId) -> Option<Arc<StoredSub>> {
        let row = self.by_id.remove(&id)?;
        let Row { rec, .. } = self.rows[row as usize]
            .take()
            .expect("`by_id` names live rows");
        self.free.push(row);
        self.engine.remove(row);
        Some(rec)
    }

    /// Drops every subscription whose expiry has passed. Returns the number
    /// purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut purged = 0;
        while let Some(&Reverse((expires, id))) = self.expiry.peek() {
            if expires > now {
                break;
            }
            self.expiry.pop();
            // The entry is stale if the sub was removed or re-inserted with
            // a later expiry.
            if self.get(id).is_some_and(|s| s.expires <= now) {
                self.remove(id);
                purged += 1;
            }
        }
        purged
    }

    /// Rebuilds the expiry heap when stale entries dominate. Refreshes and
    /// removals leave `(expiry, id)` entries behind for ids whose record
    /// changed or vanished (e.g. lease-refresh loops); without an
    /// occasional sweep the heap would grow without bound relative to the
    /// live population.
    fn shrink_expiry_heap(&mut self) {
        if self.expiry.len() <= 2 * self.len() + 64 {
            return;
        }
        let mut entries = std::mem::take(&mut self.expiry).into_vec();
        entries.retain(|&Reverse((t, id))| self.get(id).is_some_and(|s| s.expires == t));
        self.expiry = entries.into();
    }

    /// Writes all live subscriptions matched by `event` into `out`
    /// (cleared first), in ascending row order. Purges expired entries
    /// first. Allocation-free once `out` has grown to the largest match: a
    /// hit is read off the record table without touching a stored record
    /// or its reference count.
    pub fn match_event_into(&mut self, event: &Event, now: SimTime, out: &mut Vec<MatchHit>) {
        self.match_owned_into(event, now, ALL_ATTRIBUTES, out);
    }

    /// [`SubscriptionStore::match_event_into`], skipping every row placed
    /// by an attribute whose bit `owned` leaves clear (bit `i` for
    /// attribute `i`; see [`SubscriptionStore::insert_placed`]) and, unless
    /// `owned` holds every attribute, every row filed without one: the
    /// rendezvous passes the attributes whose event key it owns.
    pub fn match_owned_into(
        &mut self,
        event: &Event,
        now: SimTime,
        owned: u64,
        out: &mut Vec<MatchHit>,
    ) {
        out.clear();
        self.purge_expired(now);
        let rows = &self.rows;
        self.engine.scan(event, owned, |row| {
            let r = rows[row as usize]
                .as_ref()
                .expect("the engine names live rows");
            out.push((r.id, r.subscriber, row));
        });
    }

    /// The stored record of a hit of the latest
    /// [`SubscriptionStore::match_event_into`], by the hit's row (an insert
    /// or a removal since then may have given the row away; panics if it
    /// is vacant).
    pub fn matched_record(&self, row: u32) -> &Arc<StoredSub> {
        &self.row(row).rec
    }
}

/// `true` iff the two records are the same apart from `expires`.
fn differs_only_in_expiry(a: &StoredSub, b: &StoredSub) -> bool {
    a.subscriber == b.subscriber && a.trace == b.trace && a.sub == b.sub && a.sk == b.sk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;
    use cbps_overlay::KeySpace;

    fn space() -> EventSpace {
        EventSpace::new(vec![AttributeDef::new("x", 1000)])
    }

    fn stored(lo: u64, hi: u64, expires: SimTime) -> StoredSub {
        let s = space();
        let keys = KeySpace::new(8);
        StoredSub {
            sub: Subscription::builder(&s)
                .range("x", lo, hi)
                .unwrap()
                .build()
                .unwrap(),
            subscriber: Peer {
                idx: 0,
                key: keys.key(1),
            },
            expires,
            sk: KeyRangeSet::of_key(keys, keys.key(2)),
            trace: TraceId::NONE,
            subgroups: 0,
        }
    }

    fn match_ids(st: &mut SubscriptionStore, e: &Event, now: SimTime) -> Vec<SubId> {
        let mut out = Vec::new();
        st.match_event_into(e, now, &mut out);
        out.iter().map(|&(id, ..)| id).collect()
    }

    #[test]
    fn insert_and_match() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        let ids = match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO);
        assert_eq!(ids, vec![SubId(1), SubId(2)]);
        let ids = match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO);
        assert_eq!(ids, vec![SubId(1)]);
    }

    /// `[50, 60] ⊆ [0, 100]`: an event in the outer range only matches the
    /// outer subscription, and removing the outer one leaves the inner one
    /// matching on its own bounds.
    #[test]
    fn nested_shapes_match_on_their_own_bounds() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        assert_eq!(st.len(), 2);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
            vec![SubId(1), SubId(2)]
        );
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO),
            vec![SubId(1)]
        );
        assert!(st.remove(SubId(1)).is_some());
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
            vec![SubId(2)]
        );
        assert!(match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO).is_empty());
    }

    /// A wider subscription arriving after a narrower one: each matches on
    /// its own bounds, whatever the order of arrival.
    #[test]
    fn wider_shape_after_narrower_matches_on_its_own_bounds() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(40, 80, SimTime::MAX), SimTime::ZERO);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![70]), SimTime::ZERO),
            vec![SubId(2)]
        );
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
            vec![SubId(1), SubId(2)]
        );
    }

    /// A subscription nested inside another expires on its own lease, not
    /// on the outer one's.
    #[test]
    fn covered_subscription_expiry_is_independent() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(
            SubId(1),
            stored(0, 100, SimTime::from_secs(10)),
            SimTime::ZERO,
        );
        st.insert(
            SubId(2),
            stored(50, 60, SimTime::from_secs(100)),
            SimTime::ZERO,
        );
        assert_eq!(st.purge_expired(SimTime::from_secs(11)), 1);
        assert_eq!(st.len(), 1);
        assert_eq!(
            match_ids(
                &mut st,
                &Event::new_unchecked(vec![55]),
                SimTime::from_secs(11)
            ),
            vec![SubId(2)]
        );
        assert_eq!(st.purge_expired(SimTime::from_secs(101)), 1);
        assert_eq!(st.len(), 0);
        assert_eq!(st.peak(), 2);
    }

    /// Lease-refresh loops must not grow the expiry heap without bound:
    /// stale `(expiry, id)` entries are swept once they dominate.
    #[test]
    fn expiry_heap_sheds_stale_refresh_entries() {
        let mut st = SubscriptionStore::new(&space());
        for round in 0..1000u64 {
            st.insert(
                SubId(1),
                stored(0, 10, SimTime::from_secs(1000 + round)),
                SimTime::ZERO,
            );
        }
        assert_eq!(st.len(), 1);
        assert!(
            st.expiry.len() <= 2 * st.len() + 64,
            "heap kept {} entries for {} live subs",
            st.expiry.len(),
            st.len()
        );
        // The surviving entry is the *current* expiry: purging at the old
        // deadlines drops nothing, at the refreshed one drops the sub.
        assert_eq!(st.purge_expired(SimTime::from_secs(1500)), 0);
        assert_eq!(st.len(), 1);
        assert_eq!(st.purge_expired(SimTime::from_secs(2000)), 1);
        assert_eq!(st.len(), 0);
    }

    /// Two stores hold the same shared record; a lease refresh arriving
    /// at one of them must not reach through the `Arc` into the other.
    #[test]
    fn refresh_leaves_other_holders_of_the_record_untouched() {
        let shared = Arc::new(stored(0, 10, SimTime::from_secs(5)));
        let mut a = SubscriptionStore::new(&space());
        let mut b = SubscriptionStore::new(&space());
        assert!(a.insert(SubId(1), Arc::clone(&shared), SimTime::ZERO));
        assert!(b.insert(SubId(1), Arc::clone(&shared), SimTime::ZERO));

        // Same expiry again (a duplicate delivery): nothing to write.
        assert!(!a.insert(SubId(1), Arc::clone(&shared), SimTime::ZERO));
        assert!(Arc::ptr_eq(a.get(SubId(1)).unwrap(), &shared));

        // A renewed record differing only in `expires` is adopted as is.
        let renewed = Arc::new(StoredSub {
            expires: SimTime::from_secs(50),
            ..StoredSub::clone(&shared)
        });
        assert!(!a.insert(SubId(1), Arc::clone(&renewed), SimTime::ZERO));
        assert!(Arc::ptr_eq(a.get(SubId(1)).unwrap(), &renewed));

        // One that differs elsewhere too only hands over its expiry.
        let mut moved = stored(0, 10, SimTime::from_secs(70));
        moved.trace = TraceId::for_subscription(0, 1);
        assert!(!a.insert(SubId(1), moved, SimTime::ZERO));
        assert_eq!(a.get(SubId(1)).unwrap().expires, SimTime::from_secs(70));
        assert_eq!(a.get(SubId(1)).unwrap().trace, TraceId::NONE);

        // Neither shared record was written to, and `b` still lapses on
        // the original lease while `a` lives on.
        assert_eq!(shared.expires, SimTime::from_secs(5));
        assert_eq!(renewed.expires, SimTime::from_secs(50));
        assert!(Arc::ptr_eq(b.get(SubId(1)).unwrap(), &shared));
        assert_eq!(b.purge_expired(SimTime::from_secs(6)), 1);
        assert_eq!(a.purge_expired(SimTime::from_secs(6)), 0);
        assert_eq!(a.purge_expired(SimTime::from_secs(71)), 1);
    }

    /// A row placed by attribute 0 is matched only while the mask owns
    /// attribute 0, through a refresh too; an unplaced row only by a mask
    /// that owns both attributes.
    #[test]
    fn owned_match_skips_rows_placed_by_other_attributes() {
        let space = EventSpace::new(vec![
            AttributeDef::new("x", 1000),
            AttributeDef::new("y", 9),
        ]);
        let keys = KeySpace::new(8);
        let sub = Subscription::builder(&space).range("x", 0, 100).unwrap();
        let sub = sub.build().unwrap();
        let stored = |expires| StoredSub {
            sub: sub.clone(),
            subscriber: Peer {
                idx: 0,
                key: keys.key(1),
            },
            expires,
            sk: KeyRangeSet::of_key(keys, keys.key(2)),
            trace: TraceId::NONE,
            subgroups: 0,
        };
        let mut st = SubscriptionStore::new(&space);
        let expires = SimTime::from_secs(50);
        assert!(st.insert_placed(SubId(1), stored(expires), Some(0), SimTime::ZERO));
        assert!(st.insert(SubId(2), stored(SimTime::MAX), SimTime::ZERO));
        let event = Event::new_unchecked(vec![5, 5]);
        let owned_ids = |st: &mut SubscriptionStore, owned| {
            let mut out = Vec::new();
            st.match_owned_into(&event, SimTime::ZERO, owned, &mut out);
            out.iter().map(|&(id, ..)| id).collect::<Vec<_>>()
        };
        assert_eq!(owned_ids(&mut st, 0b11), vec![SubId(1), SubId(2)]);
        assert_eq!(owned_ids(&mut st, 0b01), vec![SubId(1)]);
        assert!(owned_ids(&mut st, 0b10).is_empty());
        // A refresh arriving unplaced keeps the row's attribute.
        let refresh = stored(SimTime::from_secs(90));
        assert!(!st.insert(SubId(1), refresh, SimTime::ZERO));
        assert_eq!(owned_ids(&mut st, 0b01), vec![SubId(1)]);
        let all = match_ids(&mut st, &event, SimTime::ZERO);
        assert_eq!(all, vec![SubId(1), SubId(2)]);
    }

    #[test]
    fn duplicate_insert_reports_false_and_refreshes_expiry() {
        let mut st = SubscriptionStore::new(&space());
        assert!(st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(5)),
            SimTime::ZERO
        ));
        assert!(!st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(50)),
            SimTime::ZERO
        ));
        assert_eq!(st.len(), 1);
        // The refreshed expiry keeps it alive past the original deadline.
        st.purge_expired(SimTime::from_secs(10));
        assert_eq!(st.len(), 1);
        st.purge_expired(SimTime::from_secs(51));
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn expiry_ordering_and_peak() {
        let mut st = SubscriptionStore::new(&space());
        for i in 0..10u64 {
            st.insert(
                SubId(i),
                stored(0, 10, SimTime::from_secs(10 + i)),
                SimTime::ZERO,
            );
        }
        assert_eq!(st.peak(), 10);
        assert_eq!(st.purge_expired(SimTime::from_secs(14)), 5); // 10..14
        assert_eq!(st.len(), 5);
        // Peak is a high-water mark: unaffected by purges.
        assert_eq!(st.peak(), 10);
        // Matching also purges.
        let hits = match_ids(
            &mut st,
            &Event::new_unchecked(vec![5]),
            SimTime::from_secs(100),
        );
        assert!(hits.is_empty());
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn never_expiring_subscriptions_stay() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 10, SimTime::MAX), SimTime::ZERO);
        st.purge_expired(SimTime::from_secs(1_000_000));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn remove_is_unsubscription() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 10, SimTime::MAX), SimTime::ZERO);
        assert!(st.remove(SubId(1)).is_some());
        assert!(st.remove(SubId(1)).is_none());
        assert!(match_ids(&mut st, &Event::new_unchecked(vec![5]), SimTime::ZERO).is_empty());
    }

    #[test]
    fn insert_purges_before_counting_peak() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(1)),
            SimTime::ZERO,
        );
        st.insert(
            SubId(2),
            stored(0, 10, SimTime::from_secs(1)),
            SimTime::ZERO,
        );
        assert_eq!(st.peak(), 2);
        // Both lapsed; inserting at t=10 must not report a peak of 3.
        st.insert(
            SubId(3),
            stored(0, 10, SimTime::MAX),
            SimTime::from_secs(10),
        );
        assert_eq!(st.len(), 1);
        assert_eq!(st.peak(), 2);
    }
}
