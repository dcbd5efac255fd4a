//! Per-rendezvous-node subscription storage with expiration.
//!
//! Subscriptions carry an expiration time simulating unsubscription
//! requests (§5.1); the store purges them lazily and tracks the peak number
//! of simultaneously live subscriptions — the "maximum number of
//! subscriptions per node" metric of Figures 6 and 8.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::sync::Arc;

use cbps_overlay::{KeyRangeSet, Peer};
use cbps_sim::prefetch::prefetch_tail;
use cbps_sim::{MatchEngineKind, SimTime, TraceId};

use crate::covering::{CoveringStats, CoveringTable};
use crate::engine::{AnyMatchEngine, MatchEngine};
use crate::event::Event;
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
    /// Bitmask of adaptive-rendezvous split slots whose mirror images this
    /// record's `sk` includes (see [`RendezvousPolicy`]): bit `s` set
    /// means the record participates in the live split entry occupying
    /// slot `s`, so the merge sweeps can find (and re-home or release)
    /// exactly the migrated copies. Always `0` under the static policy.
    ///
    /// [`RendezvousPolicy`]: crate::RendezvousPolicy
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
    /// The physical matching engine (counting or sorted), addressed by the
    /// covering group's slot — or, with covering off, by the row.
    engine: AnyMatchEngine,
    /// Covering layer, when enabled: the engine then holds one physical
    /// entry per covering *group* instead of one per subscription.
    covering: Option<CoveringTable>,
    /// The record table — the *logical* store: `len`/`peak`/expiry always
    /// count every subscription, grouped or not. One row per stored
    /// subscription, found through `by_id` and, by the covering groups'
    /// member lists, directly by number; freed rows are recycled.
    rows: Vec<Option<Row>>,
    free: Vec<u32>,
    /// Id → row: the one id-keyed entry a stored subscription costs.
    by_id: IdMap<u32>,
    /// Min-heap of (expiry, id); entries may be stale (removed ids).
    expiry: BinaryHeap<Reverse<(SimTime, SubId)>>,
    peak: usize,
    /// Reused buffer for the engine's hits in
    /// [`SubscriptionStore::match_event_into`].
    scratch: Vec<u32>,
}

/// A subscription an event matched: its id, whom to notify, and the row
/// [`SubscriptionStore::matched_record`] finds its record by.
pub type MatchHit = (SubId, Peer, u32);

/// One stored subscription.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    pub(crate) id: SubId,
    /// The record's subscriber, so that a match reads it off the row.
    pub(crate) subscriber: Peer,
    /// A handle to the record the subscriber built: storing bumps a
    /// reference count instead of copying a record.
    pub(crate) rec: Arc<StoredSub>,
    /// With covering on, the slot of the row's group and the row's
    /// position in that group's member list.
    pub(crate) member: (u32, u32),
}

impl SubscriptionStore {
    /// Creates an empty store for subscriptions over `space` with the
    /// default engine (counting index) and covering enabled.
    pub fn new(space: &EventSpace) -> Self {
        SubscriptionStore::with_options(space, MatchEngineKind::default(), true)
    }

    /// Creates an empty store with an explicit engine kind and covering
    /// toggle. Both knobs change memory and speed only — never the match
    /// sets.
    pub fn with_options(space: &EventSpace, engine: MatchEngineKind, covering: bool) -> Self {
        SubscriptionStore {
            engine: AnyMatchEngine::new(engine, space),
            covering: covering.then(CoveringTable::default),
            rows: Vec::new(),
            free: Vec::new(),
            by_id: IdMap::default(),
            expiry: BinaryHeap::new(),
            peak: 0,
            scratch: Vec::new(),
        }
    }

    /// The engine kind this store runs.
    pub fn match_engine(&self) -> MatchEngineKind {
        self.engine.kind()
    }

    /// Number of live subscriptions (assuming expired ones were purged).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Number of entries in the physical matching engine. Equals
    /// [`SubscriptionStore::len`] without covering; with covering it is
    /// the number of groups — at most `len()`, far fewer on workloads
    /// with duplicate or nested subscriptions.
    pub fn physical_len(&self) -> usize {
        match &self.covering {
            Some(table) => table.physical_len(),
            None => self.engine.len(),
        }
    }

    /// What the covering layer decided for the subscriptions stored so
    /// far, how much its probes read to decide and what matching read
    /// (all zero with covering off). Counters only ever grow; compare two
    /// readings.
    pub fn covering_stats(&self) -> CoveringStats {
        self.covering
            .as_ref()
            .map_or_else(Default::default, |t| t.stats)
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

    /// The stored record under `id`.
    pub fn get(&self, id: SubId) -> Option<&StoredSub> {
        self.by_id.get(&id).map(|&row| &*self.row(row).rec)
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
        let stored: Arc<StoredSub> = stored.into();
        // What a fresh insert touches hangs off half a dozen tables, each
        // a miss of its own by the time the insert gets there. Asked for
        // now, the first lines of each arrive while `by_id` is probed.
        self.engine.prefetch_insert(&stored.sub);
        if let Some(table) = &self.covering {
            table.prefetch_insert(&stored.sub);
        }
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
                // Refresh: the physical entry is untouched, and so is the
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
                // Second round: what those lines point to — the bucket
                // lists' tails, the directory run's entries.
                self.engine.prefetch_tails(&stored.sub);
                let member = match &mut self.covering {
                    Some(table) => {
                        table.prefetch_run(&stored.sub);
                        table.insert(&mut self.engine, row, &stored.sub)
                    }
                    None => {
                        self.engine.insert(row, stored.sub.clone());
                        (0, 0)
                    }
                };
                self.rows[row as usize] = Some(Row {
                    id,
                    subscriber: stored.subscriber,
                    rec: stored,
                    member,
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

    /// Inserts a batch of subscriptions at once, returning the number that
    /// were fresh (not refreshes).
    ///
    /// Identical to calling [`SubscriptionStore::insert`] per item, in
    /// order — ids already stored, or repeated within the batch, take the
    /// refresh path — except that the tables sized by the logical
    /// population grow once for the whole batch.
    pub fn insert_bulk(&mut self, items: Vec<(SubId, StoredSub)>, now: SimTime) -> usize {
        self.by_id.reserve(items.len());
        self.rows.reserve(items.len());
        if let Some(table) = &mut self.covering {
            table.reserve(items.len());
        }
        let mut fresh = 0;
        for (id, stored) in items {
            fresh += usize::from(self.insert(id, stored, now));
        }
        fresh
    }

    /// Removes a subscription (unsubscription), returning its record.
    pub fn remove(&mut self, id: SubId) -> Option<Arc<StoredSub>> {
        let row = self.by_id.remove(&id)?;
        let Row { rec, member, .. } = self.rows[row as usize]
            .take()
            .expect("`by_id` names live rows");
        self.free.push(row);
        match &mut self.covering {
            Some(table) => table.remove(&mut self.engine, &mut self.rows, member, &rec.sub),
            None => {
                self.engine.remove(row);
            }
        }
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
    /// changed or vanished (e.g. lease-refresh loops over covered
    /// subscriptions); without an occasional sweep the heap would grow
    /// without bound relative to the live population.
    fn shrink_expiry_heap(&mut self) {
        if self.expiry.len() <= 2 * self.len() + 64 {
            return;
        }
        let mut entries = std::mem::take(&mut self.expiry).into_vec();
        entries.retain(|&Reverse((t, id))| self.get(id).is_some_and(|s| s.expires == t));
        self.expiry = entries.into();
    }

    /// Pre-sizes the store for a bulk installation of roughly `subs`
    /// subscriptions, so installation pays one up-front reservation
    /// instead of incremental growth reallocations. Only the id scratch, a
    /// plain vector, is reserved, so stored state and match results are
    /// byte-identical with or without the call. The expiry heap is left to
    /// grow: whether subscriptions expire at all is not known here.
    pub fn reserve(&mut self, subs: usize) {
        if self.scratch.capacity() < subs {
            self.scratch.reserve(subs - self.scratch.len());
        }
    }

    /// Grows every matching-path scratch buffer to its steady-state bound
    /// (all of them are capped by the stored-subscription count) so
    /// subsequent [`SubscriptionStore::match_event_into`] calls never
    /// reallocate. Matching warms the same buffers incrementally; this
    /// pre-faults a store that has not matched an event yet.
    pub fn warm(&mut self) {
        self.engine.warm();
        let need = self.len();
        if self.scratch.capacity() < need {
            self.scratch.reserve(need - self.scratch.len());
        }
    }

    /// Writes all live subscriptions matched by `event` into `out`
    /// (cleared first), in ascending id order. Purges expired entries
    /// first. Allocation-free at steady state: the id scratch, the engine
    /// scratch and `out` are all reused, and a hit is read off the record
    /// table without touching a stored record or its reference count. This
    /// is the store's single matching entry point; the engines'
    /// [`MatchEngine::matches`](crate::MatchEngine::matches) wrapper
    /// exists for tests and examples.
    pub fn match_event_into(&mut self, event: &Event, now: SimTime, out: &mut Vec<MatchHit>) {
        out.clear();
        self.purge_expired(now);
        let mut slots = std::mem::take(&mut self.scratch);
        self.engine.matches_into(event, &mut slots);
        match &mut self.covering {
            Some(table) => table.expand_into(&slots, &self.rows, event, out),
            None => {
                for &row in &slots {
                    let r = self.row(row);
                    out.push((r.id, r.subscriber, row));
                }
                out.sort_unstable_by_key(|&(id, ..)| id);
            }
        }
        self.scratch = slots;
    }

    /// The stored record of a hit of the latest
    /// [`SubscriptionStore::match_event_into`], by the hit's row (an insert
    /// or a removal since then may have given the row away; panics if it
    /// is vacant).
    pub fn matched_record(&mut self, row: u32) -> &Arc<StoredSub> {
        if let Some(table) = &mut self.covering {
            table.stats.records_dereferenced_on_match += 1;
        }
        &self.row(row).rec
    }
}

/// `true` iff the two records are the same apart from `expires`.
fn differs_only_in_expiry(a: &StoredSub, b: &StoredSub) -> bool {
    a.subscriber == b.subscriber
        && a.trace == b.trace
        && a.subgroups == b.subgroups
        && a.sub == b.sub
        && a.sk == b.sk
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

    /// `[50, 60] ⊆ [0, 100]`: with covering the two subscriptions share
    /// one physical entry, without it they do not — and the logical match
    /// sets are identical either way.
    #[test]
    fn covering_shares_physical_entries_without_changing_matches() {
        for (engine, covering, phys) in [
            (MatchEngineKind::Counting, true, 1),
            (MatchEngineKind::Counting, false, 2),
            (MatchEngineKind::Sorted, true, 1),
            (MatchEngineKind::Sorted, false, 2),
        ] {
            let mut st = SubscriptionStore::with_options(&space(), engine, covering);
            assert_eq!(st.match_engine(), engine);
            st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
            st.insert(SubId(2), stored(50, 60, SimTime::MAX), SimTime::ZERO);
            assert_eq!(st.len(), 2);
            assert_eq!(
                st.physical_len(),
                phys,
                "engine {engine:?} covering {covering}"
            );
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
                vec![SubId(1), SubId(2)]
            );
            // 99 matches only the representative's own shape: the covered
            // member must be re-verified and filtered out.
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO),
                vec![SubId(1)]
            );
            // Un-cover: removing the representative's subscription keeps
            // the covered one matching.
            assert!(st.remove(SubId(1)).is_some());
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
                vec![SubId(2)]
            );
            assert!(match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO).is_empty());
        }
    }

    /// A broader subscription arriving second absorbs the existing group
    /// (reverse covering) instead of creating a new physical entry.
    #[test]
    fn reverse_absorption_widens_existing_group() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(40, 80, SimTime::MAX), SimTime::ZERO);
        assert_eq!(st.physical_len(), 1);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![70]), SimTime::ZERO),
            vec![SubId(2)]
        );
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
            vec![SubId(1), SubId(2)]
        );
    }

    /// Covered subscriptions expire independently of their representative.
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
        assert_eq!(st.physical_len(), 1);
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
        assert_eq!(st.physical_len(), 0);
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
        assert!(std::ptr::eq(a.get(SubId(1)).unwrap(), &*shared));

        // A renewed record differing only in `expires` is adopted as is.
        let renewed = Arc::new(StoredSub {
            expires: SimTime::from_secs(50),
            ..StoredSub::clone(&shared)
        });
        assert!(!a.insert(SubId(1), Arc::clone(&renewed), SimTime::ZERO));
        assert!(std::ptr::eq(a.get(SubId(1)).unwrap(), &*renewed));

        // One that differs elsewhere too only hands over its expiry.
        let mut moved = stored(0, 10, SimTime::from_secs(70));
        moved.subgroups = 1;
        assert!(!a.insert(SubId(1), moved, SimTime::ZERO));
        assert_eq!(a.get(SubId(1)).unwrap().expires, SimTime::from_secs(70));
        assert_eq!(a.get(SubId(1)).unwrap().subgroups, 0);

        // Neither shared record was written to, and `b` still lapses on
        // the original lease while `a` lives on.
        assert_eq!(shared.expires, SimTime::from_secs(5));
        assert_eq!(renewed.expires, SimTime::from_secs(50));
        assert!(std::ptr::eq(b.get(SubId(1)).unwrap(), &*shared));
        assert_eq!(b.purge_expired(SimTime::from_secs(6)), 1);
        assert_eq!(a.purge_expired(SimTime::from_secs(6)), 0);
        assert_eq!(a.purge_expired(SimTime::from_secs(71)), 1);
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

    /// Bulk insertion is observationally identical to sequential
    /// insertion: same logical/physical counts and same match sets, on a
    /// random workload with heavy shape duplication, before and after
    /// removing a slice of the population.
    #[test]
    fn bulk_insert_matches_sequential_build() {
        use cbps_rng::Rng;
        let s = EventSpace::new(vec![
            AttributeDef::new("a", 40),
            AttributeDef::new("b", 40),
            AttributeDef::new("c", 40),
        ]);
        let random_sub = |rng: &mut Rng| loop {
            let mut b = Subscription::builder(&s);
            for name in ["a", "b", "c"] {
                // Small domains + frequent wildcards force duplicate
                // shapes, covering chains, and reverse absorptions.
                if rng.gen_range(0u32..3) > 0 {
                    let lo = rng.gen_range(0u64..40);
                    let hi = rng.gen_range(lo..40);
                    b = b.range(name, lo, hi).unwrap();
                }
            }
            if let Ok(sub) = b.build() {
                return sub;
            }
        };
        for engine in [MatchEngineKind::Counting, MatchEngineKind::Sorted] {
            let mut rng = Rng::seed_from_u64(0xb01d);
            let items: Vec<(SubId, StoredSub)> = (0..600)
                .map(|i| {
                    let mut rec = stored(0, 0, SimTime::MAX);
                    rec.sub = random_sub(&mut rng);
                    (SubId(i), rec)
                })
                .collect();
            let mut seq = SubscriptionStore::with_options(&s, engine, true);
            for (id, rec) in items.clone() {
                seq.insert(id, rec, SimTime::ZERO);
            }
            let mut bulk = SubscriptionStore::with_options(&s, engine, true);
            assert_eq!(bulk.insert_bulk(items, SimTime::ZERO), 600);
            let probe = |seq: &mut SubscriptionStore, bulk: &mut SubscriptionStore| {
                assert_eq!(bulk.len(), seq.len());
                assert_eq!(bulk.physical_len(), seq.physical_len());
                let mut rng = Rng::seed_from_u64(0xeeee);
                for case in 0..300 {
                    let e = Event::new_unchecked((0..3).map(|_| rng.gen_range(0u64..40)).collect());
                    assert_eq!(
                        match_ids(bulk, &e, SimTime::ZERO),
                        match_ids(seq, &e, SimTime::ZERO),
                        "case {case}"
                    );
                }
            };
            probe(&mut seq, &mut bulk);
            // Member bookkeeping must survive churn identically.
            for i in (0..600).step_by(3) {
                assert_eq!(
                    bulk.remove(SubId(i)).is_some(),
                    seq.remove(SubId(i)).is_some()
                );
            }
            probe(&mut seq, &mut bulk);
        }
    }

    /// Bulk insertion routes already-stored ids and within-batch repeats
    /// through the refresh path instead of double-registering them.
    #[test]
    fn bulk_insert_refreshes_duplicates() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
        let fresh = st.insert_bulk(
            vec![
                (SubId(1), stored(0, 100, SimTime::from_secs(5))),
                (SubId(2), stored(50, 60, SimTime::MAX)),
                (SubId(2), stored(50, 60, SimTime::from_secs(9))),
            ],
            SimTime::ZERO,
        );
        assert_eq!(fresh, 1);
        assert_eq!(st.len(), 2);
        assert_eq!(st.get(SubId(1)).unwrap().expires, SimTime::from_secs(5));
        assert_eq!(st.get(SubId(2)).unwrap().expires, SimTime::from_secs(9));
        // Refreshed ids keep a single physical registration: both lapse
        // cleanly.
        st.purge_expired(SimTime::from_secs(10));
        assert_eq!(st.len(), 0);
        assert_eq!(st.physical_len(), 0);
    }
}
