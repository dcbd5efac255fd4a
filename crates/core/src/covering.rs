//! Subscription covering (aggregation) for the store.
//!
//! When subscription σ *covers* σ′ — on every dimension σ is a wildcard or
//! a range enclosing σ′'s (see
//! [`Subscription::covers`](crate::Subscription::covers)) — any event
//! matching σ′ also matches σ, so a rendezvous node only needs σ in its
//! matching engine to *detect* events relevant to either. The table below
//! groups logical subscriptions under one physical representative per
//! group, so a node holding 10^6 logical subscriptions on a skewed
//! workload keeps far fewer physical index entries.
//!
//! **Delivered sets are unchanged.** The representative is only a
//! candidate filter: when its cover matches an event, members whose shape
//! equals the cover are emitted directly, all others are re-verified
//! against their own bounds — kept in a slab of the table's, so matching
//! never follows a pointer into a record. A representative may be *broader* than
//! every live member (its creator unsubscribed first) — that costs a
//! verification, never a wrong delivery. All per-id bookkeeping
//! (`len`/`peak`/expiry/refresh) stays in the store's record table,
//! untouched by grouping.
//!
//! An insert decides in three steps, cheapest first: the shape digest
//! finds an exact duplicate; the *cover directory* finds the oldest
//! representative covering σ — exactly, no stored cover is missed; and the
//! reverse direction — σ covering existing groups — is a bounded
//! best-effort walk of the same directory. Missing an absorption only
//! costs memory, never correctness. Neither probe asks the matching engine
//! anything, so which group a subscription joins does not depend on it.
//!
//! **The cover directory** files every group once, under its cover's
//! *first constrained dimension* `d`, by the cover's range there, sorted
//! by `(lo, phys)`. A cover C of σ encloses σ on every dimension C
//! constrains — its own first one in particular — so C is filed under a
//! dimension σ constrains with `lo ≤ σ.lo` and `hi ≥ σ.hi`; a group σ
//! covers, if its cover shares σ's first dimension, has `σ.lo ≤ lo` and
//! `hi ≤ σ.hi`. Both probes read one neighbourhood of one sorted array and
//! follow a pointer to a cover only when the bounds on file allow it.

use std::collections::HashMap;

use crate::engine::{AnyMatchEngine, MatchEngine};
use crate::event::Event;
use crate::store::{MatchHit, Row};
use crate::subscription::{SubId, Subscription};
use cbps_overlay::InlineVec;

/// Cap on reverse-absorption candidates examined per insert: the first
/// `PROBE_CAP` entries whose lower bound lies in σ's range, passed or not.
/// The walk is best-effort by design; the cap keeps a broad σ arriving at
/// a crowded store from reading the whole directory to save one entry.
const PROBE_CAP: usize = 64;

/// Entries per run a directory dimension aims for: once it averages more,
/// it re-files itself into four times as many runs.
const RUN_LEN: usize = 32;

/// A physical index entry and the logical subscriptions it represents.
#[derive(Clone, Debug)]
struct Group {
    cover: Subscription,
    /// The id the engine knows this group by: mint sequence number in the
    /// high half — so ids order by age — and the group's slot in the low
    /// half, so an engine hit leads here without a lookup.
    phys: u64,
    /// Each member's row in the store's record table, and the slot of the
    /// table's [`BoundsSlab`] holding its bounds — [`EXACT`] when its shape
    /// equals the cover (matching then skips re-verification).
    members: InlineVec<(u32, u32), 4>,
}

/// In place of a slab slot: the member's shape is its group's cover.
const EXACT: u32 = u32::MAX;

/// The bounds of the members narrower than their cover, `dims` `(lo, hi)`
/// pairs per slot (see [`range_on`]): re-verifying a member reads one short
/// run of this array and nothing of the member's record.
#[derive(Clone, Debug, Default)]
struct BoundsSlab {
    ranges: Vec<(u64, u64)>,
    /// Freed slots, recycled before the array grows.
    free: Vec<u32>,
}

impl BoundsSlab {
    fn store(&mut self, sub: &Subscription) -> u32 {
        let dims = sub.dims();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.ranges.resize(self.ranges.len() + dims, (0, 0));
            (self.ranges.len() / dims - 1) as u32
        });
        for (d, range) in self.ranges[slot as usize * dims..][..dims]
            .iter_mut()
            .enumerate()
        {
            *range = range_on(sub, d);
        }
        slot
    }

    fn admits(&self, slot: u32, event: &Event) -> bool {
        let values = event.values();
        let ranges = &self.ranges[slot as usize * values.len()..][..values.len()];
        let mut dims = ranges.iter().zip(values);
        dims.all(|(&(lo, hi), &v)| lo <= v && v <= hi)
    }
}

fn slot_of(phys: u64) -> usize {
    phys as u32 as usize
}

/// A group as the directory files it: its cover's range on the cover's
/// first constrained dimension `d`, and on dimension `d + 1`. Shapes that
/// both constrain `d` can only cover one another if their ranges on
/// `d + 1` nest too, which settles most candidates the range on `d` lets
/// through without reading the candidate's cover.
#[derive(Clone, Copy, Debug)]
struct Filed {
    lo: u64,
    phys: u64,
    hi: u64,
    next: (u64, u64),
}

/// Where and as what the directory files a group with this cover.
fn filed(cover: &Subscription, phys: u64) -> (usize, Filed) {
    let d = cover
        .first_constrained()
        .expect("subscriptions constrain at least one dimension");
    let (lo, hi) = range_on(cover, d);
    let next = range_on(cover, d + 1);
    (d, Filed { lo, phys, hi, next })
}

/// `sub`'s `(lo, hi)` on dimension `d`; a wildcard, or a `d` past the last
/// dimension, reads as the range that encloses every other.
fn range_on(sub: &Subscription, d: usize) -> (u64, u64) {
    let c = sub.constraints().get(d).copied().flatten();
    c.map_or((0, u64::MAX), |c| (c.lo(), c.hi()))
}

fn encloses(outer: (u64, u64), inner: (u64, u64)) -> bool {
    outer.0 <= inner.0 && inner.1 <= outer.1
}

/// The directory of one dimension: the groups whose cover constrains this
/// dimension first, in `(lo, phys)` order, cut into runs by lower bound so
/// that filing shifts one short run.
#[derive(Clone, Debug, Default)]
struct DimDir {
    /// Run `i` holds the entries with `lo >> shift == i`; the last run
    /// also holds everything above. Empty until something is filed.
    runs: Vec<Vec<Filed>>,
    shift: u32,
    len: usize,
    /// The widest `hi − lo` ever filed here. It only grows — a removal
    /// leaves it an upper bound — and bounds how far below σ's lower
    /// bound a cover of σ can start.
    max_width: u64,
}

impl DimDir {
    fn run_of(&self, lo: u64) -> usize {
        ((lo >> self.shift) as usize).min(self.runs.len() - 1)
    }

    /// The entries with `from ≤ lo ≤ to`, in `(lo, phys)` order.
    fn window(&self, from: u64, to: u64) -> impl Iterator<Item = &Filed> {
        let runs = if self.runs.is_empty() || from > to {
            &self.runs[..0]
        } else {
            &self.runs[self.run_of(from)..=self.run_of(to)]
        };
        // Only the first run can hold entries below `from`.
        let skip = runs
            .first()
            .map_or(0, |run| run.partition_point(|e| e.lo < from));
        runs.iter()
            .flatten()
            .skip(skip)
            .take_while(move |e| e.lo <= to)
    }

    fn file(&mut self, entry: Filed) {
        if self.len >= RUN_LEN * self.runs.len() {
            self.grow();
        }
        self.max_width = self.max_width.max(entry.hi - entry.lo);
        self.len += 1;
        let r = self.run_of(entry.lo);
        let at = self.runs[r].partition_point(|e| (e.lo, e.phys) < (entry.lo, entry.phys));
        self.runs[r].insert(at, entry);
    }

    fn unfile(&mut self, Filed { lo, phys, .. }: Filed) {
        let r = self.run_of(lo);
        let at = self.runs[r].partition_point(|e| (e.lo, e.phys) < (lo, phys));
        debug_assert_eq!(self.runs[r][at].phys, phys, "every live group is filed");
        self.runs[r].remove(at);
        self.len -= 1;
    }

    /// Re-files everything into four times as many runs (one, to begin
    /// with), cut so that the largest lower bound on file lands in the
    /// last one.
    fn grow(&mut self) {
        let count = (self.runs.len() * 4).max(1);
        let top = self.runs.iter().rev().find_map(|run| run.last());
        let bits = u64::BITS - top.map_or(0, |e| e.lo).leading_zeros();
        self.shift = bits.saturating_sub(count.trailing_zeros());
        let old = std::mem::replace(&mut self.runs, vec![Vec::new(); count]);
        for entry in old.into_iter().flatten() {
            let r = self.run_of(entry.lo);
            self.runs[r].push(entry);
        }
    }
}

/// What the covering layer did with the subscriptions it was handed, and
/// what its probes read to decide (see
/// [`SubscriptionStore::covering_stats`](crate::SubscriptionStore::covering_stats)).
/// Every insert ends in exactly one of the four outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoveringStats {
    /// Fresh subscriptions registered.
    pub inserts: u64,
    /// … whose shape was already stored: joined that shape's group.
    pub duplicate: u64,
    /// … covered by an existing representative: joined its group.
    pub covered: u64,
    /// … covering an existing representative: became that group's cover.
    pub absorbed: u64,
    /// … none of the above: founded a group of their own.
    pub founded: u64,
    /// Directory entries the two probes compared in place.
    pub entries_scanned: u64,
    /// Covers the probes followed a pointer to, because the bounds on
    /// file could not rule the entry out.
    pub records_dereferenced: u64,
    /// Members of the groups that events' physical hits named.
    pub members_tested: u64,
    /// … of which the event matched (never more than were tested).
    pub members_emitted: u64,
    /// Stored records asked for by the row of a match hit
    /// ([`SubscriptionStore::matched_record`](crate::SubscriptionStore::matched_record));
    /// the expansion itself reads none.
    pub records_dereferenced_on_match: u64,
    /// Slots in the slab of narrower-than-cover members' bounds: freed ones
    /// are reused first, so the most such members ever held at once.
    pub bounds_slots: u64,
}

/// The covering layer: maps logical subscriptions onto shared physical
/// engine entries. Physical ids are minted here and never leave the store.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoveringTable {
    /// Group slab; freed slots are recycled.
    groups: Vec<Option<Group>>,
    free: Vec<u32>,
    /// Exact-duplicate fast path: shape → (group slot, member refcount).
    /// Shapes come from subscribers, so this map keeps the default hasher.
    by_shape: HashMap<Subscription, (u32, u32)>,
    /// The cover directory, one [`DimDir`] per dimension; empty until the
    /// first insert (most stores of a large deployment never see one).
    dirs: Vec<DimDir>,
    /// Absent until a member narrower than its cover joins: a store of
    /// unrelated shapes never pays for it.
    bounds: Option<Box<BoundsSlab>>,
    next_seq: u32,
    pub(crate) stats: CoveringStats,
}

impl CoveringTable {
    /// Number of physical engine entries (== live groups).
    pub(crate) fn physical_len(&self) -> usize {
        self.groups.len() - self.free.len()
    }

    fn cover(&self, phys: u64) -> &Subscription {
        let g = self.groups[slot_of(phys)].as_ref();
        &g.expect("filed entries name live groups").cover
    }

    /// Registers a *fresh* logical subscription held in record-table row
    /// `row`, inserting a physical entry into `engine` only when no
    /// existing group can represent it. Returns the group's slot and the
    /// member's position in it, for the row to remember.
    pub(crate) fn insert(
        &mut self,
        engine: &mut AnyMatchEngine,
        row: u32,
        sub: &Subscription,
    ) -> (u32, u32) {
        self.stats.inserts += 1;
        let slot = if let Some(entry) = self.by_shape.get_mut(sub) {
            self.stats.duplicate += 1;
            entry.1 += 1;
            entry.0
        } else {
            if self.dirs.is_empty() {
                self.dirs.resize_with(sub.dims(), DimDir::default);
            }
            let slot = if let Some(phys) = self.covered_by(sub) {
                self.stats.covered += 1;
                slot_of(phys) as u32
            } else if let Some(phys) = self.absorbable(sub) {
                self.stats.absorbed += 1;
                self.widen(engine, phys, sub);
                slot_of(phys) as u32
            } else {
                self.stats.founded += 1;
                self.found(engine, sub)
            };
            self.by_shape.insert(sub.clone(), (slot, 1));
            slot
        };
        let g = self.groups[slot as usize].as_mut();
        let g = g.expect("joining a live group");
        let bounds = if *sub == g.cover {
            EXACT
        } else {
            self.bounds.get_or_insert_default().store(sub)
        };
        g.members.push((row, bounds));
        if let Some(slab) = &self.bounds {
            self.stats.bounds_slots = (slab.ranges.len() / sub.dims()) as u64;
        }
        (slot, g.members.len() as u32 - 1)
    }

    /// The oldest group whose cover covers `sub`. Exact: the directory
    /// argument in the module docs leaves a cover one place to be per
    /// dimension `sub` constrains, and all of those are read.
    fn covered_by(&mut self, sub: &Subscription) -> Option<u64> {
        let mut best: Option<u64> = None;
        for (d, c) in sub.constraints().iter().enumerate() {
            let Some(c) = c else { continue };
            let dir = &self.dirs[d];
            let next = range_on(sub, d + 1);
            for e in dir.window(c.hi().saturating_sub(dir.max_width), c.lo()) {
                self.stats.entries_scanned += 1;
                if e.hi >= c.hi() && encloses(e.next, next) && best.is_none_or(|b| e.phys < b) {
                    self.stats.records_dereferenced += 1;
                    if self.cover(e.phys).covers(sub) {
                        best = Some(e.phys);
                    }
                }
            }
        }
        best
    }

    /// A group `sub` covers, if one shows among the first [`PROBE_CAP`]
    /// entries of `sub`'s first dimension whose lower bound lies in
    /// `sub`'s range.
    fn absorbable(&mut self, sub: &Subscription) -> Option<u64> {
        let (first, s) = filed(sub, 0);
        for e in self.dirs[first].window(s.lo, s.hi).take(PROBE_CAP) {
            self.stats.entries_scanned += 1;
            if e.hi <= s.hi && encloses(s.next, e.next) {
                self.stats.records_dereferenced += 1;
                if sub.covers(self.cover(e.phys)) {
                    return Some(e.phys);
                }
            }
        }
        None
    }

    /// Makes room for `additional` more logical subscriptions, so a bulk
    /// build never pays an incremental rehash of a million-entry table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.by_shape.reserve(additional);
    }

    /// Removes the logical subscription `sub` that sat at position `pos`
    /// of group `slot`; drops the group's physical entry when its last
    /// member leaves. `rows` is the store's record table: the member
    /// moved into the vacated position has its row told so.
    pub(crate) fn remove(
        &mut self,
        engine: &mut AnyMatchEngine,
        rows: &mut [Option<Row>],
        (slot, pos): (u32, u32),
        sub: &Subscription,
    ) {
        let g = self.groups[slot as usize].as_mut();
        let g = g.expect("members imply a live group");
        let (_, bounds) = g.members.swap_remove(pos as usize);
        if bounds != EXACT {
            let slab = self.bounds.as_mut().expect("a slot implies the slab");
            slab.free.push(bounds);
        }
        if let Some(&(moved, _)) = g.members.as_slice().get(pos as usize) {
            let moved = rows[moved as usize].as_mut();
            moved.expect("members are live rows").member.1 = pos;
        }
        if let Some(entry) = self.by_shape.get_mut(sub) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.by_shape.remove(sub);
            }
        }
        if g.members.is_empty() {
            let (d, entry) = filed(&g.cover, g.phys);
            self.dirs[d].unfile(entry);
            engine.remove(SubId(g.phys));
            self.groups[slot as usize] = None;
            self.free.push(slot);
        }
    }

    /// Expands the engine's physical `hits` into the exact logical match
    /// set (ascending id, written to the empty `out`), re-verifying members
    /// narrower than their representative against the slab.
    pub(crate) fn expand_into(
        &mut self,
        hits: &[SubId],
        rows: &[Option<Row>],
        event: &Event,
        out: &mut Vec<MatchHit>,
    ) {
        let slab = self.bounds.as_deref();
        for phys in hits {
            let g = self.groups[slot_of(phys.0)].as_ref();
            let members = g.expect("engine hits name live groups").members.as_slice();
            self.stats.members_tested += members.len() as u64;
            for &(row, bounds) in members {
                if bounds == EXACT || slab.is_some_and(|slab| slab.admits(bounds, event)) {
                    let r = rows[row as usize].as_ref().expect("members are live rows");
                    out.push((r.id, r.subscriber, row));
                }
            }
        }
        self.stats.members_emitted += out.len() as u64;
        out.sort_unstable_by_key(|&(id, ..)| id);
    }

    /// Founds a group with `cover` as its own representative.
    fn found(&mut self, engine: &mut AnyMatchEngine, cover: &Subscription) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.groups.push(None);
            (self.groups.len() - 1) as u32
        });
        // A store that founds 2^32 groups starts over: "oldest" then
        // prefers the wrong group now and then, nothing else changes
        // (slots keep live ids distinct).
        let phys = u64::from(self.next_seq) << 32 | u64::from(slot);
        self.next_seq = self.next_seq.wrapping_add(1);
        engine.insert(SubId(phys), cover.clone());
        let (d, entry) = filed(cover, phys);
        self.dirs[d].file(entry);
        self.groups[slot as usize] = Some(Group {
            cover: cover.clone(),
            phys,
            members: InlineVec::new(),
        });
        slot
    }

    /// Replaces a group's representative with the broader `cover`.
    fn widen(&mut self, engine: &mut AnyMatchEngine, phys: u64, cover: &Subscription) {
        let g = self.groups[slot_of(phys)].as_mut();
        let g = g.expect("widening a live group");
        let (d, old) = filed(&g.cover, phys);
        self.dirs[d].unfile(old);
        // Members exactly matching the old cover are strictly narrower
        // than the new one: they need re-verification from now on,
        // against the bounds that were the cover's.
        let old = std::mem::replace(&mut g.cover, cover.clone());
        for m in g.members.as_mut_slice() {
            if m.1 == EXACT {
                m.1 = self.bounds.get_or_insert_default().store(&old);
            }
        }
        engine.remove(SubId(phys));
        engine.insert(SubId(phys), cover.clone());
        let (d, new) = filed(cover, phys);
        self.dirs[d].file(new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{AttributeDef, EventSpace};
    use crate::store::StoredSub;
    use crate::subscription::Constraint;
    use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
    use cbps_rng::Rng;
    use cbps_sim::{MatchEngineKind, SimTime, TraceId};
    use std::sync::Arc;

    /// A shape's first constrained dimension and its bounds there.
    fn first_range(sub: &Subscription) -> (usize, u64, u64) {
        let d = sub.first_constrained().unwrap();
        let c = sub.constraint(d).unwrap();
        (d, c.lo(), c.hi())
    }

    /// Brute-force references: what the probes must answer, read off the
    /// live groups' covers with no directory in between.
    impl CoveringTable {
        fn covered_by_scan(&self, sub: &Subscription) -> Option<u64> {
            let live = self.groups.iter().flatten();
            live.filter(|g| g.cover.covers(sub)).map(|g| g.phys).min()
        }

        fn absorbable_scan(&self, sub: &Subscription) -> Option<u64> {
            let (d, lo, hi) = first_range(sub);
            let mut in_range: Vec<(u64, u64)> = self
                .groups
                .iter()
                .flatten()
                .filter_map(|g| {
                    let (gd, glo, _) = first_range(&g.cover);
                    (gd == d && lo <= glo && glo <= hi).then_some((glo, g.phys))
                })
                .collect();
            in_range.sort_unstable();
            in_range.truncate(PROBE_CAP);
            let hit = in_range
                .iter()
                .find(|&&(_, phys)| sub.covers(self.cover(phys)));
            hit.map(|&(_, phys)| phys)
        }

        /// Every live group is filed exactly once, where and as its cover
        /// says; runs are sorted and hold the lower bounds they are cut
        /// for; `max_width` bounds every filed width.
        fn check_directory(&self) {
            let mut on_file = 0;
            for (d, dir) in self.dirs.iter().enumerate() {
                assert_eq!(dir.len, dir.runs.iter().map(Vec::len).sum::<usize>());
                on_file += dir.len;
                for (r, run) in dir.runs.iter().enumerate() {
                    assert!(run
                        .windows(2)
                        .all(|w| (w[0].lo, w[0].phys) < (w[1].lo, w[1].phys)));
                    for e in run {
                        assert_eq!(dir.run_of(e.lo), r);
                        assert!(e.hi - e.lo <= dir.max_width);
                        let g = self.groups[slot_of(e.phys)].as_ref().unwrap();
                        assert_eq!(g.phys, e.phys);
                        assert_eq!(first_range(&g.cover), (d, e.lo, e.hi));
                        let next = g.cover.constraints().get(d + 1).copied().flatten();
                        assert_eq!(e.next, next.map_or((0, u64::MAX), |c| (c.lo(), c.hi())));
                    }
                }
            }
            assert_eq!(on_file, self.physical_len());
        }
    }

    /// A covering table with the engine and record table a store would
    /// put around it.
    struct Harness {
        space: EventSpace,
        table: CoveringTable,
        engine: AnyMatchEngine,
        rows: Vec<Option<Row>>,
        /// The most members narrower than their cover held at once.
        peak_narrow: usize,
    }

    impl Harness {
        fn new(sizes: &[u64]) -> Self {
            let attrs = sizes.iter().enumerate();
            let space = EventSpace::new(
                attrs
                    .map(|(i, &n)| AttributeDef::new(format!("a{i}"), n))
                    .collect(),
            );
            Harness {
                table: CoveringTable::default(),
                engine: AnyMatchEngine::new(MatchEngineKind::Counting, &space),
                rows: Vec::new(),
                peak_narrow: 0,
                space,
            }
        }

        fn sub(&self, ranges: &[Option<(u64, u64)>]) -> Subscription {
            let slots = ranges.iter();
            let slots = slots.map(|r| r.map(|(lo, hi)| Constraint::range(lo, hi).unwrap()));
            Subscription::from_constraints(&self.space, slots.collect()).unwrap()
        }

        /// Holds both probes to their references for `sub`, then stores it
        /// the way [`SubscriptionStore::insert`](crate::SubscriptionStore::insert)
        /// does. Returns its row.
        fn insert(&mut self, sub: &Subscription) -> u32 {
            if !self.table.dirs.is_empty() {
                assert_eq!(
                    self.table.covered_by(sub),
                    self.table.covered_by_scan(sub),
                    "covered-by of {sub}"
                );
                assert_eq!(
                    self.table.absorbable(sub),
                    self.table.absorbable_scan(sub),
                    "absorbable by {sub}"
                );
            }
            let row = self.rows.len() as u32;
            let member = self.table.insert(&mut self.engine, row, sub);
            let keys = KeySpace::new(8);
            let subscriber = Peer {
                idx: 0,
                key: keys.key(1),
            };
            let rec = Arc::new(StoredSub {
                sub: sub.clone(),
                subscriber,
                expires: SimTime::MAX,
                sk: KeyRangeSet::of_key(keys, keys.key(2)),
                trace: TraceId::NONE,
                subgroups: 0,
            });
            let id = SubId(u64::from(row));
            self.rows.push(Some(Row {
                id,
                subscriber,
                rec,
                member,
            }));
            self.check();
            row
        }

        fn remove(&mut self, row: u32) {
            let Row { rec, member, .. } = self.rows[row as usize].take().expect("live row");
            self.table
                .remove(&mut self.engine, &mut self.rows, member, &rec.sub);
            self.check();
        }

        /// Directory invariants, plus: every live row is where its group's
        /// member list says, the engine holds one entry per group, and the
        /// slab holds the own bounds of exactly the members narrower than
        /// their cover — each in a slot of its own, every other slot on the
        /// free list, and never more slots than such members at their peak.
        fn check(&mut self) {
            self.table.check_directory();
            assert_eq!(self.engine.len(), self.table.physical_len());
            let dims = self.space.dims();
            let empty = BoundsSlab::default();
            let slab = self.table.bounds.as_deref().unwrap_or(&empty);
            let mut held: Vec<u32> = Vec::new();
            for (r, row) in self.rows.iter().enumerate() {
                let Some(row) = row else { continue };
                let g = self.table.groups[row.member.0 as usize].as_ref().unwrap();
                let (member, bounds) = g.members.as_slice()[row.member.1 as usize];
                assert_eq!(member as usize, r);
                assert_eq!(bounds == EXACT, row.rec.sub == g.cover);
                assert!(g.cover.covers(&row.rec.sub));
                if bounds != EXACT {
                    let own: Vec<(u64, u64)> =
                        (0..dims).map(|d| range_on(&row.rec.sub, d)).collect();
                    assert_eq!(slab.ranges[bounds as usize * dims..][..dims], own[..]);
                    held.push(bounds);
                }
            }
            self.peak_narrow = self.peak_narrow.max(held.len());
            held.extend(&slab.free);
            held.sort_unstable();
            let slots = slab.ranges.len() / dims;
            assert_eq!(held, (0..slots as u32).collect::<Vec<_>>());
            assert!(
                slots <= self.peak_narrow,
                "{slots} slots for {}",
                self.peak_narrow
            );
            assert_eq!(self.table.stats.bounds_slots, slots as u64);
        }

        /// Holds the expansion of every group to brute force: for `event`,
        /// the rows whose own shape matches it, ascending.
        fn check_expansion(&mut self, event: &Event) {
            let mut hits = Vec::new();
            self.engine.matches_into(event, &mut hits);
            let mut out = Vec::new();
            let before = self.table.stats;
            self.table.expand_into(&hits, &self.rows, event, &mut out);
            let rows = self.rows.iter().flatten();
            let mut expect: Vec<SubId> = rows
                .filter(|row| row.rec.sub.matches(event))
                .map(|row| row.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(out.iter().map(|&(id, ..)| id).collect::<Vec<_>>(), expect);
            let after = self.table.stats;
            let emitted = after.members_emitted - before.members_emitted;
            assert_eq!(emitted, expect.len() as u64);
            assert!(emitted <= after.members_tested - before.members_tested);
        }
    }

    /// Seeded found / join / widen / remove streams over 1–5 dimensions
    /// with wildcards: small domains make equal lower bounds and duplicate
    /// shapes common, every eighth range spans its whole domain (so
    /// `max_width` opens the covered-by window all the way down, and stays
    /// there after the wide cover is removed), and the point-heavy cases
    /// file enough unrelated covers under one dimension to re-cut its
    /// runs. Both probes are held to the brute-force scans before every
    /// insert; every fourth, the expansion of a random event is held to
    /// `Subscription::matches` over the live rows, and after every
    /// operation the slab to the members' own shapes.
    #[test]
    fn directory_probes_equal_brute_force_scans() {
        let mut rng = Rng::seed_from_u64(0xd12e_c702);
        let mut events = Rng::seed_from_u64(0xe7e2);
        let mut recut = false;
        let mut narrow = 0;
        let mut outcomes = CoveringStats::default();
        for case in 0..40 {
            let dims = 1 + case % 5;
            let size = [12, 40, 300][case % 3];
            let mut h = Harness::new(&vec![size; dims]);
            let mut live: Vec<u32> = Vec::new();
            for _ in 0..400 {
                if !live.is_empty() && rng.gen_bool(0.3) {
                    let k = rng.gen_range(0..live.len() as u64) as usize;
                    h.remove(live.swap_remove(k));
                    continue;
                }
                let ranges: Vec<Option<(u64, u64)>> = (0..dims)
                    .map(|_| match rng.gen_range(0u32..8) {
                        0 | 1 if dims > 1 => None,
                        2 => Some((0, size - 1)),
                        3..=5 => {
                            let v = rng.gen_range(0..size);
                            Some((v, v))
                        }
                        _ => {
                            let lo = rng.gen_range(0..size);
                            Some((lo, rng.gen_range(lo..size)))
                        }
                    })
                    .collect();
                if ranges.iter().all(Option::is_none) {
                    continue;
                }
                let sub = h.sub(&ranges);
                live.push(h.insert(&sub));
                if live.len().is_multiple_of(4) {
                    let values = (0..dims).map(|_| events.gen_range(0..size));
                    h.check_expansion(&Event::new_unchecked(values.collect()));
                }
            }
            narrow += h.peak_narrow;
            recut |= h.table.dirs.iter().any(|dir| dir.runs.len() > 1);
            let s = h.table.stats;
            assert_eq!(s.duplicate + s.covered + s.absorbed + s.founded, s.inserts);
            outcomes.duplicate += s.duplicate;
            outcomes.covered += s.covered;
            outcomes.absorbed += s.absorbed;
            outcomes.founded += s.founded;
            for row in live {
                h.remove(row);
            }
            assert_eq!(h.table.physical_len(), 0);
        }
        assert!(recut, "no stream grew a directory past its first run");
        assert!(narrow > 400, "too few members narrower than their cover");
        let CoveringStats {
            duplicate,
            covered,
            absorbed,
            founded,
            ..
        } = outcomes;
        assert!(
            duplicate.min(covered).min(absorbed).min(founded) > 200,
            "lopsided op mix: {outcomes:?}"
        );
    }

    /// The absorption walk looks at the first `PROBE_CAP` entries in range
    /// and no further: the one group σ covers is absorbed as the 64th and
    /// passed over as the 65th.
    #[test]
    fn absorption_stops_at_the_probe_cap() {
        for (fillers, absorbed) in [(PROBE_CAP as u64 - 1, 1), (PROBE_CAP as u64, 0)] {
            let mut h = Harness::new(&[1000, 100]);
            // In σ's range on x and ahead of the target there, outside
            // it on y.
            for i in 0..fillers {
                h.insert(&h.sub(&[Some((100 + i, 100 + i)), Some((0, 0))]));
            }
            h.insert(&h.sub(&[Some((200, 200)), Some((55, 55))]));
            h.insert(&h.sub(&[Some((100, 300)), Some((50, 60))]));
            assert_eq!(h.table.stats.absorbed, absorbed, "{fillers} fillers");
            assert_eq!(h.table.physical_len() as u64, fillers + 2 - absorbed);
        }
    }

    /// `max_width` is never taken back: once the widest cover is gone the
    /// window is wider than it need be, and still finds every cover.
    #[test]
    fn stale_max_width_stays_an_upper_bound() {
        let mut h = Harness::new(&[1000]);
        let wide = h.insert(&h.sub(&[Some((0, 999))]));
        let a = h.insert(&h.sub(&[Some((600, 700))]));
        assert_eq!(
            h.table.physical_len(),
            1,
            "the full range covers everything"
        );
        h.remove(a);
        h.remove(wide);
        assert_eq!(h.table.physical_len(), 0);
        assert_eq!(h.table.dirs[0].max_width, 999);
        h.insert(&h.sub(&[Some((100, 200))]));
        h.insert(&h.sub(&[Some((120, 130))]));
        h.insert(&h.sub(&[Some((150, 400))]));
        let s = h.table.stats;
        assert_eq!((s.covered, s.founded), (2, 3));
    }
}
