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
//! **One slot space.** A group and its engine entry go by the same number,
//! the group's slot: the engine is handed it on insert and names it on a
//! hit, and the cover lives once, in the engine's entry.
//!
//! An insert decides in three steps, cheapest first: is the shape already
//! stored — then it joins that shape's group; the *cover directory* finds
//! the oldest representative covering σ — exactly, no stored cover is
//! missed; and the reverse direction — σ covering existing groups — is a
//! bounded best-effort walk of the same directory. Missing an absorption
//! only costs memory, never correctness. No probe asks the matching engine
//! anything but a cover by its slot, so which group a subscription joins
//! does not depend on the engine.
//!
//! **The cover directory** files every group once, under its cover's
//! *first constrained dimension* `d`, by the cover's range there, sorted
//! by `(lo, phys)`. A cover C of σ encloses σ on every dimension C
//! constrains — its own first one in particular — so C is filed under a
//! dimension σ constrains with `lo ≤ σ.lo` and `hi ≥ σ.hi`; a group σ
//! covers, if its cover shares σ's first dimension, has `σ.lo ≤ lo` and
//! `hi ≤ σ.hi`; and a group whose cover *is* σ is filed under σ's own
//! bounds. All three questions, and the place a new group is filed at,
//! are one neighbourhood of one sorted array — the entries around `σ.lo`
//! — which an insert locates once ([`Directory::seek`]) and walks both
//! ways from; a pointer to a cover is followed only when the bounds on
//! file allow it.
//!
//! **Stored shapes.** A shape that is its group's cover is found by that
//! walk, and the group counts the members that have it
//! ([`Group::exact`]). Only the other stored shapes — members narrower
//! than their cover — are kept in a hash map. A cover outlives the
//! subscription it came from, so "σ is some group's cover" does not say σ
//! is stored: the count does.

use std::collections::HashMap;

use crate::engine::{AnyMatchEngine, MatchEngine};
use crate::event::Event;
use crate::store::{MatchHit, Row};
use crate::subscription::Subscription;
use cbps_overlay::InlineVec;
use cbps_sim::prefetch::{prefetch_at, prefetch_span, prefetch_tail};

/// Cap on reverse-absorption candidates examined per insert: the first
/// `PROBE_CAP` entries whose lower bound lies in σ's range, passed or not.
/// The walk is best-effort by design; the cap keeps a broad σ arriving at
/// a crowded store from reading the whole directory to save one entry.
const PROBE_CAP: usize = 64;

/// Entries per run a directory dimension aims for: once it averages more,
/// it re-files itself into four times as many runs.
const RUN_LEN: usize = 32;

/// The logical subscriptions one physical index entry represents. The
/// entry itself — the group's cover — is the engine's, filed under the
/// group's slot. A vacant slot holds no members.
#[derive(Clone, Debug, Default)]
struct Group {
    /// Mint sequence number: groups order by age. Together with the slot
    /// (`seq << 32 | slot`) it is the group's `phys`, the key the
    /// directory files it under.
    seq: u32,
    /// How many members have the cover's own shape (their bounds are
    /// [`EXACT`]): while there are any, that shape is stored.
    exact: u32,
    /// Each member's row in the store's record table, and the slot of
    /// [`Narrow::ranges`] holding its bounds — [`EXACT`] when its shape
    /// equals the cover (matching then skips re-verification).
    members: InlineVec<(u32, u32), 4>,
}

/// In place of a slab slot: the member's shape is its group's cover.
const EXACT: u32 = u32::MAX;

/// What the table keeps of the members narrower than their cover.
#[derive(Clone, Debug, Default)]
struct Narrow {
    /// Their bounds, `dims` `(lo, hi)` pairs per slot (see [`range_on`]):
    /// re-verifying a member reads one short run of this array and nothing
    /// of the member's record.
    ranges: Vec<(u64, u64)>,
    /// Freed slots, recycled before the array grows.
    free: Vec<u32>,
    /// Their shapes — the stored shapes that are *not* their group's
    /// cover: shape → (group slot, members that have it). Shapes come from
    /// subscribers, so this map keeps the default hasher.
    by_shape: HashMap<Subscription, (u32, u32)>,
}

impl Narrow {
    /// Stores `sub`'s bounds; `slots` counts the slots the slab has grown
    /// to ([`CoveringStats::bounds_slots`]).
    fn store(&mut self, sub: &Subscription, slots: &mut u64) -> u32 {
        let dims = sub.dims();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.ranges.resize(self.ranges.len() + dims, (0, 0));
            *slots += 1;
            (*slots - 1) as u32
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

fn slot_of(phys: u64) -> u32 {
    phys as u32
}

/// The cover of the live group in `slot`: the engine's entry there.
fn cover(engine: &AnyMatchEngine, slot: u32) -> &Subscription {
    engine.get(slot).expect("a live group has a cover")
}

/// A group as the directory files it: its cover's range on the cover's
/// first constrained dimension `d`, and on dimension `d + 1`. Shapes that
/// both constrain `d` can only cover one another if their ranges on
/// `d + 1` nest too, which settles most candidates the range on `d` lets
/// through without reading the candidate's cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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

/// One dimension of the [`Directory`]: the groups whose cover constrains
/// this dimension first, in `(lo, phys)` order, cut into runs by lower
/// bound so that filing shifts one short run.
#[derive(Clone, Copy, Debug, Default)]
struct DimHead {
    /// The dimension's runs are `runs[first..first + count]`. Run `i` of
    /// them holds the entries with `lo >> shift == i`; the last one also
    /// holds everything above. No runs until something is filed.
    first: u32,
    count: u32,
    shift: u32,
    len: u32,
    /// The widest `hi − lo` ever filed here. It only grows — a removal
    /// leaves it an upper bound — and bounds how far below σ's lower
    /// bound a cover of σ can start.
    max_width: u64,
}

/// A place in one dimension of the directory: before entry `at` of run
/// `run`.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    run: usize,
    at: usize,
}

/// The cover directory (see the module docs). The dimensions' heads sit in
/// the table itself and every dimension's runs in one array: from the
/// table, a probe is two dependent loads away from the first entry it
/// compares.
#[derive(Clone, Debug, Default)]
struct Directory {
    /// Empty until the first insert (most stores of a large deployment
    /// never see one).
    heads: InlineVec<DimHead, 4>,
    runs: Vec<Vec<Filed>>,
}

impl Directory {
    fn run_of(head: &DimHead, lo: u64) -> usize {
        let i = ((lo >> head.shift) as usize).min(head.count as usize - 1);
        head.first as usize + i
    }

    /// The run a group with cover `sub` is filed in, once its dimension
    /// has any.
    fn run_for(&self, sub: &Subscription) -> Option<usize> {
        let (d, at) = filed(sub, 0);
        let head = self.heads.as_slice().get(d).filter(|h| h.count > 0)?;
        Some(Self::run_of(head, at.lo))
    }

    /// Where an entry with lower bound `lo` goes in dimension `d`: in the
    /// run that holds that bound, before the first entry that has it or a
    /// larger one.
    fn seek(&self, d: usize, lo: u64) -> Cursor {
        let head = &self.heads.as_slice()[d];
        if head.count == 0 {
            let run = head.first as usize;
            return Cursor { run, at: 0 };
        }
        let run = Self::run_of(head, lo);
        let at = self.runs[run].partition_point(|e| e.lo < lo);
        Cursor { run, at }
    }

    /// Steps `cur` back one entry of dimension `d` and returns it; `None`
    /// before the dimension's first.
    fn prev(&self, d: usize, cur: &mut Cursor) -> Option<Filed> {
        let first = self.heads.as_slice()[d].first as usize;
        while cur.at == 0 {
            if cur.run == first {
                return None;
            }
            cur.run -= 1;
            cur.at = self.runs[cur.run].len();
        }
        cur.at -= 1;
        Some(self.runs[cur.run][cur.at])
    }

    /// The entry of dimension `d` at `cur`, stepping `cur` forward by one;
    /// `None` past the dimension's last.
    fn next(&self, d: usize, cur: &mut Cursor) -> Option<Filed> {
        let head = &self.heads.as_slice()[d];
        let end = (head.first + head.count) as usize;
        while cur.run < end {
            if let Some(&e) = self.runs[cur.run].get(cur.at) {
                cur.at += 1;
                return Some(e);
            }
            *cur = Cursor {
                run: cur.run + 1,
                at: 0,
            };
        }
        None
    }

    /// Files `entry` under dimension `d`; `at` is where
    /// [`Directory::seek`] put its lower bound.
    fn file(&mut self, d: usize, mut at: Cursor, entry: Filed) {
        let head = self.heads.as_slice()[d];
        if head.len as usize >= RUN_LEN * head.count as usize {
            self.recut(d);
            at = self.seek(d, entry.lo);
        }
        let head = &mut self.heads.as_mut_slice()[d];
        head.max_width = head.max_width.max(entry.hi - entry.lo);
        head.len += 1;
        // Equal lower bounds order by `phys`; the newcomer's is the largest
        // of them unless the mint has wrapped.
        let run = &mut self.runs[at.run];
        let key = (entry.lo, entry.phys);
        let older = run[at.at..].iter().take_while(|e| (e.lo, e.phys) < key);
        let at = at.at + older.count();
        run.insert(at, entry);
    }

    fn unfile(&mut self, d: usize, Filed { lo, phys, .. }: Filed) {
        let head = &mut self.heads.as_mut_slice()[d];
        head.len -= 1;
        let run = &mut self.runs[Self::run_of(head, lo)];
        let at = run.partition_point(|e| (e.lo, e.phys) < (lo, phys));
        debug_assert_eq!(run[at].phys, phys, "every live group is filed");
        run.remove(at);
    }

    /// Re-files dimension `d` into four times as many runs (one, to begin
    /// with), cut so that the largest lower bound on file lands in the
    /// last one. The other dimensions' runs move along as they are.
    fn recut(&mut self, d: usize) {
        let mut old = std::mem::take(&mut self.runs).into_iter();
        for (dim, head) in self.heads.as_mut_slice().iter_mut().enumerate() {
            let mine = old.by_ref().take(head.count as usize);
            head.first = self.runs.len() as u32;
            if dim != d {
                self.runs.extend(mine);
                continue;
            }
            let mine: Vec<Vec<Filed>> = mine.collect();
            head.count = (head.count * 4).max(1);
            let top = mine.iter().rev().find_map(|run| run.last());
            let bits = u64::BITS - top.map_or(0, |e| e.lo).leading_zeros();
            head.shift = bits.saturating_sub(head.count.trailing_zeros());
            let end = self.runs.len() + head.count as usize;
            self.runs.resize_with(end, Vec::new);
            for e in mine.into_iter().flatten() {
                self.runs[Self::run_of(head, e.lo)].push(e);
            }
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
    /// Directory entries the probes compared in place.
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

/// What the directory holds for a subscription σ looking for a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cover {
    /// This slot's cover is σ's shape and has members of that shape: σ is
    /// a duplicate of theirs.
    Duplicate(u32),
    /// The oldest group whose cover covers σ, by `phys`; `true` when that
    /// cover is σ's own shape (left behind by members since gone).
    Oldest(u64, bool),
    /// No cover on file covers σ.
    Miss,
}

/// The covering layer: maps logical subscriptions onto shared physical
/// engine entries, filed under the slots of its groups.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoveringTable {
    /// Group slab; freed slots are recycled.
    groups: Vec<Group>,
    free: Vec<u32>,
    dir: Directory,
    /// Absent until a member narrower than its cover joins: a store of
    /// unrelated shapes never pays for it.
    narrow: Option<Box<Narrow>>,
    next_seq: u32,
    pub(crate) stats: CoveringStats,
}

impl CoveringTable {
    /// Number of physical engine entries (== live groups).
    pub(crate) fn physical_len(&self) -> usize {
        self.groups.len() - self.free.len()
    }

    fn phys(&self, slot: u32) -> u64 {
        u64::from(self.groups[slot as usize].seq) << 32 | u64::from(slot)
    }

    /// Hints the lines an insert of `sub` reads and writes first: the
    /// header of the directory run its lower bound falls in, and the tail
    /// of the group slab.
    pub(crate) fn prefetch_insert(&self, sub: &Subscription) {
        prefetch_tail(&self.groups);
        if let Some(run) = self.dir.run_for(sub) {
            prefetch_at(&self.dir.runs, run);
        }
    }

    /// The second round, once that header is in: the run's entries.
    pub(crate) fn prefetch_run(&self, sub: &Subscription) {
        if let Some(run) = self.dir.run_for(sub) {
            prefetch_span(&self.dir.runs[run][..]);
        }
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
        if self.dir.heads.is_empty() {
            (0..sub.dims()).for_each(|_| self.dir.heads.push(DimHead::default()));
        }
        // Hashing a shape costs more than the probe it feeds: not for a
        // map with nothing in it.
        let shapes = self.narrow.as_mut().map(|n| &mut n.by_shape);
        let shared = shapes.filter(|m| !m.is_empty());
        let (slot, exact) = if let Some(held) = shared.and_then(|m| m.get_mut(sub)) {
            self.stats.duplicate += 1;
            held.1 += 1;
            (held.0, false)
        } else {
            let (first, s) = filed(sub, 0);
            let at = self.dir.seek(first, s.lo);
            match self.covered_by(engine, sub, first, at) {
                Cover::Duplicate(slot) => {
                    self.stats.duplicate += 1;
                    (slot, true)
                }
                Cover::Oldest(phys, exact) => {
                    self.stats.covered += 1;
                    if !exact {
                        let narrow = self.narrow.get_or_insert_default();
                        narrow.by_shape.insert(sub.clone(), (slot_of(phys), 1));
                    }
                    (slot_of(phys), exact)
                }
                Cover::Miss => match self.absorbable(engine, sub, first, at, s) {
                    Some(phys) => {
                        self.stats.absorbed += 1;
                        self.widen(engine, phys, sub);
                        (slot_of(phys), true)
                    }
                    None => {
                        self.stats.founded += 1;
                        (self.found(engine, sub, first, at, s), true)
                    }
                },
            }
        };
        let g = &mut self.groups[slot as usize];
        let bounds = if exact {
            g.exact += 1;
            EXACT
        } else {
            let narrow = self.narrow.get_or_insert_default();
            narrow.store(sub, &mut self.stats.bounds_slots)
        };
        g.members.push((row, bounds));
        (slot, g.members.len() as u32 - 1)
    }

    /// Whom `sub` can join as it is: the group of its own shape, or else
    /// the oldest group whose cover covers it. Exact: the directory
    /// argument in the module docs leaves a cover one place to be per
    /// dimension `sub` constrains, and all of those are read. `at` is
    /// `sub`'s place in the directory of its `first` constrained dimension.
    fn covered_by(
        &mut self,
        engine: &AnyMatchEngine,
        sub: &Subscription,
        first: usize,
        at: Cursor,
    ) -> Cover {
        let Self {
            dir, groups, stats, ..
        } = self;
        let mut best: Option<u64> = None;
        let mut twin: Option<u64> = None;
        for (d, c) in sub.constraints().iter().enumerate() {
            let Some(c) = c else { continue };
            let head = dir.heads.as_slice()[d];
            let (lo, hi) = (c.lo(), c.hi());
            // A cover starts at or below `lo` and, being no wider than the
            // widest ever filed here, not below `from`.
            let from = hi.saturating_sub(head.max_width);
            if head.len == 0 || from > lo {
                continue;
            }
            let next = range_on(sub, d + 1);
            let at = if d == first { at } else { dir.seek(d, lo) };
            let mut below = at;
            while let Some(e) = dir.prev(d, &mut below).filter(|e| e.lo >= from) {
                stats.entries_scanned += 1;
                if e.hi >= hi && encloses(e.next, next) && best.is_none_or(|b| e.phys < b) {
                    stats.records_dereferenced += 1;
                    if cover(engine, slot_of(e.phys)).covers(sub) {
                        best = Some(e.phys);
                    }
                }
            }
            let mut level = at;
            while let Some(e) = dir.next(d, &mut level).filter(|e| e.lo == lo) {
                stats.entries_scanned += 1;
                // Filed as `sub` itself would be: its own shape, perhaps.
                let alike = d == first && e.hi == hi && e.next == next;
                if alike || e.hi >= hi && encloses(e.next, next) && best.is_none_or(|b| e.phys < b)
                {
                    stats.records_dereferenced += 1;
                    let c = cover(engine, slot_of(e.phys));
                    if alike && c == sub {
                        if groups[slot_of(e.phys) as usize].exact > 0 {
                            return Cover::Duplicate(slot_of(e.phys));
                        }
                        twin = Some(e.phys);
                    }
                    if c.covers(sub) {
                        best = Some(best.map_or(e.phys, |b| b.min(e.phys)));
                    }
                }
            }
        }
        best.map_or(Cover::Miss, |phys| Cover::Oldest(phys, twin == best))
    }

    /// A group `sub` covers, if one shows among the first [`PROBE_CAP`]
    /// entries of `sub`'s first dimension whose lower bound lies in
    /// `sub`'s range: the walk goes up from `at`, where `sub` — filed as
    /// `s` — would go.
    fn absorbable(
        &mut self,
        engine: &AnyMatchEngine,
        sub: &Subscription,
        first: usize,
        at: Cursor,
        s: Filed,
    ) -> Option<u64> {
        let mut cur = at;
        for _ in 0..PROBE_CAP {
            let e = self.dir.next(first, &mut cur).filter(|e| e.lo <= s.hi)?;
            self.stats.entries_scanned += 1;
            if e.hi <= s.hi && encloses(s.next, e.next) {
                self.stats.records_dereferenced += 1;
                if sub.covers(cover(engine, slot_of(e.phys))) {
                    return Some(e.phys);
                }
            }
        }
        None
    }

    /// Makes room for `additional` more logical subscriptions, so a bulk
    /// build never pays an incremental rehash of a million-entry table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let narrow = self.narrow.get_or_insert_default();
        narrow.by_shape.reserve(additional);
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
        let g = &mut self.groups[slot as usize];
        let (_, bounds) = g.members.swap_remove(pos as usize);
        if bounds == EXACT {
            g.exact -= 1;
        } else {
            let narrow = self.narrow.as_mut().expect("a slot implies the slab");
            narrow.free.push(bounds);
            let held = narrow.by_shape.get_mut(sub);
            let held = held.expect("the shape of a member narrower than its cover is on the map");
            held.1 -= 1;
            if held.1 == 0 {
                narrow.by_shape.remove(sub);
            }
        }
        if let Some(&(moved, _)) = g.members.as_slice().get(pos as usize) {
            let moved = rows[moved as usize].as_mut();
            moved.expect("members are live rows").member.1 = pos;
        }
        if g.members.is_empty() {
            let (d, entry) = filed(cover(engine, slot), self.phys(slot));
            self.dir.unfile(d, entry);
            engine.remove(slot);
            self.free.push(slot);
        }
    }

    /// Expands the engine's physical `hits` — group slots — into the exact
    /// logical match set (ascending id, written to the empty `out`),
    /// re-verifying members narrower than their representative against the
    /// slab.
    pub(crate) fn expand_into(
        &mut self,
        hits: &[u32],
        rows: &[Option<Row>],
        event: &Event,
        out: &mut Vec<MatchHit>,
    ) {
        let slab = self.narrow.as_deref();
        for &slot in hits {
            let members = self.groups[slot as usize].members.as_slice();
            debug_assert!(!members.is_empty(), "engine hits name live groups");
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

    /// Founds a group with `cover` as its own representative, filed as
    /// `entry` (but for the `phys` it is given here) at `at` under the
    /// cover's `first` constrained dimension.
    fn found(
        &mut self,
        engine: &mut AnyMatchEngine,
        cover: &Subscription,
        first: usize,
        at: Cursor,
        entry: Filed,
    ) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.groups.push(Group::default());
            (self.groups.len() - 1) as u32
        });
        // A store that founds 2^32 groups starts over: "oldest" then
        // prefers the wrong group now and then, nothing else changes
        // (slots keep live groups distinct).
        self.groups[slot as usize].seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        engine.insert(slot, cover.clone());
        let phys = self.phys(slot);
        self.dir.file(first, at, Filed { phys, ..entry });
        slot
    }

    /// Replaces a group's representative with the broader `cover`.
    fn widen(&mut self, engine: &mut AnyMatchEngine, phys: u64, cover: &Subscription) {
        let slot = slot_of(phys);
        let old = engine.remove(slot).expect("a live group has a cover");
        let (d, entry) = filed(&old, phys);
        self.dir.unfile(d, entry);
        // Members exactly matching the old cover are strictly narrower
        // than the new one: they need re-verification from now on,
        // against the bounds that were the cover's, and their shape is no
        // longer a cover the directory could find them by.
        let g = &mut self.groups[slot as usize];
        if g.exact > 0 {
            let narrow = self.narrow.get_or_insert_default();
            for m in g.members.as_mut_slice() {
                if m.1 == EXACT {
                    m.1 = narrow.store(&old, &mut self.stats.bounds_slots);
                }
            }
            narrow.by_shape.insert(old, (slot, g.exact));
            g.exact = 0;
        }
        engine.insert(slot, cover.clone());
        let (d, entry) = filed(cover, phys);
        let at = self.dir.seek(d, entry.lo);
        self.dir.file(d, at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{AttributeDef, EventSpace};
    use crate::store::StoredSub;
    use crate::subscription::{Constraint, SubId};
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
        /// The live groups: `(phys, cover)`.
        fn live<'a>(
            &'a self,
            engine: &'a AnyMatchEngine,
        ) -> impl Iterator<Item = (u64, &'a Subscription)> {
            let slots = 0..self.groups.len() as u32;
            slots.filter_map(|slot| Some((self.phys(slot), engine.get(slot)?)))
        }

        fn covered_by_scan(&self, engine: &AnyMatchEngine, sub: &Subscription) -> Cover {
            let twin = self.live(engine).find(|&(_, c)| c == sub).map(|(p, _)| p);
            if let Some(p) = twin.filter(|&p| self.groups[slot_of(p) as usize].exact > 0) {
                return Cover::Duplicate(slot_of(p));
            }
            let covers = self.live(engine).filter(|(_, c)| c.covers(sub));
            let oldest = covers.map(|(p, _)| p).min();
            oldest.map_or(Cover::Miss, |p| Cover::Oldest(p, twin == oldest))
        }

        fn absorbable_scan(&self, engine: &AnyMatchEngine, sub: &Subscription) -> Option<u64> {
            let (d, lo, hi) = first_range(sub);
            let mut in_range: Vec<(u64, u64)> = self
                .live(engine)
                .filter_map(|(phys, c)| {
                    let (gd, glo, _) = first_range(c);
                    (gd == d && lo <= glo && glo <= hi).then_some((glo, phys))
                })
                .collect();
            in_range.sort_unstable();
            in_range.truncate(PROBE_CAP);
            let hit = in_range
                .iter()
                .find(|&&(_, phys)| sub.covers(cover(engine, slot_of(phys))));
            hit.map(|&(_, phys)| phys)
        }

        /// Every live group is filed exactly once, where and as its cover
        /// says; a dimension's runs are sorted and hold the lower bounds
        /// they are cut for; `max_width` bounds every filed width; and the
        /// cursor steps visit a dimension's entries in order, both ways.
        fn check_directory(&self, engine: &AnyMatchEngine) {
            let dir = &self.dir;
            let mut on_file = 0;
            let mut runs_seen = 0;
            for (d, head) in dir.heads.as_slice().iter().enumerate() {
                let runs = head.first as usize..(head.first + head.count) as usize;
                assert_eq!(runs.start, runs_seen, "dimension after dimension");
                runs_seen = runs.end;
                let mut sorted: Vec<Filed> = Vec::new();
                for r in runs.clone() {
                    for e in &dir.runs[r] {
                        assert_eq!(Directory::run_of(head, e.lo), r);
                        assert!(e.hi - e.lo <= head.max_width);
                        assert_eq!(self.phys(slot_of(e.phys)), e.phys);
                        let c = cover(engine, slot_of(e.phys));
                        assert_eq!(filed(c, e.phys), (d, *e));
                        sorted.push(*e);
                    }
                }
                assert!(sorted
                    .windows(2)
                    .all(|w| (w[0].lo, w[0].phys) < (w[1].lo, w[1].phys)));
                assert_eq!(head.len as usize, sorted.len());
                on_file += sorted.len();
                let mut cur = Cursor {
                    run: runs.start,
                    at: 0,
                };
                let forward: Vec<Filed> = std::iter::from_fn(|| dir.next(d, &mut cur)).collect();
                assert_eq!(forward, sorted);
                let mut back: Vec<Filed> = std::iter::from_fn(|| dir.prev(d, &mut cur)).collect();
                back.reverse();
                assert_eq!(back, sorted);
            }
            assert_eq!(runs_seen, dir.runs.len());
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
        /// Inserts that joined the group whose cover is their own shape,
        /// left behind by members since gone — and inserts that found such
        /// a group and joined an older cover instead, as the rule says.
        revived: usize,
        passed_over: usize,
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
                revived: 0,
                passed_over: 0,
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
            if !self.table.dir.heads.is_empty() {
                let (first, s) = filed(sub, 0);
                let at = self.table.dir.seek(first, s.lo);
                assert_eq!(
                    self.table.covered_by(&self.engine, sub, first, at),
                    self.table.covered_by_scan(&self.engine, sub),
                    "covered-by of {sub}"
                );
                assert_eq!(
                    self.table.absorbable(&self.engine, sub, first, at, s),
                    self.table.absorbable_scan(&self.engine, sub),
                    "absorbable by {sub}"
                );
            }
            // The decision, by the rule and with no table in between: the
            // group of a stored subscription of the same shape, else the
            // oldest cover, else the first group in reach that `sub`
            // covers, else a group of its own.
            let stored = self.rows.iter().flatten().find(|r| r.rec.sub == *sub);
            let oldest = match self.table.covered_by_scan(&self.engine, sub) {
                Cover::Oldest(phys, twin) => Some((phys, twin)),
                _ => None,
            };
            let absorbed = self.table.absorbable_scan(&self.engine, sub);
            let mut outcome = CoveringStats::default();
            let joins = if let Some(twin) = stored {
                outcome.duplicate = 1;
                Some(twin.member.0)
            } else if let Some((phys, twin)) = oldest {
                outcome.covered = 1;
                self.revived += usize::from(twin);
                let left_behind = self.table.live(&self.engine).any(|(_, c)| c == sub);
                self.passed_over += usize::from(left_behind && !twin);
                Some(slot_of(phys))
            } else if let Some(phys) = absorbed {
                outcome.absorbed = 1;
                Some(slot_of(phys))
            } else {
                outcome.founded = 1;
                None
            };
            let before = (self.table.stats, self.table.physical_len());
            let row = self.rows.len() as u32;
            let member = self.table.insert(&mut self.engine, row, sub);
            let after = self.table.stats;
            outcome.duplicate += before.0.duplicate;
            outcome.covered += before.0.covered;
            outcome.absorbed += before.0.absorbed;
            outcome.founded += before.0.founded;
            let decided = (
                after.duplicate,
                after.covered,
                after.absorbed,
                after.founded,
            );
            let expect = (
                outcome.duplicate,
                outcome.covered,
                outcome.absorbed,
                outcome.founded,
            );
            assert_eq!(decided, expect, "outcome for {sub}");
            match joins {
                Some(slot) => assert_eq!(member.0, slot, "group of {sub}"),
                None => assert_eq!(self.table.physical_len(), before.1 + 1),
            }
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

        /// The shape map (empty while the table has none).
        fn shapes(&self) -> HashMap<Subscription, (u32, u32)> {
            let narrow = self.table.narrow.as_deref();
            narrow.map_or_else(HashMap::new, |n| n.by_shape.clone())
        }

        /// Removes the subscription in `row`; returns its shape.
        fn remove(&mut self, row: u32) -> Subscription {
            let Row { rec, member, .. } = self.rows[row as usize].take().expect("live row");
            self.table
                .remove(&mut self.engine, &mut self.rows, member, &rec.sub);
            self.check();
            rec.sub.clone()
        }

        /// Directory invariants, plus: every live row is where its group's
        /// member list says, the engine holds one entry per group, a group
        /// counts its members of the cover's own shape, the shape map holds
        /// exactly the other members' shapes — each under one group, with
        /// its head count — and the slab holds the own bounds of exactly
        /// those members: each in a slot of its own, every other slot on
        /// the free list, and never more slots than such members at their
        /// peak.
        fn check(&mut self) {
            self.table.check_directory(&self.engine);
            assert_eq!(self.engine.len(), self.table.physical_len());
            let dims = self.space.dims();
            let empty = Narrow::default();
            let slab = self.table.narrow.as_deref().unwrap_or(&empty);
            let mut held: Vec<u32> = Vec::new();
            let mut exact = vec![0u32; self.table.groups.len()];
            let mut narrow: HashMap<Subscription, (u32, u32)> = HashMap::new();
            for (r, row) in self.rows.iter().enumerate() {
                let Some(row) = row else { continue };
                let g = &self.table.groups[row.member.0 as usize];
                let c = cover(&self.engine, row.member.0);
                let (member, bounds) = g.members.as_slice()[row.member.1 as usize];
                assert_eq!(member as usize, r);
                assert_eq!(bounds == EXACT, row.rec.sub == *c);
                assert!(c.covers(&row.rec.sub));
                if bounds == EXACT {
                    exact[row.member.0 as usize] += 1;
                } else {
                    let own: Vec<(u64, u64)> =
                        (0..dims).map(|d| range_on(&row.rec.sub, d)).collect();
                    assert_eq!(slab.ranges[bounds as usize * dims..][..dims], own[..]);
                    held.push(bounds);
                    let shape = narrow.entry(row.rec.sub.clone());
                    let shape = shape.or_insert((row.member.0, 0));
                    assert_eq!(shape.0, row.member.0, "one shape, one group");
                    shape.1 += 1;
                }
            }
            let counted = self.table.groups.iter().map(|g| g.exact);
            assert_eq!(counted.collect::<Vec<_>>(), exact);
            assert_eq!(slab.by_shape, narrow);
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
        let (mut revived, mut passed_over) = (0, 0);
        let mut outcomes = CoveringStats::default();
        for case in 0..40 {
            let dims = 1 + case % 5;
            let size = [12, 40, 300][case % 3];
            let mut h = Harness::new(&vec![size; dims]);
            let mut live: Vec<u32> = Vec::new();
            let mut gone: Vec<Subscription> = Vec::new();
            for _ in 0..400 {
                if !live.is_empty() && rng.gen_bool(0.3) {
                    let k = rng.gen_range(0..live.len() as u64) as usize;
                    gone.push(h.remove(live.swap_remove(k)));
                    continue;
                }
                // A shape that was stored and left: its group may still be
                // there, under that cover or a wider one, or an older
                // group may have been widened over it since.
                if !gone.is_empty() && rng.gen_bool(0.2) {
                    let k = rng.gen_range(0..gone.len() as u64) as usize;
                    live.push(h.insert(&gone.swap_remove(k)));
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
            revived += h.revived;
            passed_over += h.passed_over;
            recut |= h.table.dir.heads.as_slice().iter().any(|h| h.count > 1);
            let s = h.table.stats;
            assert_eq!(s.duplicate + s.covered + s.absorbed + s.founded, s.inserts);
            outcomes.duplicate += s.duplicate;
            outcomes.covered += s.covered;
            outcomes.absorbed += s.absorbed;
            outcomes.founded += s.founded;
            for row in live {
                let _ = h.remove(row);
            }
            assert_eq!(h.table.physical_len(), 0);
        }
        assert!(recut, "no stream grew a directory past its first run");
        assert!(narrow > 400, "too few members narrower than their cover");
        assert!(
            revived > 20 && passed_over > 5,
            "covers left behind by their shape: {revived} joined, {passed_over} passed over"
        );
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

    /// What a stored copy writes, by size: a founder's group and directory
    /// entry, every copy's row (the engine's entry has its own ceiling, in
    /// `index.rs`). A field added to one of them is a tenth of `install`'s
    /// heap three PRs later; it shows here, with the number.
    #[test]
    fn records_stay_under_their_size_ceilings() {
        use std::mem::size_of;
        let sizes = [
            ("Group", size_of::<Group>(), 48),
            ("Filed", size_of::<Filed>(), 40),
            ("Option<Row>", size_of::<Option<Row>>(), 40),
            ("CoveringTable", size_of::<CoveringTable>(), 328),
        ];
        for (what, bytes, ceiling) in sizes {
            assert!(
                bytes <= ceiling,
                "{what} grew to {bytes} B (ceiling {ceiling})"
            );
        }
    }

    /// "Some group's cover is σ" does not make σ a stored shape: a group
    /// keeps its founder's cover after the founder has left, and an older
    /// group widened since may by then be the oldest cover of σ. A second
    /// σ then joins the older group, as it did when every stored shape was
    /// on the map — and the left-behind group dies with its last member.
    #[test]
    fn a_cover_left_behind_is_not_a_stored_shape() {
        let mut h = Harness::new(&[1000]);
        let old = h.insert(&h.sub(&[Some((100, 200))]));
        let sigma = h.sub(&[Some((150, 300))]);
        let founder = h.insert(&sigma);
        let tenant = h.insert(&h.sub(&[Some((250, 260))]));
        assert_eq!(h.rows[tenant as usize].as_ref().unwrap().member.0, 1);
        // The older group takes a cover that covers σ as well.
        let wide = h.insert(&h.sub(&[Some((50, 500))]));
        assert_eq!(h.rows[wide as usize].as_ref().unwrap().member.0, 0);
        assert_eq!((h.table.stats.absorbed, h.table.physical_len()), (1, 2));
        // While σ is stored, a second one is its duplicate, in σ's group.
        let twin = h.insert(&sigma);
        assert_eq!(h.rows[twin as usize].as_ref().unwrap().member.0, 1);
        assert_eq!(h.table.stats.duplicate, 1);
        let _ = (h.remove(founder), h.remove(twin));
        assert_eq!(h.table.groups[1].exact, 0);
        assert_eq!(cover(&h.engine, 1), &sigma);
        // Now it is not: the oldest cover takes it, and that is group 0.
        let again = h.insert(&sigma);
        assert_eq!(h.rows[again as usize].as_ref().unwrap().member.0, 0);
        assert_eq!((h.table.stats.duplicate, h.table.stats.covered), (1, 2));
        assert_eq!((h.revived, h.passed_over), (0, 1));
        let _ = h.remove(tenant);
        assert_eq!(h.table.physical_len(), 1);
        // With the older group gone first, the left-behind cover is the
        // oldest there is, and σ is a member of its exact shape again.
        let mut h = Harness::new(&[1000]);
        let founder = h.insert(&sigma);
        let _tenant = h.insert(&h.sub(&[Some((250, 260))]));
        let _ = h.remove(founder);
        let again = h.insert(&sigma);
        assert_eq!(h.rows[again as usize].as_ref().unwrap().member, (0, 1));
        assert_eq!((h.table.groups[0].exact, h.revived), (1, 1));
        assert!(h.shapes().keys().all(|shape| *shape != sigma));
        let _ = old;
    }

    /// Widening a group takes the cover away from the members that had its
    /// shape: from then on they are found through the shape map, which
    /// must learn of them then — with their head count.
    #[test]
    fn widening_moves_the_demoted_shape_onto_the_map() {
        let mut h = Harness::new(&[1000, 50]);
        let narrow = h.sub(&[Some((400, 450)), Some((7, 7))]);
        let rows = [h.insert(&narrow), h.insert(&narrow)];
        assert_eq!((h.table.groups[0].exact, h.shapes().len()), (2, 0));
        h.insert(&h.sub(&[Some((300, 600)), None]));
        assert_eq!(h.table.stats.absorbed, 1);
        assert_eq!(h.shapes().get(&narrow), Some(&(0, 2)));
        assert_eq!(h.table.groups[0].exact, 1);
        // A third of the shape is a duplicate by the map, not by the walk.
        let third = h.insert(&narrow);
        assert_eq!(h.table.stats.duplicate, 2);
        assert_eq!(h.shapes().get(&narrow), Some(&(0, 3)));
        for row in [rows[0], rows[1], third] {
            let _ = h.remove(row);
        }
        assert!(h.shapes().is_empty());
        // Gone from the map, and no cover: a fourth is merely covered.
        h.insert(&narrow);
        assert_eq!((h.table.stats.duplicate, h.table.stats.covered), (2, 1));
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
        assert_eq!(h.table.dir.heads.as_slice()[0].max_width, 999);
        h.insert(&h.sub(&[Some((100, 200))]));
        h.insert(&h.sub(&[Some((120, 130))]));
        h.insert(&h.sub(&[Some((150, 400))]));
        let s = h.table.stats;
        assert_eq!((s.covered, s.founded), (2, 3));
    }
}
