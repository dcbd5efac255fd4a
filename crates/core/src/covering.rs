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
//! against their own constraints. A representative may be *broader* than
//! every live member (its creator unsubscribed first) — that costs a
//! verification, never a wrong delivery. All per-id bookkeeping
//! (`len`/`peak`/expiry/refresh) stays in the store's logical `meta` map,
//! untouched by grouping.
//!
//! An insert decides in three steps, cheapest first: the shape digest
//! finds an exact duplicate; the engine's
//! [`find_cover`](crate::MatchEngine::find_cover) finds a representative
//! covering σ — exactly, no stored cover is missed — by looking only where
//! a cover can be filed; and the reverse direction — σ covering existing
//! groups — is a bounded best-effort probe over a `(first dimension, lower
//! bound)` ordering. Missing an absorption only costs memory, never
//! correctness.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::engine::{AnyMatchEngine, MatchEngine};
use crate::event::Event;
use crate::store::StoredSub;
use crate::subscription::{IdMap, SubId, Subscription};
use cbps_overlay::InlineVec;

/// Cap on reverse-absorption candidates examined per insert.
const PROBE_CAP: usize = 64;

/// One member of a covering group. The flag records whether the member's
/// shape equals the group's cover, letting matching skip re-verification.
type Member = (SubId, bool);

/// A physical index entry and the logical subscriptions it represents.
#[derive(Clone, Debug)]
struct Group {
    cover: Subscription,
    members: InlineVec<Member, 4>,
}

/// The covering layer: maps logical subscription ids onto shared physical
/// engine entries. Physical ids are minted from a private counter and
/// never leave the store.
#[derive(Clone, Debug)]
pub(crate) struct CoveringTable {
    groups: IdMap<Group>,
    /// Logical id → (physical id, position in the member list). Positions
    /// are fixed up on `swap_remove`, mirroring the counting index's
    /// bucket-position records, so un-covering is O(1).
    member_of: IdMap<(SubId, u32)>,
    /// Exact-duplicate fast path: shape → (physical id, member refcount).
    by_shape: HashMap<Subscription, (SubId, u32)>,
    /// Reverse-absorption probe order: (first constrained dimension of the
    /// cover, its lower bound there, physical id).
    probe: BTreeSet<(u32, u64, SubId)>,
    next_phys: u64,
    scratch: Vec<SubId>,
}

impl CoveringTable {
    pub(crate) fn new() -> Self {
        CoveringTable {
            groups: IdMap::default(),
            member_of: IdMap::default(),
            by_shape: HashMap::new(),
            probe: BTreeSet::new(),
            next_phys: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of physical engine entries (== live groups).
    pub(crate) fn physical_len(&self) -> usize {
        self.groups.len()
    }

    /// Registers a *fresh* logical subscription, inserting a physical
    /// entry into `engine` only when no existing group can represent it.
    pub(crate) fn insert(&mut self, engine: &mut AnyMatchEngine, id: SubId, sub: &Subscription) {
        if let Some(&(phys, _)) = self.by_shape.get(sub) {
            self.join(phys, id, sub);
            return;
        }
        // Covered by an existing representative? Which covering group is
        // picked when several qualify is engine-specific (but
        // deterministic) — group membership never affects covers, the
        // probe order, or delivered sets, so any covering group is equally
        // correct.
        if let Some(phys) = engine.find_cover(sub) {
            self.join(phys, id, sub);
            return;
        }
        // Does σ cover an existing group? Best-effort: probe groups whose
        // cover's first constrained dimension matches σ's and whose lower
        // bound there falls inside σ's range, capped at PROBE_CAP.
        let first = sub
            .first_constrained()
            .expect("subscriptions constrain at least one dimension");
        let c = sub
            .constraint(first)
            .expect("first_constrained is constrained");
        let absorbed = self
            .probe
            .range((first as u32, c.lo(), SubId(0))..=(first as u32, c.hi(), SubId(u64::MAX)))
            .take(PROBE_CAP)
            .map(|&(_, _, phys)| phys)
            .find(|phys| sub.covers(&self.groups[phys].cover));
        if let Some(phys) = absorbed {
            self.widen(engine, phys, sub);
            self.join(phys, id, sub);
            return;
        }
        // New group with σ as its own representative.
        let phys = SubId(self.next_phys);
        self.next_phys += 1;
        engine.insert(phys, sub.clone());
        self.probe.insert((first as u32, c.lo(), phys));
        let mut members = InlineVec::new();
        members.push((id, true));
        self.groups.insert(
            phys,
            Group {
                cover: sub.clone(),
                members,
            },
        );
        self.member_of.insert(id, (phys, 0));
        self.by_shape.insert(sub.clone(), (phys, 1));
    }

    /// Makes room for `additional` more logical subscriptions, so a bulk
    /// build never pays an incremental rehash of a million-entry table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.member_of.reserve(additional);
        self.by_shape.reserve(additional);
    }

    /// Removes a logical subscription; drops the group's physical entry
    /// when its last member leaves.
    pub(crate) fn remove(&mut self, engine: &mut AnyMatchEngine, id: SubId, sub: &Subscription) {
        let (phys, pos) = self
            .member_of
            .remove(&id)
            .expect("every stored id is a member");
        let g = self
            .groups
            .get_mut(&phys)
            .expect("members imply a live group");
        let pos = pos as usize;
        g.members.swap_remove(pos);
        if pos < g.members.len() {
            let moved = g.members.as_slice()[pos].0;
            self.member_of
                .get_mut(&moved)
                .expect("member bookkeeping")
                .1 = pos as u32;
        }
        if let Some(entry) = self.by_shape.get_mut(sub) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.by_shape.remove(sub);
            }
        }
        if g.members.is_empty() {
            let g = self.groups.remove(&phys).expect("fetched above");
            let first = g
                .cover
                .first_constrained()
                .expect("covers are valid shapes");
            let lo = g.cover.constraint(first).expect("constrained").lo();
            self.probe.remove(&(first as u32, lo, phys));
            engine.remove(phys);
        }
    }

    /// Grows the physical-hit scratch to its steady-state bound (every
    /// group matching at once) so [`CoveringTable::matches_into`] never
    /// reallocates afterwards.
    pub(crate) fn warm(&mut self) {
        let need = self.groups.len();
        if self.scratch.capacity() < need {
            self.scratch.reserve(need - self.scratch.len());
        }
    }

    /// Expands the engine's physical hits into the exact logical match
    /// set, re-verifying members narrower than their representative.
    pub(crate) fn matches_into(
        &mut self,
        engine: &mut AnyMatchEngine,
        meta: &IdMap<Arc<StoredSub>>,
        event: &Event,
        out: &mut Vec<SubId>,
    ) {
        let mut hits = std::mem::take(&mut self.scratch);
        engine.matches_into(event, &mut hits);
        out.clear();
        for phys in &hits {
            for &(id, exact) in self.groups[phys].members.as_slice() {
                if exact || meta[&id].sub.matches(event) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        hits.clear();
        self.scratch = hits;
    }

    /// Adds `id` to an existing group.
    fn join(&mut self, phys: SubId, id: SubId, sub: &Subscription) {
        let g = self.groups.get_mut(&phys).expect("joining a live group");
        let exact = *sub == g.cover;
        let pos = g.members.len() as u32;
        g.members.push((id, exact));
        self.member_of.insert(id, (phys, pos));
        match self.by_shape.get_mut(sub) {
            Some(entry) => {
                debug_assert_eq!(entry.0, phys, "one group per shape");
                entry.1 += 1;
            }
            None => {
                self.by_shape.insert(sub.clone(), (phys, 1));
            }
        }
    }

    /// Replaces a group's representative with the broader `cover`.
    fn widen(&mut self, engine: &mut AnyMatchEngine, phys: SubId, cover: &Subscription) {
        let g = self.groups.get_mut(&phys).expect("widening a live group");
        let old_first = g
            .cover
            .first_constrained()
            .expect("covers are valid shapes");
        let old_lo = g.cover.constraint(old_first).expect("constrained").lo();
        self.probe.remove(&(old_first as u32, old_lo, phys));
        // Members exactly matching the old cover are strictly narrower
        // than the new one: they need re-verification from now on.
        for m in g.members.as_mut_slice() {
            m.1 = false;
        }
        engine.remove(phys);
        engine.insert(phys, cover.clone());
        let first = cover.first_constrained().expect("covers are valid shapes");
        self.probe.insert((
            first as u32,
            cover.constraint(first).expect("constrained").lo(),
            phys,
        ));
        g.cover = cover.clone();
    }
}
