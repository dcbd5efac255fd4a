//! Load-adaptive rendezvous: an online split/replication layer over the
//! static ak-mapping.
//!
//! The paper's mappings are **stateless**: Zipf-skewed attributes therefore
//! concentrate subscriptions and publications on a handful of rendezvous
//! keys, and the nodes covering them melt while the rest of the ring idles.
//! [`RendezvousPolicy`] wraps the base [`AkMapping`] with a small online
//! table of *split entries*. Each entry names one hot coverage arc `A =
//! (a, b]` (the arc owned by an overloaded node) and `G` *mirror arcs* —
//! copies of `A` shifted by `j · 2^m/(G+1)` around the ring for `j ∈
//! 1..=G`. While an entry is live:
//!
//! - a subscription whose rendezvous keys intersect `A` is additionally
//!   (and eventually *instead*) homed on the image of that intersection in
//!   **one** deterministically assigned mirror arc (subgroup splitting);
//! - a publication whose keys intersect `A` fans out to the images in
//!   **all** `G` mirror arcs, so it meets every subgroup.
//!
//! Because the assignment is a pure function of the subscription id, a
//! publication's expanded key set always covers every key set any live
//! subscription was stored under — the match-anywhere invariant of
//! ak-mappings (`EK(e) ∩ SK(σ) ≠ ∅`) is preserved and the **delivered
//! sets are byte-identical to the static mapping**, which ci.sh checks on
//! every run.
//!
//! Entries move through a five-phase lifecycle, advanced by the network's
//! control loop one step per control interval (default 10 s, far above the
//! network's worst-case routing delay, so every in-flight message from the
//! previous phase has landed before the next transition):
//!
//! | phase | new subs | publications | stored state |
//! |---|---|---|---|
//! | `Expanding` | base + mirror | base + all mirrors | at base |
//! | `Draining` | base + mirror | base + all mirrors | migrating to mirrors |
//! | `Split` | mirror only | all mirrors only | at mirrors |
//! | `Merging` | base + mirror | base + all mirrors | at mirrors |
//! | `MergeDraining` | base + mirror | base + all mirrors | copying back |
//!
//! The mode knob (`--rendezvous static|adaptive`) defaults to `Static`,
//! which bypasses the table entirely — the static paths stay bit-identical
//! and allocation-free.

use std::sync::RwLock;

use cbps_overlay::{Key, KeyRange, KeyRangeSet, KeySpace};
use cbps_sim::{SimDuration, SimTime};

use crate::event::Event;
use crate::mapping::AkMapping;
use crate::subscription::{SubId, Subscription};

/// Whether the rendezvous layer adapts to load (the `--rendezvous` knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RendezvousMode {
    /// The paper's stateless mapping; never splits. The default — every
    /// recorded baseline runs this mode byte-identically.
    #[default]
    Static,
    /// Online hotspot detection + subgroup splitting. Delivered sets stay
    /// identical to `Static`; only load placement changes.
    Adaptive,
}

impl RendezvousMode {
    /// Parses a command-line name (`static` | `adaptive`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(RendezvousMode::Static),
            "adaptive" => Some(RendezvousMode::Adaptive),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            RendezvousMode::Static => "static",
            RendezvousMode::Adaptive => "adaptive",
        }
    }
}

/// Tuning of the adaptive policy (all defaults deliberately conservative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RendezvousParams {
    /// Number of mirror arcs `G` a hot arc splits into.
    pub groups: u32,
    /// Control-loop period; also the per-phase grace interval. Must stay
    /// well above the network's worst-case routing delay so phase
    /// transitions never race in-flight messages.
    pub interval: SimDuration,
    /// A node is hot when its per-interval work exceeds `split_factor`
    /// times the live-node mean.
    pub split_factor: u64,
    /// ... and exceeds this absolute floor (ignore idle-network noise).
    pub min_split_work: u64,
    /// An entry merges back after this many consecutive quiet intervals
    /// on its mirror arcs.
    pub merge_after_quiet: u32,
    /// Cap on concurrently live split entries (slot bitmask bound: 64).
    pub max_live_splits: usize,
}

impl Default for RendezvousParams {
    fn default() -> Self {
        RendezvousParams {
            groups: 3,
            interval: SimDuration::from_secs(10),
            split_factor: 4,
            min_split_work: 100,
            merge_after_quiet: 3,
            max_live_splits: 8,
        }
    }
}

/// Lifecycle phase of one split entry (see the module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPhase {
    /// Publications already fan out to the mirrors; stored subscriptions
    /// still live at the base arc.
    Expanding,
    /// The migrate sweep has copied stored subscriptions to the mirrors;
    /// base copies linger one more interval for in-flight publications.
    Draining,
    /// Steady split state: the base arc is fully vacated.
    Split,
    /// Merge decided: publications target base + mirrors again.
    Merging,
    /// The copy-back sweep has restored base copies; mirror copies linger
    /// one more interval, after which the entry is dropped.
    MergeDraining,
}

/// One live split: a hot base arc, its mirror geometry and phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitEntry {
    /// Base arc `(start, end]` — the hot node's coverage when split.
    pub start: Key,
    /// Base arc end (the hot node's own key).
    pub end: Key,
    /// Bit index in [`crate::StoredSub::subgroups`]; unique among live
    /// entries.
    pub slot: u8,
    /// Mirror spacing: mirror `j` is the base arc shifted by `j * offset`.
    pub offset: u64,
    /// Number of mirrors `G`.
    pub groups: u32,
    /// Current lifecycle phase.
    pub phase: SplitPhase,
    /// Consecutive quiet control intervals observed (merge trigger).
    pub quiet_steps: u32,
}

impl SplitEntry {
    /// The image of the base arc in mirror `j` (1-based).
    fn mirror_arc(&self, space: KeySpace, j: u32) -> (Key, Key) {
        let d = self.offset * u64::from(j);
        (space.add(self.start, d), space.add(self.end, d))
    }

    /// All arcs of the entry's orbit: base plus every mirror.
    fn orbit(&self, space: KeySpace) -> impl Iterator<Item = (Key, Key)> + '_ {
        (0..=self.groups).map(move |j| self.mirror_arc(space, j))
    }

    /// `true` when any orbit arc of `self` intersects any orbit arc of
    /// `other` (used to keep live entries geometrically independent).
    fn orbit_overlaps(&self, space: KeySpace, other: &SplitEntry) -> bool {
        self.orbit(space)
            .any(|a| other.orbit(space).any(|b| arcs_intersect(space, a, b)))
    }
}

/// `true` when circular arcs `(a.0, a.1]` and `(b.0, b.1]` share a key.
fn arcs_intersect(space: KeySpace, a: (Key, Key), b: (Key, Key)) -> bool {
    space.in_arc_oc(a.1, b.0, b.1) || space.in_arc_oc(b.1, a.0, a.1)
}

/// The set `{k + delta | k ∈ set}` (every range shifted clockwise).
pub fn shift_set(space: KeySpace, set: &KeyRangeSet, delta: u64) -> KeyRangeSet {
    let mut out = KeyRangeSet::new();
    for r in set.iter_ranges(space) {
        out.insert_range(
            space,
            KeyRange::new(space.add(r.start(), delta), space.add(r.end(), delta)),
        );
    }
    out
}

/// The mirror a subscription is assigned to (1-based, in `1..=groups`): a
/// pure function of the id, so every node — and every re-issue of the same
/// subscription — agrees without coordination.
pub fn assign_group(id: SubId, groups: u32) -> u32 {
    // splitmix64 finalizer: decorrelates the group from the id's
    // node/sequence structure.
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % u64::from(groups)) as u32 + 1
}

/// A store sweep the control loop asks rendezvous-side nodes to run at a
/// phase transition (see [`crate::PubSubNode::rendezvous_sweep`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOp {
    /// What the sweep does.
    pub kind: SweepKind,
    /// The entry geometry the sweep operates on (phase as of dispatch).
    pub entry: SplitEntry,
}

/// The four store sweeps of the entry lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    /// `Expanding → Draining`: copy base-arc subscriptions to their
    /// assigned mirrors (runs at nodes covering the base arc).
    Migrate,
    /// `Draining → Split`: purge base copies that are no longer needed
    /// anywhere in the node's coverage.
    PurgeBase,
    /// `Merging → MergeDraining`: copy mirror-homed subscriptions back to
    /// the base arc (runs at nodes covering the mirror arcs).
    CopyBack,
    /// entry drop: purge mirror copies, clear the slot bit on records
    /// that stay resident for other reasons.
    PurgeMirror,
}

/// What one control step decided (sweeps to run + counter deltas).
#[derive(Clone, Debug, Default)]
pub struct ControlOutcome {
    /// Sweeps to execute on the nodes covering each op's arcs.
    pub sweeps: Vec<SweepOp>,
    /// Split entries created this step.
    pub splits: u64,
    /// Entries that began merging this step.
    pub merges: u64,
}

impl ControlOutcome {
    /// `true` when the step changed nothing.
    pub fn is_empty(&self) -> bool {
        self.sweeps.is_empty() && self.splits == 0 && self.merges == 0
    }
}

/// Per-node load sample the control loop feeds the policy: work done in
/// the last interval plus the node's current coverage arc.
#[derive(Clone, Copy, Debug)]
pub struct LoadSample {
    /// Work units (publications processed + matches produced) this node
    /// performed during the last control interval.
    pub window: u64,
    /// Coverage arc start (the predecessor's key).
    pub arc_start: Key,
    /// Coverage arc end (the node's own key).
    pub arc_end: Key,
}

#[derive(Debug, Default)]
struct SplitTable {
    entries: Vec<SplitEntry>,
    /// Bitmask of slot indices currently assigned to live entries.
    used_slots: u64,
    splits: u64,
    merges: u64,
}

/// The dynamic rendezvous layer: mode, tuning and the live split table.
///
/// Shared by every node through [`crate::PubSubConfig`]; nodes only read
/// the table (on the subscribe/publish paths and during sweeps), the
/// network's control loop is the only writer and runs strictly between
/// simulator segments — so reads never block and the table every node
/// sees within one segment is constant.
#[derive(Debug)]
pub struct RendezvousPolicy {
    mode: RendezvousMode,
    params: RendezvousParams,
    table: RwLock<SplitTable>,
}

impl Default for RendezvousPolicy {
    fn default() -> Self {
        RendezvousPolicy::new(RendezvousMode::Static)
    }
}

impl Clone for RendezvousPolicy {
    fn clone(&self) -> Self {
        let table = self.table.read().expect("rendezvous table poisoned");
        RendezvousPolicy {
            mode: self.mode,
            params: self.params,
            table: RwLock::new(SplitTable {
                entries: table.entries.clone(),
                used_slots: table.used_slots,
                splits: table.splits,
                merges: table.merges,
            }),
        }
    }
}

impl RendezvousPolicy {
    /// A fresh policy (empty table) in the given mode with default tuning.
    pub fn new(mode: RendezvousMode) -> Self {
        RendezvousPolicy {
            mode,
            params: RendezvousParams::default(),
            table: RwLock::new(SplitTable::default()),
        }
    }

    /// Replaces the tuning parameters.
    pub fn with_params(mut self, params: RendezvousParams) -> Self {
        self.params = params;
        self
    }

    /// The configured mode.
    pub fn mode(&self) -> RendezvousMode {
        self.mode
    }

    /// The tuning parameters.
    pub fn params(&self) -> &RendezvousParams {
        &self.params
    }

    /// `true` when the policy adapts (and the control loop must run).
    pub fn is_adaptive(&self) -> bool {
        self.mode == RendezvousMode::Adaptive
    }

    /// Totals so far: `(splits, merges)`.
    pub fn counters(&self) -> (u64, u64) {
        let t = self.table.read().expect("rendezvous table poisoned");
        (t.splits, t.merges)
    }

    /// Number of currently live split entries.
    pub fn live_splits(&self) -> usize {
        self.table
            .read()
            .expect("rendezvous table poisoned")
            .entries
            .len()
    }

    // ------------------------------------------------------------------
    // Mapping expansion (the node-side read paths).
    // ------------------------------------------------------------------

    /// `SK(σ)` under the current table, plus the subgroup-slot bitmask the
    /// stored record must carry. Static mode returns the base mapping
    /// untouched (no lock, no extra allocation).
    pub fn sub_targets(
        &self,
        mapping: &AkMapping,
        sub: &Subscription,
        id: SubId,
    ) -> (KeyRangeSet, u64) {
        let sk = mapping.sk(sub);
        if self.mode == RendezvousMode::Static {
            return (sk, 0);
        }
        let space = mapping.key_space();
        let table = self.table.read().expect("rendezvous table poisoned");
        if table.entries.is_empty() {
            return (sk, 0);
        }
        let mut out = sk.clone();
        let mut bits = 0u64;
        for e in &table.entries {
            let portion = sk.extract_arc_oc(space, e.start, e.end);
            if portion.is_empty() {
                continue;
            }
            bits |= 1 << e.slot;
            if e.phase == SplitPhase::Split {
                // Steady split state: the base arc is vacated, so the
                // record homes only on its assigned mirror.
                out = out.extract_arc_oc(space, e.end, e.start);
            }
            let j = assign_group(id, e.groups);
            out.union_with(&shift_set(space, &portion, e.offset * u64::from(j)));
        }
        (out, bits)
    }

    /// `EK(e)` under the current table: every base portion intersecting a
    /// live entry's arc expands to the images in **all** mirrors (so the
    /// publication meets every subgroup), and additionally keeps the base
    /// image except in the steady `Split` phase.
    pub fn pub_targets(&self, mapping: &AkMapping, event: &Event) -> KeyRangeSet {
        let ek = mapping.ek(event);
        if self.mode == RendezvousMode::Static {
            return ek;
        }
        let space = mapping.key_space();
        let table = self.table.read().expect("rendezvous table poisoned");
        if table.entries.is_empty() {
            return ek;
        }
        let mut out = ek.clone();
        for e in &table.entries {
            let portion = ek.extract_arc_oc(space, e.start, e.end);
            if portion.is_empty() {
                continue;
            }
            if e.phase == SplitPhase::Split {
                out = out.extract_arc_oc(space, e.end, e.start);
            }
            for j in 1..=e.groups {
                out.union_with(&shift_set(space, &portion, e.offset * u64::from(j)));
            }
        }
        out
    }

    /// Every key a record of `sub`/`id` may currently be stored under: the
    /// static `SK` plus the assigned image for every live entry, never
    /// dropping the base. Unsubscribes and lease refreshes target this
    /// superset (a removal routed to a key holding no copy is a no-op),
    /// and the purge sweeps use it as their keep test — a record is never
    /// purged from a node whose coverage intersects this set outside the
    /// arc being vacated.
    pub fn resident_targets(
        &self,
        mapping: &AkMapping,
        sub: &Subscription,
        id: SubId,
    ) -> (KeyRangeSet, u64) {
        let sk = mapping.sk(sub);
        if self.mode == RendezvousMode::Static {
            return (sk, 0);
        }
        let space = mapping.key_space();
        let table = self.table.read().expect("rendezvous table poisoned");
        if table.entries.is_empty() {
            return (sk, 0);
        }
        let mut out = sk.clone();
        let mut bits = 0u64;
        for e in &table.entries {
            let portion = sk.extract_arc_oc(space, e.start, e.end);
            if portion.is_empty() {
                continue;
            }
            bits |= 1 << e.slot;
            let j = assign_group(id, e.groups);
            out.union_with(&shift_set(space, &portion, e.offset * u64::from(j)));
        }
        (out, bits)
    }

    // ------------------------------------------------------------------
    // Control loop (the single writer).
    // ------------------------------------------------------------------

    /// One control step: advance every live entry one phase, decide
    /// merges from quiet mirror arcs, detect fresh hotspots and open new
    /// entries. Returns the sweeps the caller must run plus counter
    /// deltas. `loads` carries one sample per **live** node; `_now` is
    /// the control-step time (reserved for future age-based policies).
    ///
    /// Deterministic: decisions depend only on the samples and the table,
    /// so identical runs take identical decisions.
    pub fn control_step(
        &self,
        space: KeySpace,
        _now: SimTime,
        loads: &[LoadSample],
    ) -> ControlOutcome {
        debug_assert!(self.is_adaptive(), "control loop on a static policy");
        let mut table = self.table.write().expect("rendezvous table poisoned");
        let mut out = ControlOutcome::default();

        // 1. Advance in-flight lifecycles (sweeps run after this step
        //    returns, under the already-updated table).
        let mut dropped: Vec<SplitEntry> = Vec::new();
        let mut just_split: u64 = 0;
        table.entries.retain_mut(|e| match e.phase {
            SplitPhase::Expanding => {
                e.phase = SplitPhase::Draining;
                out.sweeps.push(SweepOp {
                    kind: SweepKind::Migrate,
                    entry: *e,
                });
                true
            }
            SplitPhase::Draining => {
                e.phase = SplitPhase::Split;
                just_split |= 1 << e.slot;
                out.sweeps.push(SweepOp {
                    kind: SweepKind::PurgeBase,
                    entry: *e,
                });
                true
            }
            SplitPhase::Merging => {
                e.phase = SplitPhase::MergeDraining;
                out.sweeps.push(SweepOp {
                    kind: SweepKind::CopyBack,
                    entry: *e,
                });
                true
            }
            SplitPhase::MergeDraining => {
                dropped.push(*e);
                false
            }
            SplitPhase::Split => true,
        });
        for e in dropped {
            table.used_slots &= !(1 << e.slot);
            out.sweeps.push(SweepOp {
                kind: SweepKind::PurgeMirror,
                entry: e,
            });
        }

        // 2. Merge decision: a steady split whose mirror arcs saw little
        //    work for several consecutive intervals folds back. Entries
        //    that reached Split only this step sit the decision out: their
        //    PurgeBase sweep has not run yet, and the load window they
        //    would be judged on predates the split.
        let quiet_bound = self.params.min_split_work;
        let merge_after = self.params.merge_after_quiet;
        let mut merged = 0u64;
        for e in table.entries.iter_mut() {
            if e.phase != SplitPhase::Split || just_split & (1 << e.slot) != 0 {
                continue;
            }
            let mirror_work: u64 = loads
                .iter()
                .filter(|l| {
                    (1..=e.groups).any(|j| {
                        arcs_intersect(space, (l.arc_start, l.arc_end), e.mirror_arc(space, j))
                    })
                })
                .map(|l| l.window)
                .sum();
            if mirror_work < quiet_bound {
                e.quiet_steps += 1;
            } else {
                e.quiet_steps = 0;
            }
            if e.quiet_steps >= merge_after {
                e.phase = SplitPhase::Merging;
                e.quiet_steps = 0;
                merged += 1;
            }
        }
        table.merges += merged;
        out.merges += merged;

        // 3. Split decision: nodes far above the mean of the *other*
        //    nodes (the hot node itself would inflate a global mean) open
        //    a new entry for their coverage arc, hottest first.
        if loads.len() < 2 {
            return out;
        }
        let total: u64 = loads.iter().map(|l| l.window).sum();
        let n = loads.len() as u64;
        let mut hot: Vec<&LoadSample> = loads
            .iter()
            .filter(|l| {
                l.window >= self.params.min_split_work
                    && l.window.saturating_mul(n - 1)
                        >= self.params.split_factor.saturating_mul(total - l.window)
            })
            .collect();
        hot.sort_by(|a, b| b.window.cmp(&a.window).then(a.arc_end.cmp(&b.arc_end)));
        let offset = space.size() / (u64::from(self.params.groups) + 1);
        for l in hot {
            if table.entries.len() >= self.params.max_live_splits {
                break;
            }
            let width = space.distance_cw(l.arc_start, l.arc_end);
            // Reject degenerate or too-wide arcs: the orbit arcs must be
            // pairwise disjoint, which needs width < mirror spacing.
            if width == 0 || width >= offset {
                continue;
            }
            let Some(slot) = (0..64).find(|s| table.used_slots & (1 << s) == 0) else {
                break;
            };
            let candidate = SplitEntry {
                start: l.arc_start,
                end: l.arc_end,
                slot,
                offset,
                groups: self.params.groups,
                phase: SplitPhase::Expanding,
                quiet_steps: 0,
            };
            if table
                .entries
                .iter()
                .any(|e| e.orbit_overlaps(space, &candidate))
            {
                continue;
            }
            table.used_slots |= 1 << slot;
            table.entries.push(candidate);
            table.splits += 1;
            out.splits += 1;
        }
        out
    }

    /// The arcs whose covering nodes must run `op` (base arc for the base
    /// sweeps, all mirror arcs for the mirror sweeps).
    pub fn sweep_targets(&self, space: KeySpace, op: &SweepOp) -> KeyRangeSet {
        let mut set = KeyRangeSet::new();
        match op.kind {
            SweepKind::Migrate | SweepKind::PurgeBase => {
                set.insert_range(
                    space,
                    KeyRange::new(space.add(op.entry.start, 1), op.entry.end),
                );
            }
            SweepKind::CopyBack | SweepKind::PurgeMirror => {
                for j in 1..=op.entry.groups {
                    let (a, b) = op.entry.mirror_arc(space, j);
                    set.insert_range(space, KeyRange::new(space.add(a, 1), b));
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingKind;
    use crate::space::EventSpace;
    use crate::subscription::Subscription;

    fn mapping() -> AkMapping {
        AkMapping::new(
            MappingKind::SelectiveAttribute,
            &EventSpace::paper_default(),
            KeySpace::new(13),
        )
    }

    fn adaptive_with_entry(phase: SplitPhase, space: KeySpace) -> RendezvousPolicy {
        let policy = RendezvousPolicy::new(RendezvousMode::Adaptive);
        {
            let mut t = policy.table.write().unwrap();
            t.entries.push(SplitEntry {
                start: space.key(100),
                end: space.key(160),
                slot: 0,
                offset: space.size() / 4,
                groups: 3,
                phase,
                quiet_steps: 0,
            });
            t.used_slots = 1;
        }
        policy
    }

    fn sub_in(space: &EventSpace, lo: u64, hi: u64) -> Subscription {
        Subscription::builder(space)
            .range("a0", lo, hi)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn mode_parse_roundtrip() {
        for mode in [RendezvousMode::Static, RendezvousMode::Adaptive] {
            assert_eq!(RendezvousMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(RendezvousMode::parse("dynamic"), None);
    }

    #[test]
    fn static_mode_is_transparent() {
        let m = mapping();
        let space = EventSpace::paper_default();
        let policy = RendezvousPolicy::new(RendezvousMode::Static);
        let sub = sub_in(&space, 0, 5_000);
        let (sk, bits) = policy.sub_targets(&m, &sub, SubId(7));
        assert_eq!(sk, m.sk(&sub));
        assert_eq!(bits, 0);
        let event = Event::new(&space, vec![100, 2, 3, 4]).unwrap();
        assert_eq!(policy.pub_targets(&m, &event), m.ek(&event));
    }

    #[test]
    fn assign_group_in_range_and_deterministic() {
        for raw in [0u64, 1, 77, u64::MAX] {
            let id = SubId(raw);
            let g = assign_group(id, 3);
            assert!((1..=3).contains(&g));
            assert_eq!(g, assign_group(id, 3));
        }
        // All groups are reachable.
        let seen: std::collections::HashSet<u32> =
            (0..64).map(|i| assign_group(SubId(i), 3)).collect();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn shift_preserves_count() {
        let space = KeySpace::new(13);
        let mut set = KeyRangeSet::new();
        set.insert_range(space, KeyRange::new(space.key(8100), space.key(20)));
        set.insert_range(space, KeyRange::new(space.key(500), space.key(600)));
        let shifted = shift_set(space, &set, 1000);
        assert_eq!(shifted.count(), set.count());
        assert!(shifted.contains(space.key(1500)));
        assert!(shifted.contains(space.key(8100 + 1000 - 8192 + 8192) /* wraps */));
    }

    /// The invariant that makes delivered sets provably unchanged: in every
    /// phase, a publication's expanded key set intersects a subscription's
    /// expanded key set whenever the static sets intersect.
    #[test]
    fn match_anywhere_invariant_every_phase() {
        let m = mapping();
        let es = EventSpace::paper_default();
        for phase in [
            SplitPhase::Expanding,
            SplitPhase::Draining,
            SplitPhase::Split,
            SplitPhase::Merging,
            SplitPhase::MergeDraining,
        ] {
            let policy = adaptive_with_entry(phase, m.key_space());
            let mut rng = cbps_rng::Rng::seed_from_u64(42);
            for i in 0..200 {
                let lo = rng.gen_range(0u64..900_000);
                let sub = sub_in(&es, lo, lo + 2_000);
                let id = SubId(i);
                let (sk, _) = policy.sub_targets(&m, &sub, id);
                let v = rng.gen_range(0u64..=1_000_000);
                let event = Event::new(&es, vec![v, 1, 2, 3]).unwrap();
                let ek = policy.pub_targets(&m, &event);
                let static_match = m.ek(&event).intersects(&m.sk(&sub));
                assert_eq!(
                    ek.intersects(&sk),
                    static_match,
                    "phase {phase:?}: expanded match must equal static match"
                );
                // Unsub/purge superset: resident targets cover the
                // subscription's current homes.
                let (resident, _) = policy.resident_targets(&m, &sub, id);
                for r in sk.iter_ranges(m.key_space()) {
                    assert!(
                        resident.contains(r.start()) && resident.contains(r.end()),
                        "resident targets must cover every current home"
                    );
                }
            }
        }
    }

    #[test]
    fn control_step_splits_hot_node_and_merges_when_quiet() {
        let space = KeySpace::new(13);
        let policy = RendezvousPolicy::new(RendezvousMode::Adaptive);
        let hot = LoadSample {
            window: 10_000,
            arc_start: space.key(100),
            arc_end: space.key(160),
        };
        let cool = |k: u64| LoadSample {
            window: 10,
            arc_start: space.key(k),
            arc_end: space.key(k + 60),
        };
        let loads = vec![hot, cool(3000), cool(5000), cool(7000)];
        let now = SimTime::ZERO;
        let out = policy.control_step(space, now, &loads);
        assert_eq!(out.splits, 1);
        assert!(out.sweeps.is_empty(), "new entries sweep on later steps");
        assert_eq!(policy.live_splits(), 1);

        // Next step: Expanding -> Draining emits the migrate sweep.
        let out = policy.control_step(space, now, &loads);
        assert_eq!(out.sweeps.len(), 1);
        assert_eq!(out.sweeps[0].kind, SweepKind::Migrate);
        // ... but no second split for the same (still hot) arc.
        assert_eq!(out.splits, 0, "orbit overlap guard blocks re-splitting");

        // Draining -> Split.
        let out = policy.control_step(space, now, &loads);
        assert_eq!(out.sweeps[0].kind, SweepKind::PurgeBase);

        // Quiet mirrors for merge_after_quiet steps trigger the merge.
        let quiet = vec![cool(3000), cool(5000), cool(7000)];
        let mut merged = false;
        for _ in 0..RendezvousParams::default().merge_after_quiet {
            merged = policy.control_step(space, now, &quiet).merges == 1;
        }
        assert!(merged, "quiet mirrors must fold the split back");
        // Merging -> MergeDraining (copy back), then drop (purge mirror).
        let out = policy.control_step(space, now, &quiet);
        assert_eq!(out.sweeps[0].kind, SweepKind::CopyBack);
        let out = policy.control_step(space, now, &quiet);
        assert_eq!(out.sweeps[0].kind, SweepKind::PurgeMirror);
        assert_eq!(policy.live_splits(), 0);
        assert_eq!(policy.counters(), (1, 1));
    }

    #[test]
    fn control_step_rejects_wide_and_overlapping_arcs() {
        let space = KeySpace::new(13);
        let policy = RendezvousPolicy::new(RendezvousMode::Adaptive);
        // Arc wider than the mirror spacing (2048 for G=3): rejected.
        let wide = LoadSample {
            window: 10_000,
            arc_start: space.key(0),
            arc_end: space.key(4000),
        };
        let out = policy.control_step(space, SimTime::ZERO, &[wide]);
        assert_eq!(out.splits, 0);
        assert_eq!(policy.live_splits(), 0);
    }

    #[test]
    fn clone_carries_table() {
        let space = KeySpace::new(13);
        let policy = adaptive_with_entry(SplitPhase::Split, space);
        let copy = policy.clone();
        assert_eq!(copy.live_splits(), 1);
        assert!(copy.is_adaptive());
    }
}
