//! Per-node routing state: identity, neighbors, finger table, location
//! cache — and the two routing decisions built on them (greedy next-hop
//! selection and the `m-cast` split of Figure 4).

use cbps_sim::prefetch::prefetch_span;
use cbps_sim::PrefetchStage;

use crate::cache::LocationCache;
use crate::config::OverlayConfig;
use crate::inline::InlineVec;
use crate::key::{Key, KeySpace};
use crate::range::KeyRangeSet;
use crate::ring::Peer;
use crate::route::RouteTable;
use crate::scratch::Bundles;
use crate::split::Boundaries;

/// The Chord routing state of one node.
///
/// Pure data plus deterministic decision functions; all message handling
/// lives in [`crate::node::ChordNode`]. Keeping the decisions here makes
/// them unit-testable without a simulator.
///
/// The per-event working set is laid out struct-of-arrays: the finger
/// table is a liveness bitmap plus parallel key/index arrays, so the
/// next-hop and m-cast scans touch a few dense cache lines of raw `u64`
/// keys instead of striding over `Option<Peer>` records. The tables live
/// in the value itself — fingers of a key space of up to 24 bits, four
/// successors, the cache's first entries — so a routed hop follows no
/// pointer out of it; wider tables spill to the heap.
#[derive(Clone, Debug)]
pub struct RoutingState {
    // --- hot: touched on every routed event ---
    me: Peer,
    pred: Option<Peer>,
    /// Bit `i` set iff finger `i` is known (and is not ourselves).
    finger_live: u64,
    /// Finger target keys (raw key values), valid where the live bit is
    /// set; entry `i` is the node covering `me.key + 2^i`.
    finger_keys: InlineVec<u64, INLINE_FINGERS>,
    /// Simulator indices parallel to `finger_keys`.
    finger_idxs: InlineVec<u32, INLINE_FINGERS>,
    /// Successor list; `succs[0]` is the immediate successor. Empty on a
    /// single-node ring.
    succs: InlineVec<Peer, INLINE_SUCCS>,
    cache: LocationCache,
    // --- cold: configuration ---
    cfg: OverlayConfig,
}

/// Finger entries held in place: one per bit of the key space.
const INLINE_FINGERS: usize = 24;

/// Successors held in place (the paper's list length).
const INLINE_SUCCS: usize = 4;

impl RoutingState {
    /// Fresh state for a node that has not joined a ring yet.
    pub fn new(cfg: OverlayConfig, me: Peer) -> Self {
        let m = cfg.space.bits() as usize;
        assert!(m <= 64, "finger liveness bitmap holds at most 64 entries");
        let (mut finger_keys, mut finger_idxs) = (InlineVec::new(), InlineVec::new());
        for _ in 0..m {
            finger_keys.push(0);
            finger_idxs.push(0);
        }
        RoutingState {
            me,
            pred: None,
            finger_live: 0,
            finger_keys,
            finger_idxs,
            succs: InlineVec::new(),
            cache: LocationCache::new(cfg.cache_capacity),
            cfg,
        }
    }

    /// The overlay configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    /// Finger entry `i` (targets `me.key + 2^i`); `None` when unknown or
    /// pointing at ourselves.
    pub fn finger(&self, i: usize) -> Option<Peer> {
        assert!(i < self.finger_keys.len(), "finger index out of range");
        if self.finger_live & (1u64 << i) == 0 {
            return None;
        }
        Some(Peer {
            idx: self.finger_idxs.as_slice()[i] as usize,
            key: self.cfg.space.key(self.finger_keys.as_slice()[i]),
        })
    }

    /// The finger table, entry by entry (entry `i` targets `me.key + 2^i`).
    pub fn fingers(&self) -> impl Iterator<Item = Option<Peer>> + '_ {
        (0..self.finger_keys.len()).map(|i| self.finger(i))
    }

    /// Number of entries currently in the location cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Overwrites the predecessor.
    pub fn set_predecessor(&mut self, pred: Option<Peer>) {
        self.pred = pred;
    }

    /// Overwrites the successor list (first entry = immediate successor).
    /// Entries equal to this node are dropped; the list is truncated to the
    /// configured length.
    pub fn set_successors(&mut self, succs: Vec<Peer>) {
        self.succs.clear();
        for p in succs {
            if p.key != self.me.key && !self.succs.as_slice().contains(&p) {
                self.succs.push(p);
            }
            if self.succs.len() == self.cfg.succ_list_len {
                break;
            }
        }
    }

    /// Bulk successor install for the stable builder: the sequence must
    /// already be self-free, duplicate-free, clockwise-ordered and at most
    /// the configured length (which ring-adjacency slices are by
    /// construction), so no filtering pass or temporary is needed.
    pub fn set_successor_slice(&mut self, succs: impl IntoIterator<Item = Peer>) {
        self.succs.clear();
        for p in succs {
            debug_assert!(p.key != self.me.key, "successor slice contains self");
            debug_assert!(
                !self.succs.as_slice().contains(&p),
                "duplicate in successor slice"
            );
            debug_assert!(
                self.succs.len() < self.cfg.succ_list_len,
                "successor slice longer than the configured list"
            );
            self.succs.push(p);
        }
    }

    /// Pre-faults lazily allocated routing storage (the location cache's
    /// table) so a first `learn` after warmup does not allocate.
    pub fn warm(&mut self) {
        self.cache.warm();
    }

    /// Sets one finger entry (entries pointing at ourselves are stored as
    /// unknown).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_finger(&mut self, i: usize, peer: Peer) {
        assert!(i < self.finger_keys.len(), "finger index out of range");
        if peer.key == self.me.key {
            self.finger_live &= !(1u64 << i);
        } else {
            self.finger_live |= 1u64 << i;
            self.finger_keys.as_mut_slice()[i] = peer.key.value();
            self.finger_idxs.as_mut_slice()[i] = peer.idx as u32;
        }
    }

    /// Hints the lines a routed message reads at this node (see
    /// [`cbps_sim::prefetch`]). The first `learn` and the routing decision
    /// behind it read every field of this value — identity, predecessor,
    /// finger bitmap, the tables and cache entries held in place, the TTL
    /// in `cfg` — so the *node* stage asks for all of it, one network
    /// delay ahead; the *rows* stage only for what has spilled to the
    /// heap, which the handler would otherwise miss on one table after
    /// the other.
    pub fn prefetch(&self, stage: PrefetchStage) {
        match stage {
            PrefetchStage::Node => prefetch_span(self),
            PrefetchStage::Rows => {
                if !self.finger_keys.is_inline() {
                    prefetch_span(self.finger_keys.as_slice());
                    prefetch_span(self.finger_idxs.as_slice());
                }
                if !self.succs.is_inline() {
                    prefetch_span(self.succs.as_slice());
                }
                self.cache.prefetch_spill();
            }
        }
    }

    /// `true` while the *rows* stage of [`Self::prefetch`] has nothing to
    /// ask for: every table and cache entry lives in this value.
    pub fn is_in_place(&self) -> bool {
        self.finger_keys.is_inline() && self.succs.is_inline() && self.cache.is_inline()
    }

    /// `learn(peer)` twice in one cache probe: a message's first hop names
    /// its source as its sender too.
    pub fn learn_twice(&mut self, peer: Peer) {
        if peer.key != self.me.key {
            self.cache.learn_twice(peer);
        }
    }

    /// Removes every trace of the node at simulator index `idx` (used when
    /// a send fails: the sender knows the address, not necessarily the
    /// key). A node index names one key for the life of a run, so this is
    /// [`Self::forget`] of that node, found by its index alone.
    pub fn forget_idx(&mut self, idx: usize) {
        self.cache.forget_idx(idx);
        self.scrub(|_, at| at == idx);
    }

    /// Removes every trace of a peer believed dead: cache entry, fingers,
    /// successor-list entries, predecessor.
    pub fn forget(&mut self, peer: Peer) {
        self.cache.forget(peer.key);
        self.scrub(|key, idx| key == peer.key.value() && idx == peer.idx);
    }

    /// Drops every finger, successor and predecessor whose raw key and
    /// index `dead` names.
    fn scrub(&mut self, dead: impl Fn(u64, usize) -> bool) {
        let (keys, idxs) = (self.finger_keys.as_slice(), self.finger_idxs.as_slice());
        let mut live = self.finger_live;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            if dead(keys[i], idxs[i] as usize) {
                self.finger_live &= !(1u64 << i);
            }
        }
        let named = |p: &Peer| dead(p.key.value(), p.idx);
        while let Some(at) = self.succs.as_slice().iter().position(named) {
            self.succs.remove(at);
        }
        if self.pred.as_ref().is_some_and(named) {
            self.pred = None;
        }
    }
}

impl RouteTable for RoutingState {
    fn me(&self) -> Peer {
        self.me
    }

    fn space(&self) -> KeySpace {
        self.cfg.space
    }

    fn max_route_hops(&self) -> u32 {
        self.cfg.max_route_hops
    }

    fn predecessor(&self) -> Option<Peer> {
        self.pred
    }

    /// Immediate successor, if any (a single-node ring has none).
    fn successor(&self) -> Option<Peer> {
        self.succs.as_slice().first().copied()
    }

    fn successors(&self) -> &[Peer] {
        self.succs.as_slice()
    }

    /// `true` iff this node covers `key`, i.e. `key ∈ (pred, me]`.
    ///
    /// A node with no known predecessor claims everything (true for a
    /// single-node ring; transiently optimistic while joining).
    fn covers(&self, key: Key) -> bool {
        match self.pred {
            None => true,
            Some(p) => self.cfg.space.in_arc_oc(key, p.key, self.me.key),
        }
    }

    /// Greedy routing decision for `key`: `None` to deliver locally, or the
    /// next hop — the closest node preceding `key` among the finger table,
    /// successor list and location cache, falling back to the successor.
    fn next_hop(&mut self, key: Key) -> Option<Peer> {
        if self.covers(key) {
            return None;
        }
        let succ = self.successor()?;
        let space = self.cfg.space;
        if space.in_arc_oc(key, self.me.key, succ.key) {
            return Some(succ);
        }
        let mut best: Option<Peer> = None;
        let mut best_dist = 0u64;
        // Finger scan over the dense key array: only the chosen entry's
        // index is materialized into a `Peer`.
        let (keys, idxs) = (self.finger_keys.as_slice(), self.finger_idxs.as_slice());
        let mut live = self.finger_live;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            let fk = space.key(keys[i]);
            if space.in_arc_oo(fk, self.me.key, key) {
                let d = space.distance_cw(self.me.key, fk);
                if d > best_dist {
                    best_dist = d;
                    best = Some(Peer {
                        idx: idxs[i] as usize,
                        key: fk,
                    });
                }
            }
        }
        let mut consider = |p: Peer| {
            if space.in_arc_oo(p.key, self.me.key, key) {
                let d = space.distance_cw(self.me.key, p.key);
                if d > best_dist {
                    best_dist = d;
                    best = Some(p);
                }
            }
        };
        for s in self.succs.as_slice() {
            consider(*s);
        }
        if let Some(c) = self.cache.closest_preceding(space, self.me.key, key) {
            consider(c);
        }
        Some(best.unwrap_or(succ))
    }

    /// The `m-cast` split of Figure 4: partitions `targets` into the subset
    /// this node covers (to deliver) and per-next-hop bundles (to forward).
    ///
    /// Boundaries are the node's distinct neighbors taken clockwise:
    /// successor `f_1`, the fingers, and the predecessor as the final
    /// `f_l` (see [`Boundaries`] for the partition). A node without a
    /// successor is alone on its ring and keeps everything.
    fn mcast_split(&self, targets: &KeyRangeSet) -> (KeyRangeSet, Bundles) {
        let space = self.cfg.space;
        let mut cuts = Boundaries::new(space, self.me);
        if let Some(succ) = self.successor() {
            cuts.push(succ);
            // Neighboring fingers mostly repeat one node (all but about
            // log2 n of them): skip the repeats without a push.
            let (keys, idxs) = (self.finger_keys.as_slice(), self.finger_idxs.as_slice());
            let mut last = succ.key.value();
            let mut live = self.finger_live;
            while live != 0 {
                let i = live.trailing_zeros() as usize;
                live &= live - 1;
                if keys[i] != last {
                    last = keys[i];
                    cuts.push(Peer {
                        idx: idxs[i] as usize,
                        key: space.key(last),
                    });
                }
            }
            if let Some(p) = self.pred {
                cuts.push(p);
            }
        }
        cuts.split(targets)
    }

    /// Records that `peer` exists (location cache learning). Learning
    /// ourselves is a no-op.
    fn learn(&mut self, peer: Peer) {
        if peer.key != self.me.key {
            self.cache.learn(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use cbps_rng::Rng;

    use super::*;
    use crate::builder::build_routing_states;
    use crate::range::{KeyRange, INLINE_SEGS};
    use crate::ring::RingView;

    /// Figure 4 read window by window — one `extract_arc_oc` per boundary
    /// arc over a sorted, deduplicated boundary list. The split the
    /// one-sweep [`Boundaries`] replaced, kept as its reference model.
    fn split_by_windows(
        st: &RoutingState,
        targets: &KeyRangeSet,
    ) -> (KeyRangeSet, Vec<(Peer, KeyRangeSet)>) {
        let space = st.space();
        let me = st.me();
        let mut bundles: Vec<(Peer, KeyRangeSet)> = Vec::new();
        let Some(succ) = st.successor() else {
            return (targets.clone(), bundles);
        };
        let mut boundaries = vec![succ];
        boundaries.extend(st.fingers().flatten());
        boundaries.extend(st.predecessor());
        boundaries.retain(|p| p.key != me.key);
        boundaries.sort_by_key(|p| space.distance_cw(me.key, p.key));
        boundaries.dedup_by_key(|p| p.key);
        if boundaries.is_empty() {
            return (targets.clone(), bundles);
        }
        let mut add = |peer: Peer, part: KeyRangeSet| {
            if part.is_empty() {
                return;
            }
            if let Some((_, set)) = bundles.iter_mut().find(|(p, _)| p.idx == peer.idx) {
                set.union_with(&part);
            } else {
                bundles.push((peer, part));
            }
        };
        add(
            boundaries[0],
            targets.extract_arc_oc(space, me.key, boundaries[0].key),
        );
        for w in boundaries.windows(2) {
            add(w[0], targets.extract_arc_oc(space, w[0].key, w[1].key));
        }
        let last = boundaries[boundaries.len() - 1];
        (targets.extract_arc_oc(space, last.key, me.key), bundles)
    }

    /// Target sets aimed at the split's edges: single keys, the full ring,
    /// wrapping ranges, sets holding our own key and boundary keys (and
    /// their neighbors), and sets fragmented past the inline segments.
    fn split_targets(st: &RoutingState, rng: &mut Rng) -> Vec<KeyRangeSet> {
        let space = st.space();
        let any = |rng: &mut Rng| space.key(rng.next_u64());
        let mut edges = vec![st.me().key];
        edges.extend(st.successors().iter().map(|p| p.key));
        edges.extend(st.predecessor().map(|p| p.key));
        edges.extend(st.fingers().flatten().map(|p| p.key));
        let mut out = vec![
            KeyRangeSet::full(space),
            KeyRangeSet::new(),
            KeyRangeSet::of_key(space, any(rng)),
            KeyRangeSet::of_key(space, st.me().key),
        ];
        for _ in 0..6 {
            // Two random ends wrap past the top of the key space half the
            // time; an edge end puts a cut exactly on a boundary.
            let a = any(rng);
            let b = any(rng);
            let e = edges[rng.gen_range(0..edges.len())];
            out.push(KeyRangeSet::of_range(space, KeyRange::new(a, b)));
            out.push(KeyRangeSet::of_range(space, KeyRange::new(a, e)));
            out.push(KeyRangeSet::of_range(
                space,
                KeyRange::new(space.add(e, 1), b),
            ));
        }
        let mut on_edges = KeyRangeSet::new();
        for &e in &edges {
            on_edges.insert_key(space, e);
            if rng.gen_bool(0.5) {
                on_edges.insert_key(space, space.add(e, 1));
            }
            if rng.gen_bool(0.3) {
                on_edges.insert_key(space, space.sub(e, 2));
            }
        }
        out.push(on_edges);
        let mut fragmented = KeyRangeSet::new();
        for _ in 0..3 * INLINE_SEGS {
            let a = any(rng);
            let len = rng.gen_range(0..(space.size() / 64).max(1));
            fragmented.insert_range(space, KeyRange::new(a, space.add(a, len)));
        }
        fragmented.insert_key(space, st.me().key);
        out.push(fragmented);
        out
    }

    /// The converged state and damaged variants of it: no predecessor,
    /// fingers cleared, successor only, no successor, one peer at several
    /// boundaries, and fingers out of clockwise order.
    fn damaged_variants(st: &RoutingState, rng: &mut Rng) -> Vec<(&'static str, RoutingState)> {
        let space = st.space();
        let me = st.me();
        let bits = space.bits() as usize;
        let mut out = vec![("converged", st.clone())];
        let mut v = st.clone();
        v.set_predecessor(None);
        out.push(("no predecessor", v));
        let mut v = st.clone();
        for i in 0..bits {
            v.set_finger(i, me);
        }
        out.push(("fingers cleared", v.clone()));
        v.set_predecessor(None);
        out.push(("successor only", v));
        let mut v = st.clone();
        v.set_successors(Vec::new());
        out.push(("no successor", v));
        if let Some(succ) = st.successor() {
            let mut v = st.clone();
            for i in (0..bits).step_by(2) {
                let key = space.key(rng.next_u64());
                v.set_finger(i, Peer { idx: succ.idx, key });
            }
            out.push(("one peer at several boundaries", v));
        }
        let mut v = st.clone();
        for i in 0..bits {
            let p = Peer {
                idx: rng.gen_range(0usize..8),
                key: space.key(rng.next_u64()),
            };
            v.set_finger(i, p);
        }
        out.push(("fingers out of order", v));
        out
    }

    /// The one-sweep split against the window-by-window reference: the
    /// same local set and the same `(peer, set)` bundle *sequence* (relay
    /// order is send order, and send order feeds event order).
    #[test]
    fn mcast_split_matches_window_by_window_reference() {
        let mut rng = Rng::seed_from_u64(0xf194);
        for bits in [5u32, 13, 40] {
            let space = KeySpace::new(bits);
            let cfg = OverlayConfig::paper_default().with_space(space);
            for n in [1usize, 2, 3, 50, 500] {
                let n = n.min(space.size() as usize);
                let mut keys = std::collections::BTreeSet::new();
                while keys.len() < n {
                    keys.insert(space.key(rng.next_u64()));
                }
                let peers = keys
                    .into_iter()
                    .enumerate()
                    .map(|(idx, key)| Peer { idx, key })
                    .collect();
                let states = build_routing_states(&cfg, &RingView::new(space, peers));
                for _ in 0..n.min(24) {
                    let st = &states[rng.gen_range(0..n)];
                    for (what, st) in damaged_variants(st, &mut rng) {
                        for targets in split_targets(&st, &mut rng) {
                            let (local, bundles) = st.mcast_split(&targets);
                            let (want_local, want_bundles) = split_by_windows(&st, &targets);
                            let ctx = format!(
                                "m={bits} n={n} node {} ({what}), targets {targets}",
                                st.me().key
                            );
                            assert_eq!(local, want_local, "{ctx}: local");
                            assert_eq!(*bundles, want_bundles, "{ctx}: bundles");
                        }
                    }
                }
            }
        }
    }

    /// A hint's only way to break a run is its index arithmetic: both
    /// stages on a node that has not joined (no successor, no predecessor,
    /// no live finger, nothing cached), on converged nodes and on every
    /// damaged variant of them, at each key width and cache bound, with
    /// the cache empty and learned full.
    #[test]
    fn prefetch_takes_every_state_a_node_can_be_in() {
        let mut rng = Rng::seed_from_u64(0x9f37c4);
        for bits in [5u32, 13, 40] {
            let space = KeySpace::new(bits);
            for capacity in [0usize, 1, 256] {
                let cfg = OverlayConfig::paper_default()
                    .with_space(space)
                    .with_cache_capacity(capacity);
                let me = Peer {
                    idx: 0,
                    key: space.key(rng.next_u64()),
                };
                let fresh = RoutingState::new(cfg, me);
                assert!(fresh.successor().is_none() && fresh.predecessor().is_none());
                assert!(fresh.fingers().all(|f| f.is_none()));
                let n = 40.min(space.size() as usize);
                let mut keys = std::collections::BTreeSet::new();
                while keys.len() < n {
                    keys.insert(space.key(rng.next_u64()));
                }
                let peers: Vec<Peer> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(idx, key)| Peer { idx, key })
                    .collect();
                let ring = RingView::new(space, peers.clone());
                let mut states = vec![("fresh", fresh)];
                for st in build_routing_states(&cfg, &ring).iter().take(3) {
                    states.extend(damaged_variants(st, &mut rng));
                }
                for (what, mut st) in states {
                    for stage in [PrefetchStage::Node, PrefetchStage::Rows] {
                        st.prefetch(stage);
                    }
                    for &p in &peers {
                        st.learn(p);
                    }
                    assert!(st.cache_len() <= capacity, "m={bits} {what}");
                    for stage in [PrefetchStage::Node, PrefetchStage::Rows] {
                        st.prefetch(stage);
                    }
                }
            }
        }
    }

    /// What the *rows* stage is left to ask for. Nothing on a converged
    /// node of a key space of up to `INLINE_FINGERS` bits until its cache
    /// has learned more than `INLINE_ENTRIES` peers; a wider key space or
    /// a longer successor list spills its table from the start.
    #[test]
    fn a_converged_node_is_in_place_until_its_cache_spills() {
        use crate::cache::INLINE_ENTRIES;
        let ring_of = |cfg: &OverlayConfig| {
            let space = cfg.space;
            let peers = (0..60)
                .map(|idx| Peer {
                    idx,
                    key: space.key(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1)),
                })
                .collect();
            build_routing_states(cfg, &RingView::new(space, peers))
        };
        for bits in [13, 19, INLINE_FINGERS as u32] {
            let cfg = OverlayConfig::paper_default().with_space(KeySpace::new(bits));
            let mut states = ring_of(&cfg);
            assert!(states.iter().all(RoutingState::is_in_place), "m={bits}");
            let (st, peers) = states.split_first_mut().unwrap();
            for (learned, other) in peers.iter().enumerate() {
                assert_eq!(st.is_in_place(), learned <= INLINE_ENTRIES, "m={bits}");
                st.learn(other.me());
                st.prefetch(PrefetchStage::Rows);
            }
            assert_eq!(st.cache_len(), peers.len());
        }
        let wide = OverlayConfig::paper_default().with_space(KeySpace::new(25));
        assert!(!ring_of(&wide).iter().any(RoutingState::is_in_place));
        let long = OverlayConfig::paper_default().with_succ_list_len(INLINE_SUCCS + 1);
        assert!(!ring_of(&long).iter().any(RoutingState::is_in_place));
    }

    /// Builds converged state for the node at `key` on a ring of the given
    /// node keys.
    fn converged(keys: &[u64], key: u64) -> RoutingState {
        let space = KeySpace::new(5);
        let cfg = OverlayConfig::paper_default()
            .with_space(space)
            .with_cache_capacity(0);
        let peers: Vec<Peer> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Peer {
                idx: i,
                key: space.key(k),
            })
            .collect();
        let ring = RingView::new(space, peers.clone());
        let me = *peers.iter().find(|p| p.key == space.key(key)).unwrap();
        let mut st = RoutingState::new(cfg, me);
        st.set_predecessor(Some(ring.predecessor(me.key)));
        st.set_successors(ring.successors_of(me.key, cfg.succ_list_len));
        for (i, f) in ring.fingers_of(me.key).into_iter().enumerate() {
            st.set_finger(i, f);
        }
        st
    }

    #[test]
    fn covers_own_arc_only() {
        let st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        assert!(st.covers(s.key(8)));
        assert!(st.covers(s.key(2)));
        assert!(!st.covers(s.key(1)));
        assert!(!st.covers(s.key(9)));
    }

    #[test]
    fn next_hop_none_when_covering() {
        let mut st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        assert_eq!(st.next_hop(s.key(5)), None);
    }

    #[test]
    fn next_hop_uses_successor_for_adjacent_arc() {
        let mut st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        let hop = st.next_hop(s.key(12)).unwrap();
        assert_eq!(hop.key, s.key(14));
    }

    #[test]
    fn next_hop_takes_longest_finger_before_target() {
        let mut st = converged(&[1, 8, 14, 20, 27], 1);
        let s = st.space();
        // Routing 26 from node 1: fingers of 1 target 2,3,5,9,17 →
        // successors 8,8,8,14,20. Closest preceding 26 is 20.
        let hop = st.next_hop(s.key(26)).unwrap();
        assert_eq!(hop.key, s.key(20));
    }

    #[test]
    fn next_hop_never_returns_self() {
        for target in 0..32 {
            let mut st = converged(&[1, 8, 14, 20, 27], 14);
            let s = st.space();
            if let Some(hop) = st.next_hop(s.key(target)) {
                assert_ne!(hop.key, st.me().key, "self-hop for target {target}");
            }
        }
    }

    #[test]
    fn finger_accessors_mirror_soa_storage() {
        let st = converged(&[1, 8, 14, 20, 27], 1);
        let s = st.space();
        // Fingers of 1 target 2,3,5,9,17 → successors 8,8,8,14,20.
        let expect = [8u64, 8, 8, 14, 20];
        for (i, f) in st.fingers().enumerate() {
            assert_eq!(f.unwrap().key, s.key(expect[i]), "finger {i}");
            assert_eq!(st.finger(i), f);
        }
        assert_eq!(st.fingers().count(), s.bits() as usize);
    }

    #[test]
    fn cache_entry_shortcuts_routing() {
        let space = KeySpace::new(5);
        let cfg = OverlayConfig::paper_default()
            .with_space(space)
            .with_cache_capacity(8)
            .with_succ_list_len(1);
        let peers: Vec<Peer> = [1u64, 8, 14, 20, 27]
            .iter()
            .enumerate()
            .map(|(i, &k)| Peer {
                idx: i,
                key: space.key(k),
            })
            .collect();
        let ring = RingView::new(space, peers.clone());
        let me = peers[0]; // key 1
        let mut st = RoutingState::new(cfg, me);
        st.set_predecessor(Some(ring.predecessor(me.key)));
        st.set_successors(ring.successors_of(me.key, 1));
        for (i, f) in ring.fingers_of(me.key).into_iter().enumerate() {
            st.set_finger(i, f);
        }
        // Node 1 covers (27, 1]; route toward key 25 (covered by node 27).
        // Without cache knowledge the best hop is finger 20.
        assert_eq!(st.next_hop(space.key(25)).unwrap().key, space.key(20));
        // After learning a peer at 23 the cache supplies a closer hop.
        st.learn(Peer {
            idx: 9,
            key: space.key(23),
        });
        assert_eq!(st.next_hop(space.key(25)).unwrap().key, space.key(23));
        // The cached node is never returned for its own key: arc (1, 23) is
        // open at 23, so routing key 23 still goes through 20.
        assert_eq!(st.next_hop(space.key(23)).unwrap().key, space.key(20));
    }

    #[test]
    fn forget_scrubs_everywhere() {
        let mut st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        let dead = Peer {
            idx: 2,
            key: s.key(14),
        };
        st.forget(dead);
        assert!(!st.successors().contains(&dead));
        assert!(st.fingers().all(|f| f != Some(dead)));
        // Successor list falls back to the next node.
        assert_eq!(st.successor().unwrap().key, s.key(20));
    }

    /// One node in all four places — finger, successor list, predecessor
    /// and cache — beside other peers in each: the scrub by index leaves
    /// exactly what the scrub by peer leaves.
    #[test]
    fn forget_idx_leaves_what_forget_leaves() {
        let mut st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        let dead = Peer {
            idx: 2,
            key: s.key(14),
        };
        let other = Peer {
            idx: 3,
            key: s.key(20),
        };
        st.cache = LocationCache::new(8);
        st.set_predecessor(Some(dead));
        st.set_finger(0, dead);
        st.set_successors(vec![dead, other]);
        for k in [5, 14, 23] {
            st.learn(Peer {
                idx: if k == 14 { 2 } else { 9 + k as usize },
                key: s.key(k),
            });
        }
        assert!(st.fingers().any(|f| f == Some(dead)));
        assert_eq!(st.cache.len(), 3);
        let mut by_peer = st.clone();
        by_peer.forget(dead);
        st.forget_idx(dead.idx);
        assert_eq!(format!("{st:?}"), format!("{by_peer:?}"));
        assert_eq!(st.predecessor(), None);
        assert_eq!(st.successors(), [other]);
        assert!(st.fingers().all(|f| f.is_none_or(|f| f.idx != dead.idx)));
        assert_eq!(st.cache.len(), 2);
    }

    #[test]
    fn mcast_split_partitions_disjointly_and_completely() {
        let st = converged(&[1, 8, 14, 20, 27], 8);
        let s = st.space();
        let targets = KeyRangeSet::full(s);
        let (local, bundles) = st.mcast_split(&targets);
        // Local must be exactly our coverage (1, 8].
        assert_eq!(
            local,
            KeyRangeSet::of_range(s, KeyRange::new(s.key(2), s.key(8)))
        );
        // The union of local + all bundles must be the full ring, disjoint.
        let mut total = local.count();
        let mut union = local.clone();
        for (_, set) in bundles.iter() {
            assert!(!union.intersects(set), "overlapping m-cast bundles");
            union.union_with(set);
            total += set.count();
        }
        assert_eq!(total, s.size());
        assert_eq!(union.count(), s.size());
        // No bundle is addressed to ourselves.
        assert!(bundles.iter().all(|(p, _)| p.key != st.me().key));
    }

    #[test]
    fn mcast_split_single_node_is_all_local() {
        let space = KeySpace::new(5);
        let cfg = OverlayConfig::paper_default().with_space(space);
        let me = Peer {
            idx: 0,
            key: space.key(7),
        };
        let st = RoutingState::new(cfg, me);
        let targets = KeyRangeSet::of_range(space, KeyRange::new(space.key(0), space.key(31)));
        let (local, bundles) = st.mcast_split(&targets);
        assert_eq!(local.count(), 32);
        assert!(bundles.is_empty());
    }

    #[test]
    fn mcast_split_bundles_merge_per_node() {
        // Successor also appears as finger 1 and 2; its bundle must be one
        // merged entry.
        let st = converged(&[1, 8, 14, 20, 27], 1);
        let targets = KeyRangeSet::full(st.space());
        let (_, bundles) = st.mcast_split(&targets);
        let mut idxs: Vec<usize> = bundles.iter().map(|(p, _)| p.idx).collect();
        idxs.sort_unstable();
        let before = idxs.len();
        idxs.dedup();
        assert_eq!(before, idxs.len(), "duplicate per-node bundles");
    }

    #[test]
    fn set_successors_filters_self_and_dups() {
        let mut st = converged(&[1, 8], 1);
        let s = st.space();
        let me = st.me();
        let other = Peer {
            idx: 1,
            key: s.key(8),
        };
        st.set_successors(vec![other, me, other, other]);
        assert_eq!(st.successors(), &[other]);
    }
}
