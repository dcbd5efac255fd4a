//! Per-node Pastry routing state: leaf set + prefix routing table, and the
//! routing / multicast-split decisions built on them.

use cbps_overlay::{Boundaries, Bundles, Key, KeyRangeSet, KeySpace, Peer, RingView};
use cbps_sim::prefetch::prefetch_span;
use cbps_sim::PrefetchStage;

/// Configuration of a Pastry overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PastryConfig {
    /// The `m`-bit identifier space (shared with the pub/sub mappings).
    pub space: KeySpace,
    /// Leaf-set entries per side (clockwise and counter-clockwise).
    pub leaf_len: usize,
    /// Routed messages are dropped after this many hops (cycle backstop).
    pub max_route_hops: u32,
}

impl PastryConfig {
    /// The evaluation default: the paper's `2^13` key space, 4 leaves per
    /// side.
    pub fn paper_default() -> Self {
        PastryConfig {
            space: KeySpace::new(13),
            leaf_len: 4,
            max_route_hops: 64,
        }
    }

    /// Replaces the key space.
    pub fn with_space(mut self, space: KeySpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the per-side leaf-set length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn with_leaf_len(mut self, len: usize) -> Self {
        assert!(len > 0, "leaf set needs at least one entry per side");
        self.leaf_len = len;
        self
    }
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig::paper_default()
    }
}

/// Length of the common most-significant-bit prefix of two keys in an
/// `m`-bit space (`m` when equal).
pub fn common_prefix_len(space: KeySpace, a: Key, b: Key) -> u32 {
    let x = a.value() ^ b.value();
    if x == 0 {
        return space.bits();
    }
    let highest = 63 - x.leading_zeros();
    space.bits() - 1 - highest
}

/// The Pastry routing state of one node.
///
/// Routing is by bit-prefix (base `2^1` digits): row `r` of the routing
/// table holds a node sharing exactly `r` leading bits with us and owning
/// the opposite bit at position `r`. The leaf set holds the nearest ring
/// neighbors on both sides. Coverage follows the successor convention
/// (`key ∈ (pred, me]`) so the pub/sub mapping semantics are identical
/// across overlays.
#[derive(Clone, Debug)]
pub struct PastryState {
    cfg: PastryConfig,
    me: Peer,
    /// Nearest clockwise neighbors, closest first.
    leaves_cw: Vec<Peer>,
    /// Nearest counter-clockwise neighbors, closest first.
    leaves_ccw: Vec<Peer>,
    /// `table[r]` = a node sharing exactly `r` leading bits with `me`.
    table: Vec<Option<Peer>>,
}

impl PastryState {
    /// Builds converged state for `me` from the global ring view.
    pub fn converged(cfg: PastryConfig, me: Peer, ring: &RingView) -> Self {
        let space = cfg.space;
        let mut leaves_cw = Vec::with_capacity(cfg.leaf_len);
        let mut cur = me.key;
        for _ in 0..cfg.leaf_len.min(ring.len().saturating_sub(1)) {
            let next = ring.next_node(cur);
            if next.key == me.key {
                break;
            }
            leaves_cw.push(next);
            cur = next.key;
        }
        let mut leaves_ccw = Vec::with_capacity(cfg.leaf_len);
        let mut cur = me.key;
        for _ in 0..cfg.leaf_len.min(ring.len().saturating_sub(1)) {
            let prev = ring.predecessor(cur);
            if prev.key == me.key || leaves_ccw.contains(&prev) {
                break;
            }
            leaves_ccw.push(prev);
            cur = prev.key;
        }
        let m = space.bits();
        let mut table = Vec::with_capacity(m as usize);
        for r in 0..m {
            // The subtree sharing our first r bits but differing at bit r
            // is one contiguous key interval; pick its first node, if the
            // subtree is inhabited.
            let width = m - r - 1; // bits below the differing bit
            let flip = me.key.value() ^ (1u64 << width);
            let lo = (flip >> width) << width;
            let hi = lo | ((1u64 << width) - 1);
            let candidate = ring.successor(space.key(lo));
            let inhabited = candidate.key.value() >= lo && candidate.key.value() <= hi;
            table.push(if inhabited && candidate.key != me.key {
                Some(candidate)
            } else {
                None
            });
        }
        PastryState {
            cfg,
            me,
            leaves_cw,
            leaves_ccw,
            table,
        }
    }

    /// This node's identity.
    pub fn me(&self) -> Peer {
        self.me
    }

    /// The key space.
    pub fn space(&self) -> KeySpace {
        self.cfg.space
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.cfg
    }

    /// Immediate ring successor (first clockwise leaf).
    pub fn successor(&self) -> Option<Peer> {
        self.leaves_cw.first().copied()
    }

    /// Immediate ring predecessor (first counter-clockwise leaf).
    pub fn predecessor(&self) -> Option<Peer> {
        self.leaves_ccw.first().copied()
    }

    /// The clockwise leaf set (for replica placement).
    pub fn successors(&self) -> &[Peer] {
        &self.leaves_cw
    }

    /// The routing table (row `r` shares exactly `r` leading bits).
    pub fn table(&self) -> &[Option<Peer>] {
        &self.table
    }

    /// `true` iff this node covers `key` (successor convention).
    pub fn covers(&self, key: Key) -> bool {
        match self.predecessor() {
            None => true,
            Some(p) => self.cfg.space.in_arc_oc(key, p.key, self.me.key),
        }
    }

    /// Hints the lines a routed message reads here (see
    /// [`cbps_sim::prefetch`]): this value, then the leaf sets and the
    /// routing table it points to.
    pub fn prefetch(&self, stage: PrefetchStage) {
        match stage {
            PrefetchStage::Node => prefetch_span(self),
            PrefetchStage::Rows => {
                prefetch_span(&self.leaves_cw[..]);
                prefetch_span(&self.leaves_ccw[..]);
                prefetch_span(&self.table[..]);
            }
        }
    }

    /// Every peer this node knows.
    fn known(&self) -> impl Iterator<Item = Peer> + '_ {
        self.leaves_cw
            .iter()
            .chain(self.leaves_ccw.iter())
            .copied()
            .chain(self.table.iter().flatten().copied())
    }

    /// Pastry's routing decision: `None` to deliver locally; otherwise
    /// prefer the routing-table entry matching one more bit of `key`,
    /// falling back to the known node closest-preceding `key` (Chord
    /// style, which guarantees progress and termination).
    pub fn next_hop(&self, key: Key) -> Option<Peer> {
        if self.covers(key) {
            return None;
        }
        let space = self.cfg.space;
        let succ = self.successor()?;
        if space.in_arc_oc(key, self.me.key, succ.key) {
            return Some(succ);
        }
        // Prefix step: the row of our first differing bit with the key
        // holds a node agreeing with the key on that bit — one bit of
        // progress per hop.
        let r = common_prefix_len(space, self.me.key, key);
        if r < space.bits() {
            if let Some(peer) = self.table[r as usize] {
                if common_prefix_len(space, peer.key, key) > r {
                    return Some(peer);
                }
            }
        }
        // Rare case: the subtree is empty or its entry does not help —
        // fall back to the closest known node preceding the key.
        let mut best: Option<Peer> = None;
        let mut best_dist = 0;
        for p in self.known() {
            if space.in_arc_oo(p.key, self.me.key, key) {
                let d = space.distance_cw(self.me.key, p.key);
                if d > best_dist {
                    best_dist = d;
                    best = Some(p);
                }
            }
        }
        Some(best.unwrap_or(succ))
    }

    /// One-to-many split, reusing the clockwise-arc partition argument of
    /// the paper's Figure 4 with the leaf set and routing table as the
    /// boundary nodes: local = our arc; each remaining arc is relayed via
    /// the boundary node preceding it. Exactly-once and termination hold
    /// for the same reasons as on Chord.
    pub fn mcast_split(&self, targets: &KeyRangeSet) -> (KeyRangeSet, Bundles) {
        let mut cuts = Boundaries::new(self.cfg.space, self.me);
        if self.successor().is_some() {
            for p in self.known() {
                cuts.push(p);
            }
        }
        cuts.split(targets)
    }
}

impl cbps_overlay::RouteTable for PastryState {
    fn me(&self) -> Peer {
        PastryState::me(self)
    }
    fn space(&self) -> KeySpace {
        PastryState::space(self)
    }
    fn max_route_hops(&self) -> u32 {
        self.config().max_route_hops
    }
    fn predecessor(&self) -> Option<Peer> {
        PastryState::predecessor(self)
    }
    fn successor(&self) -> Option<Peer> {
        PastryState::successor(self)
    }
    fn successors(&self) -> &[Peer] {
        PastryState::successors(self)
    }
    fn covers(&self, key: Key) -> bool {
        PastryState::covers(self, key)
    }
    fn next_hop(&mut self, key: Key) -> Option<Peer> {
        PastryState::next_hop(self, key)
    }
    fn mcast_split(&self, targets: &KeyRangeSet) -> (KeyRangeSet, Bundles) {
        PastryState::mcast_split(self, targets)
    }
    // Pastry's routing table is computed at convergence; no opportunistic
    // learning, so `learn` keeps the default no-op.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(keys: &[u64], space: KeySpace) -> RingView {
        let peers = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Peer {
                idx: i,
                key: space.key(k),
            })
            .collect();
        RingView::new(space, peers)
    }

    /// Both stages on a node alone on its ring (no leaf on either side,
    /// every table row empty), on a pair and on a populated ring, at each
    /// key width.
    #[test]
    fn prefetch_takes_empty_and_full_tables() {
        for bits in [5u32, 13, 40] {
            let s = KeySpace::new(bits);
            let cfg = PastryConfig::paper_default().with_space(s);
            for keys in [&[7u64][..], &[3, 20], &[1, 4, 9, 13, 18, 22, 27, 30]] {
                let ring = ring_of(keys, s);
                for &k in keys {
                    let me = ring.successor(s.key(k));
                    let st = PastryState::converged(cfg, me, &ring);
                    assert_eq!(st.successor().is_none(), keys.len() == 1);
                    st.prefetch(PrefetchStage::Node);
                    st.prefetch(PrefetchStage::Rows);
                }
            }
        }
    }

    #[test]
    fn common_prefix_lengths() {
        let s = KeySpace::new(8);
        assert_eq!(
            common_prefix_len(s, s.key(0b1010_0000), s.key(0b1010_0000)),
            8
        );
        assert_eq!(
            common_prefix_len(s, s.key(0b1010_0000), s.key(0b1010_0001)),
            7
        );
        assert_eq!(
            common_prefix_len(s, s.key(0b1010_0000), s.key(0b0010_0000)),
            0
        );
        assert_eq!(
            common_prefix_len(s, s.key(0b1011_0000), s.key(0b1010_0000)),
            3
        );
    }

    #[test]
    fn converged_leaf_sets() {
        let s = KeySpace::new(8);
        let ring = ring_of(&[10, 50, 100, 150, 200, 250], s);
        let me = Peer {
            idx: 2,
            key: s.key(100),
        };
        let st = PastryState::converged(PastryConfig::paper_default().with_space(s), me, &ring);
        let cw: Vec<u64> = st.successors().iter().map(|p| p.key.value()).collect();
        assert_eq!(cw, vec![150, 200, 250, 10]);
        assert_eq!(st.predecessor().unwrap().key, s.key(50));
        assert!(st.covers(s.key(75)));
        assert!(!st.covers(s.key(150)));
    }

    #[test]
    fn routing_table_points_into_opposite_subtrees() {
        let s = KeySpace::new(8);
        let ring = ring_of(&[0b0001_0000, 0b0100_0000, 0b1000_0000, 0b1100_0000], s);
        let me = Peer {
            idx: 0,
            key: s.key(0b0001_0000),
        };
        let st = PastryState::converged(PastryConfig::paper_default().with_space(s), me, &ring);
        // Row 0: nodes starting with bit 1 → first of {0b1000.., 0b1100..}.
        let r0 = st.table()[0].unwrap();
        assert_eq!(r0.key, s.key(0b1000_0000));
        assert_eq!(common_prefix_len(s, r0.key, me.key), 0);
        // Row 1: prefix 0, second bit 1 → 0b0100_0000.
        let r1 = st.table()[1].unwrap();
        assert_eq!(r1.key, s.key(0b0100_0000));
        // Row 2: prefix 00, third bit differs (me has 0) → subtree
        // 0b001x_xxxx is empty.
        assert_eq!(st.table()[2], None);
    }

    #[test]
    fn next_hop_gains_a_prefix_bit() {
        let s = KeySpace::new(8);
        let keys: Vec<u64> = (0..32).map(|i| i * 8 + 1).collect();
        let ring = ring_of(&keys, s);
        let me = ring.peers()[0];
        let st = PastryState::converged(
            PastryConfig::paper_default().with_space(s).with_leaf_len(2),
            me,
            &ring,
        );
        let target = s.key(200);
        let hop = st.next_hop(target).unwrap();
        assert!(
            common_prefix_len(s, hop.key, target) > common_prefix_len(s, me.key, target)
                || st.covers(target)
        );
    }

    #[test]
    fn single_node_covers_everything() {
        let s = KeySpace::new(8);
        let ring = ring_of(&[42], s);
        let me = ring.peers()[0];
        let st = PastryState::converged(PastryConfig::paper_default().with_space(s), me, &ring);
        assert!(st.covers(s.key(0)));
        assert_eq!(st.next_hop(s.key(7)), None);
        let (local, bundles) = st.mcast_split(&KeyRangeSet::full(s));
        assert_eq!(local.count(), 256);
        assert!(bundles.is_empty());
    }

    #[test]
    fn mcast_split_partitions() {
        let s = KeySpace::new(8);
        let keys: Vec<u64> = (0..16).map(|i| i * 16 + 3).collect();
        let ring = ring_of(&keys, s);
        let me = ring.peers()[5];
        let st = PastryState::converged(PastryConfig::paper_default().with_space(s), me, &ring);
        let targets = KeyRangeSet::full(s);
        let (local, bundles) = st.mcast_split(&targets);
        let mut union = local.clone();
        let mut total = local.count();
        for (peer, set) in bundles.iter() {
            assert_ne!(peer.key, me.key);
            assert!(!union.intersects(set));
            union.union_with(set);
            total += set.count();
        }
        assert_eq!(total, s.size());
    }
}
