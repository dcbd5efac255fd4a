//! A global, sorted view of ring membership.
//!
//! [`RingView`] is the "god's eye" picture of which node covers which key.
//! It is used to bootstrap stable rings (computing correct predecessor,
//! successor-list and finger entries directly, as the paper's experiments
//! assume a converged overlay), and by tests as an oracle for routing and
//! multicast coverage. Protocol logic on the nodes themselves never
//! consults it.

use cbps_sim::NodeIdx;

use crate::key::{Key, KeySpace};
use crate::range::KeyRangeSet;

/// A node's identity as seen by other nodes: its simulator index (standing
/// in for a network address) and its ring key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Peer {
    /// Simulator index (the "IP address" of the node).
    pub idx: NodeIdx,
    /// The node's identifier on the ring.
    pub key: Key,
}

/// Sorted membership of a Chord ring.
///
/// # Examples
///
/// ```
/// use cbps_overlay::{KeySpace, Peer, RingView};
///
/// let s = KeySpace::new(5);
/// // The paper's Figure 1 ring: nodes 1, 8, 14, 20, 21, 32 % 32 ...
/// let ring = RingView::new(s, vec![
///     Peer { idx: 0, key: s.key(1) },
///     Peer { idx: 1, key: s.key(14) },
///     Peer { idx: 2, key: s.key(20) },
/// ]);
/// // Keys 13, 17, 26 are covered by nodes 14, 20 and 1 respectively.
/// assert_eq!(ring.successor(s.key(13)).key, s.key(14));
/// assert_eq!(ring.successor(s.key(17)).key, s.key(20));
/// assert_eq!(ring.successor(s.key(26)).key, s.key(1));
/// ```
#[derive(Clone, Debug)]
pub struct RingView {
    space: KeySpace,
    /// Sorted by key, unique keys.
    peers: Vec<Peer>,
}

impl RingView {
    /// Builds a view from arbitrary-order peers.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty or two peers share a key.
    pub fn new(space: KeySpace, mut peers: Vec<Peer>) -> Self {
        assert!(!peers.is_empty(), "a ring needs at least one node");
        peers.sort_by_key(|p| p.key);
        for w in peers.windows(2) {
            assert_ne!(w[0].key, w[1].key, "duplicate ring key {}", w[0].key);
        }
        RingView { space, peers }
    }

    /// The key space of this ring.
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `false`: a view always holds at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All peers in increasing key order.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Where each node sits in [`Self::peers`]: entry `idx` is the sorted
    /// position of the node with simulator index `idx`.
    ///
    /// # Panics
    ///
    /// Panics unless the node indices are exactly `0..len()`, as on a ring
    /// from [`crate::hashed_ring`].
    pub fn positions_by_idx(&self) -> Vec<u32> {
        let mut pos_of_idx = vec![0u32; self.peers.len()];
        for (pos, p) in self.peers.iter().enumerate() {
            pos_of_idx[p.idx] = pos as u32;
        }
        pos_of_idx
    }

    /// The node covering `key`: the first node whose identifier is equal to
    /// or follows `key` on the ring (Chord's `successor(key)`).
    pub fn successor(&self, key: Key) -> Peer {
        let i = self.peers.partition_point(|p| p.key < key);
        if i == self.peers.len() {
            self.peers[0]
        } else {
            self.peers[i]
        }
    }

    /// The closest node whose identifier strictly precedes `key`.
    pub fn predecessor(&self, key: Key) -> Peer {
        let i = self.peers.partition_point(|p| p.key < key);
        if i == 0 {
            *self.peers.last().expect("non-empty")
        } else {
            self.peers[i - 1]
        }
    }

    /// The immediate ring successor of the *node* at `key` (skipping the
    /// node itself).
    pub fn next_node(&self, key: Key) -> Peer {
        self.successor(self.space.add(key, 1))
    }

    /// The `count` nodes following the node at `key` clockwise (wrapping,
    /// possibly fewer if the ring is smaller).
    pub fn successors_of(&self, key: Key, count: usize) -> Vec<Peer> {
        let mut out = Vec::with_capacity(count);
        let mut cur = key;
        for _ in 0..count.min(self.peers.len().saturating_sub(1).max(1)) {
            let next = self.next_node(cur);
            if next.key == key {
                break;
            }
            out.push(next);
            cur = next.key;
        }
        out
    }

    /// The correct finger table of the node at `key`: entry `i` (0-based)
    /// is `successor(key + 2^i)`.
    pub fn fingers_of(&self, key: Key) -> Vec<Peer> {
        (0..self.space.bits())
            .map(|i| self.successor(self.space.finger_target(key, i)))
            .collect()
    }

    /// All n×m finger tables at once: `grid.get(pos, i)` is the sorted-table
    /// position of `successor(k_pos + 2^i)`, where `pos` indexes
    /// [`Self::peers`]. Derived in O(n·m) with one monotone pointer sweep
    /// per level instead of n·m independent binary searches: for a fixed
    /// distance d = 2^i the wrapped targets (nodes with k ≥ M−d) all land in
    /// [0, d) and the rest ascend through [d, M), so visiting the wrapped
    /// suffix first makes the whole target sequence non-decreasing.
    pub fn finger_grid(&self) -> FingerGrid {
        let n = self.peers.len();
        let bits = self.space.bits() as usize;
        let m = self.space.size();
        let mut grid = vec![0u32; n * bits];
        for i in 0..bits {
            let d = 1u64 << i;
            // First sorted position whose key wraps past the ring end.
            let wrap_from = self.peers.partition_point(|p| p.key.value() < m - d);
            let mut p = 0usize;
            let mut fill = |grid: &mut [u32], pos: usize, target: u64| {
                while p < n && self.peers[p].key.value() < target {
                    p += 1;
                }
                grid[pos * bits + i] = if p == n { 0 } else { p as u32 };
            };
            for pos in wrap_from..n {
                fill(&mut grid, pos, self.peers[pos].key.value() + d - m);
            }
            for pos in 0..wrap_from {
                fill(&mut grid, pos, self.peers[pos].key.value() + d);
            }
        }
        FingerGrid { bits, grid }
    }

    /// Every distinct node covering at least one key of `targets`.
    pub fn covering_nodes(&self, targets: &KeyRangeSet) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for range in targets.iter_ranges(self.space) {
            // Walk nodes from successor(start); a node is the last coverer
            // once its key reaches or passes the range end.
            let first = self.successor(range.start());
            let mut node = first;
            loop {
                if !out.contains(&node) {
                    out.push(node);
                }
                // Keys of the range beyond `node.key` remain exactly when
                // node.key lies strictly inside the range.
                if range.contains(self.space, node.key) && node.key != range.end() {
                    let next = self.next_node(node.key);
                    if next == first {
                        break; // wrapped all the way around
                    }
                    node = next;
                } else {
                    break;
                }
            }
        }
        out.sort_by_key(|p| p.key);
        out.dedup();
        out
    }
}

/// Dense n×m finger table from [`RingView::finger_grid`]: all nodes'
/// fingers as sorted-table positions, row-major by node position.
#[derive(Clone, Debug)]
pub struct FingerGrid {
    bits: usize,
    grid: Vec<u32>,
}

impl FingerGrid {
    /// Sorted-table position of finger `level` of the node at sorted
    /// position `pos`.
    pub fn get(&self, pos: usize, level: usize) -> usize {
        self.grid[pos * self.bits + level] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::KeyRange;

    fn ring() -> (KeySpace, RingView) {
        let s = KeySpace::new(5);
        let peers = [1u64, 8, 14, 20, 27]
            .iter()
            .enumerate()
            .map(|(i, &k)| Peer {
                idx: i,
                key: s.key(k),
            })
            .collect();
        (s, RingView::new(s, peers))
    }

    #[test]
    fn successor_and_predecessor() {
        let (s, r) = ring();
        assert_eq!(r.successor(s.key(8)).key, s.key(8)); // exact hit
        assert_eq!(r.successor(s.key(9)).key, s.key(14));
        assert_eq!(r.successor(s.key(28)).key, s.key(1)); // wraps
        assert_eq!(r.predecessor(s.key(8)).key, s.key(1));
        assert_eq!(r.predecessor(s.key(1)).key, s.key(27)); // wraps
    }

    #[test]
    fn next_node_skips_self() {
        let (s, r) = ring();
        assert_eq!(r.next_node(s.key(8)).key, s.key(14));
        assert_eq!(r.next_node(s.key(27)).key, s.key(1));
    }

    #[test]
    fn successors_list() {
        let (s, r) = ring();
        let succs = r.successors_of(s.key(20), 3);
        let keys: Vec<u64> = succs.iter().map(|p| p.key.value()).collect();
        assert_eq!(keys, vec![27, 1, 8]);
        // Asking for more than the ring holds stops after a full loop.
        let all = r.successors_of(s.key(20), 10);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn fingers_match_chord_definition() {
        let (s, r) = ring();
        let f = r.fingers_of(s.key(8));
        // Targets 9, 10, 12, 16, 24 → successors 14, 14, 14, 20, 27.
        let keys: Vec<u64> = f.iter().map(|p| p.key.value()).collect();
        assert_eq!(keys, vec![14, 14, 14, 20, 27]);
    }

    #[test]
    fn finger_grid_matches_per_node_fingers() {
        let (s, r) = ring();
        let grid = r.finger_grid();
        for (pos, p) in r.peers().iter().enumerate() {
            let expect = r.fingers_of(p.key);
            for (i, &want) in expect.iter().enumerate() {
                assert_eq!(r.peers()[grid.get(pos, i)], want, "node {pos} level {i}");
            }
        }
        // Including rings containing the top-of-space key, where every
        // finger target of that node wraps.
        let top = RingView::new(
            s,
            vec![
                Peer {
                    idx: 0,
                    key: s.key(31),
                },
                Peer {
                    idx: 1,
                    key: s.key(2),
                },
            ],
        );
        let g = top.finger_grid();
        for (pos, p) in top.peers().iter().enumerate() {
            for (i, &want) in top.fingers_of(p.key).iter().enumerate() {
                assert_eq!(top.peers()[g.get(pos, i)], want, "top node {pos} level {i}");
            }
        }
    }

    #[test]
    fn covering_nodes_of_range() {
        let (s, r) = ring();
        // Keys 9..=20 are covered by nodes 14 and 20.
        let set = KeyRangeSet::of_range(s, KeyRange::new(s.key(9), s.key(20)));
        let cover: Vec<u64> = r
            .covering_nodes(&set)
            .iter()
            .map(|p| p.key.value())
            .collect();
        assert_eq!(cover, vec![14, 20]);
        // Wrapping range 21..=2 → node 27 covers (20,27], node 1 covers
        // (27,1], and node 8 covers (1,8] which contains key 2.
        let set = KeyRangeSet::of_range(s, KeyRange::new(s.key(21), s.key(2)));
        let cover: Vec<u64> = r
            .covering_nodes(&set)
            .iter()
            .map(|p| p.key.value())
            .collect();
        assert_eq!(cover, vec![1, 8, 27]);
    }

    #[test]
    fn covering_nodes_singleton_and_full() {
        let (s, r) = ring();
        let one = KeyRangeSet::of_key(s, s.key(15));
        assert_eq!(r.covering_nodes(&one)[0].key, s.key(20));
        let full = KeyRangeSet::full(s);
        assert_eq!(r.covering_nodes(&full).len(), 5);
    }

    #[test]
    fn single_node_ring_covers_everything() {
        let s = KeySpace::new(5);
        let r = RingView::new(
            s,
            vec![Peer {
                idx: 0,
                key: s.key(7),
            }],
        );
        assert_eq!(r.successor(s.key(0)).key, s.key(7));
        assert_eq!(r.predecessor(s.key(7)).key, s.key(7));
        let full = KeyRangeSet::full(s);
        assert_eq!(r.covering_nodes(&full).len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate ring key")]
    fn duplicate_keys_rejected() {
        let s = KeySpace::new(5);
        let _ = RingView::new(
            s,
            vec![
                Peer {
                    idx: 0,
                    key: s.key(3),
                },
                Peer {
                    idx: 1,
                    key: s.key(3),
                },
            ],
        );
    }
}
