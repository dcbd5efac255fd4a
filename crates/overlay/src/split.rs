//! The `m-cast` split of Figure 4, shared by every ring-ordered substrate.
//!
//! A node splits a target key set along its distinct neighbors taken
//! clockwise, `b_0 … b_last`: the arc `(me, b_0]` goes to `b_0`, which
//! covers it entirely; each arc `(b_i, b_{i+1}]` goes to `b_i`, which
//! recurses; the final arc `(b_last, me]` is the node's own. Bundles to the
//! same node are merged, so no node receives the message twice.
//!
//! [`Boundaries`] holds the neighbors as clockwise distances from the node
//! and splits in that space. The target segments, read from the one at the
//! node's key onwards, are already ordered by distance, and so are the
//! arcs, so one forward sweep pairs them: O(segments · log b + output)
//! with no per-arc set, where the window-by-window reading of Figure 4
//! intersects the whole set once per boundary.

use crate::key::KeySpace;
use crate::range::KeyRangeSet;
use crate::ring::Peer;
use crate::scratch::{recycle_cuts, take_cuts, Bundles};

/// A node's distinct neighbors ordered clockwise from the node — the cut
/// points of its `m-cast` split.
///
/// # Examples
///
/// ```
/// use cbps_overlay::{Boundaries, KeyRangeSet, KeySpace, Peer};
///
/// let s = KeySpace::new(5);
/// let peer = |idx, key| Peer { idx, key: s.key(key) };
/// let mut cuts = Boundaries::new(s, peer(0, 8));
/// for p in [peer(1, 14), peer(2, 20), peer(3, 1)] {
///     cuts.push(p);
/// }
/// let (local, bundles) = cuts.split(&KeyRangeSet::full(s));
/// assert_eq!(local.count(), 7); // (1, 8]
/// // (8, 20] travels through 14, (20, 1] through 20.
/// assert_eq!(bundles.len(), 2);
/// assert_eq!((bundles[0].0, bundles[0].1.count()), (peer(1, 14), 12));
/// ```
#[derive(Debug)]
pub struct Boundaries {
    space: KeySpace,
    me: Peer,
    /// `(clockwise distance from me, simulator index)`, ascending and
    /// distinct by distance; never distance 0. The thread's pooled buffer
    /// ([`crate::scratch`]), handed back on drop: however many neighbors
    /// a substrate knows, listing them neither allocates nor clears a
    /// worst-case array on the stack.
    cuts: Vec<(u64, u32)>,
}

impl Drop for Boundaries {
    fn drop(&mut self) {
        recycle_cuts(std::mem::take(&mut self.cuts));
    }
}

impl Boundaries {
    /// No boundaries yet: a split now keeps every target local.
    pub fn new(space: KeySpace, me: Peer) -> Self {
        Boundaries {
            space,
            me,
            cuts: take_cuts(),
        }
    }

    /// Adds a neighbor, in any order. A peer at the node's own key is not
    /// a boundary; of several peers at one key the first pushed stays.
    /// Pushing clockwise — successor, fingers, predecessor on a converged
    /// Chord node — costs one comparison per peer.
    pub fn push(&mut self, peer: Peer) {
        let d = self.space.distance_cw(self.me.key, peer.key);
        if d == 0 {
            return;
        }
        let cuts = &self.cuts;
        let mut at = cuts.len();
        while at > 0 && cuts[at - 1].0 > d {
            at -= 1;
        }
        if at > 0 && cuts[at - 1].0 == d {
            return;
        }
        self.cuts.insert(at, (d, peer.idx as u32));
    }

    /// Partitions `targets` into the subset on the node's own arc (to
    /// deliver) and per-next-hop bundles (to forward), bundles in the
    /// clockwise order of their first arc. All scratch storage is pooled
    /// ([`crate::scratch`]) or inline: the steady-state split allocates
    /// nothing.
    pub fn split(&self, targets: &KeyRangeSet) -> (KeyRangeSet, Bundles) {
        let mut bundles = Bundles::take();
        let cuts = &self.cuts[..];
        if cuts.is_empty() {
            return (targets.clone(), bundles);
        }
        let space = self.space;
        let me = self.me.key.value();
        let top = space.max_value();
        // Window `w` ends at distance `ends[w].0` and is relayed through
        // `cuts[w]`: b_0 takes (me, b_1] — its own arc and the one it
        // relays — and b_w takes (b_w, b_{w+1}]. Past the last end lies
        // (b_last, me), ours; distance 0, our own key, is ours as well.
        let ends = &cuts[usize::from(cuts.len() > 1)..];
        let mut local = KeyRangeSet::new();
        let mut w = 0;
        // Sweeps one run of targets, distances `a..=b` from me. Runs come
        // in ascending order, so `w` only moves forward.
        let mut sweep = |mut a: u64, b: u64| {
            if a == 0 {
                local.insert_linear(me, me);
                if b == 0 {
                    return;
                }
                a = 1;
            }
            w += ends[w..].partition_point(|&(end, _)| end < a);
            loop {
                let upto = ends.get(w).map_or(top, |&(end, _)| end).min(b);
                let (lo, hi) = (me.wrapping_add(a) & top, me.wrapping_add(upto) & top);
                if w == ends.len() {
                    local.insert_linear(lo, hi);
                } else {
                    // The relay's bundle, if it has one, is mostly the one
                    // pushed last: the previous run ended in this window.
                    let (d, idx) = cuts[w];
                    let idx = idx as usize;
                    let at = bundles
                        .iter()
                        .rposition(|(p, _)| p.idx == idx)
                        .unwrap_or_else(|| {
                            let key = space.add(self.me.key, d);
                            bundles.push((Peer { idx, key }, KeyRangeSet::new()));
                            bundles.len() - 1
                        });
                    bundles[at].1.insert_linear(lo, hi);
                }
                if upto == b {
                    return;
                }
                a = upto + 1;
                w += 1;
            }
        };
        // Segments are linear and ascending; read from the one holding or
        // following our key they ascend by distance too. Only that first
        // one can straddle our key: its part below the key is the farthest
        // run of all and is swept last.
        let segs = targets.segments();
        let dist = |k: u64| k.wrapping_sub(me) & top;
        let first = segs.partition_point(|&(_, hi)| hi < me);
        let mut behind = None;
        for k in 0..segs.len() {
            let (lo, hi) = segs[(first + k) % segs.len()];
            if k == 0 && lo < me && me <= hi {
                behind = Some((dist(lo), top));
                sweep(0, hi - me);
            } else {
                sweep(dist(lo), dist(hi));
            }
        }
        if let Some((a, b)) = behind {
            sweep(a, b);
        }
        (local, bundles)
    }
}
