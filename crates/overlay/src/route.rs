//! The routing-decision surface shared by every overlay substrate.
//!
//! A structured overlay, as the routed message handlers see it, is just a
//! state table answering five questions: who am I, do I cover this key,
//! where does this key go next, how do I split a one-to-many send, and who
//! are my ring neighbors. [`RouteTable`] captures exactly that, so the
//! message-handling mechanics (hop accounting, TTL backstop, delivery
//! staging — see [`crate::routed`]) are written once and reused by Chord's
//! finger-table state and Pastry's prefix-table state alike. A new overlay
//! backend is an implementation of this trait plus a converged-state
//! constructor — not a re-implementation of the node.

use crate::key::{Key, KeySpace};
use crate::range::KeyRangeSet;
use crate::ring::Peer;
use crate::scratch::Bundles;

/// Per-node routing state of one structured overlay.
///
/// Implementations must guarantee the invariants the paper's primitives
/// rely on: `covers` and `next_hop` are consistent (`next_hop` returns
/// `None` exactly when this node covers the key), routing makes progress
/// toward the covering node, and `mcast_split` partitions the targets into
/// the local share plus disjoint per-peer bundles (Figure 4's argument).
pub trait RouteTable {
    /// This node's identity.
    fn me(&self) -> Peer;

    /// The key space of the overlay.
    fn space(&self) -> KeySpace;

    /// Routed messages are dropped after this many hops (the backstop
    /// against routing cycles while the ring is damaged).
    fn max_route_hops(&self) -> u32;

    /// The ring predecessor, if known.
    fn predecessor(&self) -> Option<Peer>;

    /// The immediate ring successor, if any.
    fn successor(&self) -> Option<Peer>;

    /// Nearest known clockwise neighbors, closest first (replica
    /// placement, walk continuation).
    fn successors(&self) -> &[Peer];

    /// `true` iff this node currently covers `key` (`key ∈ (pred, me]`,
    /// the successor convention shared by all substrates).
    fn covers(&self, key: Key) -> bool;

    /// The routing decision: `None` to deliver locally, otherwise the next
    /// hop toward the node covering `key`. Takes `&mut self` so
    /// implementations may consult mutable structures (Chord's LRU
    /// location cache).
    fn next_hop(&mut self, key: Key) -> Option<Peer>;

    /// The one-to-many split of Figure 4: the local share of `targets`
    /// plus one disjoint bundle per relay peer. The bundle list is pooled
    /// scratch storage ([`Bundles`]) so steady-state splits stay off the
    /// allocator.
    fn mcast_split(&self, targets: &KeyRangeSet) -> (KeyRangeSet, Bundles);

    /// Opportunistically records that `peer` exists (location caching).
    /// Substrates without opportunistic learning keep the default no-op.
    fn learn(&mut self, peer: Peer) {
        let _ = peer;
    }
}
