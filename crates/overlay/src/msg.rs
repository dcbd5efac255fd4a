//! Wire messages of the Chord overlay.
//!
//! Every message travels inside an [`Envelope`] stamping the immediate
//! sender's identity, which receivers feed to their location cache (the
//! "finger caching" of §5.1). Application payloads are generic: the overlay
//! routes them without inspecting them. A payload with one destination
//! travels by value, moved from hop to hop; only an `m-cast`'s branches
//! share theirs behind an [`Arc`].

use std::sync::Arc;

use cbps_sim::{TraceId, TrafficClass};

use crate::key::Key;
use crate::range::{KeyRange, KeyRangeSet};
use crate::ring::Peer;

/// A message plus the identity of the node that transmitted this hop.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<P> {
    /// The node that performed this one-hop transmission (not necessarily
    /// the originator).
    pub sender: Peer,
    /// The message itself.
    pub body: OverlayMsg<P>,
}

/// The overlay protocol messages.
///
/// `Unicast`, `MCast`, `Walk` and `Direct` carry application payloads; the
/// remaining variants implement ring maintenance (join, stabilization,
/// finger repair, liveness).
#[derive(Clone, Debug, PartialEq)]
pub enum OverlayMsg<P> {
    /// Key-routed payload: the overlay's standard `send(m, k)` primitive.
    Unicast {
        /// Destination key; delivered at the node covering it.
        key: Key,
        /// Traffic class used to count every hop of this message.
        class: TrafficClass,
        /// Application payload, moved along with the message.
        payload: P,
        /// One-hop transmissions so far (delivery dilation).
        hops: u32,
        /// The originating node.
        src: Peer,
        /// Causal trace of the application operation that sent this
        /// ([`TraceId::NONE`] for untraced traffic).
        trace: TraceId,
    },
    /// The paper's `m-cast(M, K)` primitive (Figure 4): key-set multicast
    /// with finger-wise recursive splitting.
    MCast {
        /// The subset of target keys this branch is responsible for.
        targets: KeyRangeSet,
        /// Traffic class used to count every hop of this message.
        class: TrafficClass,
        /// Application payload, shared across the branches of the split
        /// (and kept behind a pointer: the inline target set leaves no
        /// room for it in the envelope).
        payload: Arc<P>,
        /// One-hop transmissions so far on this branch.
        hops: u32,
        /// The originating node.
        src: Peer,
        /// Causal trace of the application operation that sent this
        /// ([`TraceId::NONE`] for untraced traffic).
        trace: TraceId,
    },
    /// Conservative unicast range propagation (§4.3.1): routed to the first
    /// key of the range, then walked successor-by-successor.
    Walk {
        /// The full target range being walked.
        range: KeyRange,
        /// Traffic class used to count every hop of this message.
        class: TrafficClass,
        /// Application payload, moved along the walk (a node that delivers
        /// and passes the walk on delivers a clone).
        payload: P,
        /// One-hop transmissions so far.
        hops: u32,
        /// The originating node.
        src: Peer,
        /// `false` while still routing toward `range.start()`, `true` once
        /// walking the ring.
        walking: bool,
        /// Causal trace of the application operation that sent this
        /// ([`TraceId::NONE`] for untraced traffic).
        trace: TraceId,
    },
    /// One-hop application message to a known peer (used by the
    /// notification-collecting protocol and state transfer).
    Direct {
        /// Application payload.
        payload: P,
        /// Traffic class the hop was counted under.
        class: TrafficClass,
    },

    // --- Ring maintenance ---
    /// Recursive lookup of `successor(target)`; the covering node answers
    /// `reply_to` directly with [`OverlayMsg::FindSuccReply`].
    FindSucc {
        /// The key whose successor is sought.
        target: Key,
        /// Who to answer.
        reply_to: Peer,
        /// Correlation token chosen by the requester.
        token: u64,
        /// One-hop transmissions so far.
        hops: u32,
    },
    /// Answer to [`OverlayMsg::FindSucc`].
    FindSuccReply {
        /// Correlation token from the request.
        token: u64,
        /// The covering node.
        succ: Peer,
        /// Hops the request took to reach the covering node.
        hops: u32,
    },
    /// Stabilization: ask a node for its predecessor and successor list.
    GetPred,
    /// Answer to [`OverlayMsg::GetPred`].
    GetPredReply {
        /// The answering node's current predecessor.
        pred: Option<Peer>,
        /// The answering node's successor list.
        succ_list: Vec<Peer>,
    },
    /// Stabilization: tell a node we believe we are its predecessor.
    Notify {
        /// The claiming node.
        peer: Peer,
    },
    /// Graceful departure: `leaving` is quitting; `replacement` is the
    /// neighbor that should take its place in the receiver's view.
    LeaveNotice {
        /// The departing node.
        leaving: Peer,
        /// Its neighbor on the other side.
        replacement: Peer,
    },
    /// Liveness probe.
    Ping {
        /// Correlation token.
        token: u64,
    },
    /// Liveness answer.
    Pong {
        /// Correlation token from the probe.
        token: u64,
    },
}

/// Takes an `m-cast` payload out of its shared wrapper: zero-copy when
/// this is the last live reference, one clone when sibling branches are
/// still in flight.
#[inline]
pub fn take_payload<P: Clone>(rc: Arc<P>) -> P {
    Arc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone())
}

impl<P> OverlayMsg<P> {
    /// The traffic class this message should be accounted under when
    /// transmitted (maintenance for all non-payload messages).
    pub fn class(&self) -> TrafficClass {
        match self {
            OverlayMsg::Unicast { class, .. }
            | OverlayMsg::MCast { class, .. }
            | OverlayMsg::Walk { class, .. }
            | OverlayMsg::Direct { class, .. } => *class,
            _ => TrafficClass::MAINTENANCE,
        }
    }

    /// The node that injected this message, if it is key-routed.
    pub fn routed_src(&self) -> Option<Peer> {
        match self {
            OverlayMsg::Unicast { src, .. }
            | OverlayMsg::MCast { src, .. }
            | OverlayMsg::Walk { src, .. } => Some(*src),
            _ => None,
        }
    }

    /// The application payload, if this is a key-routed unicast.
    pub fn unicast_payload(&self) -> Option<&P> {
        match self {
            OverlayMsg::Unicast { payload, .. } => Some(payload),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeySpace;

    #[test]
    fn take_payload_avoids_copy_when_sole_owner() {
        let rc = Arc::new(vec![1u8, 2, 3]);
        let out = take_payload(rc);
        assert_eq!(out, vec![1, 2, 3]);
        let shared = Arc::new(7u32);
        let other = Arc::clone(&shared);
        assert_eq!(take_payload(shared), 7);
        assert_eq!(*other, 7);
    }

    #[test]
    fn class_of_payload_and_maintenance_msgs() {
        let s = KeySpace::new(5);
        let src = Peer {
            idx: 0,
            key: s.key(1),
        };
        let m: OverlayMsg<u8> = OverlayMsg::Unicast {
            key: s.key(3),
            class: TrafficClass::PUBLICATION,
            payload: 9,
            hops: 0,
            src,
            trace: TraceId::for_publication(0, 1),
        };
        assert_eq!(m.class(), TrafficClass::PUBLICATION);
        let g: OverlayMsg<u8> = OverlayMsg::GetPred;
        assert_eq!(g.class(), TrafficClass::MAINTENANCE);
        let p: OverlayMsg<u8> = OverlayMsg::Ping { token: 7 };
        assert_eq!(p.class(), TrafficClass::MAINTENANCE);
    }
}
