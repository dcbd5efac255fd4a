//! The overlay-neutral service surface.
//!
//! The paper notes (§3.1) that the pub/sub infrastructure "is portable in
//! the sense that it can use any overlay routing scheme". This trait is
//! that portability boundary: everything the CB-pub/sub layer needs from
//! *an* overlay — key-routed send, the one-to-many primitives, one-hop
//! sends, timers, neighbor knowledge — with no Chord specifics. Its one
//! implementor, [`OverlaySvc`](crate::OverlaySvc), is generic over the
//! substrate's [`RouteTable`](crate::RouteTable), so Chord and the Pastry
//! overlay in `cbps-pastry` hand their apps the same service handle.

use cbps_rng::Rng;
use cbps_sim::{Metrics, SimDuration, SimTime, Stage, TraceId, TrafficClass};

use crate::key::{Key, KeySpace};
use crate::range::{KeyRange, KeyRangeSet};
use crate::ring::Peer;

/// What a structured overlay offers to the application stacked on it.
///
/// Implementations must guarantee: `send` delivers to the node covering
/// the key; `mcast` delivers exactly once to every node covering at least
/// one target key; `covers` is consistent with delivery; and `successor`/
/// `predecessor` name the ring-adjacent nodes of the key space (used for
/// the collecting optimization and state transfer).
pub trait OverlayServices<P: Clone, T> {
    /// This node's identity.
    fn me(&self) -> Peer;
    /// The key space of the overlay.
    fn space(&self) -> KeySpace;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// The run's deterministic RNG.
    fn rng(&mut self) -> &mut Rng;
    /// The run's metrics sink.
    fn metrics(&mut self) -> &mut Metrics;
    /// The ring-adjacent node clockwise of this one, if any.
    fn successor(&self) -> Option<Peer>;
    /// The ring-adjacent node counter-clockwise of this one, if known.
    fn predecessor(&self) -> Option<Peer>;
    /// Nearest known clockwise neighbors (for replica placement).
    fn successors(&self) -> &[Peer];
    /// `true` iff this node currently covers `key`.
    fn covers(&self, key: Key) -> bool;
    /// Arms an application timer.
    fn arm_timer(&mut self, delay: SimDuration, timer: T);
    /// Routes `payload` to the node covering `key`, carrying `trace` for
    /// causal observability ([`TraceId::NONE`] for untraced traffic).
    fn send(&mut self, key: Key, class: TrafficClass, payload: P, trace: TraceId);
    /// One-to-many send: every covering node of `targets` receives the
    /// payload exactly once.
    fn mcast(&mut self, targets: &KeyRangeSet, class: TrafficClass, payload: P, trace: TraceId);
    /// Naive per-key unicast fan-out (the baseline primitive).
    fn ucast_keys(
        &mut self,
        targets: &KeyRangeSet,
        class: TrafficClass,
        payload: P,
        trace: TraceId,
    );
    /// Conservative neighbor-walk propagation along a contiguous range.
    fn walk(&mut self, range: KeyRange, class: TrafficClass, payload: P, trace: TraceId);
    /// One-hop message to a known peer.
    fn direct(&mut self, to: Peer, class: TrafficClass, payload: P);

    /// Records that `trace` reached `stage` on this node, now. A single
    /// branch when observability is disabled.
    #[inline]
    fn stage(&mut self, trace: TraceId, stage: Stage, class: TrafficClass) {
        let (node, at) = (self.me().idx, self.now());
        self.metrics()
            .obs_mut()
            .stage(trace, stage, class, node, at);
    }
}
