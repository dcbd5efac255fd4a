//! The application interface of the overlay.
//!
//! An [`OverlayApp`] is the protocol layered *above* the overlay (here:
//! the content-based pub/sub layer). It receives payload deliveries and
//! neighbor-change notifications, and acts on the world exclusively
//! through the overlay-neutral [`OverlayServices`] surface — the
//! programming model of §4.1: `send()`, `m-cast()`, timers and neighbor
//! knowledge, with the KN-mapping hidden. Because the upcalls take the
//! service surface as a trait object, the same application type runs
//! unchanged over every substrate implementing [`RouteTable`].

use std::sync::Arc;

use cbps_rng::Rng;
use cbps_sim::{Context, NodeIdx, PrefetchStage, SimDuration, SimTime, TraceId, TrafficClass};

use crate::key::{Key, KeySpace};
use crate::msg::{Envelope, OverlayMsg};
use crate::range::{KeyRange, KeyRangeSet};
use crate::ring::Peer;
use crate::route::RouteTable;
use crate::services::OverlayServices;
use crate::state::RoutingState;
use crate::timer::OverlayTimer;

/// Information accompanying a routed payload delivery.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The keys covered by this node that caused the delivery (a singleton
    /// for unicast; the local subset for `m-cast`; the walked range
    /// portion for range walks).
    pub targets_here: KeyRangeSet,
    /// Traffic class the payload was sent under.
    pub class: TrafficClass,
    /// Number of one-hop transmissions the payload took to get here.
    pub hops: u32,
    /// The node that originated the send.
    pub src: Peer,
    /// Causal trace of the operation that sent the payload
    /// ([`TraceId::NONE`] when untraced).
    pub trace: TraceId,
}

/// The protocol stacked on top of an overlay node.
///
/// All methods receive the overlay-neutral [`OverlayServices`] surface for
/// sending, timer management and neighbor inspection. Default
/// implementations make every hook optional except payload delivery.
/// Membership hooks (`on_predecessor_changed`, `on_leaving`) only fire on
/// substrates with dynamic membership.
pub trait OverlayApp: Sized {
    /// The payload the overlay routes for this application.
    type Payload: Clone;
    /// Application timer token.
    type Timer;

    /// A routed payload (unicast, multicast or walk) arrived at a key this
    /// node covers.
    fn on_deliver(
        &mut self,
        payload: Self::Payload,
        delivery: Delivery,
        svc: &mut dyn OverlayServices<Self::Payload, Self::Timer>,
    );

    /// A one-hop direct message from a known peer arrived.
    fn on_direct(
        &mut self,
        from: Peer,
        payload: Self::Payload,
        svc: &mut dyn OverlayServices<Self::Payload, Self::Timer>,
    ) {
        let _ = (from, payload, svc);
    }

    /// An application timer armed through [`OverlayServices::arm_timer`]
    /// fired.
    fn on_timer(
        &mut self,
        timer: Self::Timer,
        svc: &mut dyn OverlayServices<Self::Payload, Self::Timer>,
    ) {
        let _ = (timer, svc);
    }

    /// The node's predecessor changed (a node joined just before us, or our
    /// old predecessor left/failed and we now cover its arc). This is the
    /// hook where stateful applications pull or activate state for the
    /// newly-covered keys (§4.1).
    fn on_predecessor_changed(
        &mut self,
        old: Option<Peer>,
        new: Option<Peer>,
        svc: &mut dyn OverlayServices<Self::Payload, Self::Timer>,
    ) {
        let _ = (old, new, svc);
    }

    /// This node is about to leave gracefully; push state to neighbors now.
    fn on_leaving(&mut self, svc: &mut dyn OverlayServices<Self::Payload, Self::Timer>) {
        let _ = svc;
    }

    /// The overlay node's [`cbps_sim::Node::prefetch`] forwarded to the
    /// application: hint the lines the next upcall will read, nothing else.
    /// `queued` is this node's index and the payload of a unicast just
    /// queued for it — which it may deliver or pass on.
    #[inline]
    fn prefetch(&self, stage: PrefetchStage, queued: Option<(NodeIdx, &Self::Payload)>) {
        let _ = (stage, queued);
    }
}

/// The overlay's service handle handed to application upcalls.
///
/// Wraps a substrate's routing state ([`RouteTable`]) plus the simulator
/// context, exposing the extended interface of §4.3.1: classic key
/// unicast, the `m-cast` primitive, the conservative range walk, naive
/// per-key unicast (the baseline the paper compares against), one-hop
/// sends, timers, and neighbor knowledge for state transfer. Implements
/// [`OverlayServices`], which is how applications receive it.
#[derive(Debug)]
pub struct OverlaySvc<'a, 'c, P, T, S: RouteTable = RoutingState> {
    pub(crate) state: &'a mut S,
    pub(crate) ctx: &'a mut Context<'c, Envelope<P>, OverlayTimer<T>>,
}

impl<'a, 'c, P: Clone, T, S: RouteTable> OverlaySvc<'a, 'c, P, T, S> {
    /// Wraps a substrate's routing state and a live simulator context into
    /// a service handle (how overlay nodes build the surface they hand to
    /// application upcalls).
    pub fn new(state: &'a mut S, ctx: &'a mut Context<'c, Envelope<P>, OverlayTimer<T>>) -> Self {
        OverlaySvc { state, ctx }
    }
}

impl<P: Clone, T, S: RouteTable> OverlaySvc<'_, '_, P, T, S> {
    /// This node's identity.
    pub fn me(&self) -> Peer {
        self.state.me()
    }

    /// The key space of the overlay.
    pub fn space(&self) -> KeySpace {
        self.state.space()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The run's deterministic RNG.
    pub fn rng(&mut self) -> &mut Rng {
        self.ctx.rng()
    }

    /// The run's metrics sink.
    pub fn metrics(&mut self) -> &mut cbps_sim::Metrics {
        self.ctx.metrics()
    }

    /// This node's immediate ring successor, if any.
    pub fn successor(&self) -> Option<Peer> {
        self.state.successor()
    }

    /// This node's ring predecessor, if known.
    pub fn predecessor(&self) -> Option<Peer> {
        self.state.predecessor()
    }

    /// This node's successor list (nearest first).
    pub fn successors(&self) -> &[Peer] {
        self.state.successors()
    }

    /// `true` iff this node currently covers `key` (`key ∈ (pred, me]`).
    pub fn covers(&self, key: Key) -> bool {
        self.state.covers(key)
    }

    /// Arms an application timer.
    pub fn arm_timer(&mut self, delay: SimDuration, timer: T) {
        self.ctx.arm_timer(delay, OverlayTimer::App(timer));
    }

    /// The overlay `send(m, k)` primitive: routes `payload` to the node
    /// covering `key`. Reaching a key we cover ourselves delivers locally
    /// without a network hop. `trace` ties the message to the application
    /// operation it serves ([`TraceId::NONE`] for untraced traffic).
    pub fn send(&mut self, key: Key, class: TrafficClass, payload: P, trace: TraceId) {
        self.send_rc(key, class, Arc::new(payload), trace);
    }

    /// [`OverlaySvc::send`] over an already-shared payload (no fresh
    /// allocation; used by the per-key fan-out).
    fn send_rc(&mut self, key: Key, class: TrafficClass, payload: Arc<P>, trace: TraceId) {
        let me = self.state.me();
        let unicast = |hops| OverlayMsg::Unicast {
            key,
            class,
            payload,
            hops,
            src: me,
            trace,
        };
        match self.state.next_hop(key) {
            None => self.ctx.send_local(Envelope {
                sender: me,
                body: unicast(0),
            }),
            Some(hop) => self.ctx.send(
                hop.idx,
                class,
                Envelope {
                    sender: me,
                    body: unicast(1),
                },
            ),
        }
    }

    /// The paper's `m-cast(M, K)` primitive: every node covering at least
    /// one key in `targets` receives `payload` exactly once.
    pub fn mcast(
        &mut self,
        targets: &KeyRangeSet,
        class: TrafficClass,
        payload: P,
        trace: TraceId,
    ) {
        if targets.is_empty() {
            return;
        }
        let payload = Arc::new(payload);
        let me = self.state.me();
        let (local, mut bundles) = self.state.mcast_split(targets);
        if !local.is_empty() {
            self.ctx.send_local(Envelope {
                sender: me,
                body: OverlayMsg::MCast {
                    targets: local,
                    class,
                    payload: Arc::clone(&payload),
                    hops: 0,
                    src: me,
                    trace,
                },
            });
        }
        for (peer, subset) in bundles.drain(..) {
            self.ctx.send(
                peer.idx,
                class,
                Envelope {
                    sender: me,
                    body: OverlayMsg::MCast {
                        targets: subset,
                        class,
                        payload: Arc::clone(&payload),
                        hops: 1,
                        src: me,
                        trace,
                    },
                },
            );
        }
    }

    /// Naive unicast fan-out: one independent routed `send` per key in
    /// `targets`. This is the baseline the basic architecture is restricted
    /// to (§4.3.1, "aggressive" variant) and the "unicast" series of the
    /// figures.
    pub fn ucast_keys(
        &mut self,
        targets: &KeyRangeSet,
        class: TrafficClass,
        payload: P,
        trace: TraceId,
    ) {
        let space = self.space();
        let payload = Arc::new(payload);
        for key in targets.iter_keys(space) {
            self.send_rc(key, class, Arc::clone(&payload), trace);
        }
    }

    /// Conservative unicast range propagation (§4.3.1): route to the first
    /// key of `range`, then walk covering nodes successor-by-successor.
    /// Same message complexity as `m-cast`, but dilation grows with the
    /// number of covering nodes.
    pub fn walk(&mut self, range: KeyRange, class: TrafficClass, payload: P, trace: TraceId) {
        let me = self.state.me();
        let msg = Envelope {
            sender: me,
            body: OverlayMsg::Walk {
                range,
                class,
                payload: Arc::new(payload),
                hops: 0,
                src: me,
                walking: false,
                trace,
            },
        };
        // Enter through normal routing toward the range start.
        match self.state.next_hop(range.start()) {
            None => self.ctx.send_local(msg),
            Some(hop) => {
                let mut env = msg;
                if let OverlayMsg::Walk { hops, .. } = &mut env.body {
                    *hops = 1;
                }
                self.ctx.send(hop.idx, class, env);
            }
        }
    }

    /// One-hop message to a peer whose address is already known (ring
    /// neighbors, learned peers). Used by the collecting protocol and state
    /// transfer.
    pub fn direct(&mut self, to: Peer, class: TrafficClass, payload: P) {
        let me = self.state.me();
        self.ctx.send(
            to.idx,
            class,
            Envelope {
                sender: me,
                body: OverlayMsg::Direct {
                    payload: Arc::new(payload),
                    class,
                },
            },
        );
    }
}
