//! Shared handling of routed payload messages.
//!
//! The mechanics of the three payload-carrying message kinds — key
//! unicast, `m-cast` splitting, and the conservative range walk — are the
//! same on every structured overlay: account the hop, consult the routing
//! state, forward or deliver, record dilation. [`dispatch`] is the one
//! place a wire [`OverlayMsg`] body is unpacked for them, written once
//! generically over the substrate's [`RouteTable`] and the hosted
//! [`OverlayApp`]; it also hands a received `Direct` body to the app. An
//! overlay node's `on_message` (and Chord's `on_send_failed`, which
//! re-dispatches a payload along its repaired state) passes the body in
//! and gets back only what it must handle itself: ring maintenance.

use std::sync::Arc;

use cbps_sim::{Context, Counter, NodeIdx, Series, TraceId, TrafficClass};

use crate::app::{Delivery, OverlayApp, OverlaySvc};
use crate::key::Key;
use crate::msg::{take_payload, Envelope, OverlayMsg};
use crate::range::{KeyRange, KeyRangeSet};
use crate::ring::Peer;
use crate::route::RouteTable;
use crate::timer::OverlayTimer;

/// The simulator context type every routed handler operates in.
pub type RoutedCtx<'c, A> =
    Context<'c, Envelope<<A as OverlayApp>::Payload>, OverlayTimer<<A as OverlayApp>::Timer>>;

/// `true` (and counts the drop) when a routed message has exceeded the
/// substrate's hop TTL — the backstop against routing cycles while the
/// overlay's state is damaged.
pub(crate) fn ttl_exceeded<S: RouteTable, M, T>(
    state: &S,
    hops: u32,
    ctx: &mut Context<'_, M, T>,
) -> bool {
    if hops >= state.max_route_hops() {
        ctx.metrics().bump(Counter::RoutingTtlDrop, 1);
        true
    } else {
        false
    }
}

/// One-hop transmission of `body`, stamped with this node's identity and
/// accounted under the message's own traffic class.
pub(crate) fn send_body<S: RouteTable, P, T>(
    state: &S,
    ctx: &mut Context<'_, Envelope<P>, OverlayTimer<T>>,
    to: NodeIdx,
    body: OverlayMsg<P>,
) {
    let class = body.class();
    let me = state.me();
    ctx.send(to, class, Envelope { sender: me, body });
}

/// Handles a routed message body: a `Unicast`, `MCast` or `Walk` is
/// forwarded or delivered here, and a `Direct` is handed to the app.
/// `from` names the sender of a received body; it is `None` for a body
/// this node sent and could not hand over, which is re-routed along the
/// repaired state. Every other body — ring maintenance, and a `Direct`
/// whose send failed (a one-hop message has no route to repair) — is
/// returned to the caller.
pub fn dispatch<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    body: OverlayMsg<A::Payload>,
    from: Option<Peer>,
    ctx: &mut RoutedCtx<'_, A>,
) -> Option<OverlayMsg<A::Payload>> {
    match body {
        OverlayMsg::Unicast {
            key,
            class,
            payload,
            hops,
            src,
            trace,
        } => {
            let hop = Hop {
                class,
                payload,
                hops,
                src,
                trace,
            };
            unicast(state, app, key, hop, ctx);
        }
        OverlayMsg::MCast {
            targets,
            class,
            payload,
            hops,
            src,
            trace,
        } => {
            let hop = Hop {
                class,
                payload,
                hops,
                src,
                trace,
            };
            mcast(state, app, targets, hop, ctx);
        }
        OverlayMsg::Walk {
            range,
            class,
            payload,
            hops,
            src,
            walking,
            trace,
        } => {
            let hop = Hop {
                class,
                payload,
                hops,
                src,
                trace,
            };
            // A walk whose send to the next covering node failed has
            // delivered this node's portion already: it only moves on.
            let delivered_here = walking && from.is_none();
            walk(state, app, range, walking, delivered_here, hop, ctx);
        }
        OverlayMsg::Direct { payload, .. } if let Some(from) = from => {
            let mut svc = OverlaySvc::new(state, ctx);
            app.on_direct(from, payload, &mut svc);
        }
        body => return Some(body),
    }
    None
}

/// The fields a routed payload message carries besides its target: `Q` is
/// the payload itself, or an `m-cast`'s shared `Arc` of it.
struct Hop<Q> {
    class: TrafficClass,
    payload: Q,
    hops: u32,
    src: Peer,
    trace: TraceId,
}

impl<Q> Hop<Q> {
    /// The delivery record of this message at the keys it targets here.
    fn delivery(&self, targets_here: KeyRangeSet) -> Delivery {
        Delivery {
            targets_here,
            class: self.class,
            hops: self.hops,
            src: self.src,
            trace: self.trace,
        }
    }
}

impl<P> Hop<P> {
    /// This walk one hop further along `range`.
    fn walk_on(self, range: KeyRange, walking: bool) -> OverlayMsg<P> {
        OverlayMsg::Walk {
            range,
            class: self.class,
            payload: self.payload,
            hops: self.hops + 1,
            src: self.src,
            walking,
            trace: self.trace,
        }
    }
}

/// Delivers `payload` to the app, recording the hops it took as dilation.
fn deliver<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    payload: A::Payload,
    delivery: Delivery,
    ctx: &mut RoutedCtx<'_, A>,
) {
    ctx.metrics()
        .record(Series::dilation(delivery.class), u64::from(delivery.hops));
    let mut svc = OverlaySvc::new(state, ctx);
    app.on_deliver(payload, delivery, &mut svc);
}

// The three handlers below stay out of line (`#[inline(never)]`): inlined
// into `dispatch`, they share one large frame, and the benchmark's `route`
// workload measured ≈ 5 % fewer operations per second.

/// [`OverlayMsg::Unicast`]: forward toward the covering node or deliver
/// locally with dilation accounting.
#[inline(never)]
fn unicast<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    key: Key,
    hop: Hop<A::Payload>,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded(state, hop.hops, ctx) {
        return;
    }
    match state.next_hop(key) {
        None => {
            let delivery = hop.delivery(KeyRangeSet::of_key(state.space(), key));
            deliver(state, app, hop.payload, delivery, ctx);
        }
        Some(next) => {
            ctx.route_hop(hop.trace, hop.class);
            let body = OverlayMsg::Unicast {
                key,
                class: hop.class,
                payload: hop.payload,
                hops: hop.hops + 1,
                src: hop.src,
                trace: hop.trace,
            };
            send_body(state, ctx, next.idx, body);
        }
    }
}

/// [`OverlayMsg::MCast`]: split the targets against the routing state
/// (Figure 4), relay the remote bundles, deliver the local share.
#[inline(never)]
fn mcast<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    targets: KeyRangeSet,
    hop: Hop<Arc<A::Payload>>,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded(state, hop.hops, ctx) {
        return;
    }
    let (local, mut bundles) = state.mcast_split(&targets);
    if !bundles.is_empty() {
        ctx.route_hop(hop.trace, hop.class);
    }
    for (peer, subset) in bundles.drain(..) {
        let body = OverlayMsg::MCast {
            targets: subset,
            class: hop.class,
            payload: Arc::clone(&hop.payload),
            hops: hop.hops + 1,
            src: hop.src,
            trace: hop.trace,
        };
        send_body(state, ctx, peer.idx, body);
    }
    if !local.is_empty() {
        let delivery = hop.delivery(local);
        deliver(state, app, take_payload(hop.payload), delivery, ctx);
    }
}

/// [`OverlayMsg::Walk`]: route toward the range start, then walk covering
/// nodes successor-by-successor, delivering each node's portion of the
/// range (unless `delivered_here`: then it is only passed on).
#[inline(never)]
fn walk<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    range: KeyRange,
    walking: bool,
    delivered_here: bool,
    hop: Hop<A::Payload>,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded(state, hop.hops, ctx) {
        return;
    }
    let space = state.space();
    if !walking {
        // Still routing toward the start of the range.
        if let Some(next) = state.next_hop(range.start()) {
            ctx.route_hop(hop.trace, hop.class);
            send_body(state, ctx, next.idx, hop.walk_on(range, false));
            return;
        }
    }
    // We cover part of the range: deliver our portion. Decide first
    // whether the walk continues so a terminal delivery can take the
    // payload without cloning it.
    let me = state.me();
    let pred = state.predecessor().unwrap_or(me);
    let local = if delivered_here {
        KeyRangeSet::new()
    } else {
        KeyRangeSet::of_range(space, range).extract_arc_oc(space, pred.key, me.key)
    };
    let next = if range.contains(space, me.key) && me.key != range.end() {
        state.successor()
    } else {
        None
    };
    match next {
        // Continue walking while range keys remain beyond our own key.
        Some(succ) => {
            if !local.is_empty() {
                let delivery = hop.delivery(local);
                deliver(state, app, hop.payload.clone(), delivery, ctx);
            }
            ctx.route_hop(hop.trace, hop.class);
            send_body(state, ctx, succ.idx, hop.walk_on(range, true));
        }
        // Terminal node of the walk: the payload can be taken whole.
        None => {
            if !local.is_empty() {
                let delivery = hop.delivery(local);
                deliver(state, app, hop.payload, delivery, ctx);
            }
        }
    }
}

/// Handles an application timer ([`OverlayTimer::App`]).
pub fn handle_app_timer<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    timer: A::Timer,
    ctx: &mut RoutedCtx<'_, A>,
) {
    let mut svc = OverlaySvc::new(state, ctx);
    app.on_timer(timer, &mut svc);
}
