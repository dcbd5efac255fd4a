//! Shared handlers for routed payload messages.
//!
//! The mechanics of the three payload-carrying message kinds — key
//! unicast, `m-cast` splitting, and the conservative range walk — are the
//! same on every structured overlay: account the hop, consult the routing
//! state, forward or deliver, record dilation. These free functions
//! implement those mechanics once, generically over the substrate's
//! [`RouteTable`] and the hosted [`OverlayApp`]. An overlay node's
//! `on_message` just destructures the wire message and calls in here;
//! backend-specific code shrinks to ring maintenance.

use std::sync::Arc;

use cbps_sim::{Context, Counter, Series, TraceId, TrafficClass};

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
pub fn ttl_exceeded<S: RouteTable, A: OverlayApp>(
    state: &S,
    hops: u32,
    ctx: &mut RoutedCtx<'_, A>,
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
pub fn send_body<S: RouteTable, A: OverlayApp>(
    state: &S,
    ctx: &mut RoutedCtx<'_, A>,
    to: cbps_sim::NodeIdx,
    body: OverlayMsg<A::Payload>,
) {
    let class = body.class();
    let me = state.me();
    ctx.send(to, class, Envelope { sender: me, body });
}

/// Handles an incoming [`OverlayMsg::Unicast`]: forward toward the covering
/// node or deliver locally with dilation accounting.
#[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
pub fn handle_unicast<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    key: Key,
    class: TrafficClass,
    payload: Arc<A::Payload>,
    hops: u32,
    src: Peer,
    trace: TraceId,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded::<S, A>(state, hops, ctx) {
        return;
    }
    match state.next_hop(key) {
        None => {
            ctx.metrics()
                .record(Series::dilation(class), u64::from(hops));
            let delivery = Delivery {
                targets_here: KeyRangeSet::of_key(state.space(), key),
                class,
                hops,
                src,
                trace,
            };
            let mut svc = OverlaySvc::new(state, ctx);
            app.on_deliver(take_payload(payload), delivery, &mut svc);
        }
        Some(hop) => {
            ctx.route_hop(trace, class);
            send_body::<S, A>(
                state,
                ctx,
                hop.idx,
                OverlayMsg::Unicast {
                    key,
                    class,
                    payload,
                    hops: hops + 1,
                    src,
                    trace,
                },
            );
        }
    }
}

/// Handles an incoming [`OverlayMsg::MCast`]: split the targets against the
/// routing state (Figure 4), relay the remote bundles, deliver the local
/// share.
#[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
pub fn handle_mcast<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    targets: KeyRangeSet,
    class: TrafficClass,
    payload: Arc<A::Payload>,
    hops: u32,
    src: Peer,
    trace: TraceId,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded::<S, A>(state, hops, ctx) {
        return;
    }
    let (local, mut bundles) = state.mcast_split(&targets);
    if !bundles.is_empty() {
        ctx.route_hop(trace, class);
    }
    for (peer, subset) in bundles.drain(..) {
        send_body::<S, A>(
            state,
            ctx,
            peer.idx,
            OverlayMsg::MCast {
                targets: subset,
                class,
                payload: Arc::clone(&payload),
                hops: hops + 1,
                src,
                trace,
            },
        );
    }
    if !local.is_empty() {
        ctx.metrics()
            .record(Series::dilation(class), u64::from(hops));
        let delivery = Delivery {
            targets_here: local,
            class,
            hops,
            src,
            trace,
        };
        let mut svc = OverlaySvc::new(state, ctx);
        app.on_deliver(take_payload(payload), delivery, &mut svc);
    }
}

/// Handles an incoming [`OverlayMsg::Walk`]: route toward the range start,
/// then walk covering nodes successor-by-successor, delivering each node's
/// portion of the range.
#[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
pub fn handle_walk<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    range: KeyRange,
    class: TrafficClass,
    payload: Arc<A::Payload>,
    hops: u32,
    src: Peer,
    walking: bool,
    trace: TraceId,
    ctx: &mut RoutedCtx<'_, A>,
) {
    if ttl_exceeded::<S, A>(state, hops, ctx) {
        return;
    }
    let space = state.space();
    if !walking {
        // Still routing toward the start of the range.
        if let Some(hop) = state.next_hop(range.start()) {
            ctx.route_hop(trace, class);
            send_body::<S, A>(
                state,
                ctx,
                hop.idx,
                OverlayMsg::Walk {
                    range,
                    class,
                    payload,
                    hops: hops + 1,
                    src,
                    walking: false,
                    trace,
                },
            );
            return;
        }
    }
    // We cover part of the range: deliver our portion. Decide first
    // whether the walk continues so a terminal delivery can take the
    // payload without copying it.
    let me = state.me();
    let pred = state.predecessor().unwrap_or(me);
    let full = KeyRangeSet::of_range(space, range);
    let local = full.extract_arc_oc(space, pred.key, me.key);
    let next = if range.contains(space, me.key) && me.key != range.end() {
        state.successor()
    } else {
        None
    };
    let deliver = |state: &mut S, app: &mut A, payload: A::Payload, ctx: &mut RoutedCtx<'_, A>| {
        ctx.metrics()
            .record(Series::dilation(class), u64::from(hops));
        let delivery = Delivery {
            targets_here: local.clone(),
            class,
            hops,
            src,
            trace,
        };
        let mut svc = OverlaySvc::new(state, ctx);
        app.on_deliver(payload, delivery, &mut svc);
    };
    match next {
        // Continue walking while range keys remain beyond our own key.
        Some(succ) => {
            if !local.is_empty() {
                deliver(state, app, take_payload(Arc::clone(&payload)), ctx);
            }
            ctx.route_hop(trace, class);
            send_body::<S, A>(
                state,
                ctx,
                succ.idx,
                OverlayMsg::Walk {
                    range,
                    class,
                    payload,
                    hops: hops + 1,
                    src,
                    walking: true,
                    trace,
                },
            );
        }
        // Terminal node of the walk: the payload can be taken whole.
        None => {
            if !local.is_empty() {
                deliver(state, app, take_payload(payload), ctx);
            }
        }
    }
}

/// Handles an incoming [`OverlayMsg::Direct`]: hand the payload to the
/// application with the immediate sender's identity.
pub fn handle_direct<S: RouteTable, A: OverlayApp>(
    state: &mut S,
    app: &mut A,
    sender: Peer,
    payload: Arc<A::Payload>,
    ctx: &mut RoutedCtx<'_, A>,
) {
    let mut svc = OverlaySvc::new(state, ctx);
    app.on_direct(sender, take_payload(payload), &mut svc);
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
