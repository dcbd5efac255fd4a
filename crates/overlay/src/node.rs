//! The Chord node: ring maintenance and the bridge to the application
//! layered on top. Routed payload handling (unicast, `m-cast`, walks)
//! lives in the overlay-neutral [`crate::routed`] module; this file is
//! the Chord-specific remainder — join, stabilization, finger repair,
//! failure handling.

use std::collections::HashMap;

use cbps_sim::{Context, Node, NodeIdx, PrefetchStage, Series};

use crate::app::{OverlayApp, OverlaySvc};
use crate::key::Key;
use crate::msg::{Envelope, OverlayMsg};
use crate::ring::Peer;
use crate::routed;
use crate::services::OverlayServices;
use crate::state::RoutingState;
use crate::timer::OverlayTimer;

/// What an outstanding correlation token is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Initial join lookup of our own successor.
    Join,
    /// Repairing finger `i`.
    Finger(usize),
    /// A measurement lookup started with [`ChordNode::start_lookup`].
    Probe,
    /// A liveness ping to the given peer.
    Ping(Peer),
}

/// A Chord overlay node hosting an application.
///
/// Implements [`cbps_sim::Node`]; all protocol behaviour happens in the
/// message/timer upcalls. The hosted [`OverlayApp`] is reached through
/// [`ChordNode::app`]/[`ChordNode::app_call`].
#[derive(Debug)]
pub struct ChordNode<A: OverlayApp> {
    state: RoutingState,
    app: A,
    pending: HashMap<u64, Pending>,
    next_token: u64,
    next_finger: usize,
    /// Consecutive stabilize rounds the successor failed to answer.
    succ_missed: u32,
}

impl<A: OverlayApp> ChordNode<A> {
    /// Creates a node that is not yet part of any ring.
    pub fn new(state: RoutingState, app: A) -> Self {
        ChordNode {
            state,
            app,
            pending: HashMap::new(),
            next_token: 0,
            next_finger: 0,
            succ_missed: 0,
        }
    }

    /// This node's identity.
    pub fn me(&self) -> Peer {
        self.state.me()
    }

    /// The routing state (neighbors, fingers, cache) for inspection.
    pub fn routing(&self) -> &RoutingState {
        &self.state
    }

    /// Exclusive access to the routing state (test setup / bootstrap).
    pub fn routing_mut(&mut self) -> &mut RoutingState {
        &mut self.state
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Exclusive access to the hosted application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Runs an application-level call with a live [`OverlaySvc`] — the way
    /// external drivers invoke `sub()` / `pub()` on a node.
    pub fn app_call<R>(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
        f: impl FnOnce(&mut A, &mut dyn OverlayServices<A::Payload, A::Timer>) -> R,
    ) -> R {
        let mut svc = OverlaySvc::new(&mut self.state, ctx);
        f(&mut self.app, &mut svc)
    }

    /// Arms the periodic maintenance timers (call once per node when
    /// maintenance is enabled).
    pub fn start_maintenance(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        let cfg = *self.state.config();
        ctx.arm_timer(cfg.stabilize_period, OverlayTimer::Stabilize);
        ctx.arm_timer(cfg.fix_fingers_period, OverlayTimer::FixFingers);
    }

    /// Starts joining the ring through `bootstrap` (an existing member).
    /// Completion is asynchronous; stabilization then integrates the node.
    pub fn start_join(
        &mut self,
        bootstrap: Peer,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        let token = self.claim_token(Pending::Join);
        let me = self.state.me();
        self.send_body(
            ctx,
            bootstrap.idx,
            OverlayMsg::FindSucc {
                target: me.key,
                reply_to: me,
                token,
                hops: 1,
            },
        );
    }

    /// Starts a measurement lookup of `successor(target)`; the path length
    /// is recorded in the `lookup.hops` histogram when the reply arrives.
    /// Used to calibrate the location cache against the paper's reported
    /// ≈ 2.5 average hops (§5.1).
    pub fn start_lookup(
        &mut self,
        target: Key,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        if self.state.covers(target) {
            ctx.metrics().record(Series::LookupHops, 0);
            return;
        }
        let token = self.claim_token(Pending::Probe);
        let me = self.state.me();
        let msg = OverlayMsg::FindSucc {
            target,
            reply_to: me,
            token,
            hops: 1,
        };
        match self.state.next_hop(target) {
            None => {
                // covers() said no but routing found nothing better: alone.
                self.pending.remove(&token);
                ctx.metrics().record(Series::LookupHops, 0);
            }
            Some(hop) => self.send_body(ctx, hop.idx, msg),
        }
    }

    /// Leaves the ring gracefully: lets the application push its state,
    /// then links predecessor and successor to each other. The caller
    /// should crash the node in the simulator afterwards.
    pub fn start_leave(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        {
            let mut svc = OverlaySvc::new(&mut self.state, ctx);
            self.app.on_leaving(&mut svc);
        }
        let me = self.state.me();
        if let (Some(pred), Some(succ)) = (self.state.predecessor(), self.state.successor()) {
            self.send_body(
                ctx,
                pred.idx,
                OverlayMsg::LeaveNotice {
                    leaving: me,
                    replacement: succ,
                },
            );
            self.send_body(
                ctx,
                succ.idx,
                OverlayMsg::LeaveNotice {
                    leaving: me,
                    replacement: pred,
                },
            );
        }
    }

    fn claim_token(&mut self, purpose: Pending) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.pending.insert(t, purpose);
        t
    }

    fn send_body(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
        to: NodeIdx,
        body: OverlayMsg<A::Payload>,
    ) {
        let class = body.class();
        let me = self.state.me();
        ctx.send(to, class, Envelope { sender: me, body });
    }

    fn set_predecessor_with_hook(
        &mut self,
        new: Option<Peer>,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        let old = self.state.predecessor();
        if old == new {
            return;
        }
        self.state.set_predecessor(new);
        let mut svc = OverlaySvc::new(&mut self.state, ctx);
        self.app.on_predecessor_changed(old, new, &mut svc);
    }

    fn handle_find_succ(
        &mut self,
        target: Key,
        reply_to: Peer,
        token: u64,
        hops: u32,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        if routed::ttl_exceeded::<RoutingState, A>(&self.state, hops, ctx) {
            return;
        }
        match self.state.next_hop(target) {
            None => {
                let me = self.state.me();
                self.send_body(
                    ctx,
                    reply_to.idx,
                    OverlayMsg::FindSuccReply {
                        token,
                        succ: me,
                        hops,
                    },
                );
            }
            Some(hop) => self.send_body(
                ctx,
                hop.idx,
                OverlayMsg::FindSucc {
                    target,
                    reply_to,
                    token,
                    hops: hops + 1,
                },
            ),
        }
    }

    fn handle_find_succ_reply(
        &mut self,
        token: u64,
        succ: Peer,
        hops: u32,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        self.state.learn(succ);
        match self.pending.remove(&token) {
            Some(Pending::Join) => {
                self.state.set_successors(vec![succ]);
                // Announce ourselves so stabilization can integrate us.
                let me = self.state.me();
                self.send_body(ctx, succ.idx, OverlayMsg::Notify { peer: me });
                if self.state.config().maintenance {
                    self.start_maintenance(ctx);
                }
            }
            Some(Pending::Finger(i)) => {
                self.state.set_finger(i, succ);
            }
            Some(Pending::Probe) => {
                ctx.metrics().record(Series::LookupHops, u64::from(hops));
            }
            Some(Pending::Ping(_)) | None => {}
        }
    }

    fn handle_stabilize(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        let cfg = *self.state.config();
        if let Some(succ) = self.state.successor() {
            if self.succ_missed >= 2 {
                // Successor unresponsive: fail over to the next in the list.
                self.state.forget(succ);
                self.succ_missed = 0;
            }
        }
        if let Some(succ) = self.state.successor() {
            self.succ_missed += 1; // cleared by the GetPredReply
            self.send_body(ctx, succ.idx, OverlayMsg::GetPred);
        }
        // Probe the predecessor; an unanswered probe clears it so that the
        // true predecessor's next Notify can take its place (and our app is
        // told it now covers the dead node's arc).
        if let Some(pred) = self.state.predecessor() {
            let token = self.claim_token(Pending::Ping(pred));
            self.send_body(ctx, pred.idx, OverlayMsg::Ping { token });
            ctx.arm_timer(
                cfg.stabilize_period / 2,
                OverlayTimer::ProbeTimeout { token },
            );
        }
        ctx.arm_timer(cfg.stabilize_period, OverlayTimer::Stabilize);
    }

    fn handle_get_pred_reply(
        &mut self,
        pred: Option<Peer>,
        succ_list: Vec<Peer>,
        from_idx: NodeIdx,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        self.succ_missed = 0;
        let me = self.state.me();
        let Some(mut succ) = self.state.successor() else {
            return;
        };
        if succ.idx != from_idx {
            return; // stale answer from a node we no longer track
        }
        if let Some(p) = pred {
            let space = self.state.space();
            if space.in_arc_oo(p.key, me.key, succ.key) {
                succ = p;
            }
        }
        let mut list = vec![succ];
        list.extend(succ_list);
        self.state.set_successors(list);
        if let Some(s) = self.state.successor() {
            self.send_body(ctx, s.idx, OverlayMsg::Notify { peer: me });
        }
    }

    fn handle_fix_fingers(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
    ) {
        let cfg = *self.state.config();
        let space = cfg.space;
        let i = self.next_finger;
        self.next_finger = (self.next_finger + 1) % space.bits() as usize;
        let me = self.state.me();
        let target = space.finger_target(me.key, i as u32);
        match self.state.next_hop(target) {
            None => self.state.set_finger(i, me), // stored as None (self)
            Some(hop) => {
                let token = self.claim_token(Pending::Finger(i));
                self.send_body(
                    ctx,
                    hop.idx,
                    OverlayMsg::FindSucc {
                        target,
                        reply_to: me,
                        token,
                        hops: 1,
                    },
                );
            }
        }
        ctx.arm_timer(cfg.fix_fingers_period, OverlayTimer::FixFingers);
    }
}

impl<A: OverlayApp> Node for ChordNode<A> {
    type Msg = Envelope<A::Payload>;
    type Timer = OverlayTimer<A::Timer>;

    fn on_message(
        &mut self,
        _from: NodeIdx,
        envelope: Envelope<A::Payload>,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    ) {
        // Every routed message teaches the node its previous hop and its
        // source, in that order; on the first hop they are one peer.
        let sender = envelope.sender;
        match envelope.body.routed_src() {
            Some(src) if src == sender => self.state.learn_twice(sender),
            src => {
                self.state.learn(sender);
                src.into_iter().for_each(|src| self.state.learn(src));
            }
        }
        match envelope.body {
            OverlayMsg::Unicast {
                key,
                class,
                payload,
                hops,
                src,
                trace,
            } => {
                routed::handle_unicast(
                    &mut self.state,
                    &mut self.app,
                    key,
                    class,
                    payload,
                    hops,
                    src,
                    trace,
                    ctx,
                );
            }
            OverlayMsg::MCast {
                targets,
                class,
                payload,
                hops,
                src,
                trace,
            } => {
                routed::handle_mcast(
                    &mut self.state,
                    &mut self.app,
                    targets,
                    class,
                    payload,
                    hops,
                    src,
                    trace,
                    ctx,
                );
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
                routed::handle_walk(
                    &mut self.state,
                    &mut self.app,
                    range,
                    class,
                    payload,
                    hops,
                    src,
                    walking,
                    trace,
                    ctx,
                );
            }
            OverlayMsg::Direct { payload, class } => {
                let _ = class;
                routed::handle_direct(&mut self.state, &mut self.app, sender, payload, ctx);
            }
            OverlayMsg::FindSucc {
                target,
                reply_to,
                token,
                hops,
            } => {
                self.state.learn(reply_to);
                self.handle_find_succ(target, reply_to, token, hops, ctx);
            }
            OverlayMsg::FindSuccReply { token, succ, hops } => {
                self.handle_find_succ_reply(token, succ, hops, ctx);
            }
            OverlayMsg::GetPred => {
                let pred = self.state.predecessor();
                let succ_list = self.state.successors().to_vec();
                self.send_body(
                    ctx,
                    sender.idx,
                    OverlayMsg::GetPredReply { pred, succ_list },
                );
            }
            OverlayMsg::GetPredReply { pred, succ_list } => {
                self.handle_get_pred_reply(pred, succ_list, sender.idx, ctx);
            }
            OverlayMsg::Notify { peer } => {
                let me = self.state.me();
                let space = self.state.space();
                let adopt = match self.state.predecessor() {
                    None => true,
                    Some(p) => space.in_arc_oo(peer.key, p.key, me.key),
                };
                if adopt && peer.key != me.key {
                    self.set_predecessor_with_hook(Some(peer), ctx);
                }
                // A lone node learns its first peer: adopt as successor too.
                if self.state.successor().is_none() && peer.key != me.key {
                    self.state.set_successors(vec![peer]);
                }
            }
            OverlayMsg::LeaveNotice {
                leaving,
                replacement,
            } => {
                let me = self.state.me();
                if self.state.predecessor() == Some(leaving) {
                    let new = if replacement.key == me.key {
                        None
                    } else {
                        Some(replacement)
                    };
                    self.set_predecessor_with_hook(new, ctx);
                }
                if self.state.successor() == Some(leaving) {
                    self.state.forget(leaving);
                    if self.state.successor().is_none() && replacement.key != me.key {
                        self.state.set_successors(vec![replacement]);
                    }
                } else {
                    self.state.forget(leaving);
                }
            }
            OverlayMsg::Ping { token } => {
                self.send_body(ctx, sender.idx, OverlayMsg::Pong { token });
            }
            OverlayMsg::Pong { token } => {
                self.pending.remove(&token);
            }
        }
    }

    fn on_send_failed(
        &mut self,
        to: NodeIdx,
        envelope: Envelope<A::Payload>,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    ) {
        // The peer refused the connection: it is dead. Scrub every routing
        // entry for it, then re-dispatch routed payloads along the repaired
        // state (maintenance traffic is periodic and simply retries later).
        self.state.forget_idx(to);
        match envelope.body {
            OverlayMsg::Unicast {
                key,
                class,
                payload,
                hops,
                src,
                trace,
            } => {
                routed::handle_unicast(
                    &mut self.state,
                    &mut self.app,
                    key,
                    class,
                    payload,
                    hops,
                    src,
                    trace,
                    ctx,
                );
            }
            OverlayMsg::MCast {
                targets,
                class,
                payload,
                hops,
                src,
                trace,
            } => {
                routed::handle_mcast(
                    &mut self.state,
                    &mut self.app,
                    targets,
                    class,
                    payload,
                    hops,
                    src,
                    trace,
                    ctx,
                );
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
                routed::handle_walk(
                    &mut self.state,
                    &mut self.app,
                    range,
                    class,
                    payload,
                    hops,
                    src,
                    walking,
                    trace,
                    ctx,
                );
            }
            OverlayMsg::FindSucc {
                target,
                reply_to,
                token,
                hops,
            } => {
                self.handle_find_succ(target, reply_to, token, hops, ctx);
            }
            _ => {}
        }
    }

    #[inline]
    fn prefetch(&self, stage: PrefetchStage, queued: Option<(NodeIdx, &Self::Msg)>) {
        self.state.prefetch(stage);
        let queued = queued.and_then(|(me, msg)| Some((me, msg.body.unicast_payload()?)));
        self.app.prefetch(stage, queued);
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self::Msg, Self::Timer>) {
        match timer {
            OverlayTimer::Stabilize => self.handle_stabilize(ctx),
            OverlayTimer::FixFingers => self.handle_fix_fingers(ctx),
            OverlayTimer::ProbeTimeout { token } => {
                if let Some(Pending::Ping(peer)) = self.pending.remove(&token) {
                    self.state.forget(peer);
                }
            }
            OverlayTimer::App(t) => {
                routed::handle_app_timer(&mut self.state, &mut self.app, t, ctx);
            }
        }
    }
}
