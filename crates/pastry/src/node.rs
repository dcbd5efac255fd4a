//! The Pastry node: a thin shell over the shared routed-message handlers.
//!
//! All payload mechanics (unicast forwarding, `m-cast` splitting, the
//! conservative range walk, delivery staging and dilation accounting) live
//! in [`cbps_overlay::routed`], written once against the [`RouteTable`]
//! surface that [`PastryState`] implements. What remains here is the
//! substrate's identity: wiring the simulator upcalls to those handlers.
//! Membership is static (the converged-network mode the paper's
//! experiments run in), so the Chord maintenance messages an
//! [`OverlayMsg`] can carry are ignored and only application timers fire.

use cbps_overlay::routed;
use cbps_overlay::{
    Envelope, OverlayApp, OverlayMsg, OverlayServices, OverlaySvc, OverlayTimer, Peer,
};
use cbps_sim::{Context, Node, NodeIdx, PrefetchStage};

use crate::state::PastryState;

/// A Pastry overlay node hosting an application.
///
/// Speaks the same wire [`Envelope`]/[`OverlayMsg`] language and hosts the
/// same [`OverlayApp`] type as the Chord node, so applications and
/// deployment layers are substrate-generic.
#[derive(Debug)]
pub struct PastryNode<A: OverlayApp> {
    state: PastryState,
    app: A,
}

impl<A: OverlayApp> PastryNode<A> {
    /// Creates a node from converged routing state.
    pub fn new(state: PastryState, app: A) -> Self {
        PastryNode { state, app }
    }

    /// This node's identity.
    pub fn me(&self) -> Peer {
        self.state.me()
    }

    /// The routing state for inspection.
    pub fn routing(&self) -> &PastryState {
        &self.state
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Exclusive access to the hosted application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Runs an application-level call with a live service handle — the way
    /// external drivers invoke `sub()` / `pub()` on a node.
    pub fn app_call<R>(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Payload>, OverlayTimer<A::Timer>>,
        f: impl FnOnce(&mut A, &mut dyn OverlayServices<A::Payload, A::Timer>) -> R,
    ) -> R {
        let mut svc = OverlaySvc::new(&mut self.state, ctx);
        f(&mut self.app, &mut svc)
    }
}

impl<A: OverlayApp> Node for PastryNode<A> {
    type Msg = Envelope<A::Payload>;
    type Timer = OverlayTimer<A::Timer>;

    fn on_message(
        &mut self,
        _from: NodeIdx,
        envelope: Envelope<A::Payload>,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    ) {
        let sender = envelope.sender;
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
            // Chord ring-maintenance messages; never sent on the static
            // Pastry substrate.
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
        // Maintenance timers are never armed on the static substrate.
        if let OverlayTimer::App(t) = timer {
            routed::handle_app_timer(&mut self.state, &mut self.app, t, ctx);
        }
    }
}
