//! The Pastry node: a thin shell over the shared routed-message handling.
//!
//! All payload mechanics (unicast forwarding, `m-cast` splitting, the
//! conservative range walk, direct messages, delivery staging and dilation
//! accounting) live in [`cbps_overlay::routed`], written once against the
//! [`RouteTable`] surface that [`PastryState`]
//! implements: `on_message` passes every body to
//! [`routed::dispatch`](cbps_overlay::routed::dispatch). Membership is
//! static (the converged-network mode the paper's experiments run in), so
//! the Chord maintenance messages that `dispatch` hands back are ignored
//! and only application timers fire.

use cbps_overlay::routed;
use cbps_overlay::{
    Envelope, OverlayApp, OverlayServices, OverlaySvc, OverlayTimer, Peer, RouteTable,
};
use cbps_sim::{Context, Node, NodeIdx, PrefetchStage};

use crate::state::PastryState;

/// A Pastry overlay node hosting an application.
///
/// Speaks the same wire [`Envelope`]/[`OverlayMsg`](cbps_overlay::OverlayMsg)
/// language and hosts the same [`OverlayApp`] type as the Chord node, so
/// applications and deployment layers are substrate-generic.
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
        // What comes back is Chord ring maintenance, never sent on the
        // static Pastry substrate.
        let _ = routed::dispatch(
            &mut self.state,
            &mut self.app,
            envelope.body,
            Some(envelope.sender),
            ctx,
        );
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
