//! The overlay-backend abstraction behind [`PubSubNetwork`](crate::PubSubNetwork).
//!
//! The paper claims (§3.1, footnote 1) the pub/sub infrastructure "can use
//! any overlay routing scheme". The *node* logic has always been
//! overlay-neutral via [`cbps_overlay::OverlayServices`]; this trait makes
//! the *deployment* layer neutral too: everything the system façade needs
//! from a substrate — its node type, a converged-network constructor and a
//! way to reach the hosted application — so a single generic
//! `PubSubNetwork<B>` serves Chord, Pastry, and any future substrate (a
//! Kademlia sketch, an idealized one-hop overlay) without a twin façade.
//! Every item is one that each substrate implements; join and leave are
//! Chord's alone, so they are inherent methods of [`ChordPubSub`].

use std::fmt;

use cbps_overlay::{
    build_stable_from, ChordNode, Envelope, KeySpace, OverlayConfig, OverlayServices, OverlayTimer,
    RingView,
};
use cbps_sim::{Context, NetConfig, Node, Simulator};

use crate::msg::{PubSubMsg, PubSubTimer};
use crate::node::PubSubNode;

/// The simulator context type a backend's node runs in (all backends share
/// the wire envelope and timer types, so deployment code is monomorphic in
/// everything but the routing substrate).
pub type BackendCtx<'c> = Context<'c, Envelope<PubSubMsg>, OverlayTimer<PubSubTimer>>;

/// A structured-overlay substrate the pub/sub deployment layer can run on.
///
/// Implementations provide the glue between the generic
/// [`PubSubNetwork`](crate::PubSubNetwork) façade and one substrate's node
/// type: configuration, converged bootstrap and application access.
pub trait OverlayBackend: fmt::Debug + Sized + 'static {
    /// Human-readable backend name (CLI selection, reports).
    const NAME: &'static str;

    /// Substrate configuration (key space, routing parameters).
    type Config: Clone + fmt::Debug;

    /// The substrate's simulator node hosting a [`PubSubNode`].
    type Node: Node<Msg = Envelope<PubSubMsg>, Timer = OverlayTimer<PubSubTimer>> + fmt::Debug;

    /// The evaluation-default configuration (the paper's parameters).
    fn paper_default() -> Self::Config;

    /// The key space of a configuration (validated against the ak-mapping).
    fn key_space(cfg: &Self::Config) -> KeySpace;

    /// The same configuration over a different key space. Used by the
    /// deployment layer to widen the ring for node counts the paper's
    /// 13-bit space cannot hold.
    fn with_key_space(cfg: Self::Config, keys: KeySpace) -> Self::Config;

    /// Pre-faults any lazily allocated substrate-level storage on a node
    /// (e.g. the Chord location cache) so the next routing step performs no
    /// heap allocation. Default: nothing to warm.
    fn warm_overlay(_node: &mut Self::Node) {}

    /// How many replicas the substrate can place (bounds
    /// [`PubSubConfig::replication`](crate::PubSubConfig::replication)):
    /// the successor-list / leaf-set length.
    fn replication_capacity(cfg: &Self::Config) -> usize;

    /// Builds a converged network with one node per app `apps` yields
    /// (node `i` hosts the `i`-th) plus the global ring view. Each app is
    /// taken from the stream as its node is built, so the apps are never
    /// resident twice.
    fn build(
        net: NetConfig,
        cfg: &Self::Config,
        apps: impl ExactSizeIterator<Item = PubSubNode>,
    ) -> (Simulator<Self::Node>, RingView);

    /// The hosted pub/sub application of a node.
    fn app(node: &Self::Node) -> &PubSubNode;

    /// Exclusive access to a node's hosted pub/sub state.
    fn app_mut(node: &mut Self::Node) -> &mut PubSubNode;

    /// Runs an application-level call against a node with a live
    /// overlay-neutral service handle.
    fn app_call<R>(
        node: &mut Self::Node,
        ctx: &mut BackendCtx<'_>,
        f: impl FnOnce(&mut PubSubNode, &mut dyn OverlayServices<PubSubMsg, PubSubTimer>) -> R,
    ) -> R;
}

/// The Chord substrate of [`cbps_overlay`]: finger-table routing with
/// location caching, dynamic membership, successor-list replication.
#[derive(Clone, Copy, Debug)]
pub struct ChordBackend;

impl OverlayBackend for ChordBackend {
    const NAME: &'static str = "chord";

    type Config = OverlayConfig;
    type Node = ChordNode<PubSubNode>;

    fn paper_default() -> OverlayConfig {
        OverlayConfig::paper_default()
    }

    fn key_space(cfg: &OverlayConfig) -> KeySpace {
        cfg.space
    }

    fn with_key_space(cfg: OverlayConfig, keys: KeySpace) -> OverlayConfig {
        cfg.with_space(keys)
    }

    fn warm_overlay(node: &mut Self::Node) {
        node.routing_mut().warm();
    }

    fn replication_capacity(cfg: &OverlayConfig) -> usize {
        cfg.succ_list_len
    }

    fn build(
        net: NetConfig,
        cfg: &OverlayConfig,
        apps: impl ExactSizeIterator<Item = PubSubNode>,
    ) -> (Simulator<Self::Node>, RingView) {
        build_stable_from(net, *cfg, apps)
    }

    fn app(node: &Self::Node) -> &PubSubNode {
        node.app()
    }

    fn app_mut(node: &mut Self::Node) -> &mut PubSubNode {
        node.app_mut()
    }

    fn app_call<R>(
        node: &mut Self::Node,
        ctx: &mut BackendCtx<'_>,
        f: impl FnOnce(&mut PubSubNode, &mut dyn OverlayServices<PubSubMsg, PubSubTimer>) -> R,
    ) -> R {
        node.app_call(ctx, f)
    }
}

/// The pub/sub deployment over the Chord substrate (what plain
/// `PubSubNetwork` resolves to). Only this deployment has dynamic
/// membership: [`leave`](crate::PubSubNetwork::leave) and
/// [`join_new_node`](crate::PubSubNetwork::join_new_node) are its inherent
/// methods.
pub type ChordPubSub = crate::PubSubNetwork<ChordBackend>;
