//! The Pastry [`OverlayBackend`]: plugging the prefix-routing substrate
//! into the generic pub/sub deployment layer of [`cbps`].

use cbps::{BackendCtx, OverlayBackend, PubSubMsg, PubSubNode, PubSubTimer};
use cbps_overlay::{KeySpace, OverlayServices, Peer, RingView};
use cbps_sim::{NetConfig, Simulator};

use crate::builder::build_pastry_stable;
use crate::node::PastryNode;
use crate::state::PastryConfig;

/// The Pastry substrate: bit-prefix routing table plus leaf sets, built
/// statically in converged-network mode (the setting of the paper's
/// experiments). Dynamic membership lives in the Chord substrate; the
/// churn entry points panic here.
#[derive(Clone, Copy, Debug)]
pub struct PastryBackend;

impl OverlayBackend for PastryBackend {
    const NAME: &'static str = "pastry";
    const SUPPORTS_CHURN: bool = false;

    type Config = PastryConfig;
    type Node = PastryNode<PubSubNode>;

    fn paper_default() -> PastryConfig {
        PastryConfig::paper_default()
    }

    fn key_space(cfg: &PastryConfig) -> KeySpace {
        cfg.space
    }

    fn with_key_space(cfg: PastryConfig, keys: KeySpace) -> PastryConfig {
        cfg.with_space(keys)
    }

    fn replication_capacity(cfg: &PastryConfig) -> usize {
        cfg.leaf_len
    }

    fn build(
        net: NetConfig,
        cfg: &PastryConfig,
        apps: impl ExactSizeIterator<Item = PubSubNode>,
    ) -> (Simulator<Self::Node>, RingView) {
        build_pastry_stable(net, *cfg, apps)
    }

    fn app(node: &Self::Node) -> &PubSubNode {
        node.app()
    }

    fn app_mut(node: &mut Self::Node) -> &mut PubSubNode {
        node.app_mut()
    }

    fn me(node: &Self::Node) -> Peer {
        node.me()
    }

    fn app_call<R>(
        node: &mut Self::Node,
        ctx: &mut BackendCtx<'_>,
        f: impl FnOnce(&mut PubSubNode, &mut dyn OverlayServices<PubSubMsg, PubSubTimer>) -> R,
    ) -> R {
        node.app_call(ctx, f)
    }

    fn start_leave(_node: &mut Self::Node, _ctx: &mut BackendCtx<'_>) {
        unreachable!("the pastry substrate has static membership");
    }

    fn new_node(_cfg: &PastryConfig, _me: Peer, _app: PubSubNode) -> Self::Node {
        unreachable!("the pastry substrate has static membership");
    }

    fn start_join(_node: &mut Self::Node, _bootstrap: Peer, _ctx: &mut BackendCtx<'_>) {
        unreachable!("the pastry substrate has static membership");
    }
}

/// The pub/sub deployment over the Pastry substrate — same façade, same
/// builder API and observability surface as the Chord-backed
/// [`cbps::PubSubNetwork`].
pub type PastryPubSub = cbps::PubSubNetwork<PastryBackend>;

/// Builder for [`PastryPubSub`]; start from
/// [`PastryPubSubBuilder::new`].
pub type PastryPubSubBuilder = cbps::PubSubNetworkBuilder<PastryBackend>;
