//! The Pastry [`OverlayBackend`]: plugging the prefix-routing substrate
//! into the generic pub/sub deployment layer of [`cbps`].

use cbps::{BackendCtx, OverlayBackend, PubSubMsg, PubSubNode, PubSubTimer};
use cbps_overlay::{KeySpace, OverlayServices, RingView};
use cbps_sim::{NetConfig, Simulator};

use crate::builder::build_pastry_stable;
use crate::node::PastryNode;
use crate::state::PastryConfig;

/// The Pastry substrate: bit-prefix routing table plus leaf sets, built
/// statically in converged-network mode (the setting of the paper's
/// experiments). Dynamic membership lives in the Chord substrate, so a
/// Pastry deployment has no `leave` or `join_new_node`:
///
/// ```compile_fail,E0599
/// let mut net = cbps_pastry::PastryPubSubBuilder::new().nodes(8).build().unwrap();
/// net.leave(0);
/// ```
///
/// The same calls on the Chord deployment compile and run:
///
/// ```
/// use cbps_overlay::OverlayConfig;
///
/// let mut net = cbps::PubSubNetwork::builder()
///     .nodes(8)
///     .overlay(OverlayConfig::paper_default().with_maintenance(true))
///     .build()
///     .unwrap();
/// net.leave(0);
/// let joiner = net.join_new_node("joiner", 1);
/// net.run_for_secs(60);
/// assert!(!net.is_alive(0) && net.is_alive(joiner));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PastryBackend;

impl OverlayBackend for PastryBackend {
    const NAME: &'static str = "pastry";

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

    fn app_call<R>(
        node: &mut Self::Node,
        ctx: &mut BackendCtx<'_>,
        f: impl FnOnce(&mut PubSubNode, &mut dyn OverlayServices<PubSubMsg, PubSubTimer>) -> R,
    ) -> R {
        node.app_call(ctx, f)
    }
}

/// The pub/sub deployment over the Pastry substrate — same façade, same
/// builder API and observability surface as the Chord-backed
/// [`cbps::PubSubNetwork`].
pub type PastryPubSub = cbps::PubSubNetwork<PastryBackend>;

/// Builder for [`PastryPubSub`]; start from
/// [`PastryPubSubBuilder::new`].
pub type PastryPubSubBuilder = cbps::PubSubNetworkBuilder<PastryBackend>;
