//! The user-facing system façade: a whole simulated deployment — overlay,
//! pub/sub layer and clock — behind one handle.

use std::sync::Arc;

use cbps_overlay::{Peer, RingView};
use cbps_sim::{
    Metrics, NetConfig, NodeIdx, ObsMode, SimDuration, SimTime, Simulator, StageRecord, TraceId,
};

use crate::backend::{fresh_apps, ChordBackend, OverlayBackend};
use crate::config::PubSubConfig;
use crate::error::{ConfigError, PubSubError};
use crate::event::{Event, EventId};
use crate::msg::DeliveredNote;
use crate::node::PubSubNode;
use crate::subscription::{SubId, Subscription};

/// A complete simulated content-based pub/sub deployment.
///
/// Wraps the simulator, one structured-overlay substrate (the
/// [`OverlayBackend`] type parameter; Chord by default) and the pub/sub
/// layer; exposes the application operations of §4.1 (`sub`, `unsub`,
/// `pub`, `notify` via [`PubSubNetwork::delivered`]) together with clock
/// control and measurement access. The aliases
/// [`ChordPubSub`](crate::ChordPubSub) and `PastryPubSub` (in
/// `cbps-pastry`) name the two bundled substrates.
///
/// # Examples
///
/// ```
/// use cbps::{Event, PubSubConfig, PubSubNetwork, Subscription};
///
/// let mut net = PubSubNetwork::builder()
///     .nodes(50)
///     .seed(7)
///     .build()?;
/// let space = net.config().space.clone();
///
/// // Node 3 subscribes to a0 ∈ [100_000, 200_000].
/// let sub = Subscription::builder(&space).range("a0", 100_000, 200_000)?.build()?;
/// let sub_id = net.node(3)?.subscribe(sub, None)?;
/// net.run_for_secs(5);
///
/// // Node 9 publishes a matching event.
/// let event = Event::new(&space, vec![150_000, 1, 2, 3])?;
/// let event_id = net.node(9)?.publish(event)?;
/// net.run_for_secs(5);
///
/// let notes = net.delivered(3);
/// assert_eq!(notes.len(), 1);
/// assert_eq!(notes[0].sub_id, sub_id);
/// assert_eq!(notes[0].event_id, event_id);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PubSubNetwork<B: OverlayBackend = ChordBackend> {
    sim: Simulator<B::Node>,
    ring: RingView,
    cfg: Arc<PubSubConfig>,
    overlay_cfg: B::Config,
}

/// Builder for [`PubSubNetwork`]. Start from
/// [`PubSubNetwork::builder`] (Chord) or
/// [`PubSubNetworkBuilder::new`] with an explicit backend type.
#[derive(Debug)]
pub struct PubSubNetworkBuilder<B: OverlayBackend = ChordBackend> {
    nodes: usize,
    net: NetConfig,
    overlay: B::Config,
    pubsub: PubSubConfig,
    obs: ObsMode,
}

impl<B: OverlayBackend> Clone for PubSubNetworkBuilder<B> {
    fn clone(&self) -> Self {
        PubSubNetworkBuilder {
            nodes: self.nodes,
            net: self.net,
            overlay: self.overlay.clone(),
            pubsub: self.pubsub.clone(),
            obs: self.obs,
        }
    }
}

/// A borrowed view of one node of a [`PubSubNetwork`], obtained through
/// [`PubSubNetwork::node`]. Scopes the application operations (`sub`,
/// `unsub`, `pub`, delivered-notification access) to a node whose index
/// has already been validated.
#[derive(Debug)]
pub struct NodeHandle<'a, B: OverlayBackend = ChordBackend> {
    net: &'a mut PubSubNetwork<B>,
    idx: NodeIdx,
}

impl<B: OverlayBackend> NodeHandle<'_, B> {
    /// The node's index in the network.
    pub fn idx(&self) -> NodeIdx {
        self.idx
    }

    /// `true` while this node has not crashed or left.
    pub fn is_alive(&self) -> bool {
        self.net.is_alive(self.idx)
    }

    /// Issues a subscription from this node (see
    /// [`PubSubNetwork::subscribe`]).
    ///
    /// # Errors
    ///
    /// [`PubSubError::InvalidSubscription`] when the subscription was
    /// built for an event space of a different dimension count.
    pub fn subscribe(
        &mut self,
        sub: Subscription,
        ttl: Option<SimDuration>,
    ) -> Result<SubId, PubSubError> {
        self.net.subscribe(self.idx, sub, ttl)
    }

    /// Withdraws a subscription previously issued by this node. Returns
    /// `false` if this node never issued `id` (or already unsubscribed).
    pub fn unsubscribe(&mut self, id: SubId) -> Result<bool, PubSubError> {
        self.net.unsubscribe(self.idx, id)
    }

    /// Publishes an event from this node (see [`PubSubNetwork::publish`]).
    ///
    /// # Errors
    ///
    /// [`PubSubError::DimensionMismatch`] when the event carries a
    /// different number of attribute values than the network's space.
    pub fn publish(&mut self, event: Event) -> Result<EventId, PubSubError> {
        self.net.publish(self.idx, event)
    }

    /// Notifications received so far by this node as a subscriber.
    pub fn delivered(&self) -> &[DeliveredNote] {
        self.net.delivered(self.idx)
    }
}

impl PubSubNetwork {
    /// Starts configuring a Chord-backed network (defaults: paper
    /// parameters, 500 nodes). For another substrate, start from
    /// [`PubSubNetworkBuilder::new`] with the backend type, e.g.
    /// `PubSubNetworkBuilder::<PastryBackend>::new()`.
    pub fn builder() -> PubSubNetworkBuilder {
        PubSubNetworkBuilder::new()
    }
}

impl<B: OverlayBackend> PubSubNetwork<B> {
    /// The shared pub/sub configuration.
    pub fn config(&self) -> &PubSubConfig {
        &self.cfg
    }

    /// The substrate's overlay configuration.
    pub fn overlay_config(&self) -> &B::Config {
        &self.overlay_cfg
    }

    /// The global ring view (oracle; protocol logic never uses it).
    pub fn ring(&self) -> &RingView {
        &self.ring
    }

    /// Number of nodes (including crashed ones).
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// `true` when the network has no nodes (never: construction requires
    /// at least one).
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Exclusive access to the run's metrics (e.g. to clear between
    /// measurement phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.sim.metrics_mut()
    }

    /// Direct access to the underlying simulator (advanced scenarios:
    /// crash/revive, custom timers).
    pub fn sim_mut(&mut self) -> &mut Simulator<B::Node> {
        &mut self.sim
    }

    /// The pub/sub state of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn app(&self, node: NodeIdx) -> &PubSubNode {
        B::app(self.sim.node(node))
    }

    /// Notifications received so far by `node` as a subscriber.
    pub fn delivered(&self, node: NodeIdx) -> &[DeliveredNote] {
        self.app(node).delivered()
    }

    /// Drains `node`'s delivered-notification log in place, retaining
    /// allocated capacity (see [`PubSubNode::clear_delivered`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn clear_delivered(&mut self, node: NodeIdx) {
        B::app_mut(self.sim.node_mut(node)).clear_delivered();
    }

    /// Grows `node`'s hot-path buffers to their steady-state bounds (see
    /// [`PubSubNode::warm`]). Measurement harnesses call this after their
    /// warmup pass so cold-start growth is not charged to the measured
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn warm_node(&mut self, node: NodeIdx) {
        let n = self.sim.node_mut(node);
        B::app_mut(n).warm();
        B::warm_overlay(n);
    }

    /// Pre-sizes every node's rendezvous-side containers for a bulk
    /// installation of `subs` subscriptions total (see
    /// [`PubSubNode::reserve_workload`]). Each subscription lands on one
    /// rendezvous range split across a handful of nodes, so the per-node
    /// estimate is `4 * subs / n`; over- or under-estimating only shifts
    /// when growth happens, never what is stored or matched.
    pub fn reserve_workload(&mut self, subs: usize) {
        let n = self.len().max(1);
        let per_node = (subs * 4).div_ceil(n).min(subs);
        for node in 0..self.len() {
            B::app_mut(self.sim.node_mut(node)).reserve_workload(per_node);
        }
    }

    /// A validated handle on one node, scoping the application operations
    /// to it: `net.node(3)?.subscribe(sub, None)?`.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownNode`] when `node` is out of bounds.
    pub fn node(&mut self, node: NodeIdx) -> Result<NodeHandle<'_, B>, PubSubError> {
        self.check_node(node)?;
        Ok(NodeHandle {
            net: self,
            idx: node,
        })
    }

    fn check_node(&self, node: NodeIdx) -> Result<(), PubSubError> {
        let nodes = self.sim.len();
        if node >= nodes {
            return Err(PubSubError::UnknownNode { node, nodes });
        }
        Ok(())
    }

    /// Issues a subscription from `node` with an optional TTL (overriding
    /// the configured default).
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownNode`] when `node` is out of bounds;
    /// [`PubSubError::InvalidSubscription`] when the subscription was
    /// built for an event space of a different dimension count.
    pub fn subscribe(
        &mut self,
        node: NodeIdx,
        sub: Subscription,
        ttl: Option<SimDuration>,
    ) -> Result<SubId, PubSubError> {
        self.check_node(node)?;
        let expected = self.cfg.space.dims();
        if sub.dims() != expected {
            return Err(PubSubError::InvalidSubscription {
                expected,
                got: sub.dims(),
            });
        }
        Ok(self.sim.with_node(node, |n, ctx| {
            B::app_call(n, ctx, |app, svc| app.subscribe(sub, ttl, svc))
        }))
    }

    /// Validates and issues a subscription built from raw constraint slots.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of
    /// [`Subscription::from_constraints`].
    pub fn try_subscribe(
        &mut self,
        node: NodeIdx,
        constraints: Vec<Option<crate::subscription::Constraint>>,
        ttl: Option<SimDuration>,
    ) -> Result<SubId, PubSubError> {
        let sub = Subscription::from_constraints(&self.cfg.space, constraints)?;
        self.subscribe(node, sub, ttl)
    }

    /// Issues a disjunction of subscriptions from `node`: the subscriber
    /// is notified when an event matches **any** of them (§3.2:
    /// "disjunctive constraints can be treated as separate
    /// subscriptions"). Returns one id per disjunct; subscriber-side
    /// deduplication guarantees at most one notification per
    /// `(disjunct, event)` pair, so an event matching several disjuncts
    /// notifies once per matching disjunct.
    ///
    /// # Errors
    ///
    /// Stops at the first disjunct that fails validation (earlier
    /// disjuncts stay issued).
    pub fn subscribe_any(
        &mut self,
        node: NodeIdx,
        subs: impl IntoIterator<Item = Subscription>,
        ttl: Option<SimDuration>,
    ) -> Result<Vec<SubId>, PubSubError> {
        subs.into_iter()
            .map(|sub| self.subscribe(node, sub, ttl))
            .collect()
    }

    /// Withdraws a subscription previously issued by `node`. Returns
    /// `Ok(false)` if `node` never issued `id` (or already unsubscribed).
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownNode`] when `node` is out of bounds.
    pub fn unsubscribe(&mut self, node: NodeIdx, id: SubId) -> Result<bool, PubSubError> {
        self.check_node(node)?;
        Ok(self.sim.with_node(node, |n, ctx| {
            B::app_call(n, ctx, |app, svc| app.unsubscribe(id, svc))
        }))
    }

    /// Publishes an event from `node`.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownNode`] when `node` is out of bounds;
    /// [`PubSubError::DimensionMismatch`] when the event carries a
    /// different number of attribute values than the network's space.
    pub fn publish(&mut self, node: NodeIdx, event: Event) -> Result<EventId, PubSubError> {
        self.check_node(node)?;
        let expected = self.cfg.space.dims();
        if event.dims() != expected {
            return Err(PubSubError::DimensionMismatch {
                expected,
                got: event.dims(),
            });
        }
        Ok(self.sim.with_node(node, |n, ctx| {
            B::app_call(n, ctx, |app, svc| app.publish(event, svc))
        }))
    }

    /// Validates and publishes an event from raw values.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Event::new`].
    pub fn try_publish(&mut self, node: NodeIdx, values: Vec<u64>) -> Result<EventId, PubSubError> {
        let event = Event::new(&self.cfg.space, values)?;
        self.publish(node, event)
    }

    /// The active observability mode.
    pub fn observability(&self) -> ObsMode {
        self.sim.metrics().obs().mode()
    }

    /// Switches observability (causal tracing + stage histograms) on or
    /// off. Observation never alters protocol behavior: the same run
    /// produces identical results under every mode.
    pub fn set_observability(&mut self, mode: ObsMode) {
        self.sim.metrics_mut().obs_mut().set_mode(mode);
    }

    /// The recorded stage chain of one operation — every `(stage, node,
    /// time)` record carrying `trace`, in recording order. Empty unless
    /// observability was enabled while the operation ran.
    pub fn explain(&self, trace: TraceId) -> Vec<StageRecord> {
        self.sim.metrics().obs().log().chain(trace)
    }

    /// Advances the simulation to the given absolute time.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Advances the simulation by `secs` simulated seconds.
    pub fn run_for_secs(&mut self, secs: u64) {
        let t = self.sim.now() + SimDuration::from_secs(secs);
        self.run_until(t);
    }

    /// Runs until the event queue drains (only terminates when no periodic
    /// timers are armed).
    pub fn run_to_quiescence(&mut self) {
        self.sim.run();
    }

    /// Cumulative rendezvous work units (publications processed + matches
    /// produced) of every node — the load that load-skew reports read.
    pub fn rendezvous_work_counts(&self) -> Vec<u64> {
        self.sim
            .nodes()
            .map(|(_, n)| B::app(n).rendezvous_work())
            .collect()
    }

    /// Stored-subscription count of every node (rendezvous primaries).
    pub fn stored_counts(&self) -> Vec<usize> {
        self.sim
            .nodes()
            .map(|(_, n)| B::app(n).store().len())
            .collect()
    }

    /// Peak stored-subscription count per node — the metric of Figures 6
    /// and 8.
    pub fn peak_stored_counts(&self) -> Vec<usize> {
        self.sim
            .nodes()
            .map(|(_, n)| B::app(n).store().peak())
            .collect()
    }

    /// `true` while `node` has not crashed or left.
    pub fn is_alive(&self, node: NodeIdx) -> bool {
        self.sim.is_alive(node)
    }

    /// Crashes a node abruptly (fail-stop).
    pub fn crash(&mut self, node: NodeIdx) {
        self.sim.crash(node);
    }

    /// Makes `node` leave gracefully: state is pushed to its successor and
    /// its neighbors are relinked before it goes silent.
    ///
    /// # Panics
    ///
    /// Panics on a substrate with static membership
    /// (`B::SUPPORTS_CHURN == false`).
    pub fn leave(&mut self, node: NodeIdx) {
        assert!(
            B::SUPPORTS_CHURN,
            "the {} substrate has static membership: leave() is unsupported",
            B::NAME
        );
        self.sim.with_node(node, |n, ctx| B::start_leave(n, ctx));
        self.sim.crash(node);
    }

    /// Adds a brand-new node that joins through `bootstrap`. Requires the
    /// overlay to have maintenance enabled (stabilization integrates the
    /// joiner). Returns the new node's index.
    ///
    /// # Panics
    ///
    /// Panics on a substrate with static membership
    /// (`B::SUPPORTS_CHURN == false`).
    pub fn join_new_node(&mut self, key_seed: &str, bootstrap: NodeIdx) -> NodeIdx {
        assert!(
            B::SUPPORTS_CHURN,
            "the {} substrate has static membership: join_new_node() is unsupported",
            B::NAME
        );
        let space = B::key_space(&self.overlay_cfg);
        let mut key = cbps_overlay::hash::key_of_bytes(space, key_seed.as_bytes());
        while self.sim.nodes().any(|(_, n)| B::me(n).key == key) {
            key = space.add(key, 1);
        }
        let idx = self.sim.len();
        let me = Peer { idx, key };
        let node = B::new_node(
            &self.overlay_cfg,
            me,
            PubSubNode::new(Arc::clone(&self.cfg)),
        );
        let added = self.sim.add_node(node);
        debug_assert_eq!(added, idx);
        let boot = B::me(self.sim.node(bootstrap));
        self.sim
            .with_node(idx, |n, ctx| B::start_join(n, boot, ctx));
        idx
    }
}

impl<B: OverlayBackend> Default for PubSubNetworkBuilder<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: OverlayBackend> PubSubNetworkBuilder<B> {
    /// Starts a builder with the substrate's paper-default configuration
    /// and 500 nodes.
    pub fn new() -> Self {
        PubSubNetworkBuilder {
            nodes: 500,
            net: NetConfig::new(0),
            overlay: B::paper_default(),
            pubsub: PubSubConfig::paper_default(),
            obs: ObsMode::Off,
        }
    }

    /// Sets the number of nodes (validated in
    /// [`build`](PubSubNetworkBuilder::build)).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the observability mode the network starts with (default:
    /// [`ObsMode::Off`]).
    pub fn observability(mut self, mode: ObsMode) -> Self {
        self.obs = mode;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.net.seed = seed;
        self
    }

    /// Replaces the network-level configuration (delay model, loss).
    pub fn net_config(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replaces the substrate's overlay configuration.
    pub fn overlay(mut self, overlay: B::Config) -> Self {
        self.overlay = overlay;
        self
    }

    /// Replaces the pub/sub configuration.
    pub fn pubsub(mut self, pubsub: PubSubConfig) -> Self {
        self.pubsub = pubsub;
        self
    }

    /// Builds the network with a converged ring, validating the
    /// configuration first.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoNodes`] for an empty network;
    /// [`ConfigError::KeySpaceMismatch`] when the pub/sub mapping's key
    /// space differs from the overlay's;
    /// [`ConfigError::ReplicationTooLarge`] when the replication factor
    /// exceeds the successor-list length;
    /// [`ConfigError::ZeroFlushPeriod`] when a buffered or collecting
    /// notify mode has a zero period.
    pub fn build(self) -> Result<PubSubNetwork<B>, ConfigError> {
        self.validate()?;
        Ok(self.build_unchecked())
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.pubsub.mapping.key_space() != B::key_space(&self.overlay) {
            return Err(ConfigError::KeySpaceMismatch {
                mapping_bits: self.pubsub.mapping.key_space().bits(),
                overlay_bits: B::key_space(&self.overlay).bits(),
            });
        }
        if self.pubsub.replication > B::replication_capacity(&self.overlay) {
            return Err(ConfigError::ReplicationTooLarge {
                replication: self.pubsub.replication,
                succ_list_len: B::replication_capacity(&self.overlay),
            });
        }
        match self.pubsub.notify_mode {
            crate::config::NotifyMode::Buffered { period }
            | crate::config::NotifyMode::Collecting { period }
                if period.is_zero() =>
            {
                return Err(ConfigError::ZeroFlushPeriod)
            }
            _ => {}
        }
        Ok(())
    }

    /// Builds without validating — the escape hatch for callers that have
    /// already validated (or deliberately construct a degenerate network).
    ///
    /// # Panics
    ///
    /// Panics on a zero-node network; other invalid configurations
    /// produce a network whose behavior is unspecified (replicas silently
    /// dropped, misrouted rendezvous, busy flush loops).
    pub fn build_unchecked(self) -> PubSubNetwork<B> {
        assert!(self.nodes > 0, "a network needs at least one node");
        let cfg = self.pubsub.into_shared();
        let apps = fresh_apps(&cfg, self.nodes);
        let (sim, ring) = B::build(self.net, &self.overlay, apps);
        let mut net = PubSubNetwork {
            sim,
            ring,
            cfg,
            overlay_cfg: self.overlay,
        };
        if self.obs.enabled() {
            net.set_observability(self.obs);
        }
        net
    }
}
