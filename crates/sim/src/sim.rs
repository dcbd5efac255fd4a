//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns a set of nodes implementing the [`Node`] trait and a
//! time-ordered event queue. Nodes react to message deliveries and timer
//! expirations through a [`Context`] that lets them send further messages
//! and arm timers. Execution is single-threaded and fully deterministic for
//! a given seed and call sequence.

use cbps_rng::Rng;

use crate::config::NetConfig;
use crate::metrics::{Metrics, Series, TrafficClass};
use crate::obs::{Stage, TraceId};
use crate::pool::{EventPool, Handle};
use crate::prefetch::{self, PrefetchStage};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Dense index of a node within a [`Simulator`].
pub type NodeIdx = usize;

/// A simulated protocol participant.
///
/// Implementors define their wire message type and timer token type, and
/// react to deliveries and timer expirations. All outward effects go through
/// the [`Context`].
pub trait Node {
    /// Wire message type exchanged between nodes.
    type Msg;
    /// Token identifying an armed timer when it fires.
    type Timer;

    /// Called when a message sent by `from` arrives at this node.
    fn on_message(
        &mut self,
        from: NodeIdx,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    );

    /// Called when a timer armed by this node expires.
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self::Msg, Self::Timer>);

    /// Called when a message this node sent could not be handed to `to`
    /// because `to` has crashed (modelling a refused connection — detected
    /// one network delay after the send). Randomly *lost* messages do not
    /// trigger this. Default: drop silently.
    fn on_send_failed(
        &mut self,
        to: NodeIdx,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    ) {
        let _ = (to, msg, ctx);
    }

    /// Asks for the cache lines the next upcall on this node will read
    /// (see [`crate::prefetch`]). The event loop calls it with
    /// [`PrefetchStage::Node`] when it queues a message to this node —
    /// `queued` is then that message and this node's index, so that a
    /// line whose address depends on what the message says can be asked
    /// for a network delay before the handler reads it — and with
    /// [`PrefetchStage::Rows`] and no message when it has taken an event
    /// for this node off the queue, crashed or not. Implementations issue
    /// hints only; nothing simulated may depend on a call. Default:
    /// nothing.
    #[inline]
    fn prefetch(&self, stage: PrefetchStage, queued: Option<(NodeIdx, &Self::Msg)>) {
        let _ = (stage, queued);
    }
}

/// Handle passed to node upcalls for interacting with the simulated world.
///
/// Collects the sends and timer arms performed during one upcall; the
/// simulator turns them into queue entries when the upcall returns.
#[derive(Debug)]
pub struct Context<'a, M, T> {
    node: NodeIdx,
    time: SimTime,
    rng: &'a mut Rng,
    metrics: &'a mut Metrics,
    actions: &'a mut Vec<Action<M, T>>,
}

#[derive(Debug)]
enum Action<M, T> {
    Send { to: NodeIdx, msg: M },
    SendLocal { msg: M },
    ArmTimer { delay: SimDuration, timer: T },
}

impl<'a, M, T> Context<'a, M, T> {
    /// Index of the node this upcall runs on.
    pub fn self_idx(&self) -> NodeIdx {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The run's deterministic random number generator.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// The run's metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Sends `msg` to node `to` as one network hop of the given traffic
    /// class. The message is counted in the metrics immediately and arrives
    /// after the configured network delay (unless lost).
    pub fn send(&mut self, to: NodeIdx, class: TrafficClass, msg: M) {
        self.metrics.count_message(class);
        self.actions.push(Action::Send { to, msg });
    }

    /// Hands `msg` back to this same node with zero delay and **without**
    /// counting a network hop: the node is talking to itself (e.g. an
    /// overlay delivering a payload whose rendezvous is the caller).
    pub fn send_local(&mut self, msg: M) {
        self.actions.push(Action::SendLocal { msg });
    }

    /// Arms a one-shot timer on this node, firing after `delay`.
    pub fn arm_timer(&mut self, delay: SimDuration, timer: T) {
        self.actions.push(Action::ArmTimer { delay, timer });
    }

    /// Records that `trace` reached `stage` on this node, now. No-op when
    /// observability is disabled (a single branch).
    #[inline]
    pub fn stage(&mut self, trace: TraceId, stage: Stage, class: TrafficClass) {
        let (node, at) = (self.node, self.time);
        self.metrics.obs_mut().stage(trace, stage, class, node, at);
    }

    /// Records one overlay routing hop taken by `trace` through this node.
    /// No-op when observability is disabled.
    #[inline]
    pub fn route_hop(&mut self, trace: TraceId, class: TrafficClass) {
        let (node, at) = (self.node, self.time);
        self.metrics.obs_mut().hop(trace, class, node, at);
    }
}

#[derive(Debug)]
enum EventKind<M, T> {
    /// A message for `to`; `from == to` for a node talking to itself and
    /// for an external injection, neither of which is a network hop.
    Deliver {
        from: NodeIdx,
        to: NodeIdx,
        msg: M,
    },
    Timer {
        node: NodeIdx,
        timer: T,
    },
}

/// `(time << 64) | seq` packed into one word so queue ordering resolves
/// with a single branch-free integer comparison instead of a
/// lexicographic pair compare.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_micros() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

/// A deterministic discrete-event simulator over a fixed node universe.
///
/// # Examples
///
/// A two-node ping-pong:
///
/// ```
/// use cbps_sim::{Context, NetConfig, Node, NodeIdx, Simulator, TrafficClass};
///
/// struct Ping {
///     got: u32,
/// }
///
/// impl Node for Ping {
///     type Msg = u32;
///     type Timer = ();
///     fn on_message(&mut self, from: NodeIdx, msg: u32, ctx: &mut Context<'_, u32, ()>) {
///         self.got += 1;
///         if msg > 0 {
///             ctx.send(from, TrafficClass::OTHER, msg - 1);
///         }
///     }
///     fn on_timer(&mut self, _: (), _: &mut Context<'_, u32, ()>) {}
/// }
///
/// let mut sim = Simulator::new(NetConfig::new(7));
/// let a = sim.add_node(Ping { got: 0 });
/// let b = sim.add_node(Ping { got: 0 });
/// // a sends 2 to b; each receiver decrements and bounces the ball back.
/// sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 2));
/// sim.run();
/// assert_eq!(sim.node(b).got, 2);
/// assert_eq!(sim.node(a).got, 1);
/// assert_eq!(sim.metrics().messages(TrafficClass::OTHER), 3);
/// ```
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    alive: Vec<bool>,
    /// The event queue (see [`crate::queue`]), a binary heap over 8-byte
    /// pool [`Handle`]s, not event payloads: payloads sit still in `pool`
    /// while the heap's sifts move their tickets (see [`crate::pool`]).
    queue: EventQueue<Handle>,
    pool: EventPool<EventKind<N::Msg, N::Timer>>,
    time: SimTime,
    seq: u64,
    config: NetConfig,
    rng: Rng,
    metrics: Metrics,
    actions: Vec<Action<N::Msg, N::Timer>>,
    events_processed: u64,
    queue_peak: usize,
}

impl<N: Node> std::fmt::Debug for Simulator<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("time", &self.time)
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl<N: Node> Simulator<N> {
    /// Creates a simulator with no nodes.
    pub fn new(config: NetConfig) -> Self {
        Simulator {
            nodes: Vec::new(),
            alive: Vec::new(),
            queue: EventQueue::new(),
            pool: EventPool::new(),
            time: SimTime::ZERO,
            seq: 0,
            config,
            rng: Rng::seed_from_u64(config.seed),
            metrics: Metrics::new(),
            actions: Vec::new(),
            events_processed: 0,
            queue_peak: 0,
        }
    }

    /// Reserves room for exactly `additional` more nodes, so a builder
    /// that knows its deployment size adds them without reallocating the
    /// node array up the doubling ladder: at 10^5 nodes of over a kilobyte
    /// each the ladder's last copy and its slack cost 20 MB of peak memory
    /// and left the heap in a different shape from run to run. The array's
    /// whole 2 MiB pages are advised for transparent huge pages
    /// ([`prefetch::advise_huge_pages`]).
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
        self.alive.reserve_exact(additional);
        prefetch::advise_huge_pages(&self.nodes);
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self, node: N) -> NodeIdx {
        let grows = self.nodes.len() == self.nodes.capacity();
        self.nodes.push(node);
        if grows {
            prefetch::advise_huge_pages(&self.nodes);
        }
        self.alive.push(true);
        self.nodes.len() - 1
    }

    /// Number of nodes ever added (alive or crashed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared access to a node's state.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn node(&self, idx: NodeIdx) -> &N {
        &self.nodes[idx]
    }

    /// Exclusive access to a node's state (for inspection and test setup;
    /// protocol actions should go through [`Simulator::with_node`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn node_mut(&mut self, idx: NodeIdx) -> &mut N {
        &mut self.nodes[idx]
    }

    /// Iterates over `(index, node)` pairs, including crashed nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIdx, &N)> {
        self.nodes.iter().enumerate()
    }

    /// `true` when the node has not been crashed.
    pub fn is_alive(&self, idx: NodeIdx) -> bool {
        self.alive[idx]
    }

    /// Crashes a node: all queued deliveries and timers addressed to it are
    /// silently discarded from now on. Its last state stays inspectable.
    pub fn crash(&mut self, idx: NodeIdx) {
        self.alive[idx] = false;
    }

    /// Marks a crashed node alive again (modelling a restart; the node's
    /// state is whatever it was at crash time — recovery logic is the
    /// application's business).
    pub fn revive(&mut self, idx: NodeIdx) {
        self.alive[idx] = true;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Total upcalls processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The deepest the event queue has been observed (a capacity-planning
    /// and perf-baseline statistic; see `bench --json`). Sampled once per
    /// 64 processed events, so it is a lower bound on the true peak.
    pub fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Exclusive access to the run's metrics.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The run's deterministic RNG (e.g. for workload sampling that should
    /// share the run's seed).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Schedules `msg` to be handed to node `to` at absolute time `when`,
    /// as if the node called itself. No network hop is counted: this is how
    /// workload drivers inject operations.
    ///
    /// # Panics
    ///
    /// Panics if `when` is in the past.
    pub fn inject_at(&mut self, when: SimTime, to: NodeIdx, msg: N::Msg) {
        assert!(when >= self.time, "cannot schedule in the past");
        self.push_event(when, EventKind::Deliver { from: to, to, msg });
    }

    /// Schedules a timer upcall on `node` at absolute time `when`.
    ///
    /// # Panics
    ///
    /// Panics if `when` is in the past.
    pub fn arm_timer_at(&mut self, when: SimTime, node: NodeIdx, timer: N::Timer) {
        assert!(when >= self.time, "cannot schedule in the past");
        self.push_event(when, EventKind::Timer { node, timer });
    }

    /// Runs a closure against a node with a live [`Context`], then applies
    /// the actions it performed. This is how synchronous API calls (e.g. "a
    /// subscriber issues a subscription now") enter the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn with_node<R>(
        &mut self,
        idx: NodeIdx,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg, N::Timer>) -> R,
    ) -> R {
        let mut actions = std::mem::take(&mut self.actions);
        let result = {
            let mut ctx = Context {
                node: idx,
                time: self.time,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                actions: &mut actions,
            };
            f(&mut self.nodes[idx], &mut ctx)
        };
        self.apply_actions(idx, &mut actions);
        self.actions = actions;
        result
    }

    /// Processes a single queued event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((key, handle)) = self.queue.pop() else {
            return false;
        };
        let kind = self.pool.remove(handle);
        let (EventKind::Deliver { to: node, .. } | EventKind::Timer { node, .. }) = &kind;
        // `get`: an index that does not exist fails below, where it
        // always has.
        if let Some(node) = self.nodes.get(*node) {
            node.prefetch(PrefetchStage::Rows, None);
        }
        let time = key_time(key);
        debug_assert!(time >= self.time, "event queue went backwards");
        self.time = time;
        self.events_processed += 1;
        // Queue depth is tracked sparsely (1 in 64 events): `queue_peak`
        // is a sampled statistic and the same sample feeds the
        // `queue.depth` series. Keeping the tracking out of `push_event`
        // leaves the steady-state push branch-lean.
        if self.events_processed & 63 == 0 {
            let depth = self.queue.len() + 1;
            self.queue_peak = self.queue_peak.max(depth);
            self.metrics.record(Series::QueueDepth, depth as u64);
        }
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if self.alive[to] {
                    self.with_node(to, |node, ctx| node.on_message(from, msg, ctx));
                } else if from != to && self.alive[from] {
                    self.with_node(from, |node, ctx| node.on_send_failed(to, msg, ctx));
                }
            }
            EventKind::Timer { node, timer } => {
                if self.alive[node] {
                    self.with_node(node, |node, ctx| node.on_timer(timer, ctx));
                }
            }
        }
        true
    }

    #[inline]
    fn push_event(&mut self, time: SimTime, kind: EventKind<N::Msg, N::Timer>) {
        let seq = self.seq;
        self.seq += 1;
        let handle = self.pool.insert(kind);
        self.queue.push(pack(time, seq), handle);
    }

    fn apply_actions(&mut self, origin: NodeIdx, actions: &mut Vec<Action<N::Msg, N::Timer>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    // Loss is decided at send time; lost messages were
                    // already counted by Context::send.
                    if self.config.loss_probability > 0.0
                        && self.rng.f64() < self.config.loss_probability
                    {
                        continue;
                    }
                    if let Some(node) = self.nodes.get(to) {
                        node.prefetch(PrefetchStage::Node, Some((to, &msg)));
                    }
                    let delay = self.config.delay.sample(&mut self.rng);
                    self.push_event(
                        self.time + delay,
                        EventKind::Deliver {
                            from: origin,
                            to,
                            msg,
                        },
                    );
                }
                Action::SendLocal { msg } => {
                    self.push_event(
                        self.time,
                        EventKind::Deliver {
                            from: origin,
                            to: origin,
                            msg,
                        },
                    );
                }
                Action::ArmTimer { delay, timer } => {
                    self.push_event(
                        self.time + delay,
                        EventKind::Timer {
                            node: origin,
                            timer,
                        },
                    );
                }
            }
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the event queue is empty or `limit` further events have
    /// been processed; returns the number of events processed.
    pub fn run_capped(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Processes every event with `time <= until`, then advances the clock
    /// to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(key) = self.queue.peek_key() {
            if key_time(key) > until {
                break;
            }
            self.step();
        }
        if until > self.time {
            self.time = until;
        }
    }
}
