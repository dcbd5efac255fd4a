//! The CB-pub/sub layer of one node (§4.1): computing the ak-mapping,
//! propagating subscriptions and events, storing and matching at
//! rendezvous, dispatching notifications (immediately, buffered, or via the
//! collecting protocol), and transferring state across membership changes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cbps_overlay::{Delivery, KeyRange, KeyRangeSet, OverlayApp, OverlayServices, Peer};
use cbps_sim::prefetch::prefetch;
use cbps_sim::{
    Counter, MatchEngineKind, PrefetchStage, Series, SimDuration, SimTime, Stage, TraceId,
    TrafficClass,
};

use crate::config::{NotifyMode, Primitive, PubSubConfig};
use crate::dedup::PairSet;
use crate::event::{Event, EventId};
use crate::msg::{CollectItem, DeliveredNote, NotifyBatch, NotifyItem, PubSubMsg, PubSubTimer};
use crate::rendezvous::{assign_group, shift_set, SweepKind, SweepOp};
use crate::store::{MatchHit, StoredSub, SubscriptionStore};
use crate::subscription::{IdSet, SubId, Subscription};

/// The capacity a `Vec` of word-sized (or larger) elements allocates on
/// its first push.
const FIRST_GROWTH: usize = 4;

/// Bound on the rendezvous-side event dedup window (events can arrive once
/// per target key under per-key unicast).
const SEEN_EVENTS_CAP: usize = 4096;

/// The overlay-neutral service surface the pub/sub logic is written
/// against — any overlay implementing [`OverlayServices`] can host it
/// (§3.1: the infrastructure "can use any overlay routing scheme").
pub type DynSvc<'x> = dyn OverlayServices<PubSubMsg, PubSubTimer> + 'x;

/// The pub/sub application state of one node: subscriber, publisher and
/// rendezvous roles combined (every node can play all three, §3.2).
#[derive(Debug)]
pub struct PubSubNode {
    cfg: Arc<PubSubConfig>,
    /// Rendezvous role: primary stored subscriptions. Boxed: more than
    /// half of this value's bytes and idle at every relay, so it stays out
    /// of the node array a routed hop strides over.
    store: Box<SubscriptionStore>,
    /// Passive replicas held for ring predecessors (activated on failure).
    replicas: HashMap<SubId, Arc<StoredSub>>,
    /// Subscriber role: subscriptions this node issued.
    my_subs: HashMap<SubId, Arc<StoredSub>>,
    next_sub_seq: u32,
    next_event_seq: u32,
    delivered: Vec<DeliveredNote>,
    delivered_dedup: PairSet,
    /// Rendezvous-side event dedup (per-key unicast can deliver the same
    /// event several times to one node).
    seen_events: IdSet<EventId>,
    seen_order: VecDeque<EventId>,
    /// Buffered notifications per subscriber (buffering optimization).
    notify_buffer: HashMap<Peer, Vec<NotifyItem>>,
    /// Collect items heading clockwise / counter-clockwise.
    collect_succ: Vec<CollectItem>,
    collect_pred: Vec<CollectItem>,
    /// Matches aggregated at this node as a range agent.
    agent_buffer: HashMap<Peer, Vec<NotifyItem>>,
    flush_armed: bool,
    /// Reused match-result buffer for `handle_publish` (hot path; see
    /// [`SubscriptionStore::match_event_into`]).
    match_buf: Vec<MatchHit>,
    /// Cumulative rendezvous work (publications processed + matches
    /// produced) — the load signal the adaptive rendezvous control loop
    /// reads. A plain counter: maintaining it never changes behavior.
    work: u64,
}

impl PubSubNode {
    /// Creates the pub/sub state for one node under a shared configuration,
    /// using the default matching engine.
    pub fn new(cfg: Arc<PubSubConfig>) -> Self {
        PubSubNode::with_engine(cfg, MatchEngineKind::default())
    }

    /// Creates the pub/sub state for one node with an explicit matching
    /// engine (the configuration's covering flag applies either way).
    pub fn with_engine(cfg: Arc<PubSubConfig>, engine: MatchEngineKind) -> Self {
        let store = SubscriptionStore::with_options(&cfg.space, engine, cfg.covering);
        PubSubNode {
            cfg,
            store: Box::new(store),
            replicas: HashMap::new(),
            my_subs: HashMap::new(),
            next_sub_seq: 0,
            next_event_seq: 0,
            delivered: Vec::new(),
            delivered_dedup: PairSet::default(),
            seen_events: IdSet::default(),
            seen_order: VecDeque::new(),
            notify_buffer: HashMap::new(),
            collect_succ: Vec::new(),
            collect_pred: Vec::new(),
            agent_buffer: HashMap::new(),
            flush_armed: false,
            match_buf: Vec::new(),
            work: 0,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &PubSubConfig {
        &self.cfg
    }

    /// The rendezvous store (primary subscriptions held for others).
    pub fn store(&self) -> &SubscriptionStore {
        &self.store
    }

    /// Number of passive replicas currently held.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Cumulative rendezvous work units (publications processed plus
    /// matches produced) since the node was created — the per-node load
    /// signal of the adaptive rendezvous layer.
    pub fn rendezvous_work(&self) -> u64 {
        self.work
    }

    /// Notifications received by this node as a subscriber, in arrival
    /// order (logically deduplicated).
    pub fn delivered(&self) -> &[DeliveredNote] {
        &self.delivered
    }

    /// Empties the delivered-notification log (and its dedup set) in
    /// place, retaining allocated capacity. Long-running drivers drain the
    /// log between measurement windows so it never grows unboundedly; the
    /// allocation audit relies on the retained capacity to keep
    /// steady-state deliveries heap-quiet.
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
        self.delivered_dedup.clear();
    }

    /// Subscriptions issued by this node that have not been unsubscribed.
    pub fn my_subscriptions(&self) -> impl Iterator<Item = (SubId, &Subscription)> {
        self.my_subs.iter().map(|(&id, s)| (id, &s.sub))
    }

    // ------------------------------------------------------------------
    // Application API (sub / pub / unsub), invoked through `app_call`.
    // ------------------------------------------------------------------

    /// `sub(σ)`: maps the subscription to its rendezvous keys and
    /// propagates it with the configured primitive. Returns the new id.
    pub fn subscribe(
        &mut self,
        sub: Subscription,
        ttl: Option<SimDuration>,
        svc: &mut DynSvc<'_>,
    ) -> SubId {
        let me = svc.me();
        let id = SubId::compose(me.idx, self.next_sub_seq);
        let trace = TraceId::for_subscription(me.idx, self.next_sub_seq);
        self.next_sub_seq += 1;
        svc.stage(trace, Stage::Subscribe, TrafficClass::SUBSCRIPTION);
        let (sk, subgroups) = self.cfg.rendezvous.sub_targets(&self.cfg.mapping, &sub, id);
        let expires = match ttl.or(self.cfg.default_ttl) {
            Some(d) => svc.now() + d,
            None => SimTime::MAX,
        };
        // The one record of this subscription: this node, the messages
        // carrying it and every rendezvous store hold handles to it.
        let stored = Arc::new(StoredSub {
            sub,
            subscriber: me,
            expires,
            sk: sk.clone(),
            trace,
            subgroups,
        });
        self.my_subs.insert(id, Arc::clone(&stored));
        svc.metrics().add("requests.subscribe", 1);
        svc.metrics()
            .histogram_mut("keys.per-subscription")
            .record(sk.count());
        if self.cfg.lease_refresh && expires != SimTime::MAX {
            svc.arm_timer(
                expires.saturating_since(svc.now()) / 2,
                PubSubTimer::Refresh { id },
            );
        }
        self.propagate(
            &sk,
            TrafficClass::SUBSCRIPTION,
            PubSubMsg::Subscribe { id, stored },
            trace,
            svc,
        );
        id
    }

    /// Lease refresh: re-issue a still-wanted subscription with a renewed
    /// expiry and re-arm the half-lease timer. Unsubscribed or lapsed
    /// local records stop the cycle.
    fn refresh_lease(&mut self, id: SubId, svc: &mut DynSvc<'_>) {
        let Some(record) = self.my_subs.get(&id) else {
            return; // unsubscribed in the meantime
        };
        let old_expiry = record.expires;
        let now = svc.now();
        if old_expiry == SimTime::MAX || old_expiry <= now {
            return; // nothing to extend / already lapsed locally
        }
        // Extend by the original lease length, measured from now.
        let half_lease = old_expiry.saturating_since(now);
        let new_expiry = now + half_lease * 2;
        // Recompute the rendezvous targets: under the adaptive policy the
        // split table may have changed since the subscription was issued,
        // and the refresh must land wherever the record now lives.
        let (sk, subgroups) = {
            let record = self.my_subs.get(&id).expect("checked above");
            self.cfg
                .rendezvous
                .sub_targets(&self.cfg.mapping, &record.sub, id)
        };
        // A renewed record replaces the shared one; the old one is never
        // written to.
        let record = self.my_subs.get_mut(&id).expect("checked above");
        let stored = Arc::new(StoredSub {
            expires: new_expiry,
            sk,
            subgroups,
            ..StoredSub::clone(record)
        });
        *record = Arc::clone(&stored);
        svc.metrics().add("requests.refresh", 1);
        svc.arm_timer(half_lease, PubSubTimer::Refresh { id });
        let trace = stored.trace;
        self.propagate(
            &stored.sk,
            TrafficClass::SUBSCRIPTION,
            PubSubMsg::Subscribe {
                id,
                stored: Arc::clone(&stored),
            },
            trace,
            svc,
        );
    }

    /// `unsub(σ)`: removes the subscription from its rendezvous nodes.
    /// Returns `false` if this node never issued `id` (or already
    /// unsubscribed).
    pub fn unsubscribe(&mut self, id: SubId, svc: &mut DynSvc<'_>) -> bool {
        let Some(stored) = self.my_subs.remove(&id) else {
            return false;
        };
        svc.metrics().add("requests.unsubscribe", 1);
        // Target every key the record may currently be stored under (a
        // superset: under the adaptive policy the record may have been
        // migrated since it was issued, and a removal routed to a key
        // holding no copy is a no-op).
        let (targets, _) = self
            .cfg
            .rendezvous
            .resident_targets(&self.cfg.mapping, &stored.sub, id);
        self.propagate(
            &targets,
            TrafficClass::SUBSCRIPTION,
            PubSubMsg::Unsubscribe { id },
            stored.trace,
            svc,
        );
        true
    }

    /// `pub(e)`: maps the event to its rendezvous keys and propagates it.
    /// Returns the new event id.
    pub fn publish(&mut self, event: Event, svc: &mut DynSvc<'_>) -> EventId {
        let me = svc.me();
        let id = EventId::compose(me.idx, self.next_event_seq);
        let trace = TraceId::for_publication(me.idx, self.next_event_seq);
        self.next_event_seq += 1;
        svc.stage(trace, Stage::Publish, TrafficClass::PUBLICATION);
        let ek = self.cfg.rendezvous.pub_targets(&self.cfg.mapping, &event);
        svc.metrics().add("requests.publish", 1);
        svc.metrics()
            .histogram_mut("keys.per-publication")
            .record(ek.count());
        // One shared allocation per publication, minted at the publisher:
        // m-cast splits and per-match notify items all bump the refcount
        // instead of deep-copying the event.
        let event = Arc::new(event);
        self.propagate(
            &ek,
            TrafficClass::PUBLICATION,
            PubSubMsg::Publish { id, event, trace },
            trace,
            svc,
        );
        id
    }

    fn propagate(
        &self,
        targets: &KeyRangeSet,
        class: TrafficClass,
        msg: PubSubMsg,
        trace: TraceId,
        svc: &mut DynSvc<'_>,
    ) {
        match self.cfg.primitive {
            Primitive::Unicast => svc.ucast_keys(targets, class, msg, trace),
            Primitive::MCast => svc.mcast(targets, class, msg, trace),
            Primitive::Walk => {
                let ranges: Vec<KeyRange> = targets.iter_ranges(svc.space()).collect();
                for range in ranges {
                    svc.walk(range, class, msg.clone(), trace);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Rendezvous role.
    // ------------------------------------------------------------------

    fn handle_store(&mut self, id: SubId, stored: Arc<StoredSub>, svc: &mut DynSvc<'_>) {
        svc.stage(stored.trace, Stage::Store, TrafficClass::SUBSCRIPTION);
        let fresh = self.store.insert(id, Arc::clone(&stored), svc.now());
        svc.obs_sample("store.size", self.store.len() as u64);
        if fresh {
            svc.metrics().bump(Counter::STORE_INSERT, 1);
            let replication = self.cfg.replication;
            if replication > 0 {
                let succs: Vec<Peer> = svc.successors().iter().take(replication).copied().collect();
                for peer in succs {
                    svc.direct(
                        peer,
                        TrafficClass::STATE_TRANSFER,
                        PubSubMsg::StateBatch {
                            subs: vec![(id, Arc::clone(&stored))],
                            as_replica: true,
                        },
                    );
                }
            }
        } else {
            svc.metrics().add("store.duplicate-delivery", 1);
        }
    }

    fn handle_unsubscribe(&mut self, id: SubId, svc: &mut DynSvc<'_>) {
        if self.store.remove(id).is_some() && self.cfg.replication > 0 {
            let succs: Vec<Peer> = svc
                .successors()
                .iter()
                .take(self.cfg.replication)
                .copied()
                .collect();
            for peer in succs {
                svc.direct(
                    peer,
                    TrafficClass::STATE_TRANSFER,
                    PubSubMsg::ReplicaDrop { ids: vec![id] },
                );
            }
        }
        self.replicas.remove(&id);
    }

    /// Pre-sizes the rendezvous-side containers for a bulk installation
    /// of roughly `expected_stored` subscriptions (see
    /// [`SubscriptionStore::reserve`]). Deployment builders call this
    /// with a per-node estimate derived from the workload totals before
    /// replaying a trace; behavior is identical with or without it. An
    /// estimate a vector's first push covers anyway ([`FIRST_GROWTH`]) is
    /// left to that push: reserving for it would make, on every node of a
    /// deployment whose nodes mostly never store anything, the
    /// minimum-capacity allocations the nodes that do store make by
    /// themselves.
    pub fn reserve_workload(&mut self, expected_stored: usize) {
        if expected_stored <= FIRST_GROWTH {
            return;
        }
        self.store.reserve(expected_stored);
        if self.match_buf.capacity() < expected_stored {
            self.match_buf
                .reserve(expected_stored - self.match_buf.len());
        }
    }

    /// Grows the rendezvous-side hot-path buffers — the event-dedup window
    /// and every matching scratch — to their steady-state bounds, so a
    /// node that processes its first publication inside a measurement
    /// window does not charge the window its cold-start allocations. The
    /// same warming happens lazily on first use; the allocation-audit
    /// harness calls this on every node after its warmup pass.
    pub fn warm(&mut self) {
        self.warm_event_dedup();
        self.store.warm();
        let need = self.store.len();
        if self.match_buf.capacity() < need {
            self.match_buf.reserve(need - self.match_buf.len());
        }
    }

    /// Sizes the event-dedup window for its steady-state bound, so
    /// insert/evict churn at the bound never reallocates. The set needs
    /// twice the window bound — hashbrown resizes (and thus allocates)
    /// instead of rehashing tombstones in place when the live count
    /// exceeds half the growth threshold. Only [`PubSubNode::warm`] calls
    /// this: ordinary runs grow the window incrementally and most nodes
    /// never reach the bound, so front-loading the worst case on every
    /// node would cost more than it saves.
    fn warm_event_dedup(&mut self) {
        if self.seen_events.capacity() < 2 * SEEN_EVENTS_CAP {
            let extra = 2 * SEEN_EVENTS_CAP - self.seen_events.len();
            self.seen_events.reserve(extra);
        }
        if self.seen_order.capacity() < SEEN_EVENTS_CAP + 1 {
            let extra = SEEN_EVENTS_CAP + 1 - self.seen_order.len();
            self.seen_order.reserve(extra);
        }
    }

    fn note_event_seen(&mut self, id: EventId) -> bool {
        if !self.seen_events.insert(id) {
            return false;
        }
        self.seen_order.push_back(id);
        if self.seen_order.len() > SEEN_EVENTS_CAP {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_events.remove(&old);
            }
        }
        true
    }

    fn handle_publish(
        &mut self,
        id: EventId,
        event: Arc<Event>,
        trace: TraceId,
        svc: &mut DynSvc<'_>,
    ) {
        if !self.note_event_seen(id) {
            svc.metrics().add("publish.duplicate-delivery", 1);
            return;
        }
        let mut matches = std::mem::take(&mut self.match_buf);
        self.store.match_event_into(&event, svc.now(), &mut matches);
        self.work = self.work.wrapping_add(1 + matches.len() as u64);
        svc.metrics().bump(Counter::MATCHES, matches.len() as u64);
        svc.stage(trace, Stage::RendezvousMatch, TrafficClass::PUBLICATION);
        svc.obs_sample("rendezvous.fanout", matches.len() as u64);
        // The publisher minted one shared allocation for the event: each
        // item clone below is a reference-count bump, not a deep copy.
        for (sub_id, subscriber, row) in matches.drain(..) {
            let item = NotifyItem {
                sub_id,
                event_id: id,
                event: Arc::clone(&event),
                trace,
            };
            match self.cfg.notify_mode {
                NotifyMode::Immediate => {
                    svc.metrics().bump(Counter::NOTIFICATIONS_MESSAGES, 1);
                    svc.stage(trace, Stage::NotifyRoute, TrafficClass::NOTIFICATION);
                    svc.send(
                        subscriber.key,
                        TrafficClass::NOTIFICATION,
                        PubSubMsg::Notification {
                            items: NotifyBatch::One(item),
                        },
                        trace,
                    );
                }
                NotifyMode::Buffered { period } => {
                    self.notify_buffer.entry(subscriber).or_default().push(item);
                    self.arm_flush(period, svc);
                }
                NotifyMode::Collecting { period } => {
                    // The one mode that needs more of the record than the
                    // hit carries: the rendezvous key set.
                    let stored = Arc::clone(self.store.matched_record(row));
                    self.route_to_agent(item, &stored, svc);
                    self.arm_flush(period, svc);
                }
            }
        }
        self.match_buf = matches;
    }

    /// Queues a match either at this node (if we cover the agent key of the
    /// subscription's rendezvous range) or toward the agent along the ring.
    fn route_to_agent(&mut self, item: NotifyItem, stored: &StoredSub, svc: &mut DynSvc<'_>) {
        let space = svc.space();
        let me = svc.me();
        // Locate the rendezvous range this node serves for the
        // subscription (the first range intersecting our coverage).
        let pred = svc.predecessor().unwrap_or(me);
        let range = stored
            .sk
            .iter_ranges(space)
            .find(|r| {
                !KeyRangeSet::of_range(space, *r)
                    .extract_arc_oc(space, pred.key, me.key)
                    .is_empty()
            })
            .or_else(|| stored.sk.iter_ranges(space).next());
        let Some(range) = range else { return };
        let agent_key = range.midpoint(space);
        if svc.covers(agent_key) {
            self.agent_buffer
                .entry(stored.subscriber)
                .or_default()
                .push(item);
            return;
        }
        let citem = CollectItem {
            sub_id: item.sub_id,
            subscriber: stored.subscriber,
            agent_key,
            event_id: item.event_id,
            event: item.event,
            trace: item.trace,
        };
        // Nodes covering the part of the range before the midpoint push
        // clockwise; the rest push counter-clockwise.
        if space.distance_cw(range.start(), me.key) < space.distance_cw(range.start(), agent_key) {
            self.collect_succ.push(citem);
        } else {
            self.collect_pred.push(citem);
        }
    }

    fn arm_flush(&mut self, period: SimDuration, svc: &mut DynSvc<'_>) {
        if !self.flush_armed {
            self.flush_armed = true;
            svc.arm_timer(period, PubSubTimer::Flush);
        }
    }

    fn flush(&mut self, svc: &mut DynSvc<'_>) {
        self.flush_armed = false;
        // Plain buffered notifications, then agent aggregates: one message
        // per subscriber, in ascending subscriber order — the maps drain in
        // per-instance hash order, which must not reach the wire.
        for buffer in [&mut self.notify_buffer, &mut self.agent_buffer] {
            let mut batches: Vec<(Peer, Vec<NotifyItem>)> = buffer.drain().collect();
            batches.sort_unstable_by_key(|(subscriber, _)| subscriber.idx);
            for (subscriber, items) in batches {
                svc.metrics().bump(Counter::NOTIFICATIONS_MESSAGES, 1);
                svc.metrics()
                    .record(Series::NOTIFICATIONS_BATCH_SIZE, items.len() as u64);
                Self::send_notification(subscriber, items, svc);
            }
        }
        // Collect exchanges: one merged message per ring direction.
        let succ_items = std::mem::take(&mut self.collect_succ);
        if !succ_items.is_empty() {
            match svc.successor() {
                Some(succ) => svc.direct(
                    succ,
                    TrafficClass::COLLECT,
                    PubSubMsg::CollectExchange { items: succ_items },
                ),
                None => self.absorb_collect_items(succ_items, svc),
            }
        }
        let pred_items = std::mem::take(&mut self.collect_pred);
        if !pred_items.is_empty() {
            match svc.predecessor() {
                Some(pred) => svc.direct(
                    pred,
                    TrafficClass::COLLECT,
                    PubSubMsg::CollectExchange { items: pred_items },
                ),
                None => self.absorb_collect_items(pred_items, svc),
            }
        }
    }

    /// Routes one batched notification message to a subscriber, stamping
    /// each item's trace with the end of its buffer wait and the start of
    /// the notification route. The envelope carries the item trace when the
    /// batch is a singleton; a mixed batch routes untraced (each item still
    /// carries its own trace for the delivery stage).
    fn send_notification(subscriber: Peer, items: Vec<NotifyItem>, svc: &mut DynSvc<'_>) {
        for item in &items {
            svc.stage(item.trace, Stage::BufferWait, TrafficClass::NOTIFICATION);
            svc.stage(item.trace, Stage::NotifyRoute, TrafficClass::NOTIFICATION);
        }
        let envelope_trace = match items.as_slice() {
            [only] => only.trace,
            _ => TraceId::NONE,
        };
        svc.send(
            subscriber.key,
            TrafficClass::NOTIFICATION,
            PubSubMsg::Notification {
                items: NotifyBatch::Many(items),
            },
            envelope_trace,
        );
    }

    /// Fallback when there is no neighbor to push to (single-node ring):
    /// act as the agent ourselves.
    fn absorb_collect_items(&mut self, items: Vec<CollectItem>, svc: &mut DynSvc<'_>) {
        let mut touched = false;
        for item in items {
            self.agent_buffer
                .entry(item.subscriber)
                .or_default()
                .push(NotifyItem {
                    sub_id: item.sub_id,
                    event_id: item.event_id,
                    event: item.event,
                    trace: item.trace,
                });
            touched = true;
        }
        if touched {
            if let NotifyMode::Collecting { period } = self.cfg.notify_mode {
                self.arm_flush(period, svc);
            }
        }
    }

    fn handle_collect_exchange(&mut self, items: Vec<CollectItem>, svc: &mut DynSvc<'_>) {
        let space = svc.space();
        let me = svc.me();
        let mut touched = false;
        for item in items {
            touched = true;
            svc.stage(item.trace, Stage::CollectHop, TrafficClass::COLLECT);
            if svc.covers(item.agent_key) {
                self.agent_buffer
                    .entry(item.subscriber)
                    .or_default()
                    .push(NotifyItem {
                        sub_id: item.sub_id,
                        event_id: item.event_id,
                        event: item.event.clone(),
                        trace: item.trace,
                    });
                continue;
            }
            // Keep moving toward the agent: clockwise if it lies in the
            // half-ring ahead of us, counter-clockwise otherwise.
            if space.distance_cw(me.key, item.agent_key) <= space.size() / 2 {
                self.collect_succ.push(item);
            } else {
                self.collect_pred.push(item);
            }
        }
        if touched {
            if let NotifyMode::Collecting { period } = self.cfg.notify_mode {
                self.arm_flush(period, svc);
            }
        }
    }

    // ------------------------------------------------------------------
    // Subscriber role.
    // ------------------------------------------------------------------

    fn handle_notification(&mut self, items: NotifyBatch, svc: &mut DynSvc<'_>) {
        let now = svc.now();
        let me = svc.me().idx;
        for item in items {
            // During churn a notification routed to a crashed subscriber's
            // key lands on the key's new coverer; it is not ours to consume.
            if item.sub_id.node() != me {
                svc.metrics().add("notifications.misrouted", 1);
                continue;
            }
            if self.delivered_dedup.insert(item.sub_id, item.event_id) {
                svc.metrics().bump(Counter::NOTIFICATIONS_DELIVERED, 1);
                svc.stage(item.trace, Stage::Deliver, TrafficClass::NOTIFICATION);
                self.delivered.push(DeliveredNote {
                    sub_id: item.sub_id,
                    event_id: item.event_id,
                    event: item.event,
                    at: now,
                    trace: item.trace,
                });
            } else {
                svc.metrics().bump(Counter::NOTIFICATIONS_DUPLICATE, 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // State transfer and replication.
    // ------------------------------------------------------------------

    fn handle_state_batch(
        &mut self,
        subs: Vec<(SubId, Arc<StoredSub>)>,
        as_replica: bool,
        svc: &mut DynSvc<'_>,
    ) {
        let now = svc.now();
        for (id, stored) in subs {
            if as_replica {
                svc.metrics().add("replicas.stored", 1);
                self.replicas.insert(id, stored);
            } else {
                svc.metrics().add("state-transfer.adopted", 1);
                self.store.insert(id, stored, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Adaptive-rendezvous store sweeps.
    // ------------------------------------------------------------------

    /// Executes one adaptive-rendezvous store sweep at this node (see
    /// [`SweepOp`]). The network's control loop invokes this on the nodes
    /// covering the swept arcs at entry phase transitions — never from a
    /// message handler. Record iteration is sorted by id so the emitted
    /// message order (and thus the whole run) is independent of hash-map
    /// iteration order. Returns the number of records touched.
    ///
    /// Safety argument for the purges: a record is only removed when its
    /// *resident target set* — the static `SK` plus the assigned mirror
    /// image of every live split entry — no longer intersects this node's
    /// coverage outside the vacated arc. Natives and copies serving other
    /// live entries therefore always survive, and the copy created by the
    /// preceding migrate/copy-back sweep (one full control interval
    /// earlier, so guaranteed landed) is the record's new home.
    pub fn rendezvous_sweep(&mut self, op: &SweepOp, svc: &mut DynSvc<'_>) -> u64 {
        let space = svc.space();
        let me = svc.me();
        let pred = svc.predecessor().unwrap_or(me);
        let bit = 1u64 << op.entry.slot;
        let mut touched = 0u64;
        match op.kind {
            SweepKind::Migrate => {
                // Copy every base-arc resident to its assigned mirror.
                // Records already tagged (subscriptions issued while the
                // entry was live) hold their mirror copy already.
                let mut items: Vec<(SubId, Arc<StoredSub>)> = self
                    .store
                    .iter()
                    .filter(|(_, s)| {
                        s.subgroups & bit == 0
                            && !self
                                .cfg
                                .mapping
                                .sk(&s.sub)
                                .extract_arc_oc(space, op.entry.start, op.entry.end)
                                .is_empty()
                    })
                    .map(|(id, s)| (id, Arc::clone(s)))
                    .collect();
                items.sort_by_key(|(id, _)| *id);
                for (id, s) in items {
                    let portion = self.cfg.mapping.sk(&s.sub).extract_arc_oc(
                        space,
                        op.entry.start,
                        op.entry.end,
                    );
                    let j = assign_group(id, op.entry.groups);
                    let image = shift_set(space, &portion, op.entry.offset * u64::from(j));
                    let mut sk = s.sk.extract_arc_oc(space, op.entry.end, op.entry.start);
                    sk.union_with(&image);
                    let trace = s.trace;
                    let copy = Arc::new(StoredSub {
                        sk,
                        subgroups: s.subgroups | bit,
                        ..StoredSub::clone(&s)
                    });
                    touched += 1;
                    self.propagate(
                        &image,
                        TrafficClass::STATE_TRANSFER,
                        PubSubMsg::Subscribe { id, stored: copy },
                        trace,
                        svc,
                    );
                }
            }
            SweepKind::PurgeBase => {
                let mut doomed: Vec<SubId> = self
                    .store
                    .iter()
                    .filter(|(id, s)| {
                        let static_sk = self.cfg.mapping.sk(&s.sub);
                        if static_sk
                            .extract_arc_oc(space, op.entry.start, op.entry.end)
                            .is_empty()
                        {
                            return false;
                        }
                        let (resident, _) =
                            self.cfg
                                .rendezvous
                                .resident_targets(&self.cfg.mapping, &s.sub, *id);
                        resident
                            .extract_arc_oc(space, op.entry.end, op.entry.start)
                            .extract_arc_oc(space, pred.key, me.key)
                            .is_empty()
                    })
                    .map(|(id, _)| id)
                    .collect();
                doomed.sort_unstable();
                for id in doomed {
                    self.store.remove(id);
                    touched += 1;
                }
                svc.obs_sample("store.size", self.store.len() as u64);
            }
            SweepKind::CopyBack => {
                let mut items: Vec<(SubId, Arc<StoredSub>)> = self
                    .store
                    .iter()
                    .filter(|(_, s)| s.subgroups & bit != 0)
                    .map(|(id, s)| (id, Arc::clone(s)))
                    .collect();
                items.sort_by_key(|(id, _)| *id);
                for (id, s) in items {
                    let static_p = self.cfg.mapping.sk(&s.sub).extract_arc_oc(
                        space,
                        op.entry.start,
                        op.entry.end,
                    );
                    if static_p.is_empty() {
                        continue; // stale bit from a recycled slot
                    }
                    let j = assign_group(id, op.entry.groups);
                    let d = op.entry.offset * u64::from(j);
                    let (ia, ib) = (space.add(op.entry.start, d), space.add(op.entry.end, d));
                    let mut sk = s.sk.extract_arc_oc(space, ib, ia);
                    sk.union_with(&static_p);
                    let trace = s.trace;
                    let copy = Arc::new(StoredSub {
                        sk,
                        subgroups: s.subgroups & !bit,
                        ..StoredSub::clone(&s)
                    });
                    touched += 1;
                    self.propagate(
                        &static_p,
                        TrafficClass::STATE_TRANSFER,
                        PubSubMsg::Subscribe { id, stored: copy },
                        trace,
                        svc,
                    );
                }
            }
            SweepKind::PurgeMirror => {
                // The entry has already left the table, so the resident
                // set excludes it: purge tagged copies the current table
                // no longer homes here, re-tag the ones that stay.
                let mut tagged: Vec<SubId> = self
                    .store
                    .iter()
                    .filter(|(_, s)| s.subgroups & bit != 0)
                    .map(|(id, _)| id)
                    .collect();
                tagged.sort_unstable();
                let now = svc.now();
                for id in tagged {
                    let Some(s) = self.store.get(id) else {
                        continue;
                    };
                    let (resident, bits) =
                        self.cfg
                            .rendezvous
                            .resident_targets(&self.cfg.mapping, &s.sub, id);
                    let keep = !resident.extract_arc_oc(space, pred.key, me.key).is_empty();
                    let Some(s) = self.store.remove(id) else {
                        continue;
                    };
                    touched += 1;
                    if keep {
                        let retagged = StoredSub {
                            sk: resident,
                            subgroups: bits,
                            ..StoredSub::clone(&s)
                        };
                        self.store.insert(id, retagged, now);
                    }
                }
                svc.obs_sample("store.size", self.store.len() as u64);
            }
        }
        touched
    }
}

impl PubSubNode {
    /// Overlay-neutral entry point for routed payload deliveries. Every
    /// overlay adapter (Chord's [`OverlayApp`] impl below, Pastry's in
    /// `cbps-pastry`) funnels into this.
    pub fn handle_deliver(&mut self, payload: PubSubMsg, svc: &mut DynSvc<'_>) {
        match payload {
            PubSubMsg::Subscribe { id, stored } => self.handle_store(id, stored, svc),
            PubSubMsg::Unsubscribe { id } => self.handle_unsubscribe(id, svc),
            PubSubMsg::Publish { id, event, trace } => self.handle_publish(id, event, trace, svc),
            PubSubMsg::Notification { items } => self.handle_notification(items, svc),
            // These travel as direct one-hop messages; a routed copy would
            // indicate a bug.
            PubSubMsg::CollectExchange { .. }
            | PubSubMsg::StateBatch { .. }
            | PubSubMsg::ReplicaDrop { .. } => {
                debug_assert!(false, "direct-only payload arrived via routing");
            }
        }
    }

    /// Overlay-neutral entry point for one-hop direct messages.
    pub fn handle_direct_msg(&mut self, _from: Peer, payload: PubSubMsg, svc: &mut DynSvc<'_>) {
        match payload {
            PubSubMsg::CollectExchange { items } => self.handle_collect_exchange(items, svc),
            PubSubMsg::StateBatch { subs, as_replica } => {
                self.handle_state_batch(subs, as_replica, svc)
            }
            PubSubMsg::ReplicaDrop { ids } => {
                for id in ids {
                    self.replicas.remove(&id);
                }
            }
            // Notifications are routed, not direct.
            other => {
                let _ = other;
                debug_assert!(false, "routed-only payload arrived directly");
            }
        }
    }

    /// Overlay-neutral entry point for application timers.
    pub fn handle_timer_fired(&mut self, timer: PubSubTimer, svc: &mut DynSvc<'_>) {
        match timer {
            PubSubTimer::Flush => self.flush(svc),
            PubSubTimer::Refresh { id } => self.refresh_lease(id, svc),
        }
    }

    /// Overlay-neutral entry point for coverage changes (a neighbor
    /// joined, left or failed): state handover, demotion and replica
    /// promotion.
    pub fn handle_predecessor_changed(
        &mut self,
        old: Option<Peer>,
        new: Option<Peer>,
        svc: &mut DynSvc<'_>,
    ) {
        let space = svc.space();
        let me = svc.me();
        // A node joined inside our old arc: hand over the primaries it now
        // covers.
        if let (Some(old_p), Some(new_p)) = (old, new) {
            if space.in_arc_oo(new_p.key, old_p.key, me.key) {
                let batch: Vec<(SubId, Arc<StoredSub>)> = self
                    .store
                    .iter()
                    .filter(|(_, s)| !s.sk.extract_arc_oc(space, old_p.key, new_p.key).is_empty())
                    .map(|(id, s)| (id, Arc::clone(s)))
                    .collect();
                if !batch.is_empty() {
                    svc.direct(
                        new_p,
                        TrafficClass::STATE_TRANSFER,
                        PubSubMsg::StateBatch {
                            subs: batch,
                            as_replica: false,
                        },
                    );
                }
            }
        }
        // Re-evaluate which records we are primary for: demote primaries
        // whose rendezvous keys we no longer cover, promote replicas whose
        // keys we now do (failure takeover).
        let covered = |s: &StoredSub| match new {
            None => true,
            Some(p) => !s.sk.extract_arc_oc(space, p.key, me.key).is_empty(),
        };
        let demote: Vec<SubId> = self
            .store
            .iter()
            .filter(|(_, s)| !covered(s))
            .map(|(id, _)| id)
            .collect();
        for id in demote {
            if let Some(s) = self.store.remove(id) {
                self.replicas.insert(id, s);
            }
        }
        let promote: Vec<SubId> = self
            .replicas
            .iter()
            .filter(|(_, s)| covered(s))
            .map(|(&id, _)| id)
            .collect();
        let now = svc.now();
        for id in promote {
            if let Some(s) = self.replicas.remove(&id) {
                svc.metrics().add("replicas.promoted", 1);
                self.store.insert(id, s, now);
            }
        }
    }

    /// Overlay-neutral entry point for graceful departure: push primaries
    /// to the successor.
    pub fn handle_leaving(&mut self, svc: &mut DynSvc<'_>) {
        let Some(succ) = svc.successor() else { return };
        let batch: Vec<(SubId, Arc<StoredSub>)> = self
            .store
            .iter()
            .map(|(id, s)| (id, Arc::clone(s)))
            .collect();
        if !batch.is_empty() {
            svc.direct(
                succ,
                TrafficClass::STATE_TRANSFER,
                PubSubMsg::StateBatch {
                    subs: batch,
                    as_replica: false,
                },
            );
        }
    }
}

impl OverlayApp for PubSubNode {
    type Payload = PubSubMsg;
    type Timer = PubSubTimer;

    fn on_deliver(
        &mut self,
        payload: PubSubMsg,
        _delivery: Delivery,
        svc: &mut dyn OverlayServices<PubSubMsg, PubSubTimer>,
    ) {
        self.handle_deliver(payload, svc);
    }

    fn on_direct(
        &mut self,
        from: Peer,
        payload: PubSubMsg,
        svc: &mut dyn OverlayServices<PubSubMsg, PubSubTimer>,
    ) {
        self.handle_direct_msg(from, payload, svc);
    }

    fn on_timer(
        &mut self,
        timer: PubSubTimer,
        svc: &mut dyn OverlayServices<PubSubMsg, PubSubTimer>,
    ) {
        self.handle_timer_fired(timer, svc);
    }

    fn on_predecessor_changed(
        &mut self,
        old: Option<Peer>,
        new: Option<Peer>,
        svc: &mut dyn OverlayServices<PubSubMsg, PubSubTimer>,
    ) {
        self.handle_predecessor_changed(old, new, svc);
    }

    fn on_leaving(&mut self, svc: &mut dyn OverlayServices<PubSubMsg, PubSubTimer>) {
        self.handle_leaving(svc);
    }

    /// Hints the lines the next delivery reads here (see
    /// [`cbps_sim::prefetch`]): at the *node* stage the headers a handler
    /// starts from — the delivered log's (the event-dedup queue sits
    /// beside it) and the two dedup sets' — and at the *rows* stage what
    /// this value points to: the store's header and the tail of the
    /// delivered log, where a notification lands.
    /// A single notification queued for its own subscriber names the slot
    /// of the delivered-pair table it will probe; the event-dedup set is
    /// probed by hash, so there is no row to name there.
    #[inline]
    fn prefetch(&self, stage: PrefetchStage, queued: Option<(usize, &PubSubMsg)>) {
        match stage {
            PrefetchStage::Node => {
                prefetch(&self.delivered);
                prefetch(&self.delivered_dedup);
                prefetch(&self.seen_events);
                if let Some((me, PubSubMsg::Notification { items })) = queued {
                    match items {
                        NotifyBatch::One(item) if item.sub_id.node() == me => {
                            self.delivered_dedup.prefetch(item.sub_id, item.event_id);
                        }
                        _ => {}
                    }
                }
            }
            PrefetchStage::Rows => {
                prefetch::<SubscriptionStore>(&self.store);
                if let Some(last) = self.delivered.last() {
                    prefetch(last);
                }
            }
        }
    }
}
