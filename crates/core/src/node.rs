//! The CB-pub/sub layer of one node (§4.1): computing the ak-mapping,
//! propagating subscriptions and events, storing and matching at
//! rendezvous, dispatching notifications (immediately, buffered, or via the
//! collecting protocol), and transferring state across membership changes.

use std::collections::HashMap;
use std::sync::Arc;

use cbps_overlay::{Delivery, KeyRange, KeyRangeSet, OverlayApp, OverlayServices, Peer};
use cbps_sim::prefetch::prefetch;
use cbps_sim::{
    Counter, ObsSeries, PrefetchStage, Series, SimDuration, SimTime, Stage, TraceId, TrafficClass,
};

use crate::config::{NotifyMode, Primitive, PubSubConfig};
use crate::dedup::DeliveredLog;
use crate::event::{Event, EventId};
use crate::index::ALL_ATTRIBUTES;
use crate::mapping::MappingKind;
use crate::msg::{CollectItem, DeliveredNote, NotifyBatch, NotifyItem, PubSubMsg, PubSubTimer};
use crate::store::{MatchHit, StoredSub, SubscriptionStore};
use crate::subscription::{SubId, Subscription};

/// The capacity a `Vec` of word-sized (or larger) elements allocates on
/// its first push.
const FIRST_GROWTH: usize = 4;

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
    /// Subscriber role: the notifications delivered here, and the set of
    /// their pairs a repeat is dropped by.
    delivered: DeliveredLog,
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
    /// produced) — the per-node load that load-skew reports read. A plain
    /// counter: maintaining it never changes behavior.
    work: u64,
}

impl PubSubNode {
    /// Creates the pub/sub state for one node under a shared configuration.
    pub fn new(cfg: Arc<PubSubConfig>) -> Self {
        PubSubNode {
            store: Box::new(SubscriptionStore::new(&cfg.space)),
            cfg,
            replicas: HashMap::new(),
            my_subs: HashMap::new(),
            next_sub_seq: 0,
            next_event_seq: 0,
            delivered: DeliveredLog::default(),
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

    /// Cumulative rendezvous work units (publication deliveries processed
    /// plus matches produced) since the node was created. Under per-key
    /// unicast or walk each key that brought a publication here is one
    /// delivery.
    pub fn rendezvous_work(&self) -> u64 {
        self.work
    }

    /// Notifications received by this node as a subscriber, in arrival
    /// order (logically deduplicated).
    pub fn delivered(&self) -> &[DeliveredNote] {
        self.delivered.notes()
    }

    /// Empties the delivered-notification log (and its pair table) in
    /// place, retaining allocated capacity. Long-running drivers drain the
    /// log between measurement windows so it never grows unboundedly; the
    /// allocation audit relies on the retained capacity to keep
    /// steady-state deliveries heap-quiet.
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
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
        let sk = self.cfg.mapping.sk(&sub);
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
            subgroups: 0,
        });
        self.my_subs.insert(id, Arc::clone(&stored));
        svc.metrics().bump(Counter::RequestsSubscribe, 1);
        svc.metrics()
            .record(Series::KeysPerSubscription, sk.count());
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
        // A renewed record replaces the shared one; the old one is never
        // written to. The mapping is stateless, so the renewal goes to the
        // keys the subscription was first stored under.
        let record = self.my_subs.get_mut(&id).expect("checked above");
        let stored = Arc::new(StoredSub {
            expires: new_expiry,
            ..StoredSub::clone(record)
        });
        *record = Arc::clone(&stored);
        svc.metrics().bump(Counter::RequestsRefresh, 1);
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
        svc.metrics().bump(Counter::RequestsUnsubscribe, 1);
        self.propagate(
            &stored.sk,
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
        let trace = id.trace();
        self.next_event_seq += 1;
        svc.stage(trace, Stage::Publish, TrafficClass::PUBLICATION);
        let ek = self.cfg.mapping.ek(&event);
        svc.metrics().bump(Counter::RequestsPublish, 1);
        svc.metrics().record(Series::KeysPerPublication, ek.count());
        // One shared allocation per publication, minted at the publisher:
        // m-cast splits bump the refcount instead of deep-copying the event.
        let event = Arc::new(event);
        self.propagate(
            &ek,
            TrafficClass::PUBLICATION,
            PubSubMsg::Publish { id, event },
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
        let fresh = self.file(id, stored, svc.now());
        svc.obs_sample(ObsSeries::StoreSize, self.store.len() as u64);
        if fresh {
            svc.metrics().bump(Counter::StoreInsert, 1);
            let replication = self.cfg.replication;
            if replication > 0 {
                // A fresh insert keeps the delivered record itself.
                let stored = Arc::clone(self.store.get(id).expect("a fresh insert is stored"));
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
            svc.metrics().bump(Counter::StoreDuplicateDelivery, 1);
        }
    }

    /// Puts a record into the rendezvous store, filed under the attribute
    /// that placed it here. Every path that stores a record — a fresh
    /// subscription or its refresh, a hand-over or departure batch, a
    /// promoted replica — goes through this, so every row of a Mapping 3
    /// store is placed, and [`PubSubNode::owned_attributes`] may skip it.
    fn file(&mut self, id: SubId, stored: Arc<StoredSub>, now: SimTime) -> bool {
        let placed_by = self.cfg.mapping.placed_by(&stored.sub);
        self.store.insert_placed(id, stored, placed_by, now)
    }

    /// The attributes whose event key for `event` is among `keys`, the keys
    /// that brought this delivery here, one bit each: the rows this
    /// delivery matches the event against. Under Mapping 3 a pair `e ∈ σ`
    /// is matched by the one delivery carrying the key of the attribute
    /// that placed σ ([`AkMapping::placed_by`]); a node that also stores σ
    /// because σ's range spans its arc skips it. M-cast hands a node all
    /// of its keys in one delivery; per-key unicast and walk hand it one
    /// copy per key, and the copies match disjoint rows. Mappings 1 and 2
    /// send an event to one key: every row is scanned.
    ///
    /// [`AkMapping::placed_by`]: crate::AkMapping::placed_by
    fn owned_attributes(&self, event: &Event, keys: &KeyRangeSet) -> u64 {
        let mapping = &self.cfg.mapping;
        // Past 64 attributes a mask cannot name them all, and the index
        // files their rows unplaced.
        if mapping.kind() != MappingKind::SelectiveAttribute || event.dims() > 64 {
            return ALL_ATTRIBUTES;
        }
        (0..event.dims())
            .filter(|&dim| keys.contains(mapping.event_key(event, dim)))
            .fold(0, |owned, dim| owned | 1 << dim)
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

    /// Pre-sizes the rendezvous-side match buffer for a bulk installation
    /// of roughly `expected_stored` subscriptions. Deployment builders call
    /// this with a per-node estimate derived from the workload totals
    /// before replaying a trace; behavior is identical with or without it. An
    /// estimate a vector's first push covers anyway (four elements) is
    /// left to that push: reserving for it would make, on every node of a
    /// deployment whose nodes mostly never store anything, the
    /// minimum-capacity allocations the nodes that do store make by
    /// themselves.
    pub fn reserve_workload(&mut self, expected_stored: usize) {
        if expected_stored <= FIRST_GROWTH {
            return;
        }
        if self.match_buf.capacity() < expected_stored {
            self.match_buf
                .reserve(expected_stored - self.match_buf.len());
        }
    }

    /// Grows the rendezvous-side match buffer to the store's size, so a
    /// node that processes its first publication inside a measurement
    /// window does not charge the window its cold-start allocations. The
    /// same warming happens lazily on first use; the allocation-audit
    /// harness calls this on every node after its warmup pass.
    pub fn warm(&mut self) {
        let need = self.store.len();
        if self.match_buf.capacity() < need {
            self.match_buf.reserve(need - self.match_buf.len());
        }
    }

    fn handle_publish(
        &mut self,
        id: EventId,
        event: &Event,
        keys: &KeyRangeSet,
        svc: &mut DynSvc<'_>,
    ) {
        let trace = id.trace();
        let owned = self.owned_attributes(event, keys);
        let mut matches = std::mem::take(&mut self.match_buf);
        self.store
            .match_owned_into(event, svc.now(), owned, &mut matches);
        self.work = self.work.wrapping_add(1 + matches.len() as u64);
        svc.metrics().bump(Counter::Matches, matches.len() as u64);
        svc.stage(trace, Stage::RendezvousMatch, TrafficClass::PUBLICATION);
        svc.obs_sample(ObsSeries::RendezvousFanout, matches.len() as u64);
        for (sub_id, subscriber, row) in matches.drain(..) {
            let item = NotifyItem {
                sub_id,
                event_id: id,
            };
            match self.cfg.notify_mode {
                NotifyMode::Immediate => {
                    svc.metrics().bump(Counter::NotificationsMessages, 1);
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
                svc.metrics().bump(Counter::NotificationsMessages, 1);
                svc.metrics()
                    .record(Series::NotificationsBatchSize, items.len() as u64);
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
    /// batch is a singleton; a mixed batch routes untraced (each item's
    /// event id still names its trace for the delivery stage).
    fn send_notification(subscriber: Peer, items: Vec<NotifyItem>, svc: &mut DynSvc<'_>) {
        for item in &items {
            svc.stage(item.trace(), Stage::BufferWait, TrafficClass::NOTIFICATION);
            svc.stage(item.trace(), Stage::NotifyRoute, TrafficClass::NOTIFICATION);
        }
        let envelope_trace = match items.as_slice() {
            [only] => only.trace(),
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
            svc.stage(item.trace(), Stage::CollectHop, TrafficClass::COLLECT);
            if svc.covers(item.agent_key) {
                self.agent_buffer
                    .entry(item.subscriber)
                    .or_default()
                    .push(NotifyItem {
                        sub_id: item.sub_id,
                        event_id: item.event_id,
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
                svc.metrics().bump(Counter::NotificationsMisrouted, 1);
                continue;
            }
            if self.delivered.insert(item.sub_id, item.event_id, now) {
                svc.metrics().bump(Counter::NotificationsDelivered, 1);
                svc.stage(item.trace(), Stage::Deliver, TrafficClass::NOTIFICATION);
            } else {
                svc.metrics().bump(Counter::NotificationsDuplicate, 1);
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
                svc.metrics().bump(Counter::ReplicasStored, 1);
                self.replicas.insert(id, stored);
            } else {
                svc.metrics().bump(Counter::StateTransferAdopted, 1);
                self.file(id, stored, now);
            }
        }
    }
}

/// The one entry surface on every overlay: Chord and Pastry
/// (`cbps-pastry`) both host the pub/sub layer through this trait.
impl OverlayApp for PubSubNode {
    type Payload = PubSubMsg;
    type Timer = PubSubTimer;

    fn on_deliver(&mut self, payload: PubSubMsg, delivery: Delivery, svc: &mut DynSvc<'_>) {
        match payload {
            PubSubMsg::Subscribe { id, stored } => self.handle_store(id, stored, svc),
            PubSubMsg::Unsubscribe { id } => self.handle_unsubscribe(id, svc),
            PubSubMsg::Publish { id, event } => {
                self.handle_publish(id, &event, &delivery.targets_here, svc)
            }
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

    fn on_direct(&mut self, _from: Peer, payload: PubSubMsg, svc: &mut DynSvc<'_>) {
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
            _ => debug_assert!(false, "routed-only payload arrived directly"),
        }
    }

    fn on_timer(&mut self, timer: PubSubTimer, svc: &mut DynSvc<'_>) {
        match timer {
            PubSubTimer::Flush => self.flush(svc),
            PubSubTimer::Refresh { id } => self.refresh_lease(id, svc),
        }
    }

    /// Coverage changes (a neighbor joined, left or failed): state
    /// handover, demotion and replica promotion.
    fn on_predecessor_changed(
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
                svc.metrics().bump(Counter::ReplicasPromoted, 1);
                self.file(id, s, now);
            }
        }
    }

    /// Graceful departure: push primaries to the successor.
    fn on_leaving(&mut self, svc: &mut DynSvc<'_>) {
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

    /// Hints the lines the next delivery reads here (see
    /// [`cbps_sim::prefetch`]): at the *node* stage the headers a handler
    /// starts from — the delivered log's — and at the *rows* stage what
    /// this value points to: the store's header and the tail of the
    /// delivered log, where a notification lands. A single notification
    /// queued for its own subscriber names the slot of the log's pair
    /// table it will probe.
    #[inline]
    fn prefetch(&self, stage: PrefetchStage, queued: Option<(usize, &PubSubMsg)>) {
        match stage {
            PrefetchStage::Node => {
                prefetch(&self.delivered);
                if let Some((me, PubSubMsg::Notification { items })) = queued {
                    match items {
                        NotifyBatch::One(item) if item.sub_id.node() == me => {
                            self.delivered.prefetch(item.sub_id, item.event_id);
                        }
                        _ => {}
                    }
                }
            }
            PrefetchStage::Rows => {
                prefetch::<SubscriptionStore>(&self.store);
                if let Some(last) = self.delivered.notes().last() {
                    prefetch(last);
                }
            }
        }
    }
}
