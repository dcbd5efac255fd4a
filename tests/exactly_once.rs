//! Each `(σ, e)` pair is matched once, at its source, and delivered once.
//!
//! Under Mapping 3 a subscription is stored on every node its placing
//! attribute's range spans, and an event goes to one key per attribute,
//! so several rendezvous may hold σ and receive e. Only the one covering
//! `h_s(e.a_s)`, with `s` the attribute that placed σ, matches the pair.
//! This suite holds that rule to the brute-force oracle over every
//! primitive, notification mode, a discretization of 1 and above, Chord
//! and Pastry, and — on Chord, the substrate with dynamic membership —
//! replication 0 and 1, each with a join and a crash mid-run.
//!
//! On every run the delivered set equals the oracle's. A failure-free run
//! also sends exactly one notification per match: `matches` equals
//! `notifications.delivered` and the subscriber drops no duplicate. A
//! churn run drops no duplicate either: a record some path stored without
//! its placing attribute is matched for every event its node receives,
//! and shows up here as a duplicate. Since no run here repeats a pair, the
//! subscriber's own drop of a repeat is driven by hand-made notifications.

use std::collections::BTreeSet;

use cbps::{
    ChordBackend, EventId, MappingKind, NotifyBatch, NotifyItem, NotifyMode, Oracle,
    OverlayBackend, Primitive, PubSubConfig, PubSubMsg, PubSubNetwork, PubSubNetworkBuilder, SubId,
    Subscription,
};
use cbps_overlay::hash::key_of_bytes;
use cbps_overlay::{Envelope, OverlayConfig, OverlayMsg};
use cbps_pastry::PastryBackend;
use cbps_sim::{Counter, NetConfig, SimDuration, SimTime, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

const NODES: usize = 48;
const SUBSCRIBERS: usize = 16;

const PRIMITIVES: [Primitive; 3] = [Primitive::Unicast, Primitive::MCast, Primitive::Walk];

fn notify_modes() -> [NotifyMode; 3] {
    let period = SimDuration::from_secs(5);
    [
        NotifyMode::Immediate,
        NotifyMode::Buffered { period },
        NotifyMode::Collecting { period },
    ]
}

fn pubsub(primitive: Primitive, notify: NotifyMode, discretization: u64) -> PubSubConfig {
    PubSubConfig::paper_default()
        .with_mapping(MappingKind::SelectiveAttribute)
        .with_primitive(primitive)
        .with_notify_mode(notify)
        .with_discretization(discretization)
}

/// A seeded workload: the subscriptions, and a source of events half of
/// which match a chosen subscription.
struct Workload {
    gen: WorkloadGen,
    subs: Vec<Subscription>,
    ids: Vec<SubId>,
    oracle: Oracle,
    published: usize,
}

impl Workload {
    fn new<B: OverlayBackend>(net: &PubSubNetwork<B>, seed: u64) -> Self {
        let cfg = WorkloadConfig::paper_default(NODES, 4).with_wildcard_probability(0.5);
        let mut gen = WorkloadGen::new(net.config().space.clone(), cfg, seed);
        let subs = (0..48).map(|_| gen.gen_subscription()).collect();
        Workload {
            gen,
            subs,
            ids: Vec::new(),
            oracle: Oracle::new(),
            published: 0,
        }
    }

    /// Issues every subscription from the first [`SUBSCRIBERS`] nodes. Each
    /// stays active to the end: it has no expiry, or a lease its subscriber
    /// refreshes.
    fn subscribe<B: OverlayBackend>(&mut self, net: &mut PubSubNetwork<B>) {
        for (i, sub) in self.subs.iter().enumerate() {
            let id = net.subscribe(i % SUBSCRIBERS, sub.clone(), None);
            let id = id.expect("a valid subscription");
            self.ids.push(id);
            self.oracle
                .add_sub(id, sub.clone(), net.now(), SimTime::MAX);
        }
    }

    /// The subscriptions stored at `node`, by their index.
    fn stored_at<B: OverlayBackend>(&self, net: &PubSubNetwork<B>, node: usize) -> Vec<usize> {
        let store = net.app(node).store();
        (0..self.ids.len())
            .filter(|&i| store.contains(self.ids[i]))
            .collect()
    }

    /// Publishes `count` events a second apart from the subscribers' nodes,
    /// every other one matching one of `targets` (indices into the
    /// subscriptions; all of them when empty), then lets every buffer and
    /// collect round drain.
    fn publish<B: OverlayBackend>(
        &mut self,
        net: &mut PubSubNetwork<B>,
        count: usize,
        targets: &[usize],
    ) {
        for _ in 0..count {
            let k = self.published;
            self.published += 1;
            let target = match targets {
                [] => k * 7 % self.subs.len(),
                _ => targets[k / 2 % targets.len()],
            };
            let event = match k % 2 {
                0 => self.gen.gen_matching_event(&self.subs[target]),
                _ => self.gen.gen_random_event(),
            };
            let id = net.publish(k % SUBSCRIBERS, event.clone());
            let id = id.expect("a valid event");
            self.oracle.add_pub(id, event, net.now());
            net.run_for_secs(1);
        }
        net.run_for_secs(60);
    }
}

/// The delivered set, checked for wrong-node and double logical delivery
/// on the way.
fn delivered<B: OverlayBackend>(net: &PubSubNetwork<B>) -> BTreeSet<(SubId, EventId)> {
    let mut got = BTreeSet::new();
    for idx in 0..net.len() {
        for note in net.delivered(idx) {
            assert_eq!(note.sub_id.node(), idx, "delivered to the wrong node");
            assert!(got.insert((note.sub_id, note.event_id)), "logged twice");
        }
    }
    got
}

/// Holds a finished run to the oracle; `failure_free` adds the
/// one-notification-per-match identity.
fn check<B: OverlayBackend>(net: &PubSubNetwork<B>, wl: &Workload, what: &str, failure_free: bool) {
    let expected = wl.oracle.expected();
    assert!(!expected.is_empty(), "{what}: the workload matched nothing");
    let got = delivered(net);
    assert_eq!(
        got,
        expected,
        "{what}: delivered {} pairs, the oracle expects {}",
        got.len(),
        expected.len()
    );
    let m = net.metrics();
    let duplicate = m.count(Counter::NotificationsDuplicate);
    assert_eq!(duplicate, 0, "{what}: {duplicate} duplicate notifications");
    if failure_free {
        let (matches, delivered) = (
            m.count(Counter::Matches),
            m.count(Counter::NotificationsDelivered),
        );
        assert_eq!(
            matches, delivered,
            "{what}: {matches} matches, {delivered} delivered"
        );
    }
}

fn failure_free<B: OverlayBackend>(overlay: &str, seed: u64) {
    for primitive in PRIMITIVES {
        for notify in notify_modes() {
            for discretization in [1, 2_000] {
                let mut net = PubSubNetworkBuilder::<B>::new()
                    .nodes(NODES)
                    .net_config(NetConfig::new(seed))
                    .pubsub(pubsub(primitive, notify, discretization))
                    .build()
                    .expect("valid network configuration");
                let mut wl = Workload::new(&net, seed);
                wl.subscribe(&mut net);
                net.run_for_secs(60);
                wl.publish(&mut net, 60, &[]);
                let what = format!("{overlay}/{primitive:?}/{notify:?}/w={discretization}");
                check(&net, &wl, &what, true);
            }
        }
    }
}

#[test]
fn chord_matches_each_pair_once() {
    failure_free::<ChordBackend>("chord", 7);
}

#[test]
fn pastry_matches_each_pair_once() {
    failure_free::<PastryBackend>("pastry", 7);
}

/// A join seed whose key splits the arc of a node holding a subscription
/// that spans the split, so the join hands that subscription over.
fn handing_over_join_seed(net: &PubSubNetwork) -> String {
    let ring = net.ring();
    let space = ring.space();
    let seeds = (0..).map(|c| format!("exactly-once-joiner-{c}"));
    let mut seeds = seeds.filter(|seed| {
        let key = key_of_bytes(space, seed.as_bytes());
        let pred = ring.predecessor(key).key;
        let store = net.app(ring.successor(key).idx).store();
        store
            .iter()
            .any(|(_, s)| !s.sk.extract_arc_oc(space, pred, key).is_empty())
    });
    seeds.next().expect("some key splits a stored range")
}

/// Chord with maintenance on: subscriptions installed, a join, a crash of
/// the non-subscriber node storing the most rows, and a batch of
/// publications after each, the last two aimed at the subscriptions the
/// joiner adopted and the crashed node held. Without replication the
/// crashed node's rows are lost until their subscribers' lease refresh
/// re-files them, so that run refreshes and publishes its last batch a
/// full lease after the crash; with one replica the heir promotes its
/// copies instead.
fn churn(replication: usize, seed: u64) {
    const LEASE: u64 = 200;
    for primitive in PRIMITIVES {
        for notify in notify_modes() {
            let mut cfg = pubsub(primitive, notify, 1).with_replication(replication);
            if replication == 0 {
                cfg = cfg
                    .with_default_ttl(Some(SimDuration::from_secs(LEASE)))
                    .with_lease_refresh(true);
            }
            let mut net = PubSubNetwork::builder()
                .nodes(NODES)
                .net_config(NetConfig::new(seed))
                .overlay(OverlayConfig::paper_default().with_maintenance(true))
                .pubsub(cfg)
                .build()
                .expect("valid network configuration");
            let mut wl = Workload::new(&net, seed);
            let start = net.now();
            wl.subscribe(&mut net);
            net.run_for_secs(60);
            wl.publish(&mut net, 20, &[]);

            let joiner = net.join_new_node(&handing_over_join_seed(&net), 0);
            net.run_for_secs(120);
            let adopted = wl.stored_at(&net, joiner);
            assert!(!adopted.is_empty(), "the joiner adopted no subscription");
            wl.publish(&mut net, 20, &adopted);

            let victim = (SUBSCRIBERS..NODES)
                .max_by_key(|&idx| (net.app(idx).store().len(), idx))
                .expect("a non-subscriber node");
            let lost = wl.stored_at(&net, victim);
            net.crash(victim);
            // A refresh the crash swallowed leaves its rows to lapse at the
            // next refresh instant, until that refresh lands: publish a
            // full lease later, clear of the refresh instants.
            let since = net.now().saturating_since(start).as_secs_f64() as u64 + LEASE;
            let resume = (since / (LEASE / 2) + 1) * (LEASE / 2) + LEASE / 10;
            net.run_until(start + SimDuration::from_secs(resume));
            wl.publish(&mut net, 20, &lost);

            assert!(
                replication == 0 || net.metrics().count(Counter::ReplicasPromoted) > 0,
                "the crash promoted no replica"
            );
            let what = format!("chord r={replication}/{primitive:?}/{notify:?}");
            check(&net, &wl, &what, false);
        }
    }
}

#[test]
fn chord_with_join_and_crash_matches_each_pair_once() {
    churn(0, 11);
}

#[test]
fn chord_with_replica_promotion_matches_each_pair_once() {
    churn(1, 13);
}

/// A subscriber told of a pair twice in one batch and once more in a later
/// message keeps one note of it and counts the other two as duplicates.
#[test]
fn a_repeated_pair_is_delivered_once() {
    let mut net = PubSubNetwork::builder()
        .nodes(NODES)
        .net_config(NetConfig::new(5))
        .pubsub(pubsub(Primitive::MCast, NotifyMode::Immediate, 1))
        .build()
        .expect("valid network configuration");
    let mut wl = Workload::new(&net, 5);
    wl.subscribe(&mut net);
    net.run_for_secs(60);
    let item = NotifyItem {
        sub_id: wl.ids[0],
        event_id: EventId::compose(NODES - 1, 0),
    };
    let peer = |idx| net.ring().peers().iter().copied().find(|p| p.idx == idx);
    let (subscriber, publisher) = (peer(item.sub_id.node()), peer(NODES - 1));
    let (subscriber, publisher) = (subscriber.expect("a member"), publisher.expect("a member"));
    let notification = |items| Envelope {
        sender: publisher,
        body: OverlayMsg::Unicast {
            key: subscriber.key,
            class: TrafficClass::NOTIFICATION,
            payload: PubSubMsg::Notification { items },
            hops: 0,
            src: publisher,
            trace: item.trace(),
        },
    };
    let now = net.now();
    let twice = notification(NotifyBatch::Many(vec![item, item]));
    let again = notification(NotifyBatch::One(item));
    net.sim_mut().inject_at(now, subscriber.idx, twice);
    net.sim_mut()
        .inject_at(now + SimDuration::from_secs(1), subscriber.idx, again);
    net.run_for_secs(10);

    let notes = net.delivered(subscriber.idx);
    let pairs: Vec<_> = notes.iter().map(|n| (n.sub_id, n.event_id)).collect();
    assert_eq!(pairs, [(item.sub_id, item.event_id)]);
    assert_eq!(notes[0].at, now);
    let m = net.metrics();
    assert_eq!(m.count(Counter::NotificationsDelivered), 1);
    assert_eq!(m.count(Counter::NotificationsDuplicate), 2);
}
