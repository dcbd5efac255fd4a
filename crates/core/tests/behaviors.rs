//! Behavioral tests of the pub/sub node internals driven through real
//! networks: collecting chains, flush cycles, jittered delays, and the
//! interplay of optimizations with each mapping.

use cbps::{Event, MappingKind, NotifyMode, Primitive, PubSubConfig, PubSubNetwork, Subscription};
use cbps_sim::{Counter, DelayModel, NetConfig, SimDuration, TrafficClass};

#[test]
fn collect_items_traverse_multiple_ring_hops() {
    // A very wide selective range spans many contiguous rendezvous nodes;
    // a match at the range edge must travel several 1-hop exchanges to the
    // agent in the middle.
    let mut net = PubSubNetwork::builder()
        .nodes(120)
        .net_config(NetConfig::new(41))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_primitive(Primitive::MCast)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(2),
                }),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 100_000, 500_000) // ~3300 keys ≈ 45+ nodes at n=120
        .unwrap()
        .build()
        .unwrap();
    net.subscribe(3, sub, None).unwrap();
    net.run_for_secs(60);

    // Publish events near the *edges* of the subscribed range.
    net.publish(7, Event::new(&space, vec![101_000, 1, 2, 3]).unwrap())
        .unwrap();
    net.publish(8, Event::new(&space, vec![499_000, 4, 5, 6]).unwrap())
        .unwrap();
    net.run_for_secs(600);

    assert_eq!(net.delivered(3).len(), 2, "collect chain lost matches");
    // Edge matches need > 1 collect exchange to reach the middle agent.
    assert!(
        net.metrics().messages(TrafficClass::COLLECT) >= 4,
        "expected multi-hop collect chains, saw {}",
        net.metrics().messages(TrafficClass::COLLECT)
    );
}

#[test]
fn collecting_works_when_subscription_has_one_rendezvous() {
    // Key Space-Split maps a subscription to ~1 key: the rendezvous is its
    // own agent and no neighbor exchange should be needed.
    let mut net = PubSubNetwork::builder()
        .nodes(60)
        .net_config(NetConfig::new(42))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::KeySpaceSplit)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(2),
                }),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 200_000, 210_000)
        .unwrap()
        .range("a1", 0, 999_999)
        .unwrap()
        .range("a2", 0, 999_999)
        .unwrap()
        .range("a3", 0, 999_999)
        .unwrap()
        .build()
        .unwrap();
    net.subscribe(2, sub, None).unwrap();
    net.run_for_secs(60);
    net.publish(9, Event::new(&space, vec![205_000, 1, 2, 3]).unwrap())
        .unwrap();
    net.run_for_secs(120);
    assert_eq!(net.delivered(2).len(), 1);
}

#[test]
fn buffered_flushes_are_periodic_not_single_shot() {
    // Matches arriving in separate periods produce separate batch messages.
    let period = SimDuration::from_secs(4);
    let mut net = PubSubNetwork::builder()
        .nodes(50)
        .net_config(NetConfig::new(43))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(NotifyMode::Buffered { period }),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space).eq("a3", 500).build().unwrap();
    net.subscribe(1, sub, None).unwrap();
    net.run_for_secs(60);

    // Two bursts, separated by far more than the flush period.
    for i in 0..3u64 {
        net.publish(5, Event::new(&space, vec![i, i, i, 500]).unwrap())
            .unwrap();
    }
    net.run_for_secs(120);
    let after_first = net.metrics().count(Counter::NotificationsMessages);
    for i in 10..13u64 {
        net.publish(5, Event::new(&space, vec![i, i, i, 500]).unwrap())
            .unwrap();
    }
    net.run_for_secs(120);
    let after_second = net.metrics().count(Counter::NotificationsMessages);

    assert_eq!(net.delivered(1).len(), 6);
    assert!(after_first >= 1);
    assert!(
        after_second > after_first,
        "second burst must trigger a new flush cycle"
    );
    // Batching really happened: fewer messages than notifications.
    assert!(after_second < 6);
}

#[test]
fn jittered_delays_preserve_correctness() {
    let mut net = PubSubNetwork::builder()
        .nodes(60)
        .net_config(NetConfig::new(44).with_delay(DelayModel::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(200),
        }))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::AttributeSplit)
                .with_primitive(Primitive::MCast),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 300_000, 360_000)
        .unwrap()
        .build()
        .unwrap();
    net.subscribe(4, sub, None).unwrap();
    net.run_for_secs(60);
    for i in 0..8u64 {
        net.publish(
            (10 + i) as usize,
            Event::new(&space, vec![300_000 + i * 7_000, 1, 2, 3]).unwrap(),
        )
        .unwrap();
    }
    net.run_for_secs(120);
    assert_eq!(net.delivered(4).len(), 8);
}

#[test]
fn disjunctions_notify_once_per_matching_disjunct() {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .net_config(NetConfig::new(45))
        .pubsub(PubSubConfig::paper_default().with_mapping(MappingKind::SelectiveAttribute))
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    // "a0 < 100k OR a1 < 100k" as two subscriptions.
    let d1 = Subscription::builder(&space)
        .range("a0", 0, 100_000)
        .unwrap()
        .build()
        .unwrap();
    let d2 = Subscription::builder(&space)
        .range("a1", 0, 100_000)
        .unwrap()
        .build()
        .unwrap();
    let ids = net.subscribe_any(6, [d1, d2], None).unwrap();
    assert_eq!(ids.len(), 2);
    net.run_for_secs(60);

    // Matches only the first disjunct.
    net.publish(9, Event::new(&space, vec![50_000, 900_000, 1, 2]).unwrap())
        .unwrap();
    // Matches both disjuncts.
    net.publish(9, Event::new(&space, vec![50_000, 50_000, 1, 2]).unwrap())
        .unwrap();
    // Matches neither.
    net.publish(9, Event::new(&space, vec![900_000, 900_000, 1, 2]).unwrap())
        .unwrap();
    net.run_for_secs(60);

    let notes = net.delivered(6);
    assert_eq!(notes.len(), 3, "one per (matching disjunct, event)");
    let by_first: usize = notes.iter().filter(|n| n.sub_id == ids[0]).count();
    let by_second: usize = notes.iter().filter(|n| n.sub_id == ids[1]).count();
    assert_eq!(by_first, 2);
    assert_eq!(by_second, 1);
}

#[test]
fn replication_traffic_scales_with_factor() {
    let run = |replication: usize| {
        let mut net = PubSubNetwork::builder()
            .nodes(50)
            .net_config(NetConfig::new(46))
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(MappingKind::KeySpaceSplit)
                    .with_replication(replication),
            )
            .build()
            .expect("valid network configuration");
        let space = net.config().space.clone();
        for i in 0..20u64 {
            let sub = Subscription::builder(&space)
                .range("a0", i * 40_000, i * 40_000 + 30_000)
                .unwrap()
                .range("a1", 0, 999_999)
                .unwrap()
                .build()
                .unwrap();
            net.subscribe((i % 10) as usize, sub, None).unwrap();
        }
        net.run_for_secs(120);
        net.metrics().messages(TrafficClass::STATE_TRANSFER)
    };
    let r0 = run(0);
    let r1 = run(1);
    let r2 = run(2);
    assert_eq!(r0, 0);
    assert!(r1 > 0);
    assert!(
        (r2 as f64 / r1 as f64 - 2.0).abs() < 0.35,
        "r1={r1}, r2={r2}"
    );
}

#[test]
fn lease_refresh_keeps_subscriptions_alive_past_their_ttl() {
    let run = |refresh: bool| {
        let mut net = PubSubNetwork::builder()
            .nodes(40)
            .net_config(NetConfig::new(47))
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(MappingKind::SelectiveAttribute)
                    .with_lease_refresh(refresh),
            )
            .build()
            .expect("valid network configuration");
        let space = net.config().space.clone();
        let sub = Subscription::builder(&space)
            .range("a1", 400_000, 460_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(2, sub, Some(SimDuration::from_secs(100)))
            .unwrap();
        // Far beyond the original 100 s lease.
        net.run_for_secs(450);
        net.publish(8, Event::new(&space, vec![1, 430_000, 2, 3]).unwrap())
            .unwrap();
        net.run_for_secs(60);
        (
            net.delivered(2).len(),
            net.metrics().count(Counter::RequestsRefresh),
        )
    };
    let (without, refreshes_off) = run(false);
    assert_eq!(without, 0, "lease must lapse without refresh");
    assert_eq!(refreshes_off, 0);
    let (with, refreshes_on) = run(true);
    assert_eq!(with, 1, "refresh must keep the lease alive");
    assert!(
        refreshes_on >= 4,
        "expected ~9 half-lease refreshes, got {refreshes_on}"
    );
}

#[test]
fn lease_refresh_stops_after_unsubscribe() {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .net_config(NetConfig::new(48))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_lease_refresh(true),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a1", 100_000, 130_000)
        .unwrap()
        .build()
        .unwrap();
    let id = net
        .subscribe(3, sub, Some(SimDuration::from_secs(100)))
        .unwrap();
    net.run_for_secs(120); // at least one refresh happened
    let refreshes_before = net.metrics().count(Counter::RequestsRefresh);
    assert!(refreshes_before >= 1);
    net.unsubscribe(3, id).unwrap();
    net.run_for_secs(400);
    // The refresh cycle died with the local record.
    assert_eq!(
        net.metrics().count(Counter::RequestsRefresh),
        refreshes_before
    );
    net.publish(9, Event::new(&space, vec![1, 120_000, 2, 3]).unwrap())
        .unwrap();
    net.run_for_secs(60);
    assert!(net.delivered(3).is_empty());
}
