//! Cross-configuration delivery matrix: partial subscriptions, string
//! attributes, discretization, and non-paper event spaces — each
//! exercised end to end.

use cbps::{
    AttributeDef, Event, EventSpace, MappingKind, Primitive, PubSubConfig, PubSubNetwork,
    Subscription,
};
use cbps_sim::NetConfig;

fn net_with(cfg: PubSubConfig, seed: u64) -> PubSubNetwork {
    PubSubNetwork::builder()
        .nodes(50)
        .net_config(NetConfig::new(seed))
        .pubsub(cfg)
        .build()
        .expect("valid network configuration")
}

#[test]
fn partial_subscriptions_deliver_under_every_mapping() {
    for kind in [
        MappingKind::AttributeSplit,
        MappingKind::KeySpaceSplit,
        MappingKind::SelectiveAttribute,
    ] {
        let mut net = net_with(
            PubSubConfig::paper_default()
                .with_mapping(kind)
                .with_primitive(Primitive::MCast),
            31,
        );
        let space = net.config().space.clone();
        // Constrain only a2: every other dimension is a wildcard.
        let sub = Subscription::builder(&space)
            .range("a2", 700_000, 740_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(3, sub, None).unwrap();
        net.run_for_secs(60);
        net.publish(9, Event::new(&space, vec![5, 6, 720_000, 7]).unwrap())
            .unwrap();
        net.publish(9, Event::new(&space, vec![5, 6, 100_000, 7]).unwrap())
            .unwrap();
        net.run_for_secs(60);
        assert_eq!(
            net.delivered(3).len(),
            1,
            "{kind}: partial subscription delivery broken"
        );
    }
}

#[test]
fn discretization_preserves_correctness() {
    for width in [100u64, 1_500, 10_000] {
        let mut net = net_with(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_discretization(width),
            32,
        );
        let space = net.config().space.clone();
        let sub = Subscription::builder(&space)
            .range("a1", 350_000, 420_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(2, sub, None).unwrap();
        net.run_for_secs(60);
        net.publish(7, Event::new(&space, vec![1, 400_000, 2, 3]).unwrap())
            .unwrap();
        net.publish(7, Event::new(&space, vec![1, 500_000, 2, 3]).unwrap())
            .unwrap();
        net.run_for_secs(60);
        assert_eq!(
            net.delivered(2).len(),
            1,
            "discretization width {width} broke delivery"
        );
    }
}

#[test]
fn string_attributes_work_end_to_end() {
    let space = EventSpace::new(vec![
        AttributeDef::new("topic", 1 << 20),
        AttributeDef::new("severity", 10),
    ]);
    let mut net = net_with(
        PubSubConfig::paper_default()
            .with_space(space.clone())
            .with_mapping(MappingKind::SelectiveAttribute),
        34,
    );
    let sub = Subscription::builder(&space)
        .eq_str("topic", "alerts/fire")
        .range("severity", 3, 9)
        .unwrap()
        .build()
        .unwrap();
    net.subscribe(1, sub, None).unwrap();
    net.run_for_secs(60);
    let topic = space.value_of_str(0, "alerts/fire");
    let other = space.value_of_str(0, "alerts/flood");
    net.publish(5, Event::new(&space, vec![topic, 7]).unwrap())
        .unwrap();
    net.publish(5, Event::new(&space, vec![other, 7]).unwrap())
        .unwrap();
    net.publish(5, Event::new(&space, vec![topic, 1]).unwrap())
        .unwrap();
    net.run_for_secs(60);
    assert_eq!(net.delivered(1).len(), 1);
}

#[test]
fn tiny_spaces_and_small_keyspaces() {
    // 2-attribute space over small domains with an 8-bit ring exercises
    // the "stretching hash" path (2^l > |Ω_i|).
    let space = EventSpace::new(vec![AttributeDef::new("x", 50), AttributeDef::new("y", 50)]);
    for kind in [
        MappingKind::AttributeSplit,
        MappingKind::KeySpaceSplit,
        MappingKind::SelectiveAttribute,
    ] {
        let mut net = PubSubNetwork::builder()
            .nodes(20)
            .net_config(NetConfig::new(35))
            .overlay(
                cbps_overlay::OverlayConfig::paper_default()
                    .with_space(cbps_overlay::KeySpace::new(8)),
            )
            .pubsub(
                PubSubConfig::paper_default()
                    .with_space(space.clone())
                    .with_key_space(cbps_overlay::KeySpace::new(8))
                    .with_mapping(kind),
            )
            .build()
            .expect("valid network configuration");
        let sub = Subscription::builder(&space)
            .range("x", 10, 20)
            .unwrap()
            .range("y", 0, 49)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(0, sub, None).unwrap();
        net.run_for_secs(60);
        net.publish(10, Event::new(&space, vec![15, 25]).unwrap())
            .unwrap();
        net.publish(10, Event::new(&space, vec![30, 25]).unwrap())
            .unwrap();
        net.run_for_secs(60);
        assert_eq!(net.delivered(0).len(), 1, "{kind} failed on a tiny space");
    }
}

#[test]
fn high_fanout_subscriptions_notify_all_subscribers() {
    let mut net = net_with(PubSubConfig::paper_default(), 36);
    let space = net.config().space.clone();
    // 30 subscribers share an overlapping region; one event matches all.
    for s in 0..30usize {
        let sub = Subscription::builder(&space)
            .range("a0", 100_000, 200_000 + 1_000 * s as u64)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(s, sub, None).unwrap();
    }
    net.run_for_secs(60);
    net.publish(40, Event::new(&space, vec![150_000, 1, 2, 3]).unwrap())
        .unwrap();
    net.run_for_secs(60);
    for s in 0..30usize {
        assert_eq!(net.delivered(s).len(), 1, "subscriber {s} missed the event");
    }
}
