//! The fallible public API: error paths, a subscribe / publish / deliver
//! round trip, and builder validation.

use cbps::{
    AttributeDef, ConfigError, Event, EventSpace, NotifyMode, PubSubConfig, PubSubError,
    PubSubNetwork, Subscription,
};
use cbps_overlay::{KeySpace, OverlayConfig};
use cbps_sim::SimDuration;

fn two_dim_space() -> EventSpace {
    EventSpace::new(vec![
        AttributeDef::new("a0", 1 << 20),
        AttributeDef::new("a1", 1 << 20),
    ])
}

fn small_net(nodes: usize) -> PubSubNetwork {
    PubSubNetwork::builder()
        .nodes(nodes)
        .seed(5)
        .build()
        .expect("valid network configuration")
}

#[test]
fn handles_round_trip_subscribe_publish_deliver() {
    let mut net = small_net(30);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 0, 999_999)
        .unwrap()
        .build()
        .unwrap();
    let sub_id = net.subscribe(3, sub, None).unwrap();
    net.run_for_secs(10);
    let event = Event::new(&space, vec![5, 1, 2, 3]).unwrap();
    let event_id = net.publish(9, event).unwrap();
    net.run_for_secs(10);
    let notes = net.delivered(3);
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].sub_id, sub_id);
    assert_eq!(notes[0].event_id, event_id);
    assert!(net.unsubscribe(3, sub_id).unwrap());
    assert!(!net.unsubscribe(3, sub_id).unwrap());
}

#[test]
fn unknown_node_is_an_error_not_a_panic() {
    let mut net = small_net(10);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 0, 10)
        .unwrap()
        .build()
        .unwrap();
    let err = net.subscribe(10, sub.clone(), None).unwrap_err();
    assert_eq!(
        err,
        PubSubError::UnknownNode {
            node: 10,
            nodes: 10
        }
    );
    let err = net.subscribe(99, sub.clone(), None).unwrap_err();
    assert_eq!(
        err,
        PubSubError::UnknownNode {
            node: 99,
            nodes: 10
        }
    );
    let event = Event::new(&space, vec![1, 2, 3, 4]).unwrap();
    assert!(matches!(
        net.publish(11, event.clone()),
        Err(PubSubError::UnknownNode {
            node: 11,
            nodes: 10
        })
    ));
    assert!(matches!(
        net.unsubscribe(10, cbps::SubId::compose(0, 0)),
        Err(PubSubError::UnknownNode { .. })
    ));
    // The message names both the index and the valid range.
    assert_eq!(
        net.publish(10, event).unwrap_err().to_string(),
        "node 10 does not exist (network has 10 nodes)"
    );
}

#[test]
fn foreign_space_subscription_is_rejected() {
    let mut net = small_net(10);
    let other = two_dim_space();
    let sub = Subscription::builder(&other)
        .range("a0", 0, 10)
        .unwrap()
        .build()
        .unwrap();
    let err = net.subscribe(1, sub, None).unwrap_err();
    assert_eq!(
        err,
        PubSubError::InvalidSubscription {
            expected: 4,
            got: 2
        }
    );
}

#[test]
fn foreign_space_event_is_rejected() {
    let mut net = small_net(10);
    let other = two_dim_space();
    let event = Event::new(&other, vec![1, 2]).unwrap();
    let err = net.publish(1, event).unwrap_err();
    assert_eq!(
        err,
        PubSubError::DimensionMismatch {
            expected: 4,
            got: 2
        }
    );
}

#[test]
fn builder_rejects_zero_nodes() {
    let err = PubSubNetwork::builder().nodes(0).build().unwrap_err();
    assert_eq!(err, ConfigError::NoNodes);
}

#[test]
fn builder_rejects_key_space_mismatch() {
    let err = PubSubNetwork::builder()
        .nodes(10)
        .pubsub(PubSubConfig::paper_default().with_key_space(KeySpace::new(10)))
        .overlay(OverlayConfig::paper_default())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::KeySpaceMismatch {
            mapping_bits: 10,
            overlay_bits: 13,
        }
    );
}

#[test]
fn builder_rejects_oversized_replication() {
    let err = PubSubNetwork::builder()
        .nodes(10)
        .pubsub(PubSubConfig::paper_default().with_replication(9))
        .overlay(OverlayConfig::paper_default().with_succ_list_len(4))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::ReplicationTooLarge {
            replication: 9,
            succ_list_len: 4,
        }
    );
}

#[test]
fn builder_rejects_zero_flush_period() {
    for notify in [
        NotifyMode::Buffered {
            period: SimDuration::ZERO,
        },
        NotifyMode::Collecting {
            period: SimDuration::ZERO,
        },
    ] {
        let err = PubSubNetwork::builder()
            .nodes(10)
            .pubsub(PubSubConfig::paper_default().with_notify_mode(notify))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroFlushPeriod);
    }
}

#[test]
fn config_errors_explain_themselves() {
    assert_eq!(
        ConfigError::NoNodes.to_string(),
        "a network needs at least one node"
    );
    assert!(ConfigError::KeySpaceMismatch {
        mapping_bits: 10,
        overlay_bits: 13
    }
    .to_string()
    .contains("2^10"));
}
