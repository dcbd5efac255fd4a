//! Pub/sub-level dynamics: state transfer on join and graceful leave,
//! replica promotion after crashes, and continued delivery under churn
//! (§4.1's self-configuration claims).

use cbps::{Event, MappingKind, PubSubConfig, PubSubNetwork, Subscription};
use cbps_overlay::hash::key_of_bytes;
use cbps_overlay::OverlayConfig;
use cbps_sim::{Counter, NetConfig};

fn maintained(nodes: usize, replication: usize, seed: u64) -> PubSubNetwork {
    PubSubNetwork::builder()
        .nodes(nodes)
        .net_config(NetConfig::new(seed))
        .overlay(OverlayConfig::paper_default().with_maintenance(true))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_replication(replication),
        )
        .build()
        .expect("valid network configuration")
}

/// Total primary copies of a subscription across alive nodes.
fn primary_copies(net: &PubSubNetwork, id: cbps::SubId) -> usize {
    (0..net.len())
        .filter(|&i| net.app(i).store().get(id).is_some())
        .count()
}

#[test]
fn graceful_leave_hands_over_subscriptions() {
    let mut net = maintained(40, 0, 21);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 200_000, 260_000)
        .unwrap()
        .build()
        .unwrap();
    let id = net.subscribe(1, sub, None).unwrap();
    net.run_for_secs(60);
    let before = primary_copies(&net, id);
    assert!(before >= 1);

    // The original rendezvous nodes leave, one at a time — a leaving node
    // hands its state to its live successor, so sequential departures must
    // never lose it. (Simultaneous departures of ring-adjacent nodes need
    // replication; see the crash tests.)
    let holders: Vec<usize> = (0..net.len())
        .filter(|&i| i != 1 && net.app(i).store().get(id).is_some())
        .collect();
    assert!(!holders.is_empty());
    for h in &holders {
        net.leave(*h);
        net.run_for_secs(60);
    }

    // The subscription must still be stored somewhere alive, and a
    // matching event must still reach node 1.
    let alive_copies = (0..net.len())
        .filter(|&i| i != 1)
        .filter(|&i| net.is_alive(i))
        .filter(|&i| net.app(i).store().get(id).is_some())
        .count();
    assert!(
        alive_copies >= 1 || net.app(1).store().get(id).is_some(),
        "graceful leave lost the subscription"
    );

    let publisher = (0..net.len())
        .find(|&i| i != 1 && net.is_alive(i))
        .expect("some node besides the subscriber survives");
    net.publish(
        publisher,
        Event::new(&space, vec![230_000, 1, 2, 3]).unwrap(),
    )
    .unwrap();
    net.run_for_secs(120);
    assert_eq!(
        net.delivered(1).len(),
        1,
        "delivery broke after graceful leaves"
    );
}

#[test]
fn crash_with_replication_preserves_delivery() {
    let mut net = maintained(50, 2, 22);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a2", 500_000, 560_000)
        .unwrap()
        .build()
        .unwrap();
    let id = net.subscribe(0, sub, None).unwrap();
    net.run_for_secs(60);

    // Crash every primary holder (other than the subscriber).
    let holders: Vec<usize> = (1..net.len())
        .filter(|&i| net.app(i).store().get(id).is_some())
        .collect();
    assert!(!holders.is_empty());
    for h in &holders {
        net.crash(*h);
    }
    // Stabilization detects the failures; heirs promote their replicas.
    net.run_for_secs(240);
    assert!(net.metrics().count(Counter::ReplicasPromoted) >= 1);

    net.publish(3, Event::new(&space, vec![1, 2, 530_000, 4]).unwrap())
        .unwrap();
    net.run_for_secs(120);
    assert_eq!(
        net.delivered(0).len(),
        1,
        "crash of all primaries lost delivery despite replication"
    );
}

#[test]
fn crash_without_replication_loses_subscriptions() {
    let mut net = maintained(50, 0, 23);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a2", 500_000, 560_000)
        .unwrap()
        .build()
        .unwrap();
    let id = net.subscribe(0, sub, None).unwrap();
    net.run_for_secs(60);
    let holders: Vec<usize> = (1..net.len())
        .filter(|&i| net.app(i).store().get(id).is_some())
        .collect();
    for h in &holders {
        net.crash(*h);
    }
    net.run_for_secs(240);
    net.publish(3, Event::new(&space, vec![1, 2, 530_000, 4]).unwrap())
        .unwrap();
    net.run_for_secs(120);
    // Documented failure mode: without replication the state is gone.
    assert!(
        net.delivered(0).is_empty(),
        "expected the un-replicated subscription to be lost"
    );
}

#[test]
fn joining_node_pulls_rendezvous_state() {
    let mut net = maintained(30, 0, 24);
    let space = net.config().space.clone();
    // Blanket the whole ring so every node (and any joiner) is a
    // rendezvous: a0 constrained to the full domain.
    let sub = Subscription::builder(&space)
        .range("a0", 0, 1_000_000)
        .unwrap()
        .range("a1", 0, 499_999)
        .unwrap()
        .build()
        .unwrap();
    net.subscribe(2, sub, None).unwrap();
    net.run_for_secs(60);

    let newcomer = net.join_new_node("joiner-1", 0);
    net.run_for_secs(180); // join + stabilize + state push

    assert!(
        !net.app(newcomer).store().is_empty(),
        "joiner did not receive the rendezvous state for its arc"
    );

    // An event whose a0-key lands on the newcomer still notifies node 2.
    // Sweep several events so at least one maps to the newcomer's arc.
    for i in 0..16u64 {
        net.publish(
            5,
            Event::new(&space, vec![i * 61_000 + 3, 100_000, 1, 2]).unwrap(),
        )
        .unwrap();
        net.run_for_secs(10);
    }
    net.run_for_secs(120);
    assert_eq!(
        net.delivered(2).len(),
        16,
        "deliveries lost around the join"
    );
}

#[test]
fn ring_view_names_the_joiner_as_owner_of_its_key() {
    let mut net = maintained(20, 0, 26);
    let key = key_of_bytes(net.ring().space(), b"ring-joiner");
    let joiner = net.join_new_node("ring-joiner", 0);
    assert_eq!(net.ring().len(), net.len());
    assert_eq!(net.ring().successor(key).idx, joiner);
}

#[test]
fn unsubscribe_cleans_replicas_too() {
    let mut net = maintained(40, 2, 25);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a3", 100_000, 140_000)
        .unwrap()
        .build()
        .unwrap();
    let id = net.subscribe(4, sub, None).unwrap();
    net.run_for_secs(60);
    let replicas_before: usize = (0..net.len()).map(|i| net.app(i).replica_count()).sum();
    assert!(replicas_before >= 1);

    net.unsubscribe(4, id).unwrap();
    net.run_for_secs(60);
    assert_eq!(
        primary_copies(&net, id),
        0,
        "primaries survived unsubscription"
    );
    let replicas_after: usize = (0..net.len()).map(|i| net.app(i).replica_count()).sum();
    assert_eq!(replicas_after, 0, "replicas survived unsubscription");
}
