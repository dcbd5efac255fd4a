//! Quickstart: stand up a content-based pub/sub network on a simulated
//! Chord overlay, subscribe, publish, and receive notifications.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cbps::{Event, MappingKind, Primitive, PubSubConfig, PubSubNetwork, Subscription};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 100-node deployment using the paper's defaults: 2^13 key space,
    // Key Space-Split mapping, the native m-cast primitive.
    let mut net = PubSubNetwork::builder()
        .nodes(100)
        .seed(42)
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::KeySpaceSplit)
                .with_primitive(Primitive::MCast),
        )
        .build()?;
    let space = net.config().space.clone();
    println!("network: {} nodes over a 2^13 Chord ring", net.len());
    println!("event space: {space}");

    // Node 7 subscribes: a0 in [100_000, 250_000] AND a2 in [0, 50_000].
    let sub = Subscription::builder(&space)
        .range("a0", 100_000, 250_000)?
        .range("a2", 0, 50_000)?
        .build()?;
    println!("node 7 subscribes: {sub}");
    let sub_id = net.subscribe(7, sub, None)?;
    net.run_for_secs(10);

    // Two publications from node 60: one matching, one not.
    let hit = Event::new(&space, vec![200_000, 5, 20_000, 999])?;
    let miss = Event::new(&space, vec![999_000, 5, 20_000, 999])?;
    println!("node 60 publishes {hit} (matches) and {miss} (does not)");
    let hit_id = net.publish(60, hit.clone())?;
    net.publish(60, miss)?;
    net.run_for_secs(10);

    // Inspect what the subscriber saw: a note names the event by id.
    for note in net.delivered(7) {
        println!(
            "node 7 notified at t={}: subscription {} matched event {} = {hit}",
            note.at, note.sub_id, note.event_id
        );
        assert_eq!((note.sub_id, note.event_id), (sub_id, hit_id));
    }
    assert_eq!(net.delivered(7).len(), 1);

    // The run's traffic, by class.
    let m = net.metrics();
    println!(
        "one-hop messages: {} subscription, {} publication, {} notification",
        m.messages(cbps_sim::TrafficClass::SUBSCRIPTION),
        m.messages(cbps_sim::TrafficClass::PUBLICATION),
        m.messages(cbps_sim::TrafficClass::NOTIFICATION),
    );
    Ok(())
}
