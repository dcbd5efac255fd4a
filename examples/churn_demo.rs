//! Self-configuration demo: nodes join, leave gracefully, and crash while
//! the pub/sub service keeps delivering — the property that motivates the
//! whole architecture (§1, §4.1).
//!
//! ```text
//! cargo run --example churn_demo
//! ```

use cbps::{Event, MappingKind, PubSubConfig, PubSubNetwork, Subscription};
use cbps_overlay::OverlayConfig;
use cbps_sim::{Counter, TrafficClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = PubSubNetwork::builder()
        .nodes(60)
        .seed(3)
        .overlay(OverlayConfig::paper_default().with_maintenance(true))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_replication(2),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();

    // Ten subscribers on the low indices (they stay alive throughout).
    let mut sub_count = 0;
    for s in 0..10usize {
        let lo = 50_000 * s as u64;
        let sub = Subscription::builder(&space)
            .range("a1", lo, lo + 60_000)?
            .build()?;
        net.subscribe(s, sub, None).unwrap();
        sub_count += 1;
    }
    net.run_for_secs(60);
    println!("{sub_count} subscriptions stored; replication factor 2");

    let publish_round = |net: &mut PubSubNetwork, base: u64| {
        for i in 0..20u64 {
            let e = Event::new_unchecked(vec![1, (base + i * 25_000) % 560_000, 2, 3]);
            net.publish(30, e).unwrap();
            net.run_for_secs(5);
        }
    };

    publish_round(&mut net, 0);
    net.run_for_secs(60);
    let before: usize = (0..10).map(|s| net.delivered(s).len()).sum();
    println!("phase 1 (stable ring): {before} notifications delivered");

    // Churn: two graceful leaves, three crashes, one join.
    println!("churn: nodes 50, 51 leave; nodes 52, 53, 54 crash; one node joins");
    net.leave(50);
    net.leave(51);
    net.crash(52);
    net.crash(53);
    net.crash(54);
    let newcomer = net.join_new_node("fresh-node", 0);
    net.run_for_secs(120); // stabilization + replica promotion + state pull

    publish_round(&mut net, 7_000);
    net.run_for_secs(120);
    let after: usize = (0..10).map(|s| net.delivered(s).len()).sum();
    println!(
        "phase 2 (after churn): {} new notifications delivered",
        after - before
    );

    let m = net.metrics();
    println!(
        "state transfer: {} one-hop messages; replicas promoted: {}",
        m.messages(TrafficClass::STATE_TRANSFER),
        m.count(Counter::ReplicasPromoted),
    );
    println!(
        "joined node {newcomer} now stores {} subscriptions",
        net.app(newcomer).store().len()
    );

    assert!(after > before, "service must keep delivering after churn");
    Ok(())
}
