//! Prefetch hints are hints: a run reads the same with them compiled out.
//!
//! Every other neutrality test in the workspace compares two runs inside
//! one process; the hint instruction cannot be switched off inside a
//! process, so this test pins what a `fanout`-shaped run — Mapping 3,
//! partly wildcard subscriptions installed ahead of the publications,
//! immediate notification, a dozen deliveries per publication, one in
//! fifteen a duplicate — delivers, counts and costs in events, and
//! `ci.sh` runs it twice: in the ordinary build and under
//! `RUSTFLAGS="--cfg cbps_no_prefetch"`, where `cbps_sim::prefetch`'s
//! hint is an empty function and the send-time dedup-slot hint, the
//! node-stage and the rows-stage hints all vanish. Both builds must read
//! the pinned digest.
//!
//! A change that legitimately alters the protocol's message counts (or the
//! workload generator) re-pins the digest from the ordinary build; the
//! hint-free build must then agree with it unprompted.

use cbps::{
    ChordBackend, MappingKind, NotifyMode, Primitive, PubSubConfig, PubSubNetworkBuilder,
    Subscription,
};
use cbps_bench::runner::delivered_fingerprint;
use cbps_sim::{NetConfig, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Everything the run is judged by, rendered as one line.
fn digest() -> String {
    let (nodes, seed) = (80, 33);
    let mut net = PubSubNetworkBuilder::<ChordBackend>::new()
        .nodes(nodes)
        .net_config(NetConfig::new(seed))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_primitive(Primitive::MCast)
                .with_notify_mode(NotifyMode::Immediate),
        )
        .build()
        .expect("valid network configuration");
    let cfg = WorkloadConfig::paper_default(nodes, 4).with_wildcard_probability(0.5);
    let mut gen = WorkloadGen::new(net.config().space.clone(), cfg, seed);
    let subs: Vec<Subscription> = (0..3_000).map(|_| gen.gen_subscription()).collect();
    for (i, sub) in subs.iter().enumerate() {
        net.subscribe(i % nodes, sub.clone(), None).expect("valid");
    }
    net.run_until(net.now() + SimDuration::from_secs(60));
    for i in 0..400 {
        let event = match i % 2 {
            0 => gen.gen_matching_event(&subs[i * 7 % subs.len()]),
            _ => gen.gen_random_event(),
        };
        net.publish(i % nodes, event).expect("valid");
        net.run_until(net.now() + SimDuration::from_millis(200));
    }
    net.run_until(net.now() + SimDuration::from_secs(600));

    let events = net.sim_mut().events_processed();
    let (fingerprint, delivered) = delivered_fingerprint(&net);
    let last = (0..nodes)
        .flat_map(|node| net.delivered(node))
        .map(|n| n.at);
    let last = last.max().expect("something was delivered");
    let m = net.metrics();
    let counters = [
        "matches",
        "notifications.messages",
        "notifications.delivered",
        "notifications.duplicate",
        "store.insert",
    ]
    .map(|name| m.counter(name));
    let classes = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
    ]
    .map(|class| m.messages(class));
    let dilation = m.histogram("dilation.notification").expect("routed");
    format!(
        "delivered {delivered} fingerprint {fingerprint:#018x} last at {last:?} counters \
         {counters:?} messages {classes:?} notification hops {} events {events}",
        dilation.sum(),
    )
}

#[test]
fn a_fanout_run_reads_the_same_with_and_without_hints() {
    const PINNED: &str = "delivered 5056 fingerprint 0x4ffba79d8bc05b75 last at \
        SimTime(140100000) counters [5404, 5404, 5056, 348, 5442] messages [15346, 5292, 10899] \
        notification hops 10899 events 31673";
    assert_eq!(digest(), PINNED);
}
