//! Hints are hints: a run reads the same with them compiled out.
//!
//! Every other neutrality test in the workspace compares two runs inside
//! one process; neither the prefetch instruction nor the huge-page advice
//! can be switched off inside a process, so this file pins two runs'
//! digests, and `ci.sh` runs it twice: in the ordinary build and under
//! `RUSTFLAGS="--cfg cbps_no_prefetch"`, where `cbps_sim::prefetch`'s
//! hint and advice are empty functions and the send-time dedup-slot hint,
//! the node-stage and the rows-stage hints all vanish. Both builds must
//! read both pinned digests.
//!
//! * A `fanout`-shaped run — Mapping 3, partly wildcard subscriptions
//!   installed ahead of the publications, immediate notification, a dozen
//!   deliveries per publication, each pair matched once, at the owner of
//!   its placing attribute's event key — pins what the pub/sub layer
//!   delivers, counts and costs in events.
//! * A bare Chord ring of 5 000 nodes routing seeded lookups through
//!   small location caches pins what the overlay delivers and costs. Its
//!   node array spans over 4 MiB, so the simulator advises part of it for
//!   huge pages; the 80-node run's array holds no whole huge page.
//!
//! A change that legitimately alters the protocol's message counts (or the
//! workload generator) re-pins a digest from the ordinary build; the
//! hint-free build must then agree with it unprompted.

use cbps::{
    ChordBackend, MappingKind, NotifyMode, Primitive, PubSubConfig, PubSubNetworkBuilder,
    Subscription,
};
use cbps_bench::runner::delivered_fingerprint;
use cbps_overlay::{build_stable, ChordNode, Delivery, OverlayApp, OverlayConfig, OverlayServices};
use cbps_rng::Rng;
use cbps_sim::prefetch::huge_page_span;
use cbps_sim::{Counter, NetConfig, Series, SimDuration, TraceId, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Everything the run is judged by, rendered as one line.
fn fanout_digest() -> String {
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
        Counter::Matches,
        Counter::NotificationsMessages,
        Counter::NotificationsDelivered,
        Counter::NotificationsDuplicate,
        Counter::StoreInsert,
    ]
    .map(|counter| m.count(counter));
    let classes = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
    ]
    .map(|class| m.messages(class));
    let dilation = m.series(Series::DilationNotification).expect("routed");
    format!(
        "delivered {delivered} fingerprint {fingerprint:#018x} last at {last:?} counters \
         {counters:?} messages {classes:?} notification hops {} events {events}",
        dilation.sum(),
    )
}

#[test]
fn a_fanout_run_reads_the_same_with_and_without_hints() {
    const PINNED: &str = "delivered 5056 fingerprint 0x4ffba79d8bc05b75 last at \
        SimTime(140100000) counters [5056, 5056, 5056, 0, 5442] messages [15346, 5292, 10210] \
        notification hops 10210 events 30976";
    assert_eq!(fanout_digest(), PINNED);
}

/// Folds every lookup that reaches a node into one word.
#[derive(Default)]
struct Heard {
    count: u64,
    hash: u64,
}

impl OverlayApp for Heard {
    type Payload = u64;
    type Timer = ();
    fn on_deliver(&mut self, lookup: u64, d: Delivery, _: &mut dyn OverlayServices<u64, ()>) {
        self.count += 1;
        for word in [lookup, d.src.idx as u64, u64::from(d.hops)] {
            self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A 5 000-node ring routing seeded lookups, rendered as one line.
fn route_digest() -> String {
    let nodes = 5_000;
    let cfg = OverlayConfig::paper_default()
        .with_space(cbps::deployment_key_space(nodes))
        .with_cache_capacity(16);
    let apps = (0..nodes).map(|_| Heard::default()).collect();
    let (mut sim, _ring) = build_stable(NetConfig::new(5), cfg, apps);

    let array = std::mem::size_of::<ChordNode<Heard>>() * sim.len();
    assert!(array >= 4 << 20, "the node array spans only {array} bytes");
    let start = std::ptr::from_ref(sim.node(0)) as usize;
    assert!(
        huge_page_span(start, array).is_some(),
        "the node array holds no whole huge page: nothing is advised"
    );

    let mut rng = Rng::seed_from_u64(5);
    for lookup in 0..20_000u64 {
        let from = rng.gen_range(0..nodes);
        let key = cfg.space.key(rng.next_u64());
        sim.with_node(from, |n: &mut ChordNode<Heard>, ctx| {
            n.app_call(ctx, |_, svc| {
                svc.send(key, TrafficClass::OTHER, lookup, TraceId::NONE)
            })
        });
        if lookup % 1_000 == 999 {
            sim.run();
        }
    }

    let (mut heard, mut hash) = (0, 0u64);
    for (idx, node) in sim.nodes() {
        heard += node.app().count;
        hash = (hash ^ node.app().hash ^ idx as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let cached: usize = sim.nodes().map(|(_, n)| n.routing().cache_len()).sum();
    let m = sim.metrics();
    let hops = m
        .series(Series::dilation(TrafficClass::OTHER))
        .expect("routed");
    format!(
        "heard {heard} hash {hash:#018x} cached {cached} messages {} hops {} max {:?} events {}",
        m.messages(TrafficClass::OTHER),
        hops.sum(),
        hops.max(),
        sim.events_processed(),
    )
}

#[test]
fn a_route_run_reads_the_same_with_and_without_hints() {
    const PINNED: &str = "heard 20000 hash 0x5d3e65b810da3ebe cached 78637 messages 119118 \
        hops 119118 max Some(12) events 119121";
    assert_eq!(route_digest(), PINNED);
}
