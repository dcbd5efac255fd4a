//! Long-run soak: interleaved subscribe / unsubscribe / publish traffic
//! with TTLs, checked against the oracle with propagation-window
//! tolerance:
//!
//! * every delivery must be justified (the pair is expected under the
//!   *loose* activity window that extends subscription activity by the
//!   propagation bound on both sides);
//! * every pair expected under the *strict* window (subscription active
//!   with margin around the publication) must be delivered;
//! * no duplicates, nothing misrouted.

use std::collections::BTreeSet;

use cbps::{EventId, MappingKind, Primitive, PubSubConfig, PubSubNetwork, SubId, Subscription};
use cbps_rng::Rng;
use cbps_sim::{Counter, NetConfig, SimDuration, SimTime};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Upper bound on end-to-end propagation (hops × delay with slack).
const MARGIN: SimDuration = SimDuration::from_secs(10);

struct SubRecord {
    id: SubId,
    sub: Subscription,
    node: usize,
    issued: SimTime,
    /// When the rendezvous stops serving it (TTL expiry or unsubscription).
    retired: SimTime,
}

fn soak(kind: MappingKind, primitive: Primitive, seed: u64) {
    let nodes = 60;
    let mut net = PubSubNetwork::builder()
        .nodes(nodes)
        .net_config(NetConfig::new(seed))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(kind)
                .with_primitive(primitive),
        )
        .build()
        .expect("valid network configuration");
    let space = net.config().space.clone();
    let wl = WorkloadConfig::paper_default(nodes, 4).with_matching_probability(1.0);
    let mut gen = WorkloadGen::new(space.clone(), wl, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xABCD);

    let mut subs: Vec<SubRecord> = Vec::new();
    let mut pubs: Vec<(EventId, cbps::Event, SimTime)> = Vec::new();

    // 400 steps of mixed traffic, 5 simulated seconds apart.
    for step in 0..400u64 {
        let now = SimTime::from_secs(step * 5);
        net.run_until(now);
        match rng.gen_range(0u32..10) {
            // 30%: new subscription, sometimes with a TTL.
            0..=2 => {
                let sub = gen.gen_subscription();
                let node = rng.gen_range(0..nodes);
                let ttl = if rng.gen_bool(0.4) {
                    Some(SimDuration::from_secs(rng.gen_range(100u64..600)))
                } else {
                    None
                };
                let id = net.subscribe(node, sub.clone(), ttl).unwrap();
                let retired = ttl.map(|d| now + d).unwrap_or(SimTime::MAX);
                subs.push(SubRecord {
                    id,
                    sub,
                    node,
                    issued: now,
                    retired,
                });
            }
            // 10%: unsubscribe a random live subscription.
            3 => {
                let live: Vec<usize> = subs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.retired > now)
                    .map(|(i, _)| i)
                    .collect();
                if !live.is_empty() {
                    let k = live[rng.gen_range(0..live.len())];
                    let rec = &subs[k];
                    if net.unsubscribe(rec.node, rec.id).unwrap() {
                        subs[k].retired = subs[k].retired.min(now);
                    }
                }
            }
            // 60%: publish (seeded from a live subscription when possible).
            _ => {
                let live: Vec<&SubRecord> = subs.iter().filter(|r| r.retired > now).collect();
                let event = if live.is_empty() {
                    gen.gen_random_event()
                } else {
                    let r = live[rng.gen_range(0..live.len())];
                    gen.gen_matching_event(&r.sub)
                };
                let node = rng.gen_range(0..nodes);
                let id = net.publish(node, event.clone()).unwrap();
                pubs.push((id, event, now));
            }
        }
    }
    net.run_for_secs(300);

    // Expected sets under strict and loose windows.
    let mut strict: BTreeSet<(SubId, EventId)> = BTreeSet::new();
    let mut loose: BTreeSet<(SubId, EventId)> = BTreeSet::new();
    for (eid, event, at) in &pubs {
        for r in &subs {
            if !r.sub.matches(event) {
                continue;
            }
            if r.issued + MARGIN <= *at && (r.retired == SimTime::MAX || *at + MARGIN <= r.retired)
            {
                strict.insert((r.id, *eid));
            }
            if r.issued <= *at + MARGIN && (r.retired == SimTime::MAX || r.retired + MARGIN >= *at)
            {
                loose.insert((r.id, *eid));
            }
        }
    }

    // Gather deliveries; check justification and uniqueness.
    let mut got: BTreeSet<(SubId, EventId)> = BTreeSet::new();
    for i in 0..nodes {
        for note in net.delivered(i) {
            assert_eq!(note.sub_id.node(), i, "misrouted notification");
            assert!(
                got.insert((note.sub_id, note.event_id)),
                "duplicate delivery"
            );
        }
    }
    for pair in &got {
        assert!(
            loose.contains(pair),
            "{kind}/{primitive:?}: unjustified delivery {pair:?}"
        );
    }
    for pair in &strict {
        assert!(
            got.contains(pair),
            "{kind}/{primitive:?}: missed guaranteed delivery {pair:?}"
        );
    }
    assert!(
        !strict.is_empty(),
        "soak produced no guaranteed matches — workload misconfigured"
    );
    assert_eq!(net.metrics().count(Counter::NotificationsMisrouted), 0);
}

#[test]
fn soak_mapping1_mcast() {
    soak(MappingKind::AttributeSplit, Primitive::MCast, 301);
}

#[test]
fn soak_mapping2_mcast() {
    soak(MappingKind::KeySpaceSplit, Primitive::MCast, 302);
}

#[test]
fn soak_mapping3_unicast() {
    soak(MappingKind::SelectiveAttribute, Primitive::Unicast, 303);
}

#[test]
fn soak_mapping3_mcast() {
    soak(MappingKind::SelectiveAttribute, Primitive::MCast, 304);
}
