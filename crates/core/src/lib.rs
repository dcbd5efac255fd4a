//! # cbps — content-based publish/subscribe over structured overlays
//!
//! A from-scratch reproduction of *"Content-Based Publish-Subscribe over
//! Structured Overlay Networks"* (Baldoni, Marchetti, Virgillito,
//! Vitenberg — ICDCS 2005). This crate is the paper's contribution — the
//! **CB-pub/sub mediator layer** of §4 — built on the Chord overlay of
//! [`cbps_overlay`] and the discrete-event engine of [`cbps_sim`]:
//!
//! * an expressive data model: d-dimensional [`EventSpace`]s, [`Event`]s,
//!   and [`Subscription`]s as conjunctions of range/equality constraints;
//! * the three **stateless ak-mappings** of §4.2 ([`AkMapping`]):
//!   Attribute-Split, Key Space-Split and Selective-Attribute — all
//!   satisfying the *mapping intersection rule*;
//! * rendezvous-node machinery: a flat-table [`MatchIndex`], an expiring
//!   [`SubscriptionStore`], notification dispatch with the **buffering**
//!   and **collecting** optimizations of §4.3.2, and **mapping
//!   discretization** (§4.3.3);
//! * propagation over the overlay's unicast, the native `m-cast`
//!   primitive, or the conservative range walk ([`Primitive`]);
//! * self-configuration: joins pull state, leavers push it, crashes are
//!   masked by successor replication ([`PubSubConfig::with_replication`]).
//!
//! The easiest entry point is [`PubSubNetwork`]:
//!
//! ```
//! use cbps::{Event, PubSubConfig, PubSubNetwork, Subscription};
//!
//! let mut net = PubSubNetwork::builder().nodes(64).seed(1).build().expect("valid network configuration");
//! let space = net.config().space.clone();
//!
//! let sub = Subscription::builder(&space)
//!     .range("a1", 0, 50_000)?
//!     .eq("a3", 12_345)
//!     .build()?;
//! let sub_id = net.subscribe(5, sub, None).unwrap();
//! net.run_for_secs(10);
//!
//! net.publish(40, Event::new(&space, vec![7, 25_000, 999, 12_345])?).unwrap();
//! net.run_for_secs(10);
//!
//! assert_eq!(net.delivered(5).len(), 1);
//! assert_eq!(net.delivered(5)[0].sub_id, sub_id);
//! # Ok::<(), cbps::PubSubError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod backend;
mod config;
mod dedup;
mod engine;
mod error;
mod event;
mod index;
mod mapping;
mod msg;
mod node;
mod oracle;
mod sorted;
mod space;
mod store;
mod subscription;
mod system;

pub use backend::{BackendCtx, ChordBackend, ChordPubSub, OverlayBackend};
pub use cbps_sim::MatchEngineKind;
pub use config::{deployment_key_space, NotifyMode, Primitive, PubSubConfig, RendezvousPolicy};
pub use engine::{AnyMatchEngine, MatchEngine, SlotKey};
pub use error::{ConfigError, PubSubError};
pub use event::{Event, EventId};
pub use index::MatchIndex;
pub use mapping::{AkMapping, MappingKind};
pub use msg::{CollectItem, DeliveredNote, NotifyBatch, NotifyItem, PubSubMsg, PubSubTimer};
pub use node::PubSubNode;
pub use oracle::Oracle;
pub use sorted::SortedIndex;
pub use space::{AttributeDef, EventSpace};
pub use store::{MatchHit, StoredSub, SubscriptionStore};
pub use subscription::{Constraint, SubId, Subscription, SubscriptionBuilder};
pub use system::{PubSubNetwork, PubSubNetworkBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_sim::{Counter, Series, SimDuration, TrafficClass};

    fn small_net(kind: MappingKind, primitive: Primitive, seed: u64) -> PubSubNetwork {
        PubSubNetwork::builder()
            .nodes(40)
            .seed(seed)
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(kind)
                    .with_primitive(primitive),
            )
            .build()
            .expect("valid network configuration")
    }

    fn all_kinds() -> [MappingKind; 3] {
        [
            MappingKind::AttributeSplit,
            MappingKind::KeySpaceSplit,
            MappingKind::SelectiveAttribute,
        ]
    }

    #[test]
    fn end_to_end_delivery_for_every_mapping_and_primitive() {
        for kind in all_kinds() {
            for primitive in [Primitive::Unicast, Primitive::MCast, Primitive::Walk] {
                let mut net = small_net(kind, primitive, 11);
                let space = net.config().space.clone();
                let sub = Subscription::builder(&space)
                    .range("a0", 400_000, 430_000)
                    .unwrap()
                    .range("a1", 0, 999_999)
                    .unwrap()
                    .build()
                    .unwrap();
                let sub_id = net.subscribe(1, sub, None).unwrap();
                net.run_for_secs(30);

                let hit = Event::new(&space, vec![415_000, 5, 6, 7]).unwrap();
                let miss = Event::new(&space, vec![500_000, 5, 6, 7]).unwrap();
                let hit_id = net.publish(2, hit).unwrap();
                net.publish(3, miss).unwrap();
                net.run_for_secs(30);

                let notes = net.delivered(1);
                assert_eq!(
                    notes.len(),
                    1,
                    "{kind} / {primitive:?}: expected exactly one notification, got {}",
                    notes.len()
                );
                assert_eq!(notes[0].sub_id, sub_id);
                assert_eq!(notes[0].event_id, hit_id);
            }
        }
    }

    #[test]
    fn expired_subscription_stops_matching() {
        let mut net = small_net(MappingKind::SelectiveAttribute, Primitive::MCast, 12);
        let space = net.config().space.clone();
        let sub = Subscription::builder(&space)
            .range("a0", 0, 100_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(1, sub, Some(SimDuration::from_secs(60)))
            .unwrap();
        net.run_for_secs(120); // subscription lapses
        net.publish(2, Event::new(&space, vec![50_000, 1, 2, 3]).unwrap())
            .unwrap();
        net.run_for_secs(30);
        assert!(net.delivered(1).is_empty());
    }

    #[test]
    fn unsubscribe_stops_matching() {
        let mut net = small_net(MappingKind::KeySpaceSplit, Primitive::MCast, 13);
        let space = net.config().space.clone();
        let sub = Subscription::builder(&space)
            .range("a2", 0, 200_000)
            .unwrap()
            .range("a0", 0, 999_999)
            .unwrap()
            .build()
            .unwrap();
        let id = net.subscribe(4, sub, None).unwrap();
        net.run_for_secs(30);
        assert!(net.unsubscribe(4, id).unwrap());
        assert!(!net.unsubscribe(4, id).unwrap()); // second attempt is a no-op
        net.run_for_secs(30);
        net.publish(5, Event::new(&space, vec![1, 2, 100_000, 3]).unwrap())
            .unwrap();
        net.run_for_secs(30);
        assert!(net.delivered(4).is_empty());
    }

    #[test]
    fn duplicate_notifications_are_suppressed() {
        // Mapping 3 + unicast: the event is sent under every attribute
        // separately, so rendezvous and subscriber-side dedup must both
        // work to deliver exactly once.
        let mut net = small_net(MappingKind::SelectiveAttribute, Primitive::Unicast, 14);
        let space = net.config().space.clone();
        // Subscription with all four constraints; event matches everything.
        let sub = Subscription::builder(&space)
            .range("a0", 0, 999_999)
            .unwrap()
            .range("a1", 0, 999_999)
            .unwrap()
            .range("a2", 0, 999_999)
            .unwrap()
            .eq("a3", 777)
            .build()
            .unwrap();
        net.subscribe(6, sub, None).unwrap();
        net.run_for_secs(30);
        net.publish(7, Event::new(&space, vec![1, 2, 3, 777]).unwrap())
            .unwrap();
        net.run_for_secs(30);
        assert_eq!(net.delivered(6).len(), 1);
    }

    #[test]
    fn traffic_classes_are_separated() {
        let mut net = small_net(MappingKind::KeySpaceSplit, Primitive::MCast, 15);
        let space = net.config().space.clone();
        let event = Event::new(&space, vec![1, 1, 1, 1]).unwrap();
        // Choose a subscriber that is NOT the event's rendezvous node, so
        // the notification must cross the network.
        let ek = net.config().mapping.ek(&event);
        let rendezvous = net
            .ring()
            .successor(ek.min_key(net.overlay_config().space).unwrap());
        let subscriber = (rendezvous.idx + 1) % net.len();
        let sub = Subscription::builder(&space)
            .range("a0", 0, 999_999)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(subscriber, sub, None).unwrap();
        net.run_for_secs(30);
        let m = net.metrics();
        assert!(m.messages(TrafficClass::SUBSCRIPTION) > 0);
        assert_eq!(m.messages(TrafficClass::PUBLICATION), 0);
        net.publish(1, event).unwrap();
        net.run_for_secs(30);
        let m = net.metrics();
        assert!(m.messages(TrafficClass::PUBLICATION) > 0);
        assert!(m.messages(TrafficClass::NOTIFICATION) > 0);
        assert_eq!(m.count(Counter::NotificationsDelivered), 1);
    }

    #[test]
    fn buffered_mode_batches_notifications() {
        let period = SimDuration::from_secs(5);
        let mut net = PubSubNetwork::builder()
            .nodes(40)
            .seed(16)
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(MappingKind::SelectiveAttribute)
                    .with_notify_mode(NotifyMode::Buffered { period }),
            )
            .build()
            .expect("valid network configuration");
        let space = net.config().space.clone();
        let sub = Subscription::builder(&space).eq("a3", 42).build().unwrap();
        net.subscribe(2, sub, None).unwrap();
        net.run_for_secs(30);
        // Three matching events in a burst → one batched notification
        // message (all land at the same rendezvous within one period).
        for i in 0..3u64 {
            net.publish(3, Event::new(&space, vec![i, i, i, 42]).unwrap())
                .unwrap();
        }
        net.run_for_secs(30);
        assert_eq!(net.delivered(2).len(), 3);
        let batched = net
            .metrics()
            .series(Series::NotificationsBatchSize)
            .unwrap();
        assert!(batched.max().unwrap() >= 2, "no batching observed");
        assert_eq!(net.metrics().count(Counter::NotificationsMessages), 1);
    }

    #[test]
    fn collecting_mode_delivers_correctly() {
        let period = SimDuration::from_secs(5);
        let mut net = PubSubNetwork::builder()
            .nodes(60)
            .seed(17)
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(MappingKind::SelectiveAttribute)
                    .with_primitive(Primitive::MCast)
                    .with_notify_mode(NotifyMode::Collecting { period }),
            )
            .build()
            .expect("valid network configuration");
        let space = net.config().space.clone();
        // A wide selective range so the subscription spans many rendezvous
        // nodes on the ring (≈ 1600 keys ≈ a dozen nodes at n = 60).
        let sub = Subscription::builder(&space)
            .range("a1", 300_000, 500_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(8, sub, None).unwrap();
        net.run_for_secs(30);
        // Publish several events across the subscribed range (they land on
        // different rendezvous nodes).
        for i in 0..5u64 {
            net.publish(
                9,
                Event::new(&space, vec![1, 300_000 + i * 40_000, 2, 3]).unwrap(),
            )
            .unwrap();
        }
        net.run_for_secs(120);
        assert_eq!(net.delivered(8).len(), 5, "collecting lost notifications");
        // The collect exchanges actually happened.
        assert!(net.metrics().messages(TrafficClass::COLLECT) > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut net = small_net(MappingKind::KeySpaceSplit, Primitive::MCast, seed);
            let space = net.config().space.clone();
            let sub = Subscription::builder(&space)
                .range("a0", 0, 500_000)
                .unwrap()
                .build()
                .unwrap();
            net.subscribe(1, sub, None).unwrap();
            net.run_for_secs(20);
            for i in 0..10 {
                net.publish(
                    (i % 7) as usize,
                    Event::new(&space, vec![i * 40_000, 1, 2, 3]).unwrap(),
                )
                .unwrap();
            }
            net.run_for_secs(60);
            (
                net.metrics().total_messages(),
                net.delivered(1).len(),
                net.now(),
            )
        };
        assert_eq!(run(99), run(99));
    }
}
