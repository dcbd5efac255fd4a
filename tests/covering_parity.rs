//! End-to-end covering parity, pinned: a full pub/sub deployment —
//! overlay, mapping 3, collecting notifications, one replica, a crash and
//! a join — must deliver the same notifications, count the same messages
//! and process the same events as the digest recorded below. The
//! core-crate differential suite checks the store on raw sub/unsub/event
//! streams; this one checks everything layered on top.
//!
//! The digest was first recorded with subscription covering (stores
//! grouping nested subscriptions under one engine entry) on and off alike,
//! at the last commit that had the switch. Seed 3's was re-pinned when a
//! rendezvous began matching a subscription only at the owner of its
//! placing attribute's event key: six duplicate matches (93 → 87, now
//! equal to the 87 deliveries) and their notification and collect
//! messages (178/6 → 174/3) went, and the deliveries stayed the same.
//! Seed 17 had no duplicate to lose. A change meant to move message
//! counts or deliveries re-pins it from the failure message.

use cbps::{MappingKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{Counter, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// FNV-1a digests of [`observables`] at seeds 3 and 17.
const PINNED: [(u64, u64); 2] = [(3, 0x3f02_81f4_f6ec_ab0c), (17, 0x9249_2c89_ffa8_4b1f)];

/// Replays a seeded workload and renders every observable the store must
/// not change as one string.
fn observables(seed: u64) -> String {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .seed(seed)
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(10),
                })
                .with_replication(1),
        )
        .build()
        .expect("valid network configuration");
    let wl = WorkloadConfig::paper_default(40, 4)
        .with_counts(80, 160)
        .with_sub_ttl(Some(SimDuration::from_secs(300)));
    let mut gen = WorkloadGen::new(net.config().space.clone(), wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    // Crash a node and join a fresh one mid-run so replication hand-off
    // and the joiner's store construction are covered too.
    net.crash(35);
    net.run_for_secs(60);
    net.join_new_node("digest-joiner", 0);
    net.run_until(trace.end_time() + SimDuration::from_secs(300));

    let mut deliveries: Vec<(usize, SubId, cbps::EventId)> = Vec::new();
    for idx in 0..40 {
        for note in net.delivered(idx) {
            deliveries.push((idx, note.sub_id, note.event_id));
        }
    }
    let messages: Vec<u64> = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
        TrafficClass::COLLECT,
        TrafficClass::STATE_TRANSFER,
    ]
    .iter()
    .map(|&c| net.metrics().messages(c))
    .collect();
    let matches = net.metrics().count(Counter::Matches);
    let delivered = net.metrics().count(Counter::NotificationsDelivered);
    let peaks = net.peak_stored_counts();
    let events = net.sim_mut().events_processed();
    format!(
        "matches {matches} delivered {delivered} events {events} \
         msgs {messages:?} peaks {peaks:?} deliveries {deliveries:?}"
    )
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Holds `text` to `pinned`, naming the digest it read on a mismatch.
fn check(seed: u64, text: &str, pinned: u64) {
    let digest = fnv1a(text);
    assert_eq!(
        digest, pinned,
        "seed {seed}: the deployment's observables changed (digest {digest:#x}): {text}"
    );
}

#[test]
fn pubsub_deployment_is_covering_independent() {
    for (seed, pinned) in PINNED {
        let text = observables(seed);
        // Guard against a degenerate workload that pinned nothing.
        assert!(
            !text.contains("deliveries []"),
            "seed {seed}: workload delivered nothing: {text}"
        );
        check(seed, &text, pinned);
    }
}

/// The pin is a real check: one changed delivery changes the digest, and
/// `check` refuses it.
#[test]
#[should_panic(expected = "observables changed")]
fn a_changed_observable_fails_the_pin() {
    let (seed, pinned) = PINNED[0];
    let text = observables(seed).replacen("deliveries [(", "deliveries [(1", 1);
    check(seed, &text, pinned);
}
