//! End-to-end covering parity: a full pub/sub deployment — overlay,
//! mappings, notification pipeline, churn — must deliver exactly the same
//! notifications, count exactly the same messages and process exactly the
//! same events whether subscription covering is on or off. The core-crate
//! differential suite checks the store on raw sub/unsub/event streams; this
//! one checks everything layered on top.

use cbps::{MappingKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Replays a seeded workload with the given covering switch and renders
/// every covering-invariant observable as one string.
fn run_digest(covering: bool, seed: u64) -> String {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .seed(seed)
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(10),
                })
                .with_replication(1)
                .with_covering(covering),
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
    // and the joiner's store construction are compared too.
    net.crash(35);
    net.run_for_secs(60);
    net.join_new_node("parity-joiner", 0);
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
    let matches = net.metrics().counter("matches");
    let delivered = net.metrics().counter("notifications.delivered");
    let peaks = net.peak_stored_counts();
    let events = net.sim_mut().events_processed();
    format!(
        "matches {matches} delivered {delivered} events {events} \
         msgs {messages:?} peaks {peaks:?} deliveries {deliveries:?}"
    )
}

#[test]
fn pubsub_deployment_is_covering_independent() {
    for seed in [3u64, 17] {
        let covering = run_digest(true, seed);
        let plain = run_digest(false, seed);
        assert_eq!(
            covering, plain,
            "seed {seed}: the deployment without covering diverged from the one with it"
        );
        // Guard against a degenerate workload that compared nothing.
        assert!(
            covering.contains("delivered") && !covering.contains("deliveries []"),
            "workload delivered nothing: {covering}"
        );
    }
}
