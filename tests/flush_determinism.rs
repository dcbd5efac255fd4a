//! A run is a function of its seed — also when notifications are
//! buffered. A flush holds one batch per subscriber in hash maps, whose
//! iteration order differs from one map instance to the next; if that
//! order reached the wire, two builds of one deployment would send in
//! different orders and drift apart: under the paper's fixed delay only
//! through same-instant tie-breaks (one routed hop in two million events,
//! which the benchmark noticed), under a jittered delay — drawn per
//! message in send order, as here — in every arrival time. Batches leave
//! in ascending subscriber order instead.

use cbps::{EventId, MappingKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{DelayModel, NetConfig, SimDuration, SimTime, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

const NODES: usize = 20;

/// Everything the run reports: simulated events, one-hop messages per
/// traffic class, and every delivery with its arrival time.
type Outcome = (u64, Vec<u64>, Vec<(usize, SubId, EventId, SimTime)>);

fn run(mode: NotifyMode, seed: u64) -> Outcome {
    let mut net = PubSubNetwork::builder()
        .nodes(NODES)
        .net_config(NetConfig::new(seed).with_delay(DelayModel::Uniform {
            min: SimDuration::from_millis(10),
            max: SimDuration::from_millis(90),
        }))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(mode),
        )
        .build()
        .expect("valid network configuration");
    // Many matches per publication, so a flush carries batches for many
    // subscribers at once.
    let wl = WorkloadConfig::paper_default(NODES, 4)
        .with_counts(240, 480)
        .with_matching_probability(0.9);
    let mut gen = WorkloadGen::new(net.config().space.clone(), wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    net.run_until(trace.end_time() + SimDuration::from_secs(120));

    let messages = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
        TrafficClass::COLLECT,
    ]
    .iter()
    .map(|&c| net.metrics().messages(c))
    .collect();
    let mut deliveries = Vec::new();
    for node in 0..NODES {
        for note in net.delivered(node) {
            deliveries.push((node, note.sub_id, note.event_id, note.at));
        }
    }
    (net.sim_mut().events_processed(), messages, deliveries)
}

#[test]
fn buffered_and_collecting_runs_repeat_exactly() {
    let period = SimDuration::from_secs(30);
    for mode in [
        NotifyMode::Buffered { period },
        NotifyMode::Collecting { period },
    ] {
        let first = run(mode, 23);
        assert!(
            first.2.len() > 300,
            "{mode:?}: only {} deliveries — nothing was batched",
            first.2.len()
        );
        for build in 1..4 {
            let again = run(mode, 23);
            assert_eq!(first.0, again.0, "{mode:?}: events, build {build}");
            assert_eq!(
                first.1, again.1,
                "{mode:?}: messages per class, build {build}"
            );
            assert!(
                first.2 == again.2,
                "{mode:?}: deliveries or their arrival times differ in build {build}"
            );
        }
    }
}
