//! End-to-end adaptive-rendezvous invariants under a Zipf flash crowd.
//!
//! Two properties are load-bearing for the dynamic rendezvous layer
//! (DESIGN.md rendezvous section):
//!
//! 1. **Delivery transparency** — splitting a hot key's subscription
//!    population across mirror arcs must not change a single delivered
//!    notification: the adaptive run's delivered set is compared
//!    entry-by-entry against the static baseline replaying the identical
//!    trace.
//! 2. **Control determinism** — split/merge decisions are taken between
//!    simulator segments from per-node work windows sampled at absolute
//!    control times, so the hot-rendezvous top-k report, split/merge
//!    counters and delivered set must be bit-identical across schedulers
//!    (heap vs wheel).

use cbps::{MappingKind, PubSubConfig, PubSubNetwork, RendezvousMode, SubId};
use cbps_bench::report::ObsReport;
use cbps_sim::{NetConfig, ObsMode, SchedulerKind, SimDuration};
use cbps_workload::{Trace, WorkloadConfig, WorkloadGen};

const NODES: usize = 150;
const SEED: u64 = 7;

/// The probe's flash-crowd workload: a Zipf(1.1) publication burst over
/// one selective attribute, hot enough to trip the default split rule.
fn flash_trace(space: cbps::EventSpace) -> Trace {
    let cfg = WorkloadConfig::paper_default(NODES, 4)
        .with_selective_attrs(1)
        .with_counts(NODES * 2, NODES * 4)
        .with_flash_crowd(NODES * 8, 1.1);
    WorkloadGen::new(space, cfg, SEED).gen_trace()
}

struct RunOutcome {
    /// Sorted delivered set, one line per (node, sub, event).
    deliveries: String,
    /// Top-5 nodes by cumulative rendezvous work, `(node, work)`.
    work_top: Vec<(usize, u64)>,
    /// Max cumulative per-node rendezvous work.
    work_max: u64,
    /// Obs-layer hot-node report (top-k peak stored subscriptions).
    hot_nodes: String,
    splits: u64,
    merges: u64,
}

fn run(mode: RendezvousMode, kind: SchedulerKind) -> RunOutcome {
    let mut net = PubSubNetwork::builder()
        .nodes(NODES)
        .net_config(NetConfig::new(SEED).with_scheduler(kind))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_rendezvous(mode),
        )
        .observability(ObsMode::Full)
        .build()
        .expect("valid network configuration");
    let trace = flash_trace(net.config().space.clone());
    trace.replay(&mut net);
    net.run_until(trace.end_time() + SimDuration::from_secs(300));

    let mut deliveries: Vec<(usize, SubId, cbps::EventId)> = Vec::new();
    for idx in 0..NODES {
        for note in net.delivered(idx) {
            deliveries.push((idx, note.sub_id, note.event_id));
        }
    }
    deliveries.sort_unstable();
    let work = net.rendezvous_work_counts();
    let mut work_top: Vec<(usize, u64)> = work.iter().copied().enumerate().collect();
    work_top.sort_by_key(|&(node, w)| (std::cmp::Reverse(w), node));
    work_top.truncate(5);
    let peaks: Vec<u64> = net
        .peak_stored_counts()
        .into_iter()
        .map(|p| p as u64)
        .collect();
    let (splits, merges) = net.rendezvous_counters();
    let obs = std::mem::take(net.metrics_mut().obs_mut());
    RunOutcome {
        deliveries: format!("{deliveries:?}"),
        work_top,
        work_max: work.iter().copied().max().unwrap_or(0),
        hot_nodes: format!("{:?}", ObsReport::distill(&obs, &peaks).hot_nodes),
        splits,
        merges,
    }
}

/// Delivery transparency: static and adaptive replay the identical trace
/// and must deliver the identical set, while the adaptive policy actually
/// exercises its split *and* merge paths and flattens the hot node.
#[test]
fn adaptive_rendezvous_preserves_delivered_sets() {
    let stat = run(RendezvousMode::Static, SchedulerKind::Heap);
    let adap = run(RendezvousMode::Adaptive, SchedulerKind::Heap);
    assert_eq!((stat.splits, stat.merges), (0, 0), "static must not split");
    assert!(adap.splits > 0, "flash crowd must trip the split rule");
    assert!(adap.merges > 0, "burst end must trip the merge rule");
    assert_eq!(
        stat.deliveries, adap.deliveries,
        "splitting changed the delivered set"
    );
    assert!(
        !adap.deliveries.is_empty() && adap.deliveries != "[]",
        "degenerate workload delivered nothing"
    );
    assert!(
        adap.work_max < stat.work_max,
        "adaptive hot node ({}) not below static hot node ({})",
        adap.work_max,
        stat.work_max
    );
}

/// Control determinism: the hot-rendezvous top-k set, the obs hot-node
/// report and the split/merge counters are identical across schedulers
/// under Zipf skew.
#[test]
fn hot_rendezvous_report_is_scheduler_independent() {
    let heap = run(RendezvousMode::Adaptive, SchedulerKind::Heap);
    assert!(heap.splits > 0, "flash crowd must trip the split rule");
    let wheel = run(RendezvousMode::Adaptive, SchedulerKind::Wheel);
    assert_eq!(heap.work_top, wheel.work_top, "work top-k diverged");
    assert_eq!(heap.hot_nodes, wheel.hot_nodes, "hot nodes diverged");
    assert_eq!(
        (heap.splits, heap.merges),
        (wheel.splits, wheel.merges),
        "control counters diverged"
    );
    assert_eq!(heap.deliveries, wheel.deliveries, "deliveries diverged");
}
