//! **Extension — fault tolerance under churn (§4.1 discussion).**
//!
//! The paper argues the architecture is "highly resilient to failures
//! because very little information is lost in the case of a node crash,
//! and this information can be easily replicated on a small number of
//! other nodes". This experiment quantifies that: subscriptions are
//! stored, a fraction of the nodes crash simultaneously, and after
//! stabilization events are published. We report the fraction of
//! ground-truth notifications still delivered with replication factors
//! 0, 1 and 2, plus the state-transfer cost.
//!
//! Requires dynamic membership, which only the Chord deployment has
//! (`ChordPubSub`); the experiment pins Chord regardless of `--overlay`.

use cbps::{MappingKind, PubSubConfig, PubSubNetwork};
use cbps_overlay::OverlayConfig;
use cbps_sim::{Counter, NetConfig, SimDuration, TrafficClass};
use cbps_workload::{OpKind, Trace, WorkloadConfig, WorkloadGen};

use crate::runner::{Scale, Sweep};
use crate::table::{fmt_f, Table};

fn run_one(sweep: &Sweep, replication: usize, crashes: usize, seed: u64) -> (f64, u64, u64) {
    let n = match sweep.profile.scale {
        Scale::Quick => 80,
        Scale::Paper | Scale::Large => 200,
    };
    let subs = match sweep.profile.scale {
        Scale::Quick => 150,
        Scale::Paper | Scale::Large => 500,
    };
    let pubs = subs;
    let mut net = PubSubNetwork::builder()
        .nodes(n)
        .net_config(NetConfig::new(seed))
        .overlay(OverlayConfig::paper_default().with_maintenance(true))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_replication(replication),
        )
        .observability(sweep.profile.obs)
        .build()
        .expect("churn deployment config is valid");

    // Only the first half of the nodes subscribe/publish; crashes hit the
    // second half, so subscribers and publishers stay alive.
    let active = n / 2;
    let space = net.config().space.clone();
    let wl = WorkloadConfig::paper_default(active, 4)
        .with_counts(subs, pubs)
        .with_matching_probability(1.0);
    let mut gen = WorkloadGen::new(space, wl, seed);
    let trace = gen.gen_trace();

    // Phase 1: subscriptions only.
    let sub_ops: Vec<_> = trace
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Subscribe { .. }))
        .cloned()
        .collect();
    let pub_ops: Vec<_> = trace
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Publish { .. }))
        .cloned()
        .collect();
    let sub_trace = Trace::new(sub_ops);
    let outcome_subs = sub_trace.replay(&mut net);
    net.run_until(sub_trace.end_time() + SimDuration::from_secs(120));

    // Phase 2: crash nodes from the passive half.
    for i in 0..crashes {
        net.crash(n - 1 - i);
    }
    // Let stabilization and replica promotion settle.
    net.run_for_secs(120);

    // Phase 3: publications (retimed after the crash).
    let mut oracle = outcome_subs.oracle.clone();
    let base = net.now();
    for (k, op) in pub_ops.iter().enumerate() {
        net.run_until(base + SimDuration::from_secs(5 * k as u64));
        if let OpKind::Publish { event } = &op.kind {
            let id = net
                .publish(op.node, event.clone())
                .expect("experiment nodes and payloads are valid");
            oracle.add_pub(id, event.clone(), net.now());
        }
    }
    net.run_for_secs(300);

    let expected = oracle.expected();
    let mut got = 0u64;
    for idx in 0..active {
        for note in net.delivered(idx) {
            if expected.contains(&(note.sub_id, note.event_id)) {
                got += 1;
            }
        }
    }
    let rate = if expected.is_empty() {
        1.0
    } else {
        got as f64 / expected.len() as f64
    };
    let transfer_msgs = net.metrics().messages(TrafficClass::STATE_TRANSFER);
    let promoted = net.metrics().count(Counter::ReplicasPromoted);
    let sim = net.sim_mut();
    sweep
        .totals()
        .record_events(sim.events_processed(), sim.queue_peak());
    sweep.totals().record_obs(&mut net);
    (rate, transfer_msgs, promoted)
}

/// Runs the churn experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let mut table = Table::new(
        "Extension: delivery after simultaneous crashes (mapping 3, maintenance on)",
        &[
            "replication",
            "crashed nodes",
            "delivery rate",
            "state-transfer msgs",
            "replicas promoted",
        ],
    );
    let crashes = match sweep.profile.scale {
        Scale::Quick => 8,
        Scale::Paper | Scale::Large => 20,
    };
    for replication in [0usize, 1, 2] {
        let (rate, transfer, promoted) = run_one(sweep, replication, crashes, 951);
        table.push_row(vec![
            replication.to_string(),
            crashes.to_string(),
            fmt_f(rate),
            transfer.to_string(),
            promoted.to_string(),
        ]);
    }
    table
}
