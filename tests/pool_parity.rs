//! End-to-end pool parity: the slab pool that recycles in-flight
//! envelope and timer slots is a pure allocation strategy — switching
//! between [`PoolMode::Reuse`] and the always-allocate [`PoolMode::Fresh`]
//! control must not change a single observable output. A full pub/sub
//! deployment (overlay, mappings, notification pipeline, TTL churn,
//! crash/join) is replayed under both modes and every observable —
//! deliveries, message counts, event totals — must match exactly. The
//! rendered experiment tables `ci.sh` diffs are covered by the
//! harness-path test below.

use cbps::{MappingKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{NetConfig, PoolMode, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Replays a seeded workload under `pool` and renders every observable as
/// one string.
fn run_digest(pool: PoolMode, seed: u64) -> String {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .net_config(NetConfig::new(seed).with_pool(pool))
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
    // Crash a node and join a fresh one mid-run: churn retires many
    // in-flight slots at once, which is where a generation-check bug in
    // the slab would surface as a divergence.
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
fn pubsub_deployment_is_pool_mode_independent() {
    for seed in [3u64, 17] {
        let reuse = run_digest(PoolMode::Reuse, seed);
        let fresh = run_digest(PoolMode::Fresh, seed);
        assert_eq!(reuse, fresh, "seed {seed}: pooled run diverged from fresh");
        // Guard against a degenerate workload that compared nothing.
        assert!(
            reuse.contains("delivered") && !reuse.contains("deliveries []"),
            "workload delivered nothing: {reuse}"
        );
    }
}

/// The experiment harness path: the runner's process-wide pool knob must
/// not change a single byte of a rendered experiment table. Kept as one
/// test because the knob is global to the process.
#[test]
fn experiment_tables_are_pool_mode_independent() {
    let render = |pool: PoolMode| {
        cbps_bench::runner::set_pool(pool);
        let tables = cbps_bench::experiments::run_named("route", cbps_bench::Scale::Quick)
            .expect("route is a known experiment");
        let out: Vec<String> = tables.iter().map(|t| t.render()).collect();
        out.join("\n")
    };
    let reuse = render(PoolMode::Reuse);
    let fresh = render(PoolMode::Fresh);
    cbps_bench::runner::set_pool(PoolMode::default());
    assert_eq!(reuse, fresh, "route tables differ between pool modes");
}
