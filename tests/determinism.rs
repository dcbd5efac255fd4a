//! Reproducibility: the same seed and configuration must produce
//! bit-identical metrics and deliveries; different seeds must not; and
//! the multi-core experiment runner must not change any result — each
//! simulation is single-threaded, so farming independent runs out to a
//! worker pool only reorders wall-clock execution, never outcomes.

use cbps::{MappingKind, Primitive, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{Counter, NetConfig, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

type Fingerprint = (u64, u64, u64, u64, Vec<usize>, Vec<(SubId, cbps::EventId)>);

fn fingerprint(seed: u64) -> Fingerprint {
    let mut net = PubSubNetwork::builder()
        .nodes(50)
        .net_config(NetConfig::new(seed))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_primitive(Primitive::Unicast),
        )
        .build()
        .expect("valid network configuration");
    let wl = WorkloadConfig::paper_default(50, 4)
        .with_counts(60, 120)
        .with_sub_ttl(Some(SimDuration::from_secs(200)));
    let mut gen = WorkloadGen::new(net.config().space.clone(), wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    net.run_until(trace.end_time() + SimDuration::from_secs(300));
    let mut delivered: Vec<(SubId, cbps::EventId)> = (0..net.len())
        .flat_map(|i| net.delivered(i).iter().map(|n| (n.sub_id, n.event_id)))
        .collect();
    delivered.sort_unstable();
    let m = net.metrics();
    (
        m.total_messages(),
        m.messages(TrafficClass::NOTIFICATION),
        m.count(Counter::Matches),
        m.count(Counter::NotificationsDelivered),
        net.peak_stored_counts(),
        delivered,
    )
}

#[test]
fn identical_seeds_are_bit_identical() {
    assert_eq!(fingerprint(1234), fingerprint(1234));
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    assert_ne!(
        a, b,
        "two seeds produced identical runs — RNG plumbing broken?"
    );
}

/// The same sweep run serially and with `--jobs 4` yields identical
/// per-point fingerprints in identical order.
#[test]
fn parallel_runner_matches_serial() {
    let seeds: Vec<u64> = vec![11, 22, 33, 44, 55, 66];
    let serial = cbps_bench::runner::parallel_map(1, seeds.clone(), fingerprint);
    let parallel = cbps_bench::runner::parallel_map(4, seeds, fingerprint);
    assert_eq!(
        serial, parallel,
        "worker pool changed simulation results — runs are not independent"
    );
}
