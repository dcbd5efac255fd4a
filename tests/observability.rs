//! Causal-tracing invariants and observation-neutrality.
//!
//! Every delivered notification must be explainable: its trace chain has to
//! start at the application operation, carry monotone sim-time stamps, and
//! end with a `deliver` stage at the subscriber. And observation must stay
//! observation: a run with tracing enabled produces byte-identical
//! protocol behavior (deliveries, per-class message counts) to the same
//! run with tracing off.

use cbps::{
    ChordBackend, MappingKind, NotifyMode, OverlayBackend, Primitive, PubSubConfig, PubSubNetwork,
    PubSubNetworkBuilder, Subscription,
};
use cbps_bench::experiments::run_named;
use cbps_bench::{RunProfile, Scale};
use cbps_pastry::PastryBackend;
use cbps_sim::{Counter, NetConfig, ObsMode, ObsSeries, Series, SimDuration, Stage, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

fn network_on<B: OverlayBackend>(notify: NotifyMode, seed: u64, obs: ObsMode) -> PubSubNetwork<B> {
    PubSubNetworkBuilder::<B>::new()
        .nodes(60)
        .net_config(NetConfig::new(seed))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::KeySpaceSplit)
                .with_primitive(Primitive::MCast)
                .with_notify_mode(notify),
        )
        .observability(obs)
        .build()
        .expect("valid network configuration")
}

fn network(notify: NotifyMode, seed: u64, obs: ObsMode) -> PubSubNetwork {
    network_on::<ChordBackend>(notify, seed, obs)
}

fn run_workload<B: OverlayBackend>(net: &mut PubSubNetwork<B>, seed: u64) {
    let cfg = WorkloadConfig::paper_default(net.len(), 4).with_counts(60, 60);
    let mut gen = WorkloadGen::new(net.config().space.clone(), cfg, seed);
    let trace = gen.gen_trace();
    trace.replay(net);
    net.run_until(trace.end_time() + SimDuration::from_secs(600));
}

fn check_chains<B: OverlayBackend>(net: &PubSubNetwork<B>, notify: NotifyMode) {
    let mut explained = 0;
    for node in 0..net.len() {
        for note in net.delivered(node) {
            assert!(
                !note.trace().is_none(),
                "delivered note carries no trace under enabled observability"
            );
            let chain = net.explain(note.trace());
            assert!(
                !chain.is_empty(),
                "no stage records for delivered trace {:?}",
                note.trace()
            );
            // The chain starts at the application operation...
            assert_eq!(
                chain[0].stage,
                Stage::Publish,
                "chain of a publication trace must start at publish"
            );
            assert_eq!(chain[0].class, TrafficClass::PUBLICATION);
            // ...carries monotone timestamps...
            for pair in chain.windows(2) {
                assert!(
                    pair[0].at <= pair[1].at,
                    "stage timestamps went backwards: {pair:?}"
                );
            }
            // ...and reaches this subscriber with a deliver stage.
            assert!(
                chain
                    .iter()
                    .any(|r| r.stage == Stage::Deliver && r.node == node),
                "no deliver stage at node {node} in chain {chain:?}"
            );
            // A matched event must have crossed a rendezvous node.
            assert!(
                chain.iter().any(|r| r.stage == Stage::RendezvousMatch),
                "delivery without a rendezvous match in {chain:?}"
            );
            if matches!(notify, NotifyMode::Collecting { .. }) {
                // The collecting protocol may deliver via the agent
                // directly, but buffered waits must be recorded somewhere
                // along the way for flushed items.
                assert!(
                    chain
                        .iter()
                        .all(|r| r.stage != Stage::CollectHop || r.class == TrafficClass::COLLECT),
                    "collect hops must ride the collect class: {chain:?}"
                );
            }
            explained += 1;
        }
    }
    assert!(explained > 0, "workload produced no deliveries to explain");
}

#[test]
fn every_delivery_is_explained_immediate() {
    let mut net = network(NotifyMode::Immediate, 11, ObsMode::Full);
    run_workload(&mut net, 11);
    check_chains(&net, NotifyMode::Immediate);
}

#[test]
fn every_delivery_is_explained_buffered() {
    let notify = NotifyMode::Buffered {
        period: SimDuration::from_secs(30),
    };
    let mut net = network(notify, 12, ObsMode::Full);
    run_workload(&mut net, 12);
    check_chains(&net, notify);
    // Buffered runs must record how long notifications waited.
    let obs = net.metrics().obs();
    let waited = obs
        .stage_histogram(TrafficClass::NOTIFICATION, Stage::BufferWait)
        .expect("buffered run records buffer waits");
    assert!(!waited.is_empty());
}

#[test]
fn every_delivery_is_explained_collecting() {
    let notify = NotifyMode::Collecting {
        period: SimDuration::from_secs(30),
    };
    let mut net = network(notify, 13, ObsMode::Full);
    run_workload(&mut net, 13);
    check_chains(&net, notify);
}

#[test]
fn subscription_traces_chain_from_subscribe_to_store() {
    let mut net = network(NotifyMode::Immediate, 14, ObsMode::Full);
    let space = net.config().space.clone();
    let sub = Subscription::builder(&space)
        .range("a0", 0, 500_000)
        .unwrap()
        .build()
        .unwrap();
    net.node(5).unwrap().subscribe(sub, None).unwrap();
    net.run_for_secs(60);
    let sub_trace = net
        .metrics()
        .obs()
        .log()
        .records()
        .iter()
        .find(|r| r.stage == Stage::Subscribe)
        .expect("subscribe stage recorded")
        .trace;
    assert!(sub_trace.is_subscription());
    assert_eq!(sub_trace.node(), Some(5));
    let chain = net.explain(sub_trace);
    assert_eq!(chain[0].stage, Stage::Subscribe);
    assert!(
        chain.iter().any(|r| r.stage == Stage::Store),
        "subscription never stored: {chain:?}"
    );
}

/// Observation must never alter behavior: same seed, same workload, same
/// deliveries and per-class message counts at any observability mode.
#[test]
fn tracing_is_behavior_neutral() {
    let mut outcomes = Vec::new();
    for obs in [ObsMode::Off, ObsMode::Stages, ObsMode::Full] {
        let notify = NotifyMode::Buffered {
            period: SimDuration::from_secs(30),
        };
        let mut net = network(notify, 21, obs);
        run_workload(&mut net, 21);
        let mut deliveries = Vec::new();
        for node in 0..net.len() {
            for note in net.delivered(node) {
                deliveries.push((node, note.sub_id, note.event_id, note.at));
            }
        }
        let m = net.metrics();
        let messages: Vec<u64> = [
            TrafficClass::SUBSCRIPTION,
            TrafficClass::PUBLICATION,
            TrafficClass::NOTIFICATION,
            TrafficClass::COLLECT,
        ]
        .iter()
        .map(|&c| m.messages(c))
        .collect();
        outcomes.push((deliveries, messages));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "ObsMode::Stages changed protocol behavior"
    );
    assert_eq!(
        outcomes[0], outcomes[2],
        "ObsMode::Full changed protocol behavior"
    );
}

/// The acceptance bar for the whole layer: a figure experiment renders
/// byte-identical tables whether observability is off or fully on.
#[test]
fn figure_tables_identical_under_observation() {
    let render = |obs: ObsMode| -> Vec<String> {
        let profile = RunProfile {
            obs,
            ..RunProfile::new(Scale::Quick)
        };
        let (tables, _) = run_named("fig5", &profile).expect("known experiment");
        tables.iter().map(|t| t.render()).collect()
    };
    let off = render(ObsMode::Off);
    let on = render(ObsMode::Full);
    assert_eq!(off, on, "observability changed figure output");
}

/// Two profiles run the same experiment on two threads at once without
/// seeing each other: one serial and unobserved, one on two workers under
/// full observation. Tables and event totals agree; only the observed run
/// carries observability totals.
#[test]
fn concurrent_profiles_stay_apart() {
    let quiet = RunProfile::new(Scale::Quick);
    let observed = RunProfile {
        jobs: 2,
        obs: ObsMode::Full,
        ..quiet
    };
    let run = |profile| run_named("fig5", profile).expect("known experiment");
    let ((quiet_tables, quiet), (observed_tables, observed)) = std::thread::scope(|s| {
        let quiet = s.spawn(|| run(&quiet));
        let observed = run(&observed);
        (quiet.join().expect("the quiet run finishes"), observed)
    });
    let render =
        |tables: &[cbps_bench::Table]| tables.iter().map(|t| t.render()).collect::<Vec<_>>();
    assert_eq!(render(&quiet_tables), render(&observed_tables));
    assert!(quiet.events > 0, "no events were counted");
    assert_eq!(quiet.events, observed.events);
    assert!(quiet.obs_report().is_none() && quiet.hot_nodes.is_empty());
    let report = observed.obs_report().expect("the observed run has totals");
    assert!(!report.stages.is_empty() && !report.hot_nodes.is_empty() && report.load.is_some());
}

/// Observability parity across substrates: the exact same workload under
/// full tracing on Chord and on Pastry must explain every delivery through
/// the same causal-stage vocabulary, produce the same per-stage histogram
/// keys, and agree on the observation-independent outcomes (deliveries,
/// per-stage record counts at the end-to-end stages). `set_observability`
/// mid-run behaves identically too: switching tracing on after build
/// records on both substrates.
#[test]
fn observability_is_overlay_generic() {
    struct Profile {
        delivered: Vec<(usize, cbps::SubId, cbps::EventId)>,
        stage_keys: Vec<(String, String)>,
        delivers: usize,
        matches: usize,
    }

    fn profile<B: OverlayBackend>() -> Profile {
        // Build with tracing off, then switch it on through the façade —
        // exercising `set_observability` on the generic network.
        let mut net = network_on::<B>(NotifyMode::Immediate, 41, ObsMode::Off);
        net.set_observability(ObsMode::Full);
        run_workload(&mut net, 41);
        check_chains(&net, NotifyMode::Immediate);

        let mut deliveries = Vec::new();
        for node in 0..net.len() {
            for note in net.delivered(node) {
                deliveries.push((node, note.sub_id, note.event_id));
            }
        }
        deliveries.sort_unstable();
        let obs = net.metrics().obs();
        let mut stage_keys: Vec<(String, String)> = obs
            .stage_histograms()
            .map(|(class, stage, _)| (class.name().to_owned(), stage.name().to_owned()))
            .collect();
        stage_keys.sort();
        let records = obs.log().records();
        let delivers = records.iter().filter(|r| r.stage == Stage::Deliver).count();
        let matches = records
            .iter()
            .filter(|r| r.stage == Stage::RendezvousMatch)
            .count();
        Profile {
            delivered: deliveries,
            stage_keys,
            delivers,
            matches,
        }
    }

    let chord = profile::<ChordBackend>();
    let pastry = profile::<PastryBackend>();

    assert!(
        !chord.delivered.is_empty(),
        "workload produced no deliveries"
    );
    assert_eq!(
        chord.delivered, pastry.delivered,
        "substrates disagree on delivered notifications"
    );
    assert_eq!(
        chord.stage_keys, pastry.stage_keys,
        "substrates record different per-stage histogram vocabularies"
    );
    assert_eq!(
        (chord.delivers, chord.matches),
        (pastry.delivers, pastry.matches),
        "substrates disagree on end-to-end stage record counts"
    );
}

/// With observability off, nothing is recorded: trace ids are still
/// minted (they are cheap bit-packed counters), but no stage records or
/// histograms accumulate, and `explain` comes back empty.
#[test]
fn disabled_observability_records_nothing() {
    let mut net = network(NotifyMode::Immediate, 31, ObsMode::Off);
    run_workload(&mut net, 31);
    let obs = net.metrics().obs();
    assert!(obs.log().is_empty());
    assert_eq!(obs.stage_histograms().count(), 0);
    assert_eq!(obs.named_histograms().count(), 0);
    let mut checked = 0;
    for node in 0..net.len() {
        let traces: Vec<_> = net.delivered(node).iter().map(|n| n.trace()).collect();
        for trace in traces {
            assert!(net.explain(trace).is_empty());
            checked += 1;
        }
    }
    assert!(checked > 0, "workload produced no deliveries");
}

/// The per-node rendezvous work that the benchmark's load metric and the
/// report's load block read is one unit per publication a rendezvous node
/// matched plus one per match it produced: summed over the nodes it equals
/// the `matches` counter plus the number of `rendezvous.fanout` samples.
/// Per-key unicast under mapping 3 sends each publication to each of its
/// keys, and each key is one rendezvous visit, even when one node covers
/// several of them: the samples are the publications' keys, summed.
#[test]
fn rendezvous_work_is_matched_publications_plus_matches() {
    let mut net = PubSubNetworkBuilder::<ChordBackend>::new()
        .nodes(60)
        .net_config(NetConfig::new(37))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_primitive(Primitive::Unicast),
        )
        .observability(ObsMode::Full)
        .build()
        .expect("valid network configuration");
    run_workload(&mut net, 37);
    let m = net.metrics();
    let matches = m.count(Counter::Matches);
    assert!(matches > 0, "workload produced no matches");
    let fanout = m
        .obs()
        .series(ObsSeries::RendezvousFanout)
        .expect("publications reached rendezvous nodes");
    let keys = m
        .series(Series::KeysPerPublication)
        .expect("publications were mapped");
    assert_eq!(u128::from(fanout.len()), keys.sum());
    assert_eq!(fanout.sum(), u128::from(matches));
    let work: u64 = net.rendezvous_work_counts().iter().sum();
    assert_eq!(work, matches + fanout.len());
}
