//! The portability demonstration: the same pub/sub layer, workload and
//! seeds over Chord and over Pastry must produce the same logical
//! deliveries — only the routing paths (and hence message counts) differ.
//!
//! The core of the suite is a table-driven cross-overlay parity matrix:
//! every ak-mapping × every notification mode × discretization on/off,
//! asserting identical delivered sets, duplicate-suppression counts and
//! stored-subscription totals on both substrates.

use std::collections::BTreeSet;

use cbps::{
    ChordBackend, EventId, MappingKind, NotifyMode, OverlayBackend, Primitive, PubSubConfig,
    PubSubNetwork, PubSubNetworkBuilder, SubId,
};
use cbps_overlay::{KeyRange, KeyRangeSet, OverlayServices, RingView};
use cbps_pastry::{build_pastry_stable, common_prefix_len, PastryBackend, PastryConfig};
use cbps_sim::{Counter, NetConfig, Series, SimDuration, TraceId, TrafficClass};
use cbps_workload::{OpKind, Trace, WorkloadConfig, WorkloadGen};

/// What one run of the shared workload produced, in overlay-independent
/// terms.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    delivered: BTreeSet<(usize, SubId, EventId)>,
    duplicates: u64,
    stored_total: usize,
}

fn run_on<B: OverlayBackend>(
    pubsub: PubSubConfig,
    seed: u64,
    nodes: usize,
    trace: &Trace,
) -> Outcome {
    let mut net = PubSubNetworkBuilder::<B>::new()
        .nodes(nodes)
        .net_config(NetConfig::new(seed))
        .pubsub(pubsub)
        .build()
        .expect("valid network configuration");
    // Subscriptions first, publications after a settling gap.
    for op in trace.ops() {
        if let OpKind::Subscribe { sub, ttl } = &op.kind {
            net.subscribe(op.node, sub.clone(), *ttl).unwrap();
        }
    }
    net.run_for_secs(120);
    for op in trace.ops() {
        if let OpKind::Publish { event } = &op.kind {
            net.publish(op.node, event.clone()).unwrap();
        }
    }
    net.run_for_secs(600);

    let mut delivered = BTreeSet::new();
    for i in 0..nodes {
        for n in net.delivered(i) {
            assert!(
                delivered.insert((i, n.sub_id, n.event_id)),
                "duplicate delivery at node {i}"
            );
        }
    }
    Outcome {
        delivered,
        duplicates: net.metrics().count(Counter::NotificationsDuplicate),
        stored_total: net.stored_counts().iter().sum(),
    }
}

/// One parity-matrix cell: identical logical outcomes over both overlays.
fn parity_cell(kind: MappingKind, notify: NotifyMode, discretization: u64, seed: u64) {
    let nodes = 40;
    let mut pubsub = PubSubConfig::paper_default()
        .with_mapping(kind)
        .with_primitive(Primitive::MCast)
        .with_notify_mode(notify);
    if discretization > 1 {
        pubsub = pubsub.with_discretization(discretization);
    }
    let wl = WorkloadConfig::paper_default(nodes, 4)
        .with_counts(30, 60)
        .with_matching_probability(0.8);
    let mut gen = WorkloadGen::new(pubsub.space.clone(), wl, seed);
    let trace = gen.gen_trace();

    let chord = run_on::<ChordBackend>(pubsub.clone(), seed, nodes, &trace);
    let pastry = run_on::<PastryBackend>(pubsub, seed, nodes, &trace);

    assert!(
        !chord.delivered.is_empty(),
        "{kind}/{notify:?}/disc={discretization}: workload produced no deliveries"
    );
    assert_eq!(
        chord, pastry,
        "{kind}/{notify:?}/disc={discretization}: overlays disagree"
    );
}

/// The full matrix: 3 ak-mappings × 3 notification modes × discretization
/// on/off. Split into one test per mapping so failures localize and the
/// cells run in parallel.
fn parity_matrix_for(kind: MappingKind, base_seed: u64) {
    let period = SimDuration::from_secs(20);
    let modes = [
        NotifyMode::Immediate,
        NotifyMode::Buffered { period },
        NotifyMode::Collecting { period },
    ];
    for (i, notify) in modes.into_iter().enumerate() {
        for (j, disc) in [1u64, 64].into_iter().enumerate() {
            parity_cell(kind, notify, disc, base_seed + (i * 2 + j) as u64);
        }
    }
}

#[test]
fn parity_matrix_attribute_split() {
    parity_matrix_for(MappingKind::AttributeSplit, 710);
}

#[test]
fn parity_matrix_key_space_split() {
    parity_matrix_for(MappingKind::KeySpaceSplit, 720);
}

#[test]
fn parity_matrix_selective_attribute() {
    parity_matrix_for(MappingKind::SelectiveAttribute, 730);
}

/// The non-default propagation primitives stay in parity too.
#[test]
fn same_deliveries_unicast_and_walk() {
    for (primitive, seed) in [(Primitive::Unicast, 72), (Primitive::Walk, 74)] {
        let nodes = 50;
        let pubsub = PubSubConfig::paper_default()
            .with_mapping(MappingKind::SelectiveAttribute)
            .with_primitive(primitive);
        let wl = WorkloadConfig::paper_default(nodes, 4)
            .with_counts(30, 60)
            .with_matching_probability(0.8);
        let mut gen = WorkloadGen::new(pubsub.space.clone(), wl, seed);
        let trace = gen.gen_trace();
        let chord = run_on::<ChordBackend>(pubsub.clone(), seed, nodes, &trace);
        let pastry = run_on::<PastryBackend>(pubsub, seed, nodes, &trace);
        assert!(!chord.delivered.is_empty());
        assert_eq!(chord, pastry, "{primitive:?}: overlays disagree");
    }
}

/// Both builders share key assignment: same seed, same ring.
#[test]
fn same_seed_same_ring_across_backends() {
    let chord = PubSubNetwork::builder().nodes(50).seed(91).build().unwrap();
    let pastry = PubSubNetworkBuilder::<PastryBackend>::new()
        .nodes(50)
        .seed(91)
        .build()
        .unwrap();
    assert_eq!(chord.ring().peers(), pastry.ring().peers());
}

// ---------------------------------------------------------------------
// Pastry overlay-level properties.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Probe {
    delivered: Vec<(u64, u32)>,
}

impl cbps_overlay::OverlayApp for Probe {
    type Payload = u64;
    type Timer = ();
    fn on_deliver(
        &mut self,
        payload: u64,
        d: cbps_overlay::Delivery,
        _svc: &mut dyn OverlayServices<u64, ()>,
    ) {
        self.delivered.push((payload, d.hops));
    }
}

fn probe_net(
    n: usize,
    seed: u64,
) -> (
    cbps_sim::Simulator<cbps_pastry::PastryNode<Probe>>,
    RingView,
    PastryConfig,
) {
    let cfg = PastryConfig::paper_default();
    let apps: Vec<Probe> = (0..n).map(|_| Probe::default()).collect();
    let (sim, ring) = build_pastry_stable(NetConfig::new(seed), cfg, apps);
    (sim, ring, cfg)
}

#[test]
fn pastry_routing_reaches_oracle_successor() {
    let (mut sim, ring, cfg) = probe_net(60, 81);
    let space = cfg.space;
    for (i, probe) in [0u64, 17, 4095, 8191, 3000, 6000].iter().enumerate() {
        let key = space.key(*probe);
        let expect = ring.successor(key).idx;
        sim.with_node(i % 60, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.send(key, TrafficClass::OTHER, *probe, TraceId::NONE);
            })
        });
        sim.run();
        let holders: Vec<usize> = sim
            .nodes()
            .filter(|(_, n)| n.app().delivered.iter().any(|(p, _)| p == probe))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(holders, vec![expect], "key {probe}");
    }
}

#[test]
fn pastry_prefix_routing_is_logarithmic() {
    let (mut sim, _ring, cfg) = probe_net(128, 82);
    let space = cfg.space;
    for i in 0..500u64 {
        let src = (i % 128) as usize;
        let key = space.key((i * 131 + 7) % space.size());
        sim.with_node(src, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.send(key, TrafficClass::OTHER, i + 100_000, TraceId::NONE);
            })
        });
    }
    sim.run();
    // Routed through the shared handlers, dilation lands in the same
    // per-class histograms as on Chord (observability parity).
    let h = sim.metrics().series(Series::DilationOther).unwrap();
    assert_eq!(h.len(), 500);
    // Prefix routing gains ≥ 1 bit per hop: ≤ m hops hard, ~log2(n) typical.
    assert!(h.mean() < 7.0, "mean dilation {}", h.mean());
    assert!(h.max().unwrap() <= 13);
}

#[test]
fn pastry_mcast_exactly_once_over_covering_nodes() {
    let (mut sim, ring, cfg) = probe_net(80, 83);
    let space = cfg.space;
    let mut targets = KeyRangeSet::new();
    targets.insert_range(space, KeyRange::new(space.key(7000), space.key(1500))); // wraps
    targets.insert_range(space, KeyRange::new(space.key(4000), space.key(4400)));
    let expected: BTreeSet<usize> = ring
        .covering_nodes(&targets)
        .iter()
        .map(|p| p.idx)
        .collect();
    sim.with_node(9, |node, ctx| {
        node.app_call(ctx, |_, svc| {
            svc.mcast(&targets, TrafficClass::OTHER, 1, TraceId::NONE);
        })
    });
    sim.run();
    let mut got = BTreeSet::new();
    for (idx, n) in sim.nodes() {
        let hits = n.app().delivered.len();
        assert!(hits <= 1, "node {idx} delivered {hits} times");
        if hits == 1 {
            got.insert(idx);
        }
    }
    assert_eq!(got, expected);
}

#[test]
fn common_prefix_len_is_symmetric_and_bounded() {
    let space = cbps_overlay::KeySpace::new(13);
    for (a, b) in [(0u64, 8191u64), (4096, 4097), (123, 123), (1, 2)] {
        let ka = space.key(a);
        let kb = space.key(b);
        assert_eq!(
            common_prefix_len(space, ka, kb),
            common_prefix_len(space, kb, ka)
        );
        assert!(common_prefix_len(space, ka, kb) <= 13);
    }
    assert_eq!(common_prefix_len(space, space.key(5), space.key(5)), 13);
}
