//! Dynamic-membership tests: join, graceful leave, crash recovery.
//!
//! The paper's experiments run on a converged ring, but §4.1 argues the
//! architecture inherits the overlay's adaptiveness to joins and failures.
//! These tests exercise that machinery: stabilization, finger repair,
//! liveness probing and leave notices.

use cbps_overlay::{
    build_stable, ChordNode, Delivery, OverlayApp, OverlayConfig, OverlayServices, Peer, RingView,
    RoutingState,
};
use cbps_sim::{Counter, NetConfig, Series, SimTime, Simulator, TraceId, TrafficClass};

/// An app that records payload deliveries and predecessor changes.
#[derive(Default)]
struct Probe {
    delivered: Vec<u32>,
    pred_changes: u32,
}

impl OverlayApp for Probe {
    type Payload = u32;
    type Timer = ();

    fn on_deliver(&mut self, payload: u32, _d: Delivery, _svc: &mut dyn OverlayServices<u32, ()>) {
        self.delivered.push(payload);
    }

    fn on_predecessor_changed(
        &mut self,
        _old: Option<Peer>,
        _new: Option<Peer>,
        _svc: &mut dyn OverlayServices<u32, ()>,
    ) {
        self.pred_changes += 1;
    }
}

fn maintained_network(
    n: usize,
    seed: u64,
) -> (Simulator<ChordNode<Probe>>, RingView, OverlayConfig) {
    let cfg = OverlayConfig::paper_default().with_maintenance(true);
    let apps: Vec<Probe> = (0..n).map(|_| Probe::default()).collect();
    let (sim, ring) = build_stable(NetConfig::new(seed), cfg, apps);
    (sim, ring, cfg)
}

/// Asserts that alive nodes form a consistent bidirectional ring.
fn assert_ring_consistent(sim: &Simulator<ChordNode<Probe>>) {
    let mut alive: Vec<Peer> = sim
        .nodes()
        .filter(|(i, _)| sim.is_alive(*i))
        .map(|(_, n)| n.me())
        .collect();
    alive.sort_by_key(|p| p.key);
    let n = alive.len();
    for (pos, peer) in alive.iter().enumerate() {
        let node = sim.node(peer.idx);
        let expect_succ = alive[(pos + 1) % n];
        let expect_pred = alive[(pos + n - 1) % n];
        assert_eq!(
            node.routing().successor(),
            Some(expect_succ),
            "node {} successor",
            peer.idx
        );
        assert_eq!(
            node.routing().predecessor(),
            Some(expect_pred),
            "node {} predecessor",
            peer.idx
        );
    }
}

#[test]
fn stable_ring_stays_consistent_under_maintenance() {
    let (mut sim, _ring, _cfg) = maintained_network(30, 1);
    sim.run_until(SimTime::from_secs(20));
    assert_ring_consistent(&sim);
    // Maintenance traffic must exist but carry the MAINTENANCE class only.
    assert!(sim.metrics().messages(cbps_sim::TrafficClass::MAINTENANCE) > 0);
    assert_eq!(
        sim.metrics().messages(cbps_sim::TrafficClass::PUBLICATION),
        0
    );
}

#[test]
fn join_integrates_new_node() {
    let (mut sim, ring, cfg) = maintained_network(25, 2);
    sim.run_until(SimTime::from_secs(2));

    // Pick a key not already on the ring.
    let space = cfg.space;
    let mut key = space.key(4242);
    while ring.peers().iter().any(|p| p.key == key) {
        key = space.add(key, 1);
    }
    let idx = sim.len();
    let me = Peer { idx, key };
    let added = sim.add_node(ChordNode::new(RoutingState::new(cfg, me), Probe::default()));
    assert_eq!(added, idx);
    let bootstrap = sim.node(0).me();
    sim.with_node(idx, |node, ctx| node.start_join(bootstrap, ctx));

    sim.run_until(SimTime::from_secs(30));
    assert_ring_consistent(&sim);

    // The joiner's fingers have been repaired to the correct successors.
    let mut peers: Vec<Peer> = ring.peers().to_vec();
    peers.push(me);
    let new_ring = RingView::new(space, peers);
    let node = sim.node(idx);
    let mut correct = 0;
    for (i, f) in node.routing().fingers().enumerate() {
        let expect = new_ring.successor(space.finger_target(key, i as u32));
        if f == Some(expect) || (f.is_none() && expect.key == key) {
            correct += 1;
        }
    }
    assert!(
        correct >= space.bits() as usize - 1,
        "only {correct}/{} fingers repaired",
        space.bits()
    );

    // Routing to a key the joiner covers reaches the joiner.
    let probe_key = key; // its own key is always covered by it now
    sim.with_node(3, |node, ctx| {
        node.app_call(ctx, |_, svc| {
            svc.send(probe_key, TrafficClass::OTHER, 77, TraceId::NONE)
        });
    });
    sim.run_until(SimTime::from_secs(31));
    assert_eq!(sim.node(idx).app().delivered, vec![77]);
}

#[test]
fn crash_heals_ring_and_reroutes() {
    let (mut sim, ring, _cfg) = maintained_network(25, 3);
    sim.run_until(SimTime::from_secs(2));

    let victim = 7usize;
    let victim_key = sim.node(victim).me().key;
    let heir = ring.next_node(victim_key); // takes over the victim's arc
    sim.crash(victim);
    sim.run_until(SimTime::from_secs(40));
    assert_ring_consistent(&sim);

    // A key formerly covered by the victim now lands on its successor.
    sim.with_node(1, |node, ctx| {
        node.app_call(ctx, |_, svc| {
            svc.send(victim_key, TrafficClass::OTHER, 55, TraceId::NONE)
        });
    });
    sim.run_until(SimTime::from_secs(41));
    assert_eq!(sim.node(heir.idx).app().delivered, vec![55]);
    // The heir observed a predecessor change (failure-driven takeover).
    assert!(sim.node(heir.idx).app().pred_changes >= 1);
}

#[test]
fn multiple_crashes_within_successor_list_tolerance() {
    let (mut sim, ring, _cfg) = maintained_network(30, 4);
    sim.run_until(SimTime::from_secs(2));

    // Crash two ring-adjacent nodes simultaneously (succ list length is 4).
    let k0 = sim.node(11).me().key;
    let neighbor = ring.next_node(k0);
    sim.crash(11);
    sim.crash(neighbor.idx);
    sim.run_until(SimTime::from_secs(60));
    assert_ring_consistent(&sim);
}

#[test]
fn graceful_leave_relinks_neighbors_immediately() {
    let (mut sim, ring, _cfg) = maintained_network(20, 5);
    sim.run_until(SimTime::from_secs(2));

    let leaver = 4usize;
    let me = sim.node(leaver).me();
    let pred = ring.predecessor(me.key);
    let succ = ring.next_node(me.key);
    sim.with_node(leaver, |node, ctx| node.start_leave(ctx));
    sim.crash(leaver);
    // One network delay suffices: no stabilization round needed.
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(sim.node(pred.idx).routing().successor(), Some(succ));
    assert_eq!(sim.node(succ.idx).routing().predecessor(), Some(pred));
    sim.run_until(SimTime::from_secs(30));
    assert_ring_consistent(&sim);
}

#[test]
fn lookups_succeed_during_churn() {
    let (mut sim, _ring, cfg) = maintained_network(40, 6);
    let space = cfg.space;
    sim.run_until(SimTime::from_secs(2));
    // Crash one node, then immediately issue lookups from many sources.
    sim.crash(13);
    let mut issued = 0u64;
    for i in 0..60u64 {
        let src = (i % 40) as usize;
        if src == 13 {
            continue;
        }
        issued += 1;
        let target = space.key(i * 131 + 3);
        sim.with_node(src, |node, ctx| node.start_lookup(target, ctx));
    }
    sim.run_until(SimTime::from_secs(90));
    // Lookups whose path crossed the dead node are lost (no retransmission
    // layer — the paper's simulator behaves the same); the overwhelming
    // majority must still complete.
    let done = sim
        .metrics()
        .series(Series::LookupHops)
        .map(|h| h.len())
        .unwrap_or(0);
    assert!(
        done >= issued * 9 / 10,
        "only {done}/{issued} lookups completed"
    );
}

#[test]
fn mcast_routes_around_unannounced_crashes() {
    // Maintenance OFF: nobody has been told about the crash — only the
    // connection-failure path (on_send_failed) can save the multicast.
    let cfg = OverlayConfig::paper_default();
    let apps: Vec<Probe> = (0..40).map(|_| Probe::default()).collect();
    let (mut sim, ring) = cbps_overlay::build_stable(NetConfig::new(17), cfg, apps);
    let space = cfg.space;

    let victim = 13usize;
    sim.crash(victim);

    let targets = cbps_overlay::KeyRangeSet::of_range(
        space,
        cbps_overlay::KeyRange::new(space.key(0), space.key(8191)),
    );
    sim.with_node(2, |node, ctx| {
        node.app_call(ctx, |_, svc| {
            svc.mcast(&targets, TrafficClass::OTHER, 1, TraceId::NONE)
        })
    });
    sim.run();

    // The orphaned arc's branch dies by hop TTL instead of livelocking.
    assert!(sim.metrics().count(Counter::RoutingTtlDrop) >= 1);
    // Every alive node must still deliver exactly once; the dead node's
    // arc is absorbed by whoever re-splits after the failed send.
    for (idx, node) in sim.nodes() {
        if idx == victim {
            assert!(node.app().delivered.is_empty());
            continue;
        }
        assert_eq!(
            node.app().delivered.len(),
            1,
            "alive node {idx} delivered {} times",
            node.app().delivered.len()
        );
    }
    let _ = ring;
}

#[test]
fn unicast_routes_around_unannounced_crashes() {
    let cfg = OverlayConfig::paper_default();
    let apps: Vec<Probe> = (0..40).map(|_| Probe::default()).collect();
    let (mut sim, ring) = cbps_overlay::build_stable(NetConfig::new(18), cfg, apps);
    let space = cfg.space;

    // Crash a node, then route to keys covered by OTHER nodes from many
    // sources: paths through the dead node must be repaired on the fly.
    let victim = 7usize;
    let victim_key = sim.node(victim).me().key;
    sim.crash(victim);
    let mut expected_deliveries = 0;
    for i in 0..30u64 {
        let key = space.key(i * 273 + 11);
        let dest = ring.successor(key).idx;
        if dest == victim {
            continue; // its keys are lost without maintenance — fine
        }
        expected_deliveries += 1;
        let src = (i % 40) as usize;
        if src == victim {
            continue;
        }
        sim.with_node(src, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.send(key, TrafficClass::OTHER, i as u32, TraceId::NONE)
            })
        });
    }
    sim.run();
    let delivered: usize = sim.nodes().map(|(_, n)| n.app().delivered.len()).sum();
    // Some sends were skipped when src == victim; allow that slack only.
    assert!(
        delivered + 2 >= expected_deliveries,
        "delivered {delivered} of {expected_deliveries}"
    );
    let _ = victim_key;
}
