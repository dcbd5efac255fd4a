//! Property-style tests of the overlay's core invariants: circular
//! interval-set algebra, m-cast partitioning, and greedy routing against
//! the global ring oracle.
//!
//! These were originally `proptest` suites; they are now plain seeded
//! loops over `cbps-rng` so the workspace tests with zero external
//! crates. Each case count matches or exceeds the old proptest defaults,
//! and the seed is fixed so failures reproduce exactly.

use std::collections::BTreeSet;

use cbps_overlay::{
    KeyRange, KeyRangeSet, KeySpace, OverlayConfig, Peer, RingView, RouteTable, RoutingState,
};
use cbps_rng::Rng;

/// A naive model of a key set: an explicit `BTreeSet<u64>`.
fn model_of(space: KeySpace, ranges: &[(u64, u64)]) -> BTreeSet<u64> {
    let mut model = BTreeSet::new();
    for &(start, len) in ranges {
        for off in 0..=len {
            model.insert((start + off) & space.max_value());
        }
    }
    model
}

fn set_of(space: KeySpace, ranges: &[(u64, u64)]) -> KeyRangeSet {
    let mut set = KeyRangeSet::new();
    for &(start, len) in ranges {
        let s = space.key(start);
        let e = space.add(s, len);
        set.insert_range(space, KeyRange::new(s, e));
    }
    set
}

/// Draws a random list of `(start, len)` range seeds.
fn random_ranges(rng: &mut Rng, max_count: usize, start_max: u64, len_max: u64) -> Vec<(u64, u64)> {
    let count = rng.gen_range(0..=max_count);
    (0..count)
        .map(|_| (rng.gen_range(0..start_max), rng.gen_range(0..len_max)))
        .collect()
}

/// KeyRangeSet agrees with the explicit-set model on membership,
/// cardinality and iteration.
#[test]
fn range_set_matches_model() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a1);
    let space = KeySpace::new(8);
    for case in 0..512 {
        let ranges = random_ranges(&mut rng, 7, 256, 80);
        let set = set_of(space, &ranges);
        let model = model_of(space, &ranges);
        assert_eq!(set.count(), model.len() as u64, "case {case}: count");
        assert_eq!(set.is_empty(), model.is_empty(), "case {case}: emptiness");
        for _ in 0..32 {
            let p = rng.gen_range(0u64..256);
            assert_eq!(
                set.contains(space.key(p)),
                model.contains(&p),
                "case {case}: probe {p}"
            );
        }
        let iterated: BTreeSet<u64> = set.iter_keys(space).map(|k| k.value()).collect();
        assert_eq!(iterated, model, "case {case}: iteration");
    }
}

/// extract_arc_oc returns exactly the model subset on the arc.
#[test]
fn extract_arc_matches_model() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a2);
    let space = KeySpace::new(8);
    for case in 0..512 {
        let ranges = random_ranges(&mut rng, 5, 256, 60);
        let a = rng.gen_range(0u64..256);
        let b = rng.gen_range(0u64..256);
        let set = set_of(space, &ranges);
        let model = model_of(space, &ranges);
        let part = set.extract_arc_oc(space, space.key(a), space.key(b));
        let expect: BTreeSet<u64> = model
            .iter()
            .copied()
            .filter(|&x| space.in_arc_oc(space.key(x), space.key(a), space.key(b)))
            .collect();
        let got: BTreeSet<u64> = part.iter_keys(space).map(|k| k.value()).collect();
        assert_eq!(got, expect, "case {case}: arc ({a}, {b}]");
    }
}

/// Union is the model union.
#[test]
fn union_matches_model() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a3);
    let space = KeySpace::new(8);
    for case in 0..512 {
        let ra = random_ranges(&mut rng, 4, 256, 60);
        let rb = random_ranges(&mut rng, 4, 256, 60);
        let mut a = set_of(space, &ra);
        let b = set_of(space, &rb);
        let mut model = model_of(space, &ra);
        model.extend(model_of(space, &rb));
        a.union_with(&b);
        let got: BTreeSet<u64> = a.iter_keys(space).map(|k| k.value()).collect();
        assert_eq!(got, model, "case {case}");
    }
}

/// intersects() agrees with the models' disjointness.
#[test]
fn intersects_matches_model() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a4);
    let space = KeySpace::new(8);
    for case in 0..512 {
        let ra = random_ranges(&mut rng, 4, 256, 40);
        let rb = random_ranges(&mut rng, 4, 256, 40);
        let a = set_of(space, &ra);
        let b = set_of(space, &rb);
        let ma = model_of(space, &ra);
        let mb = model_of(space, &rb);
        assert_eq!(
            a.intersects(&b),
            ma.intersection(&mb).next().is_some(),
            "case {case}"
        );
    }
}

/// Builds a converged routing state for every node of a random ring.
fn converged_ring(keys: &[u64]) -> (KeySpace, RingView, Vec<RoutingState>) {
    let space = KeySpace::new(10);
    let cfg = OverlayConfig::paper_default()
        .with_space(space)
        .with_cache_capacity(0);
    let mut unique: Vec<u64> = keys.to_vec();
    unique.sort_unstable();
    unique.dedup();
    let peers: Vec<Peer> = unique
        .iter()
        .enumerate()
        .map(|(idx, &k)| Peer {
            idx,
            key: space.key(k),
        })
        .collect();
    let ring = RingView::new(space, peers.clone());
    let states = peers
        .iter()
        .map(|&me| {
            let mut st = RoutingState::new(cfg, me);
            if peers.len() > 1 {
                st.set_predecessor(Some(ring.predecessor(me.key)));
                st.set_successors(ring.successors_of(me.key, cfg.succ_list_len));
                for (i, f) in ring.fingers_of(me.key).into_iter().enumerate() {
                    st.set_finger(i, f);
                }
            }
            st
        })
        .collect();
    (space, ring, states)
}

/// Draws a random de-duplicated key set of size within `lo..hi`.
fn random_keys(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u64> {
    let want = rng.gen_range(lo..hi);
    let mut set = BTreeSet::new();
    // Oversample: duplicates collapse, mirroring the old btree_set strategy.
    for _ in 0..want * 2 {
        if set.len() >= want {
            break;
        }
        set.insert(rng.gen_range(0u64..1024));
    }
    set.into_iter().collect()
}

/// Greedy routing from any node reaches exactly the oracle's covering
/// node, monotonically shrinking the clockwise distance.
#[test]
fn greedy_routing_reaches_oracle_successor() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a5);
    for case in 0..256 {
        let keys = random_keys(&mut rng, 2, 40);
        let target = rng.gen_range(0u64..1024);
        let start_sel = rng.gen_range(0usize..1000);
        let (space, ring, mut states) = converged_ring(&keys);
        let target = space.key(target);
        let expect = ring.successor(target);
        let mut at = start_sel % states.len();
        let mut hops = 0;
        loop {
            match states[at].next_hop(target) {
                None => break,
                Some(next) => {
                    // Progress: strictly closer to the target (clockwise),
                    // except for the final hop, which lands on the covering
                    // node just *past* the target key.
                    let d_now = space.distance_cw(states[at].me().key, target);
                    let d_next = space.distance_cw(next.key, target);
                    assert!(
                        d_next < d_now || next.idx == expect.idx,
                        "case {case}: no progress at hop {hops}"
                    );
                    at = next.idx;
                }
            }
            hops += 1;
            assert!(hops <= states.len(), "case {case}: routing loop");
        }
        assert_eq!(states[at].me().idx, expect.idx, "case {case}");
    }
}

/// The m-cast split at any node partitions the target set exactly:
/// local ∪ bundles = targets, pairwise disjoint, no bundle to self.
#[test]
fn mcast_split_is_exact_partition() {
    let mut rng = Rng::seed_from_u64(0x0005_e7a6);
    for case in 0..256 {
        let keys = random_keys(&mut rng, 1, 40);
        let range_count = rng.gen_range(1usize..4);
        let ranges: Vec<(u64, u64)> = (0..range_count)
            .map(|_| (rng.gen_range(0u64..1024), rng.gen_range(0u64..300)))
            .collect();
        let node_sel = rng.gen_range(0usize..1000);
        let (space, _ring, states) = converged_ring(&keys);
        let st = &states[node_sel % states.len()];
        let mut targets = KeyRangeSet::new();
        for &(start, len) in &ranges {
            let s = space.key(start);
            targets.insert_range(space, KeyRange::new(s, space.add(s, len)));
        }
        let (local, bundles) = st.mcast_split(&targets);
        let mut union = local.clone();
        let mut total = local.count();
        for (peer, subset) in bundles.iter() {
            assert!(
                peer.key != st.me().key,
                "case {case}: bundle addressed to self"
            );
            assert!(!subset.is_empty(), "case {case}: empty bundle");
            assert!(!union.intersects(subset), "case {case}: overlapping split");
            union.union_with(subset);
            total += subset.count();
        }
        assert_eq!(total, targets.count(), "case {case}: total");
        assert_eq!(union, targets, "case {case}: union");
        // The local part is within our coverage.
        if let Some(pred) = st.predecessor() {
            let cover = local.extract_arc_oc(space, pred.key, st.me().key);
            assert_eq!(cover, local, "case {case}: local outside coverage");
        }
    }
}

/// Minimal app for full-network deployment builds.
#[derive(Default)]
struct Null;

impl cbps_overlay::OverlayApp for Null {
    type Payload = u64;
    type Timer = ();
    fn on_deliver(
        &mut self,
        _payload: u64,
        _delivery: cbps_overlay::Delivery,
        _svc: &mut dyn cbps_overlay::OverlayServices<u64, ()>,
    ) {
    }
}

/// The batched deployment build path (`build_stable` with the shared
/// sorted-key table and the O(n*m) finger grid) agrees with the per-node
/// `RingView` oracle on every predecessor, successor list, and finger —
/// at n = 10^4 in a widened key space, the regime `--scale large` runs
/// in.
#[test]
fn large_ring_build_matches_oracle() {
    let n = 10_000;
    let space = KeySpace::new(16);
    let cfg = OverlayConfig::paper_default().with_space(space);
    let apps: Vec<Null> = (0..n).map(|_| Null).collect();
    let (sim, ring) = cbps_overlay::build_stable(cbps_sim::NetConfig::new(9), cfg, apps);
    assert_eq!(ring.len(), n);
    for (idx, node) in sim.nodes() {
        let me = node.me();
        assert_eq!(me.idx, idx);
        let st = node.routing();
        assert_eq!(
            st.predecessor().unwrap(),
            ring.predecessor(me.key),
            "predecessor of node {idx}"
        );
        assert_eq!(
            st.successors(),
            ring.successors_of(me.key, cfg.succ_list_len),
            "successor list of node {idx}"
        );
        for (i, f) in st.fingers().enumerate() {
            let expect = ring.successor(space.finger_target(me.key, i as u32));
            if expect.key == me.key {
                assert_eq!(f, None, "finger {i} of node {idx}");
            } else {
                assert_eq!(f, Some(expect), "finger {i} of node {idx}");
            }
        }
    }
}
