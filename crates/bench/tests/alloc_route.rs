//! Routing-footprint gate, the memory twin of `alloc_steady.rs`: a node
//! that has received a handful of messages may own only a handful of
//! location-cache entries. With a table reserved to the configured bound
//! on a node's first message, 10^5 nodes that each hear from a few peers
//! held over a gigabyte of empty buckets (≈ 12.8 KB per node at the
//! default 256 entries); the sorted arrays grow with the entries learned
//! and never past the bound.
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide, hence also a single
//! test function.

mod counting_alloc;

use counting_alloc::{live_bytes, CountingAlloc};

use cbps_overlay::{
    build_stable, ChordNode, Delivery, KeySpace, LocationCache, OverlayApp, OverlayConfig,
    OverlayServices, Peer,
};
use cbps_sim::{NetConfig, TraceId, TrafficClass};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean live heap bytes a node may gain from one routed message per node
/// (≈ 8 messages received each): cache arrays for the peers it heard
/// from, plus its share of the simulator's pooled slots.
const MAX_BYTES_PER_NODE: f64 = 1024.0;

/// Bytes one cache entry owns: key and stamp (8 each), address (4).
const ENTRY_BYTES: usize = 20;

struct Noop;

impl OverlayApp for Noop {
    type Payload = ();
    type Timer = ();
    fn on_deliver(&mut self, _: (), _: Delivery, _: &mut dyn OverlayServices<(), ()>) {}
}

#[test]
fn routing_state_grows_with_the_peers_heard_from() {
    let nodes = 10_000;
    let cfg = OverlayConfig::paper_default().with_space(cbps::deployment_key_space(nodes));
    let (mut sim, _ring) = build_stable(NetConfig::new(3), cfg, (0..nodes).map(|_| Noop).collect());
    let space = cfg.space;
    let before = live_bytes();
    for node in 0..nodes {
        let key = space.key(sim.rng_mut().next_u64());
        sim.with_node(node, |n: &mut ChordNode<Noop>, ctx| {
            n.app_call(ctx, |_, svc| {
                svc.send(key, TrafficClass::OTHER, (), TraceId::NONE)
            })
        });
        sim.run();
    }
    let per_node = (live_bytes() - before) as f64 / nodes as f64;
    let cached: usize = sim.nodes().map(|(_, n)| n.routing().cache_len()).sum();
    assert!(
        cached >= 2 * nodes,
        "the messages taught the nodes only {cached} peers: nothing was measured"
    );
    assert!(
        per_node <= MAX_BYTES_PER_NODE,
        "{per_node:.0} live heap bytes per node after one routed message per node \
         (bound {MAX_BYTES_PER_NODE})"
    );

    // A cache owns at most the configured bound's worth of entries, however
    // few or many peers it has been taught.
    let s = KeySpace::new(20);
    for capacity in [8usize, 100, 256] {
        for taught in [1, capacity / 2, capacity, 4 * capacity] {
            let before = live_bytes();
            let mut cache = LocationCache::new(capacity);
            for k in 0..taught {
                cache.learn(Peer {
                    idx: k,
                    key: s.key(977 * k as u64),
                });
            }
            let owned = live_bytes() - before;
            assert_eq!(cache.len(), taught.min(capacity));
            assert!(
                owned as usize <= ENTRY_BYTES * capacity,
                "a {capacity}-entry cache taught {taught} peers owns {owned} bytes"
            );
        }
    }
}
