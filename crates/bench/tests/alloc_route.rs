//! Routing-footprint gate, the memory twin of `alloc_steady.rs`: a node
//! that has received a handful of messages may own only a handful of
//! location-cache entries. With a table reserved to the configured bound
//! on a node's first message, 10^5 nodes that each hear from a few peers
//! held over a gigabyte of empty buckets (≈ 12.8 KB per node at the
//! default 256 entries). The sorted arrays hold their first
//! `INLINE_ENTRIES` entries in the routing state itself, so a node that
//! has heard from that many peers or fewer owns no heap at all; past that
//! they grow with the entries learned and never past the bound.
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide, hence also a single
//! test function.

mod counting_alloc;

use counting_alloc::{live_bytes, CountingAlloc};

use cbps_overlay::{
    build_stable, ChordNode, Delivery, KeySpace, LocationCache, OverlayApp, OverlayConfig,
    OverlayServices, Peer, INLINE_ENTRIES,
};
use cbps_sim::{NetConfig, TraceId, TrafficClass};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean live heap bytes a node may gain from one routed message per node
/// (≈ 8 messages received each, 10.5 peers cached). Measured: 52.0 — the
/// spilled arrays of the one node in fifteen that heard from more than
/// `INLINE_ENTRIES` peers; 293 while every entry lived on the heap.
const MAX_BYTES_PER_NODE: f64 = 64.0;

/// Of those, bytes per node that may lie outside the spilled caches: the
/// node's share of the simulator's pooled slots. Measured: 0.13.
const MAX_ELSEWHERE_PER_NODE: f64 = 2.0;

/// Bytes one cache entry owns: its key, and stamp and address in one word.
const ENTRY_BYTES: usize = 16;

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
    // What the caches that outgrew their in-place entries own: arrays that
    // doubled from twice the in-place size until the entries fitted.
    let spilled = sim.nodes().filter(|(_, n)| !n.routing().is_in_place());
    let spilled_bytes: usize = spilled
        .map(|(_, n)| {
            let mut slots = 2 * INLINE_ENTRIES;
            while slots < n.routing().cache_len() {
                slots *= 2;
            }
            ENTRY_BYTES * slots.min(cfg.cache_capacity)
        })
        .sum();
    assert!(
        cached >= 2 * nodes,
        "the messages taught the nodes only {cached} peers: nothing was measured"
    );
    assert!(
        per_node <= MAX_BYTES_PER_NODE,
        "{per_node:.0} live heap bytes per node after one routed message per node \
         (bound {MAX_BYTES_PER_NODE})"
    );
    let elsewhere = per_node - spilled_bytes as f64 / nodes as f64;
    assert!(
        elsewhere <= MAX_ELSEWHERE_PER_NODE,
        "{elsewhere:.1} live heap bytes per node outside the spilled caches: \
         a cache that fits in place owns heap"
    );

    // A cache owns at most the configured bound's worth of entries, however
    // few or many peers it has been taught, and nothing at all while what
    // it has been taught fits in place.
    let s = KeySpace::new(20);
    for capacity in [8usize, INLINE_ENTRIES, 100, 256] {
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
            assert!(
                owned == 0 || cache.len() > INLINE_ENTRIES,
                "a cache of {} entries owns {owned} bytes",
                cache.len()
            );
        }
    }
}
