//! Store-footprint gate, the rendezvous twin of `alloc_route.rs`: on the
//! `route` workload 10^5 nodes each store a handful of subscriptions at
//! most, so whatever a matching engine allocates for its first entry is
//! paid once per node. The counting index's bucket matrix came into being
//! on the first insert — 256 list headers and the first lists, 6 624 B of
//! engine heap for one subscription — which was a fifth of `route`'s peak
//! RSS; the flat table owns a row of bounds and a handle.
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide, hence also a single
//! test function.

mod counting_alloc;

use counting_alloc::{live_bytes, CountingAlloc};

use cbps::{
    AnyMatchEngine, EventSpace, MatchEngine, StoredSub, SubId, Subscription, SubscriptionStore,
};
use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
use cbps_sim::{MatchEngineKind, SimTime, TraceId};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Engine heap bytes a store holding one subscription may own. Measured:
/// 160 — the bounds table's first four rows and the handles beside them.
const MAX_ENGINE_BYTES: i64 = 512;

#[test]
fn a_store_holding_one_subscription_owns_little_engine_heap() {
    let space = EventSpace::paper_default();
    let sub = Subscription::builder(&space)
        .range("a0", 1_000, 9_000)
        .unwrap()
        .range("a1", 20, 30)
        .unwrap()
        .eq("a3", 7)
        .build()
        .unwrap();

    // The engine a store runs by default, with the store's first entry.
    let before = live_bytes();
    let mut engine = AnyMatchEngine::new(MatchEngineKind::default(), &space);
    engine.insert(0, sub.clone());
    let engine_bytes = live_bytes() - before;
    assert_eq!(engine.len(), 1);

    // The whole store, for the record: rows, id map, group, directory.
    let keys = KeySpace::new(13);
    let stored = StoredSub {
        sub,
        subscriber: Peer {
            idx: 0,
            key: keys.key(5),
        },
        expires: SimTime::MAX,
        sk: KeyRangeSet::of_key(keys, keys.key(3)),
        trace: TraceId::NONE,
        subgroups: 0,
    };
    let before = live_bytes();
    let mut store = SubscriptionStore::new(&space);
    assert!(store.insert(SubId(1), stored, SimTime::ZERO));
    let store_bytes = live_bytes() - before;
    println!("one subscription: {engine_bytes} B of engine heap, {store_bytes} B of store heap");

    assert!(
        engine_bytes < MAX_ENGINE_BYTES,
        "a store holding one subscription owns {engine_bytes} B of engine heap \
         (bound {MAX_ENGINE_BYTES})"
    );
    drop((engine, store));
}
