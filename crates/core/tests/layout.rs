//! Size ceilings for the values a routed hop strides over: the node array
//! is 10^5 of them on the `route` workload, the send-time hint asks for a
//! node's routing state line by line, and every queued event holds an
//! envelope. A field added to any of them shows up here, with the number,
//! instead of as a few percent of `peak_rss_mb` three PRs later.

use std::mem::size_of;

use cbps::{
    CollectItem, DeliveredNote, NotifyItem, PubSubMsg, PubSubNode, Subscription, SubscriptionStore,
};
use cbps_overlay::{ChordNode, Envelope, LocationCache, RoutingState};

#[test]
fn hot_values_stay_under_their_size_ceilings() {
    // Fingers, successors and the first 24 cache entries live in the
    // routing state itself (240 / 88 B while they were heap tables); the
    // rendezvous store, 176 B, sits behind a box (1 040 B of `PubSubNode`
    // and 1 352 B of node before); the delivered log is its own dedup set
    // (360 / 1 320 B with a separate pair table).
    let sizes = [
        ("LocationCache", size_of::<LocationCache>(), 416),
        ("RoutingState", size_of::<RoutingState>(), 888),
        ("PubSubNode", size_of::<PubSubNode>(), 344),
        (
            "ChordNode<PubSubNode>",
            size_of::<ChordNode<PubSubNode>>(),
            1304,
        ),
        ("Envelope<PubSubMsg>", size_of::<Envelope<PubSubMsg>>(), 128),
        // One per node, used or not: the engine is one array header (624 B
        // while it carried a bucket matrix and counting scratch, 480 B
        // while a covering table sat beside it, 200 B while the engine kept
        // a handle per subscription).
        ("SubscriptionStore", size_of::<SubscriptionStore>(), 176),
        // In every stored record and every message that carries one: the
        // handle to the shared constraints (24 B with a digest beside it).
        ("Subscription", size_of::<Subscription>(), 16),
        // One per delivered notification, kept for the run: the ids and the
        // arrival time (40 B with the event handle and the trace, which the
        // event id names).
        ("DeliveredNote", size_of::<DeliveredNote>(), 24),
        // One per match on the wire: ids only (32 B with the event handle
        // and the trace), and the agent's key and the subscriber beside
        // them on the collecting path (56 B).
        ("NotifyItem", size_of::<NotifyItem>(), 16),
        ("CollectItem", size_of::<CollectItem>(), 40),
    ];
    for (what, bytes, ceiling) in sizes {
        assert!(
            bytes <= ceiling,
            "{what} grew to {bytes} B (ceiling {ceiling})"
        );
    }
}
