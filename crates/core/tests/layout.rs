//! Size ceilings for the values a routed hop strides over: the node array
//! is 10^5 of them on the `route` workload, the send-time hint asks for a
//! node's routing state line by line, and every queued event holds an
//! envelope. A field added to any of them shows up here, with the number,
//! instead of as a few percent of `peak_rss_mb` three PRs later.

use std::mem::size_of;

use cbps::{PubSubMsg, PubSubNode, SubscriptionStore};
use cbps_overlay::{ChordNode, Envelope, LocationCache, RoutingState};

#[test]
fn hot_values_stay_under_their_size_ceilings() {
    // Fingers, successors and the first 24 cache entries live in the
    // routing state itself (240 / 88 B while they were heap tables); the
    // rendezvous store, 624 B, sits behind a box (1 040 B of `PubSubNode`
    // and 1 352 B of node before).
    let sizes = [
        ("LocationCache", size_of::<LocationCache>(), 416),
        ("RoutingState", size_of::<RoutingState>(), 888),
        ("PubSubNode", size_of::<PubSubNode>(), 424),
        (
            "ChordNode<PubSubNode>",
            size_of::<ChordNode<PubSubNode>>(),
            1384,
        ),
        ("Envelope<PubSubMsg>", size_of::<Envelope<PubSubMsg>>(), 128),
        // One per node, used or not: the sorted engine's array headers sit
        // behind a box of their own, the shape map beside the bounds slab
        // it always accompanies.
        ("SubscriptionStore", size_of::<SubscriptionStore>(), 624),
    ];
    for (what, bytes, ceiling) in sizes {
        assert!(
            bytes <= ceiling,
            "{what} grew to {bytes} B (ceiling {ceiling})"
        );
    }
}
