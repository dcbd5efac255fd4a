//! # cbps-overlay — Chord with a native multicast primitive
//!
//! The structured-overlay substrate of the CBPS reproduction of
//! *"Content-Based Publish-Subscribe over Structured Overlay Networks"*
//! (ICDCS 2005). Implemented from scratch on top of [`cbps_sim`]:
//!
//! * consistent hashing on an `m`-bit ring ([`KeySpace`], [`hash`]),
//! * greedy finger-table routing with a location cache reproducing the
//!   paper's "finger caching" (≈ 2.5 average hops at n = 500, §5.1),
//! * the **`m-cast`** one-to-many primitive of §4.3.1 / Figure 4, plus the
//!   conservative (successor walk) and aggressive (per-key unicast) range
//!   baselines it is compared against,
//! * join / leave / stabilization / finger repair for dynamic membership,
//! * a generic [`OverlayApp`] layering interface used by the pub/sub layer,
//!   with the routed-message mechanics ([`routed`]) and the routing-decision
//!   surface ([`RouteTable`]) factored out so other substrates (e.g. the
//!   Pastry overlay in `cbps-pastry`) reuse them wholesale.
//!
//! # Examples
//!
//! Deliver a payload to every node covering a key range with one `m-cast`:
//!
//! ```
//! use cbps_overlay::{
//!     build_stable, Delivery, KeyRange, KeyRangeSet, OverlayApp, OverlayConfig, OverlayServices,
//! };
//! use cbps_sim::{NetConfig, TraceId, TrafficClass};
//!
//! #[derive(Default)]
//! struct Counter {
//!     deliveries: u32,
//! }
//!
//! impl OverlayApp for Counter {
//!     type Payload = &'static str;
//!     type Timer = ();
//!     fn on_deliver(
//!         &mut self,
//!         _msg: &'static str,
//!         _d: Delivery,
//!         _svc: &mut dyn OverlayServices<&'static str, ()>,
//!     ) {
//!         self.deliveries += 1;
//!     }
//! }
//!
//! let cfg = OverlayConfig::paper_default();
//! let apps: Vec<Counter> = (0..32).map(|_| Counter::default()).collect();
//! let (mut sim, ring) = build_stable(NetConfig::new(7), cfg, apps);
//!
//! let space = cfg.space;
//! let range = KeyRange::new(space.key(100), space.key(2100));
//! let targets = KeyRangeSet::of_range(space, range);
//! let expected = ring.covering_nodes(&targets).len() as u32;
//!
//! sim.with_node(0, |node, ctx| {
//!     node.app_call(ctx, |_app, svc| {
//!         svc.mcast(&targets, TrafficClass::OTHER, "hello", TraceId::NONE);
//!     })
//! });
//! sim.run();
//!
//! let delivered: u32 = sim.nodes().map(|(_, n)| n.app().deliveries).sum();
//! assert_eq!(delivered, expected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod app;
mod builder;
mod cache;
mod config;
pub mod hash;
mod inline;
mod key;
mod msg;
mod node;
mod range;
mod ring;
mod route;
pub mod routed;
mod scratch;
mod services;
mod split;
mod state;
mod timer;

pub use app::{Delivery, OverlayApp, OverlaySvc};
pub use builder::{
    assign_node_keys, build_indexed, build_jobs, build_routing_states, build_stable, set_build_jobs,
};
pub use cache::{LocationCache, INLINE_ENTRIES};
pub use config::OverlayConfig;
pub use inline::InlineVec;
pub use key::{Key, KeySpace};
pub use msg::{take_payload, Envelope, OverlayMsg};
pub use node::ChordNode;
pub use range::{KeyRange, KeyRangeSet, INLINE_SEGS};
pub use ring::{FingerGrid, Peer, RingView};
pub use route::RouteTable;
pub use scratch::Bundles;
pub use services::OverlayServices;
pub use split::Boundaries;
pub use state::RoutingState;
pub use timer::OverlayTimer;

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_sim::{NetConfig, NodeIdx, Series, Simulator, TraceId, TrafficClass};

    /// Records every delivery with its metadata.
    #[derive(Default)]
    struct Recorder {
        deliveries: Vec<(String, u32, KeyRangeSet)>,
        directs: Vec<(NodeIdx, String)>,
    }

    impl OverlayApp for Recorder {
        type Payload = String;
        type Timer = ();

        fn on_deliver(
            &mut self,
            payload: String,
            d: Delivery,
            _svc: &mut dyn OverlayServices<String, ()>,
        ) {
            self.deliveries.push((payload, d.hops, d.targets_here));
        }

        fn on_direct(
            &mut self,
            from: Peer,
            payload: String,
            _svc: &mut dyn OverlayServices<String, ()>,
        ) {
            self.directs.push((from.idx, payload));
        }
    }

    fn network(n: usize, seed: u64) -> (Simulator<ChordNode<Recorder>>, RingView, OverlayConfig) {
        let cfg = OverlayConfig::paper_default();
        let apps: Vec<Recorder> = (0..n).map(|_| Recorder::default()).collect();
        let (sim, ring) = build_stable(NetConfig::new(seed), cfg, apps);
        (sim, ring, cfg)
    }

    #[test]
    fn unicast_reaches_exactly_the_covering_node() {
        let (mut sim, ring, cfg) = network(40, 3);
        let space = cfg.space;
        for probe in [0u64, 17, 4095, 8191, 5000] {
            let key = space.key(probe);
            let expect = ring.successor(key).idx;
            sim.with_node(5, |node, ctx| {
                node.app_call(ctx, |_, svc| {
                    svc.send(key, TrafficClass::OTHER, format!("p{probe}"), TraceId::NONE);
                })
            });
            sim.run();
            let holders: Vec<NodeIdx> = sim
                .nodes()
                .filter(|(_, n)| {
                    n.app()
                        .deliveries
                        .iter()
                        .any(|(p, _, _)| p == &format!("p{probe}"))
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders, vec![expect], "probe key {probe}");
        }
    }

    #[test]
    fn unicast_to_own_key_costs_no_messages() {
        let (mut sim, _ring, _cfg) = network(20, 4);
        let own_key = sim.node(7).me().key;
        sim.with_node(7, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.send(
                    own_key,
                    TrafficClass::OTHER,
                    "self".to_owned(),
                    TraceId::NONE,
                );
            })
        });
        sim.run();
        assert_eq!(sim.metrics().total_messages(), 0);
        assert_eq!(sim.node(7).app().deliveries.len(), 1);
        assert_eq!(sim.node(7).app().deliveries[0].1, 0); // zero hops
    }

    #[test]
    fn mcast_delivers_exactly_once_to_every_covering_node() {
        let (mut sim, ring, cfg) = network(60, 5);
        let space = cfg.space;
        let mut targets = KeyRangeSet::new();
        targets.insert_range(space, KeyRange::new(space.key(8000), space.key(600))); // wraps
        targets.insert_range(space, KeyRange::new(space.key(3000), space.key(3500)));
        let expected: Vec<NodeIdx> = ring
            .covering_nodes(&targets)
            .iter()
            .map(|p| p.idx)
            .collect();

        sim.with_node(2, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.mcast(
                    &targets,
                    TrafficClass::OTHER,
                    "mc".to_owned(),
                    TraceId::NONE,
                );
            })
        });
        sim.run();

        let mut got: Vec<NodeIdx> = Vec::new();
        for (idx, n) in sim.nodes() {
            let hits = n
                .app()
                .deliveries
                .iter()
                .filter(|(p, _, _)| p == "mc")
                .count();
            assert!(hits <= 1, "node {idx} delivered {hits} times");
            if hits == 1 {
                got.push(idx);
            }
        }
        let mut expected_sorted = expected;
        expected_sorted.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected_sorted);
    }

    #[test]
    fn mcast_local_subsets_partition_targets() {
        let (mut sim, _ring, cfg) = network(60, 6);
        let space = cfg.space;
        let targets = KeyRangeSet::of_range(space, KeyRange::new(space.key(0), space.key(8191)));
        sim.with_node(0, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.mcast(
                    &targets,
                    TrafficClass::OTHER,
                    "all".to_owned(),
                    TraceId::NONE,
                );
            })
        });
        sim.run();
        let mut union = KeyRangeSet::new();
        let mut total = 0u64;
        for (_, n) in sim.nodes() {
            for (_, _, local) in &n.app().deliveries {
                assert!(!union.intersects(local), "overlapping local target sets");
                union.union_with(local);
                total += local.count();
            }
        }
        assert_eq!(total, space.size());
    }

    #[test]
    fn mcast_message_count_beats_naive_unicast() {
        // Sending to a wide range: m-cast must use O(log n + |nodes|)
        // messages while per-key unicast pays per key.
        let (mut sim, ring, cfg) = network(100, 7);
        let space = cfg.space;
        let range = KeyRange::new(space.key(1000), space.key(3000));
        let targets = KeyRangeSet::of_range(space, range);
        let covering = ring.covering_nodes(&targets).len() as u64;

        sim.with_node(1, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.mcast(&targets, TrafficClass::OTHER, "m".to_owned(), TraceId::NONE);
            })
        });
        sim.run();
        let mcast_msgs = sim.metrics().messages(TrafficClass::OTHER);
        // Bound from the paper: log2(n) + covering nodes, with slack for
        // the relay hops of sparse fingers.
        assert!(
            mcast_msgs <= 2 * (covering + 14),
            "m-cast used {mcast_msgs} msgs for {covering} covering nodes"
        );

        let (mut sim2, _, _) = network(100, 7);
        sim2.with_node(1, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.ucast_keys(&targets, TrafficClass::OTHER, "u".to_owned(), TraceId::NONE);
            })
        });
        sim2.run();
        let ucast_msgs = sim2.metrics().messages(TrafficClass::OTHER);
        assert!(
            ucast_msgs > 5 * mcast_msgs,
            "expected unicast ({ucast_msgs}) ≫ m-cast ({mcast_msgs})"
        );
    }

    #[test]
    fn walk_covers_range_with_linear_dilation() {
        let (mut sim, ring, cfg) = network(60, 8);
        let space = cfg.space;
        let range = KeyRange::new(space.key(2000), space.key(4000));
        let targets = KeyRangeSet::of_range(space, range);
        let expected: Vec<NodeIdx> = ring
            .covering_nodes(&targets)
            .iter()
            .map(|p| p.idx)
            .collect();

        sim.with_node(3, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.walk(range, TrafficClass::OTHER, "w".to_owned(), TraceId::NONE);
            })
        });
        sim.run();

        let mut got: Vec<NodeIdx> = Vec::new();
        let mut max_hops = 0;
        for (idx, n) in sim.nodes() {
            for (p, hops, _) in &n.app().deliveries {
                if p == "w" {
                    got.push(idx);
                    max_hops = max_hops.max(*hops);
                }
            }
        }
        got.sort_unstable();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort_unstable();
        assert_eq!(got, expected_sorted);
        // Dilation grows with the number of covering nodes (the paper's
        // O(log n + N) — linear, unlike m-cast's O(log n)).
        assert!(max_hops as usize + 1 >= expected.len());
    }

    #[test]
    fn direct_messages_are_one_hop() {
        let (mut sim, _ring, _cfg) = network(10, 9);
        let target = sim.node(4).me();
        sim.with_node(0, |node, ctx| {
            node.app_call(ctx, |_, svc| {
                svc.direct(target, TrafficClass::COLLECT, "d".to_owned());
            })
        });
        sim.run();
        assert_eq!(sim.metrics().messages(TrafficClass::COLLECT), 1);
        assert_eq!(sim.node(4).app().directs, vec![(0, "d".to_owned())]);
    }

    #[test]
    fn lookup_dilation_is_logarithmic_without_cache() {
        let cfg = OverlayConfig::paper_default().with_cache_capacity(0);
        let apps: Vec<Recorder> = (0..128).map(|_| Recorder::default()).collect();
        let (mut sim, _ring) = build_stable(NetConfig::new(11), cfg, apps);
        let space = cfg.space;
        for i in 0..400u64 {
            let src = (i % 128) as usize;
            let target = space.key(i * 20 + 7);
            sim.with_node(src, |node, ctx| node.start_lookup(target, ctx));
        }
        sim.run();
        let h = sim.metrics().series(Series::LookupHops).unwrap().clone();
        assert_eq!(h.len(), 400);
        // ~0.5 * log2(128) = 3.5 expected; allow generous slack.
        assert!(h.mean() > 1.5 && h.mean() < 5.5, "mean hops {}", h.mean());
        assert!(h.max().unwrap() <= 10);
    }

    #[test]
    fn location_cache_reduces_lookup_hops() {
        let run = |cache: usize| {
            let cfg = OverlayConfig::paper_default().with_cache_capacity(cache);
            let apps: Vec<Recorder> = (0..128).map(|_| Recorder::default()).collect();
            let (mut sim, _ring) = build_stable(NetConfig::new(12), cfg, apps);
            let space = cfg.space;
            // The cache learns opportunistically from lookup traffic.
            for i in 0..3000u64 {
                let src = ((i * 13) % 128) as usize;
                let target = space.key((i * 97 + 5) % space.size());
                sim.with_node(src, |node, ctx| node.start_lookup(target, ctx));
                sim.run();
            }
            sim.metrics().series(Series::LookupHops).unwrap().mean()
        };
        let cold = run(0);
        let warm = run(96);
        assert!(
            warm < cold - 0.8,
            "cache should cut mean hops: cold {cold:.2}, warm {warm:.2}"
        );
    }
}
