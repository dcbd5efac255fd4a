//! Building static Pastry networks inside a simulator.

use cbps_overlay::{assign_node_keys, build_indexed, OverlayApp, OverlayConfig, Peer, RingView};
use cbps_sim::{NetConfig, Simulator};

use crate::node::PastryNode;
use crate::state::{PastryConfig, PastryState};

/// Builds a converged Pastry network of `apps.len()` nodes and returns
/// the simulator together with the global ring view (node index `i` hosts
/// `apps[i]`). Node keys use the same consistent hashing as the Chord
/// builder, so a Pastry deployment with the same seed sees the same ring.
///
/// # Panics
///
/// Panics if `apps` is empty or larger than the key space.
pub fn build_pastry_stable<A: OverlayApp>(
    net: NetConfig,
    cfg: PastryConfig,
    apps: Vec<A>,
) -> (Simulator<PastryNode<A>>, RingView) {
    assert!(!apps.is_empty(), "a network needs at least one node");
    let n = apps.len();
    // Reuse the Chord key-assignment (collision-free consistent hashing).
    let overlay_like = OverlayConfig::paper_default().with_space(cfg.space);
    let keys = assign_node_keys(&overlay_like, n);
    let peers: Vec<Peer> = keys
        .iter()
        .enumerate()
        .map(|(idx, &key)| Peer { idx, key })
        .collect();
    let ring = RingView::new(cfg.space, peers.clone());

    // Converged state is a pure function of the ring table, so it fans out
    // over the overlay builder's worker pool (identical at any job count).
    let states = build_indexed(n, |idx| PastryState::converged(cfg, peers[idx], &ring));
    let mut sim = Simulator::new(net);
    sim.reserve_nodes(n);
    for (idx, (state, app)) in states.into_iter().zip(apps).enumerate() {
        let added = sim.add_node(PastryNode::new(state, app));
        debug_assert_eq!(added, idx);
    }
    (sim, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_overlay::{Delivery, OverlayServices};

    #[derive(Default)]
    struct Sink {
        got: u32,
    }

    impl OverlayApp for Sink {
        type Payload = u8;
        type Timer = ();
        fn on_deliver(&mut self, _p: u8, _d: Delivery, _svc: &mut dyn OverlayServices<u8, ()>) {
            self.got += 1;
        }
    }

    #[test]
    fn stable_network_has_consistent_neighbors() {
        let cfg = PastryConfig::paper_default();
        let apps: Vec<Sink> = (0..40).map(|_| Sink::default()).collect();
        let (sim, ring) = build_pastry_stable(NetConfig::new(5), cfg, apps);
        for (idx, node) in sim.nodes() {
            let me = node.me();
            assert_eq!(me.idx, idx);
            assert_eq!(node.routing().successor().unwrap(), ring.next_node(me.key));
            assert_eq!(
                node.routing().predecessor().unwrap(),
                ring.predecessor(me.key)
            );
        }
    }

    #[test]
    fn same_seed_same_ring_as_chord_builder() {
        let cfg = PastryConfig::paper_default();
        let apps: Vec<Sink> = (0..10).map(|_| Sink::default()).collect();
        let (_, pastry_ring) = build_pastry_stable(NetConfig::new(9), cfg, apps);
        let chord_keys =
            assign_node_keys(&OverlayConfig::paper_default().with_space(cfg.space), 10);
        let pastry_keys: Vec<_> = {
            let mut v: Vec<_> = pastry_ring.peers().iter().map(|p| p.key).collect();
            v.sort();
            v
        };
        let mut chord_sorted = chord_keys;
        chord_sorted.sort();
        assert_eq!(pastry_keys, chord_sorted);
    }
}
