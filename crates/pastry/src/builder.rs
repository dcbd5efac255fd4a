//! Building static Pastry networks inside a simulator.

use cbps_overlay::{hashed_ring, OverlayApp, RingView};
use cbps_sim::{NetConfig, Simulator};

use crate::node::PastryNode;
use crate::state::{PastryConfig, PastryState};

/// Builds a converged Pastry network with one node per app `apps` yields
/// and returns the simulator together with the global ring view (node
/// index `i` hosts the `i`-th app). The ring is the Chord builder's
/// ([`hashed_ring`]), so a Pastry deployment of the same size sees the
/// same ring.
///
/// # Panics
///
/// Panics if `apps` is empty or larger than the key space.
pub fn build_pastry_stable<A, I>(
    net: NetConfig,
    cfg: PastryConfig,
    apps: I,
) -> (Simulator<PastryNode<A>>, RingView)
where
    A: OverlayApp,
    I: IntoIterator<Item = A>,
    I::IntoIter: ExactSizeIterator,
{
    let apps = apps.into_iter();
    let n = apps.len();
    let ring = hashed_ring(cfg.space, n);

    // Each converged state goes straight into its node, beside its app.
    let mut sim = Simulator::new(net);
    sim.reserve_nodes(n);
    let pos_of_idx = ring.positions_by_idx();
    for (idx, app) in apps.enumerate() {
        let me = ring.peers()[pos_of_idx[idx] as usize];
        sim.add_node(PastryNode::new(PastryState::converged(cfg, me, &ring), app));
    }
    (sim, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_overlay::{assign_node_keys, Delivery, OverlayServices, RouteTable};

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
        let chord_keys = assign_node_keys(cfg.space, 10);
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
