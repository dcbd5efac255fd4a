//! Constructing overlay networks inside a simulator.
//!
//! Two modes:
//!
//! * [`build_stable_from`] (and [`build_stable`] over a vector) — the
//!   experiments' mode: every node starts with converged
//!   predecessor/successor/finger state computed from a global
//!   [`RingView`] (the paper's simulations run on an already-formed Chord
//!   ring and "exploit the Chord infrastructure" for maintenance);
//! * incremental joins through [`crate::ChordNode::start_join`] plus
//!   stabilization, exercised by the churn tests.

use cbps_sim::{NetConfig, SimTime, Simulator};

use crate::app::OverlayApp;
use crate::config::OverlayConfig;
use crate::hash::key_of_bytes;
use crate::key::{Key, KeySpace};
use crate::node::ChordNode;
use crate::ring::{Peer, RingView};
use crate::state::RoutingState;
use crate::timer::OverlayTimer;

/// Renders `node-{i}#{attempt}` into `buf` and returns the filled length.
/// Byte-identical to `format!("node-{i}#{attempt}")`, so key placement (and
/// with it every recorded table and fingerprint) is unchanged — but with no
/// per-attempt heap allocation.
fn render_node_name(buf: &mut [u8; 40], i: usize, attempt: u32) -> usize {
    fn write_decimal(buf: &mut [u8], v: u64) -> usize {
        let mut digits = [0u8; 20];
        let mut v = v;
        let mut n = 0;
        loop {
            digits[n] = b'0' + (v % 10) as u8;
            v /= 10;
            n += 1;
            if v == 0 {
                break;
            }
        }
        for (k, d) in digits[..n].iter().rev().enumerate() {
            buf[k] = *d;
        }
        n
    }
    buf[..5].copy_from_slice(b"node-");
    let mut len = 5 + write_decimal(&mut buf[5..], i as u64);
    buf[len] = b'#';
    len += 1;
    len + write_decimal(&mut buf[len..], u64::from(attempt))
}

/// Assigns distinct ring keys to `n` nodes by consistent hashing of their
/// names, rehashing on collision (small key spaces collide readily: 500
/// nodes in a 2^13 space expect ~15 birthday collisions).
pub fn assign_node_keys(space: KeySpace, n: usize) -> Vec<Key> {
    assert!(
        (n as u64) <= space.size(),
        "cannot place {n} nodes in a key space of {}",
        space.size()
    );
    let mut used = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut name = [0u8; 40];
    for i in 0..n {
        let mut attempt = 0u32;
        let key = loop {
            let len = render_node_name(&mut name, i, attempt);
            let candidate = key_of_bytes(space, &name[..len]);
            if used.insert(candidate) {
                break candidate;
            }
            attempt += 1;
        };
        keys.push(key);
    }
    keys
}

/// The ring prologue of every stable builder, Chord's and Pastry's: `n`
/// nodes keyed by [`assign_node_keys`] (node index `i` at the `i`-th key)
/// as one sorted [`RingView`].
///
/// # Panics
///
/// Panics if `n` is 0 or larger than the key space.
pub fn hashed_ring(space: KeySpace, n: usize) -> RingView {
    assert!(n > 0, "a network needs at least one node");
    let peers = assign_node_keys(space, n)
        .into_iter()
        .enumerate()
        .map(|(idx, key)| Peer { idx, key })
        .collect();
    RingView::new(space, peers)
}

/// Converged routing state for every node of `ring`, in node-index order.
/// Neighbor lists come from ring adjacency and fingers from the batched
/// [`RingView::finger_grid`], so the whole pass is O(n·m) with no per-node
/// ring queries.
pub fn build_routing_states(cfg: &OverlayConfig, ring: &RingView) -> Vec<RoutingState> {
    (0..ring.len()).map(converged_state_of(cfg, ring)).collect()
}

/// The per-node builder behind [`build_routing_states`]: node index in,
/// converged state out.
fn converged_state_of<'a>(
    cfg: &'a OverlayConfig,
    ring: &'a RingView,
) -> impl Fn(usize) -> RoutingState + 'a {
    let sorted = ring.peers();
    let n = sorted.len();
    let bits = cfg.space.bits() as usize;
    let pos_of_idx = ring.positions_by_idx();
    let grid = ring.finger_grid();
    let succ_count = cfg.succ_list_len.min(n - 1);
    move |idx| {
        let pos = pos_of_idx[idx] as usize;
        let me = sorted[pos];
        let mut state = RoutingState::new(*cfg, me);
        if n == 1 {
            return state;
        }
        state.set_predecessor(Some(sorted[(pos + n - 1) % n]));
        state.set_successor_slice((1..=succ_count).map(|k| sorted[(pos + k) % n]));
        for i in 0..bits {
            state.set_finger(i, sorted[grid.get(pos, i)]);
        }
        state
    }
}

/// Builds a converged ring of `apps.len()` nodes and returns the simulator
/// together with the global ring view (node index `i` hosts `apps[i]`):
/// [`build_stable_from`] over a vector the caller collected first, which
/// stays resident beside the node array until the build returns.
///
/// # Panics
///
/// As [`build_stable_from`].
pub fn build_stable<A: OverlayApp>(
    net: NetConfig,
    cfg: OverlayConfig,
    apps: Vec<A>,
) -> (Simulator<ChordNode<A>>, RingView) {
    build_stable_from(net, cfg, apps)
}

/// Builds a converged ring with one node per app `apps` yields and
/// returns the simulator together with the global ring view (node index
/// `i` hosts the `i`-th app). Each app is taken from the stream as its
/// node is built and moved straight into the node array, so no second
/// array of apps is ever resident.
///
/// When the overlay config enables maintenance, stabilize and finger timers
/// are armed at staggered offsets.
///
/// # Panics
///
/// Panics if `apps` is empty or larger than the key space.
pub fn build_stable_from<A, I>(
    net: NetConfig,
    cfg: OverlayConfig,
    apps: I,
) -> (Simulator<ChordNode<A>>, RingView)
where
    A: OverlayApp,
    I: IntoIterator<Item = A>,
    I::IntoIter: ExactSizeIterator,
{
    let apps = apps.into_iter();
    let n = apps.len();
    let ring = hashed_ring(cfg.space, n);

    let mut sim = Simulator::new(net);
    sim.reserve_nodes(n);
    for (state, app) in (0..n).map(converged_state_of(&cfg, &ring)).zip(apps) {
        sim.add_node(ChordNode::new(state, app));
    }

    if cfg.maintenance {
        for idx in 0..n {
            let s_off = sim
                .rng_mut()
                .gen_range(0..cfg.stabilize_period.as_micros().max(1));
            let f_off = sim
                .rng_mut()
                .gen_range(0..cfg.fix_fingers_period.as_micros().max(1));
            sim.arm_timer_at(SimTime::from_micros(s_off), idx, OverlayTimer::Stabilize);
            sim.arm_timer_at(SimTime::from_micros(f_off), idx, OverlayTimer::FixFingers);
        }
    }

    (sim, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Delivery;
    use crate::route::RouteTable;
    use crate::services::OverlayServices;

    /// Minimal app that remembers what it was delivered.
    #[derive(Default)]
    struct Sink {
        got: Vec<u64>,
    }

    impl OverlayApp for Sink {
        type Payload = u64;
        type Timer = ();
        fn on_deliver(
            &mut self,
            payload: u64,
            _delivery: Delivery,
            _svc: &mut dyn OverlayServices<u64, ()>,
        ) {
            self.got.push(payload);
        }
    }

    #[test]
    fn keys_are_distinct_even_in_tiny_spaces() {
        let keys = assign_node_keys(KeySpace::new(7), 128); // fills the space entirely
        let mut set: Vec<u64> = keys.iter().map(|k| k.value()).collect();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 128);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_nodes_rejected() {
        let _ = assign_node_keys(KeySpace::new(3), 9);
    }

    #[test]
    fn stable_ring_state_is_converged() {
        let cfg = OverlayConfig::paper_default();
        let apps: Vec<Sink> = (0..50).map(|_| Sink::default()).collect();
        let (sim, ring) = build_stable(NetConfig::new(1), cfg, apps);
        assert_eq!(sim.len(), 50);
        for (idx, node) in sim.nodes() {
            let me = node.me();
            assert_eq!(me.idx, idx);
            let st = node.routing();
            assert_eq!(st.predecessor().unwrap(), ring.predecessor(me.key));
            assert_eq!(st.successor().unwrap(), ring.next_node(me.key));
            for (i, f) in st.fingers().enumerate() {
                let expect = ring.successor(cfg.space.finger_target(me.key, i as u32));
                if expect.key == me.key {
                    assert_eq!(f, None);
                } else {
                    assert_eq!(f, Some(expect), "finger {i} of node {idx}");
                }
            }
        }
    }

    #[test]
    fn single_node_network() {
        let cfg = OverlayConfig::paper_default();
        let (sim, ring) = build_stable(NetConfig::new(1), cfg, vec![Sink::default()]);
        assert_eq!(ring.len(), 1);
        assert_eq!(sim.node(0).routing().successor(), None);
        assert_eq!(sim.node(0).routing().predecessor(), None);
    }
}
