//! Constructing overlay networks inside a simulator.
//!
//! Two modes:
//!
//! * [`build_stable`] — the experiments' mode: every node starts with
//!   converged predecessor/successor/finger state computed from a global
//!   [`RingView`] (the paper's simulations run on an already-formed Chord
//!   ring and "exploit the Chord infrastructure" for maintenance);
//! * incremental joins through [`crate::ChordNode::start_join`] plus
//!   stabilization, exercised by the churn tests.

use std::sync::atomic::{AtomicUsize, Ordering};

use cbps_sim::{NetConfig, SimTime, Simulator};

use crate::app::OverlayApp;
use crate::config::OverlayConfig;
use crate::hash::key_of_bytes;
use crate::key::Key;
use crate::node::ChordNode;
use crate::ring::{Peer, RingView};
use crate::state::RoutingState;
use crate::timer::OverlayTimer;

/// Worker threads used by the stable builders ([`build_stable`] and the
/// Pastry equivalent) for converged-state construction. Construction output
/// is a pure function of the ring table, so any job count produces
/// identical networks; 1 (the default) builds inline with no threads.
static BUILD_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the builder worker count (clamped to at least 1).
pub fn set_build_jobs(jobs: usize) {
    BUILD_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// Current builder worker count.
pub fn build_jobs() -> usize {
    BUILD_JOBS.load(Ordering::Relaxed).max(1)
}

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
pub fn assign_node_keys(cfg: &OverlayConfig, n: usize) -> Vec<Key> {
    assert!(
        (n as u64) <= cfg.space.size(),
        "cannot place {n} nodes in a key space of {}",
        cfg.space.size()
    );
    let mut used = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut name = [0u8; 40];
    for i in 0..n {
        let mut attempt = 0u32;
        let key = loop {
            let len = render_node_name(&mut name, i, attempt);
            let candidate = key_of_bytes(cfg.space, &name[..len]);
            if used.insert(candidate) {
                break candidate;
            }
            attempt += 1;
        };
        keys.push(key);
    }
    keys
}

/// Runs `build_one(idx)` for `0..n` across [`build_jobs`] worker threads on
/// contiguous index chunks and returns the results in index order. With one
/// job (the default) this is a plain inline loop. Used by the stable
/// builders for per-node converged state, which is a pure function of the
/// shared ring table — so the output is identical at any job count.
pub fn build_indexed<T, F>(n: usize, build_one: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    build_indexed_into(n, build_one, |built| out.push(built));
    out
}

/// [`build_indexed`] handing each result to `sink`, in index order, instead
/// of collecting them: with one job a value goes from its builder straight
/// to where it will live, and no second array of them is ever resident.
fn build_indexed_into<T, F>(n: usize, build_one: F, mut sink: impl FnMut(T))
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = build_jobs().min(n).max(1);
    if jobs == 1 {
        return (0..n).map(build_one).for_each(sink);
    }
    let chunk = n.div_ceil(jobs);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let build_one = &build_one;
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                scope.spawn(move || (lo..hi).map(build_one).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("builder worker panicked"));
        }
    });
    parts.into_iter().flatten().for_each(&mut sink);
}

/// Converged routing state for every node of `ring`, in node-index order.
/// Neighbor lists come from ring adjacency and fingers from the batched
/// [`RingView::finger_grid`], so the whole pass is O(n·m) with no per-node
/// ring queries; construction fans out over [`build_jobs`] workers.
pub fn build_routing_states(cfg: &OverlayConfig, ring: &RingView) -> Vec<RoutingState> {
    build_indexed(ring.len(), converged_state_of(cfg, ring))
}

/// The per-node builder behind [`build_routing_states`]: node index in,
/// converged state out.
fn converged_state_of<'a>(
    cfg: &'a OverlayConfig,
    ring: &'a RingView,
) -> impl Fn(usize) -> RoutingState + Sync + 'a {
    let sorted = ring.peers();
    let n = sorted.len();
    let bits = cfg.space.bits() as usize;
    let mut peer_of_idx = vec![
        Peer {
            idx: 0,
            key: cfg.space.key(0),
        };
        n
    ];
    let mut pos_of_idx = vec![0u32; n];
    for (pos, p) in sorted.iter().enumerate() {
        peer_of_idx[p.idx] = *p;
        pos_of_idx[p.idx] = pos as u32;
    }
    let grid = ring.finger_grid();
    let succ_count = cfg.succ_list_len.min(n - 1);
    move |idx| {
        let me = peer_of_idx[idx];
        let pos = pos_of_idx[idx] as usize;
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
/// together with the global ring view (node index `i` hosts `apps[i]`).
///
/// When the overlay config enables maintenance, stabilize and finger timers
/// are armed at staggered offsets.
///
/// # Panics
///
/// Panics if `apps` is empty or larger than the key space.
pub fn build_stable<A: OverlayApp>(
    net: NetConfig,
    cfg: OverlayConfig,
    apps: Vec<A>,
) -> (Simulator<ChordNode<A>>, RingView) {
    assert!(!apps.is_empty(), "a network needs at least one node");
    let n = apps.len();
    let keys = assign_node_keys(&cfg, n);
    let peers: Vec<Peer> = keys
        .iter()
        .enumerate()
        .map(|(idx, &key)| Peer { idx, key })
        .collect();
    let ring = RingView::new(cfg.space, peers);

    let mut sim = Simulator::new(net);
    sim.reserve_nodes(n);
    let mut apps = apps.into_iter();
    build_indexed_into(n, converged_state_of(&cfg, &ring), |state| {
        let app = apps.next().expect("one state per app");
        sim.add_node(ChordNode::new(state, app));
    });

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
    use crate::key::KeySpace;
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
        let cfg = OverlayConfig::paper_default().with_space(KeySpace::new(7));
        let keys = assign_node_keys(&cfg, 128); // fills the space entirely
        let mut set: Vec<u64> = keys.iter().map(|k| k.value()).collect();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 128);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_nodes_rejected() {
        let cfg = OverlayConfig::paper_default().with_space(KeySpace::new(3));
        let _ = assign_node_keys(&cfg, 9);
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
