//! Micro-benchmarks of the system's hot components: the three
//! ak-mappings, the matching index vs brute force, the m-cast split,
//! greedy routing, and SHA-1 hashing.
//!
//! A self-contained `Instant`-based harness (`harness = false`, no
//! external benchmark framework): each benchmark is auto-calibrated to a
//! ~100 ms measurement window and reported in ns/iter. Run via
//! `cargo bench -p cbps-bench --bench micro`.

use std::time::{Duration, Instant};

use cbps::{AkMapping, Event, EventSpace, MappingKind, MatchIndex, SortedIndex, Subscription};
use cbps_overlay::{
    hash::sha1, KeyRangeSet, KeySpace, OverlayConfig, Peer, RingView, RoutingState,
};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Calibrates the iteration count to a ~100 ms window, measures, and
/// prints mean ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and find an iteration count that runs for >= 10 ms.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= Duration::from_millis(10) || iters >= 1 << 30 {
            break;
        }
        iters *= 4;
    }
    // Measured run: scale to a ~100 ms window.
    let target = iters.saturating_mul(10).max(1);
    let start = Instant::now();
    for _ in 0..target {
        f();
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed.as_nanos() as f64 / target as f64;
    println!(
        "{name:<40} {per_iter:>12.1} ns/iter   ({target} iters in {:.1} ms)",
        elapsed.as_secs_f64() * 1e3
    );
}

fn workload(n_subs: usize) -> (EventSpace, Vec<Subscription>, Vec<Event>) {
    let space = EventSpace::paper_default();
    let cfg = WorkloadConfig::paper_default(100, 4).with_counts(n_subs, n_subs);
    let mut gen = WorkloadGen::new(space.clone(), cfg, 7);
    let subs: Vec<Subscription> = (0..n_subs).map(|_| gen.gen_subscription()).collect();
    let events: Vec<Event> = subs.iter().map(|s| gen.gen_matching_event(s)).collect();
    (space, subs, events)
}

fn bench_mappings() {
    let (space, subs, events) = workload(256);
    let keys = KeySpace::new(13);
    for kind in [
        MappingKind::AttributeSplit,
        MappingKind::KeySpaceSplit,
        MappingKind::SelectiveAttribute,
    ] {
        let mapping = AkMapping::new(kind, &space, keys);
        let mut i = 0;
        bench(&format!("mapping/sk/{kind}"), || {
            let s = &subs[i % subs.len()];
            i += 1;
            std::hint::black_box(mapping.sk(s));
        });
        let mut i = 0;
        bench(&format!("mapping/ek/{kind}"), || {
            let e = &events[i % events.len()];
            i += 1;
            std::hint::black_box(mapping.ek(e));
        });
    }
}

fn bench_matching() {
    let (space, subs, events) = workload(2000);
    let mut index = MatchIndex::new(&space);
    let mut sorted = SortedIndex::new(&space);
    for (i, s) in subs.iter().enumerate() {
        index.insert(i as u32, s.clone());
        sorted.insert(i as u32, s.clone());
    }
    let mut hits = Vec::new();
    let mut i = 0;
    bench("matching-2000-subs/counting-index", || {
        let e = &events[i % events.len()];
        i += 1;
        index.matches_into(e, &mut hits);
        std::hint::black_box(hits.len());
    });
    let mut i = 0;
    bench("matching-2000-subs/sorted-index", || {
        let e = &events[i % events.len()];
        i += 1;
        sorted.matches_into(e, &mut hits);
        std::hint::black_box(hits.len());
    });
    let mut i = 0;
    bench("matching-2000-subs/brute-force", || {
        let e = &events[i % events.len()];
        i += 1;
        std::hint::black_box(index.matches_brute_force(e));
    });
}

fn converged_state(n: usize) -> RoutingState {
    let cfg = OverlayConfig::paper_default();
    let peers: Vec<Peer> = (0..n)
        .map(|i| Peer {
            idx: i,
            key: cbps_overlay::hash::key_of_bytes(cfg.space, format!("n{i}").as_bytes()),
        })
        .collect();
    // Deduplicate keys for the view.
    let mut seen = std::collections::HashSet::new();
    let peers: Vec<Peer> = peers.into_iter().filter(|p| seen.insert(p.key)).collect();
    let ring = RingView::new(cfg.space, peers.clone());
    let me = peers[0];
    let mut st = RoutingState::new(cfg, me);
    st.set_predecessor(Some(ring.predecessor(me.key)));
    st.set_successors(ring.successors_of(me.key, cfg.succ_list_len));
    for (i, f) in ring.fingers_of(me.key).into_iter().enumerate() {
        st.set_finger(i, f);
    }
    st
}

fn bench_overlay() {
    let st = converged_state(500);
    let space = OverlayConfig::paper_default().space;
    let full = KeyRangeSet::full(space);
    bench("mcast-split-full-ring", || {
        std::hint::black_box(st.mcast_split(&full));
    });
    let mut scratch = st.clone();
    bench("next-hop", || {
        for k in (0..8192u64).step_by(257) {
            std::hint::black_box(scratch.next_hop(space.key(k)));
        }
    });
}

fn bench_pastry() {
    use cbps_pastry::{PastryConfig, PastryState};
    let cfg = PastryConfig::paper_default();
    let overlay_like = OverlayConfig::paper_default();
    let keys = cbps_overlay::assign_node_keys(&overlay_like, 500);
    let peers: Vec<Peer> = keys
        .iter()
        .enumerate()
        .map(|(idx, &key)| Peer { idx, key })
        .collect();
    let ring = RingView::new(cfg.space, peers.clone());
    let st = PastryState::converged(cfg, peers[0], &ring);
    let space = cfg.space;
    bench("pastry-next-hop", || {
        for k in (0..8192u64).step_by(257) {
            std::hint::black_box(st.next_hop(space.key(k)));
        }
    });
    let full = KeyRangeSet::full(space);
    bench("pastry-mcast-split-full-ring", || {
        std::hint::black_box(st.mcast_split(&full));
    });
}

fn bench_sha1() {
    let data = vec![0xA5u8; 64];
    bench("sha1-64B", || {
        std::hint::black_box(sha1(&data));
    });
}

fn main() {
    // Under `cargo test --benches` just smoke-run nothing.
    if std::env::args().any(|a| a == "--test") {
        println!("micro harness: skipped under --test (run `cargo bench` instead)");
        return;
    }
    bench_mappings();
    bench_matching();
    bench_overlay();
    bench_pastry();
    bench_sha1();
}
