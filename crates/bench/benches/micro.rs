//! Micro-benchmarks of the system's hot components: the three
//! ak-mappings, the matching engines (against brute force, and swept over
//! 10^2 … 10^5 rows), the m-cast split,
//! greedy routing, and SHA-1 hashing.
//!
//! A self-contained `Instant`-based harness (`harness = false`, no
//! external benchmark framework): each benchmark is auto-calibrated to a
//! ~100 ms measurement window and reported in ns/iter. Run via
//! `cargo bench -p cbps-bench --bench micro`.

use std::time::{Duration, Instant};

use cbps::{
    AkMapping, Event, EventSpace, MappingKind, MatchEngine, MatchIndex, SortedIndex, Subscription,
};
use cbps_overlay::{
    build_routing_states, hash::sha1, hashed_ring, KeyRangeSet, KeySpace, OverlayConfig, RouteTable,
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
        index.insert(i as u32, s);
        sorted.insert(i as u32, s.clone());
    }
    let mut hits = Vec::new();
    let mut i = 0;
    bench("matching-2000-subs/flat-index", || {
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
        let hits = (0u32..).zip(&subs).filter(|(_, s)| s.matches(e));
        std::hint::black_box(hits.map(|(slot, _)| slot).collect::<Vec<_>>());
    });
}

/// The two engines at 10^2 … 10^5 rows of the paper's workload: ns per
/// insert (into a fresh engine, filled in slot order), per match (the
/// flat table's also per row it scans) and per remove (in a scattered
/// order). DESIGN.md "Matching engines" records the crossover.
fn bench_engine_sweep() {
    for rows in [100, 1_000, 10_000, 100_000] {
        let (space, subs, events) = workload(rows);
        sweep_point("flat", &subs, &events, || MatchIndex::new(&space));
        sweep_point("sorted", &subs, &events, || SortedIndex::new(&space));
    }
}

fn sweep_point<E: MatchEngine + Clone>(
    name: &str,
    subs: &[Subscription],
    events: &[Event],
    new: impl Fn() -> E,
) {
    let rows = subs.len();
    let ns_per = |start: Instant, ops: usize| start.elapsed().as_nanos() as f64 / ops as f64;
    let rounds = (400_000 / rows).max(2);
    let mut engine = new();
    let start = Instant::now();
    for _ in 0..rounds {
        engine = new();
        for (slot, sub) in (0u32..).zip(subs) {
            engine.insert(slot, sub.clone());
        }
    }
    let insert = ns_per(start, rounds * rows);

    let (mut hits, mut matched, mut calls) = (Vec::new(), 0, 0);
    let start = Instant::now();
    while calls < 100 || start.elapsed() < Duration::from_millis(100) {
        engine.matches_into(&events[calls % events.len()], &mut hits);
        matched += hits.len();
        calls += 1;
    }
    let per_match = ns_per(start, calls);

    let mut removed = 0;
    let mut elapsed = Duration::ZERO;
    for _ in 0..rounds {
        let mut full = engine.clone();
        let start = Instant::now();
        for i in 0..rows {
            // 7 919 is prime and a factor of no row count here: a permutation.
            std::hint::black_box(full.remove((i * 7_919 % rows) as u32));
        }
        elapsed += start.elapsed();
        removed += rows;
    }
    let remove = elapsed.as_nanos() as f64 / removed as f64;
    println!(
        "engine-sweep/{name:<6} {rows:>7} rows: insert {insert:>7.1} ns, match {per_match:>10.1} ns \
         ({:.2} ns/row, {:.1} hits), remove {remove:>6.1} ns",
        per_match / rows as f64,
        matched as f64 / calls as f64,
    );
}

fn bench_overlay() {
    let cfg = OverlayConfig::paper_default();
    let st = build_routing_states(&cfg, &hashed_ring(cfg.space, 500)).swap_remove(0);
    let space = cfg.space;
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
    let ring = hashed_ring(cfg.space, 500);
    let node0 = ring.peers()[ring.positions_by_idx()[0] as usize];
    let mut st = PastryState::converged(cfg, node0, &ring);
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
    bench_engine_sweep();
    bench_overlay();
    bench_pastry();
    bench_sha1();
}
