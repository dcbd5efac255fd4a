//! Focused hot-path probes for the two structures this crate leans on:
//! the event scheduler and the matching index.
//!
//! ```text
//! probe sched [--ops N] [--seed S]      heap vs wheel push/pop throughput
//! probe match [--subs N] [--seed S] [--json FILE]
//!                                       counting vs sorted engine sweep
//! probe overlay [--nodes N] [--seed S]  chord vs pastry end-to-end profile
//! probe alloc [--nodes N] [--seed S] [--pool reuse|fresh] [--json FILE]
//!                                       heap-allocation audit
//! probe scale [--max-nodes N] [--seed S] [--budget-secs T] [--json FILE]
//!                                       build-pipeline scaling sweep
//! probe rendezvous [--nodes N] [--seed S] [--json FILE]
//!                                       static vs adaptive rendezvous A/B
//! ```
//!
//! `probe sched` replays the same seeded mixed-horizon workload (zero-delay
//! local sends, 50 ms network hops, multi-second timers, rare long-horizon
//! timers that land in the coarse wheel levels) through both the
//! `BinaryHeap` and the timing-wheel scheduler, reports ops/sec for each,
//! and cross-checks a running checksum of the pop order — a mismatch means
//! the wheel broke the `(time, seq)` total order and the probe exits
//! non-zero. `probe match` sweeps stored-subscription populations up to
//! `--subs` (default 10^6) through both matching engines — the counting
//! index and the sorted index — over the Zipf-skewed paper workload,
//! reports each engine's matched events/sec and build time, and builds the
//! same population through the covering `SubscriptionStore` to report how
//! many physical entries covering leaves. Match sets are cross-checked
//! event by event between the engines (and against the covering store), so
//! a disagreement exits non-zero; with `--json FILE` the sweep is written
//! as a small JSON document. `probe overlay` runs
//! the identical pub/sub workload over the Chord and the Pastry substrate
//! through the one generic deployment façade and reports each substrate's
//! simulator throughput, one-hop message total and per-request hop costs;
//! it exits non-zero if the substrates disagree on delivered notifications.
//! `probe alloc` runs the whole binary under a counting
//! global allocator, replays the fixed chord workload, and reports heap
//! allocations per simulated event — for the full replay and for a
//! steady-state publication window injected after warmup, which must be
//! exactly zero with the default reuse pool (the probe exits non-zero
//! otherwise); `--pool fresh` is the always-allocate control and `--json
//! FILE` emits the audit as a `cbps-report/v2` document. `probe scale`
//! sweeps the deployment build pipeline across 10^3, 10^4 and 10^5 nodes
//! (capped by `--max-nodes`; raising the cap to 10^6 adds an ungated
//! stretch point), reporting build seconds and heap bytes per point and
//! per node plus a serial-vs-4-worker routing-table parity check; it
//! exits non-zero if per-node cost drifts more than 2x across the core
//! sweep, if the tables differ, or if `--budget-secs` is exceeded.
//! `probe rendezvous` replays one Zipf flash-crowd workload (mapping 3,
//! one selective attribute, a mid-run burst of skewed publications) under
//! the static and the adaptive rendezvous policy; it exits non-zero unless
//! the delivered-set fingerprint is identical across the two runs, the
//! adaptive policy's max/mean node-load ratio is strictly below the static
//! policy's, and at least one split fired; `--json FILE` records the A/B
//! (this is how `results/bench/BENCH_pr10.json` was produced, when the
//! probe also swept a since-deleted shard axis).
//!
//! Unlike `figures`, these numbers are wall-clock measurements of isolated
//! structures: use them for before/after comparisons on one machine, not as
//! simulation results.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cbps::{Event, EventSpace, MatchIndex, SubId, Subscription};
use cbps_rng::Rng;
use cbps_sim::{PoolMode, TimingWheel};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Counting wrapper around the system allocator. Every heap allocation in
/// the probe process bumps two relaxed counters that `probe alloc`
/// snapshots around its measurement windows; the cost is two relaxed
/// atomic adds per allocation, which is noise for the other probes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocator calls, bytes requested)` since process start.
fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One scheduler op: push `delay_micros` ahead of the drain time, or pop.
#[derive(Clone, Copy)]
enum Op {
    Push { delay_micros: u64 },
    Pop,
}

/// Generates a push/pop script with the mixed delay profile of a real run:
/// mostly network hops and zero-delay local sends, a tail of timers, and a
/// sliver of long-horizon timers that exercise the coarse wheel levels.
fn sched_script(ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(ops);
    let mut pending = 0usize;
    for _ in 0..ops {
        // Slight push bias keeps the queue populated, matching the
        // simulator's steady state of a few thousand in-flight events.
        let push = pending == 0 || rng.gen_range(0..100u32) < 55;
        if push {
            let delay_micros = match rng.gen_range(0..100u32) {
                0..=29 => 0,                                    // send_local
                30..=84 => 50_000,                              // network hop
                85..=98 => rng.gen_range(1..30u64) * 1_000_000, // timer
                _ => rng.gen_range(300..4_000u64) * 1_000_000,  // long timer
            };
            script.push(Op::Push { delay_micros });
            pending += 1;
        } else {
            script.push(Op::Pop);
            pending -= 1;
        }
    }
    script
}

/// Minimal scheduler facade so both queues run the identical loop.
trait Queue {
    fn push(&mut self, key: u128);
    fn pop(&mut self) -> Option<u128>;
}

impl Queue for BinaryHeap<Reverse<u128>> {
    fn push(&mut self, key: u128) {
        BinaryHeap::push(self, Reverse(key));
    }
    fn pop(&mut self) -> Option<u128> {
        BinaryHeap::pop(self).map(|Reverse(k)| k)
    }
}

impl Queue for TimingWheel<()> {
    fn push(&mut self, key: u128) {
        TimingWheel::push(self, key, ());
    }
    fn pop(&mut self) -> Option<u128> {
        TimingWheel::pop(self).map(|(k, ())| k)
    }
}

/// Runs the script and returns (elapsed seconds, pop-order checksum).
/// The checksum folds every popped key, so any ordering difference between
/// the two schedulers changes it.
fn run_script(queue: &mut dyn Queue, script: &[Op]) -> (f64, u64) {
    let mut seq = 0u64;
    let mut drain_time = 0u64;
    let mut checksum = 0u64;
    let started = Instant::now();
    for op in script {
        match *op {
            Op::Push { delay_micros } => {
                let t = drain_time + delay_micros;
                queue.push(((t as u128) << 64) | seq as u128);
                seq += 1;
            }
            Op::Pop => {
                let key = queue.pop().expect("script never pops when empty");
                drain_time = (key >> 64) as u64;
                checksum = checksum
                    .rotate_left(7)
                    .wrapping_add((key >> 64) as u64)
                    .wrapping_add(key as u64);
            }
        }
    }
    // Drain what's left so both schedulers do the same total work and the
    // checksum covers the full ordering.
    while let Some(key) = queue.pop() {
        checksum = checksum
            .rotate_left(7)
            .wrapping_add((key >> 64) as u64)
            .wrapping_add(key as u64);
    }
    (started.elapsed().as_secs_f64(), checksum)
}

fn probe_sched(ops: usize, seed: u64) -> Result<(), String> {
    let script = sched_script(ops, seed);
    println!("scheduler probe: {ops} ops, seed {seed}");

    let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
    let (heap_secs, heap_sum) = run_script(&mut heap, &script);
    let mut wheel: TimingWheel<()> = TimingWheel::new();
    let (wheel_secs, wheel_sum) = run_script(&mut wheel, &script);

    for (name, secs) in [("heap", heap_secs), ("wheel", wheel_secs)] {
        println!(
            "  {name:<6} {:>10.0} ops/sec  ({secs:.3}s)",
            ops as f64 / secs
        );
    }
    println!("  speedup: {:.2}x", heap_secs / wheel_secs);
    if heap_sum != wheel_sum {
        return Err(format!(
            "pop-order checksum mismatch: heap {heap_sum:#x} != wheel {wheel_sum:#x}"
        ));
    }
    println!("  pop-order checksum: {heap_sum:#x} (identical)");
    Ok(())
}

/// One sweep point of the match probe.
struct MatchPoint {
    subs: usize,
    counting_build_secs: f64,
    sorted_build_secs: f64,
    counting_secs: f64,
    sorted_secs: f64,
    matched: u64,
    hits: u64,
    physical: usize,
    covering_build_secs: f64,
}

/// Measures both engines (and the covering store) over `n` stored
/// subscriptions of the Zipf-skewed paper workload. Match sets are
/// cross-checked event by event before any timing, so a disagreement is a
/// hard error, never a skewed number.
fn match_point(n: usize, seed: u64) -> Result<MatchPoint, String> {
    use cbps::{MatchEngineKind, SortedIndex, StoredSub, SubscriptionStore};
    use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
    use cbps_sim::{SimTime, TraceId};

    let space = EventSpace::paper_default();
    // Two Zipf-skewed selective attributes plus per-dimension wildcards:
    // the regime where covering bites (broad partially-specified
    // subscriptions subsume narrow ones clustered on the same hotspots).
    let cfg = WorkloadConfig::paper_default(100, 4)
        .with_counts(n, n)
        .with_selective_attrs(2)
        .with_wildcard_probability(0.5);
    let mut gen = WorkloadGen::new(space.clone(), cfg, seed);
    let stored: Vec<Subscription> = (0..n).map(|_| gen.gen_subscription()).collect();
    // A fixed probe set mixing hit-heavy events (targeted at a sample of
    // the stored population) with uniform misses.
    let mut events: Vec<Event> = stored
        .iter()
        .step_by((n / 128).max(1))
        .take(128)
        .map(|s| gen.gen_matching_event(s))
        .collect();
    while events.len() < 256 {
        events.push(gen.gen_random_event());
    }

    let started = Instant::now();
    let mut counting = MatchIndex::new(&space);
    for (i, sub) in stored.iter().enumerate() {
        counting.insert(i as u32, sub.clone());
    }
    let counting_build_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut sorted = SortedIndex::new(&space);
    for (i, sub) in stored.iter().enumerate() {
        sorted.insert(i as u32, sub.clone());
    }
    let sorted_build_secs = started.elapsed().as_secs_f64();

    // Differential pass: the two engines must agree on every probe event.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (i, event) in events.iter().enumerate() {
        counting.matches_into(event, &mut a);
        sorted.matches_into(event, &mut b);
        if a != b {
            return Err(format!(
                "engines disagree at {n} subs on probe event {i}: \
                 counting {} hits != sorted {} hits",
                a.len(),
                b.len()
            ));
        }
    }

    // Timed passes, identical loops over the same events.
    let rounds = (2_000_000 / n).max(1);
    let mut out = Vec::new();
    let mut hits = 0u64;
    let started = Instant::now();
    for _ in 0..rounds {
        for event in &events {
            counting.matches_into(event, &mut out);
            hits += out.len() as u64;
        }
    }
    let counting_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..rounds {
        for event in &events {
            sorted.matches_into(event, &mut out);
        }
    }
    let sorted_secs = started.elapsed().as_secs_f64();
    let matched = rounds as u64 * events.len() as u64;

    // Covering: the same population through the rendezvous store, which
    // collapses covered subscriptions onto shared physical entries.
    let keys = KeySpace::new(8);
    let subscriber = Peer {
        idx: 0,
        key: keys.key(1),
    };
    let sk = KeyRangeSet::of_key(keys, keys.key(2));
    let mut store = SubscriptionStore::with_options(&space, MatchEngineKind::Sorted, true);
    let items: Vec<(SubId, StoredSub)> = stored
        .iter()
        .enumerate()
        .map(|(i, sub)| {
            (
                SubId(i as u64),
                StoredSub {
                    sub: sub.clone(),
                    subscriber,
                    expires: SimTime::MAX,
                    sk: sk.clone(),
                    trace: TraceId::NONE,
                    subgroups: 0,
                },
            )
        })
        .collect();
    let started = Instant::now();
    store.insert_bulk(items, SimTime::ZERO);
    let covering_build_secs = started.elapsed().as_secs_f64();
    // Spot-check: the covering store must deliver the raw engine's sets.
    let mut store_out = Vec::new();
    for (i, event) in events.iter().take(8).enumerate() {
        counting.matches_into(event, &mut a);
        store.match_event_into(event, SimTime::ZERO, &mut store_out);
        // The raw engine was filled in id order: its slots are the ids.
        let got: Vec<u32> = store_out.iter().map(|&(id, ..)| id.0 as u32).collect();
        if got != a {
            return Err(format!(
                "covering store disagrees with raw engine at {n} subs on probe event {i}: \
                 {} hits != {} hits",
                got.len(),
                a.len()
            ));
        }
    }

    Ok(MatchPoint {
        subs: n,
        counting_build_secs,
        sorted_build_secs,
        counting_secs,
        sorted_secs,
        matched,
        hits,
        physical: store.physical_len(),
        covering_build_secs,
    })
}

fn probe_match(subs: usize, seed: u64, json_out: Option<&str>) -> Result<(), String> {
    println!(
        "match probe: counting vs sorted engine, covering store, \
         Zipf paper workload, seed {seed}"
    );
    let mut sweep: Vec<usize> = [subs / 10, subs / 3, subs]
        .into_iter()
        .filter(|&n| n >= 1)
        .collect();
    sweep.dedup();
    let mut points = Vec::with_capacity(sweep.len());
    for &n in &sweep {
        points.push(match_point(n, seed)?);
    }

    for p in &points {
        let counting_evs = p.matched as f64 / p.counting_secs.max(1e-9);
        let sorted_evs = p.matched as f64 / p.sorted_secs.max(1e-9);
        println!(
            "  subs {:>8}  counting {:>9.0} events/sec  sorted {:>9.0} events/sec  \
             sorted speedup {:.2}x  ({} events, {} hits)",
            p.subs,
            counting_evs,
            sorted_evs,
            sorted_evs / counting_evs.max(1e-9),
            p.matched,
            p.hits,
        );
        println!(
            "  {:>13} build: counting {:.2}s, sorted {:.2}s; covering store: \
             {} physical entries for {} subscriptions ({:.1}% saved, built in {:.2}s)",
            "",
            p.counting_build_secs,
            p.sorted_build_secs,
            p.physical,
            p.subs,
            100.0 * (1.0 - p.physical as f64 / p.subs as f64),
            p.covering_build_secs,
        );
    }
    if let Some(path) = json_out {
        let mut doc = String::from("{\n  \"probe\": \"match\",\n");
        doc.push_str(&format!(
            "  \"host_cores\": {},\n",
            std::thread::available_parallelism().map_or(1, |c| c.get())
        ));
        doc.push_str(&format!("  \"seed\": {seed},\n"));
        doc.push_str("  \"results\": [\n");
        for (i, p) in points.iter().enumerate() {
            let counting_evs = p.matched as f64 / p.counting_secs.max(1e-9);
            let sorted_evs = p.matched as f64 / p.sorted_secs.max(1e-9);
            doc.push_str(&format!(
                "    {{\"subs\": {}, \"counting_events_per_sec\": {:.0}, \
                 \"sorted_events_per_sec\": {:.0}, \"sorted_speedup\": {:.2}, \
                 \"matched_events\": {}, \"hits\": {}, \
                 \"counting_build_secs\": {:.3}, \"sorted_build_secs\": {:.3}, \
                 \"covering_physical_entries\": {}, \"covering_saved_pct\": {:.1}, \
                 \"covering_build_secs\": {:.3}}}{}\n",
                p.subs,
                counting_evs,
                sorted_evs,
                sorted_evs / counting_evs.max(1e-9),
                p.matched,
                p.hits,
                p.counting_build_secs,
                p.sorted_build_secs,
                p.physical,
                100.0 * (1.0 - p.physical as f64 / p.subs as f64),
                p.covering_build_secs,
                if i + 1 == points.len() { "" } else { "," },
            ));
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  sweep written to {path}");
    }
    let last = points.last().expect("sweep is never empty");
    println!(
        "  at {} subs the sorted engine is {:.2}x the counting engine; \
         covering keeps {} physical entries ({:.1}% saved)",
        last.subs,
        (last.matched as f64 / last.sorted_secs.max(1e-9))
            / (last.matched as f64 / last.counting_secs.max(1e-9)).max(1e-9),
        last.physical,
        100.0 * (1.0 - last.physical as f64 / last.subs as f64),
    );
    Ok(())
}

/// One substrate's end-to-end profile from the shared overlay workload.
struct OverlayProfile {
    events: u64,
    events_per_sec: f64,
    one_hop_msgs: u64,
    stats: cbps_bench::RunStats,
}

fn overlay_profile<B: cbps::OverlayBackend>(nodes: usize, seed: u64) -> OverlayProfile {
    use cbps_bench::runner::{paper_workload, run_trace, workload_gen, Deployment};
    use cbps_sim::TrafficClass;

    let deployment = Deployment::new(nodes, seed);
    let cfg = paper_workload(nodes, 0)
        .with_counts(nodes * 2, nodes * 4)
        .with_matching_probability(0.5);
    let mut gen = workload_gen(cfg, seed);
    let trace = gen.gen_trace();
    let mut net = deployment.build_on::<B>();
    let started = Instant::now();
    let stats = run_trace(&mut net, &trace, 300);
    let secs = started.elapsed().as_secs_f64();
    let events = net.sim_mut().events_processed();
    let m = net.metrics();
    let one_hop_msgs = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
        TrafficClass::COLLECT,
        TrafficClass::MAINTENANCE,
        TrafficClass::STATE_TRANSFER,
        TrafficClass::OTHER,
    ]
    .iter()
    .map(|&c| m.messages(c))
    .sum();
    OverlayProfile {
        events,
        events_per_sec: events as f64 / secs.max(1e-9),
        one_hop_msgs,
        stats,
    }
}

fn probe_overlay(nodes: usize, seed: u64) -> Result<(), String> {
    println!("overlay probe: {nodes} nodes, seed {seed}, same workload on both substrates");
    let chord = overlay_profile::<cbps::ChordBackend>(nodes, seed);
    let pastry = overlay_profile::<cbps_pastry::PastryBackend>(nodes, seed);
    for (name, p) in [("chord", &chord), ("pastry", &pastry)] {
        println!(
            "  {name:<6} {:>10.0} events/sec  ({} events)  msgs {:>7}  \
             hops/sub {:.2}  hops/pub {:.2}  hops/notify {:.2}  delivered {}",
            p.events_per_sec,
            p.events,
            p.one_hop_msgs,
            p.stats.hops_per_sub,
            p.stats.hops_per_pub,
            p.stats.hops_per_notification,
            p.stats.delivered,
        );
    }
    if chord.stats.delivered != pastry.stats.delivered {
        return Err(format!(
            "substrates disagree on delivered notifications: chord {} != pastry {}",
            chord.stats.delivered, pastry.stats.delivered
        ));
    }
    println!(
        "  delivered notifications: {} (identical)",
        chord.stats.delivered
    );
    Ok(())
}

/// One policy's measurement of the Zipf flash-crowd workload.
struct RendezvousPoint {
    mode: cbps::RendezvousMode,
    fingerprint: u64,
    delivered: u64,
    max_mean: f64,
    p99_mean: f64,
    splits: u64,
    merges: u64,
    secs: f64,
}

/// Replays the fixed flash-crowd workload (mapping 3, one Zipf-selective
/// attribute, a mid-run burst of skewed publications) under the given
/// rendezvous policy.
fn rendezvous_point(nodes: usize, seed: u64, mode: cbps::RendezvousMode) -> RendezvousPoint {
    use cbps_bench::report::LoadReport;
    use cbps_bench::runner::{
        self, delivered_fingerprint, paper_workload, run_trace, workload_gen, Deployment,
    };

    runner::set_rendezvous(mode);
    let mut deployment = Deployment::new(nodes, seed);
    deployment.mapping = cbps::MappingKind::SelectiveAttribute;
    let cfg = paper_workload(nodes, 1)
        .with_counts(nodes * 2, nodes * 4)
        .with_flash_crowd(nodes * 8, 1.1);
    let mut gen = workload_gen(cfg, seed);
    let trace = gen.gen_trace();
    let mut net = deployment.build_on::<cbps::ChordBackend>();
    let started = Instant::now();
    let stats = run_trace(&mut net, &trace, 300);
    let secs = started.elapsed().as_secs_f64();
    let (splits, merges) = net.rendezvous_counters();
    let load = LoadReport::from_work(&net.rendezvous_work_counts(), splits, merges);
    let (fingerprint, _) = delivered_fingerprint(&net);
    RendezvousPoint {
        mode,
        fingerprint,
        delivered: stats.delivered,
        max_mean: load.map(|l| l.max_mean).unwrap_or(0.0),
        p99_mean: load.map(|l| l.p99_mean).unwrap_or(0.0),
        splits,
        merges,
        secs,
    }
}

/// A/B-compares the static and the adaptive rendezvous policy on the
/// Zipf flash-crowd workload. Exits non-zero unless (a) both policies
/// deliver the byte-identical notification set, (b) the adaptive policy's
/// max/mean node-load ratio is strictly below the static policy's, and
/// (c) the adaptive policy actually split at least once.
fn probe_rendezvous(nodes: usize, seed: u64, json_out: Option<&str>) -> Result<(), String> {
    use cbps::RendezvousMode;

    println!("rendezvous probe: {nodes} nodes, seed {seed}, Zipf flash-crowd workload");
    let points: Vec<RendezvousPoint> = [RendezvousMode::Static, RendezvousMode::Adaptive]
        .into_iter()
        .map(|mode| rendezvous_point(nodes, seed, mode))
        .collect();
    cbps_bench::runner::set_rendezvous(RendezvousMode::Static);

    for p in &points {
        println!(
            "  {:<8}  max/mean {:>6.2}  p99/mean {:>5.2}  \
             splits {:>2}  merges {:>2}  delivered {:>6}  fingerprint {:#018x}  ({:.2}s)",
            p.mode.name(),
            p.max_mean,
            p.p99_mean,
            p.splits,
            p.merges,
            p.delivered,
            p.fingerprint,
            p.secs,
        );
    }

    if let Some(path) = json_out {
        let mut doc = String::from("{\n  \"probe\": \"rendezvous\",\n");
        doc.push_str(&format!("  \"nodes\": {nodes},\n  \"seed\": {seed},\n"));
        doc.push_str("  \"results\": [\n");
        for (i, p) in points.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"rendezvous\": \"{}\", \"max_mean\": {:.3}, \
                 \"p99_mean\": {:.3}, \"splits\": {}, \"merges\": {}, \"delivered\": {}, \
                 \"fingerprint\": \"{:#018x}\", \"wall_secs\": {:.3}}}{}\n",
                p.mode.name(),
                p.max_mean,
                p.p99_mean,
                p.splits,
                p.merges,
                p.delivered,
                p.fingerprint,
                p.secs,
                if i + 1 == points.len() { "" } else { "," },
            ));
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  report written to {path}");
    }

    let (stat, adap) = (&points[0], &points[1]);
    // (a) Delivery semantics must be policy-independent.
    if adap.fingerprint != stat.fingerprint || adap.delivered != stat.delivered {
        return Err(format!(
            "adaptive changed the delivered set: fingerprint {:#x} != {:#x} \
             (delivered {} vs {})",
            adap.fingerprint, stat.fingerprint, adap.delivered, stat.delivered
        ));
    }
    // (b) The whole point: the hot node's load ratio must drop.
    if adap.max_mean >= stat.max_mean {
        return Err(format!(
            "adaptive rendezvous did not flatten the hotspot: max/mean {:.2} (adaptive) \
             vs {:.2} (static)",
            adap.max_mean, stat.max_mean
        ));
    }
    // (c) The drop must come from actual control activity.
    if adap.splits == 0 {
        return Err("adaptive rendezvous took no split decision on the flash crowd".into());
    }
    println!(
        "  adaptive flattens max/mean {:.2} -> {:.2} with identical delivered sets \
         ({} splits, {} merges)",
        stat.max_mean, adap.max_mean, adap.splits, adap.merges
    );
    Ok(())
}

/// Replays the fixed figures workload under the counting allocator and
/// reports allocations per simulated event — once over the whole replay
/// (cold buildup included) and once over a steady-state publication
/// window injected after a warmup pass. With `--pool reuse` (the
/// default) the steady-state window must perform **zero** heap
/// allocations: the slab pool, inline range sets and warm capacities
/// leave nothing to allocate, and any regression exits non-zero.
/// `--pool fresh` is the always-allocate control for before/after
/// comparisons.
fn probe_alloc(
    nodes: usize,
    seed: u64,
    pool: PoolMode,
    json_out: Option<&str>,
) -> Result<(), String> {
    use cbps_bench::report::{AllocReport, ExperimentReport, RunReport};
    use cbps_bench::runner::{self, paper_workload, run_trace, workload_gen, Deployment};
    use cbps_sim::SimDuration;

    runner::set_pool(pool);
    println!(
        "alloc probe: {nodes} nodes, seed {seed}, pool {}, chord workload",
        pool.name()
    );

    let deployment = Deployment::new(nodes, seed);
    let cfg = paper_workload(nodes, 0)
        .with_counts(nodes * 2, nodes * 4)
        .with_matching_probability(0.5);
    let mut gen = workload_gen(cfg, seed);
    let trace = gen.gen_trace();
    let mut net = deployment.build_on::<cbps::ChordBackend>();

    // Whole-replay audit: the figures workload end to end, including the
    // cold buildup (subscription storage, pool and queue growth to peak).
    let started = Instant::now();
    let (a0, b0) = alloc_totals();
    run_trace(&mut net, &trace, 300);
    let (a1, b1) = alloc_totals();
    let wall_secs = started.elapsed().as_secs_f64();
    let replay_events = net.sim_mut().events_processed();
    let (replay_allocs, replay_bytes) = (a1 - a0, b1 - b0);

    // Steady-state audit. Publication events are pre-generated, and each
    // one is injected *outside* the measured region, then drained with a
    // bounded `run_until` that is measured — so the audit covers exactly
    // the simulator's own work per event: queue pops, routing hops,
    // matching, delivery, timer cascades. Traffic is spread one
    // publication per two simulated seconds (steady state, not a
    // thundering herd), and the warmup pass is twice the measured length
    // so every recycled capacity — pool slab, wheel slots across a full
    // L1 ring revolution, per-node delivery logs, metric tables — has hit
    // its high-water mark before counting starts. The delivery logs are
    // drained in place (capacity retained) between the passes.
    const BATCH: usize = 256;
    let events: Vec<Event> = (0..3 * BATCH).map(|_| gen.gen_random_event()).collect();
    for (i, ev) in events[..2 * BATCH].iter().enumerate() {
        net.publish(i % nodes, ev.clone())
            .map_err(|e| format!("warmup publish failed: {e}"))?;
        let until = net.now() + SimDuration::from_secs(2);
        net.run_until(until);
    }
    for idx in 0..nodes {
        net.clear_delivered(idx);
        // Pre-fault nodes that did not see a publication during warmup:
        // their first one would otherwise charge cold-start growth (event
        // dedup window, match scratch) to the measured window.
        net.warm_node(idx);
    }
    let (mut steady_allocs, mut steady_bytes, mut steady_events) = (0u64, 0u64, 0u64);
    for (i, ev) in events[2 * BATCH..].iter().enumerate() {
        net.publish((2 * BATCH + i) % nodes, ev.clone())
            .map_err(|e| format!("steady publish failed: {e}"))?;
        let until = net.now() + SimDuration::from_secs(2);
        let ev0 = net.sim_mut().events_processed();
        let (sa0, sb0) = alloc_totals();
        net.run_until(until);
        let (sa1, sb1) = alloc_totals();
        steady_events += net.sim_mut().events_processed() - ev0;
        steady_allocs += sa1 - sa0;
        steady_bytes += sb1 - sb0;
    }

    let report = AllocReport {
        pool: pool.name().to_owned(),
        replay_allocs,
        replay_bytes,
        replay_events,
        steady_allocs,
        steady_bytes,
        steady_events,
    };
    println!(
        "  replay  {:>9} events  {:>9} allocs  {:>11} bytes  ({:.3} allocs/event, {:.1} bytes/event)",
        report.replay_events,
        report.replay_allocs,
        report.replay_bytes,
        report.replay_allocs_per_event(),
        report.replay_bytes as f64 / report.replay_events.max(1) as f64,
    );
    println!(
        "  steady  {:>9} events  {:>9} allocs  {:>11} bytes  ({:.3} allocs/event)",
        report.steady_events,
        report.steady_allocs,
        report.steady_bytes,
        report.steady_allocs_per_event(),
    );
    if steady_events == 0 {
        return Err("steady-state window processed no events".into());
    }

    if let Some(path) = json_out {
        let peak_queue_depth = net.sim_mut().queue_peak() as u64;
        let doc = RunReport {
            scale: "probe".to_owned(),
            jobs: 1,
            observability: "off".to_owned(),
            scheduler: "wheel".to_owned(),
            match_engine: "counting".to_owned(),
            rendezvous: "static".to_owned(),
            overlay: "chord".to_owned(),
            experiments: vec![ExperimentReport {
                name: "alloc-audit".to_owned(),
                wall_secs,
                events: replay_events,
                peak_queue_depth,
                obs: None,
                alloc: Some(report.clone()),
            }],
        }
        .to_json();
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  report written to {path}");
    }

    let steady_per_event = report.steady_allocs_per_event();
    match pool {
        PoolMode::Reuse => {
            if steady_allocs != 0 {
                return Err(format!(
                    "steady-state window performed {steady_allocs} heap allocations \
                     ({steady_bytes} bytes) over {steady_events} events; expected zero \
                     with the reuse pool"
                ));
            }
            println!("  steady state is allocation-free (0 allocs over {steady_events} events)");
        }
        PoolMode::Fresh => {
            println!("  fresh pool control: {steady_per_event:.3} allocs/event at steady state");
        }
    }
    Ok(())
}

/// Sweeps the deployment build pipeline across decades of ring size
/// (10^3, 10^4, 10^5 and — only when `--max-nodes` allows — a 10^6
/// stretch point): wall seconds and heap bytes to construct one fully
/// converged pub/sub network, total and per node, plus a
/// serial-vs-parallel routing-table parity check at every point. Two
/// gates make this the ci hook for build-path regressions: the per-node
/// cost (seconds and bytes) must stay flat within 2x across the
/// 10^3..10^5 core sweep — near-linear total cost — and, with
/// `--budget-secs`, the whole sweep must finish inside the budget. Any
/// parity mismatch or gate violation exits non-zero.
fn probe_scale(
    max_nodes: usize,
    seed: u64,
    budget_secs: Option<u64>,
    json_out: Option<&str>,
) -> Result<(), String> {
    use cbps_bench::runner::{self, Deployment};
    use cbps_overlay::{OverlayConfig, Peer, RingView, RoutingState};

    /// FNV-1a over every field of every routing table, in node order.
    fn table_fingerprint(states: &[RoutingState]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for st in states {
            mix(st.predecessor().map_or(u64::MAX, |p| p.idx as u64));
            for s in st.successors() {
                mix(s.idx as u64);
                mix(s.key.value());
            }
            for f in st.fingers() {
                mix(f.map_or(u64::MAX, |p| p.idx as u64));
            }
        }
        hash
    }

    runner::set_jobs(1);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scale probe: build-pipeline sweep up to {max_nodes} nodes, seed {seed}, \
         host has {host_cores} core(s)"
    );

    struct Point {
        nodes: usize,
        key_bits: u32,
        secs: f64,
        allocs: u64,
        bytes: u64,
        fingerprint: u64,
    }
    let sweep_started = Instant::now();
    let mut points: Vec<Point> = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        if n > max_nodes {
            println!("  n {n:>7}  skipped (over --max-nodes)");
            continue;
        }
        let keys = cbps::deployment_key_space(n);
        // Build cost: one full pub/sub deployment, serial, under the
        // counting allocator.
        let started = Instant::now();
        let (a0, b0) = alloc_totals();
        let net = Deployment::new(n, seed).build();
        let (a1, b1) = alloc_totals();
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(net.len(), n);
        drop(net); // free this point before building the next decade

        // Parity: the routing tables from a 4-worker build must be
        // identical to the serial ones, field for field.
        let cfg = OverlayConfig::paper_default().with_space(keys);
        let node_keys = cbps_overlay::assign_node_keys(&cfg, n);
        let peers: Vec<Peer> = node_keys
            .into_iter()
            .enumerate()
            .map(|(idx, key)| Peer { idx, key })
            .collect();
        let ring = RingView::new(keys, peers);
        cbps_overlay::set_build_jobs(1);
        let serial = table_fingerprint(&cbps_overlay::build_routing_states(&cfg, &ring));
        cbps_overlay::set_build_jobs(4);
        let parallel = table_fingerprint(&cbps_overlay::build_routing_states(&cfg, &ring));
        cbps_overlay::set_build_jobs(1);
        if serial != parallel {
            return Err(format!(
                "n {n}: parallel build changed the routing tables: \
                 fingerprint {parallel:#018x} != serial {serial:#018x}"
            ));
        }

        println!(
            "  n {n:>7}  {:>2}-bit keys  build {secs:>7.3}s  {:>9} allocs  {:>12} bytes  \
             ({:.1}us/node, {:.0} B/node)  tables {serial:#018x} (serial == 4-worker)",
            keys.bits(),
            a1 - a0,
            b1 - b0,
            secs * 1e6 / n as f64,
            (b1 - b0) as f64 / n as f64,
        );
        points.push(Point {
            nodes: n,
            key_bits: keys.bits(),
            secs,
            allocs: a1 - a0,
            bytes: b1 - b0,
            fingerprint: serial,
        });
    }
    let sweep_secs = sweep_started.elapsed().as_secs_f64();
    if points.is_empty() {
        return Err("--max-nodes excluded every sweep point".into());
    }

    // The flatness gate covers the 10^3..10^5 core sweep; the optional
    // 10^6 stretch point is recorded but not gated — at that size the
    // wall clock is dominated by the kernel faulting in ~4.5 GB of
    // fresh pages, which says nothing about the pipeline's own cost.
    let per_secs = |p: &Point| p.secs / p.nodes as f64;
    let per_bytes = |p: &Point| p.bytes as f64 / p.nodes as f64;
    let gated: Vec<&Point> = points.iter().filter(|p| p.nodes <= 100_000).collect();
    let flat = |vals: Vec<f64>| -> f64 {
        let max = vals.iter().copied().fold(f64::MIN, f64::max);
        let min = vals.iter().copied().fold(f64::MAX, f64::min);
        max / min.max(1e-12)
    };
    let secs_ratio = flat(gated.iter().map(|p| per_secs(p)).collect());
    let bytes_ratio = flat(gated.iter().map(|p| per_bytes(p)).collect());
    println!(
        "  per-node flatness across the core sweep (n <= 10^5): {secs_ratio:.2}x seconds, \
         {bytes_ratio:.2}x bytes (gate: <= 2x each)"
    );

    if let Some(path) = json_out {
        let mut doc = String::from("{\n  \"probe\": \"scale\",\n");
        doc.push_str(&format!("  \"host_cores\": {host_cores},\n"));
        doc.push_str(&format!("  \"seed\": {seed},\n"));
        doc.push_str(&format!("  \"sweep_wall_secs\": {sweep_secs:.3},\n"));
        doc.push_str(&format!(
            "  \"per_node_secs_ratio\": {secs_ratio:.3},\n  \"per_node_bytes_ratio\": {bytes_ratio:.3},\n"
        ));
        doc.push_str("  \"results\": [\n");
        for (i, p) in points.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"nodes\": {}, \"key_bits\": {}, \"build_secs\": {:.3}, \
                 \"allocs\": {}, \"bytes\": {}, \"micros_per_node\": {:.2}, \
                 \"bytes_per_node\": {:.0}, \"table_fingerprint\": \"{:#018x}\"}}{}\n",
                p.nodes,
                p.key_bits,
                p.secs,
                p.allocs,
                p.bytes,
                per_secs(p) * 1e6,
                per_bytes(p),
                p.fingerprint,
                if i + 1 == points.len() { "" } else { "," },
            ));
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  sweep written to {path}");
    }

    if gated.is_empty() {
        return Err("--max-nodes excluded every gated sweep point".into());
    }
    if secs_ratio > 2.0 || bytes_ratio > 2.0 {
        return Err(format!(
            "per-node build cost is not flat across the core sweep: {secs_ratio:.2}x seconds, \
             {bytes_ratio:.2}x bytes (budget: 2x) — the pipeline regressed from near-linear"
        ));
    }
    if let Some(budget) = budget_secs {
        if sweep_secs > budget as f64 {
            return Err(format!(
                "sweep took {sweep_secs:.1}s, over the {budget}s budget"
            ));
        }
        println!("  sweep finished in {sweep_secs:.1}s (budget {budget}s)");
    }
    Ok(())
}

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: probe sched [--ops N] [--seed S] \
                 | probe match [--subs N] [--seed S] [--json FILE] \
                 | probe overlay [--nodes N] [--seed S] \
                 | probe alloc [--nodes N] [--seed S] [--pool reuse|fresh] [--json FILE] \
                 | probe scale [--max-nodes N] [--seed S] [--budget-secs T] [--json FILE] \
                 | probe rendezvous [--nodes N] [--seed S] [--json FILE]";
    let outcome = match args.first().map(String::as_str) {
        Some("sched") => probe_sched(
            arg_value(&args, "--ops").unwrap_or(2_000_000) as usize,
            arg_value(&args, "--seed").unwrap_or(7),
        ),
        Some("match") => probe_match(
            arg_value(&args, "--subs").unwrap_or(1_000_000) as usize,
            arg_value(&args, "--seed").unwrap_or(7),
            args.iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str),
        ),
        Some("overlay") => probe_overlay(
            arg_value(&args, "--nodes").unwrap_or(120) as usize,
            arg_value(&args, "--seed").unwrap_or(7),
        ),
        Some("alloc") => {
            let pool = match args
                .iter()
                .position(|a| a == "--pool")
                .and_then(|i| args.get(i + 1))
            {
                None => PoolMode::Reuse,
                Some(v) => match PoolMode::parse(v) {
                    Some(mode) => mode,
                    None => {
                        eprintln!("--pool expects reuse|fresh, got {v:?}");
                        std::process::exit(2);
                    }
                },
            };
            probe_alloc(
                arg_value(&args, "--nodes").unwrap_or(120) as usize,
                arg_value(&args, "--seed").unwrap_or(7),
                pool,
                args.iter()
                    .position(|a| a == "--json")
                    .and_then(|i| args.get(i + 1))
                    .map(String::as_str),
            )
        }
        Some("scale") => probe_scale(
            arg_value(&args, "--max-nodes").unwrap_or(100_000) as usize,
            arg_value(&args, "--seed").unwrap_or(7),
            arg_value(&args, "--budget-secs"),
            args.iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str),
        ),
        Some("rendezvous") => probe_rendezvous(
            arg_value(&args, "--nodes").unwrap_or(150) as usize,
            arg_value(&args, "--seed").unwrap_or(7),
            args.iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str),
        ),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
