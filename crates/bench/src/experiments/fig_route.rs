//! **In-text §5.1 — routing calibration.**
//!
//! "Upon n = 500, the average number of hops it took the Chord simulator
//! to deliver a single message between a pair of random nodes was about
//! 2.5. This is better than log n due to the finger caching mechanism."
//!
//! This experiment measures mean lookup hops vs `n`, with the location
//! cache disabled and enabled, and doubles as the calibration record for
//! the cache capacity (96 entries by default).
//!
//! Calibrates Chord's finger/cache machinery specifically, so it pins the
//! Chord substrate regardless of `--overlay` (the Pastry routing profile
//! is covered by its own portability tests).

use cbps_overlay::{build_stable, OverlayConfig};
use cbps_sim::NetConfig;

use crate::probe::ProbeApp;
use crate::runner::{parallel_map, Scale, Sweep};
use crate::table::{fmt_f, Table};

fn node_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![50, 100, 200],
        Scale::Paper => vec![100, 250, 500, 1000],
        // The calibration trend carried into the deployment regime; the
        // last point needs (and gets) a widened key space.
        Scale::Large => vec![1000, 10_000, 100_000],
    }
}

fn mean_hops(sweep: &Sweep, n: usize, cache: usize, lookups_per_node: usize, seed: u64) -> f64 {
    let cfg = OverlayConfig::paper_default()
        .with_space(cbps::deployment_key_space(n))
        .with_cache_capacity(cache);
    let apps: Vec<ProbeApp> = (0..n).map(|_| ProbeApp::default()).collect();
    let (mut sim, _ring) = build_stable(NetConfig::new(seed), cfg, apps);
    let space = cfg.space;
    let issue = |sim: &mut cbps_sim::Simulator<_>, i: usize| {
        let src = i % n;
        let v = sim.rng_mut().gen_range(0..space.size());
        let target = space.key(v);
        sim.with_node(src, |node: &mut cbps_overlay::ChordNode<ProbeApp>, ctx| {
            node.start_lookup(target, ctx)
        });
        // Interleave execution so caches warm as traffic flows.
        if i % 64 == 63 {
            sim.run();
        }
    };
    // Warm-up phase: the paper measures a long-running system, so caches
    // are warm ("this number showed little variation throughout the
    // experiments").
    for i in 0..n * lookups_per_node {
        issue(&mut sim, i);
    }
    sim.run();
    sim.metrics_mut().clear();
    // Measurement phase.
    for i in 0..n * lookups_per_node {
        issue(&mut sim, i);
    }
    sim.run();
    sweep
        .totals()
        .record_events(sim.events_processed(), sim.queue_peak());
    sim.metrics()
        .histogram("lookup.hops")
        .map(|h| h.mean())
        .unwrap_or(0.0)
}

/// Runs the calibration and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "§5.1 in-text: mean lookup hops vs n (finger caching calibration)",
        &[
            "n",
            "no cache",
            "cache 32",
            "cache 96",
            "cache 256",
            "0.5*log2(n)",
        ],
    );
    let lookups = match scale {
        Scale::Quick => 30,
        Scale::Paper | Scale::Large => 60,
    };
    const CACHES: [usize; 4] = [0, 32, 96, 256];
    let mut points = Vec::new();
    for n in node_counts(scale) {
        for cache in CACHES {
            points.push((n, cache));
        }
    }
    let means = parallel_map(sweep.profile.jobs, points, |(n, cache)| {
        mean_hops(sweep, n, cache, lookups, 931)
    });
    for (i, n) in node_counts(scale).into_iter().enumerate() {
        let group = &means[i * CACHES.len()..(i + 1) * CACHES.len()];
        let mut row = vec![n.to_string()];
        row.extend(group.iter().map(|&m| fmt_f(m)));
        row.push(fmt_f(0.5 * (n as f64).log2()));
        table.push_row(row);
    }
    table
}
