//! Build-pipeline scaling gate: building a converged pub/sub deployment
//! must stay near-linear in its size. At 10^3 and 10^4 nodes, the build's
//! wall seconds per node and the live heap bytes per node of the built
//! network may differ by at most 2× between the two points, and the whole
//! sweep must finish inside a minute. (Serial-vs-parallel routing-table
//! parity is `cbps-overlay`'s `properties.rs::parallel_build_matches_serial`.)
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide, hence also a single
//! test function. Ignored in debug builds: an un-optimized build's seconds
//! say nothing about the pipeline's cost (`ci.sh` runs it in release).

mod counting_alloc;

use std::time::{Duration, Instant};

use counting_alloc::{live_bytes, CountingAlloc};

use cbps_bench::runner::Deployment;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most the per-node seconds or bytes of one point may exceed the
/// other's.
const MAX_RATIO: f64 = 2.0;

#[test]
#[cfg_attr(debug_assertions, ignore = "build-cost gate holds for release builds")]
fn build_cost_per_node_is_flat_from_a_thousand_to_ten_thousand_nodes() {
    let sweep = Instant::now();
    // `(nodes, seconds per node, live bytes per node)`.
    let points: Vec<(usize, f64, f64)> = [1_000usize, 10_000]
        .into_iter()
        .map(|nodes| {
            let before = live_bytes();
            let started = Instant::now();
            let net = Deployment::new(nodes, 7).build();
            let secs = started.elapsed().as_secs_f64();
            let bytes = live_bytes() - before;
            assert_eq!(net.len(), nodes);
            eprintln!(
                "{nodes:>6} nodes: {:.2} µs and {:.0} live bytes per node",
                secs * 1e6 / nodes as f64,
                bytes as f64 / nodes as f64
            );
            (nodes, secs / nodes as f64, bytes as f64 / nodes as f64)
        })
        .collect();
    let spread = |per_node: fn(&(usize, f64, f64)) -> f64| {
        let (a, b) = (per_node(&points[0]), per_node(&points[1]));
        a.max(b) / a.min(b)
    };
    let (secs_ratio, bytes_ratio) = (spread(|p| p.1), spread(|p| p.2));
    assert!(
        secs_ratio <= MAX_RATIO && bytes_ratio <= MAX_RATIO,
        "per-node build cost is not flat from 10^3 to 10^4 nodes: {secs_ratio:.2}x seconds, \
         {bytes_ratio:.2}x bytes (bound {MAX_RATIO}x): the pipeline regressed from near-linear"
    );
    assert!(
        sweep.elapsed() < Duration::from_secs(60),
        "the sweep took {:?}",
        sweep.elapsed()
    );
}
