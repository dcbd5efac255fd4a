//! Build-pipeline scaling gate: building a converged pub/sub deployment
//! must stay near-linear in its size. At 10^3 and 10^4 nodes, the Chord
//! build's wall seconds per node and the live heap bytes per node of the
//! built network may differ by at most 2× between the two points, and the
//! whole sweep, Pastry's two points included, must finish inside a minute.
//!
//! At each point the build must also hold little more than what it
//! leaves behind: its peak live heap may exceed the built network's by at
//! most [`MAX_TRANSIENT_PER_NODE`] bytes per node on Chord and on Pastry,
//! so no second array of node-sized values is ever resident. A freshly
//! built Chord node owns no heap of its own: the network holds at most
//! [`MAX_SHARED_PER_NODE`] bytes per node beyond the node values
//! themselves. (A Pastry node owns its routing-table rows, so that bound
//! is Chord's only.)
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide, hence also a single
//! test function. Ignored in debug builds: an un-optimized build's seconds
//! say nothing about the pipeline's cost (`ci.sh` runs it in release).

mod counting_alloc;

use std::mem::size_of;
use std::time::{Duration, Instant};

use counting_alloc::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};

use cbps::{ChordBackend, OverlayBackend};
use cbps_bench::runner::Deployment;
use cbps_pastry::PastryBackend;
use cbps_sim::ObsMode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most the per-node seconds or bytes of one point may exceed the
/// other's.
const MAX_RATIO: f64 = 2.0;

/// The most bytes per node the build may hold at its peak beyond what the
/// built network holds: the key table, the finger grid and the index
/// lookups the converged states are computed from: about 56–68 B per node
/// on Chord, 4 on Pastry. A second array of app values (160 B each) does
/// not fit, nor does a second array of Chord routing states (888 B each).
const MAX_TRANSIENT_PER_NODE: i64 = 128;

/// The most bytes per node the built network may hold beyond the node
/// values: the ring view's 16 B entry per node plus fixed costs spread
/// over the nodes. One boxed store per node (176 B) does not fit.
const MAX_SHARED_PER_NODE: i64 = 32;

/// One point of the sweep on substrate `B`: builds `nodes` nodes, checks
/// the build's transient, and returns `(seconds per node, live bytes per
/// node, live bytes beyond the node values)`.
fn build_point<B: OverlayBackend>(nodes: usize) -> (f64, f64, i64) {
    let before = live_bytes();
    reset_peak();
    let started = Instant::now();
    let net = Deployment::new(nodes, 7).build_on::<B>(ObsMode::Off);
    let secs = started.elapsed().as_secs_f64();
    let bytes = live_bytes() - before;
    let transient = peak_live_bytes() - before - bytes;
    assert_eq!(net.len(), nodes);
    let (name, n) = (B::NAME, nodes as i64);
    assert!(
        transient <= MAX_TRANSIENT_PER_NODE * n,
        "building {nodes} {name} nodes peaked {transient} B ({} B per node) above what the \
         built network holds (bound {MAX_TRANSIENT_PER_NODE} B per node)",
        transient / n
    );
    eprintln!(
        "{name:>7} {nodes:>6} nodes: {:.2} µs and {:.0} live bytes per node, {:.0} transient",
        secs * 1e6 / nodes as f64,
        bytes as f64 / nodes as f64,
        transient as f64 / nodes as f64,
    );
    let beyond_nodes = bytes - (size_of::<B::Node>() * nodes) as i64;
    (
        secs / nodes as f64,
        bytes as f64 / nodes as f64,
        beyond_nodes,
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "build-cost gate holds for release builds")]
fn build_cost_per_node_is_flat_from_a_thousand_to_ten_thousand_nodes() {
    let sweep = Instant::now();
    let sizes = [1_000usize, 10_000];
    let points = sizes.map(build_point::<ChordBackend>);
    for (nodes, (_, _, beyond_nodes)) in sizes.into_iter().zip(points) {
        let n = nodes as i64;
        assert!(
            beyond_nodes <= MAX_SHARED_PER_NODE * n,
            "{nodes} freshly built nodes hold {beyond_nodes} B ({} B per node) beyond their \
             node values (bound {MAX_SHARED_PER_NODE} B per node): a node owns heap",
            beyond_nodes / n
        );
    }
    let spread = |per_node: fn(&(f64, f64, i64)) -> f64| {
        let (a, b) = (per_node(&points[0]), per_node(&points[1]));
        a.max(b) / a.min(b)
    };
    let (secs_ratio, bytes_ratio) = (spread(|p| p.0), spread(|p| p.1));
    assert!(
        secs_ratio <= MAX_RATIO && bytes_ratio <= MAX_RATIO,
        "per-node build cost is not flat from 10^3 to 10^4 nodes: {secs_ratio:.2}x seconds, \
         {bytes_ratio:.2}x bytes (bound {MAX_RATIO}x): the pipeline regressed from near-linear"
    );
    // Pastry: the transient bound only. Its per-node seconds grow with
    // the binary searches behind each converged state (≈ 1.7× from 10^3
    // to 10^4 nodes), too close to the flatness bound to gate on.
    for nodes in sizes {
        build_point::<PastryBackend>(nodes);
    }
    assert!(
        sweep.elapsed() < Duration::from_secs(60),
        "the sweep took {:?}",
        sweep.elapsed()
    );
}
