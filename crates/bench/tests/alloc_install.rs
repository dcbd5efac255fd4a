//! Install-path allocation gate, the subscription twin of
//! `alloc_steady.rs`: under Mapping 1 + m-cast every subscription is
//! stored at dozens of rendezvous nodes, and all of them must share the
//! one record — and the one constraints allocation — the subscriber
//! built. After a warm-up batch, a stored copy may cost only a small
//! number of heap allocations — amortized container growth, nothing a
//! copy allocates for itself — however many nodes store it.
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide.

mod counting_alloc;
mod mapping1_install;

use cbps_sim::Counter;
use counting_alloc::{alloc_calls, live_bytes, CountingAlloc};
use mapping1_install::Mapping1Install;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations a stored copy may cost after warm-up. This batch
/// measures 0.30 (1 895 for 6 246 copies): growth of the engine's bounds
/// table and the store's tables spread over the copies, plus the
/// per-subscription record and its key set spread over ≈ 15 copies. With
/// the engine's own table of subscription handles growing too the same
/// batch cost 0.31, with covering's groups and directory runs 0.78, with
/// the engine's bucket lists 1.27, with a position list allocated per
/// index entry as well 2.94, with a record and a constraint vector cloned
/// per copy 11.35.
const MAX_ALLOCS_PER_COPY: f64 = 0.32;

/// Live heap bytes a stored copy may add after warm-up (requested sizes,
/// so table capacity counts and allocator overhead does not): what the
/// batch leaves allocated, over its copies. It read 532 while a founding
/// copy wrote two records, two id-map entries and a shape-map entry
/// beside its row, 427 with one slot space, 402 with the engine entry one
/// row of bounds instead of a record with its bucket positions and list
/// entries, 244 without covering's group and directory entry, and reads
/// 203 without the engine's handle to the shape beside each bounds row.
/// What is left is the row, the `by_id` entry, the bounds row and the
/// doubling slack of the arrays they sit in.
const MAX_BYTES_PER_COPY: f64 = 215.0;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are pinned for release builds"
)]
fn installing_subscriptions_shares_one_record_per_subscription() {
    const WARMUP: usize = 2000;
    const BATCH: usize = 400;
    let mut deployment = Mapping1Install::new(200, 11, WARMUP + BATCH);
    deployment.install(WARMUP);

    let copies0 = deployment.net.metrics().count(Counter::StoreInsert);
    let (a0, b0) = (alloc_calls(), live_bytes());
    deployment.install(BATCH);
    let (allocs, bytes) = (alloc_calls() - a0, live_bytes() - b0);
    let Mapping1Install {
        nodes,
        net,
        subs,
        ids,
    } = &deployment;
    let copies = net.metrics().count(Counter::StoreInsert) - copies0;
    assert!(
        copies > 10 * BATCH as u64,
        "mapping 1 stores a subscription at dozens of nodes, got {copies} copies for {BATCH}"
    );
    let per_copy = allocs as f64 / copies as f64;
    assert!(
        per_copy <= MAX_ALLOCS_PER_COPY,
        "{allocs} heap allocations for {copies} stored copies = {per_copy:.2} per copy"
    );
    let bytes_per_copy = bytes as f64 / copies as f64;
    println!(
        "{copies} stored copies: {allocs} allocations ({per_copy:.2} a copy), \
         {bytes} live bytes ({bytes_per_copy:.0} a copy)"
    );
    assert!(
        bytes_per_copy <= MAX_BYTES_PER_COPY,
        "{bytes} live bytes for {copies} stored copies = {bytes_per_copy:.0} per copy"
    );

    // Every rendezvous copy is a handle to the constraints the test built:
    // exactly one constraints allocation per subscription.
    for (i, &id) in ids.iter().enumerate().skip(WARMUP) {
        let mut holders = 0;
        for node in 0..*nodes {
            if let Some(stored) = net.app(node).store().get(id) {
                assert!(
                    std::ptr::eq(stored.sub.constraints(), subs[i].constraints()),
                    "node {node} stores its own copy of subscription {id}"
                );
                holders += 1;
            }
        }
        assert!(
            holders > 1,
            "subscription {id} is stored at {holders} node(s)"
        );
    }
}
