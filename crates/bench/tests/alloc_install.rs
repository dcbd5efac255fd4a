//! Install-path allocation gate, the subscription twin of
//! `alloc_steady.rs`: under Mapping 1 + m-cast every subscription is
//! stored at dozens of rendezvous nodes, and all of them must share the
//! one record — and the one constraints allocation — the subscriber
//! built. After a warm-up batch, a stored copy may cost only a fixed
//! small number of heap allocations (index positions plus amortized
//! container growth), however many nodes store it.
//!
//! Own integration-test binary for the same reason as `alloc_steady.rs`:
//! the counting `#[global_allocator]` is process-wide.

mod counting_alloc;

use counting_alloc::{alloc_calls, CountingAlloc};

use cbps::{MappingKind, SubId, Subscription};
use cbps_bench::runner::{self, paper_workload, workload_gen, Deployment};
use cbps_sim::{PoolMode, SimDuration};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations a stored copy may cost after warm-up. This batch
/// measures 2.94: one for the index entry's position list, the rest is
/// growth of bucket lists, maps and the probe tree spread over the copies,
/// plus the per-subscription record and its key set spread over ≈ 15
/// copies. With a record and a constraint vector cloned per copy the same
/// batch cost 11.35.
const MAX_ALLOCS_PER_COPY: f64 = 3.0;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are pinned for release builds"
)]
fn installing_subscriptions_shares_one_record_per_subscription() {
    let nodes = 200;
    let seed = 11;
    runner::set_pool(PoolMode::Reuse);
    let mut deployment = Deployment::new(nodes, seed);
    deployment.mapping = MappingKind::AttributeSplit;
    let mut net = deployment.build_on::<cbps::ChordBackend>();
    let mut gen = workload_gen(paper_workload(nodes, 0), seed);

    const WARMUP: usize = 2000;
    const BATCH: usize = 400;
    let subs: Vec<Subscription> = (0..WARMUP + BATCH)
        .map(|_| gen.gen_subscription())
        .collect();
    net.reserve_workload(subs.len());
    let mut ids: Vec<SubId> = Vec::with_capacity(subs.len());
    let mut install = |net: &mut cbps::PubSubNetwork, i: usize| {
        let id = net
            .subscribe(i % nodes, subs[i].clone(), None)
            .expect("valid subscription");
        ids.push(id);
        let until = net.now() + SimDuration::from_secs(2);
        net.run_until(until);
    };
    for i in 0..WARMUP {
        install(&mut net, i);
    }

    let copies0 = net.metrics().counter("store.insert");
    let a0 = alloc_calls();
    for i in WARMUP..WARMUP + BATCH {
        install(&mut net, i);
    }
    let allocs = alloc_calls() - a0;
    let copies = net.metrics().counter("store.insert") - copies0;
    assert!(
        copies > 10 * BATCH as u64,
        "mapping 1 stores a subscription at dozens of nodes, got {copies} copies for {BATCH}"
    );
    let per_copy = allocs as f64 / copies as f64;
    assert!(
        per_copy <= MAX_ALLOCS_PER_COPY,
        "{allocs} heap allocations for {copies} stored copies = {per_copy:.2} per copy"
    );

    // Every rendezvous copy is a handle to the constraints the test built:
    // exactly one constraints allocation per subscription.
    for (i, &id) in ids.iter().enumerate().skip(WARMUP) {
        let mut holders = 0;
        for node in 0..nodes {
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
