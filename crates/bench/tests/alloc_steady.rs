//! Steady-state allocation gate: after warmup, a routed publication and
//! the notifications it triggers must be processed without a single heap
//! allocation — the slab pool recycles envelope and timer slots, inline
//! range sets keep m-cast splits on the stack, a notification is routed by
//! value as an inline singleton of two ids, and the warm hooks pre-fault
//! every bounded scratch buffer. It replays the figures workload on a
//! 120-node Chord ring, warms up on two batches of 256 publications and
//! audits a third; every publication matches one of the trace's
//! subscriptions, so the audited window routes notifications too.
//!
//! The counting `#[global_allocator]` is process-wide, which is exactly
//! why this file holds a single test in its own integration-test binary:
//! no other test's allocations can leak into the measured window.
//!
//! Ignored in debug builds: the audit asserts an exact zero, and the
//! un-optimized standard library is not a build configuration the
//! zero-allocation claim covers (`ci.sh` runs it in release).

mod counting_alloc;

use counting_alloc::{alloc_calls, CountingAlloc};

use cbps_bench::runner::{paper_workload, run_trace, workload_gen, Deployment};
use cbps_overlay::{
    build_routing_states, KeyRange, KeyRangeSet, KeySpace, OverlayConfig, Peer, RingView,
    RouteTable,
};
use cbps_pastry::{PastryConfig, PastryState};
use cbps_sim::{SimDuration, TrafficClass};
use cbps_workload::OpKind;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
#[cfg_attr(debug_assertions, ignore = "zero-alloc gate holds for release builds")]
fn steady_state_routed_events_do_not_allocate() {
    let nodes = 120;
    let seed = 7;
    let deployment = Deployment::new(nodes, seed);
    let cfg = paper_workload(nodes, 0)
        .with_counts(nodes * 2, nodes * 4)
        .with_matching_probability(0.5);
    let mut gen = workload_gen(cfg, seed);
    let trace = gen.gen_trace();
    let mut net = deployment.build();
    let before = alloc_calls();
    run_trace(&mut net, &trace, 300);
    // The replay grows every store and table from cold: a counter that saw
    // none of it would make the zero below meaningless.
    assert!(
        alloc_calls() > before,
        "the counting allocator counted nothing"
    );

    // Warmup: twice the measured batch, one publication per two simulated
    // seconds, so every recycled capacity — pool slab, event-queue heap,
    // delivery logs, metric tables — hits its high-water mark before
    // counting starts.
    const BATCH: usize = 256;
    let subs: Vec<&cbps::Subscription> = trace
        .ops()
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Subscribe { sub, ttl: None } => Some(sub),
            _ => None,
        })
        .collect();
    assert!(!subs.is_empty(), "the trace holds no lasting subscription");
    let events: Vec<cbps::Event> = (0..3 * BATCH)
        .map(|i| gen.gen_matching_event(subs[i % subs.len()]))
        .collect();
    for (i, ev) in events[..2 * BATCH].iter().enumerate() {
        net.publish(i % nodes, ev.clone()).expect("warmup publish");
        let until = net.now() + SimDuration::from_secs(2);
        net.run_until(until);
    }
    for idx in 0..nodes {
        net.clear_delivered(idx);
        net.warm_node(idx);
    }

    // Measured: injection happens outside the counted region; only the
    // bounded drain of each publication is audited.
    let notified = net.sim_mut().metrics().messages(TrafficClass::NOTIFICATION);
    let (mut allocs, mut processed) = (0u64, 0u64);
    for (i, ev) in events[2 * BATCH..].iter().enumerate() {
        net.publish((2 * BATCH + i) % nodes, ev.clone())
            .expect("steady publish");
        let until = net.now() + SimDuration::from_secs(2);
        let ev0 = net.sim_mut().events_processed();
        let a0 = alloc_calls();
        net.run_until(until);
        let a1 = alloc_calls();
        processed += net.sim_mut().events_processed() - ev0;
        allocs += a1 - a0;
    }
    let notified = net.sim_mut().metrics().messages(TrafficClass::NOTIFICATION) - notified;
    assert!(processed > 0, "steady-state window processed no events");
    assert!(notified > 0, "steady-state window sent no notification");
    assert_eq!(
        allocs, 0,
        "steady-state window performed {allocs} heap allocations over {processed} events \
         and {notified} notification hops"
    );
    splits_do_not_allocate();
}

/// The m-cast split by itself, on both substrates: the cut list is the
/// thread's pooled buffer however many neighbors a node knows — a Chord
/// node of this ring about 14, a Pastry node its 16 leaves and a dozen
/// table rows, more than any in-place list the split ever had — and the
/// bundles are pooled too, so after one warming round no split allocates.
fn splits_do_not_allocate() {
    let space = KeySpace::new(40);
    let peers: Vec<Peer> = (0..3_000u64)
        .map(|idx| Peer {
            idx: idx as usize,
            key: space.key(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx + 1) >> 24),
        })
        .collect();
    let ring = RingView::new(space, peers.clone());
    let chord = build_routing_states(&OverlayConfig::paper_default().with_space(space), &ring);
    let pastry_cfg = PastryConfig::paper_default()
        .with_space(space)
        .with_leaf_len(8);
    let pastry: Vec<PastryState> = peers[..64]
        .iter()
        .map(|&me| PastryState::converged(pastry_cfg, me, &ring))
        .collect();
    let neighbors =
        |st: &PastryState| 2 * pastry_cfg.leaf_len + st.table().iter().flatten().count();
    assert!(pastry.iter().all(|st| neighbors(st) > 24));
    let targets = [
        KeyRangeSet::full(space),
        KeyRangeSet::of_range(space, KeyRange::new(peers[7].key, peers[1].key)),
        KeyRangeSet::of_key(space, peers[2].key),
    ];
    let round = || {
        let mut relays = 0;
        for targets in &targets {
            for st in &chord[..64] {
                relays += st.mcast_split(targets).1.len();
            }
            for st in &pastry {
                relays += st.mcast_split(targets).1.len();
            }
        }
        relays
    };
    let warmed = round();
    let before = alloc_calls();
    assert_eq!(round(), warmed);
    assert_eq!(
        alloc_calls() - before,
        0,
        "heap allocations in {warmed} relays' splits"
    );
}
