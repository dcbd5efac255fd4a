//! Covering-probe gate, the read-side twin of `alloc_install.rs`: on the
//! same Mapping 1 deployment, where the paper's workload gives the
//! covering layer nothing to share, deciding so must not cost a walk
//! through the stored subscriptions. The store counts what its two
//! probes read ([`SubscriptionStore::covering_stats`]); the counts are
//! exact, so this runs in debug and release alike.
//!
//! The publication side has the same kind of gate on a deployment shaped
//! like the benchmark's `fanout`, where the covering layer shares a great
//! deal: expanding a physical hit back to its subscribers must read no
//! stored record at all.
//!
//! [`SubscriptionStore::covering_stats`]: cbps::SubscriptionStore::covering_stats

mod mapping1_install;

use cbps::{CoveringStats, MappingKind, NotifyMode, PubSubNetwork, Subscription};
use cbps_bench::runner::{paper_workload, workload_gen, Deployment};
use cbps_sim::SimDuration;
use mapping1_install::Mapping1Install;

/// The covering counters summed over every node's store.
fn total(net: &PubSubNetwork, nodes: usize) -> CoveringStats {
    let mut sum = CoveringStats::default();
    for node in 0..nodes {
        let s = net.app(node).store().covering_stats();
        sum.inserts += s.inserts;
        sum.duplicate += s.duplicate;
        sum.covered += s.covered;
        sum.absorbed += s.absorbed;
        sum.founded += s.founded;
        sum.entries_scanned += s.entries_scanned;
        sum.records_dereferenced += s.records_dereferenced;
        sum.members_tested += s.members_tested;
        sum.members_emitted += s.members_emitted;
        sum.records_dereferenced_on_match += s.records_dereferenced_on_match;
        sum.bounds_slots += s.bounds_slots;
    }
    sum
}

/// Installs `warmup` subscriptions, then `batch` more, and returns what
/// the batch added to the counters the gate reads.
fn batch_stats(nodes: usize, seed: u64, warmup: usize, batch: usize) -> CoveringStats {
    let mut deployment = Mapping1Install::new(nodes, seed, warmup + batch);
    deployment.install(warmup);
    let before = total(&deployment.net, nodes);
    deployment.install(batch);
    let after = total(&deployment.net, nodes);
    assert_eq!(
        after.duplicate + after.covered + after.absorbed + after.founded,
        after.inserts,
        "every insert ends in exactly one outcome: {after:?}"
    );
    let stats = CoveringStats {
        inserts: after.inserts - before.inserts,
        entries_scanned: after.entries_scanned - before.entries_scanned,
        records_dereferenced: after.records_dereferenced - before.records_dereferenced,
        ..after
    };
    assert!(
        stats.inserts > 10 * batch as u64,
        "mapping 1 stores a subscription at dozens of nodes: {stats:?}"
    );
    println!(
        "{nodes} nodes, whole run {after:?}; the batch: {} inserts, per insert {:.2} entries \
         scanned, {:.3} records dereferenced",
        stats.inserts,
        stats.entries_scanned as f64 / stats.inserts as f64,
        stats.records_dereferenced as f64 / stats.inserts as f64,
    );
    stats
}

/// Stored records a covering probe may read per insert on the gate's
/// batch. The deployment is `alloc_install.rs`'s: 200 nodes, 2 000
/// subscriptions of warm-up, a batch of 400 (6 246 stored copies, none of
/// them shareable). Before the cover directory the two probes followed
/// 19.33 pointers into stored records per insert on this batch (tagged
/// bucket candidates of `find_cover`, 49.78 bucket entries walked to find
/// them, plus the `BTreeSet` range candidates; counted once with scratch
/// counters in a copy of that commit). The directory compares 12.75 filed
/// entries in place per insert and follows 0.033 pointers (203 in all);
/// with the range test on the filing dimension alone it would follow 4.83.
const MAX_DEREFERENCED_PER_INSERT: f64 = 0.05;

#[test]
fn a_covering_miss_reads_the_directory_not_the_records() {
    let stats = batch_stats(200, 11, 2000, 400);
    let per_insert = stats.records_dereferenced as f64 / stats.inserts as f64;
    assert!(
        per_insert <= MAX_DEREFERENCED_PER_INSERT,
        "{per_insert:.3} records dereferenced per insert: {stats:?}"
    );
}

/// A deployment shaped like the benchmark's `fanout` at a quarter of its
/// size — Mapping 3, half of the subscriptions partly wildcard, all of
/// them installed before the first publication, every other publication
/// aimed at one of them — run under `notify`. Returns the covering
/// counters and the run's `matches`.
fn publication_side(notify: NotifyMode) -> (CoveringStats, u64) {
    let (nodes, seed, pubs) = (100, 5, 1_000);
    let deployment = Deployment {
        mapping: MappingKind::SelectiveAttribute,
        notify,
        ..Deployment::new(nodes, seed)
    };
    let mut net = deployment.build();
    let workload = paper_workload(nodes, 0).with_wildcard_probability(0.5);
    let mut gen = workload_gen(workload, seed);
    let subs: Vec<Subscription> = (0..5_000).map(|_| gen.gen_subscription()).collect();
    for (i, sub) in subs.iter().enumerate() {
        let from = i % nodes;
        net.subscribe(from, sub.clone(), None).expect("valid");
    }
    net.run_until(net.now() + SimDuration::from_secs(60));
    for i in 0..pubs {
        let event = match i % 2 {
            0 => gen.gen_matching_event(&subs[i * 7 % subs.len()]),
            _ => gen.gen_random_event(),
        };
        net.publish(i % nodes, event).expect("valid");
        net.run_until(net.now() + SimDuration::from_secs(1));
    }
    net.run_until(net.now() + SimDuration::from_secs(600));
    let stats = total(&net, nodes);
    let delivered: usize = (0..nodes).map(|node| net.delivered(node).len()).sum();
    assert!(
        delivered > 10_000,
        "{notify:?}: only {delivered} notifications"
    );
    println!(
        "{notify:?}: {stats:?}; per publication {:.1} members tested, {:.1} emitted",
        stats.members_tested as f64 / pubs as f64,
        stats.members_emitted as f64 / pubs as f64,
    );
    (stats, net.metrics().counter("matches"))
}

/// From match hit to notification nothing follows a pointer into a stored
/// record — unless the collecting protocol has to ask where a
/// subscription's rendezvous range ends, once per match.
#[test]
fn expanding_a_match_reads_no_stored_record() {
    let period = SimDuration::from_secs(5);
    for notify in [NotifyMode::Immediate, NotifyMode::Buffered { period }] {
        let (stats, matches) = publication_side(notify);
        assert_eq!(stats.records_dereferenced_on_match, 0, "{notify:?}");
        assert_eq!(
            stats.members_emitted, matches,
            "every match is a member emitted"
        );
        assert!(stats.members_emitted <= stats.members_tested, "{stats:?}");
        // The shape the gate is about: most members sit under a cover
        // wider than themselves and were verified against the slab.
        assert!(stats.bounds_slots * 2 > stats.inserts, "{stats:?}");
        assert!(stats.members_emitted < stats.members_tested, "{stats:?}");
    }
    let (stats, matches) = publication_side(NotifyMode::Collecting { period });
    assert_eq!(stats.records_dereferenced_on_match, matches);
}

/// The benchmark's `install` deployment (1 000 nodes, 5 000
/// subscriptions), for the number DESIGN.md and CHANGES.md quote:
/// `cargo test --release -p cbps-bench --test covering_stats -- --ignored --nocapture`.
#[test]
#[ignore = "a reading for the docs; the 200-node gate above is the check"]
fn install_deployment_reading() {
    let stats = batch_stats(1000, 1, 0, 5000);
    assert!(stats.records_dereferenced <= 6 * stats.inserts, "{stats:?}");
}
