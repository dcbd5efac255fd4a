//! Covering-probe gate, the read-side twin of `alloc_install.rs`: on the
//! same Mapping 1 deployment, where the paper's workload gives the
//! covering layer nothing to share, deciding so must not cost a walk
//! through the stored subscriptions. The store counts what its two
//! probes read ([`SubscriptionStore::covering_stats`]); the counts are
//! exact, so this runs in debug and release alike.
//!
//! [`SubscriptionStore::covering_stats`]: cbps::SubscriptionStore::covering_stats

mod mapping1_install;

use cbps::CoveringStats;
use mapping1_install::Mapping1Install;

/// The probes' counters summed over every node's store.
fn total(deployment: &Mapping1Install) -> CoveringStats {
    let mut sum = CoveringStats::default();
    for node in 0..deployment.nodes {
        let s = deployment.net.app(node).store().covering_stats();
        sum.inserts += s.inserts;
        sum.duplicate += s.duplicate;
        sum.covered += s.covered;
        sum.absorbed += s.absorbed;
        sum.founded += s.founded;
        sum.entries_scanned += s.entries_scanned;
        sum.records_dereferenced += s.records_dereferenced;
    }
    sum
}

/// Installs `warmup` subscriptions, then `batch` more, and returns what
/// the batch added to the counters the gate reads.
fn batch_stats(nodes: usize, seed: u64, warmup: usize, batch: usize) -> CoveringStats {
    let mut deployment = Mapping1Install::new(nodes, seed, warmup + batch);
    deployment.install(warmup);
    let before = total(&deployment);
    deployment.install(batch);
    let after = total(&deployment);
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

/// The benchmark's `install` deployment (1 000 nodes, 5 000
/// subscriptions), for the number DESIGN.md and CHANGES.md quote:
/// `cargo test --release -p cbps-bench --test covering_stats -- --ignored --nocapture`.
#[test]
#[ignore = "a reading for the docs; the 200-node gate above is the check"]
fn install_deployment_reading() {
    let stats = batch_stats(1000, 1, 0, 5000);
    assert!(stats.records_dereferenced <= 6 * stats.inserts, "{stats:?}");
}
