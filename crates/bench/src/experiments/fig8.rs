//! **Figure 8 — Scalability of memory consumption.**
//!
//! Max stored subscriptions per node when 25 000 never-expiring
//! subscriptions are injected, as a function of the network size `n`, for
//! the three mappings with zero and one selective attributes.
//!
//! Paper shape: total stored state grows with `n` because a rendezvous
//! range is split across more nodes, so each subscription is copied more
//! often. Mappings 1 and 3 are sensitive to this; mapping 2's average
//! stays nearly constant. With one selective attribute mapping 3
//! duplicates rarely and beats mapping 2 below n ≈ 2500.

use cbps::MappingKind;

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Scale, Sweep};
use crate::table::{fmt_f, Table};

fn node_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![100, 300, 800],
        Scale::Paper => vec![250, 500, 1000, 2500, 5000],
        // The paper's memory trend at deployment scale.
        Scale::Large => vec![1000, 10_000, 100_000],
    }
}

/// Runs the experiment: one table per selective-attribute count.
pub fn run(sweep: &Sweep) -> Vec<Table> {
    let scale = sweep.profile.scale;
    [0usize, 1]
        .into_iter()
        .map(|selective| {
            let mut table = Table::new(
                format!(
                    "Figure 8: max (avg) stored subscriptions per node vs n, {selective} selective attr(s)"
                ),
                &["n", "M1 attr-split", "M2 keyspace-split", "M3 selective"],
            );
            let subs = match scale {
                Scale::Quick => 4_000,
                Scale::Paper | Scale::Large => 25_000,
            };
            let mut points = Vec::new();
            for n in node_counts(scale) {
                for mapping in [
                    MappingKind::AttributeSplit,
                    MappingKind::KeySpaceSplit,
                    MappingKind::SelectiveAttribute,
                ] {
                    points.push((n, mapping));
                }
            }
            let cells = parallel_map(sweep.profile.jobs, points, |(n, mapping)| {
                let mut deployment = Deployment::new(n, 801);
                deployment.mapping = mapping;
                let cfg = paper_workload(n, selective).with_counts(subs, 0);
                let mut gen = workload_gen(cfg, 801);
                let trace = gen.gen_trace();
                let stats = crate::with_backend!(sweep.profile.overlay, B => {
                    let mut net = deployment.build_on::<B>(sweep.profile.obs);
                    sweep.run_trace(&mut net, &trace, 60)
                });
                format!("{} ({})", stats.max_stored, fmt_f(stats.avg_stored))
            });
            for (i, n) in node_counts(scale).into_iter().enumerate() {
                let mut row = vec![n.to_string()];
                row.extend(cells[i * 3..i * 3 + 3].iter().cloned());
                table.push_row(row);
            }
            table
        })
        .collect()
}
