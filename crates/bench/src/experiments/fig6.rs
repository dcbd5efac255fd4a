//! **Figure 6 — Memory consumption vs expiration time.**
//!
//! 25 000 subscriptions (no publications) injected at the 5 s cadence with
//! a per-subscription expiration time; the metric is the maximum (and
//! average) number of simultaneously stored subscriptions per node, for the
//! three mappings with zero and one selective attributes.
//!
//! Paper shape: storage grows with the expiration time; mapping 2 stores
//! the least without selective attributes; mapping 3 benefits sharply from
//! one selective attribute.
//!
//! Propagation uses `m-cast` — the stored state is identical under any
//! primitive, and `m-cast` keeps the run fast.

use cbps::MappingKind;
use cbps_sim::SimDuration;

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Scale, Sweep};
use crate::table::{fmt_f, Table};

/// TTL sweep (seconds); `None` = never expires.
fn ttls(scale: Scale) -> Vec<Option<u64>> {
    match scale {
        Scale::Quick => vec![Some(500), Some(2_500), Some(10_000), None],
        Scale::Paper | Scale::Large => {
            vec![Some(2_500), Some(10_000), Some(25_000), Some(62_500), None]
        }
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
                    "Figure 6: max (avg) stored subscriptions per node vs expiration time, {selective} selective attr(s)"
                ),
                &["expiry [s]", "M1 attr-split", "M2 keyspace-split", "M3 selective"],
            );
            let nodes = sweep.profile.nodes();
            let subs = match scale {
                Scale::Quick => 4_000,
                Scale::Paper | Scale::Large => 25_000,
            };
            let mut points = Vec::new();
            for ttl in ttls(scale) {
                for mapping in [
                    MappingKind::AttributeSplit,
                    MappingKind::KeySpaceSplit,
                    MappingKind::SelectiveAttribute,
                ] {
                    points.push((ttl, mapping));
                }
            }
            let cells = parallel_map(sweep.profile.jobs, points, |(ttl, mapping)| {
                let mut deployment = Deployment::new(nodes, 601);
                deployment.mapping = mapping;
                let cfg = paper_workload(nodes, selective)
                    .with_counts(subs, 0)
                    .with_sub_ttl(ttl.map(SimDuration::from_secs));
                let mut gen = workload_gen(cfg, 601);
                let trace = gen.gen_trace();
                let stats = crate::with_backend!(sweep.profile.overlay, B => {
                    let mut net = deployment.build_on::<B>(sweep.profile.obs);
                    sweep.run_trace(&mut net, &trace, 60)
                });
                format!("{} ({})", stats.max_stored, fmt_f(stats.avg_stored))
            });
            for (i, ttl) in ttls(scale).into_iter().enumerate() {
                let mut row = vec![match ttl {
                    Some(t) => t.to_string(),
                    None => "never".to_owned(),
                }];
                row.extend(cells[i * 3..i * 3 + 3].iter().cloned());
                table.push_row(row);
            }
            table
        })
        .collect()
}
