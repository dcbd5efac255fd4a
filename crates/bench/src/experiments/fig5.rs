//! **Figure 5 — Total number of hops.**
//!
//! Hops per request (subscription, publication, notification) under the
//! three mappings with unicast and with `m-cast`. All attributes
//! non-selective, subscriptions never expire.
//!
//! Paper shape: publications map to 1 key under mappings 1–2 and 4 keys
//! under mapping 3; subscription hops track the number of mapped keys
//! (mapping 1 ≈ 10× mapping 3 ≈ 100× mapping 2 under unicast); `m-cast`
//! cuts subscription hops by > 90% for mappings 1 and 3.

use cbps::{MappingKind, Primitive};

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Figure 5: hops per request (0 selective attrs, no expiry)",
        &[
            "mapping",
            "primitive",
            "hops/sub",
            "hops/pub",
            "hops/notify",
            "keys/sub",
            "keys/pub",
        ],
    );
    let nodes = sweep.profile.nodes();
    let subs = scale.ops(1000);
    let pubs = scale.ops(1000);
    let mut points = Vec::new();
    for mapping in [
        MappingKind::AttributeSplit,
        MappingKind::KeySpaceSplit,
        MappingKind::SelectiveAttribute,
    ] {
        for primitive in [Primitive::Unicast, Primitive::MCast] {
            points.push((mapping, primitive));
        }
    }
    let rows = parallel_map(sweep.profile.jobs, points, |(mapping, primitive)| {
        let mut deployment = Deployment::new(nodes, 501);
        deployment.mapping = mapping;
        deployment.primitive = primitive;
        let cfg = paper_workload(nodes, 0).with_counts(subs, pubs);
        let mut gen = workload_gen(cfg, 501);
        let trace = gen.gen_trace();
        let stats = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = deployment.build_on::<B>(sweep.profile.obs);
            sweep.run_trace(&mut net, &trace, 120)
        });
        vec![
            short_name(mapping).to_owned(),
            format!("{primitive:?}").to_lowercase(),
            fmt_f(stats.hops_per_sub),
            fmt_f(stats.hops_per_pub),
            fmt_f(stats.hops_per_notification),
            fmt_f(stats.keys_per_sub),
            fmt_f(stats.keys_per_pub),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Short mapping labels used across all figure tables.
pub fn short_name(kind: MappingKind) -> &'static str {
    match kind {
        MappingKind::AttributeSplit => "M1 attr-split",
        MappingKind::KeySpaceSplit => "M2 keyspace-split",
        MappingKind::SelectiveAttribute => "M3 selective",
    }
}
