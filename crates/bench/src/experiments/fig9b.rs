//! **Figure 9(b) — Discretization of mappings.**
//!
//! Subscription one-hop messages under discretization intervals of size 1
//! (none), 10% and 20% of the average constraint range. Mapping 3 with
//! unicast, as in the paper.
//!
//! Paper shape: coarser discretization maps wide ranges to fewer
//! rendezvous keys, cutting subscription propagation hops further.

use cbps::{MappingKind, Primitive};

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the experiment and returns its table. The paper adds that "the
/// same results apply to other mappings with multicast" — the extra rows
/// verify that claim (mapping 1 under m-cast).
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Figure 9(b): subscription hops vs discretization interval",
        &[
            "config",
            "interval",
            "hops/sub",
            "keys/sub",
            "max stored/node",
        ],
    );
    let nodes = sweep.profile.nodes();
    let subs = scale.ops(1000);
    let configs = [
        (
            "M3 unicast",
            MappingKind::SelectiveAttribute,
            Primitive::Unicast,
        ),
        ("M1 m-cast", MappingKind::AttributeSplit, Primitive::MCast),
    ];
    // Average non-selective range = E[U(1, 30000)] ≈ 15000 values.
    let mut points = Vec::new();
    for (config, mapping, primitive) in configs {
        for (label, width) in [
            ("1 (none)", 1u64),
            ("10% avg range", 1_500),
            ("20% avg range", 3_000),
        ] {
            points.push((config, mapping, primitive, label, width));
        }
    }
    let rows = parallel_map(
        sweep.profile.jobs,
        points,
        |(config, mapping, primitive, label, width)| {
            let mut deployment = Deployment::new(nodes, 911);
            deployment.mapping = mapping;
            deployment.primitive = primitive;
            deployment.discretization = width;
            let cfg = paper_workload(nodes, 0).with_counts(subs, 0);
            let mut gen = workload_gen(cfg, 911);
            let trace = gen.gen_trace();
            let stats = crate::with_backend!(sweep.profile.overlay, B => {
                let mut net = deployment.build_on::<B>(sweep.profile.obs);
                sweep.run_trace(&mut net, &trace, 60)
            });
            vec![
                config.to_owned(),
                label.to_owned(),
                fmt_f(stats.hops_per_sub),
                fmt_f(stats.keys_per_sub),
                stats.max_stored.to_string(),
            ]
        },
    );
    for row in rows {
        table.push_row(row);
    }
    table
}
