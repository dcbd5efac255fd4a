//! **Figure 7 — Scalability of bandwidth consumption.**
//!
//! Hops per publication as a function of the network size `n`, for
//! mapping 3 (Selective-Attribute) with unicast.
//!
//! Paper shape: logarithmic growth in `n` — the overlay's basic
//! scalability property. Publications map to 4 keys under mapping 3, so
//! hops/publication ≈ 4 × (average route length).

use cbps::{MappingKind, Primitive};

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Scale, Sweep};
use crate::table::{fmt_f, Table};

fn node_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![50, 100, 200, 400],
        Scale::Paper => vec![100, 250, 500, 1000, 2500],
        // Three decades: the paper's trend extended to the large-deployment
        // regime (the last point crosses into a widened key space).
        Scale::Large => vec![1000, 10_000, 100_000],
    }
}

/// Runs the experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Figure 7: hops per publication vs n (mapping 3, unicast)",
        &["n", "hops/pub", "hops/pub/key", "log2(n)"],
    );
    let pubs = scale.ops(1000);
    let rows = parallel_map(sweep.profile.jobs, node_counts(scale), |n| {
        let mut deployment = Deployment::new(n, 701);
        deployment.mapping = MappingKind::SelectiveAttribute;
        deployment.primitive = Primitive::Unicast;
        let cfg = paper_workload(n, 0)
            .with_counts(0, pubs)
            .with_matching_probability(0.0);
        let mut gen = workload_gen(cfg, 701);
        let trace = gen.gen_trace();
        let stats = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = deployment.build_on::<B>(sweep.profile.obs);
            sweep.run_trace(&mut net, &trace, 60)
        });
        vec![
            n.to_string(),
            fmt_f(stats.hops_per_pub),
            fmt_f(stats.hops_per_pub / stats.keys_per_pub.max(1.0)),
            fmt_f((n as f64).log2()),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}
