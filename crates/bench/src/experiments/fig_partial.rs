//! **Extension — partially defined subscriptions (§4.2 claim).**
//!
//! "Selective-Attribute is the least sensitive to partially defined
//! subscriptions, i.e., subscriptions that specify constraints on only
//! some of the attributes." We quantify it: mean mapped keys per
//! subscription as the wildcard probability rises, for all three mappings.
//!
//! Expected shape: Attribute-Split must pin unconstrained `EK` dimensions
//! with full-ring images and Key Space-Split products blow up with each
//! full-range slot, while Selective-Attribute keeps following its most
//! selective *present* constraint.

use cbps::{AkMapping, EventSpace, MappingKind};
use cbps_overlay::KeySpace;

use crate::experiments::fig5::short_name;
use crate::runner::{paper_workload, workload_gen, Scale, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the computation and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Extension: mean mapped keys per subscription vs wildcard probability (§4.2)",
        &[
            "wildcard p",
            "M1 attr-split",
            "M2 keyspace-split",
            "M3 selective",
        ],
    );
    let samples = match scale {
        Scale::Quick => 400,
        Scale::Paper | Scale::Large => 3_000,
    };
    let space = EventSpace::paper_default();
    let keys = KeySpace::new(13);
    let mappings: Vec<(MappingKind, AkMapping)> = [
        MappingKind::AttributeSplit,
        MappingKind::KeySpaceSplit,
        MappingKind::SelectiveAttribute,
    ]
    .into_iter()
    .map(|k| (k, AkMapping::new(k, &space, keys)))
    .collect();
    let _ = short_name(MappingKind::AttributeSplit);

    for wildcard_p in [0.0f64, 0.25, 0.5, 0.75] {
        let mut cfg = paper_workload(1, 0).with_counts(samples, 0);
        cfg.wildcard_probability = wildcard_p;
        let mut gen = workload_gen(cfg, 971);
        let subs: Vec<_> = (0..samples).map(|_| gen.gen_subscription()).collect();
        let mut cells = vec![format!("{wildcard_p:.2}")];
        for (_, mapping) in &mappings {
            let mean =
                subs.iter().map(|s| mapping.sk(s).count()).sum::<u64>() as f64 / samples as f64;
            cells.push(fmt_f(mean));
        }
        table.push_row(cells);
    }
    table
}
