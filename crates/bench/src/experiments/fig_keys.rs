//! **In-text §5.2 — keys per subscription / publication.**
//!
//! The paper reports: publications map to one key under mappings 1 and 2
//! and four keys under mapping 3; subscriptions map to slightly over one
//! key under mapping 2; mapping 1 maps subscriptions to ≈ 10× more keys
//! than mapping 3.
//!
//! Pure mapping computation — no simulation needed.

use cbps::{AkMapping, EventSpace, MappingKind};
use cbps_overlay::KeySpace;

use crate::experiments::fig5::short_name;
use crate::runner::{paper_workload, workload_gen, Scale, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the computation: one table per selective-attribute count.
pub fn run(sweep: &Sweep) -> Vec<Table> {
    let scale = sweep.profile.scale;
    let samples = match scale {
        Scale::Quick => 500,
        Scale::Paper | Scale::Large => 5_000,
    };
    [0usize, 1]
        .into_iter()
        .map(|selective| {
            let mut table = Table::new(
                format!(
                    "§5.2 in-text: mean mapped keys per request, {selective} selective attr(s)"
                ),
                &["mapping", "keys/sub", "keys/pub"],
            );
            let space = EventSpace::paper_default();
            let keys = KeySpace::new(13);
            let cfg = paper_workload(1, selective).with_counts(samples, samples);
            let mut gen = workload_gen(cfg, 921);
            let subs: Vec<_> = (0..samples).map(|_| gen.gen_subscription()).collect();
            let events: Vec<_> = subs.iter().map(|s| gen.gen_matching_event(s)).collect();
            for kind in [
                MappingKind::AttributeSplit,
                MappingKind::KeySpaceSplit,
                MappingKind::SelectiveAttribute,
            ] {
                let mapping = AkMapping::new(kind, &space, keys);
                let sk_mean =
                    subs.iter().map(|s| mapping.sk(s).count()).sum::<u64>() as f64 / samples as f64;
                let ek_mean = events.iter().map(|e| mapping.ek(e).count()).sum::<u64>() as f64
                    / samples as f64;
                table.push_row(vec![
                    short_name(kind).to_owned(),
                    fmt_f(sk_mean),
                    fmt_f(ek_mean),
                ]);
            }
            table
        })
        .collect()
}
