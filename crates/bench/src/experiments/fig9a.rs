//! **Figure 9(a) — Buffering and collecting notifications.**
//!
//! Notification one-hop messages per publication under different matching
//! probabilities, comparing: no optimization, buffering + collecting with
//! periods of 1×/2×/5× the mean publication period, and buffering alone.
//! Mapping 3 with unicast, as in the paper.
//!
//! Paper shape: both optimizations cut notification traffic substantially;
//! most of the benefit appears already at small buffering periods; savings
//! grow with the matching probability (more notifications to merge).
//!
//! The workload uses matching-event streaks (temporal locality, the
//! explicit premise of §4.3.2: "consecutive events exhibit temporal
//! locality") so consecutive matches hit the same subscriptions.

use cbps::{MappingKind, NotifyMode, Primitive};
use cbps_sim::SimDuration;

use crate::runner::{paper_workload, parallel_map, workload_gen, Deployment, Sweep};
use crate::table::{fmt_f, Table};

/// The notification configurations compared (label, mode).
fn modes() -> Vec<(&'static str, NotifyMode)> {
    let p = SimDuration::from_secs(5); // = mean publication period
    vec![
        ("immediate", NotifyMode::Immediate),
        ("buf+collect 1x", NotifyMode::Collecting { period: p }),
        ("buf+collect 2x", NotifyMode::Collecting { period: p * 2 }),
        ("buf+collect 5x", NotifyMode::Collecting { period: p * 5 }),
        ("buffer-only 1x", NotifyMode::Buffered { period: p }),
    ]
}

/// Runs the experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Figure 9(a): notification hops per publication vs matching probability (mapping 3, unicast)",
        &["matching p", "immediate", "buf+collect 1x", "buf+collect 2x", "buf+collect 5x", "buffer-only 1x"],
    );
    let nodes = sweep.profile.nodes();
    let subs = scale.ops(500);
    let pubs = scale.ops(2000);
    let probabilities = [0.1f64, 0.5, 0.9];
    let mut points = Vec::new();
    for p in probabilities {
        for (_, mode) in modes() {
            points.push((p, mode));
        }
    }
    let results = parallel_map(sweep.profile.jobs, points, |(p, mode)| {
        let mut deployment = Deployment::new(nodes, 901);
        deployment.mapping = MappingKind::SelectiveAttribute;
        deployment.primitive = Primitive::Unicast;
        deployment.notify = mode;
        let cfg = paper_workload(nodes, 0)
            .with_counts(subs, pubs)
            .with_matching_probability(p)
            .with_seed_streak(8);
        let mut gen = workload_gen(cfg, 901);
        let trace = gen.gen_trace();
        // Long drain: collect chains take several flush periods.
        let stats = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = deployment.build_on::<B>(sweep.profile.obs);
            sweep.run_trace(&mut net, &trace, 2_000)
        });
        (stats.delivered, stats.notify_hops_per_pub)
    });
    let mode_count = modes().len();
    for (i, p) in probabilities.into_iter().enumerate() {
        let group = &results[i * mode_count..(i + 1) * mode_count];
        // Sanity: the optimizations must not lose notifications.
        let reference = group[0].0;
        for &(delivered, _) in group {
            assert_eq!(
                delivered, reference,
                "optimization changed delivered notifications at p={p}"
            );
        }
        let mut cells = vec![format!("{p:.1}")];
        cells.extend(group.iter().map(|&(_, hops)| fmt_f(hops)));
        table.push_row(cells);
    }
    table
}
