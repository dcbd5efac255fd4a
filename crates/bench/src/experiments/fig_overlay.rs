//! **Extension — overlay portability (§3.1 footnote 1).**
//!
//! The same pub/sub configuration and workload over the Chord substrate
//! and over the Pastry substrate: logical deliveries must be identical;
//! message counts differ only by the overlays' routing structure. Both
//! runs go through the one generic [`PubSubNetwork`]; the substrate is
//! just a type parameter.
//!
//! [`PubSubNetwork`]: cbps::PubSubNetwork

use cbps::{ChordBackend, MappingKind, OverlayBackend};
use cbps_pastry::PastryBackend;
use cbps_sim::{Counter, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

use crate::runner::{Deployment, Scale, Sweep};
use crate::table::{fmt_f, Table};

struct Outcome {
    hops_per_sub: f64,
    hops_per_pub: f64,
    hops_per_notify: f64,
    delivered: u64,
}

fn run_on<B: OverlayBackend>(sweep: &Sweep, kind: MappingKind, seed: u64) -> Outcome {
    let scale = sweep.profile.scale;
    let nodes = match scale {
        Scale::Quick => 100,
        Scale::Paper | Scale::Large => 500,
    };
    let subs = scale.ops(400);
    let pubs = scale.ops(800);
    let wl = WorkloadConfig::paper_default(nodes, 4)
        .with_counts(subs, pubs)
        .with_matching_probability(0.7);

    // The paper defaults: m-cast, immediate notification.
    let deployment = Deployment {
        mapping: kind,
        ..Deployment::new(nodes, seed)
    };
    let mut net = deployment.build_on::<B>(sweep.profile.obs);
    let space = cbps::EventSpace::paper_default();
    let mut gen = WorkloadGen::new(space, wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    net.run_until(trace.end_time() + SimDuration::from_secs(300));
    sweep.totals().record_obs(&mut net);
    let metrics = net.metrics();
    Outcome {
        hops_per_sub: metrics.messages(TrafficClass::SUBSCRIPTION) as f64 / subs as f64,
        hops_per_pub: metrics.messages(TrafficClass::PUBLICATION) as f64 / pubs as f64,
        hops_per_notify: metrics.messages(TrafficClass::NOTIFICATION) as f64
            / metrics.count(Counter::Matches).max(1) as f64,
        delivered: metrics.count(Counter::NotificationsDelivered),
    }
}

/// Runs the comparison and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let mut table = Table::new(
        "Extension: the same pub/sub layer over Chord vs Pastry (m-cast)",
        &[
            "mapping",
            "overlay",
            "hops/sub",
            "hops/pub",
            "hops/notify",
            "delivered",
        ],
    );
    for kind in [MappingKind::KeySpaceSplit, MappingKind::SelectiveAttribute] {
        let mut delivered = Vec::new();
        for (overlay, outcome) in [
            (ChordBackend::NAME, run_on::<ChordBackend>(sweep, kind, 991)),
            (
                PastryBackend::NAME,
                run_on::<PastryBackend>(sweep, kind, 991),
            ),
        ] {
            delivered.push(outcome.delivered);
            table.push_row(vec![
                crate::experiments::fig5::short_name(kind).to_owned(),
                overlay.to_owned(),
                fmt_f(outcome.hops_per_sub),
                fmt_f(outcome.hops_per_pub),
                fmt_f(outcome.hops_per_notify),
                outcome.delivered.to_string(),
            ]);
        }
        assert_eq!(
            delivered[0], delivered[1],
            "overlays delivered different notification counts for {kind}"
        );
    }
    table
}
