//! **Extension — hotspot accommodation via nearly-static mappings.**
//!
//! §4.2 proposes fighting mapping-level hotspots "by providing nearly
//! static EK- and SK-mappings in which infrequent changes may slightly
//! alter the initially defined functions". We implement that as
//! per-dimension circular key rotations and measure their effect: under a
//! Zipf-skewed selective workload (mapping 3), the hottest node's load
//! and its position for several rotation epochs.
//!
//! Expected shape: each epoch relocates the hotspot to a different node
//! (spreading wear across epochs) while the load *distribution* — and
//! delivery semantics — stay intact.

use cbps::{MappingKind, OverlayBackend};
use cbps_sim::NetConfig;

use crate::runner::{paper_workload, workload_gen, Scale, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the experiment and returns its epoch-rotation table.
pub fn run(sweep: &Sweep) -> Table {
    let mut table = Table::new(
        "Extension: hotspot relocation by nearly-static mapping rotation (mapping 3, 1 selective attr)",
        &["rotation epoch", "hottest node", "max stored", "avg stored", "p99-ish skew (max/avg)"],
    );
    let nodes = sweep.profile.nodes();
    let subs = match sweep.profile.scale {
        Scale::Quick => 3_000,
        Scale::Paper | Scale::Large => 10_000,
    };
    let keys = cbps::deployment_key_space(nodes);
    // The selective attribute is dimension 0; rotate its keys a quarter
    // ring further each epoch (2048 keys on the paper's 2^13 ring).
    for epoch in 0u64..4 {
        let rotation = epoch * (keys.size() / 4);
        let pubsub = cbps::PubSubConfig::paper_default()
            .with_mapping(MappingKind::SelectiveAttribute)
            .with_key_space(keys)
            .with_rotations(vec![rotation, 0, 0, 0]);
        let cfg = paper_workload(nodes, 1).with_counts(subs, 0);
        let mut gen = workload_gen(cfg, 961);
        let trace = gen.gen_trace();
        let (stats, hottest) = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = cbps::PubSubNetworkBuilder::<B>::new()
                .nodes(nodes)
                .net_config(NetConfig::new(961))
                .overlay(B::with_key_space(B::paper_default(), keys))
                .pubsub(pubsub)
                .observability(sweep.profile.obs)
                .build()
                .expect("hotspot deployment config is valid");
            let stats = sweep.run_trace(&mut net, &trace, 60);
            let peaks = net.peak_stored_counts();
            let hottest = peaks
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0);
            (stats, hottest)
        });
        table.push_row(vec![
            format!("{epoch} (+{rotation} keys)"),
            hottest.to_string(),
            stats.max_stored.to_string(),
            fmt_f(stats.avg_stored),
            fmt_f(stats.max_stored as f64 / stats.avg_stored.max(1e-9)),
        ]);
    }
    table
}
