//! **Ablation (§4.3.1 analysis) — range propagation protocols.**
//!
//! One-hop message counts and delivery dilation when sending one message
//! to a contiguous key range, comparing:
//!
//! * `m-cast` (Figure 4): `O(log n + N)` messages, `O(log n)` dilation;
//! * aggressive per-key unicast: `Ω(hops × keys)` messages, `O(log n)`
//!   dilation;
//! * conservative successor walk: `O(log n + N)` messages, `O(log n + N)`
//!   dilation.
//!
//! This regenerates the complexity table of §4.3.1 empirically.
//!
//! The protocols are overlay-generic (they run through the shared routed
//! handlers), so the ablation honors `--overlay`: the same range sends
//! measured over the Chord substrate or the Pastry substrate.

use cbps_overlay::{build_stable, KeyRange, KeyRangeSet, OverlayConfig, OverlayServices};
use cbps_pastry::{build_pastry_stable, PastryConfig};
use cbps_sim::{NetConfig, TraceId, TrafficClass};

use crate::probe::ProbeApp;
use crate::runner::{BackendKind, Scale};
use crate::table::Table;

fn fire(svc: &mut dyn OverlayServices<u64, ()>, how: &str, targets: &KeyRangeSet, range: KeyRange) {
    match how {
        "m-cast" => svc.mcast(targets, TrafficClass::OTHER, 1, TraceId::NONE),
        "per-key unicast" => svc.ucast_keys(targets, TrafficClass::OTHER, 1, TraceId::NONE),
        "successor walk" => svc.walk(range, TrafficClass::OTHER, 1, TraceId::NONE),
        other => unreachable!("unknown protocol {other}"),
    }
}

fn send(
    n: usize,
    width: u64,
    seed: u64,
    how: &str,
) -> (
    u64, /* msgs */
    u32, /* max dilation */
    u64, /* deliveries */
) {
    let apps: Vec<ProbeApp> = (0..n).map(|_| ProbeApp::default()).collect();
    match crate::runner::backend() {
        BackendKind::Chord => {
            // Cache disabled: the table measures the raw protocols.
            let cfg = OverlayConfig::paper_default().with_cache_capacity(0);
            let (mut sim, _ring) = build_stable(NetConfig::new(seed), cfg, apps);
            let space = cfg.space;
            let range = KeyRange::new(space.key(1000), space.key(1000 + width - 1));
            let targets = KeyRangeSet::of_range(space, range);
            sim.with_node(0, |node, ctx| {
                node.app_call(ctx, |_, svc| fire(svc, how, &targets, range))
            });
            sim.run();
            let msgs = sim.metrics().messages(TrafficClass::OTHER);
            let mut max_hops = 0;
            let mut deliveries = 0;
            for (_, node) in sim.nodes() {
                max_hops = max_hops.max(node.app().max_hops);
                deliveries += node.app().deliveries;
            }
            (msgs, max_hops, deliveries)
        }
        BackendKind::Pastry => {
            let cfg = PastryConfig::paper_default();
            let (mut sim, _ring) = build_pastry_stable(NetConfig::new(seed), cfg, apps);
            let space = cfg.space;
            let range = KeyRange::new(space.key(1000), space.key(1000 + width - 1));
            let targets = KeyRangeSet::of_range(space, range);
            sim.with_node(0, |node, ctx| {
                node.app_call(ctx, |_, svc| fire(svc, how, &targets, range))
            });
            sim.run();
            let msgs = sim.metrics().messages(TrafficClass::OTHER);
            let mut max_hops = 0;
            let mut deliveries = 0;
            for (_, node) in sim.nodes() {
                max_hops = max_hops.max(node.app().max_hops);
                deliveries += node.app().deliveries;
            }
            (msgs, max_hops, deliveries)
        }
    }
}

/// Runs the ablation and returns its table.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation §4.3.1: one-to-many range send — messages / dilation / covering nodes",
        &[
            "range keys",
            "protocol",
            "messages",
            "max dilation",
            "nodes reached",
        ],
    );
    let n = match scale {
        Scale::Quick => 150,
        Scale::Paper | Scale::Large => 500,
    };
    for width in [64u64, 256, 1024, 4096] {
        for how in ["m-cast", "per-key unicast", "successor walk"] {
            let (msgs, dilation, deliveries) = send(n, width, 941, how);
            table.push_row(vec![
                width.to_string(),
                how.to_owned(),
                msgs.to_string(),
                dilation.to_string(),
                deliveries.to_string(),
            ]);
        }
    }
    table
}
