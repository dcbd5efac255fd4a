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

use cbps::Primitive;
use cbps_overlay::{
    build_stable, ChordNode, KeyRange, KeyRangeSet, KeySpace, OverlayConfig, OverlayServices,
};
use cbps_pastry::{build_pastry_stable, PastryConfig, PastryNode};
use cbps_sim::{NetConfig, Node, Simulator, TraceId, TrafficClass};

use crate::probe::ProbeApp;
use crate::runner::{BackendKind, Scale, Sweep};
use crate::table::Table;

/// The protocols compared, with their row labels.
const PROTOCOLS: [(Primitive, &str); 3] = [
    (Primitive::MCast, "m-cast"),
    (Primitive::Unicast, "per-key unicast"),
    (Primitive::Walk, "successor walk"),
];

/// Sends one message through `svc` to the `width` keys from key 1000 on,
/// by protocol `how`.
fn fire(svc: &mut dyn OverlayServices<u64, ()>, how: Primitive, space: KeySpace, width: u64) {
    let range = KeyRange::new(space.key(1000), space.key(1000 + width - 1));
    let targets = KeyRangeSet::of_range(space, range);
    match how {
        Primitive::MCast => svc.mcast(&targets, TrafficClass::OTHER, 1, TraceId::NONE),
        Primitive::Unicast => svc.ucast_keys(&targets, TrafficClass::OTHER, 1, TraceId::NONE),
        Primitive::Walk => svc.walk(range, TrafficClass::OTHER, 1, TraceId::NONE),
    }
}

/// `(messages, max dilation, deliveries)` of one range send from node 0.
fn send(overlay: BackendKind, n: usize, width: u64, seed: u64, how: Primitive) -> (u64, u32, u64) {
    let apps: Vec<ProbeApp> = (0..n).map(|_| ProbeApp::default()).collect();
    match overlay {
        BackendKind::Chord => {
            // Cache disabled: the table measures the raw protocols.
            let cfg = OverlayConfig::paper_default().with_cache_capacity(0);
            let (mut sim, _ring) = build_stable(NetConfig::new(seed), cfg, apps);
            sim.with_node(0, |node, ctx| {
                node.app_call(ctx, |_, svc| fire(svc, how, cfg.space, width))
            });
            count(sim, ChordNode::app)
        }
        BackendKind::Pastry => {
            let cfg = PastryConfig::paper_default();
            let (mut sim, _ring) = build_pastry_stable(NetConfig::new(seed), cfg, apps);
            sim.with_node(0, |node, ctx| {
                node.app_call(ctx, |_, svc| fire(svc, how, cfg.space, width))
            });
            count(sim, PastryNode::app)
        }
    }
}

/// Runs a fired send to quiescence and counts it on either substrate;
/// `app` reaches a node's probe application.
fn count<N: Node>(mut sim: Simulator<N>, app: fn(&N) -> &ProbeApp) -> (u64, u32, u64) {
    sim.run();
    let msgs = sim.metrics().messages(TrafficClass::OTHER);
    let mut max_hops = 0;
    let mut deliveries = 0;
    for (_, node) in sim.nodes() {
        max_hops = max_hops.max(app(node).max_hops);
        deliveries += app(node).deliveries;
    }
    (msgs, max_hops, deliveries)
}

/// Runs the ablation and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
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
        for (how, label) in PROTOCOLS {
            let (msgs, dilation, deliveries) = send(sweep.profile.overlay, n, width, 941, how);
            table.push_row(vec![
                width.to_string(),
                label.to_owned(),
                msgs.to_string(),
                dilation.to_string(),
                deliveries.to_string(),
            ]);
        }
    }
    table
}
