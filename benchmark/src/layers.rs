//! Per-layer replays: each layer's public functions timed in isolation on
//! inputs taken from the workload's own generated trace, plus the
//! attribution model built from them (layer seconds = count in the
//! end-to-end run × isolated cost).

use std::hint::black_box;
use std::time::Instant;

use cbps::{
    AkMapping, AnyMatchEngine, Event, MatchEngine, MatchEngineKind, StoredSub, SubId, Subscription,
    SubscriptionStore,
};
use cbps_overlay::{build_stable, Delivery, Key, KeyRangeSet, OverlayApp, OverlayServices, Peer};
use cbps_sim::{
    Context, NetConfig, Node, NodeIdx, SimTime, Simulator, TimingWheel, TraceId, TrafficClass,
};
use cbps_workload::{trace_from_str, trace_to_string, OpKind, Trace};

use crate::alloc::live_bytes_of;
use crate::run::Counts;
use crate::spans::{Spans, NO_OP};
use crate::workloads::{Spec, Timed};

/// Host time each micro-measurement loops for at least.
const MIN_LOOP_SECS: f64 = 0.05;
/// Upper bound on operations replayed per overlay pass.
const MAX_OVERLAY_OPS: usize = 50_000;
/// Upper bound on the inserts of one store-replay build.
const MAX_STORE_INSERTS: usize = 200_000;
/// Events the bare-simulator and bare-wheel loops process.
const SIM_EVENTS: u64 = 2_000_000;

pub type Metric = (&'static str, f64);

/// What the end-to-end repeats hand to the replays.
pub struct Inputs<'a> {
    pub spec: &'a Spec,
    pub trace: &'a Trace,
    /// Median wall of the untraced timed section.
    pub timed_s: f64,
    /// Counts inside the timed section.
    pub timed: &'a Counts,
    pub stored_max: usize,
    /// Key arc `(predecessor, own]` of the node that stored the most.
    pub hot_arc: (Key, Key),
    pub queue_peak: usize,
}

/// Repeats `round` until [`MIN_LOOP_SECS`] of its own reported time have
/// accumulated; returns `(seconds, operations)` summed over the rounds.
fn loop_for(mut round: impl FnMut() -> (f64, u64)) -> (f64, u64) {
    let (mut secs, mut ops) = (0.0, 0u64);
    while secs < MIN_LOOP_SECS {
        let (s, n) = round();
        secs += s;
        ops += n.max(1);
    }
    (secs, ops)
}

fn ns_per(secs: f64, ops: u64) -> f64 {
    secs * 1e9 / ops.max(1) as f64
}

fn subs_of(trace: &Trace) -> Vec<(usize, &Subscription)> {
    trace
        .ops()
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Subscribe { sub, .. } => Some((op.node, sub)),
            OpKind::Publish { .. } => None,
        })
        .collect()
}

fn events_of(trace: &Trace) -> Vec<(usize, &Event)> {
    trace
        .ops()
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Publish { event } => Some((op.node, event)),
            OpKind::Subscribe { .. } => None,
        })
        .collect()
}

/// `cbps-workload`: the text round trip a CLI user pays.
fn workload_layer(inp: &Inputs<'_>, out: &mut Vec<Metric>) {
    let space = inp.spec.space();
    let start = Instant::now();
    let text = trace_to_string(&space, inp.trace);
    let back = trace_from_str(&space, &text).expect("a written trace parses back");
    out.push(("workload.roundtrip_s", start.elapsed().as_secs_f64()));
    assert_eq!(
        back.len(),
        inp.trace.len(),
        "trace round trip lost operations"
    );
}

/// An application that ignores everything: what remains is the overlay.
struct Noop;

impl OverlayApp for Noop {
    type Payload = ();
    type Timer = ();

    fn on_deliver(&mut self, _: (), _: Delivery, _: &mut dyn OverlayServices<(), ()>) {}
}

struct OverlayCosts {
    lookup_ns_per_hop: f64,
    mcast_ns_per_msg: f64,
}

/// `cbps-overlay`: a bare converged ring at the workload's node count,
/// routing the trace's `EK(e)` keys and m-casting its `SK(σ)` key sets.
fn overlay_layer(inp: &Inputs<'_>, mapping: &AkMapping, out: &mut Vec<Metric>) -> OverlayCosts {
    let n = inp.spec.nodes;
    let cfg = inp.spec.overlay_config();
    let start = Instant::now();
    let ((mut sim, _ring), bytes) =
        live_bytes_of(|| build_stable(NetConfig::new(0), cfg, (0..n).map(|_| Noop).collect()));
    let build_s = start.elapsed().as_secs_f64();
    out.push(("overlay.build_s", build_s));
    out.push(("overlay.build_us_per_node", build_s * 1e6 / n as f64));
    out.push((
        "overlay.build_kb_per_node",
        bytes as f64 / 1024.0 / n as f64,
    ));

    let space = cfg.space;
    let lookups: Vec<(usize, Key)> = events_of(inp.trace)
        .into_iter()
        .flat_map(|(node, event)| {
            let keys: Vec<Key> = mapping.ek(event).iter_keys(space).collect();
            keys.into_iter().map(move |key| (node, key))
        })
        .take(MAX_OVERLAY_OPS)
        .collect();
    let pass = |sim: &mut Simulator<_>| {
        let before = sim.metrics().total_messages();
        let start = Instant::now();
        for &(node, key) in &lookups {
            sim.with_node(node, |n: &mut cbps_overlay::ChordNode<Noop>, ctx| {
                n.app_call(ctx, |_, svc| {
                    svc.send(key, TrafficClass::OTHER, (), TraceId::NONE)
                })
            });
            sim.run();
        }
        (
            start.elapsed().as_secs_f64(),
            sim.metrics().total_messages() - before,
        )
    };
    // First pass fills the location caches, as the end-to-end run's
    // set-up and early publications do.
    pass(&mut sim);
    let (secs, hops) = pass(&mut sim);
    let lookup_ns_per_hop = ns_per(secs, hops);
    out.push(("overlay.lookup_ns_per_hop", lookup_ns_per_hop));
    out.push((
        "overlay.hops_per_lookup",
        hops as f64 / lookups.len().max(1) as f64,
    ));

    let sends: Vec<(usize, KeyRangeSet)> = subs_of(inp.trace)
        .into_iter()
        .take(MAX_OVERLAY_OPS)
        .map(|(node, sub)| (node, mapping.sk(sub)))
        .collect();
    let before = sim.metrics().total_messages();
    let start = Instant::now();
    for (node, targets) in &sends {
        sim.with_node(*node, |n, ctx| {
            n.app_call(ctx, |_, svc| {
                svc.mcast(targets, TrafficClass::OTHER, (), TraceId::NONE)
            })
        });
        sim.run();
    }
    let secs = start.elapsed().as_secs_f64();
    let msgs = sim.metrics().total_messages() - before;
    let mcast_ns_per_msg = ns_per(secs, msgs);
    out.push(("overlay.mcast_ns_per_msg", mcast_ns_per_msg));
    out.push((
        "overlay.mcast_msgs_per_send",
        msgs as f64 / sends.len().max(1) as f64,
    ));
    OverlayCosts {
        lookup_ns_per_hop,
        mcast_ns_per_msg,
    }
}

/// A node that forwards a hop budget to a fixed peer and does nothing else.
struct Relay {
    next: NodeIdx,
}

impl Node for Relay {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, _from: NodeIdx, left: u32, ctx: &mut Context<'_, u32, ()>) {
        if left > 0 {
            ctx.send(self.next, TrafficClass::OTHER, left - 1);
        }
    }

    fn on_timer(&mut self, (): (), _ctx: &mut Context<'_, u32, ()>) {}
}

/// `cbps-sim`: scheduler, event pool and dispatch with nothing on top, at
/// the workload's node count and the queue depth the run measured; then
/// the timing wheel alone.
fn sim_layer(inp: &Inputs<'_>, out: &mut Vec<Metric>) -> f64 {
    let n = inp.spec.nodes;
    let depth = inp.queue_peak.max(1);
    let mut sim: Simulator<Relay> = Simulator::new(NetConfig::new(0));
    for i in 0..n {
        // A fixed odd stride scatters consecutive hops over the node array.
        sim.add_node(Relay {
            next: (i * 7919 + 13) % n,
        });
    }
    let hops = (SIM_EVENTS / depth as u64).max(1) as u32;
    for chain in 0..depth {
        sim.inject_at(SimTime::ZERO, chain % n, hops);
    }
    let start = Instant::now();
    sim.run();
    let ns_per_event = ns_per(start.elapsed().as_secs_f64(), sim.events_processed());
    out.push(("sim.ns_per_event", ns_per_event));

    let mut wheel: TimingWheel<()> = TimingWheel::new();
    let hop_micros = 50_000u128;
    let mut seq = 0u128;
    for i in 0..depth as u128 {
        wheel.push(((i * hop_micros / depth as u128) << 64) | seq, ());
        seq += 1;
    }
    let start = Instant::now();
    for _ in 0..SIM_EVENTS {
        let (key, ()) = wheel.pop().expect("the wheel holds `depth` entries");
        wheel.push((((key >> 64) + hop_micros) << 64) | seq, ());
        seq += 1;
    }
    black_box(&wheel);
    out.push((
        "sim.wheel_ns_per_pushpop",
        ns_per(start.elapsed().as_secs_f64(), SIM_EVENTS),
    ));
    ns_per_event
}

struct MappingCosts {
    sk_ns: f64,
    ek_ns: f64,
}

/// `core.mapping`: `SK(σ)` and `EK(e)` on the trace's own operations.
fn mapping_layer(inp: &Inputs<'_>, mapping: &AkMapping, out: &mut Vec<Metric>) -> MappingCosts {
    let subs = subs_of(inp.trace);
    let events = events_of(inp.trace);
    let mut sub_keys = 0u64;
    let (secs, calls) = loop_for(|| {
        let start = Instant::now();
        sub_keys = subs
            .iter()
            .map(|(_, s)| black_box(mapping.sk(s)).count())
            .sum();
        (start.elapsed().as_secs_f64(), subs.len() as u64)
    });
    let sk_ns = ns_per(secs, calls);
    let mut pub_keys = 0u64;
    let (secs, calls) = loop_for(|| {
        let start = Instant::now();
        pub_keys = events
            .iter()
            .map(|(_, e)| black_box(mapping.ek(e)).count())
            .sum();
        (start.elapsed().as_secs_f64(), events.len() as u64)
    });
    let ek_ns = ns_per(secs, calls);
    out.push(("mapping.sk_ns", sk_ns));
    out.push(("mapping.ek_ns", ek_ns));
    out.push((
        "mapping.keys_per_sub",
        sub_keys as f64 / subs.len().max(1) as f64,
    ));
    out.push((
        "mapping.keys_per_pub",
        pub_keys as f64 / events.len().max(1) as f64,
    ));
    MappingCosts { sk_ns, ek_ns }
}

struct StoreCosts {
    insert_ns: f64,
    match_ns: f64,
}

/// `core.store`: standalone stores holding what the hottest node of the
/// end-to-end run held — the first `stored_max` subscriptions of the trace
/// whose `SK(σ)` reaches into that node's key arc. (Subscriptions that
/// share a rendezvous node overlap in the attribute that placed them
/// there, which is what the covering probe and the index buckets feel.)
///
/// The run spreads its inserts and matches over every node's store, so
/// each one finds its store cold; a single store replayed in a loop stays
/// in cache and costs a fifth as much per insert. The replay therefore
/// keeps one copy of the population per node (up to [`MAX_STORE_INSERTS`]
/// in all) and visits the copies round-robin. `store.insert_ns_warm` is
/// the single-store figure, for the algorithmic cost alone.
fn store_layer(inp: &Inputs<'_>, mapping: &AkMapping, out: &mut Vec<Metric>) -> StoreCosts {
    let space = inp.spec.space();
    let keys = mapping.key_space();
    let now = SimTime::from_secs(1);
    // Far enough ahead that nothing lapses while matching at `now`.
    let expiry_base = 1_000_000;
    let (arc_start, arc_end) = inp.hot_arc;
    let population: Vec<(SubId, StoredSub)> = subs_of(inp.trace)
        .into_iter()
        .map(|(node, sub)| (node, sub, mapping.sk(sub)))
        .filter(|(_, _, sk)| !sk.extract_arc_oc(keys, arc_start, arc_end).is_empty())
        .take(inp.stored_max.max(1))
        .enumerate()
        .map(|(i, (node, sub, sk))| {
            let stored = StoredSub {
                sub: sub.clone(),
                subscriber: Peer {
                    idx: node,
                    key: keys.key(0),
                },
                expires: SimTime::from_secs(expiry_base + i as u64),
                sk,
                trace: TraceId::NONE,
                subgroups: 0,
            };
            (SubId(i as u64), stored)
        })
        .collect();
    let events: Vec<&Event> = events_of(inp.trace).into_iter().map(|(_, e)| e).collect();
    let copies = (MAX_STORE_INSERTS / population.len()).clamp(1, inp.spec.nodes);

    // Builds `copies` stores, inserting subscription by subscription
    // across all of them; returns the stores and the seconds spent
    // inserting.
    let build = |copies: usize, covering: bool| {
        let mut stores: Vec<SubscriptionStore> = (0..copies)
            .map(|_| SubscriptionStore::with_options(&space, MatchEngineKind::Counting, covering))
            .collect();
        let mut secs = 0.0;
        for (id, stored) in &population {
            let items: Vec<StoredSub> = vec![stored.clone(); copies];
            let start = Instant::now();
            for (store, item) in stores.iter_mut().zip(items) {
                store.insert(*id, item, now);
            }
            secs += start.elapsed().as_secs_f64();
        }
        (stores, secs)
    };
    let inserts = (copies * population.len()) as u64;

    let (secs, n) = loop_for(|| {
        let (stores, secs) = build(1, true);
        (secs, black_box(stores)[0].len() as u64)
    });
    out.push(("store.insert_ns_warm", ns_per(secs, n)));
    let (_, secs) = build(copies, false);
    out.push(("store.insert_ns_nocover", ns_per(secs, inserts)));
    let ((mut stores, secs), bytes) = live_bytes_of(|| build(copies, true));
    let insert_ns = ns_per(secs, inserts);
    out.push(("store.insert_ns", insert_ns));
    let (len, physical) = (stores[0].len(), stores[0].physical_len());
    out.push(("store.physical_ratio", physical as f64 / len as f64));
    out.push(("store.kb_per_sub", bytes as f64 / 1024.0 / inserts as f64));

    // Each publication is matched at a different copy, as consecutive
    // publications of the run land on different nodes.
    let mut hits = 0u64;
    let mut matched = Vec::new();
    let mut next_copy = 0;
    let (secs, calls) = loop_for(|| {
        hits = 0;
        let start = Instant::now();
        for event in &events {
            stores[next_copy].match_event_into(event, now, &mut matched);
            hits += matched.len() as u64;
            next_copy = (next_copy + 1) % copies;
        }
        (start.elapsed().as_secs_f64(), events.len() as u64)
    });
    let match_ns = ns_per(secs, calls);
    out.push(("store.match_ns", match_ns));
    out.push((
        "store.hits_per_match",
        hits as f64 / events.len().max(1) as f64,
    ));

    // The first half of the population is withdrawn, the rest lapses.
    let (withdrawn, lapsing) = population.split_at(population.len() / 2);
    let start = Instant::now();
    let mut removed = 0u64;
    for (id, _) in withdrawn {
        for store in &mut stores {
            removed += u64::from(store.remove(*id).is_some());
        }
    }
    out.push((
        "store.remove_ns",
        ns_per(start.elapsed().as_secs_f64(), removed),
    ));
    let after_all = SimTime::from_secs(expiry_base + population.len() as u64);
    let start = Instant::now();
    let purged: usize = stores.iter_mut().map(|s| s.purge_expired(after_all)).sum();
    out.push((
        "store.purge_ns_per_expired",
        ns_per(start.elapsed().as_secs_f64(), purged as u64),
    ));
    assert_eq!(
        purged,
        lapsing.len() * copies,
        "every remaining subscription lapses"
    );

    engine_layer(&population, &events, &space, out);
    StoreCosts {
        insert_ns,
        match_ns,
    }
}

/// `core.engine`: both matching engines on the same population, without
/// the store's covering table and bookkeeping on top.
fn engine_layer(
    population: &[(SubId, StoredSub)],
    events: &[&Event],
    space: &cbps::EventSpace,
    out: &mut Vec<Metric>,
) {
    for (kind, insert_name, match_name) in [
        (
            MatchEngineKind::Counting,
            "engine.counting.insert_ns",
            "engine.counting.match_ns",
        ),
        (
            MatchEngineKind::Sorted,
            "engine.sorted.insert_ns",
            "engine.sorted.match_ns",
        ),
    ] {
        let mut engine = AnyMatchEngine::new(kind, space);
        let (secs, inserts) = loop_for(|| {
            let subs: Vec<(SubId, Subscription)> = population
                .iter()
                .map(|(id, s)| (*id, s.sub.clone()))
                .collect();
            engine = AnyMatchEngine::new(kind, space);
            let start = Instant::now();
            for (id, sub) in subs {
                engine.insert(id, sub);
            }
            (start.elapsed().as_secs_f64(), engine.len() as u64)
        });
        out.push((insert_name, ns_per(secs, inserts)));
        let mut ids = Vec::new();
        let (secs, calls) = loop_for(|| {
            let start = Instant::now();
            for event in events {
                engine.matches_into(event, &mut ids);
                black_box(ids.len());
            }
            (start.elapsed().as_secs_f64(), events.len() as u64)
        });
        out.push((match_name, ns_per(secs, calls)));
    }
}

/// Runs every replay and the attribution model; returns the per-layer
/// metrics they produce (the run's own counts are added by the caller).
pub fn measure(inp: &Inputs<'_>, spans: &mut Spans) -> Vec<Metric> {
    let mut out = Vec::new();
    let mapping = inp.spec.pubsub_config().mapping;
    spans.scope("layer.workload", NO_OP, || workload_layer(inp, &mut out));
    let overlay = spans.scope("layer.overlay", NO_OP, || {
        overlay_layer(inp, &mapping, &mut out)
    });
    let sim_ns = spans.scope("layer.sim", NO_OP, || sim_layer(inp, &mut out));
    let map = spans.scope("layer.mapping", NO_OP, || {
        mapping_layer(inp, &mapping, &mut out)
    });
    let store = spans.scope("layer.store", NO_OP, || {
        store_layer(inp, &mapping, &mut out)
    });

    // Layer seconds = count inside the timed section × isolated cost. An
    // overlay message is also a simulator event, so the overlay's share is
    // what a message costs beyond a bare event.
    let t = inp.timed;
    let (subs, pubs) = match inp.spec.timed {
        Timed::SubPhase => (inp.spec.subs, 0),
        Timed::PubPhase => (0, inp.spec.pubs),
        Timed::Replay => (inp.spec.subs, inp.spec.pubs),
    };
    let wall_ns = inp.timed_s * 1e9;
    let sim_share = t.events as f64 * sim_ns / wall_ns;
    let overlay_share = (t.msgs_sub as f64 * (overlay.mcast_ns_per_msg - sim_ns).max(0.0)
        + (t.msgs_pub + t.msgs_notify) as f64 * (overlay.lookup_ns_per_hop - sim_ns).max(0.0))
        / wall_ns;
    let mapping_share = (subs as f64 * map.sk_ns + pubs as f64 * map.ek_ns) / wall_ns;
    let store_insert_share = t.store_inserts as f64 * store.insert_ns / wall_ns;
    let store_match_share = t.match_calls as f64 * store.match_ns / wall_ns;
    let explained =
        sim_share + overlay_share + mapping_share + store_insert_share + store_match_share;
    out.extend([
        ("attribution.sim_share", sim_share),
        ("attribution.overlay_share", overlay_share),
        ("attribution.mapping_share", mapping_share),
        ("attribution.store_insert_share", store_insert_share),
        ("attribution.store_match_share", store_match_share),
        ("attribution.residual_share", 1.0 - explained),
    ]);
    out
}
