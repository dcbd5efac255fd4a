//! Shared experiment plumbing: scales, network construction, trace replay,
//! metric extraction, and the multi-core sweep runner.
//!
//! Each simulation is single-threaded and deterministic; independent
//! (seed, sweep-point) runs are farmed out to a scoped worker pool sized
//! by [`set_jobs`]. Results come back in input order, so a sweep produces
//! byte-identical tables at any job count.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use cbps::{
    ChordBackend, MappingKind, NotifyMode, OverlayBackend, Primitive, PubSubConfig, PubSubNetwork,
    PubSubNetworkBuilder,
};
use cbps_sim::{NetConfig, ObsMode, Observability, SimDuration, TrafficClass};
use cbps_workload::{Trace, WorkloadConfig, WorkloadGen};

/// Worker count for [`parallel_map`]; 1 = fully serial.
static JOBS: AtomicUsize = AtomicUsize::new(1);
/// Simulator events processed across all runs since the last reset.
static EVENTS_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Maximum event-queue depth seen by any run since the last reset.
static QUEUE_PEAK_MAX: AtomicU64 = AtomicU64::new(0);
/// Observability mode applied to every [`Deployment::build`] network
/// (discriminant of [`ObsMode`]; 0 = off).
static OBS_MODE: AtomicU8 = AtomicU8::new(0);
/// Merged observability registries of every run since the last reset.
/// Worker threads fold their run's registry in under this lock; the merge
/// is commutative, so the result is job-count independent.
static OBS_TOTAL: Mutex<Option<Observability>> = Mutex::new(None);
/// Per-node peak stored-subscription counts, folded element-wise-max over
/// every observed run since the last reset (max is commutative, so the
/// result is job-count independent).
static HOT_NODES: Mutex<Vec<u64>> = Mutex::new(Vec::new());
/// Overlay substrate every deployment-style experiment runs on
/// (0 = Chord, 1 = Pastry).
static BACKEND: AtomicU8 = AtomicU8::new(0);
/// Per-node cumulative rendezvous work (publications processed + matches
/// produced), folded element-wise-max over every observed run since the
/// last reset.
static NODE_WORK: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// The overlay substrates the experiment harness can deploy on.
///
/// Experiments are written once against the generic
/// [`PubSubNetwork<B>`] façade; this runtime tag (set from
/// `--overlay`) picks which monomorphization a run uses — see
/// [`crate::with_backend!`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Chord finger-table routing (the paper's substrate; supports churn).
    Chord,
    /// Pastry prefix routing (static converged membership).
    Pastry,
}

impl BackendKind {
    /// The backend's name as used on the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Chord => ChordBackend::NAME,
            BackendKind::Pastry => cbps_pastry::PastryBackend::NAME,
        }
    }

    /// Parses a CLI backend name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "chord" => Some(BackendKind::Chord),
            "pastry" => Some(BackendKind::Pastry),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sets the overlay substrate every subsequent experiment deploys on.
pub fn set_backend(kind: BackendKind) {
    BACKEND.store(
        match kind {
            BackendKind::Chord => 0,
            BackendKind::Pastry => 1,
        },
        Ordering::Relaxed,
    );
}

/// The overlay substrate experiments deploy on.
pub fn backend() -> BackendKind {
    match BACKEND.load(Ordering::Relaxed) {
        0 => BackendKind::Chord,
        _ => BackendKind::Pastry,
    }
}

/// Dispatches a generic experiment body over the globally selected
/// overlay backend: `with_backend!(B => run_on::<B>(scale))` expands to a
/// match on [`runner::backend`](backend) binding the type alias `B` to
/// [`cbps::ChordBackend`] or [`cbps_pastry::PastryBackend`].
#[macro_export]
macro_rules! with_backend {
    ($B:ident => $body:expr) => {
        match $crate::runner::backend() {
            $crate::runner::BackendKind::Chord => {
                type $B = ::cbps::ChordBackend;
                $body
            }
            $crate::runner::BackendKind::Pastry => {
                type $B = ::cbps_pastry::PastryBackend;
                $body
            }
        }
    };
}

/// Sets the worker-pool size used by [`parallel_map`] (clamped to >= 1).
/// The same count drives the overlay builders' construction workers, so
/// `--jobs N` parallelizes both sweep points and network build.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
    cbps_overlay::set_build_jobs(n.max(1));
}

/// The current worker-pool size.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// Sets the observability mode every subsequently built deployment runs
/// under (and every [`run_trace`] accumulates from).
pub fn set_observability(mode: ObsMode) {
    OBS_MODE.store(
        match mode {
            ObsMode::Off => 0,
            ObsMode::Stages => 1,
            _ => 2,
        },
        Ordering::Relaxed,
    );
}

/// The observability mode applied to built deployments.
pub fn observability() -> ObsMode {
    match OBS_MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Stages,
        _ => ObsMode::Full,
    }
}

/// Folds one finished run into the global perf accumulators.
pub fn record_perf(events: u64, queue_peak: usize) {
    EVENTS_TOTAL.fetch_add(events, Ordering::Relaxed);
    QUEUE_PEAK_MAX.fetch_max(queue_peak as u64, Ordering::Relaxed);
}

/// Folds one finished run's observability registry into the global
/// accumulator (a no-op when the run recorded nothing).
pub fn record_obs<B: OverlayBackend>(net: &mut PubSubNetwork<B>) {
    if !net.observability().enabled() {
        return;
    }
    let peaks = net.peak_stored_counts();
    {
        let mut hot = HOT_NODES.lock().expect("hot-node accumulator poisoned");
        if hot.len() < peaks.len() {
            hot.resize(peaks.len(), 0);
        }
        for (slot, &peak) in hot.iter_mut().zip(&peaks) {
            *slot = (*slot).max(peak as u64);
        }
    }
    let works = net.rendezvous_work_counts();
    {
        let mut acc = NODE_WORK.lock().expect("node-work accumulator poisoned");
        if acc.len() < works.len() {
            acc.resize(works.len(), 0);
        }
        for (slot, &w) in acc.iter_mut().zip(&works) {
            *slot = (*slot).max(w);
        }
    }
    let run_obs = std::mem::take(net.metrics_mut().obs_mut());
    let mut total = OBS_TOTAL.lock().expect("obs accumulator poisoned");
    match total.as_mut() {
        Some(acc) => acc.merge(&run_obs),
        None => *total = Some(run_obs),
    }
}

/// Clears the perf accumulators (call before a measured batch).
pub fn reset_perf() {
    EVENTS_TOTAL.store(0, Ordering::Relaxed);
    QUEUE_PEAK_MAX.store(0, Ordering::Relaxed);
    *OBS_TOTAL.lock().expect("obs accumulator poisoned") = None;
    HOT_NODES
        .lock()
        .expect("hot-node accumulator poisoned")
        .clear();
    NODE_WORK
        .lock()
        .expect("node-work accumulator poisoned")
        .clear();
}

/// Takes the merged observability registry accumulated since the last
/// [`reset_perf`] (leaving it empty).
pub fn take_obs() -> Option<Observability> {
    OBS_TOTAL.lock().expect("obs accumulator poisoned").take()
}

/// Takes the per-node peak stored-subscription counts accumulated by
/// [`record_obs`] since the last [`reset_perf`] (leaving them empty).
pub fn take_hot_nodes() -> Vec<u64> {
    std::mem::take(&mut *HOT_NODES.lock().expect("hot-node accumulator poisoned"))
}

/// Takes the per-node rendezvous-work counts accumulated by [`record_obs`]
/// since the last [`reset_perf`] (leaving them empty).
pub fn take_node_work() -> Vec<u64> {
    std::mem::take(&mut *NODE_WORK.lock().expect("node-work accumulator poisoned"))
}

/// `(events processed, max queue depth)` accumulated since the last
/// [`reset_perf`].
pub fn perf_totals() -> (u64, u64) {
    (
        EVENTS_TOTAL.load(Ordering::Relaxed),
        QUEUE_PEAK_MAX.load(Ordering::Relaxed),
    )
}

/// Maps `f` over `items` on the worker pool, preserving input order.
///
/// With `jobs() == 1` (the default) this is a plain serial map — no
/// threads are spawned and no ordering question arises. With more
/// workers, items are pulled from a shared queue, so long and short
/// sweep points load-balance; the result vector is still indexed by the
/// input position. `f` must not depend on cross-item state.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let work = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = work.lock().expect("work queue poisoned").next();
                let Some((i, item)) = next else { break };
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Node-count override applied on top of the scale default (0 = none).
/// Set from `--nodes N`; capped at 10^6.
static NODES_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The hard ceiling for `--nodes` (the ROADMAP's million-node target).
pub const MAX_NODES: usize = 1_000_000;

/// Overrides the node count every scale resolves to (0 clears the
/// override; values are capped at [`MAX_NODES`]).
pub fn set_nodes_override(n: usize) {
    NODES_OVERRIDE.store(n.min(MAX_NODES), Ordering::Relaxed);
}

/// The current node-count override (0 = none).
pub fn nodes_override() -> usize {
    NODES_OVERRIDE.load(Ordering::Relaxed)
}

/// Experiment scale: full paper parameters, a fast CI-friendly shrink, or
/// the large-deployment stress setting.
///
/// Quick scale preserves every *shape* (who wins, crossovers) while keeping
/// the whole figure suite in the minutes range. Large scale keeps the
/// paper's per-node workload intensity but deploys 10^5 nodes (override
/// with `--nodes` up to 10^6) on a ring widened by
/// [`cbps::deployment_key_space`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk node counts and operation counts.
    Quick,
    /// The paper's §5.1 parameters.
    Paper,
    /// 10^5 nodes (plus `--nodes` override), paper operation counts.
    Large,
}

impl Scale {
    /// Default node count (paper: 500), after the `--nodes` override.
    pub fn nodes(self) -> usize {
        let n = nodes_override();
        if n > 0 {
            return n;
        }
        match self {
            Scale::Quick => 150,
            Scale::Paper => 500,
            Scale::Large => 100_000,
        }
    }

    /// Scales an operation count.
    pub fn ops(self, paper: usize) -> usize {
        match self {
            Scale::Quick => (paper / 5).max(50),
            Scale::Paper | Scale::Large => paper,
        }
    }

    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The scale's name as used on the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }
}

/// One experiment deployment descriptor.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Node count.
    pub nodes: usize,
    /// RNG seed (network + workload derive from it).
    pub seed: u64,
    /// Mapping under test.
    pub mapping: MappingKind,
    /// Propagation primitive under test.
    pub primitive: Primitive,
    /// Notification mode under test.
    pub notify: NotifyMode,
    /// Discretization interval width (1 = off).
    pub discretization: u64,
}

impl Deployment {
    /// A deployment with the paper's defaults.
    pub fn new(nodes: usize, seed: u64) -> Self {
        Deployment {
            nodes,
            seed,
            mapping: MappingKind::KeySpaceSplit,
            primitive: Primitive::MCast,
            notify: NotifyMode::Immediate,
            discretization: 1,
        }
    }

    /// Builds the network on the Chord substrate (under the sweep-wide
    /// observability mode, see [`set_observability`]).
    pub fn build(&self) -> PubSubNetwork {
        self.build_on::<ChordBackend>()
    }

    /// Builds the network on substrate `B` with its paper-default overlay
    /// parameters. Workload, seeds and pub/sub configuration are
    /// substrate-independent, so the same deployment descriptor drives
    /// every backend. Node counts beyond the paper's 2^13 ring get a wider
    /// key space via [`cbps::deployment_key_space`] (a no-op for every
    /// paper/quick deployment, so recorded baselines are unchanged).
    pub fn build_on<B: OverlayBackend>(&self) -> PubSubNetwork<B> {
        let keys = cbps::deployment_key_space(self.nodes);
        let pubsub = PubSubConfig::paper_default()
            .with_mapping(self.mapping)
            .with_primitive(self.primitive)
            .with_notify_mode(self.notify)
            .with_discretization(self.discretization)
            .with_key_space(keys);
        PubSubNetworkBuilder::<B>::new()
            .nodes(self.nodes)
            .net_config(NetConfig::new(self.seed))
            .overlay(B::with_key_space(B::paper_default(), keys))
            .pubsub(pubsub)
            .observability(observability())
            .build()
            .expect("experiment deployments use validated paper parameters")
    }
}

/// Metrics distilled from one run, normalized per request.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// One-hop messages per subscription request.
    pub hops_per_sub: f64,
    /// One-hop messages per publication request.
    pub hops_per_pub: f64,
    /// Notification + collect one-hop messages per generated match.
    pub hops_per_notification: f64,
    /// Notification + collect one-hop messages per publication request.
    pub notify_hops_per_pub: f64,
    /// Mean rendezvous keys per subscription.
    pub keys_per_sub: f64,
    /// Mean rendezvous keys per publication.
    pub keys_per_pub: f64,
    /// Max over nodes of the peak stored-subscription count.
    pub max_stored: u64,
    /// Mean over nodes of the peak stored-subscription count.
    pub avg_stored: f64,
    /// Matches generated at rendezvous nodes.
    pub matches: u64,
    /// Logically delivered notifications.
    pub delivered: u64,
}

/// Replays a trace and distills the run's statistics. The network runs
/// `drain_secs` past the last operation so in-flight messages and buffers
/// settle.
pub fn run_trace<B: OverlayBackend>(
    net: &mut PubSubNetwork<B>,
    trace: &Trace,
    drain_secs: u64,
) -> RunStats {
    net.reserve_workload(trace.sub_count());
    let outcome = trace.replay(net);
    let _ = outcome;
    net.run_until(trace.end_time() + SimDuration::from_secs(drain_secs));
    let sim = net.sim_mut();
    record_perf(sim.events_processed(), sim.queue_peak());
    record_obs(net);
    distill(net, trace.sub_count() as u64, trace.pub_count() as u64)
}

/// Extracts normalized statistics from a finished network.
pub fn distill<B: OverlayBackend>(net: &PubSubNetwork<B>, subs: u64, pubs: u64) -> RunStats {
    let m = net.metrics();
    let matches = m.counter("matches");
    let notify_msgs = m.messages(TrafficClass::NOTIFICATION) + m.messages(TrafficClass::COLLECT);
    let peaks = net.peak_stored_counts();
    let max_stored = peaks.iter().copied().max().unwrap_or(0) as u64;
    let avg_stored = if peaks.is_empty() {
        0.0
    } else {
        peaks.iter().sum::<usize>() as f64 / peaks.len() as f64
    };
    RunStats {
        hops_per_sub: ratio(m.messages(TrafficClass::SUBSCRIPTION), subs),
        hops_per_pub: ratio(m.messages(TrafficClass::PUBLICATION), pubs),
        hops_per_notification: ratio(notify_msgs, matches),
        notify_hops_per_pub: ratio(notify_msgs, pubs),
        keys_per_sub: m
            .histogram("keys.per-subscription")
            .map(|h| h.mean())
            .unwrap_or(0.0),
        keys_per_pub: m
            .histogram("keys.per-publication")
            .map(|h| h.mean())
            .unwrap_or(0.0),
        max_stored,
        avg_stored,
        matches,
        delivered: m.counter("notifications.delivered"),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An order- and overlay-independent fingerprint of the logically
/// delivered set: FNV-1a over the sorted `(node, sub, event)` triples,
/// plus the triple count. Two runs deliver the same notifications iff the
/// fingerprints match, so configurations that must not change delivery
/// semantics — match engines, overlays — can be diffed on this one
/// value.
pub fn delivered_fingerprint<B: OverlayBackend>(net: &PubSubNetwork<B>) -> (u64, usize) {
    let mut triples: Vec<(usize, u64, u64)> = Vec::new();
    for node in 0..net.len() {
        for n in net.delivered(node) {
            triples.push((node, n.sub_id.0, n.event_id.0));
        }
    }
    triples.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    let count = triples.len();
    for (node, sub, event) in triples {
        mix(node as u64);
        mix(sub);
        mix(event);
    }
    (hash, count)
}

/// The paper's workload for `nodes` with `selective` selective attributes.
pub fn paper_workload(nodes: usize, selective: usize) -> WorkloadConfig {
    WorkloadConfig::paper_default(nodes, 4).with_selective_attrs(selective)
}

/// Builds a generator with a seed derived from the deployment seed.
pub fn workload_gen(cfg: WorkloadConfig, seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        cbps::EventSpace::paper_default(),
        cfg,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(17),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        // One test body: `--nodes` is process-global state, so the
        // override assertions must not run concurrently with the
        // default-value assertions.
        assert_eq!(Scale::Paper.nodes(), 500);
        assert_eq!(Scale::Quick.ops(1000), 200);
        assert_eq!(Scale::Quick.ops(100), 50);
        assert_eq!(Scale::Large.nodes(), 100_000);
        assert_eq!(Scale::Large.ops(1000), 1000);
        for scale in [Scale::Quick, Scale::Paper, Scale::Large] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("huge"), None);
        set_nodes_override(1234);
        assert_eq!(Scale::Quick.nodes(), 1234);
        assert_eq!(Scale::Large.nodes(), 1234);
        set_nodes_override(10 * MAX_NODES);
        assert_eq!(nodes_override(), MAX_NODES);
        set_nodes_override(0);
        assert_eq!(Scale::Paper.nodes(), 500);
    }

    #[test]
    fn parallel_map_preserves_order_at_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        set_jobs(4);
        let parallel = parallel_map(items.clone(), |x| x * x + 1);
        set_jobs(1);
        let serial = parallel_map(items, |x| x * x + 1);
        assert_eq!(parallel, serial);
        assert_eq!(serial[99], 99 * 99 + 1);
    }

    #[test]
    fn backend_kind_round_trips() {
        for kind in [BackendKind::Chord, BackendKind::Pastry] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("bamboo"), None);
    }

    #[test]
    fn quick_run_produces_sane_stats() {
        let mut net = Deployment::new(40, 1).build();
        let cfg = paper_workload(40, 0).with_counts(30, 30);
        let mut gen = workload_gen(cfg, 1);
        let trace = gen.gen_trace();
        let stats = run_trace(&mut net, &trace, 60);
        assert!(stats.hops_per_sub > 0.0);
        assert!(stats.hops_per_pub > 0.0);
        assert!(stats.keys_per_pub >= 1.0);
        assert!(stats.max_stored >= 1);
    }
}
