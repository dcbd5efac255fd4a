//! Shared experiment plumbing: the run profile, per-experiment totals,
//! network construction, trace replay, metric extraction, and the
//! multi-core sweep runner.
//!
//! A [`RunProfile`] carries everything a `figures` invocation fixes before
//! its first experiment; a [`Sweep`] is one experiment in progress under
//! it, folding what its runs report into a [`RunTotals`]. Each simulation
//! is single-threaded and deterministic; independent (seed, sweep-point)
//! runs are farmed out to a scoped worker pool of [`RunProfile::jobs`]
//! workers. Results come back in input order, so a sweep produces
//! byte-identical tables at any job count.

use std::sync::{Mutex, MutexGuard};

use cbps::{
    ChordBackend, ConfigError, MappingKind, NotifyMode, OverlayBackend, Primitive, PubSubConfig,
    PubSubNetwork, PubSubNetworkBuilder,
};
use cbps_sim::{Counter, NetConfig, ObsMode, Observability, Series, SimDuration, TrafficClass};
use cbps_workload::{Trace, WorkloadConfig, WorkloadGen};

use crate::report::ObsReport;

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

/// Dispatches a generic experiment body over an overlay backend:
/// `with_backend!(kind, B => run_on::<B>(scale))` expands to a match on
/// the [`BackendKind`] `kind` binding the type alias `B` to
/// [`cbps::ChordBackend`] or [`cbps_pastry::PastryBackend`].
#[macro_export]
macro_rules! with_backend {
    ($kind:expr, $B:ident => $body:expr) => {
        match $kind {
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

/// The hard ceiling for `--nodes` (the ROADMAP's million-node target).
pub const MAX_NODES: usize = 1_000_000;

/// Everything a `figures` invocation fixes before its first experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunProfile {
    /// Experiment scale (`--scale`).
    pub scale: Scale,
    /// Network-size override (`--nodes`, at most [`MAX_NODES`]); `None`
    /// runs every experiment at its scale's sizes.
    pub nodes: Option<usize>,
    /// Worker count for sweep points and overlay construction (`--jobs`);
    /// 1 = fully serial.
    pub jobs: usize,
    /// Overlay substrate of the deployment-style experiments (`--overlay`).
    pub overlay: BackendKind,
    /// Observability mode every deployment runs under (`stages` with
    /// `--report`).
    pub obs: ObsMode,
}

impl RunProfile {
    /// `scale` with every other setting at its default: no node override,
    /// one worker, Chord, observability off.
    pub fn new(scale: Scale) -> Self {
        RunProfile {
            scale,
            nodes: None,
            jobs: 1,
            overlay: BackendKind::Chord,
            obs: ObsMode::Off,
        }
    }

    /// The network size of an experiment that takes one: the `--nodes`
    /// override, else the scale's default ([`Scale::nodes`]).
    pub fn nodes(&self) -> usize {
        self.nodes.unwrap_or(self.scale.nodes())
    }
}

/// What one experiment's runs add up to, for its report record.
///
/// Every fold is commutative — sums, maxima, element-wise maxima and the
/// registry merge — so totals do not depend on the order in which sweep
/// workers finish: they are the same at any job count.
#[derive(Debug, Default)]
pub struct RunTotals {
    /// Simulator events processed.
    pub events: u64,
    /// Maximum event-queue depth seen by any run.
    pub queue_peak: u64,
    /// Merged observability registries; `None` when no run recorded any.
    pub obs: Option<Observability>,
    /// Per-node peak stored-subscription counts, element-wise max over
    /// the observed runs.
    pub hot_nodes: Vec<u64>,
    /// Per-node cumulative rendezvous work (publications processed +
    /// matches produced), element-wise max over the observed runs.
    pub node_work: Vec<u64>,
}

impl RunTotals {
    /// Folds one finished simulation's event count and queue peak in.
    pub fn record_events(&mut self, events: u64, queue_peak: usize) {
        self.events += events;
        self.queue_peak = self.queue_peak.max(queue_peak as u64);
    }

    /// Moves one finished run's observability registry, per-node peaks
    /// and rendezvous work into the totals (a no-op when the run recorded
    /// nothing).
    pub fn record_obs<B: OverlayBackend>(&mut self, net: &mut PubSubNetwork<B>) {
        if !net.observability().enabled() {
            return;
        }
        let (peaks, works) = (net.peak_stored_counts(), net.rendezvous_work_counts());
        fold_max(&mut self.hot_nodes, peaks.into_iter().map(|p| p as u64));
        fold_max(&mut self.node_work, works.into_iter());
        let run_obs = std::mem::take(net.metrics_mut().obs_mut());
        match self.obs.as_mut() {
            Some(acc) => acc.merge(&run_obs),
            None => self.obs = Some(run_obs),
        }
    }

    /// The report distillate of the merged registry, hot nodes and node
    /// load; `None` when no run was observed.
    pub fn obs_report(&self) -> Option<ObsReport> {
        self.obs
            .as_ref()
            .map(|obs| ObsReport::distill(obs, &self.hot_nodes).with_load(&self.node_work))
    }
}

fn fold_max(acc: &mut Vec<u64>, values: impl ExactSizeIterator<Item = u64>) {
    acc.resize(acc.len().max(values.len()), 0);
    acc.iter_mut()
        .zip(values)
        .for_each(|(slot, v)| *slot = (*slot).max(v));
}

/// One experiment in progress: the profile it runs under and the totals
/// its runs fold into. Sweep workers share it by reference.
#[derive(Debug)]
pub struct Sweep<'a> {
    /// The invocation's settings.
    pub profile: &'a RunProfile,
    pub(crate) totals: Mutex<RunTotals>,
}

impl Sweep<'_> {
    /// The totals recorded so far, locked for a worker to fold its run in.
    pub fn totals(&self) -> MutexGuard<'_, RunTotals> {
        self.totals.lock().expect("totals poisoned")
    }

    /// [`run_trace`], then folds the run into the totals.
    pub fn run_trace<B: OverlayBackend>(
        &self,
        net: &mut PubSubNetwork<B>,
        trace: &Trace,
        drain_secs: u64,
    ) -> RunStats {
        let stats = run_trace(net, trace, drain_secs);
        let mut totals = self.totals();
        let sim = net.sim_mut();
        totals.record_events(sim.events_processed(), sim.queue_peak());
        totals.record_obs(net);
        stats
    }
}

/// Maps `f` over `items` on `jobs` workers, preserving input order.
///
/// With one worker this is a plain serial map — no threads are spawned
/// and no ordering question arises. With more workers, items are pulled
/// from a shared queue, so long and short sweep points load-balance; the
/// result vector is still indexed by the input position. `f` must not
/// depend on cross-item state.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs.min(items.len());
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
    /// 10^5 nodes, paper operation counts.
    Large,
}

impl Scale {
    /// Default node count (paper: 500); see [`RunProfile::nodes`] for the
    /// `--nodes` override.
    pub fn nodes(self) -> usize {
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
    /// Replicas kept of every stored subscription (0 = none).
    pub replication: usize,
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
            replication: 0,
        }
    }

    /// Builds the network on the Chord substrate with observability off.
    pub fn build(&self) -> PubSubNetwork {
        self.build_on::<ChordBackend>(ObsMode::Off)
    }

    /// Builds the network on substrate `B` under observability `obs`; see
    /// [`Deployment::try_build_on`].
    pub fn build_on<B: OverlayBackend>(&self, obs: ObsMode) -> PubSubNetwork<B> {
        self.try_build_on(obs)
            .expect("experiment deployments use validated paper parameters")
    }

    /// Builds the network on substrate `B` with its paper-default overlay
    /// parameters, under observability `obs`. Workload, seeds and pub/sub
    /// configuration are substrate-independent, so the same deployment
    /// descriptor drives every backend. Node counts beyond the paper's
    /// 2^13 ring get a wider key space via [`cbps::deployment_key_space`]
    /// (a no-op for every paper/quick deployment, so recorded baselines
    /// are unchanged).
    ///
    /// # Errors
    ///
    /// The builder's [`ConfigError`] for a descriptor it rejects (no
    /// nodes, a replication factor past the overlay's capacity).
    pub fn try_build_on<B: OverlayBackend>(
        &self,
        obs: ObsMode,
    ) -> Result<PubSubNetwork<B>, ConfigError> {
        let keys = cbps::deployment_key_space(self.nodes);
        let pubsub = PubSubConfig::paper_default()
            .with_mapping(self.mapping)
            .with_primitive(self.primitive)
            .with_notify_mode(self.notify)
            .with_discretization(self.discretization)
            .with_replication(self.replication)
            .with_key_space(keys);
        PubSubNetworkBuilder::<B>::new()
            .nodes(self.nodes)
            .net_config(NetConfig::new(self.seed))
            .overlay(B::with_key_space(B::paper_default(), keys))
            .pubsub(pubsub)
            .observability(obs)
            .build()
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
/// settle. [`Sweep::run_trace`] also folds the run into an experiment's
/// totals.
pub fn run_trace<B: OverlayBackend>(
    net: &mut PubSubNetwork<B>,
    trace: &Trace,
    drain_secs: u64,
) -> RunStats {
    net.reserve_workload(trace.sub_count());
    trace.replay(net);
    net.run_until(trace.end_time() + SimDuration::from_secs(drain_secs));
    distill(net, trace.sub_count() as u64, trace.pub_count() as u64)
}

/// Extracts normalized statistics from a finished network.
pub fn distill<B: OverlayBackend>(net: &PubSubNetwork<B>, subs: u64, pubs: u64) -> RunStats {
    let m = net.metrics();
    let matches = m.count(Counter::Matches);
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
            .series(Series::KeysPerSubscription)
            .map(|h| h.mean())
            .unwrap_or(0.0),
        keys_per_pub: m
            .series(Series::KeysPerPublication)
            .map(|h| h.mean())
            .unwrap_or(0.0),
        max_stored,
        avg_stored,
        matches,
        delivered: m.count(Counter::NotificationsDelivered),
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
        assert_eq!(Scale::Paper.nodes(), 500);
        assert_eq!(Scale::Quick.ops(1000), 200);
        assert_eq!(Scale::Quick.ops(100), 50);
        assert_eq!(Scale::Large.nodes(), 100_000);
        assert_eq!(Scale::Large.ops(1000), 1000);
        for scale in [Scale::Quick, Scale::Paper, Scale::Large] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
            let profile = RunProfile::new(scale);
            assert_eq!(profile.nodes(), scale.nodes());
            let profile = RunProfile {
                nodes: Some(1234),
                ..profile
            };
            assert_eq!(profile.nodes(), 1234);
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn parallel_map_preserves_order_at_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let parallel = parallel_map(4, items.clone(), |x| x * x + 1);
        let serial = parallel_map(1, items, |x| x * x + 1);
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
