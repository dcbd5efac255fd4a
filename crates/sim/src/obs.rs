//! Causal observability: trace identifiers, stage records and the
//! stage-latency registry of [`Histogram`]s.
//!
//! The paper's evaluation reduces protocol behaviour to per-class hop
//! *averages*; this module is the substrate for richer questions — "where
//! does a notification spend its time?" and "what is the p99, not the
//! mean?". Three pieces cooperate:
//!
//! * [`TraceId`] — a copyable identifier minted once per application
//!   operation (subscribe or publish) and carried through every overlay
//!   message and pub/sub payload that the operation causes;
//! * [`TraceLog`] — a bounded, per-run log of [`StageRecord`]s, each
//!   stamping *(trace, stage, class, node, sim-time)*, from which a
//!   delivered notification can be explained hop-by-hop;
//! * [`Observability`] — the per-run container embedded in
//!   [`Metrics`](crate::Metrics): the trace log plus a registry of
//!   [`Histogram`]s keyed by `(TrafficClass, Stage)` recording
//!   **since-origin** latency in microseconds.
//!
//! # Overhead policy
//!
//! Everything here is observation-only: recording never alters simulation
//! behaviour, so experiment tables are byte-identical whether observability
//! is on or off. With [`ObsMode::Off`] (the default) every recording entry
//! point reduces to a single branch; no allocation, no hashing. With
//! tracing on, a histogram allocates its bucket array on its first sample
//! (and grows it only for a sample past its end), and the trace log drops
//! — rather than grows — past its capacity.

use std::collections::HashMap;

use crate::metrics::{Histogram, TrafficClass};
use crate::sim::NodeIdx;
use crate::time::SimTime;

/// Identifier tying every message and stage record back to the application
/// operation (one `subscribe` or one `publish`) that caused it.
///
/// Packed as `tag(2) | node(30) | seq(32)`: the tag distinguishes
/// subscription from publication traces, `node` is the originating node and
/// `seq` a per-node sequence number — the same composition the pub/sub
/// layer uses for `SubId`/`EventId`, so ids and traces line up naturally.
///
/// [`TraceId::NONE`] marks untraced traffic (overlay maintenance, state
/// transfer, batched envelopes aggregating several traces).
///
/// # Examples
///
/// ```
/// use cbps_sim::TraceId;
///
/// let t = TraceId::for_publication(3, 7);
/// assert!(!t.is_none());
/// assert_eq!(t.node(), Some(3));
/// assert_ne!(t, TraceId::for_subscription(3, 7));
/// assert!(TraceId::NONE.is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The null trace: carried by untraced traffic, never recorded.
    pub const NONE: TraceId = TraceId(0);

    const TAG_SUB: u64 = 1;
    const TAG_PUB: u64 = 2;
    const NODE_BITS: u32 = 30;
    const SEQ_BITS: u32 = 32;

    fn from_parts(tag: u64, node: usize, seq: u32) -> TraceId {
        let node = (node as u64) & ((1 << Self::NODE_BITS) - 1);
        TraceId((tag << (Self::NODE_BITS + Self::SEQ_BITS)) | (node << Self::SEQ_BITS) | seq as u64)
    }

    /// A trace for the `seq`-th subscription issued by `node`.
    pub fn for_subscription(node: usize, seq: u32) -> TraceId {
        TraceId::from_parts(Self::TAG_SUB, node, seq)
    }

    /// A trace for the `seq`-th publication issued by `node`.
    pub fn for_publication(node: usize, seq: u32) -> TraceId {
        TraceId::from_parts(Self::TAG_PUB, node, seq)
    }

    /// `true` for [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// `true` for subscription traces.
    pub fn is_subscription(self) -> bool {
        self.0 >> (Self::NODE_BITS + Self::SEQ_BITS) == Self::TAG_SUB
    }

    /// `true` for publication traces.
    pub fn is_publication(self) -> bool {
        self.0 >> (Self::NODE_BITS + Self::SEQ_BITS) == Self::TAG_PUB
    }

    /// The originating node, or `None` for the null trace.
    pub fn node(self) -> Option<usize> {
        if self.is_none() {
            None
        } else {
            Some(((self.0 >> Self::SEQ_BITS) & ((1 << Self::NODE_BITS) - 1)) as usize)
        }
    }

    /// The per-node operation sequence number.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }

    /// The raw packed value (stable within a run; useful as a log key).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A point in the life of a traced operation.
///
/// The stage taxonomy follows the paper's pipeline: an operation is issued
/// ([`Publish`](Stage::Publish) / [`Subscribe`](Stage::Subscribe)), routed
/// hop-by-hop over the overlay ([`RouteHop`](Stage::RouteHop)), lands on
/// rendezvous nodes (subscriptions are [`Store`](Stage::Store)d, events are
/// matched at [`RendezvousMatch`](Stage::RendezvousMatch)), may sit in a
/// notification buffer ([`BufferWait`](Stage::BufferWait)) or ride the ring
/// between collecting agents ([`CollectHop`](Stage::CollectHop)), is sent
/// toward the subscriber ([`NotifyRoute`](Stage::NotifyRoute)), and finally
/// arrives ([`Deliver`](Stage::Deliver)).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// An event was published by the application.
    Publish,
    /// A subscription was issued by the application.
    Subscribe,
    /// One overlay routing hop was taken by a traced message.
    RouteHop,
    /// A subscription was installed at a rendezvous node.
    Store,
    /// An event reached a rendezvous node and was matched against the store.
    RendezvousMatch,
    /// A matched notification left the rendezvous buffer (records how long
    /// it waited).
    BufferWait,
    /// A collect item moved one step along the ring toward its agent node.
    CollectHop,
    /// A notification was sent toward its subscriber.
    NotifyRoute,
    /// A notification arrived at its subscriber.
    Deliver,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Publish,
        Stage::Subscribe,
        Stage::RouteHop,
        Stage::Store,
        Stage::RendezvousMatch,
        Stage::BufferWait,
        Stage::CollectHop,
        Stage::NotifyRoute,
        Stage::Deliver,
    ];

    /// Stable kebab-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Publish => "publish",
            Stage::Subscribe => "subscribe",
            Stage::RouteHop => "route-hop",
            Stage::Store => "store",
            Stage::RendezvousMatch => "rendezvous-match",
            Stage::BufferWait => "buffer-wait",
            Stage::CollectHop => "collect-hop",
            Stage::NotifyRoute => "notify-route",
            Stage::Deliver => "deliver",
        }
    }
}

/// One timestamped step in the life of a traced operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRecord {
    /// The operation this step belongs to.
    pub trace: TraceId,
    /// Which pipeline stage ran.
    pub stage: Stage,
    /// Traffic class of the message involved.
    pub class: TrafficClass,
    /// The node the stage ran on.
    pub node: NodeIdx,
    /// Simulated time of the step.
    pub at: SimTime,
}

/// How much the observability layer records.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing; every entry point is a single branch.
    #[default]
    Off,
    /// Record stage latencies and the stage log, but keep per-hop routing
    /// out of the log (hops still feed the latency registry).
    Stages,
    /// Everything, including one log record per overlay routing hop —
    /// enough to explain a delivery hop-by-hop.
    Full,
}

impl ObsMode {
    /// `true` unless [`ObsMode::Off`].
    pub fn enabled(self) -> bool {
        !matches!(self, ObsMode::Off)
    }

    /// Stable name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Stages => "stages",
            ObsMode::Full => "full",
        }
    }
}

/// Bounded per-run log of [`StageRecord`]s.
///
/// The log keeps the **earliest** records when full (dropping new ones and
/// counting them in [`dropped`](TraceLog::dropped)): early chains stay
/// complete, which is what the causality tests and `explain` need.
#[derive(Clone, Debug)]
pub struct TraceLog {
    records: Vec<StageRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(TraceLog::DEFAULT_CAPACITY)
    }
}

impl TraceLog {
    /// Default record capacity (1 Mi records ≈ 40 MB).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates an empty log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, rec: StageRecord) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(rec);
    }

    /// All retained records, in recording order (which is sim-time order).
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stage chain of one trace, in recording (sim-time) order.
    pub fn chain(&self, trace: TraceId) -> Vec<StageRecord> {
        self.records
            .iter()
            .filter(|r| r.trace == trace)
            .copied()
            .collect()
    }

    fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }

    fn merge(&mut self, other: &TraceLog) {
        for rec in &other.records {
            self.record(*rec);
        }
        self.dropped += other.dropped;
    }
}

/// Summary statistics of one histogram, ready for reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObsSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl ObsSummary {
    /// Summarizes a histogram; `None` when it is empty.
    pub fn of(h: &Histogram) -> Option<ObsSummary> {
        if h.is_empty() {
            return None;
        }
        Some(ObsSummary {
            count: h.len(),
            mean: h.mean(),
            p50: h.percentile(50.0).unwrap_or(0),
            p90: h.percentile(90.0).unwrap_or(0),
            p99: h.percentile(99.0).unwrap_or(0),
            max: h.max().unwrap_or(0),
        })
    }
}

/// Per-run observability state: mode, trace log and stage-latency registry.
/// Embedded in [`Metrics`](crate::Metrics) so every layer that can count a
/// message can also record a stage.
///
/// # Examples
///
/// ```
/// use cbps_sim::{ObsMode, Observability, Stage, TraceId, TrafficClass};
/// use cbps_sim::SimTime;
///
/// let mut obs = Observability::new();
/// obs.set_mode(ObsMode::Stages);
/// let t = TraceId::for_publication(0, 1);
/// obs.stage(t, Stage::Publish, TrafficClass::PUBLICATION, 0, SimTime::ZERO);
/// obs.stage(t, Stage::Deliver, TrafficClass::NOTIFICATION, 4, SimTime::from_millis(150));
/// let chain = obs.log().chain(t);
/// assert_eq!(chain.len(), 2);
/// assert_eq!(chain[0].stage, Stage::Publish);
/// let h = obs.stage_histogram(TrafficClass::NOTIFICATION, Stage::Deliver).unwrap();
/// assert_eq!(h.max(), Some(150_000)); // µs since the publish origin
/// ```
#[derive(Clone, Debug, Default)]
pub struct Observability {
    mode: ObsMode,
    log: TraceLog,
    latency: HashMap<(TrafficClass, Stage), Histogram>,
    origins: HashMap<TraceId, SimTime>,
}

impl Observability {
    /// Creates a disabled observability sink.
    pub fn new() -> Self {
        Observability::default()
    }

    /// Current mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Sets the recording mode. Existing data is kept.
    pub fn set_mode(&mut self, mode: ObsMode) {
        self.mode = mode;
    }

    /// `true` unless the mode is [`ObsMode::Off`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Records that `trace` reached `stage` on `node` at time `at`.
    ///
    /// The first record of a trace fixes its **origin**; every stage's
    /// latency histogram sample is `at - origin` in microseconds, so
    /// percentiles decompose end-to-end latency by stage without needing a
    /// linear predecessor (mcast fan-out makes stage chains trees, not
    /// lines). No-op when disabled or for [`TraceId::NONE`].
    #[inline]
    pub fn stage(
        &mut self,
        trace: TraceId,
        stage: Stage,
        class: TrafficClass,
        node: NodeIdx,
        at: SimTime,
    ) {
        if !self.mode.enabled() || trace.is_none() {
            return;
        }
        self.stage_slow(trace, stage, class, node, at, true);
    }

    /// Records one overlay routing hop for `trace`. Feeds the latency
    /// registry always; feeds the log only in [`ObsMode::Full`].
    #[inline]
    pub fn hop(&mut self, trace: TraceId, class: TrafficClass, node: NodeIdx, at: SimTime) {
        if !self.mode.enabled() || trace.is_none() {
            return;
        }
        let log = matches!(self.mode, ObsMode::Full);
        self.stage_slow(trace, Stage::RouteHop, class, node, at, log);
    }

    fn stage_slow(
        &mut self,
        trace: TraceId,
        stage: Stage,
        class: TrafficClass,
        node: NodeIdx,
        at: SimTime,
        log: bool,
    ) {
        let origin = *self.origins.entry(trace).or_insert(at);
        let micros = at.saturating_since(origin).as_micros();
        self.latency
            .entry((class, stage))
            .or_default()
            .record(micros);
        if log {
            self.log.record(StageRecord {
                trace,
                stage,
                class,
                node,
                at,
            });
        }
    }

    /// The stage log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// The since-origin latency histogram for one `(class, stage)` cell.
    pub fn stage_histogram(&self, class: TrafficClass, stage: Stage) -> Option<&Histogram> {
        self.latency.get(&(class, stage))
    }

    /// Iterates over every non-empty `(class, stage)` latency histogram.
    pub fn stage_histograms(&self) -> impl Iterator<Item = (TrafficClass, Stage, &Histogram)> + '_ {
        self.latency.iter().map(|(&(c, s), h)| (c, s, h))
    }

    /// When the given trace was first observed, if ever.
    pub fn origin(&self, trace: TraceId) -> Option<SimTime> {
        self.origins.get(&trace).copied()
    }

    /// Merges the data of another sink into this one (mode is unchanged;
    /// origins from `other` are kept where absent here).
    pub fn merge(&mut self, other: &Observability) {
        for (key, h) in &other.latency {
            self.latency.entry(*key).or_default().merge(h);
        }
        self.log.merge(&other.log);
        for (&t, &at) in &other.origins {
            self.origins.entry(t).or_insert(at);
        }
    }

    /// Drops all recorded data, keeping the mode.
    pub fn clear(&mut self) {
        self.log.clear();
        self.latency.clear();
        self.origins.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SUB_BUCKETS;

    #[test]
    fn trace_id_packing() {
        let t = TraceId::for_subscription(17, 42);
        assert!(t.is_subscription());
        assert!(!t.is_publication());
        assert_eq!(t.node(), Some(17));
        assert_eq!(t.seq(), 42);
        let p = TraceId::for_publication(17, 42);
        assert!(p.is_publication());
        assert_ne!(t.raw(), p.raw());
        assert_eq!(TraceId::NONE.node(), None);
        assert!(!TraceId::NONE.is_subscription());
    }

    #[test]
    fn bucket_boundaries_exact_below_sub_buckets() {
        for v in 0..SUB_BUCKETS {
            let i = Histogram::bucket_index(v);
            assert_eq!(i as u64, v);
            assert_eq!(Histogram::bucket_low(i), v);
        }
    }

    #[test]
    fn bucket_low_is_bucket_floor() {
        // The lower bound of a value's bucket maps back to the same bucket
        // and never exceeds the value.
        for v in [
            32u64,
            33,
            63,
            64,
            65,
            100,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let i = Histogram::bucket_index(v);
            let low = Histogram::bucket_low(i);
            assert!(low <= v, "low {low} > v {v}");
            assert_eq!(Histogram::bucket_index(low), i, "floor of {v}");
            // Relative error bound: bucket width ≤ low / 32.
            assert!(v - low <= low / SUB_BUCKETS + 1, "{v} vs {low}");
        }
    }

    #[test]
    fn log_histogram_percentile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, exact) in [(50.0, 50_000u64), (90.0, 90_000), (99.0, 99_000)] {
            let got = h.percentile(p).unwrap() as f64;
            let err = (got - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / 32.0, "p{p}: got {got}, exact {exact}");
        }
        assert_eq!(h.max(), Some(100_000));
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = Histogram::new();
        a.record_n(10, 4);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
        assert_eq!(a.sum(), 1_000_040);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut obs = Observability::new();
        let t = TraceId::for_publication(0, 1);
        obs.stage(
            t,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            0,
            SimTime::ZERO,
        );
        obs.hop(t, TrafficClass::PUBLICATION, 1, SimTime::from_millis(50));
        assert!(obs.log().is_empty());
        assert_eq!(obs.stage_histograms().count(), 0);
    }

    #[test]
    fn none_trace_not_recorded() {
        let mut obs = Observability::new();
        obs.set_mode(ObsMode::Full);
        obs.stage(
            TraceId::NONE,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            0,
            SimTime::ZERO,
        );
        assert!(obs.log().is_empty());
    }

    #[test]
    fn since_origin_latency() {
        let mut obs = Observability::new();
        obs.set_mode(ObsMode::Stages);
        let t = TraceId::for_publication(2, 9);
        obs.stage(
            t,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            2,
            SimTime::from_secs(1),
        );
        obs.stage(
            t,
            Stage::RendezvousMatch,
            TrafficClass::PUBLICATION,
            5,
            SimTime::from_millis(1100),
        );
        let h = obs
            .stage_histogram(TrafficClass::PUBLICATION, Stage::RendezvousMatch)
            .unwrap();
        assert_eq!(h.max(), Some(100_000));
        let pub_h = obs
            .stage_histogram(TrafficClass::PUBLICATION, Stage::Publish)
            .unwrap();
        assert_eq!(pub_h.max(), Some(0));
        assert_eq!(obs.origin(t), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn hops_logged_only_in_full_mode() {
        for (mode, logged) in [(ObsMode::Stages, 0), (ObsMode::Full, 1)] {
            let mut obs = Observability::new();
            obs.set_mode(mode);
            let t = TraceId::for_publication(0, 1);
            obs.hop(t, TrafficClass::PUBLICATION, 3, SimTime::from_millis(50));
            assert_eq!(obs.log().len(), logged, "{mode:?}");
            assert!(obs
                .stage_histogram(TrafficClass::PUBLICATION, Stage::RouteHop)
                .is_some());
        }
    }

    #[test]
    fn trace_log_bounded_keeps_earliest() {
        let mut log = TraceLog::new(2);
        let t = TraceId::for_publication(0, 1);
        for i in 0..4 {
            log.record(StageRecord {
                trace: t,
                stage: Stage::RouteHop,
                class: TrafficClass::PUBLICATION,
                node: i,
                at: SimTime::from_secs(i as u64),
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.records()[0].node, 0);
    }

    #[test]
    fn merge_combines_registries_and_logs() {
        let mut a = Observability::new();
        a.set_mode(ObsMode::Stages);
        let t = TraceId::for_publication(0, 1);
        a.stage(
            t,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            0,
            SimTime::ZERO,
        );

        let mut b = Observability::new();
        b.set_mode(ObsMode::Stages);
        let u = TraceId::for_publication(1, 1);
        b.stage(
            u,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            1,
            SimTime::ZERO,
        );

        a.merge(&b);
        let h = a
            .stage_histogram(TrafficClass::PUBLICATION, Stage::Publish)
            .unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(a.log().len(), 2);

        // `figures --jobs N` folds per-run sinks through `merge` in
        // completion order (first one taken whole, the rest merged in), so
        // the fold must not depend on that order — even once the log
        // overflows and which records it keeps does.
        let run = |node: usize, stages: u32| {
            let mut obs = Observability {
                log: TraceLog::new(4),
                ..Observability::default()
            };
            obs.set_mode(ObsMode::Full);
            let t = TraceId::for_publication(node, 1);
            for i in 0..stages {
                let at = SimTime::from_millis(u64::from(i) * 50 + node as u64);
                obs.hop(t, TrafficClass::PUBLICATION, node + i as usize, at);
            }
            obs.stage(
                t,
                Stage::Deliver,
                TrafficClass::NOTIFICATION,
                node,
                SimTime::from_secs(1),
            );
            obs
        };
        let fold = |order: &[usize]| {
            let mut runs = order.iter().map(|&n| run(n, 2 + n as u32));
            let mut acc = runs.next().expect("one run at least");
            for r in runs {
                acc.merge(&r);
            }
            acc
        };
        let digest = |obs: &Observability| {
            let mut stages: Vec<_> = obs
                .stage_histograms()
                .map(|(c, s, h)| {
                    (
                        c,
                        s,
                        h.iter().collect::<Vec<_>>(),
                        h.sum(),
                        h.min(),
                        h.max(),
                    )
                })
                .collect();
            stages.sort_by_key(|&(c, s, ..)| (c, s));
            (stages, obs.log().len(), obs.log().dropped())
        };
        let forward = fold(&[0, 1, 2, 3]);
        let reversed = fold(&[3, 2, 1, 0]);
        // 2 + 3 + 4 + 5 hops and four deliveries offered to a 4-record log.
        assert_eq!(forward.log().len(), 4);
        assert_eq!(forward.log().dropped(), 14 + 4 - 4);
        assert_eq!(digest(&forward), digest(&reversed));
    }

    #[test]
    fn clear_keeps_mode() {
        let mut obs = Observability::new();
        obs.set_mode(ObsMode::Full);
        let t = TraceId::for_subscription(0, 1);
        obs.stage(
            t,
            Stage::Subscribe,
            TrafficClass::SUBSCRIPTION,
            0,
            SimTime::ZERO,
        );
        obs.clear();
        assert!(obs.log().is_empty());
        assert_eq!(obs.stage_histograms().count(), 0);
        assert_eq!(obs.mode(), ObsMode::Full);
    }

    #[test]
    fn summary_of_histogram() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        let s = ObsSummary::of(&h).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3);
        assert_eq!(s.max, 5);
        assert!(ObsSummary::of(&Histogram::new()).is_none());
    }
}
