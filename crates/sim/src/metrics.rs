//! Run-wide measurement: traffic-class message counters, typed counters,
//! and compact histograms.
//!
//! The paper's evaluation reports two kinds of quantities: the **number of
//! one-hop messages sent in the system**, broken down by what the message is
//! for (subscription propagation, publication propagation, notifications,
//! …), and per-node state sizes. [`Metrics`] accumulates the former during a
//! run; the latter is sampled from node state by the harness.

use std::collections::BTreeMap;
use std::fmt;

use crate::obs::Observability;

/// A small label identifying what kind of traffic a message belongs to.
///
/// The simulator counts every transmitted message under its class; the
/// experiment harness divides class totals by request counts to obtain the
/// "hops per request" series of the paper's figures.
///
/// Classes are plain `u8` tags so that layered protocols (overlay,
/// pub/sub) can define their own without this crate knowing about them.
/// Well-known classes used across the workspace are defined as associated
/// constants.
///
/// # Examples
///
/// ```
/// use cbps_sim::TrafficClass;
///
/// let class = TrafficClass::SUBSCRIPTION;
/// assert_ne!(class, TrafficClass::PUBLICATION);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrafficClass(pub u8);

impl TrafficClass {
    /// Subscription propagation toward rendezvous nodes.
    pub const SUBSCRIPTION: TrafficClass = TrafficClass(0);
    /// Publication (event) propagation toward rendezvous nodes.
    pub const PUBLICATION: TrafficClass = TrafficClass(1);
    /// Notification delivery from rendezvous nodes to subscribers.
    pub const NOTIFICATION: TrafficClass = TrafficClass(2);
    /// Ring-neighbor exchanges of the notification-collecting protocol.
    pub const COLLECT: TrafficClass = TrafficClass(3);
    /// Overlay maintenance (stabilization, finger fixing, join lookups).
    pub const MAINTENANCE: TrafficClass = TrafficClass(4);
    /// Application-state transfer on join/leave and replication.
    pub const STATE_TRANSFER: TrafficClass = TrafficClass(5);
    /// Anything else.
    pub const OTHER: TrafficClass = TrafficClass(255);

    /// A human-readable name for the well-known classes.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::SUBSCRIPTION => "subscription",
            TrafficClass::PUBLICATION => "publication",
            TrafficClass::NOTIFICATION => "notification",
            TrafficClass::COLLECT => "collect",
            TrafficClass::MAINTENANCE => "maintenance",
            TrafficClass::STATE_TRANSFER => "state-transfer",
            TrafficClass::OTHER => "other",
            // Classes defined by higher layers have no static name.
            TrafficClass(_) => "custom",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.0)
    }
}

/// A compact histogram over non-negative integer samples.
///
/// Stores exact counts per distinct value (the quantities we record — hop
/// counts, key-set sizes, stored-subscription counts — have small supports),
/// so means, maxima and percentiles are exact.
///
/// # Examples
///
/// ```
/// use cbps_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 2, 3] {
///     h.record(v);
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.mean(), 2.0);
/// assert_eq!(h.max(), Some(3));
/// assert_eq!(h.percentile(50.0), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Counts of the values below [`DENSE`], indexed by value: hop counts
    /// and batch sizes, recorded once per routed delivery, all land here.
    dense: [u64; DENSE],
    /// Counts of everything else; no entry is zero.
    spill: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

/// Values below this are counted in a flat array instead of the map.
const DENSE: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            dense: [0; DENSE],
            spill: BTreeMap::new(),
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if value < DENSE as u64 {
            self.dense[value as usize] += n;
        } else {
            *self.spill.entry(value).or_insert(0) += n;
        }
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        self.iter().next().map(|(value, _)| value)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        let spilled = self.spill.keys().next_back().copied();
        spilled.or_else(|| self.dense.iter().rposition(|&c| c != 0).map(|v| v as u64))
    }

    /// Exact percentile (nearest-rank method); `p` in `[0, 100]`.
    ///
    /// Returns `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or NaN.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (value, count) in self.iter() {
            seen += count;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = self.dense.iter().enumerate();
        let dense = dense.filter(|&(_, &c)| c != 0).map(|(v, &c)| (v as u64, c));
        dense.chain(self.spill.iter().map(|(&v, &c)| (v, c)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (value, count) in other.iter() {
            self.record_n(value, count);
        }
    }
}

/// Declares a closed set of measurement positions: an enum whose variant
/// `i` is array position `i` of the sink that holds it, listed in position
/// order by `ALL`, each with one name. Reports read by that name; a name
/// is a code literal, never input, so one that names no variant is a bug
/// and `by_name` panics on it rather than read 0.
macro_rules! positions {
    (
        $(#[$doc:meta])* $ty:ident, $what:literal {
            $($(#[$vdoc:meta])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vdoc])* $variant,)*
        }

        impl $ty {
            /// Every variant, in position order.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The name this position reads under.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            /// The position named `name`.
            ///
            /// # Panics
            ///
            /// Panics if no position has that name.
            pub(crate) fn by_name(name: &str) -> $ty {
                match name {
                    $($name => $ty::$variant,)*
                    _ => panic!(concat!("no ", $what, " is named {:?}"), name),
                }
            }
        }
    };
}
pub(crate) use positions;

positions! {
    /// A run-wide counter: a fixed position in every [`Metrics`], bumped
    /// by [`Metrics::bump`] and read by [`Metrics::count`], or by name
    /// through [`Metrics::counter`].
    Counter, "counter" {
        /// (subscription, event) matches found at rendezvous nodes.
        Matches => "matches",
        /// Notification messages sent: one per immediate item or per batch.
        NotificationsMessages => "notifications.messages",
        /// Notification items delivered to their subscriber for the first time.
        NotificationsDelivered => "notifications.delivered",
        /// Notification items dropped because their pair was already delivered.
        NotificationsDuplicate => "notifications.duplicate",
        /// Notification items that reached a node other than their subscriber.
        NotificationsMisrouted => "notifications.misrouted",
        /// Subscription copies a rendezvous node stored and did not hold yet.
        StoreInsert => "store.insert",
        /// Subscription copies a rendezvous node already held (refreshes too).
        StoreDuplicateDelivery => "store.duplicate-delivery",
        /// `subscribe` calls.
        RequestsSubscribe => "requests.subscribe",
        /// `unsubscribe` calls.
        RequestsUnsubscribe => "requests.unsubscribe",
        /// `publish` calls.
        RequestsPublish => "requests.publish",
        /// Lease refreshes sent by subscribers.
        RequestsRefresh => "requests.refresh",
        /// Subscription copies kept as replicas.
        ReplicasStored => "replicas.stored",
        /// Replicas filed into the store once their arc became this node's.
        ReplicasPromoted => "replicas.promoted",
        /// Subscription copies filed into the store from a state transfer.
        StateTransferAdopted => "state-transfer.adopted",
        /// Routed messages dropped for exceeding the hop TTL.
        RoutingTtlDrop => "routing.ttl-drop",
    }
}

positions! {
    /// A run-wide exact histogram, as [`Counter`] is a counter: recorded
    /// by [`Metrics::record`], read by [`Metrics::series`] or by name
    /// through [`Metrics::histogram`].
    Series, "histogram" {
        /// Items per notification batch.
        NotificationsBatchSize => "notifications.batch-size",
        /// Hops per completed overlay lookup.
        LookupHops => "lookup.hops",
        /// Hops per routed delivery of subscription traffic.
        DilationSubscription => "dilation.subscription",
        /// Hops per routed delivery of publication traffic.
        DilationPublication => "dilation.publication",
        /// Hops per routed delivery of notification traffic.
        DilationNotification => "dilation.notification",
        /// Hops per routed delivery of collect traffic.
        DilationCollect => "dilation.collect",
        /// Hops per routed delivery of maintenance traffic.
        DilationMaintenance => "dilation.maintenance",
        /// Hops per routed delivery of state-transfer traffic.
        DilationStateTransfer => "dilation.state-transfer",
        /// Hops per routed delivery of any other class.
        DilationOther => "dilation.other",
        /// Keys a subscription maps to.
        KeysPerSubscription => "keys.per-subscription",
        /// Keys a publication maps to.
        KeysPerPublication => "keys.per-publication",
    }
}

impl Series {
    /// The delivery-dilation histogram of a traffic class:
    /// [`DilationSubscription`](Series::DilationSubscription) …
    /// [`DilationStateTransfer`](Series::DilationStateTransfer) for the
    /// well-known classes, [`DilationOther`](Series::DilationOther) for the
    /// rest.
    pub fn dilation(class: TrafficClass) -> Series {
        // The named classes are tags 0–5, in `ALL` order after the first two.
        Series::ALL[2 + usize::from(class.0).min(6)]
    }
}

/// Accumulated measurements for one simulation run.
///
/// Tracks one-hop message counts per [`TrafficClass`], the [`Counter`]s
/// and the [`Series`] histograms. All figure series in the experiment
/// harness are derived from a `Metrics` value plus per-node state sampling.
///
/// # Examples
///
/// ```
/// use cbps_sim::{Counter, Metrics, Series, TrafficClass};
///
/// let mut m = Metrics::new();
/// m.count_message(TrafficClass::PUBLICATION);
/// m.bump(Counter::RequestsPublish, 1);
/// m.record(Series::LookupHops, 3);
/// assert_eq!(m.messages(TrafficClass::PUBLICATION), 1);
/// assert_eq!(m.count(Counter::RequestsPublish), 1);
/// assert_eq!(m.counter("requests.publish"), 1);
/// assert_eq!(m.series(Series::LookupHops).unwrap().max(), Some(3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    messages: ClassCounts,
    counters: [u64; Counter::ALL.len()],
    /// Boxed: eleven half-kilobyte histograms would otherwise sit inline in
    /// the simulator.
    histograms: Box<[Histogram; Series::ALL.len()]>,
    obs: Observability,
}

/// One-hop message counts indexed by the class's `u8` tag: every
/// [`Context::send`](crate::Context::send) bumps one, so the table is flat.
#[derive(Clone, Debug)]
struct ClassCounts([u64; 256]);

impl Default for ClassCounts {
    fn default() -> Self {
        ClassCounts([0; 256])
    }
}

impl Metrics {
    /// Creates an empty metrics sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one transmitted one-hop message of the given class.
    pub fn count_message(&mut self, class: TrafficClass) {
        self.messages.0[usize::from(class.0)] += 1;
    }

    /// Total one-hop messages recorded for `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages.0[usize::from(class.0)]
    }

    /// Total one-hop messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.0.iter().sum()
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn bump(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    /// Current value of a counter.
    pub fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Current value of the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no [`Counter`] has that name.
    pub fn counter(&self, name: &str) -> u64 {
        self.count(Counter::by_name(name))
    }

    /// Records one sample in a histogram.
    #[inline]
    pub fn record(&mut self, series: Series, value: u64) {
        self.histograms[series as usize].record(value);
    }

    /// A histogram, if any samples were recorded in it.
    pub fn series(&self, series: Series) -> Option<&Histogram> {
        Some(&self.histograms[series as usize]).filter(|h| !h.is_empty())
    }

    /// The histogram named `name`, if any samples were recorded in it.
    ///
    /// # Panics
    ///
    /// Panics if no [`Series`] has that name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.series(Series::by_name(name))
    }

    /// Iterates over the `(class, count)` entries of every class that
    /// sent at least one message, in ascending class order.
    pub fn message_classes(&self) -> impl Iterator<Item = (TrafficClass, u64)> + '_ {
        (0..=u8::MAX)
            .map(|c| (TrafficClass(c), self.messages.0[usize::from(c)]))
            .filter(|&(_, n)| n != 0)
    }

    /// The causal observability sink (trace log + stage-latency registry).
    ///
    /// Disabled by default; enable with
    /// [`obs_mut().set_mode(..)`](crate::Observability::set_mode).
    pub fn obs(&self) -> &Observability {
        &self.obs
    }

    /// Mutable access to the observability sink.
    pub fn obs_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }

    /// Resets every counter, message count, histogram and recorded
    /// observability data (the observability *mode* is kept).
    pub fn clear(&mut self) {
        self.messages = ClassCounts::default();
        self.counters.fill(0);
        self.histograms.fill_with(Histogram::new);
        self.obs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_class_names() {
        assert_eq!(TrafficClass::SUBSCRIPTION.name(), "subscription");
        assert_eq!(TrafficClass(42).name(), "custom");
        assert_eq!(TrafficClass::COLLECT.to_string(), "collect(3)");
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [5, 1, 3, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(8));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(3));
        assert_eq!(h.percentile(100.0), Some(8));
    }

    #[test]
    fn histogram_record_n_and_merge() {
        let mut a = Histogram::new();
        a.record_n(2, 3);
        a.record_n(7, 0); // no-op
        let mut b = Histogram::new();
        b.record(4);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.sum(), 10);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(2, 3), (4, 1)]);
    }

    /// The dense array changes where a count lives, never what is read:
    /// seeded samples crowding the 63/64 boundary (plus zero, far values
    /// and `record_n(_, 0)`) against a model that keeps every count in one
    /// ordered map, through `merge`, with equality judged on contents.
    #[test]
    fn dense_and_spilled_counts_read_as_one_ordered_map() {
        use cbps_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x6364);
        let mut merged = Histogram::new();
        let mut merged_model: BTreeMap<u64, u64> = BTreeMap::new();
        for round in 0..40 {
            let mut h = Histogram::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for _ in 0..rng.gen_range(0u64..300) {
                let value = match rng.gen_range(0u32..10) {
                    0 => 0,
                    1 => rng.gen_range(0u64..1 << 40),
                    2..=4 => rng.gen_range(0u64..200),
                    _ => rng.gen_range(60u64..68),
                };
                let n = rng.gen_range(0u64..4);
                if n == 1 {
                    h.record(value);
                } else {
                    h.record_n(value, n);
                }
                if n > 0 {
                    *model.entry(value).or_insert(0) += n;
                }
            }
            let check = |h: &Histogram, model: &BTreeMap<u64, u64>| {
                let pairs: Vec<(u64, u64)> = model.iter().map(|(&v, &c)| (v, c)).collect();
                assert_eq!(h.iter().collect::<Vec<_>>(), pairs, "round {round}");
                assert_eq!(h.len(), model.values().sum::<u64>());
                let sum = pairs.iter().map(|&(v, c)| u128::from(v) * u128::from(c));
                assert_eq!(h.sum(), sum.sum::<u128>());
                assert_eq!(h.min(), model.keys().next().copied());
                assert_eq!(h.max(), model.keys().next_back().copied());
                for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                    let rank = ((p / 100.0) * h.len() as f64).ceil().max(1.0) as u64;
                    let mut seen = 0;
                    let want = pairs.iter().find(|&&(_, c)| {
                        seen += c;
                        seen >= rank
                    });
                    assert_eq!(h.percentile(p), want.map(|&(v, _)| v), "p{p} round {round}");
                }
            };
            check(&h, &model);
            // Equal contents compare equal however they were recorded.
            let mut replay = Histogram::new();
            for (&v, &c) in model.iter().rev() {
                replay.record_n(v, c);
            }
            assert_eq!(h, replay);
            if let Some((&v, _)) = model.iter().next_back() {
                replay.record(v);
                assert_ne!(h, replay);
            }
            merged.merge(&h);
            for (v, c) in model {
                *merged_model.entry(v).or_insert(0) += c;
            }
            check(&merged, &merged_model);
        }
        assert!(merged_model.contains_key(&63) && merged_model.contains_key(&64));
    }

    #[test]
    #[should_panic(expected = "out of [0, 100]")]
    fn percentile_range_checked() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.percentile(101.0);
    }

    #[test]
    fn metrics_accumulate() {
        let mut m = Metrics::new();
        m.count_message(TrafficClass::SUBSCRIPTION);
        m.count_message(TrafficClass::SUBSCRIPTION);
        m.count_message(TrafficClass::NOTIFICATION);
        m.bump(Counter::Matches, 2);
        m.bump(Counter::Matches, 3);
        assert_eq!(m.messages(TrafficClass::SUBSCRIPTION), 2);
        assert_eq!(m.messages(TrafficClass::PUBLICATION), 0);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.count(Counter::Matches), 5);
        assert_eq!(m.count(Counter::StoreInsert), 0);
        let classes: Vec<_> = m.message_classes().collect();
        assert_eq!(
            classes,
            vec![
                (TrafficClass::SUBSCRIPTION, 2),
                (TrafficClass::NOTIFICATION, 1)
            ]
        );
        m.clear();
        assert_eq!(m.total_messages(), 0);
    }

    /// Every name a report, a test or the benchmark reads, spelled out: a
    /// rename fails here before it silently reads 0 (or panics) there.
    /// Each position reads back by its name what its handle wrote, on a
    /// fresh sink and a cleared one; a histogram nobody recorded into
    /// reads as absent.
    #[test]
    fn every_position_reads_back_under_its_one_name() {
        use crate::obs::{ObsMode, ObsSeries};
        use std::collections::BTreeSet;

        let counters = [
            "matches",
            "notifications.messages",
            "notifications.delivered",
            "notifications.duplicate",
            "notifications.misrouted",
            "store.insert",
            "store.duplicate-delivery",
            "requests.subscribe",
            "requests.unsubscribe",
            "requests.publish",
            "requests.refresh",
            "replicas.stored",
            "replicas.promoted",
            "state-transfer.adopted",
            "routing.ttl-drop",
        ];
        let series = [
            "notifications.batch-size",
            "lookup.hops",
            "dilation.subscription",
            "dilation.publication",
            "dilation.notification",
            "dilation.collect",
            "dilation.maintenance",
            "dilation.state-transfer",
            "dilation.other",
            "keys.per-subscription",
            "keys.per-publication",
        ];
        let sampled = ["queue.depth", "store.size", "rendezvous.fanout"];
        let names = |all: &[&'static str]| all.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(names(&Counter::ALL.map(Counter::name)), names(&counters));
        assert_eq!(names(&Series::ALL.map(Series::name)), names(&series));
        assert_eq!(names(&ObsSeries::ALL.map(ObsSeries::name)), names(&sampled));
        let lens = (Counter::ALL.len(), Series::ALL.len(), ObsSeries::ALL.len());
        assert_eq!(lens, (counters.len(), series.len(), sampled.len()));
        let every = names(&[&counters[..], &series, &sampled].concat());
        assert_eq!(every.len(), counters.len() + series.len() + sampled.len());

        let classes = [
            TrafficClass::SUBSCRIPTION,
            TrafficClass::PUBLICATION,
            TrafficClass::NOTIFICATION,
            TrafficClass::COLLECT,
            TrafficClass::MAINTENANCE,
            TrafficClass::STATE_TRANSFER,
            TrafficClass::OTHER,
            TrafficClass(6),
        ];
        for class in classes {
            let want = match class.0 {
                0..=5 => format!("dilation.{}", class.name()),
                _ => "dilation.other".to_owned(),
            };
            assert_eq!(Series::dilation(class).name(), want);
        }

        let fresh = Metrics::new();
        let mut cleared = Metrics::new();
        cleared.obs_mut().set_mode(ObsMode::Stages);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            cleared.bump(c, i as u64 + 7);
        }
        for (i, s) in Series::ALL.into_iter().enumerate() {
            cleared.record(s, i as u64 + 7);
        }
        for s in ObsSeries::ALL {
            cleared.obs_mut().sample(s, 7);
        }
        cleared.clear();
        for mut m in [fresh, cleared] {
            m.obs_mut().set_mode(ObsMode::Stages);
            for (i, name) in counters.into_iter().enumerate() {
                assert_eq!(m.counter(name), 0, "{name}");
                m.bump(Counter::by_name(name), i as u64 + 1);
                assert_eq!(m.counter(name), i as u64 + 1, "{name}");
            }
            for (i, name) in series.into_iter().enumerate() {
                assert!(m.histogram(name).is_none(), "{name}");
                m.record(Series::by_name(name), i as u64);
                m.record(Series::by_name(name), 100);
                let h = m.histogram(name).expect("recorded");
                assert_eq!(h.iter().collect::<Vec<_>>(), [(i as u64, 1), (100, 1)]);
            }
            for (i, name) in sampled.into_iter().enumerate() {
                assert!(m.obs().named_histogram(name).is_none(), "{name}");
                m.obs_mut().sample(ObsSeries::by_name(name), i as u64);
                let h = m.obs().named_histogram(name).expect("sampled");
                assert_eq!((h.len(), h.max()), (1, Some(i as u64)), "{name}");
            }
            let read: Vec<_> = m.obs().named_histograms().map(|(name, _)| name).collect();
            assert_eq!(read, sampled);
        }
    }

    #[test]
    #[should_panic(expected = "no counter is named \"notifications.misroute\"")]
    fn an_unknown_name_panics() {
        let _ = Metrics::new().counter("notifications.misroute");
    }
}
