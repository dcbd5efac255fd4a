//! Run-wide measurement: traffic-class message counters, named counters,
//! and compact histograms.
//!
//! The paper's evaluation reports two kinds of quantities: the **number of
//! one-hop messages sent in the system**, broken down by what the message is
//! for (subscription propagation, publication propagation, notifications,
//! …), and per-node state sizes. [`Metrics`] accumulates the former during a
//! run; the latter is sampled from node state by the harness.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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
            TrafficClass(n) => {
                // Classes defined by higher layers have no static name.
                let _ = n;
                "custom"
            }
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

/// Accumulated measurements for one simulation run.
///
/// Tracks one-hop message counts per [`TrafficClass`], free-form named
/// counters, and named histograms. All figure series in the experiment
/// harness are derived from a `Metrics` value plus per-node state sampling.
///
/// # Examples
///
/// ```
/// use cbps_sim::{Metrics, TrafficClass};
///
/// let mut m = Metrics::new();
/// m.count_message(TrafficClass::PUBLICATION);
/// m.add("events-published", 1);
/// m.histogram_mut("hops-per-lookup").record(3);
/// assert_eq!(m.messages(TrafficClass::PUBLICATION), 1);
/// assert_eq!(m.counter("events-published"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Metrics {
    messages: ClassCounts,
    /// Counter or histogram name → position in `counters` / `histograms`:
    /// a lookup hashes the name once and hands back an index, which
    /// (unlike a borrowed entry) can outlive the decision to insert. The
    /// [`Counter`] and [`Series`] handles *are* such indices, registered
    /// by `default()`, so updating through one looks nothing up.
    counter_slots: NameMap<usize>,
    counters: Vec<u64>,
    histogram_slots: NameMap<usize>,
    histograms: Vec<Histogram>,
    obs: Observability,
}

/// Handle to a counter bumped once per message or per match: a fixed
/// position in every [`Metrics`], so [`Metrics::bump`] neither hashes nor
/// compares a name. The counter reads by name like any other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(usize);

impl Counter {
    /// `"matches"`.
    pub const MATCHES: Counter = Counter(0);
    /// `"notifications.messages"`.
    pub const NOTIFICATIONS_MESSAGES: Counter = Counter(1);
    /// `"notifications.delivered"`.
    pub const NOTIFICATIONS_DELIVERED: Counter = Counter(2);
    /// `"notifications.duplicate"`.
    pub const NOTIFICATIONS_DUPLICATE: Counter = Counter(3);
    /// `"store.insert"`.
    pub const STORE_INSERT: Counter = Counter(4);

    const NAMES: [&'static str; 5] = [
        "matches",
        "notifications.messages",
        "notifications.delivered",
        "notifications.duplicate",
        "store.insert",
    ];
}

/// Handle to a histogram that takes a sample per message, as [`Counter`]
/// is to a counter; see [`Metrics::record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Series(usize);

impl Series {
    /// `"notifications.batch-size"`.
    pub const NOTIFICATIONS_BATCH_SIZE: Series = Series(0);
    /// `"lookup.hops"`.
    pub const LOOKUP_HOPS: Series = Series(1);

    /// The delivery-dilation histogram of a traffic class:
    /// `"dilation.subscription"` … `"dilation.state-transfer"` for the
    /// well-known classes, `"dilation.other"` for the rest.
    pub fn dilation(class: TrafficClass) -> Series {
        // The named classes are tags 0–5, in `NAMES` order.
        Series(2 + usize::from(class.0).min(6))
    }

    const NAMES: [&'static str; 9] = [
        "notifications.batch-size",
        "lookup.hops",
        "dilation.subscription",
        "dilation.publication",
        "dilation.notification",
        "dilation.collect",
        "dilation.maintenance",
        "dilation.state-transfer",
        "dilation.other",
    ];
}

/// Map keyed by counter or histogram name. The names are literals in the
/// workspace's code, never input, so SipHash's flooding resistance buys
/// nothing; what is updated per message goes through a [`Counter`] or
/// [`Series`] handle and never comes here. Never iterated, so its order
/// cannot show.
type NameMap<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// The hasher behind [`NameMap`]: one rotate-xor-multiply per eight bytes
/// of the name (the last word zero-padded: names that differ only in
/// trailing NULs share a hash and are told apart by the key comparison),
/// the high half of the product folded down on `finish` because the table
/// indexes with the low bits.
#[derive(Clone, Copy, Debug, Default)]
struct NameHasher(u64);

impl NameHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// `str` ends its bytes with one `0xff`.
    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
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

impl Default for Metrics {
    fn default() -> Self {
        let mut m = Metrics {
            messages: ClassCounts::default(),
            counter_slots: NameMap::default(),
            counters: Vec::new(),
            histogram_slots: NameMap::default(),
            histograms: Vec::new(),
            obs: Observability::default(),
        };
        for name in Counter::NAMES {
            slot_of(&mut m.counter_slots, &mut m.counters, name);
        }
        for name in Series::NAMES {
            slot_of(&mut m.histogram_slots, &mut m.histograms, name);
        }
        m
    }
}

/// The position `name` reads at, registered with an empty value if new.
fn slot_of<V: Default>(slots: &mut NameMap<usize>, values: &mut Vec<V>, name: &str) -> usize {
    if let Some(&slot) = slots.get(name) {
        return slot;
    }
    slots.insert(name.to_owned(), values.len());
    values.push(V::default());
    values.len() - 1
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

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = slot_of(&mut self.counter_slots, &mut self.counters, name);
        self.counters[slot] += delta;
    }

    /// Adds `delta` to a counter known by handle.
    #[inline]
    pub fn bump(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.0] += delta;
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_slots
            .get(name)
            .map_or(0, |&slot| self.counters[slot])
    }

    /// Mutable access to the named histogram, creating it if absent.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        let slot = slot_of(&mut self.histogram_slots, &mut self.histograms, name);
        &mut self.histograms[slot]
    }

    /// Records one sample in a histogram known by handle.
    #[inline]
    pub fn record(&mut self, series: Series, value: u64) {
        self.histograms[series.0].record(value);
    }

    /// The named histogram, if any samples were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let slot = self.histogram_slots.get(name)?;
        Some(&self.histograms[*slot]).filter(|h| !h.is_empty())
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
        m.add("x", 2);
        m.add("x", 3);
        assert_eq!(m.messages(TrafficClass::SUBSCRIPTION), 2);
        assert_eq!(m.messages(TrafficClass::PUBLICATION), 0);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
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

    /// Every handle updates the counter or histogram its name reads, on a
    /// fresh sink and a cleared one; a name nobody recorded
    /// under reads as absent even though its handle holds a position.
    #[test]
    fn handles_update_what_their_names_read() {
        let fresh = Metrics::new();
        let mut cleared = Metrics::new();
        cleared.add("x", 1);
        cleared.histogram_mut("hops").record(2);
        cleared.clear();
        for mut m in [fresh, cleared] {
            let counters = [
                Counter::MATCHES,
                Counter::NOTIFICATIONS_MESSAGES,
                Counter::NOTIFICATIONS_DELIVERED,
                Counter::NOTIFICATIONS_DUPLICATE,
                Counter::STORE_INSERT,
            ];
            for (i, (handle, name)) in counters.into_iter().zip(Counter::NAMES).enumerate() {
                assert_eq!(m.counter(name), 0);
                m.bump(handle, i as u64 + 1);
                m.add(name, 10);
                assert_eq!(m.counter(name), i as u64 + 11, "{name}");
            }
            let classes = [
                TrafficClass::SUBSCRIPTION,
                TrafficClass::PUBLICATION,
                TrafficClass::NOTIFICATION,
                TrafficClass::COLLECT,
                TrafficClass::MAINTENANCE,
                TrafficClass::STATE_TRANSFER,
                TrafficClass::OTHER,
            ];
            let series = [Series::NOTIFICATIONS_BATCH_SIZE, Series::LOOKUP_HOPS]
                .into_iter()
                .chain(classes.map(Series::dilation));
            for (i, (handle, name)) in series.zip(Series::NAMES).enumerate() {
                assert!(m.histogram(name).is_none(), "{name}");
                m.record(handle, i as u64);
                m.histogram_mut(name).record(100);
                let h = m.histogram(name).expect("recorded");
                assert_eq!(h.iter().collect::<Vec<_>>(), [(i as u64, 1), (100, 1)]);
            }
            assert_eq!(
                Series::dilation(TrafficClass(6)),
                Series::dilation(TrafficClass::OTHER)
            );
            for class in classes {
                let name = Series::NAMES[Series::dilation(class).0];
                assert_eq!(name, format!("dilation.{}", class.name()));
            }
            assert_eq!(m.counter("x"), 0);
            assert!(m.histogram("hops").is_none());
        }
    }

    /// Every counter and histogram name the workspace's code uses.
    const REAL_NAMES: [&str; 32] = [
        "matches",
        "notifications.delivered",
        "notifications.messages",
        "notifications.duplicate",
        "notifications.misrouted",
        "notifications.batch-size",
        "store.insert",
        "store.duplicate-delivery",
        "publish.duplicate-delivery",
        "requests.subscribe",
        "requests.unsubscribe",
        "requests.publish",
        "requests.refresh",
        "replicas.stored",
        "replicas.promoted",
        "state-transfer.adopted",
        "routing.ttl-drop",
        "lookup.hops",
        "keys.per-subscription",
        "keys.per-publication",
        "dilation.subscription",
        "dilation.publication",
        "dilation.notification",
        "dilation.collect",
        "dilation.maintenance",
        "dilation.state-transfer",
        "dilation.other",
        "timers.fired",
        "events-published",
        "hops-per-lookup",
        "hops",
        "x",
    ];

    /// The name hasher changes where a name lives, never what is read
    /// back under it: a seeded stream of `add`/`histogram_mut` calls over
    /// the real names against ordered-map models, read back by name —
    /// untouched names included — and again after `clear`.
    #[test]
    fn seeded_streams_over_the_real_names_read_back_by_name() {
        use cbps_rng::Rng;
        use std::hash::BuildHasher;

        let hashes: std::collections::BTreeSet<u64> = REAL_NAMES
            .iter()
            .map(|name| BuildHasherDefault::<NameHasher>::default().hash_one(name))
            .collect();
        assert_eq!(hashes.len(), REAL_NAMES.len(), "two real names collide");

        for seed in [1u64, 2, 0xc0ffee] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m = Metrics::new();
            let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
            let mut histograms: BTreeMap<&str, Histogram> = BTreeMap::new();
            for step in 0..20_000 {
                let name = REAL_NAMES[rng.gen_range(0..REAL_NAMES.len())];
                if rng.gen_bool(0.6) {
                    let delta = rng.gen_range(0u64..5);
                    m.add(name, delta);
                    *counters.entry(name).or_insert(0) += delta;
                } else {
                    let value = rng.gen_range(0u64..40);
                    m.histogram_mut(name).record(value);
                    histograms.entry(name).or_default().record(value);
                }
                if step % 997 == 0 {
                    for name in REAL_NAMES {
                        let want = counters.get(name).copied().unwrap_or(0);
                        assert_eq!(m.counter(name), want, "seed {seed} step {step}: {name:?}");
                        assert_eq!(m.histogram(name), histograms.get(name), "{name:?}");
                    }
                }
            }
            assert_eq!(m.counter("never.touched"), 0);
            assert!(m.histogram("never.touched").is_none());
            m.clear();
            for name in REAL_NAMES {
                assert_eq!(m.counter(name), 0);
                assert!(m.histogram(name).is_none());
            }
            m.add("matches", 3);
            assert_eq!(m.counter("matches"), 3);
        }
    }
}
