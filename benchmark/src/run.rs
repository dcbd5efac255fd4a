//! One repeat of a workload on a fresh deployment, and the correctness
//! gate over what it delivered.
//!
//! The load is closed-loop in host time (the next trace operation is
//! injected when the simulated clock reaches its due time) and open-loop in
//! simulated time (operations are due at their trace timestamps whatever
//! the system is doing; simulated latency counts from the due time).

use std::collections::HashMap;
use std::time::Instant;

use cbps::{Event, EventId, PubSubNetwork, SubId, Subscription};
use cbps_overlay::Key;
use cbps_sim::{ObsMode, SimDuration, SimTime, TrafficClass};
use cbps_workload::{Op, OpKind, Trace};

use crate::probe::{HostProbe, HostSpeed, Section};
use crate::spans::{Spans, NO_OP};
use crate::stats::percentile;
use crate::workloads::{Spec, Timed, PHASE_DRAIN_SECS, REPLAY_DRAIN_SECS};

/// Cumulative counts kept by the program, read between phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub msgs_sub: u64,
    pub msgs_pub: u64,
    /// `NOTIFICATION` plus `COLLECT` one-hop messages.
    pub msgs_notify: u64,
    pub store_inserts: u64,
    pub matches: u64,
    /// Store match calls (one per publication arriving at a rendezvous).
    pub match_calls: u64,
    pub notify_msgs: u64,
    pub delivered: u64,
    pub duplicates_dropped: u64,
}

impl Counts {
    fn read(net: &mut PubSubNetwork) -> Counts {
        let events = net.sim_mut().events_processed();
        let work: u64 = net.rendezvous_work_counts().iter().sum();
        let m = net.metrics();
        let matches = m.counter("matches");
        Counts {
            events,
            msgs_sub: m.messages(TrafficClass::SUBSCRIPTION),
            msgs_pub: m.messages(TrafficClass::PUBLICATION),
            msgs_notify: m.messages(TrafficClass::NOTIFICATION) + m.messages(TrafficClass::COLLECT),
            store_inserts: m.counter("store.insert"),
            matches,
            // A node's work is one per publication handled plus its matches.
            match_calls: work - matches,
            notify_msgs: m.counter("notifications.messages"),
            delivered: m.counter("notifications.delivered"),
            duplicates_dropped: m.counter("notifications.duplicate"),
        }
    }

    fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            events: self.events - earlier.events,
            msgs_sub: self.msgs_sub - earlier.msgs_sub,
            msgs_pub: self.msgs_pub - earlier.msgs_pub,
            msgs_notify: self.msgs_notify - earlier.msgs_notify,
            store_inserts: self.store_inserts - earlier.store_inserts,
            matches: self.matches - earlier.matches,
            match_calls: self.match_calls - earlier.match_calls,
            notify_msgs: self.notify_msgs - earlier.notify_msgs,
            delivered: self.delivered - earlier.delivered,
            duplicates_dropped: self.duplicates_dropped - earlier.duplicates_dropped,
        }
    }
}

/// The simulated metrics of a repeat. With a fixed seed they repeat run
/// after run, traced or not; [`SimMetrics::repeats`] is the determinism
/// check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMetrics {
    pub hops_per_sub: f64,
    pub hops_per_pub: f64,
    pub notify_hops_per_pub: f64,
    pub stored_max: u64,
    pub stored_top1pct: f64,
    pub stored_mean: f64,
    pub load_max_over_mean: f64,
    pub load_top1pct_over_mean: f64,
    pub notify_latency_ms_p50: f64,
    pub notify_latency_ms_p99: f64,
    pub events: u64,
    pub queue_peak: u64,
    pub delivered_fingerprint: u64,
}

/// How far a simulated metric may move between replays that are not
/// bit-exact (see `Spec::replays_exactly`): a hundredth of a percent, fifty
/// times tighter than the tightest regression bound.
const REPLAY_TOLERANCE: f64 = 1e-4;

impl SimMetrics {
    /// `true` when `self` reproduces `other`: the delivered set always
    /// exactly, everything else exactly or within [`REPLAY_TOLERANCE`].
    pub fn repeats(&self, other: &SimMetrics, exactly: bool) -> bool {
        if exactly {
            return self == other;
        }
        let close = |a: f64, b: f64| (a - b).abs() <= REPLAY_TOLERANCE * a.abs().max(b.abs());
        self.delivered_fingerprint == other.delivered_fingerprint
            && self.stored_max == other.stored_max
            && close(self.hops_per_sub, other.hops_per_sub)
            && close(self.hops_per_pub, other.hops_per_pub)
            && close(self.notify_hops_per_pub, other.notify_hops_per_pub)
            && close(self.stored_top1pct, other.stored_top1pct)
            && close(self.stored_mean, other.stored_mean)
            && close(self.load_max_over_mean, other.load_max_over_mean)
            && close(self.load_top1pct_over_mean, other.load_top1pct_over_mean)
            && close(self.notify_latency_ms_p50, other.notify_latency_ms_p50)
            && close(self.notify_latency_ms_p99, other.notify_latency_ms_p99)
            && close(self.events as f64, other.events as f64)
    }
}

#[derive(Debug)]
pub struct Repeat {
    pub gen_s: f64,
    /// Wall of the subscription phase (0 on a replayed trace).
    pub sub_phase_s: f64,
    /// Wall of the publication phase (0 on a replayed trace).
    pub pub_phase_s: f64,
    pub setup_s: f64,
    pub timed_s: f64,
    /// `setup_s` and `timed_s` at the reference host speed, see
    /// [`Section::at_reference`].
    pub setup_ref_s: f64,
    pub timed_ref_s: f64,
    /// The probe's reading over the timed section.
    pub host: HostSpeed,
    /// Counts accrued inside the timed section.
    pub timed: Counts,
    pub total: Counts,
    pub batch_mean: f64,
    pub sim: SimMetrics,
    /// The key arc `(predecessor, own]` of the node that stored the most
    /// subscriptions.
    pub hot_arc: (Key, Key),
    /// Ids in trace order, with each publication's due time.
    pub sub_ids: Vec<SubId>,
    pub pub_ids: Vec<(EventId, SimTime)>,
    /// Every delivered `(subscription, event)` pair, sorted.
    pub delivered: Vec<(SubId, EventId)>,
    pub trace: Trace,
    /// The deployment, kept only by a traced repeat for the `obs` metrics.
    pub net: Option<PubSubNetwork>,
}

impl Repeat {
    /// Releases what only the correctness gate needs: the trace and the
    /// delivered set.
    pub fn drop_evidence(&mut self) {
        self.delivered = Vec::new();
        self.trace = Trace::default();
    }
}

/// Feeds trace operations to the deployment at their due times.
struct Driver<'a> {
    net: &'a mut PubSubNetwork,
    spans: &'a mut Spans,
    probe: &'a mut HostProbe,
    sub_ids: Vec<SubId>,
    pub_ids: Vec<(EventId, SimTime)>,
}

impl Driver<'_> {
    fn advance(&mut self, to: SimTime, op: u32) {
        self.spans.scope("run_until", op, || self.net.run_until(to));
    }

    fn sample_host(&mut self) {
        self.spans
            .scope("host_probe", NO_OP, || self.probe.sample());
    }

    fn issue(&mut self, idx: u32, op: Op, due: SimTime) {
        self.advance(due, idx);
        match op.kind {
            OpKind::Subscribe { sub, ttl } => {
                let id = self.spans.scope("subscribe", idx, || {
                    self.net
                        .subscribe(op.node, sub, ttl)
                        .expect("trace operations target valid nodes")
                });
                self.sub_ids.push(id);
            }
            OpKind::Publish { event } => {
                let id = self.spans.scope("publish", idx, || {
                    self.net
                        .publish(op.node, event)
                        .expect("trace operations target valid nodes")
                });
                self.pub_ids.push((id, due));
            }
        }
    }

    /// Issues `ops` at the due times `due_of` gives them, then runs `drain`
    /// past the last one; returns the host seconds all of it took. The
    /// phase is cut into [`SLICES`] by operation count and the host probe
    /// samples between them, outside the phase's wall.
    fn phase(
        &mut self,
        ops: Vec<(u32, Op)>,
        due_of: impl Fn(&Op) -> SimTime,
        drain: SimDuration,
    ) -> Section {
        let per_slice = ops.len().div_ceil(SLICES).max(1);
        let mut wall_s = 0.0;
        let mut last = self.net.now();
        self.sample_host();
        let mut slice_start = Instant::now();
        for (n, (idx, op)) in ops.into_iter().enumerate() {
            last = due_of(&op);
            self.issue(idx, op, last);
            if (n + 1) % per_slice == 0 {
                wall_s += slice_start.elapsed().as_secs_f64();
                self.sample_host();
                slice_start = Instant::now();
            }
        }
        self.advance(last + drain, NO_OP);
        wall_s += slice_start.elapsed().as_secs_f64();
        self.sample_host();
        Section {
            wall_s,
            host: self.probe.take(),
        }
    }
}

/// Slices a phase is cut into for the host probe.
const SLICES: usize = 100;
/// Probe samples taken in a row around generation and build, which offer
/// no slices.
const SETUP_BURST: u32 = 4;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Generates the trace and builds a deployment sized for it; returns the
/// seconds generation took, and generation and build together.
fn set_up(
    spec: &Spec,
    seed: u64,
    obs: ObsMode,
    spans: &mut Spans,
    probe: &mut HostProbe,
) -> (f64, Section, Trace, PubSubNetwork) {
    let mut sample_host =
        |spans: &mut Spans| spans.scope("host_probe", NO_OP, || probe.burst(SETUP_BURST));
    sample_host(spans);
    let (gen_s, trace) = timed(|| spans.scope("gen_trace", NO_OP, || spec.gen_trace(seed)));
    sample_host(spans);
    let (build_s, net) = timed(|| {
        spans.scope("build", NO_OP, || {
            let mut net = spec.build(obs);
            net.reserve_workload(spec.subs);
            net
        })
    });
    sample_host(spans);
    let gen_and_build = Section {
        wall_s: gen_s + build_s,
        host: probe.take(),
    };
    (gen_s, gen_and_build, trace, net)
}

/// One more sample of `setup_s`, at the reference host speed, for a
/// workload whose set-up is generation and build only.
pub fn time_setup(spec: &Spec, seed: u64, probe: &mut HostProbe) -> f64 {
    debug_assert!(!spec.installs_in_setup());
    release_freed_memory();
    let (_, gen_and_build, ..) = set_up(spec, seed, ObsMode::Off, &mut Spans::disabled(), probe);
    gen_and_build.at_reference()
}

/// Hands the heap memory freed so far back to the system, so that every
/// repeat starts where a fresh process does. Without it a repeat inherits
/// the fragmented free lists of the one before, and what the allocator
/// makes of them is a lottery: set-up of `route` took 0.4, 0.8 or 1.9 s on
/// the same host minutes apart, and 0.70–0.72 s with it.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time; the system allocator under `CountingAlloc` is glibc's.
        unsafe { malloc_trim(0) };
    }
}

/// Runs one repeat. Spans are recorded when `spans` is enabled; `obs` is
/// the deployment's observability mode.
pub fn run_repeat(
    spec: &Spec,
    seed: u64,
    obs: ObsMode,
    spans: &mut Spans,
    probe: &mut HostProbe,
) -> Repeat {
    release_freed_memory();
    spans.enter("repeat", NO_OP);
    let (gen_s, gen_and_build, trace, mut net) = set_up(spec, seed, obs, spans, probe);

    // Owned operations, so the replay moves each one into the program
    // instead of cloning it inside a timed section.
    let ops: Vec<(u32, Op)> = (0..).zip(trace.ops().iter().cloned()).collect();

    let mut driver = Driver {
        net: &mut net,
        spans,
        probe,
        sub_ids: Vec::with_capacity(spec.subs),
        pub_ids: Vec::with_capacity(spec.pubs),
    };
    let (mut sub_phase, mut pub_phase) = (Section::default(), Section::default());
    let (timed_section, timed_counts);
    if spec.timed == Timed::Replay {
        let before = Counts::read(driver.net);
        let drain = SimDuration::from_secs(REPLAY_DRAIN_SECS);
        timed_section = driver.phase(ops, |op| op.at, drain);
        timed_counts = Counts::read(driver.net).since(&before);
    } else {
        let drain = SimDuration::from_secs(PHASE_DRAIN_SECS);
        let (subs, pubs): (Vec<_>, Vec<_>) = ops
            .into_iter()
            .partition(|(_, op)| matches!(op.kind, OpKind::Subscribe { .. }));
        let before_subs = Counts::read(driver.net);
        sub_phase = driver.phase(subs, |op| op.at, drain);
        let before_pubs = Counts::read(driver.net);
        // Publications keep their original gaps, shifted to start where
        // the subscription phase ended.
        let base = driver.net.now();
        let first = pubs.first().map_or(SimTime::ZERO, |(_, op)| op.at);
        pub_phase = driver.phase(pubs, |op| base + op.at.saturating_since(first), drain);
        let after = Counts::read(driver.net);
        if spec.timed == Timed::SubPhase {
            timed_section = sub_phase;
            timed_counts = before_pubs.since(&before_subs);
        } else {
            timed_section = pub_phase;
            timed_counts = after.since(&before_pubs);
        }
    }
    let Driver {
        sub_ids, pub_ids, ..
    } = driver;

    let (mut setup_s, mut setup_ref_s) = (gen_and_build.wall_s, gen_and_build.at_reference());
    if spec.installs_in_setup() {
        setup_s += sub_phase.wall_s;
        setup_ref_s += sub_phase.at_reference();
    }
    let total = Counts::read(&mut net);
    let (delivered, latencies, fingerprint) =
        spans.scope("delivered_scan", NO_OP, || scan_delivered(&net, &pub_ids));
    let sim = sim_metrics(spec, &mut net, &total, latencies, fingerprint);
    let hot_arc = hottest_arc(&net);
    let batch_mean = net
        .metrics()
        .histogram("notifications.batch-size")
        .map_or(1.0, |h| h.mean());
    spans.exit();
    Repeat {
        gen_s,
        sub_phase_s: sub_phase.wall_s,
        pub_phase_s: pub_phase.wall_s,
        setup_s,
        timed_s: timed_section.wall_s,
        setup_ref_s,
        timed_ref_s: timed_section.at_reference(),
        host: timed_section.host,
        timed: timed_counts,
        total,
        batch_mean,
        sim,
        hot_arc,
        sub_ids,
        pub_ids,
        delivered,
        trace,
        net: obs.enabled().then_some(net),
    }
}

/// Collects what every subscriber received: the sorted `(sub, event)`
/// pairs, each delivery's simulated latency in µs from its publication's
/// due time, and an FNV-1a fingerprint of the pairs.
fn scan_delivered(
    net: &PubSubNetwork,
    pub_ids: &[(EventId, SimTime)],
) -> (Vec<(SubId, EventId)>, Vec<u64>, u64) {
    let due: HashMap<EventId, SimTime> = pub_ids.iter().copied().collect();
    let mut pairs = Vec::new();
    let mut latencies = Vec::new();
    for node in 0..net.len() {
        for note in net.delivered(node) {
            pairs.push((note.sub_id, note.event_id));
            if let Some(&due) = due.get(&note.event_id) {
                latencies.push(note.at.saturating_since(due).as_micros());
            }
        }
    }
    pairs.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(sub, event) in &pairs {
        for byte in sub.0.to_le_bytes().into_iter().chain(event.0.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    (pairs, latencies, hash)
}

/// Mean over the most loaded 1 % of the nodes (at least one node). A
/// maximum over nodes is one node's luck and jumps from seed to seed — on
/// 100 000 nodes holding at most six subscriptions it is 4, 5 or 6; the
/// mean over the hot tail moves with the same causes and is steady.
fn top_percent_mean(per_node: &[u64]) -> f64 {
    let mut sorted = per_node.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top = &sorted[..per_node.len().div_ceil(100).min(sorted.len())];
    top.iter().sum::<u64>() as f64 / top.len().max(1) as f64
}

fn hottest_arc(net: &PubSubNetwork) -> (Key, Key) {
    let peaks = net.peak_stored_counts();
    // The first of the nodes that share the maximum, so the choice repeats.
    let hottest = (0..peaks.len())
        .rev()
        .max_by_key(|&i| peaks[i])
        .unwrap_or(0);
    let ring = net.ring();
    let me = ring
        .peers()
        .iter()
        .find(|p| p.idx == hottest)
        .expect("every node is on the ring");
    (ring.predecessor(me.key).key, me.key)
}

fn sim_metrics(
    spec: &Spec,
    net: &mut PubSubNetwork,
    total: &Counts,
    mut latencies: Vec<u64>,
    fingerprint: u64,
) -> SimMetrics {
    let peaks: Vec<u64> = net
        .peak_stored_counts()
        .into_iter()
        .map(|p| p as u64)
        .collect();
    let work = net.rendezvous_work_counts();
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let (stored_mean, work_mean) = (mean(&peaks), mean(&work));
    let over_mean = |v: f64| if work_mean > 0.0 { v / work_mean } else { 0.0 };
    latencies.sort_unstable();
    let ms = |p: f64| percentile(&latencies, p).map_or(0.0, |us| us / 1e3);
    SimMetrics {
        hops_per_sub: total.msgs_sub as f64 / spec.subs as f64,
        hops_per_pub: total.msgs_pub as f64 / spec.pubs as f64,
        notify_hops_per_pub: total.msgs_notify as f64 / spec.pubs as f64,
        stored_max: peaks.iter().copied().max().unwrap_or(0),
        stored_top1pct: top_percent_mean(&peaks),
        stored_mean,
        load_max_over_mean: over_mean(work.iter().copied().max().unwrap_or(0) as f64),
        load_top1pct_over_mean: over_mean(top_percent_mean(&work)),
        notify_latency_ms_p50: ms(50.0),
        notify_latency_ms_p99: ms(99.0),
        events: total.events,
        queue_peak: net.sim_mut().queue_peak() as u64,
        delivered_fingerprint: fingerprint,
    }
}

/// What the correctness gate found.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Verdict {
    /// Pairs the system had to deliver (the strict set).
    pub expected_pairs: u64,
    /// Strict pairs that were not delivered.
    pub missed: u64,
    /// Delivered pairs whose subscription does not match the event.
    pub spurious: u64,
    /// Pairs delivered more than once.
    pub duplicates: u64,
    pub oracle_s: f64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.missed + self.spurious + self.duplicates
    }
}

/// A publication counts toward the strict set of a subscription only when
/// it is due at least this long after the subscription was issued and
/// before it expires: closer than that, whether the two meet at the
/// rendezvous depends on routing delay.
const STRICT_MARGIN: SimDuration = SimDuration::from_secs(2);

/// Subscriptions flattened to one `[lo, hi]` pair per dimension (a wildcard
/// is the whole domain), so that brute force over every live pair stays
/// cheap. Matching here uses nothing of the program but the constraint
/// bounds.
struct FlatSubs {
    dims: usize,
    bounds: Vec<(u64, u64)>,
}

impl FlatSubs {
    fn new(dims: usize) -> Self {
        FlatSubs {
            dims,
            bounds: Vec::new(),
        }
    }

    fn push(&mut self, sub: &Subscription) {
        debug_assert_eq!(sub.dims(), self.dims);
        self.bounds.extend(
            sub.constraints()
                .iter()
                .map(|c| c.map_or((0, u64::MAX), |c| (c.lo(), c.hi()))),
        );
    }

    #[inline]
    fn matches(&self, i: usize, event: &Event) -> bool {
        self.bounds[i * self.dims..(i + 1) * self.dims]
            .iter()
            .zip(event.values())
            .all(|(&(lo, hi), &v)| lo <= v && v <= hi)
    }
}

/// Compares a repeat's delivered set against brute force: no pair outside
/// the loose set (σ matches e), every pair of the strict set delivered,
/// no pair twice.
pub fn verify(repeat: &Repeat) -> Verdict {
    let start = Instant::now();
    struct Sub {
        id: SubId,
        issued: SimTime,
        expires: SimTime,
    }
    let dims = repeat.trace.ops().iter().find_map(|op| match &op.kind {
        OpKind::Publish { event } => Some(event.dims()),
        OpKind::Subscribe { .. } => None,
    });
    let mut flat = FlatSubs::new(dims.unwrap_or(0));
    let mut subs: Vec<Sub> = Vec::new();
    let mut events: Vec<&Event> = Vec::new();
    for op in repeat.trace.ops() {
        match &op.kind {
            OpKind::Subscribe { sub, ttl } => {
                flat.push(sub);
                subs.push(Sub {
                    id: repeat.sub_ids[subs.len()],
                    issued: op.at,
                    expires: ttl.map_or(SimTime::MAX, |d| op.at + d),
                });
            }
            OpKind::Publish { event } => events.push(event),
        }
    }
    let delivered = &repeat.delivered;

    let duplicates = delivered.windows(2).filter(|w| w[0] == w[1]).count() as u64;

    let sub_of: HashMap<SubId, usize> = subs.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let event_of: HashMap<EventId, &Event> = repeat
        .pub_ids
        .iter()
        .zip(&events)
        .map(|(&(id, _), &e)| (id, e))
        .collect();
    let spurious = delivered
        .iter()
        .filter(|(sid, eid)| match (sub_of.get(sid), event_of.get(eid)) {
            (Some(&i), Some(event)) => !flat.matches(i, event),
            _ => true,
        })
        .count() as u64;

    // Publications are in due-time order and subscriptions in issue order,
    // so the subscriptions that can be live at a publication are one
    // contiguous window that only moves forward.
    let (mut expected_pairs, mut missed) = (0u64, 0u64);
    let lapsed =
        |s: &Sub, due: SimTime| s.expires != SimTime::MAX && due + STRICT_MARGIN > s.expires;
    let (mut first, mut next) = (0, 0);
    for (&(eid, due), &event) in repeat.pub_ids.iter().zip(&events) {
        while next < subs.len() && subs[next].issued + STRICT_MARGIN <= due {
            next += 1;
        }
        while first < next && lapsed(&subs[first], due) {
            first += 1;
        }
        for (i, sub) in subs.iter().enumerate().take(next).skip(first) {
            if flat.matches(i, event) && !lapsed(sub, due) {
                expected_pairs += 1;
                if delivered.binary_search(&(sub.id, eid)).is_err() {
                    missed += 1;
                }
            }
        }
    }
    Verdict {
        expected_pairs,
        missed,
        spurious,
        duplicates,
        oracle_s: start.elapsed().as_secs_f64(),
    }
}
