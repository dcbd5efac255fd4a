//! The §5.1 workload generator.
//!
//! "Experiments are conducted by generating and replaying subscriptions and
//! publications defined over a 4 attribute event space. … each constraint
//! in a subscription spans an independently chosen range that is generated
//! as a random number between 1 and X, wherein X is 3% of ATTR_MAX for
//! non-selective attributes and 0.1% for selective ones. … Ranges are
//! centered around a value that is chosen randomly following a uniform
//! distribution for non-selective attributes and a Zipf distribution for
//! selective ones. … subscriptions are injected at a regular rate of one
//! each 5s, while publications follow a Poisson process with the average of
//! 5s … matching probability is 0.5."

use std::collections::VecDeque;

use cbps::{Event, EventSpace, Subscription};
use cbps_rng::{Rng, Zipf};
use cbps_sim::{SimDuration, SimTime};

use crate::trace::{Op, OpKind, Trace};

/// Knobs of the paper's synthetic workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of nodes issuing operations (uniformly chosen per op).
    pub nodes: usize,
    /// Number of subscriptions to generate.
    pub subscriptions: usize,
    /// Number of publications to generate.
    pub publications: usize,
    /// Fixed inter-subscription period (paper: 5 s).
    pub sub_period: SimDuration,
    /// Mean of the exponential inter-publication time (paper: 5 s).
    pub pub_mean: SimDuration,
    /// Probability that a publication is generated to match at least one
    /// live subscription (paper: 0.5).
    pub matching_probability: f64,
    /// Subscription expiration; `None` = subscriptions never expire.
    pub sub_ttl: Option<SimDuration>,
    /// Which attributes are selective (length must equal the space's `d`).
    pub selective: Vec<bool>,
    /// Maximal constraint width as a fraction of the domain for
    /// non-selective attributes (paper: 3%).
    pub non_selective_frac: f64,
    /// Maximal constraint width for selective attributes (paper: 0.1%).
    pub selective_frac: f64,
    /// Zipf exponent for selective-attribute centers. The paper leaves the
    /// exponent unstated; 0.5 keeps the skew visible without letting a
    /// single hotspot key dominate the per-node maxima (EXPERIMENTS.md
    /// discusses the sensitivity).
    pub zipf_exponent: f64,
    /// Fraction of each subscription's dimensions left unconstrained
    /// (0.0 = the paper's fully-specified subscriptions).
    pub wildcard_probability: f64,
    /// Temporal locality of matching publications (§4.3.2: "consecutive
    /// events exhibit temporal locality"): consecutive matching events are
    /// seeded from the same subscription for streaks of this mean length.
    /// 1 = independent draws.
    pub seed_streak: u64,
    /// Number of extra flash-crowd publications injected as a mid-run
    /// burst (0 = no burst). Burst events draw their selective-attribute
    /// values from a Zipf distribution with exponent [`flash_alpha`],
    /// concentrating load on the rendezvous nodes of the hot values. The
    /// burst is appended after the base trace is generated, so the base
    /// operation sequence for a given seed is identical with and without
    /// it.
    ///
    /// [`flash_alpha`]: WorkloadConfig::flash_alpha
    pub flash_crowd: usize,
    /// Zipf exponent of the flash-crowd burst's attribute values. Higher
    /// values concentrate the burst on fewer hot keys (default 1.1).
    pub flash_alpha: f64,
    /// Time of the first operation.
    pub start: SimTime,
}

impl WorkloadConfig {
    /// The paper's defaults for a `d`-dimensional space with no selective
    /// attributes.
    pub fn paper_default(nodes: usize, d: usize) -> Self {
        WorkloadConfig {
            nodes,
            subscriptions: 1000,
            publications: 1000,
            sub_period: SimDuration::from_secs(5),
            pub_mean: SimDuration::from_secs(5),
            matching_probability: 0.5,
            sub_ttl: None,
            selective: vec![false; d],
            non_selective_frac: 0.03,
            selective_frac: 0.001,
            zipf_exponent: 0.5,
            wildcard_probability: 0.0,
            seed_streak: 1,
            flash_crowd: 0,
            flash_alpha: 1.1,
            start: SimTime::from_secs(1),
        }
    }

    /// Marks the first `k` attributes selective.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the dimension count.
    pub fn with_selective_attrs(mut self, k: usize) -> Self {
        assert!(
            k <= self.selective.len(),
            "more selective attributes than dimensions"
        );
        for (i, flag) in self.selective.iter_mut().enumerate() {
            *flag = i < k;
        }
        self
    }

    /// Sets the operation counts.
    pub fn with_counts(mut self, subscriptions: usize, publications: usize) -> Self {
        self.subscriptions = subscriptions;
        self.publications = publications;
        self
    }

    /// Sets the matching probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_matching_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "matching probability {p} out of [0, 1]"
        );
        self.matching_probability = p;
        self
    }

    /// Sets the subscription TTL.
    pub fn with_sub_ttl(mut self, ttl: Option<SimDuration>) -> Self {
        self.sub_ttl = ttl;
        self
    }

    /// Sets the per-dimension wildcard probability. The paper's
    /// subscriptions constrain every attribute (0.0); non-zero values
    /// model partially-specified subscriptions: a broadly-constrained
    /// subscription then encloses narrower ones.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_wildcard_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "wildcard probability {p} out of [0, 1]"
        );
        self.wildcard_probability = p;
        self
    }

    /// Sets the mean matching-event streak length (temporal locality).
    ///
    /// # Panics
    ///
    /// Panics if `streak` is zero.
    pub fn with_seed_streak(mut self, streak: u64) -> Self {
        assert!(streak > 0, "streak length must be positive");
        self.seed_streak = streak;
        self
    }

    /// Sets the flash-crowd burst size and Zipf exponent.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn with_flash_crowd(mut self, count: usize, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "flash-crowd exponent {alpha} must be positive"
        );
        self.flash_crowd = count;
        self.flash_alpha = alpha;
        self
    }
}

/// Generator producing subscriptions, events and full timed traces.
#[derive(Debug)]
pub struct WorkloadGen {
    space: EventSpace,
    cfg: WorkloadConfig,
    rng: Rng,
    /// Lazily-built Zipf table per selective attribute.
    zipfs: Vec<Option<Zipf>>,
}

impl WorkloadGen {
    /// Creates a generator with its own deterministic RNG.
    ///
    /// # Panics
    ///
    /// Panics if the selectivity flags' length differs from the space's
    /// dimensionality or the config's node count is zero.
    pub fn new(space: EventSpace, cfg: WorkloadConfig, seed: u64) -> Self {
        assert_eq!(
            cfg.selective.len(),
            space.dims(),
            "selectivity flags must cover every dimension"
        );
        assert!(cfg.nodes > 0, "workload needs at least one node");
        let zipfs = vec![None; space.dims()];
        WorkloadGen {
            space,
            cfg,
            rng: Rng::seed_from_u64(seed),
            zipfs,
        }
    }

    /// The event space.
    pub fn space(&self) -> &EventSpace {
        &self.space
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Generates one subscription per §5.1: per-dimension widths
    /// `~U[1, X_i]`, centers uniform or Zipf by selectivity.
    pub fn gen_subscription(&mut self) -> Subscription {
        loop {
            let mut constraints = Vec::with_capacity(self.space.dims());
            for i in 0..self.space.dims() {
                if self.cfg.wildcard_probability > 0.0
                    && self.rng.f64() < self.cfg.wildcard_probability
                {
                    constraints.push(None);
                    continue;
                }
                let size = self.space.attr(i).size();
                let frac = if self.cfg.selective[i] {
                    self.cfg.selective_frac
                } else {
                    self.cfg.non_selective_frac
                };
                let max_width = ((size as f64 * frac) as u64).max(1);
                let width = self.rng.gen_range(1..=max_width);
                let center = if self.cfg.selective[i] {
                    let zipf = {
                        // Split borrows: build table first, then sample.
                        if self.zipfs[i].is_none() {
                            let n = self.space.attr(i).size();
                            self.zipfs[i] = Some(Zipf::new(n, self.cfg.zipf_exponent));
                        }
                        self.zipfs[i].as_ref().expect("built above")
                    };
                    zipf.sample(&mut self.rng) - 1
                } else {
                    self.rng.gen_range(0..size)
                };
                let lo = center.saturating_sub(width / 2);
                let hi = (center + width.div_ceil(2)).min(size - 1);
                constraints.push(Some(
                    cbps::Constraint::range(lo, hi).expect("lo <= hi by construction"),
                ));
            }
            // All-wildcard draws (possible when wildcard_probability > 0)
            // are invalid subscriptions: redraw.
            if constraints.iter().any(Option::is_some) {
                return Subscription::from_constraints(&self.space, constraints)
                    .expect("generated constraints are valid");
            }
        }
    }

    /// Generates a uniformly random event.
    pub fn gen_random_event(&mut self) -> Event {
        let values = (0..self.space.dims())
            .map(|i| self.rng.gen_range(0..self.space.attr(i).size()))
            .collect();
        Event::new_unchecked(values)
    }

    /// Generates an event guaranteed to match `sub` (uniform within each
    /// constraint; uniform over the domain on wildcards).
    pub fn gen_matching_event(&mut self, sub: &Subscription) -> Event {
        let values = (0..self.space.dims())
            .map(|i| match sub.constraint(i) {
                Some(c) => self.rng.gen_range(c.lo()..=c.hi()),
                None => self.rng.gen_range(0..self.space.attr(i).size()),
            })
            .collect();
        Event::new_unchecked(values)
    }

    /// Generates the full timed trace: subscriptions at a fixed cadence,
    /// publications as a Poisson process, randomly interleaved; each
    /// publication matches a live subscription with the configured
    /// probability.
    pub fn gen_trace(&mut self) -> Trace {
        let mut ops = Vec::with_capacity(self.cfg.subscriptions + self.cfg.publications);

        // Subscription issue times: fixed cadence.
        let mut sub_times = Vec::with_capacity(self.cfg.subscriptions);
        let mut t = self.cfg.start;
        for _ in 0..self.cfg.subscriptions {
            sub_times.push(t);
            t += self.cfg.sub_period;
        }
        // Publication issue times: Poisson process.
        let mut pub_times = Vec::with_capacity(self.cfg.publications);
        let mut t = self.cfg.start;
        for _ in 0..self.cfg.publications {
            let gap = self.rng.exp(self.cfg.pub_mean.as_secs_f64());
            t += SimDuration::from_secs_f64(gap);
            pub_times.push(t);
        }

        // Generate in global time order so "live subscriptions" are exactly
        // those already issued and not yet expired.
        // `(expiry, sub)`, in issue order.
        let mut live: VecDeque<(SimTime, Subscription)> = VecDeque::new();
        // Temporal-locality state: the current seed subscription and how
        // many more matching events it should still produce.
        let mut streak: Option<(Subscription, u64)> = None;
        let (mut si, mut pi) = (0, 0);
        while si < sub_times.len() || pi < pub_times.len() {
            let take_sub = match (sub_times.get(si), pub_times.get(pi)) {
                (Some(st), Some(pt)) => st <= pt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_sub {
                let at = sub_times[si];
                si += 1;
                let sub = self.gen_subscription();
                let expiry = self.cfg.sub_ttl.map(|d| at + d).unwrap_or(SimTime::MAX);
                live.push_back((expiry, sub.clone()));
                ops.push(Op {
                    at,
                    node: self.rng.gen_range(0..self.cfg.nodes),
                    kind: OpKind::Subscribe {
                        sub,
                        ttl: self.cfg.sub_ttl,
                    },
                });
            } else {
                let at = pub_times[pi];
                pi += 1;
                // Subscriptions are issued in time order with one TTL, so
                // `live` is sorted by expiry and the lapsed ones are a
                // prefix (without TTLs every expiry is `SimTime::MAX` and
                // nothing ever lapses).
                while live.front().is_some_and(|(expiry, _)| *expiry <= at) {
                    live.pop_front();
                }
                let event = if !live.is_empty() && self.rng.f64() < self.cfg.matching_probability {
                    let seed = match streak.take() {
                        Some((sub, left)) if left > 0 => {
                            streak = Some((sub.clone(), left - 1));
                            sub
                        }
                        _ => {
                            let k = self.rng.gen_range(0..live.len());
                            let sub = live[k].1.clone();
                            if self.cfg.seed_streak > 1 {
                                streak = Some((sub.clone(), self.cfg.seed_streak - 1));
                            }
                            sub
                        }
                    };
                    self.gen_matching_event(&seed)
                } else {
                    self.gen_random_event()
                };
                ops.push(Op {
                    at,
                    node: self.rng.gen_range(0..self.cfg.nodes),
                    kind: OpKind::Publish { event },
                });
            }
        }

        // Flash-crowd burst: appended after the base trace so the base
        // RNG sequence — and therefore the base operations — are
        // byte-identical for the same seed whether or not a burst is
        // requested. `Trace::new` re-sorts by time, folding the burst
        // into the middle of the run.
        if self.cfg.flash_crowd > 0 {
            let end = ops.last().map(|o| o.at).unwrap_or(self.cfg.start);
            let span = end.saturating_since(self.cfg.start);
            let mid = self.cfg.start + SimDuration::from_secs_f64(span.as_secs_f64() / 2.0);
            let gap = SimDuration::from_millis(50);
            // Zipf tables over each attribute's domain at the burst
            // exponent; hot dimensions are the selective ones (falling
            // back to dimension 0 when none is marked selective).
            let hot: Vec<bool> = if self.cfg.selective.iter().any(|&s| s) {
                self.cfg.selective.clone()
            } else {
                let mut v = vec![false; self.space.dims()];
                v[0] = true;
                v
            };
            let flash_zipfs: Vec<Option<Zipf>> = (0..self.space.dims())
                .map(|i| hot[i].then(|| Zipf::new(self.space.attr(i).size(), self.cfg.flash_alpha)))
                .collect();
            let mut at = mid;
            for _ in 0..self.cfg.flash_crowd {
                let values = (0..self.space.dims())
                    .map(|i| match &flash_zipfs[i] {
                        Some(z) => z.sample(&mut self.rng) - 1,
                        None => self.rng.gen_range(0..self.space.attr(i).size()),
                    })
                    .collect();
                ops.push(Op {
                    at,
                    node: self.rng.gen_range(0..self.cfg.nodes),
                    kind: OpKind::Publish {
                        event: Event::new_unchecked(values),
                    },
                });
                at += gap;
            }
        }
        Trace::new(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(selective: usize) -> WorkloadGen {
        let space = EventSpace::paper_default();
        let cfg = WorkloadConfig::paper_default(100, 4)
            .with_selective_attrs(selective)
            .with_counts(200, 200);
        WorkloadGen::new(space, cfg, 42)
    }

    #[test]
    fn subscription_widths_respect_selectivity() {
        let mut g = gen(1);
        let max_sel = (1_000_001.0 * 0.001) as u64 + 1;
        let max_non = (1_000_001.0 * 0.03) as u64 + 1;
        for _ in 0..200 {
            let sub = g.gen_subscription();
            let c0 = sub.constraint(0).unwrap();
            let c1 = sub.constraint(1).unwrap();
            assert!(c0.span() <= max_sel + 1, "selective span {}", c0.span());
            assert!(c1.span() <= max_non + 1, "non-selective span {}", c1.span());
        }
    }

    #[test]
    fn selective_centers_are_skewed() {
        let space = EventSpace::paper_default();
        let mut cfg = WorkloadConfig::paper_default(100, 4).with_selective_attrs(1);
        cfg.zipf_exponent = 1.2; // strong skew so the shift is unmistakable
        let mut g = WorkloadGen::new(space, cfg, 42);
        // Zipf-centered constraints concentrate near value 0; uniform ones
        // have mean ≈ 500_000.
        let (mut sel_acc, mut non_acc) = (0u64, 0u64);
        let n = 300;
        for _ in 0..n {
            let sub = g.gen_subscription();
            sel_acc += sub.constraint(0).unwrap().lo();
            non_acc += sub.constraint(1).unwrap().lo();
        }
        let sel_mean = sel_acc / n;
        let non_mean = non_acc / n;
        assert!(
            sel_mean < non_mean / 4,
            "zipf mean {sel_mean} vs uniform mean {non_mean}"
        );
    }

    #[test]
    fn matching_events_match() {
        let mut g = gen(0);
        for _ in 0..100 {
            let sub = g.gen_subscription();
            let e = g.gen_matching_event(&sub);
            assert!(sub.matches(&e));
        }
    }

    #[test]
    fn trace_shape() {
        let mut g = gen(0);
        let trace = g.gen_trace();
        assert_eq!(trace.sub_count(), 200);
        assert_eq!(trace.pub_count(), 200);
        // Fixed cadence: last subscription at start + 199 * 5s.
        let subs: Vec<SimTime> = trace
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Subscribe { .. }))
            .map(|o| o.at)
            .collect();
        assert_eq!(subs[0], SimTime::from_secs(1));
        assert_eq!(
            subs[199],
            SimTime::from_secs(1) + SimDuration::from_secs(995)
        );
        // Poisson publications average ≈ 5 s apart.
        let pubs: Vec<SimTime> = trace
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Publish { .. }))
            .map(|o| o.at)
            .collect();
        let total = pubs.last().unwrap().saturating_since(SimTime::from_secs(1));
        let mean_gap = total.as_secs_f64() / 199.0;
        assert!(
            (2.5..10.0).contains(&mean_gap),
            "mean publication gap {mean_gap}"
        );
    }

    #[test]
    fn matching_probability_controls_hit_rate() {
        // With p = 1 every publication matches at least one live
        // subscription at generation time.
        let space = EventSpace::paper_default();
        let cfg = WorkloadConfig::paper_default(10, 4)
            .with_counts(50, 100)
            .with_matching_probability(1.0);
        let mut g = WorkloadGen::new(space, cfg, 7);
        let trace = g.gen_trace();
        let mut live: Vec<Subscription> = Vec::new();
        let mut matched = 0;
        let mut pubs = 0;
        for op in trace.ops() {
            match &op.kind {
                OpKind::Subscribe { sub, .. } => live.push(sub.clone()),
                OpKind::Publish { event } => {
                    pubs += 1;
                    if live.iter().any(|s| s.matches(event)) {
                        matched += 1;
                    }
                }
            }
        }
        // Publications before the first subscription cannot match.
        assert!(
            matched as f64 >= pubs as f64 * 0.8,
            "{matched}/{pubs} matched"
        );
    }

    #[test]
    fn wildcards_generated_when_requested() {
        let space = EventSpace::paper_default();
        let mut cfg = WorkloadConfig::paper_default(10, 4);
        cfg.wildcard_probability = 0.5;
        let mut g = WorkloadGen::new(space, cfg, 9);
        let mut wildcards = 0;
        for _ in 0..100 {
            let sub = g.gen_subscription();
            wildcards += sub.dims() - sub.constrained_count();
            assert!(sub.constrained_count() >= 1);
        }
        assert!(wildcards > 100, "expected ≈ 200 wildcards, got {wildcards}");
    }

    #[test]
    fn flash_crowd_extends_without_perturbing_base() {
        let space = EventSpace::paper_default();
        let base_cfg = WorkloadConfig::paper_default(20, 4)
            .with_selective_attrs(1)
            .with_counts(50, 100);
        let base = WorkloadGen::new(space.clone(), base_cfg.clone(), 11).gen_trace();
        let burst_cfg = base_cfg.with_flash_crowd(80, 1.1);
        let burst = WorkloadGen::new(space, burst_cfg, 11).gen_trace();

        assert_eq!(burst.pub_count(), base.pub_count() + 80);
        assert_eq!(burst.sub_count(), base.sub_count());
        // Every base op is present, unchanged, in the burst trace (the
        // burst only adds publications).
        let render = |t: &Trace| {
            t.ops()
                .iter()
                .map(|o| format!("{o:?}"))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let base_set = render(&base);
        let burst_set = render(&burst);
        assert!(base_set.is_subset(&burst_set));
        // The burst lands mid-run, not at the tail.
        let extra: Vec<_> = burst_set.difference(&base_set).collect();
        assert_eq!(extra.len(), 80);
        assert!(burst.end_time() <= base.end_time() + SimDuration::from_secs(5));
    }

    #[test]
    fn flash_crowd_values_are_skewed() {
        let space = EventSpace::paper_default();
        let cfg = WorkloadConfig::paper_default(20, 4)
            .with_selective_attrs(1)
            .with_counts(10, 10)
            .with_flash_crowd(300, 1.2);
        let base = WorkloadGen::new(space.clone(), cfg.clone(), 3).gen_trace();
        // Burst events concentrate dimension-0 values near zero compared
        // with the uniform mean of ~500k.
        let mut acc = 0u64;
        let mut n = 0u64;
        for op in base.ops() {
            if let OpKind::Publish { event } = &op.kind {
                acc += event.value(0);
                n += 1;
            }
        }
        let _ = space;
        assert!(n >= 300);
        assert!(acc / n < 250_000, "mean dim-0 value {}", acc / n);
    }

    #[test]
    fn determinism() {
        let a = {
            let mut g = gen(1);
            format!(
                "{:?}",
                g.gen_trace().ops().iter().take(5).collect::<Vec<_>>()
            )
        };
        let b = {
            let mut g = gen(1);
            format!(
                "{:?}",
                g.gen_trace().ops().iter().take(5).collect::<Vec<_>>()
            )
        };
        assert_eq!(a, b);
    }
}
