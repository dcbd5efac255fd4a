//! Simulation configuration: network delay model, loss injection, seed.

use crate::time::SimDuration;
use cbps_rng::Rng;

/// How long a one-hop message takes to travel between two nodes.
///
/// The paper fixes the delay to 50 ms; a uniform jitter model is provided
/// for robustness testing (the figure metrics count messages, not time, so
/// jitter does not change them — it only perturbs event ordering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Fixed(SimDuration),
    /// Delay drawn uniformly from `[min, max]` per message.
    Uniform {
        /// Smallest possible delay.
        min: SimDuration,
        /// Largest possible delay.
        max: SimDuration,
    },
}

impl DelayModel {
    /// Samples a delay for one message.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => {
                let lo = min.as_micros();
                let hi = max.as_micros().max(lo);
                SimDuration::from_micros(rng.gen_range(lo..=hi))
            }
        }
    }
}

impl Default for DelayModel {
    /// The paper's default: a fixed 50 ms per hop.
    fn default() -> Self {
        DelayModel::Fixed(SimDuration::from_millis(50))
    }
}

/// Which event-queue implementation drives a
/// [`Simulator`](crate::Simulator).
///
/// Both produce bit-identical runs — the wheel reproduces the heap's
/// `(time, seq)` pop order exactly (see [`crate::wheel`]) — so this knob
/// exists for A/B benchmarking and the scheduler equivalence suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel: O(1) amortized push/pop. The default.
    #[default]
    Wheel,
    /// Binary min-heap: O(log n) push/pop. The reference implementation.
    Heap,
}

impl SchedulerKind {
    /// Parses `"heap"` or `"wheel"` (as accepted by the CLI tools).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "wheel" => Some(SchedulerKind::Wheel),
            "heap" => Some(SchedulerKind::Heap),
            _ => None,
        }
    }

    /// The name [`SchedulerKind::parse`] accepts for this variant.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Wheel => "wheel",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// Which subscription-matching engine rendezvous nodes run.
///
/// Both engines produce identical match sets — the counting index is the
/// reference implementation and the sorted index must reproduce it exactly
/// (see the differential suites in `cbps-core`) — so this knob exists for
/// A/B benchmarking, mirroring [`SchedulerKind`]. Defined here because
/// [`NetConfig`] is the single source of deployment-wide knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum MatchEngineKind {
    /// Counting algorithm over per-dimension bucket lists (Fabret et al.).
    /// The default and the byte-identical oracle.
    #[default]
    Counting,
    /// Flat struct-of-arrays table, span-class sorted segments, linear
    /// early-exit scans. Built for 10^5–10^6 subscriptions per node.
    Sorted,
}

impl MatchEngineKind {
    /// Parses `"counting"` or `"sorted"` (as accepted by the CLI tools).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "counting" => Some(MatchEngineKind::Counting),
            "sorted" => Some(MatchEngineKind::Sorted),
            _ => None,
        }
    }

    /// The name [`MatchEngineKind::parse`] accepts for this variant.
    pub fn name(self) -> &'static str {
        match self {
            MatchEngineKind::Counting => "counting",
            MatchEngineKind::Sorted => "sorted",
        }
    }
}

/// Whether the in-flight event slab pool recycles freed slots
/// (see [`crate::pool`]).
///
/// Both modes produce bit-identical runs — recycling only changes *where*
/// in the slab an event payload lives, never the `(time, seq)` pop order —
/// so this knob exists for the pooled-vs-fresh determinism gate and the
/// allocation audit, mirroring [`SchedulerKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Freed slots go on a free list and are reused: steady-state event
    /// scheduling performs zero heap allocations. The default.
    #[default]
    Reuse,
    /// Every insert appends a fresh slot (the slab compacts only when it
    /// goes idle). The verification baseline: any observable difference
    /// from `Reuse` would indicate a recycling bug.
    Fresh,
}

impl PoolMode {
    /// Parses `"reuse"` or `"fresh"` (as accepted by the CLI tools).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reuse" => Some(PoolMode::Reuse),
            "fresh" => Some(PoolMode::Fresh),
            _ => None,
        }
    }

    /// The name [`PoolMode::parse`] accepts for this variant.
    pub fn name(self) -> &'static str {
        match self {
            PoolMode::Reuse => "reuse",
            PoolMode::Fresh => "fresh",
        }
    }
}

/// Top-level configuration for a [`Simulator`](crate::Simulator).
///
/// # Examples
///
/// ```
/// use cbps_sim::{NetConfig, SimDuration};
///
/// let cfg = NetConfig::new(42).with_loss_probability(0.01);
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Seed for the run's deterministic RNG.
    pub seed: u64,
    /// Per-message network delay model.
    pub delay: DelayModel,
    /// Probability in `[0, 1]` that any one-hop message is silently dropped.
    ///
    /// Zero by default; used only by failure-injection tests. Dropped
    /// messages still count as sent in the metrics (the sender paid for
    /// them).
    pub loss_probability: f64,
    /// Event-queue implementation (timing wheel by default).
    pub scheduler: SchedulerKind,
    /// Subscription-matching engine run by rendezvous nodes (counting
    /// index by default). Purely an implementation knob: both engines
    /// deliver identical notification sets.
    pub match_engine: MatchEngineKind,
    /// Always `1`, and read by nothing in this workspace: the sharded
    /// event loop it once sized is gone (DESIGN.md, "Sharded parallel
    /// engine (removed)"). It stays only because the frozen `benchmark/`
    /// crate copies it into its knob vector; the benchmark-only PR that
    /// drops it there drops it here.
    pub shards: usize,
    /// Slot-recycling policy of the in-flight event slab pool (reuse by
    /// default). Purely an implementation knob: both modes produce
    /// bit-identical runs.
    pub pool: PoolMode,
}

impl NetConfig {
    /// Configuration with the paper's defaults and the given seed.
    pub fn new(seed: u64) -> Self {
        NetConfig {
            seed,
            delay: DelayModel::default(),
            loss_probability: 0.0,
            scheduler: SchedulerKind::default(),
            match_engine: MatchEngineKind::default(),
            shards: 1,
            pool: PoolMode::default(),
        }
    }

    /// Replaces the delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Replaces the message-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_loss_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of [0, 1]"
        );
        self.loss_probability = p;
        self
    }

    /// Replaces the event-queue implementation.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the subscription-matching engine.
    pub fn with_match_engine(mut self, engine: MatchEngineKind) -> Self {
        self.match_engine = engine;
        self
    }

    /// Replaces the event-pool recycling policy.
    pub fn with_pool(mut self, pool: PoolMode) -> Self {
        self.pool = pool;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_constant() {
        let mut rng = Rng::seed_from_u64(1);
        let m = DelayModel::Fixed(SimDuration::from_millis(50));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(50));
        }
    }

    #[test]
    fn uniform_delay_within_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        let min = SimDuration::from_millis(10);
        let max = SimDuration::from_millis(20);
        let m = DelayModel::Uniform { min, max };
        for _ in 0..100 {
            let d = m.sample(&mut rng);
            assert!(d >= min && d <= max, "sampled {d} outside bounds");
        }
    }

    #[test]
    fn default_is_paper_delay() {
        assert_eq!(
            DelayModel::default(),
            DelayModel::Fixed(SimDuration::from_millis(50))
        );
        assert_eq!(NetConfig::default().loss_probability, 0.0);
    }

    #[test]
    fn scheduler_kind_parse_roundtrip() {
        assert_eq!(NetConfig::default().scheduler, SchedulerKind::Wheel);
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("bogus"), None);
    }

    #[test]
    fn match_engine_kind_parse_roundtrip() {
        assert_eq!(NetConfig::default().match_engine, MatchEngineKind::Counting);
        for kind in [MatchEngineKind::Counting, MatchEngineKind::Sorted] {
            assert_eq!(MatchEngineKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MatchEngineKind::parse("bogus"), None);
        let cfg = NetConfig::new(0).with_match_engine(MatchEngineKind::Sorted);
        assert_eq!(cfg.match_engine, MatchEngineKind::Sorted);
    }

    #[test]
    fn pool_mode_parse_roundtrip() {
        assert_eq!(NetConfig::default().pool, PoolMode::Reuse);
        for mode in [PoolMode::Reuse, PoolMode::Fresh] {
            assert_eq!(PoolMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(PoolMode::parse("bogus"), None);
        let cfg = NetConfig::new(0).with_pool(PoolMode::Fresh);
        assert_eq!(cfg.pool, PoolMode::Fresh);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn loss_probability_validated() {
        let _ = NetConfig::new(0).with_loss_probability(1.5);
    }

    #[test]
    fn shards_default_is_one() {
        assert_eq!(NetConfig::default().shards, 1);
    }
}
