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

/// The event queue a [`Simulator`](crate::Simulator) runs: always the one
/// binary heap (see [`crate::queue`]).
///
/// Read by nothing in this workspace. It stays, with [`NetConfig::pool`],
/// only because the frozen `benchmark/` crate copies its name into its knob
/// vector; the benchmark-only change that drops [`NetConfig::shards`]
/// (ROADMAP item 5) drops both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The binary heap, under the name of the timing wheel it replaced:
    /// the benchmark records `"scheduler": "wheel"`.
    #[default]
    Wheel,
}

impl SchedulerKind {
    /// The variant's name, as the benchmark reports it.
    pub fn name(self) -> &'static str {
        "wheel"
    }
}

/// A subscription-matching engine, by name.
///
/// Rendezvous nodes always run the flat table ([`MatchEngineKind::Counting`]);
/// no deployment selects an engine. The enum stays only because the frozen
/// `benchmark/` crate names both engines for its engine replay and copies
/// [`NetConfig::match_engine`] into its knob vector; ROADMAP item 2's
/// benchmark-only change removes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum MatchEngineKind {
    /// One flat table of per-dimension bounds, a row per stored entry,
    /// scanned in full for every event: the engine every store runs. It
    /// keeps the name `counting` of the counting algorithm (Fabret et al.)
    /// it replaced, because the benchmark crate names it so.
    #[default]
    Counting,
    /// Flat struct-of-arrays table, span-class sorted segments, linear
    /// early-exit scans: a library engine the benchmark measures.
    Sorted,
}

impl MatchEngineKind {
    /// The variant's name, as the benchmark reports it.
    pub fn name(self) -> &'static str {
        match self {
            MatchEngineKind::Counting => "counting",
            MatchEngineKind::Sorted => "sorted",
        }
    }
}

/// The slot policy of the in-flight event slab pool: always recycling
/// (see [`crate::pool`]).
///
/// Read by nothing in this workspace; kept for the frozen `benchmark/`
/// crate exactly as [`SchedulerKind`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Freed slots go on a free list and are reused: steady-state event
    /// scheduling performs zero heap allocations.
    #[default]
    Reuse,
}

impl PoolMode {
    /// The variant's name, as the benchmark reports it.
    pub fn name(self) -> &'static str {
        "reuse"
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
    /// Always [`SchedulerKind::Wheel`] (the binary heap, by its benchmark
    /// name); see [`SchedulerKind`].
    pub scheduler: SchedulerKind,
    /// Always [`MatchEngineKind::Counting`], and read by nothing in this
    /// workspace: it stays only because the frozen `benchmark/` crate
    /// copies it into its knob vector; ROADMAP item 2's benchmark-only
    /// change removes it.
    pub match_engine: MatchEngineKind,
    /// Always `1`, and read by nothing in this workspace: the sharded
    /// event loop it once sized is gone (DESIGN.md, "Sharded parallel
    /// engine (removed)"). It stays only because the frozen `benchmark/`
    /// crate copies it into its knob vector; the benchmark-only PR that
    /// drops it there drops it here.
    pub shards: usize,
    /// Always [`PoolMode::Reuse`]; see [`SchedulerKind`].
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
        // No parser is left: the one variant is the default and reports
        // the name the benchmark records.
        assert_eq!(NetConfig::default().scheduler, SchedulerKind::Wheel);
        assert_eq!(SchedulerKind::Wheel.name(), "wheel");
    }

    #[test]
    fn match_engine_kind_parse_roundtrip() {
        // As for `SchedulerKind`: no parser is left; every configuration
        // names the flat table, and both names are the benchmark's.
        assert_eq!(NetConfig::default().match_engine, MatchEngineKind::Counting);
        assert_eq!(MatchEngineKind::Counting.name(), "counting");
        assert_eq!(MatchEngineKind::Sorted.name(), "sorted");
    }

    #[test]
    fn pool_mode_parse_roundtrip() {
        // As for `SchedulerKind`: one variant, the default, with its name.
        assert_eq!(NetConfig::default().pool, PoolMode::Reuse);
        assert_eq!(PoolMode::Reuse.name(), "reuse");
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
