//! A probe of how fast the host runs right now.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! 15–30 % over tens of seconds to minutes — longer than a run, so no
//! median over repeats absorbs it, and a register-only loop drifts with the
//! workloads. The probe is a fixed piece of work whose cost is the host's
//! and not the program's: two chains of dependent loads,
//!
//! * **core**: through a 16 KB cycle, walked once to bring it into the
//!   first-level cache and then timed — the core's clock and the share of
//!   it a neighbour leaves;
//! * **memory**: through a 32 MB cycle, never the same entries twice in a
//!   run — the latency of a load that misses the core's own caches, which
//!   rises with the neighbours' memory traffic.
//!
//! A program is part core-bound and part memory-bound, so the host-speed
//! index is the geometric mean of the two readings, each relative to its
//! reference; see [`Section::at_reference`]. Over ten runs minutes apart
//! the core reading alone left a spread of 0.05–0.10 in the throughput of
//! the four workloads, the memory reading alone 0.03–0.14, their geometric
//! mean 0.03–0.07, from 0.07–0.19 as measured.
//!
//! Samples are taken between slices of a timed section (about a hundred
//! per section, 1.5 ms each) and kept out of its wall.

use std::hint::black_box;
use std::time::Instant;

/// What the probe reads on the host the baseline was taken on (2 cores of
/// a Xeon at 2.1 GHz, in a quiet minute). Host times are reported as if
/// the probe read this.
pub const REFERENCE: HostSpeed = HostSpeed {
    core_ns: 1.55,
    memory_ns: 300.0,
};

/// Entries of the core cycle: 4 096 `u32`, 16 KB.
const CORE_CYCLE: usize = 4 << 10;
/// Entries of the memory cycle: 8 Mi `u32`, 32 MB.
const MEMORY_CYCLE: usize = 8 << 20;
/// Timed steps of one sample through each cycle.
const CORE_STEPS: u32 = 200_000;
const MEMORY_STEPS: u32 = 4_000;

/// Mean cost of a dependent load, in ns, in the core's first-level cache and
/// past its caches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostSpeed {
    pub core_ns: f64,
    pub memory_ns: f64,
}

impl HostSpeed {
    /// How many times slower than [`REFERENCE`] the host ran: the geometric
    /// mean of the two readings' ratios.
    pub fn slowdown(&self) -> f64 {
        ((self.core_ns / REFERENCE.core_ns) * (self.memory_ns / REFERENCE.memory_ns)).sqrt()
    }
}

/// A permutation of `0..len` that is one cycle through all its entries:
/// Sattolo's shuffle (swap partner strictly below `i`) from a fixed
/// generator, so every run walks the same cycle.
fn single_cycle(len: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..len).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    next
}

/// Follows `next` for `steps` loads, each depending on the one before.
#[inline(never)]
fn walk(next: &[u32], from: u32, steps: u32) -> u32 {
    let mut at = from;
    for _ in 0..steps {
        at = next[at as usize];
    }
    black_box(at)
}

#[derive(Debug)]
pub struct HostProbe {
    core: Vec<u32>,
    memory: Vec<u32>,
    /// Where the memory walk stands; it carries on from sample to sample.
    memory_at: u32,
    sum: HostSpeed,
    samples: u32,
}

impl HostProbe {
    /// Megabytes the probe keeps resident, which the benchmark takes off
    /// the peak resident set it reports.
    pub const RESIDENT_MB: f64 = ((CORE_CYCLE + MEMORY_CYCLE) * 4) as f64 / (1 << 20) as f64;

    pub fn new() -> Self {
        HostProbe {
            core: single_cycle(CORE_CYCLE),
            memory: single_cycle(MEMORY_CYCLE),
            memory_at: 0,
            sum: HostSpeed::default(),
            samples: 0,
        }
    }

    /// Takes one sample.
    pub fn sample(&mut self) {
        walk(&self.core, 0, CORE_CYCLE as u32);
        let start = Instant::now();
        walk(&self.core, 0, CORE_STEPS);
        let between = Instant::now();
        self.memory_at = walk(&self.memory, self.memory_at, MEMORY_STEPS);
        let end = Instant::now();
        self.sum.core_ns += (between - start).as_nanos() as f64 / f64::from(CORE_STEPS);
        self.sum.memory_ns += (end - between).as_nanos() as f64 / f64::from(MEMORY_STEPS);
        self.samples += 1;
    }

    /// Takes `n` samples in a row, where a section offers no slices to put
    /// them between.
    pub fn burst(&mut self, n: u32) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Mean reading of the samples since the last call.
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn take(&mut self) -> HostSpeed {
        assert!(self.samples > 0, "no probe sample to read");
        let n = f64::from(self.samples);
        let mean = HostSpeed {
            core_ns: self.sum.core_ns / n,
            memory_ns: self.sum.memory_ns / n,
        };
        self.sum = HostSpeed::default();
        self.samples = 0;
        mean
    }
}

/// Host seconds of a section, with the probe's mean reading over it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Section {
    pub wall_s: f64,
    pub host: HostSpeed,
}

impl Section {
    /// The section's wall on a host where the probe reads [`REFERENCE`]:
    /// wall ÷ slowdown.
    pub fn at_reference(&self) -> f64 {
        self.wall_s / self.host.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry() {
        let next = single_cycle(1000);
        let (mut at, mut seen) = (0u32, vec![false; next.len()]);
        for _ in 0..next.len() {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, 0);
        assert_eq!(walk(&next, 0, next.len() as u32), 0);
    }

    #[test]
    fn take_averages_and_resets() {
        let mut probe = HostProbe::new();
        probe.burst(3);
        let reading = probe.take();
        assert!(
            reading.core_ns > 0.0 && reading.core_ns < 1e3,
            "{reading:?}"
        );
        assert!(reading.memory_ns >= reading.core_ns, "{reading:?}");
        probe.sample();
        assert!(probe.take().core_ns > 0.0);
        assert_eq!(HostProbe::RESIDENT_MB, 32.015625);
    }

    #[test]
    fn a_slow_host_scales_the_wall_down() {
        // Core twice as slow, memory eight times: four times slower.
        let host = HostSpeed {
            core_ns: 2.0 * REFERENCE.core_ns,
            memory_ns: 8.0 * REFERENCE.memory_ns,
        };
        assert!((host.slowdown() - 4.0).abs() < 1e-12);
        let section = Section { wall_s: 3.0, host };
        assert!((section.at_reference() - 0.75).abs() < 1e-12);
        assert_eq!(REFERENCE.slowdown(), 1.0);
    }
}
