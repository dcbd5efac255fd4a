//! Heap-vs-wheel scheduler equivalence.
//!
//! The timing wheel claims to reproduce the binary heap's `(time, seq)`
//! pop order *exactly*, so any workload must execute bit-identically under
//! both schedulers: the same upcalls in the same order at the same times,
//! the same RNG draw sequence (event order drives RNG consumption, so one
//! transposed pop desyncs everything downstream), the same metrics, and
//! the same sampled queue statistics. These tests run seeded storm
//! workloads — zero-delay local cascades, same-timestamp bursts, timer
//! storms, crash/revive mid-run, `run_until` boundaries that stop between
//! events, and long-horizon timers that land in every wheel level — under
//! both schedulers and compare full execution fingerprints.

mod storm;

use cbps_sim::{SchedulerKind, SimDuration, SimTime, Simulator};
use storm::{fingerprint, seed_workload, Ping, StormNode};

fn build(kind: SchedulerKind, seed: u64) -> Simulator<StormNode> {
    storm::build(kind, seed)
}

#[test]
fn storm_runs_identically_under_both_schedulers() {
    for seed in [1u64, 7, 0xC0FFEE] {
        let mut fps = Vec::new();
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut sim = build(kind, seed);
            seed_workload(&mut sim);
            sim.run();
            fps.push(fingerprint(&sim));
        }
        assert!(
            fps[0] == fps[1],
            "seed {seed}: heap and wheel runs diverged:\n\
             heap:  events={} peak={} end={}\n\
             wheel: events={} peak={} end={}",
            fps[0].events,
            fps[0].queue_peak,
            fps[0].end_time,
            fps[1].events,
            fps[1].queue_peak,
            fps[1].end_time,
        );
        assert!(fps[0].events > 1_000, "storm too small to be meaningful");
    }
}

#[test]
fn run_until_boundaries_and_crash_revive_are_identical() {
    let mut fps = Vec::new();
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let mut sim = build(kind, 42);
        seed_workload(&mut sim);
        // Stop mid-flight at boundaries that fall between events, inside
        // the same-timestamp burst window, and exactly on a hop boundary.
        sim.run_until(SimTime::from_millis(50));
        sim.run_until(SimTime::from_micros(50_001));
        sim.crash(2);
        sim.crash(5);
        sim.run_until(SimTime::from_secs(2));
        sim.revive(2);
        // Re-seed the revived node so both halves keep exercising it.
        let t = sim.now() + SimDuration::from_millis(1);
        sim.inject_at(t, 2, Ping { ttl: 9, val: 9_999 });
        sim.run_until(SimTime::from_secs(500));
        sim.run();
        fps.push(fingerprint(&sim));
    }
    assert_eq!(fps[0], fps[1]);
    // Crashed node 5 stayed down: sends to it must have failed somewhere.
    assert!(
        fps[0].trace.iter().any(|&(.., tag)| tag == "send-failed"),
        "expected at least one failed send after the crash"
    );
}

#[test]
fn long_horizon_timers_cross_every_wheel_level() {
    let mut fps = Vec::new();
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let mut sim = build(kind, 1234);
        // Timers far beyond the fine wheel: L1 (~537 s window), L2
        // (~25 d window), and the far heap beyond that — plus a dense
        // cluster sharing one expiry instant.
        sim.arm_timer_at(SimTime::from_secs(100), 0, 3);
        sim.arm_timer_at(SimTime::from_secs(1_000), 1, 6);
        sim.arm_timer_at(SimTime::from_secs(200_000), 2, 9);
        sim.arm_timer_at(SimTime::from_secs(2_000_000), 3, 12);
        for i in 0..8u64 {
            sim.arm_timer_at(SimTime::from_secs(50), (i % 4) as usize, 100 + i);
        }
        sim.inject_at(SimTime::ZERO, 0, Ping { ttl: 6, val: 5 });
        sim.run();
        fps.push(fingerprint(&sim));
    }
    assert_eq!(fps[0], fps[1]);
    assert!(
        fps[0].end_time >= SimTime::from_secs(2_000_000),
        "far-future timer never fired"
    );
    assert!(fps[0].timers_fired >= 12);
}
