//! The timing wheel's event order, pinned end to end.
//!
//! The wheel reproduces a binary heap's `(time, seq)` pop order *exactly*,
//! so a workload executes one history: the same upcalls in the same order
//! at the same times, the same RNG draw sequence (event order drives RNG
//! consumption, so one transposed pop desyncs everything downstream), the
//! same metrics, and the same sampled queue statistics. These tests run
//! seeded storm workloads — zero-delay local cascades, same-timestamp
//! bursts, timer storms, crash/revive mid-run, `run_until` boundaries that
//! stop between events, and long-horizon timers that land in every wheel
//! level — and pin each run's events, queue peak, end time and upcall-log
//! digest to the values the heap and the wheel both produced while the
//! simulator could run either. The heap itself stays as the wheel's model
//! in `wheel.rs`'s `interleaved_push_pop_matches_heap`.

mod storm;

use cbps_sim::{SimDuration, SimTime, Simulator};
use storm::{fingerprint, seed_workload, Ping, StormNode};

fn build(seed: u64) -> Simulator<StormNode> {
    storm::build(seed)
}

/// Each storm's pin is what the heap and the wheel both produced for it.
#[test]
fn storm_runs_identically_under_both_schedulers() {
    let pinned = [
        (
            1u64,
            (10_193, 1_041, 11_203_050_000, 3_177_106_863_944_761_218),
        ),
        (7, (8_104, 880, 14_803_350_000, 1_585_145_871_655_745_224)),
        (
            0xC0FFEE,
            (14_829, 1_507, 11_232_700_000, 6_550_333_372_258_735_855),
        ),
    ];
    for (seed, pin) in pinned {
        let mut sim = build(seed);
        seed_workload(&mut sim);
        sim.run();
        let fp = fingerprint(&sim);
        assert_eq!(
            fp.pin(),
            pin,
            "seed {seed}: (events, peak, end µs, log digest)"
        );
        assert!(fp.events > 1_000, "storm too small to be meaningful");
    }
}

#[test]
fn run_until_boundaries_and_crash_revive_are_identical() {
    let mut sim = build(42);
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
    let fp = fingerprint(&sim);
    assert_eq!(
        fp.pin(),
        (6_362, 812, 11_230_950_000, 17_972_045_289_202_331_841)
    );
    // Crashed node 5 stayed down: sends to it must have failed somewhere.
    assert!(
        fp.trace.iter().any(|&(.., tag)| tag == "send-failed"),
        "expected at least one failed send after the crash"
    );
}

#[test]
fn long_horizon_timers_cross_every_wheel_level() {
    let mut sim = build(1234);
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
    let fp = fingerprint(&sim);
    assert_eq!(
        fp.pin(),
        (207, 5, 2_004_004_750_000, 7_013_054_699_544_807_210)
    );
    assert!(
        fp.end_time >= SimTime::from_secs(2_000_000),
        "far-future timer never fired"
    );
    assert!(fp.timers_fired >= 12);
}
