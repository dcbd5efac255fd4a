//! Differential tests against the brute-force [`Oracle`]: a seeded random
//! stream of subscribe / unsubscribe / publish operations is applied to a
//! [`SubscriptionStore`], and another to the two matching engines
//! ([`MatchIndex`], the one a store runs, and [`SortedIndex`]) directly;
//! every probe's match set must agree with the oracle's exactly. The
//! engines' layouts reorganize internal state only; any observable
//! difference is a correctness bug.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cbps::{
    AttributeDef, Event, EventSpace, MatchEngine, MatchEngineKind, MatchIndex, Oracle, SortedIndex,
    StoredSub, SubId, Subscription, SubscriptionStore,
};
use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
use cbps_rng::Rng;
use cbps_sim::{SimTime, TraceId};

fn space() -> EventSpace {
    EventSpace::new(vec![
        AttributeDef::new("x", 1000),
        AttributeDef::new("y", 200),
        AttributeDef::new("z", 50),
    ])
}

/// A random subscription mixing narrow and wide ranges with wildcards.
/// Wide ranges make nested shapes common; re-used shapes (drawn by the
/// caller from earlier subscriptions) make identical ones common.
fn random_sub(rng: &mut Rng, space: &EventSpace) -> Subscription {
    loop {
        let mut b = Subscription::builder(space);
        let mut constrained = false;
        for d in 0..space.dims() {
            if rng.gen_bool(0.4) {
                continue; // wildcard
            }
            let size = space.attr(d).size();
            let wide = rng.gen_bool(0.3);
            let max_w = if wide { size } else { (size / 10).max(1) };
            let w = rng.gen_range(0..max_w);
            let lo = rng.gen_range(0..size - w);
            b = b
                .range(space.attr(d).name(), lo, lo + w)
                .expect("bounds are in-domain");
            constrained = true;
        }
        if constrained {
            return b.build().expect("at least one constraint");
        }
    }
}

fn random_event(rng: &mut Rng, space: &EventSpace) -> Event {
    let values = (0..space.dims())
        .map(|d| rng.gen_range(0..space.attr(d).size()))
        .collect();
    Event::new_unchecked(values)
}

/// A stored record of `sub` for one subscriber, never expiring unless
/// `expires` says otherwise.
fn record(sub: Subscription, expires: SimTime) -> StoredSub {
    let keys = KeySpace::new(8);
    StoredSub {
        sub,
        subscriber: Peer {
            idx: 0,
            key: keys.key(1),
        },
        expires,
        sk: KeyRangeSet::of_key(keys, keys.key(2)),
        trace: TraceId::NONE,
        subgroups: 0,
    }
}

/// The benchmark's ways of building a store: `new`, and `with_options`
/// with the counting engine and the covering flag off and on. The flag is
/// ignored, so all three must hold the same subscriptions, agree with the
/// oracle on every probe and keep one physical entry per subscription.
const CONFIGS: [Option<bool>; 3] = [None, Some(false), Some(true)];

#[test]
fn engines_and_covering_match_the_oracle() {
    let space = space();
    let mut rng = Rng::seed_from_u64(0xd1ff_e4e2 ^ 0x0bad_cafe);

    for case in 0..16 {
        let mut stores: Vec<SubscriptionStore> = CONFIGS
            .iter()
            .map(|&covering| match covering {
                None => SubscriptionStore::new(&space),
                Some(c) => SubscriptionStore::with_options(&space, MatchEngineKind::Counting, c),
            })
            .collect();
        let mut oracle = Oracle::new();
        let mut shapes: Vec<Subscription> = Vec::new();
        let mut live: Vec<SubId> = Vec::new();
        let mut next_id = 0u64;
        let mut clock = 0u64;
        let mut out = Vec::new();
        let mut probes = 0usize;

        for _step in 0..1500 {
            clock += rng.gen_range(0u64..3);
            let now = SimTime::from_secs(clock);
            match rng.gen_range(0u32..100) {
                // Subscribe (sometimes an exact repeat of an earlier shape).
                0..=54 => {
                    let sub = if !shapes.is_empty() && rng.gen_bool(0.25) {
                        shapes[rng.gen_range(0..shapes.len() as u64) as usize].clone()
                    } else {
                        random_sub(&mut rng, &space)
                    };
                    shapes.push(sub.clone());
                    let expires = if rng.gen_bool(0.4) {
                        SimTime::from_secs(clock + rng.gen_range(1u64..200))
                    } else {
                        SimTime::MAX
                    };
                    let id = SubId(next_id);
                    next_id += 1;
                    for store in &mut stores {
                        let fresh = store.insert(id, record(sub.clone(), expires), now);
                        assert!(fresh, "case {case}: id {id:?} is never re-used");
                    }
                    oracle.add_sub(id, sub, now, expires);
                    live.push(id);
                }
                // Unsubscribe a random live id (possibly already expired:
                // the store purges it on its own, the oracle ignores it).
                55..=69 if !live.is_empty() => {
                    let pick = rng.gen_range(0..live.len() as u64) as usize;
                    let id = live.swap_remove(pick);
                    let removed: Vec<bool> =
                        stores.iter_mut().map(|s| s.remove(id).is_some()).collect();
                    assert!(
                        removed.iter().all(|&r| r == removed[0]),
                        "case {case}: stores disagree on removing {id:?}: {removed:?}"
                    );
                    oracle.remove_sub(id, now);
                    for store in &stores {
                        assert!(!store.contains(id), "case {case}: {id:?} outlived removal");
                    }
                }
                // Publish a probe event and compare every store's match set
                // against the brute-force oracle.
                _ => {
                    let event = random_event(&mut rng, &space);
                    let expected = oracle.matching_at(&event, now);
                    for (i, store) in stores.iter_mut().enumerate() {
                        store.match_event_into(&event, now, &mut out);
                        assert!(
                            out.is_sorted_by_key(|&(.., row)| row),
                            "case {case}: row order"
                        );
                        let mut got: Vec<SubId> = out.iter().map(|&(id, ..)| id).collect();
                        got.sort_unstable();
                        assert_eq!(
                            got, expected,
                            "case {case}: store {:?} diverged from the oracle at {now:?}",
                            CONFIGS[i]
                        );
                    }
                    probes += 1;
                }
            }
            let (len0, peak0) = (stores[0].len(), stores[0].peak());
            for (i, store) in stores.iter().enumerate() {
                assert_eq!(store.len(), len0, "case {case}: len of store {i}");
                assert_eq!(store.peak(), peak0, "case {case}: peak of store {i}");
                assert_eq!(store.physical_len(), store.len(), "case {case}: store {i}");
                assert!(store.len() <= store.peak(), "case {case}");
            }
        }
        assert!(
            probes > 100,
            "case {case}: degenerate op mix ({probes} probes)"
        );
    }
}

/// One broad subscription with many nested inside it, then the reverse: a
/// run of narrow subscriptions followed by wider ones enclosing them. Every
/// event, inside and outside the nested shapes, must find exactly what the
/// oracle finds, before and after the broad ones are withdrawn.
#[test]
fn nested_stream_matches_the_oracle() {
    let space = space();
    let mut rng = Rng::seed_from_u64(0xc0de_516e);
    let mut store = SubscriptionStore::new(&space);
    let mut oracle = Oracle::new();
    let x = |lo: u64, hi: u64| {
        Subscription::builder(&space)
            .range("x", lo, hi)
            .unwrap()
            .build()
            .unwrap()
    };
    let mut add = |store: &mut SubscriptionStore, id: u64, sub: Subscription| {
        assert!(store.insert(SubId(id), record(sub.clone(), SimTime::MAX), SimTime::ZERO));
        oracle.add_sub(SubId(id), sub, SimTime::ZERO, SimTime::MAX);
    };
    // The umbrella first, then 399 ranges inside it.
    add(&mut store, 0, x(0, 999));
    for i in 1..400u64 {
        let lo = rng.gen_range(0u64..900);
        add(&mut store, i, x(lo, lo + rng.gen_range(0u64..100)));
    }
    // Narrow ranges first, then wider ones around each.
    for i in 400..500u64 {
        let lo = rng.gen_range(100u64..800);
        add(&mut store, i, x(lo, lo + 10));
        add(&mut store, i + 100, x(lo - 50, lo + 60));
    }
    assert_eq!(store.len(), 600);
    let mut out = Vec::new();
    let mut probe = |store: &mut SubscriptionStore, oracle: &Oracle, phase: &str| {
        for v in (0..1000u64).step_by(7) {
            let event = Event::new_unchecked(vec![v, 0, 0]);
            store.match_event_into(&event, SimTime::ZERO, &mut out);
            assert!(out.is_sorted_by_key(|&(.., row)| row), "{phase}: row order");
            let mut got: Vec<SubId> = out.iter().map(|&(id, ..)| id).collect();
            got.sort_unstable();
            let expected = oracle.matching_at(&event, SimTime::ZERO);
            assert_eq!(got, expected, "{phase}: x = {v}");
        }
    };
    probe(&mut store, &oracle, "all stored");
    for id in [0].into_iter().chain(500..600u64) {
        assert!(store.remove(SubId(id)).is_some());
        oracle.remove_sub(SubId(id), SimTime::ZERO);
    }
    probe(&mut store, &oracle, "broad ones withdrawn");
}

/// An event inside `sub`: its lower corner on the dimensions it constrains,
/// anything on the others.
fn event_in(rng: &mut Rng, space: &EventSpace, sub: &Subscription) -> Event {
    let values = (0..space.dims()).map(|d| match sub.constraint(d) {
        Some(c) => c.lo(),
        None => rng.gen_range(0..space.attr(d).size()),
    });
    Event::new_unchecked(values.collect())
}

/// Drives `engine` with a seeded insert / remove / match stream and holds
/// every probe to the oracle. Slots are handed out as a store hands them
/// out: a removed entry's slot goes to the very next insert, for another
/// shape. A removal succeeds once and then reports the slot vacant, and an
/// insert into a live slot panics.
fn check_engine(mut engine: impl MatchEngine, seed: u64) {
    let space = space();
    let mut rng = Rng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    // Slot → (the id the oracle knows its tenant by, the tenant's shape).
    let mut tenants: Vec<Option<(SubId, Subscription)>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    let mut gone: Vec<Subscription> = Vec::new();
    let (mut reused, mut probes, mut refusals) = (0, 0, 0);
    let mut out = Vec::new();
    for step in 0..5000u64 {
        let now = SimTime::from_secs(step);
        // A bulk start, so that the sorted index has flushed its staging
        // rows into runs — where a removed entry lingers as a tombstone
        // while its slot is handed on — before anything is withdrawn.
        let op = if step < 1500 {
            0
        } else {
            rng.gen_range(0u32..10)
        };
        match op {
            0..=3 => {
                let sub = random_sub(&mut rng, &space);
                let slot = free.pop().unwrap_or_else(|| {
                    tenants.push(None);
                    tenants.len() as u32 - 1
                });
                reused += usize::from(tenants[slot as usize].is_some());
                let id = SubId(step);
                engine.insert(slot, sub.clone());
                oracle.add_sub(id, sub.clone(), now, SimTime::MAX);
                tenants[slot as usize] = Some((id, sub));
                live.push(slot);
            }
            4..=5 if !live.is_empty() => {
                let slot = live.swap_remove(rng.gen_range(0..live.len() as u64) as usize);
                let (id, sub) = tenants[slot as usize].clone().expect("a live slot");
                let len = engine.len();
                assert!(
                    engine.remove(slot),
                    "step {step}: slot {slot} was not removed"
                );
                assert!(
                    !engine.remove(slot),
                    "step {step}: slot {slot} removed twice"
                );
                assert_eq!(engine.len(), len - 1, "step {step}");
                oracle.remove_sub(id, now);
                gone.push(sub);
                free.push(slot);
            }
            _ => {
                // Half the probes land in a withdrawn shape: its tombstone
                // must not answer for the slot's new tenant.
                let event = match gone.len() {
                    n if n > 0 && rng.gen_bool(0.5) => {
                        let sub = &gone[rng.gen_range(0..n as u64) as usize];
                        event_in(&mut rng, &space, sub)
                    }
                    _ => random_event(&mut rng, &space),
                };
                engine.matches_into(&event, &mut out);
                assert!(out.windows(2).all(|w| w[0] < w[1]), "step {step}: {out:?}");
                let mut got: Vec<SubId> = out
                    .iter()
                    .map(|&slot| tenants[slot as usize].as_ref().expect("a live slot").0)
                    .collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    oracle.matching_at(&event, now),
                    "step {step}: {event:?}"
                );
                probes += 1;
            }
        }
        if step % 625 == 624 {
            // A second tenant for a live slot is refused before it changes
            // anything.
            let slot = live[step as usize % live.len()];
            let intruder = tenants[live[0] as usize].clone().expect("a live slot").1;
            let refused = catch_unwind(AssertUnwindSafe(|| engine.insert(slot, intruder)));
            assert!(
                refused.is_err(),
                "step {step}: slot {slot} took a second tenant"
            );
            refusals += 1;
        }
        assert_eq!(engine.len(), live.len(), "step {step}");
    }
    assert!(
        reused > 300 && probes > 1000 && refusals == 8,
        "{reused} slots reused, {probes} probes, {refusals} refusals"
    );
}

#[test]
fn engines_match_the_oracle() {
    for seed in [0x5107_e4e2, 0xf1a7_7ab1] {
        check_engine(MatchIndex::new(&space()), seed);
        check_engine(SortedIndex::new(&space()), seed);
    }
}
