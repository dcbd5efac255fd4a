//! Model-based property test of the rendezvous store: a random sequence
//! of insert / remove / purge / match operations is applied both to the
//! real [`SubscriptionStore`] and to a naive reference model, and every
//! observable must agree — down to what a match hit says about its
//! subscriber and row.
//!
//! Originally a `proptest` suite; now a plain seeded loop over
//! `cbps-rng` so the workspace tests with zero external crates.

use std::collections::HashMap;

use cbps::{AttributeDef, Event, EventSpace, StoredSub, SubId, Subscription, SubscriptionStore};
use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
use cbps_rng::Rng;
use cbps_sim::{SimTime, TraceId};

#[derive(Clone, Debug)]
enum Op {
    Insert {
        id: u64,
        lo: u64,
        hi: u64,
        expires: Option<u64>,
    },
    Remove {
        id: u64,
    },
    Purge {
        at: u64,
    },
    Match {
        value: u64,
        at: u64,
    },
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0u32..4) {
        0 => {
            let id = rng.gen_range(0u64..20);
            let lo = rng.gen_range(0u64..900);
            let w = rng.gen_range(0u64..100);
            let expires = if rng.gen_bool(0.5) {
                Some(rng.gen_range(1u64..500))
            } else {
                None
            };
            Op::Insert {
                id,
                lo,
                hi: (lo + w).min(999),
                expires,
            }
        }
        1 => Op::Remove {
            id: rng.gen_range(0u64..20),
        },
        2 => Op::Purge {
            at: rng.gen_range(0u64..600),
        },
        _ => Op::Match {
            value: rng.gen_range(0u64..1000),
            at: rng.gen_range(0u64..600),
        },
    }
}

/// The naive model: a map of live records with explicit expiry filtering.
#[derive(Default)]
struct Model {
    live: HashMap<u64, (u64, u64, u64)>, // id -> (lo, hi, expires_secs or MAX)
    peak: usize,
}

impl Model {
    fn purge(&mut self, at: u64) {
        self.live.retain(|_, &mut (_, _, e)| e > at);
    }
}

#[test]
fn store_matches_naive_model() {
    let mut rng = Rng::seed_from_u64(0x0005_703e_cafe);
    for case in 0..128 {
        let ops: Vec<Op> = {
            let n = rng.gen_range(1usize..120);
            (0..n).map(|_| random_op(&mut rng)).collect()
        };
        check_against_model(case, &ops);
    }
}

fn check_against_model(case: usize, ops: &[Op]) {
    let space = EventSpace::new(vec![AttributeDef::new("x", 1000)]);
    let mut store = SubscriptionStore::new(&space);
    let mut model = Model::default();
    let mut match_buf = Vec::new();
    // Operations are applied at non-decreasing times; track a clock so
    // purge/match times never go backwards (matching real usage).
    let mut clock = 0u64;

    for op in ops.iter().cloned() {
        match op {
            Op::Insert {
                id,
                lo,
                hi,
                expires,
            } => {
                let expires_at = expires.map(|d| clock + d);
                let held = Held {
                    lo,
                    hi,
                    expires: expires_at.unwrap_or(u64::MAX),
                    tag: 0,
                };
                let stored = record(&space, held);
                let fresh = store.insert(SubId(id), stored, SimTime::from_secs(clock));
                model.purge(clock);
                let model_fresh = !model.live.contains_key(&id);
                assert_eq!(
                    fresh, model_fresh,
                    "case {case}: insert freshness for id {id}"
                );
                let e = expires_at.unwrap_or(u64::MAX);
                if model_fresh {
                    model.live.insert(id, (lo, hi, e));
                    model.peak = model.peak.max(model.live.len());
                } else if let Some(rec) = model.live.get_mut(&id) {
                    rec.2 = e; // duplicate insert refreshes the expiry
                }
            }
            Op::Remove { id } => {
                let got = store.remove(SubId(id)).is_some();
                let expect = model.live.remove(&id).is_some();
                assert_eq!(got, expect, "case {case}: remove {id}");
            }
            Op::Purge { at } => {
                clock = clock.max(at);
                store.purge_expired(SimTime::from_secs(clock));
                model.purge(clock);
                assert_eq!(
                    store.len(),
                    model.live.len(),
                    "case {case}: len after purge"
                );
            }
            Op::Match { value, at } => {
                clock = clock.max(at);
                store.match_event_into(
                    &Event::new_unchecked(vec![value]),
                    SimTime::from_secs(clock),
                    &mut match_buf,
                );
                model.purge(clock);
                let mut got: Vec<u64> = match_buf.iter().map(|(id, ..)| id.0).collect();
                got.sort_unstable();
                let mut expect: Vec<u64> = model
                    .live
                    .iter()
                    .filter(|(_, &(lo, hi, _))| lo <= value && value <= hi)
                    .map(|(&id, _)| id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "case {case}: match at value {value}");
            }
        }
    }
    // Final invariants.
    assert_eq!(store.len(), model.live.len(), "case {case}: final len");
    assert!(
        store.peak() >= model.peak,
        "case {case}: real peak may only exceed the model's (sweeps are lazier)"
    );
}

/// What the model keeps per live id in [`record_table_churn`]: the range,
/// the expiry in seconds (`u64::MAX` = never) and a tag carried as the
/// subscriber's index, which tells which record the store holds and whom
/// its row says to notify.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Held {
    lo: u64,
    hi: u64,
    expires: u64,
    tag: u64,
}

fn record(space: &EventSpace, held: Held) -> StoredSub {
    let keys = KeySpace::new(8);
    StoredSub {
        sub: Subscription::builder(space)
            .range("x", held.lo, held.hi)
            .unwrap()
            .build()
            .unwrap(),
        subscriber: Peer {
            idx: held.tag as usize,
            key: keys.key(1),
        },
        expires: match held.expires {
            u64::MAX => SimTime::MAX,
            secs => SimTime::from_secs(secs),
        },
        sk: KeyRangeSet::of_key(keys, keys.key(2)),
        trace: TraceId::NONE,
        subgroups: 0,
    }
}

/// The record table under churn: fresh inserts, lease refreshes through
/// all three arms (same expiry: dropped; same record with a new expiry:
/// adopted; a different record: only its expiry taken), removals, purges
/// and matches, with ids drawn from a pool small enough that rows and ids
/// are recycled all the time — and with them the slots the engine knows
/// its entries by, each time for another shape. After every operation the
/// store must agree with a `BTreeMap` on `len`, `peak`, `get`, `iter` and —
/// when asked — the match set, each hit naming the subscriber and the row
/// of the record the model holds, and `matched_record` handing out that
/// record by the hit's row.
#[test]
fn record_table_churn() {
    let space = EventSpace::new(vec![AttributeDef::new("x", 1000)]);
    let mut rng = Rng::seed_from_u64(0x7ab1_e0f5);
    for case in 0..48 {
        let mut store = SubscriptionStore::new(&space);
        let mut model: std::collections::BTreeMap<u64, Held> = Default::default();
        let mut peak = 0;
        let mut clock = 0u64;
        let mut next_tag = 1u64;
        let mut matched = Vec::new();
        let mut arms = [0usize; 3];
        for step in 0..400 {
            let ctx = format!("case {case} step {step}");
            clock += rng.gen_range(0u64..4);
            let now = SimTime::from_secs(clock);
            let id = rng.gen_range(0u64..24);
            match rng.gen_range(0u32..10) {
                // Insert: fresh if the id is free, else a refresh
                // through one of the three arms.
                0..=4 => {
                    model.retain(|_, h| h.expires > clock);
                    let expires = match rng.gen_range(0u32..3) {
                        0 => u64::MAX,
                        _ => clock + rng.gen_range(1u64..60),
                    };
                    let incoming = match model.get(&id).copied() {
                        None => {
                            let lo = rng.gen_range(0u64..900);
                            next_tag += 1;
                            Held {
                                lo,
                                hi: lo + rng.gen_range(0u64..100),
                                expires,
                                tag: next_tag,
                            }
                        }
                        Some(held) => match rng.gen_range(0usize..3) {
                            0 => held,
                            1 => Held { expires, ..held },
                            _ => Held {
                                lo: 0,
                                hi: 999,
                                expires,
                                tag: 0,
                            },
                        },
                    };
                    let fresh = store.insert(SubId(id), record(&space, incoming), now);
                    assert_eq!(fresh, !model.contains_key(&id), "{ctx}");
                    match model.get_mut(&id) {
                        None => {
                            model.insert(id, incoming);
                            peak = peak.max(model.len());
                        }
                        Some(held) => {
                            let arm = if incoming == *held {
                                0
                            } else if incoming.tag == held.tag {
                                1
                            } else {
                                2
                            };
                            arms[arm] += 1;
                            held.expires = incoming.expires;
                        }
                    }
                }
                5 | 6 => {
                    let removed = store.remove(SubId(id)).is_some();
                    assert_eq!(removed, model.remove(&id).is_some(), "{ctx}");
                }
                7 => {
                    let before = model.len();
                    model.retain(|_, h| h.expires > clock);
                    assert_eq!(store.purge_expired(now), before - model.len(), "{ctx}");
                }
                _ => {
                    model.retain(|_, h| h.expires > clock);
                    let v = rng.gen_range(0u64..1000);
                    store.match_event_into(&Event::new_unchecked(vec![v]), now, &mut matched);
                    let got: Vec<u64> = matched.iter().map(|(id, ..)| id.0).collect();
                    let held = model.iter();
                    let expect: Vec<u64> = held
                        .filter(|(_, h)| h.lo <= v && v <= h.hi)
                        .map(|(&id, _)| id)
                        .collect();
                    assert_eq!(got, expect, "{ctx}: match at {v}");
                    for &(id, subscriber, row) in &matched {
                        let tag = model[&id.0].tag;
                        assert_eq!(subscriber.idx as u64, tag, "{ctx}: subscriber of {id}");
                        let rec = store.matched_record(row);
                        assert_eq!(rec.subscriber.idx as u64, tag, "{ctx}: handle of {id}");
                    }
                }
            }
            // A removal does not sweep, so lapsed records may linger
            // in both until the next operation that does.
            assert_eq!(store.len(), model.len(), "{ctx}");
            assert_eq!(store.peak(), peak, "{ctx}");
            let mut listed: Vec<(u64, Held)> = store
                .iter()
                .map(|(id, rec)| {
                    let c = rec.sub.constraint(0).expect("x is constrained");
                    let expires = match rec.expires {
                        SimTime::MAX => u64::MAX,
                        t => t.as_millis() / 1000,
                    };
                    let held = Held {
                        lo: c.lo(),
                        hi: c.hi(),
                        expires,
                        tag: rec.subscriber.idx as u64,
                    };
                    assert_eq!(store.get(id), Some(rec), "{ctx}: get {id}");
                    (id.0, held)
                })
                .collect();
            listed.sort_unstable_by_key(|&(id, _)| id);
            let expect: Vec<(u64, Held)> = model.iter().map(|(&id, &h)| (id, h)).collect();
            assert_eq!(listed, expect, "{ctx}: iter");
            for id in 0..24 {
                assert_eq!(store.contains(SubId(id)), model.contains_key(&id), "{ctx}");
            }
        }
        assert!(arms.iter().all(|&n| n > 5), "refresh arms taken: {arms:?}");
    }
}

/// `true` iff every event `inner` matches, `outer` matches too: on each
/// dimension `outer` is a wildcard or a range enclosing `inner`'s.
fn encloses(outer: &Subscription, inner: &Subscription) -> bool {
    (0..outer.dims()).all(|d| match (outer.constraint(d), inner.constraint(d)) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(o), Some(i)) => o.lo() <= i.lo() && i.hi() <= o.hi(),
    })
}

/// Matching against brute force over several dimensions: two to four
/// attributes with wildcards, domains small enough that identical shapes
/// from different subscribers, nested shapes and wider shapes arriving
/// after narrower ones are the rule, and leases that lapse and are
/// renewed. `match_event_into` must name exactly the live subscriptions
/// whose own shape `Subscription::matches` the event, in ascending id
/// order and with each one's subscriber: the engine's slot hits expanded
/// into `(id, subscriber, row)`.
#[test]
fn expansion_equals_brute_force_over_live_subscriptions() {
    let mut rng = Rng::seed_from_u64(0x51ab_b0d5);
    let keys = KeySpace::new(8);
    // Fresh inserts that found a live subscription of the same shape from
    // another subscriber, and ones that found a live strictly narrower
    // shape: the inputs a shared engine entry once special-cased.
    let (mut identical, mut wider_after) = (0, 0);
    for case in 0..36 {
        let dims = 2 + case % 3;
        let size = [6u64, 12, 40][case % 3];
        let attrs = (0..dims).map(|d| AttributeDef::new(format!("a{d}"), size));
        let space = EventSpace::new(attrs.collect());
        let mut store = SubscriptionStore::new(&space);
        // id → (shape, expiry in seconds, subscriber index)
        let mut model: std::collections::BTreeMap<u64, (Subscription, u64, usize)> =
            Default::default();
        let mut clock = 0u64;
        let mut matched = Vec::new();
        for step in 0..500 {
            let ctx = format!("case {case} step {step}");
            clock += rng.gen_range(0u64..3);
            let now = SimTime::from_secs(clock);
            let id = rng.gen_range(0u64..40);
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    model.retain(|_, h| h.1 > clock);
                    let expires = match rng.gen_range(0u32..3) {
                        0 => u64::MAX,
                        _ => clock + rng.gen_range(1u64..80),
                    };
                    // A stored id keeps its shape: the insert renews it.
                    let (sub, subscriber) = match model.get(&id) {
                        Some(held) => (held.0.clone(), held.2),
                        None => {
                            let mut b = Subscription::builder(&space);
                            for d in 0..dims {
                                if d > 0 && rng.gen_bool(0.4) {
                                    continue;
                                }
                                let lo = rng.gen_range(0..size);
                                let hi = match rng.gen_range(0u32..3) {
                                    0 => lo,
                                    _ => rng.gen_range(lo..size),
                                };
                                b = b.range(&format!("a{d}"), lo, hi).unwrap();
                            }
                            let sub = b.build().unwrap();
                            let others = model.values();
                            identical += usize::from(others.clone().any(|h| h.0 == sub));
                            wider_after += usize::from(
                                others
                                    .into_iter()
                                    .any(|h| h.0 != sub && encloses(&sub, &h.0)),
                            );
                            (sub, step)
                        }
                    };
                    let rec = StoredSub {
                        sub: sub.clone(),
                        subscriber: Peer {
                            idx: subscriber,
                            key: keys.key(1),
                        },
                        expires: match expires {
                            u64::MAX => SimTime::MAX,
                            secs => SimTime::from_secs(secs),
                        },
                        sk: KeyRangeSet::of_key(keys, keys.key(2)),
                        trace: TraceId::NONE,
                        subgroups: 0,
                    };
                    assert_eq!(store.insert(SubId(id), rec, now), !model.contains_key(&id));
                    model.insert(id, (sub, expires, subscriber));
                }
                5 | 6 => {
                    let held = model.remove(&id).is_some();
                    assert_eq!(store.remove(SubId(id)).is_some(), held, "{ctx}");
                }
                _ => {
                    model.retain(|_, h| h.1 > clock);
                    let values = (0..dims).map(|_| rng.gen_range(0..size));
                    let event = Event::new_unchecked(values.collect());
                    let live = model.iter();
                    let expect: Vec<(u64, usize)> = live
                        .filter(|(_, held)| held.0.matches(&event))
                        .map(|(&id, held)| (id, held.2))
                        .collect();
                    store.match_event_into(&event, now, &mut matched);
                    let hits = matched.iter();
                    let got: Vec<(u64, usize)> = hits.map(|(id, to, _)| (id.0, to.idx)).collect();
                    assert_eq!(got, expect, "{ctx}: {event:?}");
                }
            }
        }
    }
    assert!(
        identical > 100 && wider_after > 100,
        "the stream stored {identical} duplicate shapes and {wider_after} wider-after-narrower ones"
    );
}

/// Identical, nested and widening shapes on one dimension, each answering
/// for its own bounds only, by its own row: two subscribers' `[50, 60]`,
/// then `[40, 80]` and `[30, 90]` around them; the widest leaves, then one
/// of the identical pair, and a narrower `[52, 58]` takes over the row
/// freed last.
#[test]
fn nested_and_identical_shapes_answer_for_their_own_bounds() {
    let space = EventSpace::new(vec![AttributeDef::new("x", 1000)]);
    let held = |lo, hi, tag| Held {
        lo,
        hi,
        expires: u64::MAX,
        tag,
    };
    let mut store = SubscriptionStore::new(&space);
    let mut out = Vec::new();
    // (id, row) of each hit; every subscriber's index is its id.
    let mut hits = |store: &mut SubscriptionStore, v| {
        store.match_event_into(&Event::new_unchecked(vec![v]), SimTime::ZERO, &mut out);
        out.iter()
            .map(|&(id, to, row)| {
                assert_eq!(to.idx as u64, id.0);
                (id.0, row)
            })
            .collect::<Vec<_>>()
    };
    store.insert(SubId(1), record(&space, held(50, 60, 1)), SimTime::ZERO);
    store.insert(SubId(2), record(&space, held(50, 60, 2)), SimTime::ZERO);
    assert_eq!(hits(&mut store, 55), [(1, 0), (2, 1)]);
    store.insert(SubId(3), record(&space, held(40, 80, 3)), SimTime::ZERO);
    store.insert(SubId(4), record(&space, held(30, 90, 4)), SimTime::ZERO);
    assert_eq!(hits(&mut store, 55), [(1, 0), (2, 1), (3, 2), (4, 3)]);
    assert_eq!(hits(&mut store, 70), [(3, 2), (4, 3)]);
    assert_eq!(hits(&mut store, 85), [(4, 3)]);
    assert_eq!(hits(&mut store, 95), []);
    assert!(store.remove(SubId(4)).is_some());
    assert_eq!(hits(&mut store, 85), []);
    assert_eq!(hits(&mut store, 45), [(3, 2)]);
    assert!(store.remove(SubId(1)).is_some());
    store.insert(SubId(5), record(&space, held(52, 58, 5)), SimTime::ZERO);
    assert_eq!(hits(&mut store, 59), [(2, 1), (3, 2)]);
    assert_eq!(hits(&mut store, 55), [(2, 1), (3, 2), (5, 0)]);
}

/// A freed row goes to the next newcomer while the expiry heap still
/// holds the old tenant's deadline: that deadline must purge neither the
/// newcomer in the old tenant's row nor the old id stored again on a
/// longer lease. The row is also all the engine knows the entry by, so
/// the newcomer, of another shape, must answer for its own events there
/// and for none of the old tenant's.
#[test]
fn recycled_row_does_not_answer_for_its_previous_tenant() {
    let space = EventSpace::new(vec![AttributeDef::new("x", 1000)]);
    let mut store = SubscriptionStore::new(&space);
    let held = |lo, expires, tag| Held {
        lo,
        hi: lo + 10,
        expires,
        tag,
    };
    let mut out = Vec::new();
    let mut ids = |store: &mut SubscriptionStore, v| {
        store.match_event_into(&Event::new_unchecked(vec![v]), SimTime::ZERO, &mut out);
        out.iter()
            .map(|&(id, _, row)| (id.0, row))
            .collect::<Vec<_>>()
    };
    store.insert(SubId(1), record(&space, held(10, 5, 1)), SimTime::ZERO);
    assert_eq!(ids(&mut store, 15), [(1, 0)]);
    assert!(store.remove(SubId(1)).is_some());
    store.insert(
        SubId(2),
        record(&space, held(500, u64::MAX, 2)),
        SimTime::ZERO,
    );
    assert_eq!(ids(&mut store, 15), []);
    assert_eq!(ids(&mut store, 505), [(2, 0)], "the old tenant's row");
    store.insert(SubId(1), record(&space, held(10, 50, 3)), SimTime::ZERO);
    assert_eq!(ids(&mut store, 15), [(1, 1)]);
    assert_eq!(store.purge_expired(SimTime::from_secs(6)), 0);
    assert_eq!(store.get(SubId(2)).map(|r| r.subscriber.idx), Some(2));
    assert_eq!(store.get(SubId(1)).map(|r| r.subscriber.idx), Some(3));
    assert_eq!(store.purge_expired(SimTime::from_secs(50)), 1);
    assert_eq!(
        store.iter().map(|(id, _)| id).collect::<Vec<_>>(),
        [SubId(2)]
    );
    assert_eq!(ids(&mut store, 15), []);
    assert_eq!(ids(&mut store, 505), [(2, 0)]);
}

/// The same at scale: 1 500 unrelated shapes, every other one withdrawn,
/// their rows taken over by shapes elsewhere in the domain. Every old
/// shape's event must find nothing, every new one's exactly the newcomer,
/// by the row it took over. (`engine_differential.rs` holds the engines
/// themselves to the same slot reuse, the sorted index's post-flush
/// tombstones included.)
#[test]
fn recycled_engine_slots_answer_for_their_new_tenants_only() {
    let space = EventSpace::new(vec![AttributeDef::new("x", 1_000_000)]);
    let point = |v: u64, tag: u64| Held {
        lo: v,
        hi: v,
        expires: u64::MAX,
        tag,
    };
    let mut store = SubscriptionStore::new(&space);
    let mut out = Vec::new();
    let mut rows_of = |store: &mut SubscriptionStore, v: u64| {
        store.match_event_into(&Event::new_unchecked(vec![v]), SimTime::ZERO, &mut out);
        out.iter()
            .map(|&(id, to, row)| (id.0, to.idx, row))
            .collect::<Vec<_>>()
    };
    for i in 0..1500u64 {
        assert!(store.insert(SubId(i), record(&space, point(10 * i, i)), SimTime::ZERO));
    }
    for i in (0..1500u64).step_by(2) {
        assert!(store.remove(SubId(i)).is_some());
    }
    // Rows come off the free list last-freed first.
    for i in 0..750u64 {
        let stored = record(&space, point(500_000 + i, 2000 + i));
        assert!(store.insert(SubId(2000 + i), stored, SimTime::ZERO));
    }
    assert_eq!(store.len(), 1500);
    for i in 0..1500u64 {
        let expect = match i % 2 {
            0 => vec![],
            _ => vec![(i, i as usize, i as u32)],
        };
        assert_eq!(rows_of(&mut store, 10 * i), expect, "old shape {i}");
    }
    for i in 0..750u64 {
        let row = 2 * (749 - i) as u32;
        let expect = [(2000 + i, 2000 + i as usize, row)];
        assert_eq!(rows_of(&mut store, 500_000 + i), expect, "new shape {i}");
    }
}
