//! The contract of [`Node::prefetch`]: when the event loop calls the hook,
//! and that calling it changes nothing.
//!
//! One [`PrefetchStage::Node`] call on the destination per `Send` that is
//! queued, carrying that message and the destination's index — none for a
//! message the loss draw dropped, none for a local hand-back or a timer —
//! and one [`PrefetchStage::Rows`] call, carrying nothing, per popped event
//! of any kind on the node the event is for, alive or crashed, under both
//! schedulers. A hook can only hint, so a run whose nodes count their
//! calls must record the same history as one whose nodes keep the default.

mod storm;

use std::cell::Cell;

use cbps_sim::{
    Context, NetConfig, Node, NodeIdx, PrefetchStage, SchedulerKind, SimDuration, SimTime,
    Simulator, TrafficClass,
};
use storm::{fingerprint, seed_workload, Ping, Storm, StormNode};

/// How a message travelled, stamped by the sender.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Via {
    Inject,
    Net,
    Local,
}

#[derive(Clone, Debug)]
struct Probe {
    via: Via,
    ttl: u8,
}

/// Counts hook calls per stage and, independently, everything the calls
/// are supposed to correspond to.
#[derive(Default)]
struct Counter {
    n: usize,
    me: NodeIdx,
    node_calls: Cell<u64>,
    rows_calls: Cell<u64>,
    /// Sum of the `ttl + 1` of the messages the node-stage calls carried.
    hinted: Cell<u64>,
    /// `on_message` + `on_timer` upcalls: the events popped for this node
    /// while it was alive.
    upcalls: u64,
    /// Messages received that were queued by a `Send`, and the sum of
    /// their `ttl + 1`.
    net_received: u64,
    net_received_sum: u64,
    /// Per destination: sends of ours that were queued and then refused,
    /// and the sum of their `ttl + 1`.
    refused_by: Vec<u64>,
    refused_sum_by: Vec<u64>,
}

impl Counter {
    fn new(n: usize, me: NodeIdx) -> Self {
        Counter {
            n,
            me,
            refused_by: vec![0; n],
            refused_sum_by: vec![0; n],
            ..Counter::default()
        }
    }
}

impl Node for Counter {
    type Msg = Probe;
    type Timer = u8;

    fn on_message(&mut self, _from: NodeIdx, msg: Probe, ctx: &mut Context<'_, Probe, u8>) {
        self.upcalls += 1;
        if msg.via == Via::Net {
            self.net_received += 1;
            self.net_received_sum += u64::from(msg.ttl) + 1;
        }
        let Some(ttl) = msg.ttl.checked_sub(1) else {
            return;
        };
        // Never to ourselves over the network: a crashed node's message to
        // itself would vanish without an upcall to count it by.
        let me = ctx.self_idx();
        let other = |ctx: &mut Context<'_, Probe, u8>| {
            (me + 1 + ctx.rng().gen_range(0..self.n - 1)) % self.n
        };
        match ctx.rng().gen_range(0..5u32) {
            0 | 1 => {
                for _ in 0..2 {
                    let to = other(ctx);
                    ctx.send(to, TrafficClass::OTHER, Probe { via: Via::Net, ttl });
                }
            }
            2 => {
                let via = Via::Local;
                ctx.send_local(Probe { via, ttl });
                ctx.send_local(Probe { via, ttl: 0 });
            }
            3 => ctx.arm_timer(SimDuration::from_millis(70), ttl),
            _ => {
                let to = other(ctx);
                ctx.send(to, TrafficClass::OTHER, Probe { via: Via::Net, ttl });
                ctx.arm_timer(SimDuration::from_secs(40), 0);
            }
        }
    }

    fn on_timer(&mut self, ttl: u8, ctx: &mut Context<'_, Probe, u8>) {
        self.upcalls += 1;
        if ttl > 0 {
            let via = Via::Local;
            ctx.send_local(Probe { via, ttl });
        }
    }

    fn on_send_failed(&mut self, to: NodeIdx, msg: Probe, _ctx: &mut Context<'_, Probe, u8>) {
        self.refused_by[to] += 1;
        self.refused_sum_by[to] += u64::from(msg.ttl) + 1;
    }

    fn prefetch(&self, stage: PrefetchStage, queued: Option<(NodeIdx, &Probe)>) {
        let calls = match stage {
            PrefetchStage::Node => {
                let (me, msg) = queued.expect("a node-stage call carries the queued message");
                assert_eq!(me, self.me, "and the index of the node it is queued for");
                assert_eq!(msg.via, Via::Net, "only a `Send` is announced");
                self.hinted.set(self.hinted.get() + u64::from(msg.ttl) + 1);
                &self.node_calls
            }
            PrefetchStage::Rows => {
                assert!(queued.is_none(), "a rows-stage call carries nothing");
                &self.rows_calls
            }
        };
        calls.set(calls.get() + 1);
    }
}

#[test]
fn one_node_call_per_queued_send_and_one_rows_call_per_popped_event() {
    const N: usize = 12;
    const CRASHED: NodeIdx = 5;
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        for (seed, loss) in [(1u64, 0.0), (2, 0.3), (3, 0.3)] {
            let cfg = NetConfig::new(seed)
                .with_scheduler(kind)
                .with_loss_probability(loss);
            let mut sim: Simulator<Counter> = Simulator::new(cfg);
            for me in 0..N {
                sim.add_node(Counter::new(N, me));
            }
            for i in 0..200 {
                let via = Via::Inject;
                sim.inject_at(
                    SimTime::from_millis(i),
                    i as usize % N,
                    Probe { via, ttl: 9 },
                );
            }
            // Crash one node with messages, local hand-backs and timers of
            // its own still queued; the rest keep sending to it.
            sim.run_until(SimTime::from_millis(120));
            sim.crash(CRASHED);
            sim.run();

            let ctx = format!("{kind:?} seed {seed} loss {loss}");
            let nodes: Vec<&Counter> = sim.nodes().map(|(_, n)| n).collect();
            let rows: u64 = nodes.iter().map(|n| n.rows_calls.get()).sum();
            assert_eq!(rows, sim.events_processed(), "{ctx}: rows calls");
            assert!(rows > 1_000, "{ctx}: {rows} events mean nothing");
            let mut queued = 0;
            for (i, node) in nodes.iter().enumerate() {
                let refused: u64 = nodes.iter().map(|s| s.refused_by[i]).sum();
                assert_eq!(
                    node.node_calls.get(),
                    node.net_received + refused,
                    "{ctx}: node calls on {i}"
                );
                // … each carrying the message that then arrived or was
                // refused, not some other.
                let refused_sum: u64 = nodes.iter().map(|s| s.refused_sum_by[i]).sum();
                assert_eq!(
                    node.hinted.get(),
                    node.net_received_sum + refused_sum,
                    "{ctx}: messages carried to {i}"
                );
                queued += node.net_received + refused;
                if i == CRASHED {
                    // Its own queued timers and hand-backs were popped and
                    // dropped without an upcall; each still got its call.
                    assert!(refused > 0, "{ctx}: nothing was sent to the crashed node");
                    assert!(node.rows_calls.get() > node.upcalls + refused, "{ctx}");
                } else {
                    assert_eq!(refused, 0, "{ctx}: {i} is alive");
                    assert_eq!(node.rows_calls.get(), node.upcalls, "{ctx}: rows on {i}");
                }
            }
            // Every send is counted as a message, lost or not; only the
            // queued ones reached the hook.
            let sent = sim.metrics().messages(TrafficClass::OTHER);
            if loss > 0.0 {
                assert!(queued < sent, "{ctx}: the loss draw dropped nothing");
            } else {
                assert_eq!(queued, sent, "{ctx}");
            }
        }
    }
}

/// A send to an index that does not exist fails where it always has: at
/// the delivery, not at the hint.
#[test]
#[should_panic(expected = "index out of bounds")]
fn send_to_a_missing_node_still_fails_at_delivery() {
    let mut sim: Simulator<Counter> = Simulator::new(NetConfig::new(0));
    let a = sim.add_node(Counter::new(1, 0));
    let via = Via::Net;
    sim.with_node(a, |_, ctx| {
        ctx.send(7, TrafficClass::OTHER, Probe { via, ttl: 0 })
    });
    assert_eq!(sim.events_processed(), 0, "the send itself must not panic");
    sim.run();
}

/// The storm node with a hook that counts instead of the default one.
struct CountingStorm {
    inner: StormNode,
    calls: Cell<u64>,
}

impl From<StormNode> for CountingStorm {
    fn from(inner: StormNode) -> Self {
        let calls = Cell::new(0);
        CountingStorm { inner, calls }
    }
}

impl Storm for CountingStorm {
    fn storm(&self) -> &StormNode {
        &self.inner
    }
}

impl Node for CountingStorm {
    type Msg = Ping;
    type Timer = u64;

    fn on_message(&mut self, from: NodeIdx, msg: Ping, ctx: &mut Context<'_, Ping, u64>) {
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Ping, u64>) {
        self.inner.on_timer(timer, ctx);
    }

    fn on_send_failed(&mut self, to: NodeIdx, msg: Ping, ctx: &mut Context<'_, Ping, u64>) {
        self.inner.on_send_failed(to, msg, ctx);
    }

    fn prefetch(&self, _stage: PrefetchStage, _queued: Option<(NodeIdx, &Ping)>) {
        self.calls.set(self.calls.get() + 1);
    }
}

/// The storm of `scheduler_equivalence` — local cascades, timer storms,
/// crash and revive, `run_until` boundaries — with the counting hook and
/// with the default one: the same upcalls in the same order at the same
/// times, the same RNG draws, the same sampled queue statistics.
#[test]
fn a_counting_hook_and_the_default_hook_record_the_same_history() {
    fn run<N: Storm>(kind: SchedulerKind, seed: u64) -> (storm::Fingerprint, Simulator<N>) {
        let mut sim: Simulator<N> = storm::build(kind, seed);
        seed_workload(&mut sim);
        sim.run_until(SimTime::from_micros(50_001));
        sim.crash(2);
        sim.crash(5);
        sim.run_until(SimTime::from_secs(2));
        sim.revive(2);
        let t = sim.now() + SimDuration::from_millis(1);
        sim.inject_at(t, 2, Ping { ttl: 9, val: 9_999 });
        sim.run();
        (fingerprint(&sim), sim)
    }
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        for seed in [1u64, 42] {
            let (plain, _) = run::<StormNode>(kind, seed);
            let (counted, sim) = run::<CountingStorm>(kind, seed);
            assert_eq!(plain, counted, "{kind:?} seed {seed}");
            assert!(plain.events > 1_000, "storm too small to be meaningful");
            let calls: u64 = sim.nodes().map(|(_, n)| n.calls.get()).sum();
            assert!(calls > plain.events, "the counting hook was never called");
        }
    }
}
