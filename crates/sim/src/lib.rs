//! # cbps-sim — deterministic discrete-event simulation engine
//!
//! The substrate underneath the CBPS reproduction of *"Content-Based
//! Publish-Subscribe over Structured Overlay Networks"* (ICDCS 2005). The
//! paper evaluates its architecture on a Chord simulator; this crate is the
//! corresponding event-driven engine, written from scratch:
//!
//! * [`Simulator`] — a single-threaded, seed-deterministic event loop over a
//!   fixed universe of [`Node`]s;
//! * [`queue`] — its [`EventQueue`], a binary min-heap beside a FIFO lane
//!   for network sends, that pops pending events in `(time, seq)` order;
//! * [`Context`] — the handle through which nodes send one-hop messages
//!   (with a configurable [`DelayModel`], default 50 ms as in the paper) and
//!   arm timers;
//! * [`Metrics`] — per-[`TrafficClass`] one-hop message counters, named
//!   counters and named [`Histogram`]s (exact below 64, log-bucketed
//!   above), from which every figure series of the paper is derived;
//! * crash/revive and message-loss injection for fault-tolerance tests;
//! * [`prefetch`] — the cache-line hints the event loop lets a node issue
//!   ahead of its upcalls ([`Node::prefetch`]) and the huge-page advice on
//!   the node array, both invisible to the simulation.
//!
//! # Examples
//!
//! ```
//! use cbps_sim::{Context, NetConfig, Node, NodeIdx, SimTime, Simulator, TrafficClass};
//!
//! /// A node that forwards every received token to a fixed next hop until
//! /// the token's TTL runs out.
//! struct Relay {
//!     next: NodeIdx,
//!     delivered: u32,
//! }
//!
//! impl Node for Relay {
//!     type Msg = u8; // remaining TTL
//!     type Timer = ();
//!
//!     fn on_message(&mut self, _from: NodeIdx, ttl: u8, ctx: &mut Context<'_, u8, ()>) {
//!         self.delivered += 1;
//!         if ttl > 0 {
//!             ctx.send(self.next, TrafficClass::OTHER, ttl - 1);
//!         }
//!     }
//!
//!     fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, u8, ()>) {}
//! }
//!
//! let mut sim = Simulator::new(NetConfig::new(1));
//! let a = sim.add_node(Relay { next: 1, delivered: 0 });
//! let b = sim.add_node(Relay { next: 0, delivered: 0 });
//! sim.inject_at(SimTime::ZERO, a, 4);
//! sim.run();
//! assert_eq!(sim.node(a).delivered + sim.node(b).delivered, 5);
//! ```

// `deny`, not `forbid`: the `prefetch` module carries scoped `allow`s for
// the two blocks that issue the hint instruction and the huge-page advice
// (ci.sh pins the list).
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod metrics;
mod obs;
mod pool;
pub mod prefetch;
pub mod queue;
mod sim;
mod time;

pub use config::{DelayModel, MatchEngineKind, NetConfig, PoolMode, SchedulerKind};
pub use metrics::{Counter, Histogram, Metrics, Series, TrafficClass};
pub use obs::{ObsMode, ObsSummary, Observability, Stage, StageRecord, TraceId, TraceLog};
pub use prefetch::PrefetchStage;
pub use queue::{EventQueue, TimingWheel};
pub use sim::{Context, Node, NodeIdx, Simulator};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that counts deliveries and timer fires, echoing messages back
    /// while their hop budget lasts.
    struct Echo {
        peer: NodeIdx,
        deliveries: u32,
        timer_fires: u32,
        delivery_times: Vec<SimTime>,
    }

    impl Echo {
        fn new(peer: NodeIdx) -> Self {
            Echo {
                peer,
                deliveries: 0,
                timer_fires: 0,
                delivery_times: Vec::new(),
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Tick {
        Once,
        Rearm(u32),
    }

    impl Node for Echo {
        type Msg = u32;
        type Timer = Tick;

        fn on_message(&mut self, _from: NodeIdx, msg: u32, ctx: &mut Context<'_, u32, Tick>) {
            self.deliveries += 1;
            self.delivery_times.push(ctx.now());
            if msg > 0 {
                ctx.send(self.peer, TrafficClass::OTHER, msg - 1);
            }
        }

        fn on_timer(&mut self, timer: Tick, ctx: &mut Context<'_, u32, Tick>) {
            self.timer_fires += 1;
            if let Tick::Rearm(left) = timer {
                if left > 0 {
                    ctx.arm_timer(SimDuration::from_secs(1), Tick::Rearm(left - 1));
                }
            }
        }
    }

    fn two_node_sim(seed: u64) -> (Simulator<Echo>, NodeIdx, NodeIdx) {
        let mut sim = Simulator::new(NetConfig::new(seed));
        let a = sim.add_node(Echo::new(1));
        let b = sim.add_node(Echo::new(0));
        (sim, a, b)
    }

    #[test]
    fn messages_take_configured_delay() {
        let (mut sim, a, b) = two_node_sim(0);
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 0));
        sim.run();
        assert_eq!(sim.node(b).delivery_times, vec![SimTime::from_millis(50)]);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn bounce_chain_counts_messages_and_hops() {
        let (mut sim, a, b) = two_node_sim(0);
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 5));
        sim.run();
        // 6 one-hop messages total (TTL 5..0), alternating deliveries.
        assert_eq!(sim.metrics().messages(TrafficClass::OTHER), 6);
        assert_eq!(sim.node(a).deliveries + sim.node(b).deliveries, 6);
        assert_eq!(sim.now(), SimTime::from_millis(300));
    }

    #[test]
    fn inject_has_no_network_hop() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.inject_at(SimTime::from_secs(3), a, 0);
        sim.run();
        assert_eq!(sim.node(a).delivery_times, vec![SimTime::from_secs(3)]);
        assert_eq!(sim.metrics().total_messages(), 0);
    }

    #[test]
    fn timers_fire_in_order_and_rearm() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.arm_timer_at(SimTime::from_secs(1), a, Tick::Rearm(2));
        sim.run();
        assert_eq!(sim.node(a).timer_fires, 3);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.arm_timer_at(SimTime::from_secs(1), a, Tick::Once);
        sim.arm_timer_at(SimTime::from_secs(5), a, Tick::Once);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.node(a).timer_fires, 1);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.run();
        assert_eq!(sim.node(a).timer_fires, 2);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let (mut sim, a, b) = two_node_sim(0);
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 3));
        sim.crash(b);
        sim.run();
        assert_eq!(sim.node(b).deliveries, 0);
        // The send was still counted: the sender paid for the hop.
        assert_eq!(sim.metrics().messages(TrafficClass::OTHER), 1);
        assert!(!sim.is_alive(b));
        sim.revive(b);
        assert!(sim.is_alive(b));
    }

    #[test]
    fn crashed_node_timers_dropped() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.arm_timer_at(SimTime::from_secs(1), a, Tick::Once);
        sim.crash(a);
        sim.run();
        assert_eq!(sim.node(a).timer_fires, 0);
    }

    #[test]
    fn message_loss_drops_but_counts() {
        let mut sim: Simulator<Echo> = Simulator::new(NetConfig::new(0).with_loss_probability(1.0));
        let a = sim.add_node(Echo::new(1));
        let b = sim.add_node(Echo::new(0));
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 9));
        sim.run();
        assert_eq!(sim.node(b).deliveries, 0);
        assert_eq!(sim.metrics().messages(TrafficClass::OTHER), 1);
        let _ = a;
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim: Simulator<Echo> =
                Simulator::new(NetConfig::new(seed).with_delay(DelayModel::Uniform {
                    min: SimDuration::from_millis(10),
                    max: SimDuration::from_millis(90),
                }));
            let a = sim.add_node(Echo::new(1));
            let b = sim.add_node(Echo::new(0));
            sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 20));
            sim.run();
            (sim.now(), sim.node(a).delivery_times.clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn run_capped_limits_events() {
        let (mut sim, a, b) = two_node_sim(0);
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 100));
        let n = sim.run_capped(10);
        assert_eq!(n, 10);
        assert!(sim.step());
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.inject_at(SimTime::from_secs(1), a, 0);
        sim.inject_at(SimTime::from_secs(1), a, 0);
        sim.arm_timer_at(SimTime::from_secs(1), a, Tick::Once);
        sim.run();
        assert_eq!(sim.node(a).deliveries, 2);
        assert_eq!(sim.node(a).timer_fires, 1);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn send_local_is_immediate_and_uncounted() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.with_node(a, |_, ctx| ctx.send_local(0));
        sim.run();
        assert_eq!(sim.node(a).deliveries, 1);
        assert_eq!(sim.node(a).delivery_times, vec![SimTime::ZERO]);
        assert_eq!(sim.metrics().total_messages(), 0);
    }

    /// A node that records failed sends and retries once toward another
    /// target.
    struct Retrier {
        backup: NodeIdx,
        failures: Vec<NodeIdx>,
    }

    impl Node for Retrier {
        type Msg = u32;
        type Timer = ();
        fn on_message(&mut self, _f: NodeIdx, _m: u32, _ctx: &mut Context<'_, u32, ()>) {}
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, u32, ()>) {}
        fn on_send_failed(&mut self, to: NodeIdx, msg: u32, ctx: &mut Context<'_, u32, ()>) {
            self.failures.push(to);
            ctx.send(self.backup, TrafficClass::OTHER, msg);
        }
    }

    #[test]
    fn send_failed_fires_for_crashed_targets_and_allows_retry() {
        let mut sim: Simulator<Retrier> = Simulator::new(NetConfig::new(0));
        let a = sim.add_node(Retrier {
            backup: 2,
            failures: vec![],
        });
        let b = sim.add_node(Retrier {
            backup: 0,
            failures: vec![],
        });
        let c = sim.add_node(Retrier {
            backup: 0,
            failures: vec![],
        });
        sim.crash(b);
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 7));
        sim.run();
        // The failure surfaced at the sender, which retried toward c.
        assert_eq!(sim.node(a).failures, vec![b]);
        assert!(sim.is_alive(c));
        // Both the failed and the retry transmissions were paid for.
        assert_eq!(sim.metrics().messages(TrafficClass::OTHER), 2);
    }

    #[test]
    fn send_failed_not_fired_when_sender_also_dead() {
        let mut sim: Simulator<Retrier> = Simulator::new(NetConfig::new(0));
        let a = sim.add_node(Retrier {
            backup: 1,
            failures: vec![],
        });
        let b = sim.add_node(Retrier {
            backup: 0,
            failures: vec![],
        });
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 7));
        sim.crash(a);
        sim.crash(b);
        sim.run();
        assert!(sim.node(a).failures.is_empty());
    }

    #[test]
    fn randomly_lost_messages_do_not_trigger_send_failed() {
        let mut sim: Simulator<Retrier> =
            Simulator::new(NetConfig::new(0).with_loss_probability(1.0));
        let a = sim.add_node(Retrier {
            backup: 1,
            failures: vec![],
        });
        let b = sim.add_node(Retrier {
            backup: 0,
            failures: vec![],
        });
        sim.with_node(a, |_, ctx| ctx.send(b, TrafficClass::OTHER, 7));
        sim.run();
        assert!(sim.node(a).failures.is_empty(), "loss must be silent");
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn inject_in_past_panics() {
        let (mut sim, a, _b) = two_node_sim(0);
        sim.arm_timer_at(SimTime::from_secs(10), a, Tick::Once);
        sim.run();
        sim.inject_at(SimTime::from_secs(1), a, 0);
    }
}
