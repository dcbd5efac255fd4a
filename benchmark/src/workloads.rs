//! The four benchmark workloads: deployment, trace shape and timed section.
//!
//! Everything not named here stays at the program's defaults (wheel
//! scheduler, reuse pool, counting engine, static rendezvous, Chord,
//! covering on, one shard); [`Spec::knobs`] writes the full vector into
//! every output document.

use cbps::{
    deployment_key_space, ChordBackend, EventSpace, MappingKind, NotifyMode, OverlayBackend,
    Primitive, PubSubConfig, PubSubNetwork, PubSubNetworkBuilder,
};
use cbps_sim::{NetConfig, ObsMode, SimDuration};
use cbps_workload::{Trace, WorkloadConfig, WorkloadGen};

use crate::json::{obj, Json};

/// Which part of a repeat the throughput metric times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timed {
    /// Phased replay; the subscription phase is timed, the publications
    /// that follow only feed verification and the simulated metrics.
    SubPhase,
    /// Phased replay; subscriptions are installed during set-up and the
    /// publication phase is timed.
    PubPhase,
    /// The trace is replayed as generated and timed as a whole.
    Replay,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// 1/50 of every size, for the test suite.
    Smoke,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub nodes: usize,
    pub mapping: MappingKind,
    pub notify: NotifyMode,
    pub subs: usize,
    pub pubs: usize,
    pub matching: f64,
    pub wildcard: f64,
    pub ttl_secs: Option<u64>,
    pub timed: Timed,
}

/// Simulated seconds run after the last operation of a phase, so that
/// everything in flight (including a 5 s notification buffer) lands.
pub const PHASE_DRAIN_SECS: u64 = 60;
/// Simulated seconds run after a replayed trace ends.
pub const REPLAY_DRAIN_SECS: u64 = 600;

pub const NAMES: [&str; 4] = ["install", "fanout", "mixed", "route"];

pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let full = match name {
        "install" => Spec {
            name: "install",
            why: "Subscription install under mapping 1 (the fig6/fig8 path): mapping.sk, \
                  m-cast split, store insert, covering probe and index insert do the work; \
                  match and notify do almost none.",
            nodes: 1_000,
            mapping: MappingKind::AttributeSplit,
            notify: NotifyMode::Immediate,
            subs: 5_000,
            // Untimed: they feed verification and the simulated metrics. A
            // fifth as many leave the load skew of the hot 1 % of the
            // nodes to chance (spread 0.13 between seeds).
            pubs: 10_000,
            matching: 1.0,
            wildcard: 0.0,
            ttl_secs: None,
            timed: Timed::SubPhase,
        },
        "fanout" => Spec {
            name: "fanout",
            why: "Store reads: match_event_into, covering expansion, notify dispatch, \
                  subscriber dedup and delivery dominate; install is short and routing is \
                  2-3 hops.",
            nodes: 200,
            mapping: MappingKind::SelectiveAttribute,
            notify: NotifyMode::Immediate,
            subs: 20_000,
            pubs: 10_000,
            matching: 0.5,
            wildcard: 0.5,
            ttl_secs: None,
            timed: Timed::PubPhase,
        },
        "mixed" => Spec {
            name: "mixed",
            why: "Inserts, expiry purges and matches on one store population at the same \
                  time, with buffered notifications: an insert-path gain paid for on the \
                  match path shows its cost here.",
            nodes: 500,
            mapping: MappingKind::SelectiveAttribute,
            notify: NotifyMode::Buffered {
                period: SimDuration::from_secs(5),
            },
            subs: 40_000,
            pubs: 40_000,
            matching: 0.5,
            wildcard: 0.3,
            ttl_secs: Some(25_000),
            timed: Timed::Replay,
        },
        "route" => Spec {
            name: "route",
            why: "100 000 nodes with at most a handful of stored subscriptions each: \
                  scheduler push/pop, overlay hop, location cache and deployment build and \
                  memory do the work; store, match and covering are idle.",
            nodes: 100_000,
            mapping: MappingKind::KeySpaceSplit,
            notify: NotifyMode::Immediate,
            subs: 5_000,
            pubs: 100_000,
            matching: 0.5,
            wildcard: 0.0,
            ttl_secs: None,
            timed: Timed::PubPhase,
        },
        _ => return None,
    };
    Some(match scale {
        Scale::Full => full,
        Scale::Smoke => Spec {
            nodes: (full.nodes / 50).max(16),
            subs: full.subs / 50,
            pubs: full.pubs / 50,
            ..full
        },
    })
}

impl Spec {
    /// Operations in the timed section.
    pub fn timed_ops(&self) -> usize {
        match self.timed {
            Timed::SubPhase => self.subs,
            Timed::PubPhase => self.pubs,
            Timed::Replay => self.subs + self.pubs,
        }
    }

    /// `true` when subscriptions are installed before the timed section.
    pub fn installs_in_setup(&self) -> bool {
        self.timed == Timed::PubPhase
    }

    /// Whether two replays of one trace agree bit for bit. Immediate
    /// notification does. A buffered flush drains a `std` `HashMap` of
    /// subscribers, whose order differs from one map instance to the next;
    /// the notifications it sends at one instant then reach the location
    /// caches in a different order and an occasional route gains or loses a
    /// hop (about one message in a million here). The delivered set is the
    /// same either way.
    pub fn replays_exactly(&self) -> bool {
        self.notify == NotifyMode::Immediate
    }

    pub fn space(&self) -> EventSpace {
        EventSpace::paper_default()
    }

    /// Generates the workload trace from `seed`. The program under test
    /// never sees the seed, only the trace.
    pub fn gen_trace(&self, seed: u64) -> Trace {
        let space = self.space();
        let cfg = WorkloadConfig::paper_default(self.nodes, space.dims())
            .with_counts(self.subs, self.pubs)
            .with_matching_probability(self.matching)
            .with_wildcard_probability(self.wildcard)
            .with_sub_ttl(self.ttl_secs.map(SimDuration::from_secs));
        WorkloadGen::new(space, cfg, seed).gen_trace()
    }

    pub fn pubsub_config(&self) -> PubSubConfig {
        PubSubConfig::paper_default()
            .with_mapping(self.mapping)
            .with_primitive(Primitive::MCast)
            .with_notify_mode(self.notify)
            .with_key_space(deployment_key_space(self.nodes))
    }

    pub fn overlay_config(&self) -> <ChordBackend as OverlayBackend>::Config {
        ChordBackend::with_key_space(
            ChordBackend::paper_default(),
            deployment_key_space(self.nodes),
        )
    }

    /// Builds a fresh deployment on a converged Chord ring.
    pub fn build(&self, obs: ObsMode) -> PubSubNetwork {
        PubSubNetworkBuilder::<ChordBackend>::new()
            .nodes(self.nodes)
            .net_config(NetConfig::new(0))
            .overlay(self.overlay_config())
            .pubsub(self.pubsub_config())
            .observability(obs)
            .build()
            .expect("benchmark deployments use validated parameters")
    }

    /// The full knob vector, defaults included.
    pub fn knobs(&self) -> Json {
        let net = NetConfig::new(0);
        let pubsub = self.pubsub_config();
        obj([
            ("overlay", ChordBackend::NAME.into()),
            ("nodes", self.nodes.into()),
            (
                "key_space_bits",
                u64::from(pubsub.mapping.key_space().bits()).into(),
            ),
            ("mapping", self.mapping.to_string().into()),
            ("primitive", format!("{:?}", pubsub.primitive).into()),
            ("notify", format!("{:?}", pubsub.notify_mode).into()),
            ("covering", pubsub.covering.into()),
            ("replication", pubsub.replication.into()),
            ("discretization", pubsub.mapping.discretization().into()),
            (
                "rendezvous",
                if pubsub.rendezvous.is_adaptive() {
                    "adaptive"
                } else {
                    "static"
                }
                .into(),
            ),
            ("scheduler", net.scheduler.name().into()),
            ("pool", net.pool.name().into()),
            ("match_engine", net.match_engine.name().into()),
            ("shards", net.shards.into()),
            ("subscriptions", self.subs.into()),
            ("publications", self.pubs.into()),
            ("matching_probability", self.matching.into()),
            ("wildcard_probability", self.wildcard.into()),
            ("sub_ttl_secs", self.ttl_secs.map_or(Json::Null, Json::from)),
            ("phase_drain_secs", PHASE_DRAIN_SECS.into()),
            ("replay_drain_secs", REPLAY_DRAIN_SECS.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_spec_at_both_scales() {
        for name in NAMES {
            let full = spec(name, Scale::Full).unwrap();
            let smoke = spec(name, Scale::Smoke).unwrap();
            assert_eq!(full.name, name);
            assert_eq!(smoke.subs, full.subs / 50);
            assert!(smoke.nodes >= 16 && smoke.nodes <= full.nodes);
            assert!(
                full.why.len() <= 200,
                "{name}: why is {} chars",
                full.why.len()
            );
        }
        assert!(spec("nope", Scale::Full).is_none());
    }

    #[test]
    fn same_seed_gives_the_same_trace() {
        let s = spec("mixed", Scale::Smoke).unwrap();
        let space = s.space();
        let text = |seed| cbps_workload::trace_to_string(&space, &s.gen_trace(seed));
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
    }
}
