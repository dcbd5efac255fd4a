//! Configuration of the CB-pub/sub layer.

use std::sync::Arc;

use cbps_overlay::KeySpace;
use cbps_sim::SimDuration;

use crate::mapping::{AkMapping, EventKeyChoice, MappingKind};
use crate::space::EventSpace;

/// Which overlay primitive propagates subscriptions and publications to
/// their rendezvous keys (§4.3.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// One routed `send()` per target key — the basic architecture's only
    /// option, and the "unicast" series of the figures.
    Unicast,
    /// The native `m-cast()` primitive (Figure 4).
    #[default]
    MCast,
    /// The conservative successor walk per contiguous key range (§4.3.1's
    /// low-bandwidth / high-dilation baseline).
    Walk,
}

/// How rendezvous nodes dispatch notifications (§4.3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NotifyMode {
    /// Send a notification message per match, immediately.
    #[default]
    Immediate,
    /// Accumulate matches and send one batch per subscriber per period.
    Buffered {
        /// The buffering period.
        period: SimDuration,
    },
    /// Buffering plus ring-neighbor collection: matches flow along the
    /// ring to the middle node of the subscription's rendezvous range,
    /// which alone contacts the subscriber.
    Collecting {
        /// The buffering/exchange period.
        period: SimDuration,
    },
}

/// The rendezvous placement: always the configured stateless ak-mapping.
///
/// Read by nothing in this workspace. It stays only because the frozen
/// `benchmark/` crate asks [`RendezvousPolicy::is_adaptive`] for its knob
/// vector; the benchmark-only change that drops `NetConfig::shards` drops
/// it too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RendezvousPolicy;

impl RendezvousPolicy {
    /// Always `false`: no rendezvous is ever relocated at run time.
    pub fn is_adaptive(&self) -> bool {
        false
    }
}

/// Full configuration of a pub/sub deployment, shared by every node.
///
/// # Examples
///
/// ```
/// use cbps::{MappingKind, NotifyMode, Primitive, PubSubConfig};
/// use cbps_sim::SimDuration;
///
/// let cfg = PubSubConfig::paper_default()
///     .with_mapping(MappingKind::SelectiveAttribute)
///     .with_primitive(Primitive::Unicast)
///     .with_notify_mode(NotifyMode::Buffered { period: SimDuration::from_secs(5) });
/// assert_eq!(cfg.mapping.kind(), MappingKind::SelectiveAttribute);
/// ```
#[derive(Clone, Debug)]
pub struct PubSubConfig {
    /// The event space Ω.
    pub space: EventSpace,
    /// The configured ak-mapping (`SK`/`EK`).
    pub mapping: AkMapping,
    /// Propagation primitive for subscriptions and publications.
    pub primitive: Primitive,
    /// Notification dispatch policy.
    pub notify_mode: NotifyMode,
    /// Number of ring successors each stored subscription is replicated to
    /// (0 disables replication). Must not exceed the overlay's
    /// successor-list length to be effective.
    pub replication: usize,
    /// Expiration applied to subscriptions issued without an explicit TTL
    /// (`None` = never expire).
    pub default_ttl: Option<SimDuration>,
    /// Lease-refresh mode: subscribers re-issue each TTL-bearing
    /// subscription when half its lease has elapsed, keeping rendezvous
    /// state soft — the classic complement to expiry-based cleanup (the
    /// paper uses expiration to "simulate possible requests for
    /// unsubscriptions"; refresh turns that into a lease protocol).
    pub lease_refresh: bool,
    /// Always `false`, and read by nothing in this workspace: every store
    /// files each subscription under its own engine entry. It stays only
    /// because the frozen `benchmark/` crate writes it into its knob vector;
    /// ROADMAP item 2's benchmark-only change drops it.
    pub covering: bool,
    /// Always the stateless mapping; see [`RendezvousPolicy`].
    pub rendezvous: RendezvousPolicy,
}

impl PubSubConfig {
    /// The paper's evaluation setup: the 4-attribute space over
    /// `0..=10^6`, a `2^13` key space, Key Space-Split mapping, `m-cast`,
    /// immediate notifications, no replication, no expiry.
    pub fn paper_default() -> Self {
        let space = EventSpace::paper_default();
        let mapping = AkMapping::new(MappingKind::default(), &space, KeySpace::new(13));
        PubSubConfig {
            space,
            mapping,
            primitive: Primitive::default(),
            notify_mode: NotifyMode::default(),
            replication: 0,
            default_ttl: None,
            lease_refresh: false,
            covering: false,
            rendezvous: RendezvousPolicy,
        }
    }

    /// Rebuilds the configuration around a different event space (keeps the
    /// mapping kind, key space, discretization and event-key choice).
    pub fn with_space(mut self, space: EventSpace) -> Self {
        let kind = self.mapping.kind();
        let keys = self.mapping.key_space();
        let w = self.mapping.discretization();
        self.mapping = AkMapping::new(kind, &space, keys).with_discretization(w);
        self.space = space;
        self
    }

    /// Replaces the mapping kind (preserving key space and discretization).
    pub fn with_mapping(mut self, kind: MappingKind) -> Self {
        let keys = self.mapping.key_space();
        let w = self.mapping.discretization();
        self.mapping = AkMapping::new(kind, &self.space, keys).with_discretization(w);
        self
    }

    /// Replaces the key space (preserving everything else).
    pub fn with_key_space(mut self, keys: KeySpace) -> Self {
        let kind = self.mapping.kind();
        let w = self.mapping.discretization();
        self.mapping = AkMapping::new(kind, &self.space, keys).with_discretization(w);
        self
    }

    /// Sets the discretization interval width (§4.3.3).
    pub fn with_discretization(mut self, width: u64) -> Self {
        self.mapping = self.mapping.with_discretization(width);
        self
    }

    /// Sets how Attribute-Split maps events to a dimension.
    pub fn with_ek_choice(mut self, choice: EventKeyChoice) -> Self {
        self.mapping = self.mapping.with_ek_choice(choice);
        self
    }

    /// Sets the "nearly static" per-dimension key rotations (§4.2
    /// discussion): every node of one deployment epoch must share them.
    pub fn with_rotations(mut self, rotations: Vec<u64>) -> Self {
        self.mapping = self.mapping.with_rotations(rotations);
        self
    }

    /// Replaces the propagation primitive.
    pub fn with_primitive(mut self, primitive: Primitive) -> Self {
        self.primitive = primitive;
        self
    }

    /// Replaces the notification dispatch policy.
    pub fn with_notify_mode(mut self, mode: NotifyMode) -> Self {
        self.notify_mode = mode;
        self
    }

    /// Sets the replication factor.
    pub fn with_replication(mut self, replicas: usize) -> Self {
        self.replication = replicas;
        self
    }

    /// Sets the default subscription TTL.
    pub fn with_default_ttl(mut self, ttl: Option<SimDuration>) -> Self {
        self.default_ttl = ttl;
        self
    }

    /// Enables or disables lease refresh of TTL-bearing subscriptions.
    pub fn with_lease_refresh(mut self, on: bool) -> Self {
        self.lease_refresh = on;
        self
    }

    /// Wraps the configuration for sharing across nodes.
    pub fn into_shared(self) -> Arc<PubSubConfig> {
        Arc::new(self)
    }
}

impl Default for PubSubConfig {
    fn default() -> Self {
        PubSubConfig::paper_default()
    }
}

/// The ring key space a deployment of `nodes` nodes should run on.
///
/// The paper's 2^13 space is kept for every node count it can hold (all
/// recorded baselines stay byte-identical); beyond 8192 nodes the space
/// widens to the next power of two with at least 4 keys per node, keeping
/// consistent-hashing collision retries rare while staying well under the
/// 64-bit ring limit.
///
/// # Examples
///
/// ```
/// use cbps::deployment_key_space;
///
/// assert_eq!(deployment_key_space(500).bits(), 13);
/// assert_eq!(deployment_key_space(8192).bits(), 13);
/// assert_eq!(deployment_key_space(100_000).bits(), 19);
/// assert_eq!(deployment_key_space(1_000_000).bits(), 22);
/// ```
pub fn deployment_key_space(nodes: usize) -> KeySpace {
    if nodes <= 1 << 13 {
        return KeySpace::new(13);
    }
    let bits = 64 - ((nodes as u64) * 4 - 1).leading_zeros();
    KeySpace::new(bits.min(63))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = PubSubConfig::paper_default();
        assert_eq!(cfg.space.dims(), 4);
        assert_eq!(cfg.mapping.key_space().bits(), 13);
        assert_eq!(cfg.primitive, Primitive::MCast);
        assert_eq!(cfg.notify_mode, NotifyMode::Immediate);
        assert_eq!(cfg.replication, 0);
    }

    #[test]
    fn builders_preserve_orthogonal_settings() {
        let cfg = PubSubConfig::paper_default()
            .with_discretization(100)
            .with_mapping(MappingKind::AttributeSplit)
            .with_key_space(KeySpace::new(10));
        assert_eq!(cfg.mapping.discretization(), 100);
        assert_eq!(cfg.mapping.kind(), MappingKind::AttributeSplit);
        assert_eq!(cfg.mapping.key_space().bits(), 10);
    }

    #[test]
    fn notify_modes_compare() {
        let b = NotifyMode::Buffered {
            period: SimDuration::from_secs(5),
        };
        assert_ne!(b, NotifyMode::Immediate);
        assert_eq!(
            b,
            NotifyMode::Buffered {
                period: SimDuration::from_secs(5)
            }
        );
    }
}
