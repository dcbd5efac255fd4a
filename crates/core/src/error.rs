//! Error types of the pub/sub layer.

use std::error::Error;
use std::fmt;

/// Errors returned by the public pub/sub API.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PubSubError {
    /// An event or subscription used a different number of dimensions than
    /// its event space defines.
    DimensionMismatch {
        /// Dimensions of the event space.
        expected: usize,
        /// Dimensions supplied by the caller.
        got: usize,
    },
    /// An attribute value lies outside its domain.
    ValueOutOfDomain {
        /// Attribute name.
        attr: String,
        /// The offending value.
        value: u64,
        /// The domain size (valid values are `0..size`).
        size: u64,
    },
    /// A constraint's bounds are inverted (`lo > hi`).
    EmptyConstraint {
        /// Lower bound supplied.
        lo: u64,
        /// Upper bound supplied.
        hi: u64,
    },
    /// A named attribute does not exist in the event space.
    UnknownAttribute {
        /// The name that failed to resolve.
        name: String,
    },
    /// A subscription has no constraint on any attribute and the active
    /// mapping cannot place fully-wildcard subscriptions.
    UnconstrainedSubscription,
    /// A node index does not name a node of the network.
    UnknownNode {
        /// The index supplied by the caller.
        node: usize,
        /// Number of nodes in the network (valid indices are `0..nodes`).
        nodes: usize,
    },
    /// A subscription was built for a different event space than the
    /// network's (its dimension count does not match).
    InvalidSubscription {
        /// Dimensions of the network's event space.
        expected: usize,
        /// Dimensions of the supplied subscription.
        got: usize,
    },
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} attribute values, got {got}")
            }
            PubSubError::ValueOutOfDomain { attr, value, size } => {
                write!(
                    f,
                    "value {value} of attribute {attr} outside domain 0..{size}"
                )
            }
            PubSubError::EmptyConstraint { lo, hi } => {
                write!(f, "constraint bounds inverted: {lo} > {hi}")
            }
            PubSubError::UnknownAttribute { name } => {
                write!(f, "unknown attribute {name:?}")
            }
            PubSubError::UnconstrainedSubscription => {
                write!(f, "subscription constrains no attribute")
            }
            PubSubError::UnknownNode { node, nodes } => {
                write!(f, "node {node} does not exist (network has {nodes} nodes)")
            }
            PubSubError::InvalidSubscription { expected, got } => {
                write!(
                    f,
                    "subscription has {got} dimensions but the network's event space has {expected}"
                )
            }
        }
    }
}

impl Error for PubSubError {}

/// Errors detected while validating a network configuration in
/// [`PubSubNetworkBuilder::build`](crate::PubSubNetworkBuilder::build).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The network was configured with zero nodes.
    NoNodes,
    /// The pub/sub mapping and the overlay disagree on the key space.
    KeySpaceMismatch {
        /// Bit width of the mapping's key space.
        mapping_bits: u32,
        /// Bit width of the overlay's key space.
        overlay_bits: u32,
    },
    /// The replication factor exceeds the overlay's successor-list length,
    /// so some replicas could never be placed.
    ReplicationTooLarge {
        /// The configured replication factor.
        replication: usize,
        /// The overlay's successor-list length.
        succ_list_len: usize,
    },
    /// A buffered or collecting notify mode was configured with a zero
    /// flush period, which would flush in a busy loop at a single instant.
    ZeroFlushPeriod,
    /// The sorted matching engine was selected for an event space with
    /// more dimensions than its per-row constrained-dimension bitmask can
    /// hold.
    TooManyDimensions {
        /// Dimensions of the configured event space.
        dims: usize,
        /// The engine's limit.
        limit: usize,
    },
    /// The adaptive rendezvous policy was configured with a degenerate
    /// tuning: zero mirror groups (nothing to split into), more groups
    /// than the key space has disjoint mirror positions, or a zero
    /// control interval (the control loop would never advance time).
    BadRendezvousTuning {
        /// The configured mirror-group count.
        groups: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "a network needs at least one node"),
            ConfigError::KeySpaceMismatch {
                mapping_bits,
                overlay_bits,
            } => write!(
                f,
                "pub/sub mapping uses a 2^{mapping_bits} key space but the overlay uses 2^{overlay_bits}"
            ),
            ConfigError::ReplicationTooLarge {
                replication,
                succ_list_len,
            } => write!(
                f,
                "replication factor {replication} exceeds successor-list length {succ_list_len}"
            ),
            ConfigError::ZeroFlushPeriod => {
                write!(f, "buffered/collecting notification mode needs a non-zero period")
            }
            ConfigError::TooManyDimensions { dims, limit } => write!(
                f,
                "sorted matching engine supports at most {limit} dimensions, space has {dims}"
            ),
            ConfigError::BadRendezvousTuning { groups } => write!(
                f,
                "adaptive rendezvous needs 1..=63 mirror groups that fit the key space \
                 and a non-zero control interval (got {groups} groups)"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_complete() {
        let e = PubSubError::ValueOutOfDomain {
            attr: "x".into(),
            value: 12,
            size: 10,
        };
        assert_eq!(
            e.to_string(),
            "value 12 of attribute x outside domain 0..10"
        );
        let e = PubSubError::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().starts_with("expected 4"));
        let e = PubSubError::UnknownAttribute { name: "q".into() };
        assert!(e.to_string().contains("\"q\""));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &(dyn Error + Send + Sync)) {}
        takes_err(&PubSubError::UnconstrainedSubscription);
    }
}
