//! Events: points of the event space Ω, published by producers (§3.2).

use std::fmt;

use cbps_sim::TraceId;

use crate::error::PubSubError;
use crate::space::EventSpace;

/// Globally unique event identifier: publisher node index in the high bits,
/// per-publisher sequence number in the low bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// Composes an id from the publisher's node index and its sequence
    /// number.
    pub fn compose(node: usize, seq: u32) -> Self {
        EventId(((node as u64) << 32) | u64::from(seq))
    }

    /// The publisher node index encoded in this id.
    pub fn node(self) -> usize {
        (self.0 >> 32) as usize
    }

    /// The causal trace of the `pub(e)` that minted this id: a function of
    /// the id, so nothing that carries the id needs to carry the trace.
    pub fn trace(self) -> TraceId {
        TraceId::for_publication(self.node(), self.0 as u32)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}.{}", self.node(), self.0 & 0xFFFF_FFFF)
    }
}

/// An event: one attribute value per dimension of its event space.
///
/// # Examples
///
/// ```
/// use cbps::{AttributeDef, Event, EventSpace};
///
/// let space = EventSpace::new(vec![
///     AttributeDef::new("price", 1000),
///     AttributeDef::new("qty", 100),
/// ]);
/// let e = Event::new(&space, vec![250, 10])?;
/// assert_eq!(e.value(0), 250);
/// # Ok::<(), cbps::PubSubError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Event {
    values: Vec<u64>,
}

impl Event {
    /// Creates an event, validating every value against the space.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::DimensionMismatch`] when the number of values
    /// differs from the space's dimensionality, and
    /// [`PubSubError::ValueOutOfDomain`] when a value exceeds its
    /// attribute's domain.
    pub fn new(space: &EventSpace, values: Vec<u64>) -> Result<Self, PubSubError> {
        if values.len() != space.dims() {
            return Err(PubSubError::DimensionMismatch {
                expected: space.dims(),
                got: values.len(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            if !space.valid_value(i, v) {
                return Err(PubSubError::ValueOutOfDomain {
                    attr: space.attr(i).name().to_owned(),
                    value: v,
                    size: space.attr(i).size(),
                });
            }
        }
        Ok(Event { values })
    }

    /// Creates an event without validation (hot paths that already
    /// guarantee domain membership, e.g. workload generators).
    pub fn new_unchecked(values: Vec<u64>) -> Self {
        Event { values }
    }

    /// The value of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// All attribute values in dimension order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.values.len()
    }
}

impl Event {
    /// Quantizes one float onto attribute `i`'s declared scale — a
    /// convenience for building mixed integer/float events.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, the attribute has no float scale,
    /// or `x` is NaN.
    pub fn quantize(space: &EventSpace, i: usize, x: f64) -> u64 {
        space.attr(i).quantize_f64(x)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:?}", self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;

    fn space() -> EventSpace {
        EventSpace::new(vec![AttributeDef::new("x", 10), AttributeDef::new("y", 20)])
    }

    #[test]
    fn valid_event() {
        let e = Event::new(&space(), vec![9, 19]).unwrap();
        assert_eq!(e.values(), &[9, 19]);
        assert_eq!(e.dims(), 2);
        assert_eq!(e.to_string(), "e[9, 19]");
    }

    #[test]
    fn dimension_mismatch() {
        let err = Event::new(&space(), vec![1]).unwrap_err();
        assert!(matches!(
            err,
            PubSubError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn out_of_domain() {
        let err = Event::new(&space(), vec![10, 0]).unwrap_err();
        assert!(matches!(
            err,
            PubSubError::ValueOutOfDomain { value: 10, .. }
        ));
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn event_id_composition() {
        let id = EventId::compose(7, 42);
        assert_eq!(id.node(), 7);
        assert_eq!(id.to_string(), "e7.42");
        assert_ne!(EventId::compose(7, 42), EventId::compose(8, 42));
    }

    /// An id's trace is the one `publish` mints from the same node and
    /// sequence number, at both ends of each field a trace can name.
    #[test]
    fn an_event_id_names_its_publication_trace() {
        for (node, seq) in [
            (0, 0),
            (0, u32::MAX),
            (5, u32::MAX),
            ((1 << 30) - 1, 0),
            ((1 << 30) - 1, 9),
        ] {
            let trace = EventId::compose(node, seq).trace();
            assert_eq!(trace, TraceId::for_publication(node, seq));
            assert_eq!((trace.node(), trace.seq()), (Some(node), seq));
        }
    }
}
