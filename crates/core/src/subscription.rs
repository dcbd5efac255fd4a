//! Subscriptions: conjunctions of range constraints over event attributes
//! (§3.2). Disjunctions are expressed as separate subscriptions.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::error::PubSubError;
use crate::event::Event;
use crate::space::EventSpace;

/// Globally unique subscription identifier: subscriber node index in the
/// high bits, per-subscriber sequence number in the low bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(pub u64);

impl SubId {
    /// Composes an id from the subscriber's node index and its sequence
    /// number.
    pub fn compose(node: usize, seq: u32) -> Self {
        SubId(((node as u64) << 32) | u64::from(seq))
    }

    /// The subscriber node index encoded in this id.
    pub fn node(self) -> usize {
        (self.0 >> 32) as usize
    }
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.{}", self.node(), self.0 & 0xFFFF_FFFF)
    }
}

/// Map keyed by [`SubId`] with a multiplicative hasher. Ids are minted by
/// the system itself (node index and sequence number), never taken from
/// input, so SipHash's flooding resistance buys nothing here and costs a
/// large share of every id-keyed probe on the store's insert path.
pub(crate) type IdMap<V> = HashMap<SubId, V, BuildHasherDefault<IdHasher>>;

/// Set of system-minted ids ([`SubId`], [`EventId`](crate::EventId) or a
/// pair of them), hashed like [`IdMap`]. Never iterated where order could
/// show.
pub(crate) type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// The hasher behind [`IdMap`]: one multiply per word, with the high half
/// of the product folded down on `finish` because the table indexes with
/// the low bits and ids differ mostly in their high (node) half.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// An inclusive range constraint `lo <= a_i <= hi` on one attribute.
///
/// Equality constraints are ranges with `lo == hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    lo: u64,
    hi: u64,
}

impl Constraint {
    /// The inclusive range `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::EmptyConstraint`] when `lo > hi`.
    pub fn range(lo: u64, hi: u64) -> Result<Self, PubSubError> {
        if lo > hi {
            return Err(PubSubError::EmptyConstraint { lo, hi });
        }
        Ok(Constraint { lo, hi })
    }

    /// The equality constraint `a_i == v`.
    pub fn eq(v: u64) -> Self {
        Constraint { lo: v, hi: v }
    }

    /// Lower bound (inclusive).
    pub fn lo(self) -> u64 {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(self) -> u64 {
        self.hi
    }

    /// Number of values the constraint admits, `r_i`.
    pub fn span(self) -> u64 {
        self.hi - self.lo + 1
    }

    /// `true` iff `v` satisfies the constraint.
    pub fn admits(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "= {}", self.lo)
        } else {
            write!(f, "∈ [{}, {}]", self.lo, self.hi)
        }
    }
}

/// A subscription σ: a conjunction of per-attribute constraints. Attributes
/// without a constraint are wildcards (the "partially defined
/// subscriptions" of §4.2).
///
/// A subscription is immutable once built and its constraints sit behind
/// one shared allocation: cloning bumps a reference count, so the copy a
/// subscriber keeps, the ≈ 60 rendezvous copies of Mapping 1 and every
/// index entry made from them all point at the same slots.
///
/// # Examples
///
/// ```
/// use cbps::{AttributeDef, Event, EventSpace, Subscription};
///
/// let space = EventSpace::new(vec![
///     AttributeDef::new("price", 1000),
///     AttributeDef::new("qty", 100),
/// ]);
/// // price < 200 (i.e. in [0, 199]), qty unconstrained.
/// let sub = Subscription::builder(&space).range("price", 0, 199)?.build()?;
/// assert!(sub.matches(&Event::new(&space, vec![150, 7])?));
/// assert!(!sub.matches(&Event::new(&space, vec![500, 7])?));
/// # Ok::<(), cbps::PubSubError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Subscription {
    /// One slot per dimension; `None` = wildcard.
    constraints: Arc<[Option<Constraint>]>,
    /// Digest of the slots, computed once at build: equal shapes digest
    /// equally, so it serves as the hash and as a fast inequality test.
    digest: u64,
}

impl PartialEq for Subscription {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && (Arc::ptr_eq(&self.constraints, &other.constraints)
                || self.constraints == other.constraints)
    }
}

impl Eq for Subscription {}

impl Hash for Subscription {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// FNV-1a over `(constrained?, lo, hi)` per slot.
fn digest_of(constraints: &[Option<Constraint>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in constraints {
        let (tag, lo, hi) = c.map_or((0, 0, 0), |c| (1, c.lo(), c.hi()));
        for word in [tag, lo, hi] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Subscription {
    /// Starts building a subscription over `space`.
    pub fn builder(space: &EventSpace) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            space,
            constraints: vec![None; space.dims()],
            error: None,
        }
    }

    /// Creates a subscription directly from per-dimension constraint slots.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::DimensionMismatch`] when the slot count
    /// differs from the space's dimensionality,
    /// [`PubSubError::ValueOutOfDomain`] when a bound exceeds its domain,
    /// and [`PubSubError::UnconstrainedSubscription`] when every slot is a
    /// wildcard.
    pub fn from_constraints(
        space: &EventSpace,
        constraints: Vec<Option<Constraint>>,
    ) -> Result<Self, PubSubError> {
        if constraints.len() != space.dims() {
            return Err(PubSubError::DimensionMismatch {
                expected: space.dims(),
                got: constraints.len(),
            });
        }
        for (i, c) in constraints.iter().enumerate() {
            if let Some(c) = c {
                if !space.valid_value(i, c.hi()) {
                    return Err(PubSubError::ValueOutOfDomain {
                        attr: space.attr(i).name().to_owned(),
                        value: c.hi(),
                        size: space.attr(i).size(),
                    });
                }
            }
        }
        if constraints.iter().all(Option::is_none) {
            return Err(PubSubError::UnconstrainedSubscription);
        }
        Ok(Subscription {
            digest: digest_of(&constraints),
            constraints: constraints.into(),
        })
    }

    /// The constraint slots, one per dimension (`None` = wildcard).
    pub fn constraints(&self) -> &[Option<Constraint>] {
        &self.constraints
    }

    /// The constraint on dimension `i`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn constraint(&self, i: usize) -> Option<Constraint> {
        self.constraints[i]
    }

    /// Number of dimensions of the underlying space.
    pub fn dims(&self) -> usize {
        self.constraints.len()
    }

    /// Number of constrained dimensions.
    pub fn constrained_count(&self) -> usize {
        self.constraints.iter().flatten().count()
    }

    /// `true` iff the event satisfies every constraint (`e ∈ σ`, §3.2).
    pub fn matches(&self, event: &Event) -> bool {
        debug_assert_eq!(event.dims(), self.constraints.len());
        self.constraints
            .iter()
            .zip(event.values())
            .all(|(c, &v)| c.is_none_or(|c| c.admits(v)))
    }

    /// The lowest constrained dimension index. `None` only for the
    /// fully-wildcard shape, which [`Subscription::from_constraints`]
    /// rejects — so always `Some` for constructed subscriptions.
    pub fn first_constrained(&self) -> Option<usize> {
        self.constraints.iter().position(Option::is_some)
    }

    /// `true` iff every event matched by `other` is also matched by
    /// `self` (`other ⊆ self`): on each dimension, `self` is either a
    /// wildcard or a range enclosing `other`'s. This is the covering
    /// relation the store's subscription-aggregation layer uses to share
    /// one physical index entry among several logical subscriptions.
    pub fn covers(&self, other: &Subscription) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.constraints
            .iter()
            .zip(other.constraints.iter())
            .all(|(c, o)| match (c, o) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(c), Some(o)) => c.lo() <= o.lo() && o.hi() <= c.hi(),
            })
    }

    /// The dimension of the most selective constraint: the constrained `i`
    /// minimizing `r_i / |Ω_i|` (§4.2, Mapping 3). Ties break to the lowest
    /// index. Returns `None` for a fully-wildcard subscription.
    pub fn most_selective(&self, space: &EventSpace) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in self.constraints.iter().enumerate() {
            let Some(c) = c else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let cb = self.constraints[b].expect("best is constrained");
                    // r_i/|Ω_i| < r_b/|Ω_b| ⇔ r_i·|Ω_b| < r_b·|Ω_i| exactly.
                    let lhs = u128::from(c.span()) * u128::from(space.attr(b).size());
                    let rhs = u128::from(cb.span()) * u128::from(space.attr(i).size());
                    if lhs < rhs {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// The selectivity `r_i / |Ω_i|` of dimension `i` (1.0 for wildcards).
    pub fn selectivity(&self, space: &EventSpace, i: usize) -> f64 {
        match self.constraints[i] {
            None => 1.0,
            Some(c) => c.span() as f64 / space.attr(i).size() as f64,
        }
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{{")?;
        let mut first = true;
        for (i, c) in self.constraints.iter().enumerate() {
            if let Some(c) = c {
                if !first {
                    write!(f, " ∧ ")?;
                }
                first = false;
                write!(f, "a{i} {c}")?;
            }
        }
        write!(f, "}}")
    }
}

/// Incremental construction of a [`Subscription`] by attribute name.
#[derive(Debug)]
pub struct SubscriptionBuilder<'a> {
    space: &'a EventSpace,
    constraints: Vec<Option<Constraint>>,
    error: Option<PubSubError>,
}

impl<'a> SubscriptionBuilder<'a> {
    /// Adds the range constraint `lo <= name <= hi`.
    ///
    /// # Errors
    ///
    /// Defers [`PubSubError::UnknownAttribute`], range and domain errors to
    /// [`SubscriptionBuilder::build`].
    pub fn range(mut self, name: &str, lo: u64, hi: u64) -> Result<Self, PubSubError> {
        self.apply(name, Constraint::range(lo, hi)?);
        Ok(self)
    }

    /// Adds the equality constraint `name == v`.
    pub fn eq(mut self, name: &str, v: u64) -> Self {
        self.apply(name, Constraint::eq(v));
        self
    }

    /// Adds a range constraint with real-valued bounds on a float-scaled
    /// attribute (see [`crate::AttributeDef::with_float_range`]). Bounds
    /// are quantized monotonically, so the constraint admits every value
    /// whose quantization falls inside the quantized range — exact up to
    /// one quantization cell.
    ///
    /// # Panics
    ///
    /// Panics if the attribute exists but has no float scale, or a bound
    /// is NaN (domain errors are deferred to [`SubscriptionBuilder::build`]).
    pub fn range_f64(mut self, name: &str, lo: f64, hi: f64) -> Result<Self, PubSubError> {
        match self.space.attr_index(name) {
            Some(i) => {
                let def = self.space.attr(i);
                let qlo = def.quantize_f64(lo);
                let qhi = def.quantize_f64(hi);
                self.constraints[i] = Some(Constraint::range(qlo, qhi)?);
            }
            None => {
                self.error.get_or_insert(PubSubError::UnknownAttribute {
                    name: name.to_owned(),
                });
            }
        }
        Ok(self)
    }

    /// Adds an equality constraint on the hash of a string value.
    pub fn eq_str(mut self, name: &str, v: &str) -> Self {
        match self.space.attr_index(name) {
            Some(i) => {
                let value = self.space.value_of_str(i, v);
                self.constraints[i] = Some(Constraint::eq(value));
            }
            None => {
                self.error.get_or_insert(PubSubError::UnknownAttribute {
                    name: name.to_owned(),
                });
            }
        }
        self
    }

    fn apply(&mut self, name: &str, c: Constraint) {
        match self.space.attr_index(name) {
            Some(i) => self.constraints[i] = Some(c),
            None => {
                self.error.get_or_insert(PubSubError::UnknownAttribute {
                    name: name.to_owned(),
                });
            }
        }
    }

    /// Finishes the subscription.
    ///
    /// # Errors
    ///
    /// Returns the first deferred error, or the validation errors of
    /// [`Subscription::from_constraints`].
    pub fn build(self) -> Result<Subscription, PubSubError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Subscription::from_constraints(self.space, self.constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;

    fn space() -> EventSpace {
        EventSpace::new(vec![
            AttributeDef::new("a", 100),
            AttributeDef::new("b", 1000),
            AttributeDef::new("c", 10),
        ])
    }

    #[test]
    fn constraint_basics() {
        let c = Constraint::range(3, 7).unwrap();
        assert_eq!(c.span(), 5);
        assert!(c.admits(3) && c.admits(7));
        assert!(!c.admits(2) && !c.admits(8));
        assert_eq!(Constraint::eq(4).span(), 1);
        assert_eq!(Constraint::eq(4).to_string(), "= 4");
        assert_eq!(c.to_string(), "∈ [3, 7]");
        assert!(Constraint::range(7, 3).is_err());
    }

    #[test]
    fn matching_with_wildcards() {
        let s = space();
        let sub = Subscription::builder(&s)
            .range("a", 10, 20)
            .unwrap()
            .eq("c", 5)
            .build()
            .unwrap();
        assert_eq!(sub.constrained_count(), 2);
        assert!(sub.matches(&Event::new_unchecked(vec![15, 999, 5])));
        assert!(!sub.matches(&Event::new_unchecked(vec![15, 999, 6])));
        assert!(!sub.matches(&Event::new_unchecked(vec![9, 0, 5])));
    }

    #[test]
    fn most_selective_uses_relative_width() {
        let s = space();
        // a: 50/100 = 0.5; b: 100/1000 = 0.1; c: wildcard.
        let sub = Subscription::builder(&s)
            .range("a", 0, 49)
            .unwrap()
            .range("b", 0, 99)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sub.most_selective(&s), Some(1));
        // Equality on the small attribute c: 1/10 = 0.1 ties with b → lowest
        // index wins (b is dimension 1, c is dimension 2).
        let sub2 = Subscription::builder(&s)
            .range("b", 0, 99)
            .unwrap()
            .eq("c", 3)
            .build()
            .unwrap();
        assert_eq!(sub2.most_selective(&s), Some(1));
        // A strictly tighter c wins.
        let sub3 = Subscription::builder(&s)
            .range("b", 0, 199)
            .unwrap()
            .eq("c", 3)
            .build()
            .unwrap();
        assert_eq!(sub3.most_selective(&s), Some(2));
    }

    #[test]
    fn covering_relation() {
        let s = space();
        let wide = Subscription::builder(&s)
            .range("a", 10, 50)
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&s)
            .range("a", 20, 30)
            .unwrap()
            .eq("c", 5)
            .build()
            .unwrap();
        // A wildcard dimension covers any constraint; a constrained one
        // never covers a wildcard.
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
        let shifted = Subscription::builder(&s)
            .range("a", 5, 30)
            .unwrap()
            .build()
            .unwrap();
        assert!(!wide.covers(&shifted));
        assert_eq!(wide.first_constrained(), Some(0));
        let late = Subscription::builder(&s).eq("c", 1).build().unwrap();
        assert_eq!(late.first_constrained(), Some(2));
    }

    #[test]
    fn unknown_attribute_deferred_to_build() {
        let s = space();
        let err = Subscription::builder(&s).eq("zz", 1).build().unwrap_err();
        assert_eq!(err, PubSubError::UnknownAttribute { name: "zz".into() });
    }

    #[test]
    fn out_of_domain_bound_rejected() {
        let s = space();
        let err = Subscription::builder(&s)
            .range("c", 0, 10)
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, PubSubError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn fully_wildcard_rejected() {
        let s = space();
        let err = Subscription::from_constraints(&s, vec![None, None, None]).unwrap_err();
        assert_eq!(err, PubSubError::UnconstrainedSubscription);
    }

    #[test]
    fn string_equality() {
        let s = EventSpace::new(vec![AttributeDef::new("topic", 1 << 20)]);
        let sub = Subscription::builder(&s)
            .eq_str("topic", "alerts")
            .build()
            .unwrap();
        let v = s.value_of_str(0, "alerts");
        assert!(sub.matches(&Event::new_unchecked(vec![v])));
    }

    #[test]
    fn display_lists_constraints() {
        let s = space();
        let sub = Subscription::builder(&s)
            .range("a", 1, 2)
            .unwrap()
            .eq("c", 9)
            .build()
            .unwrap();
        assert_eq!(sub.to_string(), "σ{a0 ∈ [1, 2] ∧ a2 = 9}");
    }

    #[test]
    fn float_range_constraints_match_quantized_events() {
        let s = EventSpace::new(vec![
            AttributeDef::new("temp", 10_000).with_float_range(-40.0, 60.0),
            AttributeDef::new("room", 64),
        ]);
        let sub = Subscription::builder(&s)
            .range_f64("temp", 20.0, 25.0)
            .unwrap()
            .eq("room", 7)
            .build()
            .unwrap();
        let inside = Event::new_unchecked(vec![s.attr(0).quantize_f64(22.5), 7]);
        let below = Event::new_unchecked(vec![s.attr(0).quantize_f64(19.0), 7]);
        let above = Event::new_unchecked(vec![s.attr(0).quantize_f64(26.0), 7]);
        assert!(sub.matches(&inside));
        assert!(!sub.matches(&below));
        assert!(!sub.matches(&above));
    }

    #[test]
    fn sub_id_composition() {
        let id = SubId::compose(3, 9);
        assert_eq!(id.node(), 3);
        assert_eq!(id.to_string(), "s3.9");
    }
}
