//! The stateless *ak-mappings* of §4.2: `SK : Σ → 2^K` and `EK : Ω → 2^K`.
//!
//! All three mappings are built from the paper's scaling hash
//! `h_i(x) = x · 2^l / |Ω_i|`, optionally coarsened by *discretization*
//! (§4.3.3): values are first snapped to intervals of a configurable width
//! so that a whole interval shares one key.
//!
//! Every mapping satisfies the **mapping intersection rule**: if an event
//! `e` matches a subscription `σ`, then `EK(e) ∩ SK(σ) ≠ ∅` — verified by
//! property tests in this module.

use std::fmt;

use cbps_overlay::{Key, KeyRange, KeyRangeSet, KeySpace};

use crate::event::Event;
use crate::space::EventSpace;
use crate::subscription::Subscription;

/// Which of the paper's three mappings to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Mapping 1: every constraint hashed independently with `l = m`;
    /// subscriptions go to the union of all constraint images, events map
    /// by a single attribute.
    AttributeSplit,
    /// Mapping 2: the key's `m` bits are partitioned across attributes
    /// (`l = ⌊m/d⌋`); subscriptions map to the concatenation product,
    /// events to a single concatenated key.
    #[default]
    KeySpaceSplit,
    /// Mapping 3: subscriptions map only by their most selective
    /// constraint; events map by every attribute separately (d keys).
    SelectiveAttribute,
}

impl fmt::Display for MappingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingKind::AttributeSplit => write!(f, "mapping 1 (Attribute-Split)"),
            MappingKind::KeySpaceSplit => write!(f, "mapping 2 (Key Space-Split)"),
            MappingKind::SelectiveAttribute => write!(f, "mapping 3 (Selective-Attribute)"),
        }
    }
}

/// A configured ak-mapping: the pure functions `SK` and `EK`.
///
/// # Examples
///
/// The worked example of Figure 3: a 2-attribute space with values `0..8`,
/// a 4-bit key space, `σ = {a₁ < 2, 3 < a₂ < 7}`, `e = {a₁ = 1, a₂ = 6}`.
///
/// ```
/// use cbps::{AkMapping, AttributeDef, Event, EventSpace, MappingKind, Subscription};
/// use cbps_overlay::KeySpace;
///
/// let space = EventSpace::new(vec![
///     AttributeDef::new("a1", 8),
///     AttributeDef::new("a2", 8),
/// ]);
/// let keys = KeySpace::new(4);
/// let sub = Subscription::builder(&space)
///     .range("a1", 0, 1)?
///     .range("a2", 4, 6)?
///     .build()?;
/// let event = Event::new(&space, vec![1, 6])?;
///
/// // Mapping 1 (Figure 3b): SK = {0000, 0001} ∪ {0100, 0101, 0110}.
/// let m1 = AkMapping::new(MappingKind::AttributeSplit, &space, keys);
/// let sk = m1.sk(&sub);
/// assert_eq!(sk.count(), 5);
/// let ek = m1.ek(&event);
/// assert_eq!(ek.count(), 1);
/// assert!(ek.contains(keys.key(2))); // h(1) = 1·2⁴/8 = 2
/// assert!(ek.intersects(&sk)); // the mapping intersection rule
/// # Ok::<(), cbps::PubSubError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AkMapping {
    kind: MappingKind,
    key_space: KeySpace,
    /// `|Ω_i|` per dimension.
    domain_sizes: Vec<u64>,
    /// Discretization interval width (1 = exact values, §4.3.3).
    discretization: u64,
    /// Bits per attribute for Key Space-Split, `⌊m/d⌋`.
    split_bits: u32,
    /// Per-dimension circular offsets added after hashing — the "nearly
    /// static" mapping adjustments of §4.2 for accommodating hotspots.
    /// All zeros by default.
    rotations: Vec<u64>,
}

impl AkMapping {
    /// Configures a mapping for `space` onto `key_space` with no
    /// discretization.
    ///
    /// # Panics
    ///
    /// Panics for Key Space-Split when the key has fewer bits than the
    /// space has dimensions (`⌊m/d⌋ = 0`).
    pub fn new(kind: MappingKind, space: &EventSpace, key_space: KeySpace) -> Self {
        let d = space.dims() as u32;
        let split_bits = key_space.bits() / d;
        if kind == MappingKind::KeySpaceSplit {
            assert!(
                split_bits >= 1,
                "key space-split needs at least one key bit per attribute (m={}, d={d})",
                key_space.bits()
            );
        }
        AkMapping {
            kind,
            key_space,
            domain_sizes: space.attrs().iter().map(|a| a.size()).collect(),
            discretization: 1,
            split_bits,
            rotations: vec![0; space.dims()],
        }
    }

    /// Sets the discretization interval width (§4.3.3). Width 1 means no
    /// discretization.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_discretization(mut self, width: u64) -> Self {
        assert!(width > 0, "discretization width must be positive");
        self.discretization = width;
        self
    }

    /// Sets per-dimension circular key offsets — the paper's "nearly
    /// static" mapping variation (§4.2): infrequently changing the mapping
    /// functions relocates hotspots without touching stored-state
    /// semantics, as long as every node applies the same epoch's offsets.
    /// The mapping intersection rule is preserved for any offsets.
    ///
    /// # Panics
    ///
    /// Panics if `rotations.len()` differs from the dimension count.
    pub fn with_rotations(mut self, rotations: Vec<u64>) -> Self {
        assert_eq!(
            rotations.len(),
            self.rotations.len(),
            "one rotation per dimension required"
        );
        self.rotations = rotations;
        self
    }

    /// The configured mapping kind.
    pub fn kind(&self) -> MappingKind {
        self.kind
    }

    /// The key space being mapped onto.
    pub fn key_space(&self) -> KeySpace {
        self.key_space
    }

    /// The discretization interval width.
    pub fn discretization(&self) -> u64 {
        self.discretization
    }

    /// The per-dimension circular key offsets (all zeros by default).
    pub fn rotations(&self) -> &[u64] {
        &self.rotations
    }

    /// The scaling hash `h_i` with output width `bits`:
    /// `h(x) = ⌊x/w⌋·w · 2^l / |Ω_i|` (discretized values share a slot).
    fn scale(&self, dim: usize, value: u64, bits: u32) -> u64 {
        let snapped = value / self.discretization * self.discretization;
        let size = u128::from(self.domain_sizes[dim]);
        let scaled = (u128::from(snapped) << bits) / size;
        // The input is validated to value < |Ω_i|, so scaled < 2^bits; the
        // min is defensive for unchecked events.
        (scaled as u64).min((1u64 << bits) - 1)
    }

    /// `H_i` of a constraint interval as the contiguous span
    /// `[h(lo), h(hi)]`. Exact whenever the hash is compressive
    /// (`w·2^bits ≤ |Ω_i|`, the paper's standing assumption `2^l < |Ω_i|`);
    /// otherwise a superset of the true image.
    fn image(&self, dim: usize, lo: u64, hi: u64, bits: u32) -> (u64, u64) {
        (self.scale(dim, lo, bits), self.scale(dim, hi, bits))
    }

    /// The dimension's rotation offset reduced into a `bits`-wide space.
    fn rotation(&self, dim: usize, bits: u32) -> u64 {
        self.rotations[dim] & ((1u64 << bits) - 1)
    }

    /// Inserts the exact image `H_i([lo, hi])` into `set` (full `m`-bit key
    /// space), applying the dimension's rotation. When the hash stretches
    /// (stride between consecutive discretization intervals exceeds one
    /// key) the image is sparse and is enumerated exactly up to 4096
    /// intervals; beyond that, the contiguous superset is used — safe for
    /// the intersection rule, slightly pessimistic for storage.
    fn insert_image(&self, dim: usize, lo: u64, hi: u64, set: &mut KeyRangeSet) {
        let m = self.key_space.bits();
        let w = self.discretization;
        let rot = self.rotation(dim, m);
        let intervals = hi / w - lo / w + 1;
        let stretches = (u128::from(w) << m) > u128::from(self.domain_sizes[dim]);
        if stretches && intervals <= 4096 {
            for iv in (lo / w)..=(hi / w) {
                let k = self.scale(dim, iv * w, m).wrapping_add(rot);
                set.insert_key(self.key_space, self.key_space.key(k));
            }
        } else {
            let (a, b) = self.image(dim, lo, hi, m);
            // The rotated image is still one circular range (wrap handled
            // by KeyRange).
            set.insert_range(
                self.key_space,
                KeyRange::new(
                    self.key_space.key(a.wrapping_add(rot)),
                    self.key_space.key(b.wrapping_add(rot)),
                ),
            );
        }
    }

    /// `SK(σ)`: the rendezvous keys a subscription is sent to and stored
    /// under.
    pub fn sk(&self, sub: &Subscription) -> KeyRangeSet {
        match self.kind {
            MappingKind::AttributeSplit => self.sk_attribute_split(sub),
            MappingKind::KeySpaceSplit => self.sk_key_space_split(sub),
            MappingKind::SelectiveAttribute => self.sk_selective(sub),
        }
    }

    /// `EK(e)`: the rendezvous keys an event is sent to and matched at.
    pub fn ek(&self, event: &Event) -> KeyRangeSet {
        match self.kind {
            // Attribute-Split maps an event by its first attribute (the
            // paper's experiments: "each publication was mapped to one key").
            MappingKind::AttributeSplit => {
                KeyRangeSet::of_key(self.key_space, self.event_key(event, 0))
            }
            MappingKind::KeySpaceSplit => {
                let mask = (1u64 << self.split_bits) - 1;
                let mut concat = 0u64;
                for i in 0..event.dims() {
                    let slot = self
                        .scale(i, event.value(i), self.split_bits)
                        .wrapping_add(self.rotation(i, self.split_bits))
                        & mask;
                    concat = (concat << self.split_bits) | slot;
                }
                let key = self
                    .key_space
                    .key(concat << self.concat_shift(event.dims()));
                KeyRangeSet::of_key(self.key_space, key)
            }
            MappingKind::SelectiveAttribute => {
                let mut set = KeyRangeSet::new();
                for i in 0..event.dims() {
                    set.insert_key(self.key_space, self.event_key(event, i));
                }
                set
            }
        }
    }

    /// The attribute that placed `sub`: `Some(s)` under Selective-Attribute,
    /// where `SK(σ) = H_s(σ.c_s)` for the most selective constrained
    /// attribute `s`; `None` under the other two mappings, whose keys are
    /// not one attribute's image.
    ///
    /// Together with [`AkMapping::event_key`] this is the rule a rendezvous
    /// matches by: `e ∈ σ` implies `e.a_s ∈ σ.c_s`, hence
    /// `event_key(e, s) ∈ SK(σ)`, so the one node covering
    /// `event_key(e, s)` both stores σ and receives e, and it is the only
    /// node that needs to match them.
    pub fn placed_by(&self, sub: &Subscription) -> Option<usize> {
        match self.kind {
            // Fully-wildcard subscriptions are rejected at construction, so
            // a most selective dimension always exists.
            MappingKind::SelectiveAttribute => Some(
                sub.most_selective_by(|i| self.domain_sizes[i])
                    .expect("subscription has a constraint"),
            ),
            MappingKind::AttributeSplit | MappingKind::KeySpaceSplit => None,
        }
    }

    /// `h_dim(e.a_dim)` on the full `m`-bit key space, with the dimension's
    /// rotation: the key Selective-Attribute sends `event` to for attribute
    /// `dim`.
    pub fn event_key(&self, event: &Event, dim: usize) -> Key {
        let m = self.key_space.bits();
        let k = self
            .scale(dim, event.value(dim), m)
            .wrapping_add(self.rotation(dim, m));
        self.key_space.key(k)
    }

    fn sk_attribute_split(&self, sub: &Subscription) -> KeyRangeSet {
        let mut set = KeyRangeSet::new();
        // Every constrained dimension contributes its image (the paper's
        // ⋃_i H_i(σ.c_i)).
        for (i, c) in sub.constraints().iter().enumerate() {
            if let Some(c) = c {
                self.insert_image(i, c.lo(), c.hi(), &mut set);
            }
        }
        // EK maps by dimension 0, so it must be covered even when
        // unconstrained (full-range image), or matching events could miss
        // the subscription — the cost of partially defined subscriptions
        // under this mapping (§4.2).
        if sub.constraint(0).is_none() {
            self.insert_image(0, 0, self.domain_sizes[0] - 1, &mut set);
        }
        set
    }

    fn concat_shift(&self, dims: usize) -> u32 {
        self.key_space.bits() - self.split_bits * dims as u32
    }

    fn sk_key_space_split(&self, sub: &Subscription) -> KeyRangeSet {
        let d = sub.dims();
        let shift = self.concat_shift(d);
        let mask = (1u64 << self.split_bits) - 1;
        // Per-dimension circular slot runs: (start, width) where the run
        // is `start, start+1, …, start+width` modulo 2^l (rotation can
        // wrap it around the slot space).
        let slots: Vec<(u64, u64)> = (0..d)
            .map(|i| match sub.constraint(i) {
                Some(c) => {
                    let (a, b) = self.image(i, c.lo(), c.hi(), self.split_bits);
                    let start = a.wrapping_add(self.rotation(i, self.split_bits)) & mask;
                    (start, b - a)
                }
                None => (0, mask),
            })
            .collect();
        // Enumerate the concatenation product: odometer over the prefix
        // dimensions, one run insert per prefix for the final dimension.
        let mut set = KeyRangeSet::new();
        let mut prefix_offsets = vec![0u64; d.saturating_sub(1)];
        loop {
            let mut prefix = 0u64;
            for (i, &off) in prefix_offsets.iter().enumerate() {
                prefix = (prefix << self.split_bits) | ((slots[i].0 + off) & mask);
            }
            let (last_start, last_width) = slots[d - 1];
            if shift == 0 && last_start + last_width <= mask {
                // Contiguous run in key space.
                let lo = (prefix << self.split_bits) | last_start;
                let hi = (prefix << self.split_bits) | (last_start + last_width);
                set.insert_range(
                    self.key_space,
                    KeyRange::new(self.key_space.key(lo), self.key_space.key(hi)),
                );
            } else {
                // Spread with stride 2^shift (or a slot run that wraps):
                // insert each concatenation individually.
                for off in 0..=last_width {
                    let slot = (last_start + off) & mask;
                    let concat = (prefix << self.split_bits) | slot;
                    set.insert_key(self.key_space, self.key_space.key(concat << shift));
                }
            }
            // Advance the odometer over the prefix dimensions.
            let mut dim = prefix_offsets.len();
            loop {
                if dim == 0 {
                    return set;
                }
                dim -= 1;
                if prefix_offsets[dim] < slots[dim].1 {
                    prefix_offsets[dim] += 1;
                    for off in prefix_offsets.iter_mut().skip(dim + 1) {
                        *off = 0;
                    }
                    break;
                }
            }
        }
    }

    fn sk_selective(&self, sub: &Subscription) -> KeyRangeSet {
        let s = self.placed_by(sub).expect("selective-attribute places");
        let c = sub
            .constraint(s)
            .expect("selected dimension is constrained");
        let mut set = KeyRangeSet::new();
        self.insert_image(s, c.lo(), c.hi(), &mut set);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;
    use cbps_rng::Rng;

    /// The Figure 3 example space: 2 attributes over 0..8, 4-bit keys.
    fn fig3() -> (EventSpace, KeySpace, Subscription, Event) {
        let space = EventSpace::new(vec![AttributeDef::new("a1", 8), AttributeDef::new("a2", 8)]);
        let keys = KeySpace::new(4);
        let sub = Subscription::builder(&space)
            .range("a1", 0, 1)
            .unwrap()
            .range("a2", 4, 6)
            .unwrap()
            .build()
            .unwrap();
        let event = Event::new(&space, vec![1, 6]).unwrap();
        (space, keys, sub, event)
    }

    #[test]
    fn figure3_mapping1() {
        // Figure 3b writes keys as if h were the identity; with the
        // paper's actual scaling h(x) = x·2^m/|Ω| = 2x the images are
        // H(c1) = {h(0), h(1)} = {0, 2} and H(c2) = {8, 10, 12} — the same
        // *count* of 5 distinct keys the text reports.
        let (space, keys, sub, event) = fig3();
        let m = AkMapping::new(MappingKind::AttributeSplit, &space, keys);
        let sk = m.sk(&sub);
        let got: Vec<u64> = sk.iter_keys(keys).map(|k| k.value()).collect();
        assert_eq!(got, vec![0, 2, 8, 10, 12]);
        let ek = m.ek(&event);
        assert_eq!(ek.iter_keys(keys).next().unwrap().value(), 2); // h(1)
        assert!(ek.intersects(&sk));
    }

    #[test]
    fn figure3_mapping2() {
        let (space, keys, sub, event) = fig3();
        let m = AkMapping::new(MappingKind::KeySpaceSplit, &space, keys);
        // l = m/d = 2: H(c1) = {00}, H(c2) = {10, 11} (h(4)=1? check: 4·4/8
        // = 2 = 10₂, 6·4/8 = 3 = 11₂). Product = {0010, 0011}.
        let sk = m.sk(&sub);
        let got: Vec<u64> = sk.iter_keys(keys).map(|k| k.value()).collect();
        assert_eq!(got, vec![0b0010, 0b0011]);
        // EK(e) = h(1) ∘ h(6) = 00 ∘ 11 = 0011 (Figure 3c).
        let ek = m.ek(&event);
        assert_eq!(ek.iter_keys(keys).next().unwrap().value(), 0b0011);
        assert!(ek.intersects(&sk));
    }

    #[test]
    fn figure3_mapping3() {
        let (space, keys, sub, event) = fig3();
        let m = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        // c1 spans 2/8, c2 spans 3/8 → most selective is a1:
        // SK = {h(0), h(1)} = {0, 2}.
        let sk = m.sk(&sub);
        let got: Vec<u64> = sk.iter_keys(keys).map(|k| k.value()).collect();
        assert_eq!(got, vec![0, 2]);
        assert_eq!(m.placed_by(&sub), Some(0));
        // EK maps by every attribute: {h(1), h(6)} = {2, 12}.
        assert_eq!(m.event_key(&event, 0), keys.key(2));
        assert_eq!(m.event_key(&event, 1), keys.key(12));
        let ek = m.ek(&event);
        let got: Vec<u64> = ek.iter_keys(keys).map(|k| k.value()).collect();
        assert_eq!(got, vec![2, 12]);
        assert!(ek.intersects(&sk));
    }

    #[test]
    fn paper_scale_key_counts() {
        // §5.2: with the paper's parameters a non-selective constraint of
        // width 30000 out of 1e6 values maps to ≈ 30000·8192/1e6 ≈ 245 keys
        // under l = m = 13.
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let m = AkMapping::new(MappingKind::AttributeSplit, &space, keys);
        // Constraint positions chosen so the four key-space images are
        // disjoint (they share one m-bit ring, §4.2).
        let sub = Subscription::builder(&space)
            .range("a0", 100_000, 130_000)
            .unwrap()
            .range("a1", 300_000, 329_999)
            .unwrap()
            .range("a2", 500_000, 529_999)
            .unwrap()
            .range("a3", 700_000, 729_999)
            .unwrap()
            .build()
            .unwrap();
        let per_constraint = 30_000.0 * 8192.0 / 1_000_001.0; // ≈ 245.7
        let total = m.sk(&sub).count() as f64;
        assert!(
            (total - 4.0 * per_constraint).abs() < 8.0,
            "got {total}, expected ≈ {}",
            4.0 * per_constraint
        );

        // Key Space-Split: l = 3 → each constraint's image spans ~0.25
        // slots, so the product is 1..=16 keys ("slightly over one key").
        let m2 = AkMapping::new(MappingKind::KeySpaceSplit, &space, keys);
        let c = m2.sk(&sub).count();
        assert!((1..=16).contains(&c), "KSS mapped to {c} keys");

        // Selective-Attribute: one constraint's image ≈ 245 keys.
        let m3 = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        let c = m3.sk(&sub).count() as f64;
        assert!((c - per_constraint).abs() < 3.0, "SA mapped to {c} keys");
    }

    #[test]
    fn selective_equality_maps_to_single_key() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let m = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        let sub = Subscription::builder(&space)
            .eq("a2", 777_000)
            .range("a0", 0, 500_000)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(m.sk(&sub).count(), 1);
    }

    #[test]
    fn discretization_shrinks_subscription_keys() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let exact = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        let coarse = exact.clone().with_discretization(1500);
        let sub = Subscription::builder(&space)
            .range("a0", 100_000, 115_000)
            .unwrap()
            .build()
            .unwrap();
        let exact_keys = exact.sk(&sub).count();
        let coarse_keys = coarse.sk(&sub).count();
        assert!(
            coarse_keys < exact_keys,
            "discretization did not reduce keys: {coarse_keys} vs {exact_keys}"
        );
        // The image is still non-empty and contiguous.
        assert!(coarse_keys >= 1);
    }

    #[test]
    fn ek_is_single_key_for_mappings_1_and_2() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let e = Event::new(&space, vec![5, 500_000, 999_999, 0]).unwrap();
        for kind in [MappingKind::AttributeSplit, MappingKind::KeySpaceSplit] {
            let m = AkMapping::new(kind, &space, keys);
            assert_eq!(m.ek(&e).count(), 1, "{kind}");
        }
        let m3 = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        let c = m3.ek(&e).count();
        assert!((1..=4).contains(&c), "selective EK size {c}");
    }

    #[test]
    fn kss_spreads_keys_across_whole_ring() {
        // m = 13, d = 4 → l = 3, shift = 1: concatenations are spread with
        // stride 2 instead of crowding the bottom half of the ring.
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let m = AkMapping::new(MappingKind::KeySpaceSplit, &space, keys);
        let hi_event =
            Event::new(&space, vec![1_000_000, 1_000_000, 1_000_000, 1_000_000]).unwrap();
        let k = m.ek(&hi_event).min_key(keys).unwrap();
        assert!(
            k.value() > keys.size() / 2,
            "max-valued event should map near the top of the ring, got {k}"
        );
    }

    #[test]
    fn rotations_relocate_the_hotspot_but_preserve_matching() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let sub = Subscription::builder(&space)
            .eq("a0", 0) // the Zipf-hot value
            .build()
            .unwrap();
        let event = Event::new(&space, vec![0, 1, 2, 3]).unwrap();
        let plain = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys);
        let rotated = plain.clone().with_rotations(vec![4096, 0, 0, 0]);
        // The rendezvous key moves by exactly the rotation...
        let k0 = plain.sk(&sub).min_key(keys).unwrap();
        let k1 = rotated.sk(&sub).min_key(keys).unwrap();
        assert_eq!(keys.add(k0, 4096), k1);
        // ...and events still meet subscriptions under the rotated epoch.
        assert!(rotated.ek(&event).intersects(&rotated.sk(&sub)));
    }

    #[test]
    #[should_panic(expected = "one rotation per dimension")]
    fn rotations_length_validated() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let _ = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys)
            .with_rotations(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one key bit per attribute")]
    fn kss_rejects_tiny_keys() {
        let space = EventSpace::paper_default();
        let _ = AkMapping::new(MappingKind::KeySpaceSplit, &space, KeySpace::new(3));
    }

    #[test]
    fn wildcard_dim_zero_is_pinned_for_attribute_split() {
        let space = EventSpace::paper_default();
        let keys = KeySpace::new(13);
        let m = AkMapping::new(MappingKind::AttributeSplit, &space, keys);
        // Subscription constrains only a3; EK uses a0 → SK must cover the
        // whole a0 image (the full ring) to preserve the intersection rule.
        let sub = Subscription::builder(&space).eq("a3", 5).build().unwrap();
        let sk = m.sk(&sub);
        let e = Event::new(&space, vec![123_456, 0, 0, 5]).unwrap();
        assert!(m.ek(&e).intersects(&sk));
    }

    /// Draws a small random space plus a matching (event, subscription)
    /// pair over it (seeded-loop port of the old proptest strategy).
    fn random_matching_pair(rng: &mut Rng) -> (EventSpace, Subscription, Event) {
        let d = rng.gen_range(2usize..5);
        let size = rng.gen_range(4u64..2000);
        let sizes: Vec<u64> = (0..d).map(|i| size + i as u64 * 13).collect();
        let values: Vec<u64> = sizes.iter().map(|&s| rng.gen_range(0..s)).collect();
        let widths: Vec<f64> = (0..d).map(|_| rng.f64()).collect();
        let space = EventSpace::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| AttributeDef::new(format!("a{i}"), s))
                .collect(),
        );
        // Build a subscription whose constraints all admit the event (the
        // first dimension is always constrained so the subscription is
        // non-empty and EK dim 0 is live).
        let mut constraints = Vec::with_capacity(values.len());
        for (i, (&v, &w)) in values.iter().zip(&widths).enumerate() {
            let smax = sizes[i] - 1;
            let half = (w * sizes[i] as f64 / 4.0) as u64;
            if i == 0 || w > 0.3 {
                let lo = v.saturating_sub(half);
                let hi = (v + half).min(smax);
                constraints.push(Some(
                    crate::subscription::Constraint::range(lo, hi).unwrap(),
                ));
            } else {
                constraints.push(None);
            }
        }
        let sub = Subscription::from_constraints(&space, constraints).unwrap();
        let event = Event::new(&space, values).unwrap();
        (space, sub, event)
    }

    /// The intersection rule EK(e) ∩ SK(s) ≠ ∅ for every matching pair
    /// holds across all three mappings, discretization widths and
    /// rotations (§4, Theorem 1 of DESIGN.md).
    #[test]
    fn intersection_rule_holds_for_all_mappings() {
        let mut rng = Rng::seed_from_u64(0x1573_5ec7);
        for case in 0..512 {
            let (space, sub, event) = random_matching_pair(&mut rng);
            assert!(sub.matches(&event), "case {case}: generator broke matching");
            let bits = rng.gen_range(4u32..14);
            let width = rng.gen_range(1u64..50);
            let rot_seed = if rng.gen_bool(0.5) {
                Some(rng.next_u64())
            } else {
                None
            };
            let keys = KeySpace::new(bits);
            for kind in [
                MappingKind::AttributeSplit,
                MappingKind::KeySpaceSplit,
                MappingKind::SelectiveAttribute,
            ] {
                if kind == MappingKind::KeySpaceSplit && bits / space.dims() as u32 == 0 {
                    continue;
                }
                // Optional per-dimension rotations ("nearly static"
                // mapping variation) must never break the rule.
                let rotations: Vec<u64> = match rot_seed {
                    None => vec![0; space.dims()],
                    Some(seed) => (0..space.dims())
                        .map(|i| seed.rotate_left(i as u32 * 7) ^ (i as u64))
                        .collect(),
                };
                let m = AkMapping::new(kind, &space, keys)
                    .with_discretization(width)
                    .with_rotations(rotations);
                let sk = m.sk(&sub);
                let ek = m.ek(&event);
                assert!(!ek.is_empty(), "case {case}: empty EK for {kind}");
                assert!(!sk.is_empty(), "case {case}: empty SK for {kind}");
                assert!(
                    ek.intersects(&sk),
                    "case {case}: intersection rule violated for {kind}: \
                     EK={ek} SK={sk} sub={sub} event={event}"
                );
                // The source rule: under Selective-Attribute the event's
                // key on the attribute that placed the subscription lies
                // in SK itself, so its one owner stores σ and receives e.
                match m.placed_by(&sub) {
                    Some(s) => {
                        assert_eq!(kind, MappingKind::SelectiveAttribute);
                        let key = m.event_key(&event, s);
                        assert!(ek.contains(key), "case {case}: {key:?} not in EK={ek}");
                        assert!(sk.contains(key), "case {case}: {key:?} not in SK={sk}");
                    }
                    None => assert_ne!(kind, MappingKind::SelectiveAttribute),
                }
            }
        }
    }

    /// Coarser discretization never inflates a subscription's key image
    /// (beyond the one-cell boundary slack).
    #[test]
    fn sk_images_are_monotone_in_discretization() {
        let mut rng = Rng::seed_from_u64(0x1573_5ec8);
        for case in 0..256 {
            let (space, sub, _event) = random_matching_pair(&mut rng);
            let w1 = rng.gen_range(1u64..20);
            let w2 = rng.gen_range(20u64..200);
            let keys = KeySpace::new(12);
            let fine = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys)
                .with_discretization(w1);
            let coarse = AkMapping::new(MappingKind::SelectiveAttribute, &space, keys)
                .with_discretization(w2);
            assert!(
                coarse.sk(&sub).count() <= fine.sk(&sub).count() + 1,
                "case {case}: coarse image larger than fine image"
            );
        }
    }
}
