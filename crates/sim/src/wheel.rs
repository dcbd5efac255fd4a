//! A hierarchical timing wheel: the simulator's O(1) event queue.
//!
//! A binary heap costs O(log n) per push/pop, and every operation walks a
//! pointer-chasing sift path through a queue whose near-future head is
//! extremely dense (the paper's workloads deliver almost everything
//! exactly one 50 ms network delay ahead).
//! Calendar queues / timing wheels are the standard fix for discrete-event
//! cores with that shape: bucket events by their timestamp and pop by
//! walking the calendar, so both operations are O(1) amortized.
//!
//! [`TimingWheel`] orders entries by a packed `u128` key — `(time_micros <<
//! 64) | seq` — and reproduces a binary min-heap's pop order over those
//! keys *bit for bit*. Structure:
//!
//! * **Now lane** — a FIFO for entries pushed at the current drain time
//!   (zero-delay `send_local` deliveries). They are already in key order
//!   because `seq` increases monotonically, so a `VecDeque` suffices.
//! * **Fine wheel** — 16 slots of ~8 ms (2^13 µs) each, covering the
//!   current *chunk* of ~131 ms — beyond the 50 ms default hop delay, so a
//!   typical delivery lands at most one cascade away. A slot may hold
//!   several distinct timestamps; it is sorted once when drained
//!   (calendar-queue style), and its occupancy bitmap is a single `u64`.
//!   The coarse geometry is deliberate: an earlier 2^16 × 1 µs variant
//!   kept one timestamp per slot and never sorted, but scattering pushes
//!   across a 1.5 MB slot array cost more in cache misses than it saved
//!   in comparisons. Batching ~8 ms per slot keeps the wheel in a few
//!   cache lines and amortizes the refill scan over several events.
//! * **Two coarse levels** — 4096 slots each, one fine-chunk (~131 ms) and
//!   one L1-window (~537 s) wide respectively. A slot cascades into the
//!   level below when the wheel *enters* its window, which happens before
//!   any direct push can target that window — preserving per-slot push
//!   order. The L2 horizon is ~25 days.
//! * **Far heap** — a plain binary heap for entries beyond the L2 horizon.
//!   Practically empty in every real workload.
//!
//! Empty-slot skipping uses a two-level occupancy bitmap per wheel level,
//! so advancing across a sparse calendar costs a handful of word scans
//! rather than a slot-by-slot walk.
//!
//! # Determinism
//!
//! Pop order equals ascending key order, which is the `(time, seq)` total
//! order: a drained slot is sorted by key before it is consumed (keys are
//! unique, so an unstable sort is exact); the now lane only ever holds the
//! current timestamp, in `seq` order; cascades from coarser levels always
//! run before any direct push can land in the same window; and stragglers
//! that land behind the wheel's scan position (possible after a `peek`
//! advanced the scan) are merge-inserted into the active batch by key. The
//! heap stays as the test model: `interleaved_push_pop_matches_heap` drives
//! wheel and `BinaryHeap` through the simulator's delay profile, and the
//! simulator's `scheduler_equivalence` suite pins the storm fingerprints
//! the heap and the wheel both produced while the simulator could run
//! either.
//!
//! # Examples
//!
//! `seq` is a per-push counter (the simulator's event sequence number),
//! and pops come back in `(time, seq)` order regardless of push order:
//!
//! ```
//! use cbps_sim::TimingWheel;
//!
//! let key = |time_us: u64, seq: u64| ((time_us as u128) << 64) | seq as u128;
//! let mut wheel = TimingWheel::new();
//! wheel.push(key(0, 0), "now");
//! wheel.push(key(50_000, 1), "a");
//! wheel.push(key(50_000, 2), "b");
//! wheel.push(key(10_000, 3), "early");
//! assert_eq!(wheel.pop(), Some((key(0, 0), "now")));
//! assert_eq!(wheel.pop(), Some((key(10_000, 3), "early")));
//! assert_eq!(wheel.pop(), Some((key(50_000, 1), "a")));
//! assert_eq!(wheel.pop(), Some((key(50_000, 2), "b")));
//! assert_eq!(wheel.pop(), None);
//! ```

use std::collections::{BinaryHeap, VecDeque};

/// Fine-slot width: 2^13 µs ≈ 8 ms per slot.
const SLOT_SHIFT: u32 = 13;
/// Fine wheel: 2^4 = 16 slots, so one chunk spans 2^17 µs ≈ 131 ms —
/// beyond the paper's 50 ms hop delay — while the slot array stays small
/// enough to live in cache.
const FINE_BITS: u32 = 4;
const FINE_SLOTS: usize = 1 << FINE_BITS;
const FINE_MASK: u64 = (FINE_SLOTS - 1) as u64;
/// Bits of timestamp consumed by the fine wheel (`time >> CHUNK_SHIFT` is
/// the chunk number).
const CHUNK_SHIFT: u32 = SLOT_SHIFT + FINE_BITS;

/// Coarse levels: 4096 slots each. L1 slots are one chunk wide (window
/// ~537 s); L2 slots are one L1 window wide (window ~25 days).
const LEVEL_BITS: u32 = 12;
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
const LEVEL_MASK: u64 = (LEVEL_SLOTS - 1) as u64;

/// Initial per-slot capacity. The refill scan only visits *occupied*
/// slots, so an always-empty slot never receives recycled capacity from
/// the drain path — the first push into it would allocate. As periodic
/// timers drift across the 4096-slot rings that would be a thin but
/// never-ending trickle of allocations; seeding every slot up front
/// (~1 MiB per wheel at typical value sizes) keeps steady-state pushes
/// allocation-free. Growth beyond the seed is recycled by the cascade
/// buffer swaps.
const SLOT_SEED: usize = 4;

/// Time spans covered by one chunk / one L1 window / one L2 window, in µs.
/// Exposed to the unit tests so horizon cases track the real geometry.
#[cfg(test)]
const CHUNK_SPAN: u64 = 1 << CHUNK_SHIFT;
#[cfg(test)]
const L1_SPAN: u64 = CHUNK_SPAN << LEVEL_BITS;
#[cfg(test)]
const L2_SPAN: u64 = L1_SPAN << LEVEL_BITS;

#[inline]
fn time_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// Two-level occupancy bitmap: bit `i` of `words` marks slot `i` occupied,
/// bit `w` of `summary` marks word `w` non-zero. `next_set` scans the
/// summary so skipping a fully empty region costs a few word reads.
#[derive(Debug)]
struct Occupancy {
    words: Box<[u64]>,
    summary: Box<[u64]>,
}

impl Occupancy {
    fn new(bits: usize) -> Self {
        let words = bits.div_ceil(64);
        Occupancy {
            words: vec![0u64; words].into_boxed_slice(),
            summary: vec![0u64; words.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    fn set(&mut self, bit: usize) {
        let w = bit / 64;
        self.words[w] |= 1u64 << (bit % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    #[inline]
    fn clear(&mut self, bit: usize) {
        let w = bit / 64;
        self.words[w] &= !(1u64 << (bit % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Smallest set bit `>= from`, if any.
    fn next_set(&self, from: usize) -> Option<usize> {
        if from >= self.words.len() * 64 {
            return None;
        }
        let w = from / 64;
        let masked = self.words[w] & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
        let mut sw = (w + 1) / 64;
        let mut mask = !0u64 << ((w + 1) % 64);
        while sw < self.summary.len() {
            let s = self.summary[sw] & mask;
            if s != 0 {
                let wi = sw * 64 + s.trailing_zeros() as usize;
                return Some(wi * 64 + self.words[wi].trailing_zeros() as usize);
            }
            mask = !0;
            sw += 1;
        }
        None
    }
}

/// Far-heap entry: min-key-first under `BinaryHeap`'s max-heap order.
struct FarEntry<V> {
    key: u128,
    value: V,
}

impl<V> PartialEq for FarEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<V> Eq for FarEntry<V> {}
impl<V> PartialOrd for FarEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for FarEntry<V> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Hierarchical timing-wheel priority queue over packed `(time, seq)` keys.
///
/// Keys are `(time_micros << 64) | seq`; pops return entries in ascending
/// key order. Two preconditions, both upheld by the simulator: `seq` is a
/// counter incremented on every push (so pushes arrive in ascending `seq`
/// order), and a push's timestamp is never earlier than the last popped
/// entry's (the "no scheduling in the past" rule).
pub struct TimingWheel<V> {
    /// FIFO of entries pushed at the current drain time (`seq` order ==
    /// key order).
    now_lane: VecDeque<(u128, V)>,
    /// The slot currently being drained, in *descending* key order so
    /// `pop()` takes from the back. Stragglers are merge-inserted.
    batch: Vec<(u128, V)>,
    fine: Box<[Vec<(u128, V)>]>,
    /// Fine-slot occupancy. 16 slots fit one word, so the whole bitmap
    /// lives in a register — bit `i` set means slot `i` is non-empty.
    fine_occ: u64,
    l1: Box<[Vec<(u128, V)>]>,
    l1_occ: Occupancy,
    l2: Box<[Vec<(u128, V)>]>,
    l2_occ: Occupancy,
    far: BinaryHeap<FarEntry<V>>,
    /// Fine-wheel chunk the scan is in (`time >> CHUNK_SHIFT`).
    chunk: u64,
    /// Next fine slot to examine within the current chunk.
    cursor: usize,
    /// Timestamp of the last popped entry.
    drain_time: u64,
    /// Scratch buffer recycled across cascades so steady-state operation
    /// does not allocate.
    cascade_buf: Vec<(u128, V)>,
    len: usize,
}

impl<V> Default for TimingWheel<V> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<V> std::fmt::Debug for TimingWheel<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("drain_time", &self.drain_time)
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

impl<V> TimingWheel<V> {
    /// Creates an empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimingWheel {
            now_lane: VecDeque::new(),
            batch: Vec::with_capacity(SLOT_SEED),
            fine: (0..FINE_SLOTS)
                .map(|_| Vec::with_capacity(SLOT_SEED))
                .collect(),
            fine_occ: 0,
            l1: (0..LEVEL_SLOTS)
                .map(|_| Vec::with_capacity(SLOT_SEED))
                .collect(),
            l1_occ: Occupancy::new(LEVEL_SLOTS),
            l2: (0..LEVEL_SLOTS)
                .map(|_| Vec::with_capacity(SLOT_SEED))
                .collect(),
            l2_occ: Occupancy::new(LEVEL_SLOTS),
            far: BinaryHeap::new(),
            chunk: 0,
            cursor: 0,
            drain_time: 0,
            cascade_buf: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues an entry. `key`'s timestamp must be `>=` the last popped
    /// entry's timestamp.
    pub fn push(&mut self, key: u128, value: V) {
        let t = time_of(key);
        self.len += 1;
        if t <= self.drain_time {
            debug_assert!(t == self.drain_time, "scheduled into the past");
            self.now_lane.push_back((key, value));
            return;
        }
        self.place(key, value);
    }

    /// Pops the entry with the smallest key.
    pub fn pop(&mut self) -> Option<(u128, V)> {
        // The now lane holds the current drain timestamp, which is `<=`
        // every time in the batch, so comparing full keys picks correctly
        // between a leftover batch entry with smaller `seq` and a later
        // now-lane push.
        let take_now = match (self.now_lane.front(), self.batch.last()) {
            (Some(a), Some(b)) => a.0 < b.0,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let entry = if take_now {
            self.now_lane.pop_front().expect("front was Some")
        } else {
            if self.batch.is_empty() && !self.refill() {
                return None;
            }
            self.batch.pop().expect("refill produced a batch")
        };
        self.len -= 1;
        self.drain_time = time_of(entry.0);
        Some(entry)
    }

    /// Key of the entry the next [`TimingWheel::pop`] would return.
    /// `&mut self` because finding it may advance the wheel's scan
    /// position (the scan never skips or reorders entries).
    pub fn peek_key(&mut self) -> Option<u128> {
        let now_key = self.now_lane.front().map(|e| e.0);
        if self.batch.is_empty() {
            if now_key.is_some() {
                // Everything in the wheel is strictly later than the
                // drain time, which is the now lane's timestamp.
                return now_key;
            }
            if !self.refill() {
                return None;
            }
        }
        let batch_key = self.batch.last().map(|e| e.0);
        match (now_key, batch_key) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Routes a future entry (strictly later than the drain time) into the
    /// right level. Also used to re-seat far-heap entries on a far jump.
    fn place(&mut self, key: u128, value: V) {
        let t = time_of(key);
        let chunk = t >> CHUNK_SHIFT;
        if chunk == self.chunk {
            let idx = ((t >> SLOT_SHIFT) & FINE_MASK) as usize;
            if idx < self.cursor {
                // The scan already passed (or is draining) this slot: merge
                // into the active batch.
                self.batch_insert(key, value);
            } else {
                self.fine[idx].push((key, value));
                self.fine_occ |= 1 << idx;
            }
        } else if chunk < self.chunk {
            // Entire chunk already passed by a peek; same remedy.
            self.batch_insert(key, value);
        } else if chunk >> LEVEL_BITS == self.chunk >> LEVEL_BITS {
            let idx = (chunk & LEVEL_MASK) as usize;
            self.l1[idx].push((key, value));
            self.l1_occ.set(idx);
        } else if chunk >> (2 * LEVEL_BITS) == self.chunk >> (2 * LEVEL_BITS) {
            let idx = ((chunk >> LEVEL_BITS) & LEVEL_MASK) as usize;
            self.l2[idx].push((key, value));
            self.l2_occ.set(idx);
        } else {
            self.far.push(FarEntry { key, value });
        }
    }

    /// Merge-inserts into the active batch, keeping it key-descending.
    fn batch_insert(&mut self, key: u128, value: V) {
        let pos = self.batch.partition_point(|e| e.0 > key);
        self.batch.insert(pos, (key, value));
    }

    /// Loads the next occupied slot into `batch`. Returns `false` when the
    /// wheel (beyond the now lane and batch) is empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.batch.is_empty());
        loop {
            // `cursor <= FINE_SLOTS < 64`, so the shift never overflows.
            let pending = self.fine_occ & (!0u64 << self.cursor);
            if pending != 0 {
                self.take_slot(pending.trailing_zeros() as usize);
                return true;
            }
            // Fine wheel exhausted: advance to the next occupied chunk in
            // this L1 window...
            let l1_pos = (self.chunk & LEVEL_MASK) as usize;
            if let Some(s) = self.l1_occ.next_set(l1_pos + 1) {
                self.enter_chunk((self.chunk & !LEVEL_MASK) | s as u64, s);
                continue;
            }
            // ...or the next occupied L1 window in this L2 window...
            let l2_pos = ((self.chunk >> LEVEL_BITS) & LEVEL_MASK) as usize;
            if let Some(s2) = self.l2_occ.next_set(l2_pos + 1) {
                let win = ((self.chunk >> LEVEL_BITS) & !LEVEL_MASK) | s2 as u64;
                self.cascade_l2(s2, win);
                let s = self.l1_occ.next_set(0).expect("cascaded slot was occupied");
                self.enter_chunk((win << LEVEL_BITS) | s as u64, s);
                continue;
            }
            // ...or jump straight to the far heap's minimum. Every lower
            // level is empty here, so re-seating cannot reorder anything.
            let Some(head) = self.far.peek() else {
                return false;
            };
            self.chunk = time_of(head.key) >> CHUNK_SHIFT;
            self.cursor = 0;
            self.drain_far();
        }
    }

    /// Moves fine slot `idx`'s entries into `batch`, sorted key-descending
    /// (the batch drains from the back). A slot usually holds one
    /// timestamp in `seq` order, so the reverse makes it sorted already
    /// and the sort is a cheap verification pass. The previous batch
    /// buffer's capacity is deposited into the slot, so slot storage is
    /// recycled instead of reallocated.
    fn take_slot(&mut self, idx: usize) {
        std::mem::swap(&mut self.batch, &mut self.fine[idx]);
        self.batch.reverse();
        if !self.batch.is_sorted_by(|a, b| a.0 > b.0) {
            self.batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        }
        self.fine_occ &= !(1 << idx);
        self.cursor = idx + 1;
    }

    /// Enters `chunk`, cascading its L1 slot into the fine wheel. Per-slot
    /// push order is preserved; [`TimingWheel::take_slot`] sorts on drain.
    fn enter_chunk(&mut self, chunk: u64, l1_slot: usize) {
        self.chunk = chunk;
        self.cursor = 0;
        let mut buf = std::mem::take(&mut self.cascade_buf);
        std::mem::swap(&mut buf, &mut self.l1[l1_slot]);
        self.l1_occ.clear(l1_slot);
        for (key, value) in buf.drain(..) {
            debug_assert_eq!(time_of(key) >> CHUNK_SHIFT, chunk);
            let idx = ((time_of(key) >> SLOT_SHIFT) & FINE_MASK) as usize;
            self.fine[idx].push((key, value));
            self.fine_occ |= 1 << idx;
        }
        self.cascade_buf = buf;
    }

    /// Cascades L2 slot `slot` (covering L1 window `win`) into L1.
    fn cascade_l2(&mut self, slot: usize, win: u64) {
        let mut buf = std::mem::take(&mut self.cascade_buf);
        std::mem::swap(&mut buf, &mut self.l2[slot]);
        self.l2_occ.clear(slot);
        for (key, value) in buf.drain(..) {
            let chunk = time_of(key) >> CHUNK_SHIFT;
            debug_assert_eq!(chunk >> LEVEL_BITS, win);
            let idx = (chunk & LEVEL_MASK) as usize;
            self.l1[idx].push((key, value));
            self.l1_occ.set(idx);
        }
        self.cascade_buf = buf;
    }

    /// Pulls every far-heap entry inside the current L2 window down into
    /// the wheel. The heap pops in key order and all lower levels are
    /// empty, so per-slot order stays push order.
    fn drain_far(&mut self) {
        let l2_win = self.chunk >> (2 * LEVEL_BITS);
        while let Some(head) = self.far.peek() {
            if time_of(head.key) >> (CHUNK_SHIFT + 2 * LEVEL_BITS) != l2_win {
                break;
            }
            let FarEntry { key, value } = self.far.pop().expect("peeked Some");
            self.place(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbps_rng::Rng;

    fn key(t: u64, seq: u64) -> u128 {
        ((t as u128) << 64) | seq as u128
    }

    /// Reference: drive the same pushes through a sorted model and compare
    /// full pop order.
    fn check_against_model(ops: Vec<(u64, u64)>) {
        let mut wheel = TimingWheel::new();
        let mut model: Vec<u128> = Vec::new();
        for &(t, s) in &ops {
            wheel.push(key(t, s), s);
            model.push(key(t, s));
        }
        model.sort_unstable();
        let mut got = Vec::new();
        while let Some((k, _)) = wheel.pop() {
            got.push(k);
        }
        assert_eq!(got, model);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_key(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn same_timestamp_fifo() {
        check_against_model((0..100).map(|s| (1234, s)).collect());
    }

    #[test]
    fn ascending_and_descending_pushes() {
        check_against_model((0..50).map(|s| (s * 7, s)).collect());
        check_against_model((0..50).map(|s| ((50 - s) * 7, s)).collect());
    }

    #[test]
    fn multiple_timestamps_share_a_fine_slot() {
        // 2^10 µs per slot: timestamps 100, 700, 300 land in slot 0 out of
        // time order and must come back sorted.
        check_against_model(vec![(100, 0), (700, 1), (300, 2), (100, 3), (1040, 4)]);
    }

    #[test]
    fn cross_chunk_and_window_horizons() {
        // One entry per level: now, fine, L1, L2, far.
        let horizons = [
            0u64,
            50_000,
            CHUNK_SPAN * 3 + 17,
            L1_SPAN * 2 + 999,
            L2_SPAN * 5 + 1,
        ];
        check_against_model(
            horizons
                .iter()
                .enumerate()
                .map(|(s, &t)| (t, s as u64))
                .collect(),
        );
    }

    /// The wheel against its model, a `BinaryHeap`, under the simulator's
    /// delay profile: bursts of pushes sharing one timestamp, zero-delay
    /// cascades onto the drain time, 50 ms hops, jittered delays,
    /// multi-second and long-horizon timers and a sliver past the L2
    /// horizon — drained one pop at a time or the way `run_until` drains,
    /// peeking up to an arbitrary stop time and moving the clock there, so
    /// the next pushes can land behind a scan the peek advanced.
    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut rng = Rng::seed_from_u64(0x57ee1);
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<u128>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..8_000 {
            let delay = match rng.gen_range(0u64..100) {
                0..=24 => 0,
                25..=69 => 50_000,
                70..=84 => rng.gen_range(0u64..200_000),
                85..=94 => rng.gen_range(1u64..30) * 1_000_000,
                95..=98 => rng.gen_range(300u64..4_000) * 1_000_000,
                _ => rng.gen_range(0u64..2_000_000_000_000),
            };
            for _ in 0..rng.gen_range(1u64..5) {
                let k = key(now + delay, seq);
                seq += 1;
                wheel.push(k, ());
                heap.push(std::cmp::Reverse(k));
            }
            let until = match rng.gen_range(0u32..3) {
                0 => {
                    let expect = heap.pop().map(|r| r.0);
                    assert_eq!(wheel.peek_key(), expect);
                    assert_eq!(wheel.pop().map(|e| e.0), expect);
                    now = time_of(expect.expect("a push preceded the pop"));
                    continue;
                }
                1 => now + rng.gen_range(0u64..300_000),
                _ => continue,
            };
            while let Some(k) = wheel.peek_key() {
                assert_eq!(Some(k), heap.peek().map(|r| r.0));
                if time_of(k) > until {
                    break;
                }
                assert_eq!(wheel.pop().map(|e| e.0), heap.pop().map(|r| r.0));
                now = time_of(k);
            }
            assert_eq!(wheel.len(), heap.len());
            now = now.max(until);
        }
        while let Some(std::cmp::Reverse(k)) = heap.pop() {
            assert_eq!(wheel.pop().map(|e| e.0), Some(k));
        }
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn peek_then_push_between_keeps_order() {
        // A peek advances the scan past empty slots; a later push landing
        // behind the scan position must still pop in key order.
        let mut wheel = TimingWheel::new();
        wheel.push(key(100_000, 0), 0);
        assert_eq!(wheel.peek_key(), Some(key(100_000, 0)));
        // Straggler behind the scan, in an earlier (already passed) chunk.
        wheel.push(key(70_000, 1), 1);
        // Straggler in the same chunk, behind the cursor.
        wheel.push(key(99_999, 2), 2);
        // Same timestamp as the batch head, larger seq.
        wheel.push(key(100_000, 3), 3);
        let order: Vec<u128> = std::iter::from_fn(|| wheel.pop().map(|e| e.0)).collect();
        assert_eq!(
            order,
            vec![
                key(70_000, 1),
                key(99_999, 2),
                key(100_000, 0),
                key(100_000, 3)
            ]
        );
    }

    #[test]
    fn straggler_into_the_draining_slot() {
        // Pop an entry, then push a *later* timestamp that maps into the
        // slot currently being drained: it must merge into the batch.
        let mut wheel = TimingWheel::new();
        wheel.push(key(2048, 0), 0); // slot 2
        wheel.push(key(2050, 1), 1); // slot 2
        assert_eq!(wheel.pop(), Some((key(2048, 0), 0)));
        wheel.push(key(2049, 2), 2); // between drain time and batch head
        assert_eq!(wheel.pop(), Some((key(2049, 2), 2)));
        assert_eq!(wheel.pop(), Some((key(2050, 1), 1)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn now_lane_vs_leftover_batch_entries() {
        // Two entries share a timestamp; after popping the first, a
        // zero-delay push at that same timestamp gets a larger seq and
        // must pop *after* the leftover batch entry.
        let mut wheel = TimingWheel::new();
        wheel.push(key(1000, 0), 0);
        wheel.push(key(1000, 1), 1);
        assert_eq!(wheel.pop(), Some((key(1000, 0), 0)));
        wheel.push(key(1000, 2), 2); // now-lane push
        assert_eq!(wheel.pop(), Some((key(1000, 1), 1)));
        assert_eq!(wheel.pop(), Some((key(1000, 2), 2)));
    }

    #[test]
    fn randomized_against_model() {
        // Monotone-now randomized soak across all horizons, including
        // slot-sharing timestamps (the model is a full sort).
        let mut rng = Rng::seed_from_u64(0xCA1E);
        let mut ops = Vec::new();
        for s in 0..5_000u64 {
            let t = match rng.gen_range(0u64..10) {
                0..=5 => rng.gen_range(0u64..200_000),
                6..=7 => rng.gen_range(0u64..CHUNK_SPAN * 8),
                8 => rng.gen_range(0u64..L1_SPAN * 3),
                _ => rng.gen_range(0u64..L2_SPAN * 2),
            };
            ops.push((t, s));
        }
        check_against_model(ops);
    }

    #[test]
    fn occupancy_next_set() {
        let mut occ = Occupancy::new(4096);
        assert_eq!(occ.next_set(0), None);
        occ.set(0);
        occ.set(63);
        occ.set(64);
        occ.set(4_000);
        assert_eq!(occ.next_set(0), Some(0));
        assert_eq!(occ.next_set(1), Some(63));
        assert_eq!(occ.next_set(64), Some(64));
        assert_eq!(occ.next_set(65), Some(4_000));
        occ.clear(4_000);
        assert_eq!(occ.next_set(65), None);
        assert_eq!(occ.next_set(4096 + 5), None);
    }
}
