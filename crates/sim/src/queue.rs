//! The simulator's event queue: a binary min-heap over packed
//! `(time, seq)` keys, beside a FIFO lane for keys that arrive in order.
//!
//! [`EventQueue`] orders entries by a `u128` key — `(time_micros << 64) |
//! seq` — and pops them in ascending key order. The simulator hands out a
//! fresh `seq` on every push, so keys are unique and the pop order is the
//! `(time, seq)` total order: same-time events fire in the order they were
//! scheduled. That order, not just "some earliest event", is the contract:
//! event order drives RNG draw order, so one transposed pop would desync a
//! whole run. `crates/sim/tests/scheduler_equivalence.rs` pins whole storm
//! histories to it. Why a heap, and the queue depths the simulator runs
//! at: DESIGN.md, "Event scheduler".
//!
//! Network sends take [`EventQueue::push_lane`]. Under a fixed network
//! delay a send's key `(now + d, seq)` is larger than that of every send
//! before it — the clock never goes back and `seq` only grows — so the
//! lane is a queue that stays sorted by construction, and such an entry
//! costs a ring-buffer append and a front pop instead of two heap sifts.
//! An entry whose key is not above the lane's tail (a jittered delay)
//! goes to the heap instead, so the lane never has to sort. A pop takes
//! the smaller of the two heads: the order is exactly the heap's.
//!
//! # Examples
//!
//! `seq` is a per-push counter (the simulator's event sequence number),
//! and pops come back in `(time, seq)` order regardless of push order or
//! of which part holds an entry:
//!
//! ```
//! use cbps_sim::EventQueue;
//!
//! let key = |time_us: u64, seq: u64| ((time_us as u128) << 64) | seq as u128;
//! let mut queue = EventQueue::new();
//! queue.push(key(0, 0), "now");
//! queue.push_lane(key(50_000, 1), "a");
//! queue.push_lane(key(50_000, 2), "b");
//! queue.push_lane(key(10_000, 3), "early"); // below the lane's tail: heap
//! assert_eq!(queue.len(), 4);
//! assert_eq!(queue.peek_key(), Some(key(0, 0)));
//! assert_eq!(queue.pop(), Some((key(0, 0), "now")));
//! assert_eq!(queue.pop(), Some((key(10_000, 3), "early")));
//! assert_eq!(queue.pop(), Some((key(50_000, 1), "a")));
//! assert_eq!(queue.pop(), Some((key(50_000, 2), "b")));
//! assert_eq!(queue.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Min-priority queue over packed `(time, seq)` keys.
///
/// Pops return entries in ascending key order; keys are expected to be
/// unique (the simulator's `seq` never repeats), which makes that order
/// total. Capacity is kept across pops, so a queue that has reached its
/// high-water depth pushes without allocating.
#[derive(Debug)]
pub struct EventQueue<V> {
    heap: BinaryHeap<Entry<V>>,
    /// Entries from [`EventQueue::push_lane`], in ascending key order.
    lane: VecDeque<Entry<V>>,
}

/// One queued entry, ordered by its key alone and in reverse, so that
/// `BinaryHeap`'s max-heap pops the smallest key first. (A `Reverse<(u128,
/// V)>` tuple needs no impls but compares twice per step: 15–20 % slower
/// push/pop at the depths the simulator runs.)
#[derive(Debug)]
struct Entry<V> {
    key: u128,
    value: V,
}

impl<V> PartialEq for Entry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<V> Eq for Entry<V> {}
impl<V> PartialOrd for Entry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for Entry<V> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The name the frozen `benchmark/` crate times (`sim.wheel_ns_per_pushpop`)
/// from the hierarchical timing wheel this queue replaced. A stub: ROADMAP
/// item 5's benchmark-only change renames the metric and deletes it.
pub type TimingWheel<V> = EventQueue<V>;

impl<V> Default for EventQueue<V> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<V> EventQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
        }
    }

    /// Number of queued entries, in the heap and the lane together.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Queues an entry under `key` on the heap.
    #[inline]
    pub fn push(&mut self, key: u128, value: V) {
        self.heap.push(Entry { key, value });
    }

    /// Queues an entry under `key` that is most likely larger than every
    /// key pushed here before: appended to the lane when it is above the
    /// lane's tail, else pushed on the heap. Either way it pops in key
    /// order.
    #[inline]
    pub fn push_lane(&mut self, key: u128, value: V) {
        let entry = Entry { key, value };
        match self.lane.back() {
            Some(tail) if tail.key >= key => self.heap.push(entry),
            _ => self.lane.push_back(entry),
        }
    }

    /// Pops the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, V)> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) => lane.key < heap.key,
            (lane, _) => lane.is_some(),
        };
        let entry = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        entry.map(|e| (e.key, e.value))
    }

    /// Key of the entry the next [`EventQueue::pop`] would return.
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        let lane = self.lane.front().map(|e| e.key);
        let heap = self.heap.peek().map(|e| e.key);
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
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

    fn time_of(key: u128) -> u64 {
        (key >> 64) as u64
    }

    /// Timer horizons: a ~131 ms chunk, a ~537 s and a ~25-day window.
    const CHUNK_SPAN: u64 = 1 << 17;
    const L1_SPAN: u64 = CHUNK_SPAN << 12;
    const L2_SPAN: u64 = L1_SPAN << 12;

    /// The queue beside its model: a `Vec` kept sorted in descending key
    /// order, whose last element is the next pop. Every push takes the
    /// next `seq`, as the simulator's do, and queues it as the value; every
    /// pop and peek asserts that queue and model agree, in length too.
    #[derive(Default)]
    struct Checked {
        queue: EventQueue<u64>,
        model: Vec<u128>,
        seq: u64,
    }

    impl Checked {
        /// Pushes one entry at each of `times`, in order, on the heap.
        fn push(&mut self, times: impl IntoIterator<Item = u64>) {
            self.push_to(times, EventQueue::push);
        }

        /// Pushes one entry at each of `times`, in order, through the lane.
        fn push_lane(&mut self, times: impl IntoIterator<Item = u64>) {
            self.push_to(times, EventQueue::push_lane);
        }

        fn push_to(
            &mut self,
            times: impl IntoIterator<Item = u64>,
            push: fn(&mut EventQueue<u64>, u128, u64),
        ) {
            for t in times {
                let k = key(t, self.seq);
                push(&mut self.queue, k, self.seq);
                self.model.insert(self.model.partition_point(|&m| m > k), k);
                self.seq += 1;
            }
        }

        fn peek(&self) -> Option<u128> {
            assert_eq!(self.queue.peek_key(), self.model.last().copied());
            assert_eq!(self.queue.len(), self.model.len());
            self.queue.peek_key()
        }

        fn pop(&mut self) -> Option<u128> {
            let got = self.queue.pop();
            assert_eq!(got, self.model.pop().map(|k| (k, k as u64)));
            assert_eq!(self.queue.len(), self.model.len());
            got.map(|(k, _)| k)
        }

        /// Peeks and pops until both sides are empty.
        fn drain(&mut self) {
            while self.peek().is_some() {
                self.pop();
            }
            assert!(self.queue.is_empty() && self.pop().is_none());
        }
    }

    /// Pushes `times` in order, then checks the full pop order.
    fn check_against_model(times: impl IntoIterator<Item = u64>) {
        let mut checked = Checked::default();
        checked.push(times);
        checked.drain();
    }

    #[test]
    fn empty_queue() {
        check_against_model(std::iter::empty());
    }

    #[test]
    fn same_timestamp_fifo() {
        check_against_model([1234; 100]);
    }

    #[test]
    fn ascending_and_descending_pushes() {
        check_against_model((0..50).map(|s| s * 7));
        check_against_model((0..50).map(|s| (50 - s) * 7));
    }

    #[test]
    fn close_timestamps_pushed_out_of_order() {
        check_against_model([100, 700, 300, 100, 1040]);
    }

    #[test]
    fn cross_chunk_and_window_horizons() {
        // One entry per horizon: now, one hop, chunks, windows, beyond.
        check_against_model([
            0,
            50_000,
            CHUNK_SPAN * 3 + 17,
            L1_SPAN * 2 + 999,
            L2_SPAN * 5 + 1,
        ]);
    }

    #[test]
    fn peek_then_push_between_keeps_order() {
        // Entries pushed after a peek, earlier than the peeked head or at
        // its time with a larger seq, still pop in key order.
        let mut checked = Checked::default();
        checked.push([100_000]);
        checked.peek();
        checked.push([70_000, 99_999, 100_000]);
        checked.drain();
    }

    #[test]
    fn push_between_the_last_pop_and_the_head() {
        // After a pop, a push later than the popped entry but earlier
        // than the queued head pops next.
        let mut checked = Checked::default();
        checked.push([2048, 2050]);
        checked.pop();
        checked.push([2049]);
        checked.drain();
    }

    #[test]
    fn zero_delay_push_after_a_same_time_leftover() {
        // A zero-delay push after one of two same-time entries popped has
        // a larger seq than the leftover, and pops after it.
        let mut checked = Checked::default();
        checked.push([1000, 1000]);
        checked.pop();
        checked.push([1000]);
        checked.drain();
    }

    /// Pushes across all horizons, then a full drain.
    #[test]
    fn randomized_against_model() {
        let mut rng = Rng::seed_from_u64(0xCA1E);
        check_against_model((0..5_000).map(|_| match rng.gen_range(0u64..10) {
            0..=5 => rng.gen_range(0u64..200_000),
            6..=7 => rng.gen_range(0u64..CHUNK_SPAN * 8),
            8 => rng.gen_range(0u64..L1_SPAN * 3),
            _ => rng.gen_range(0u64..L2_SPAN * 2),
        }));
    }

    /// The simulator's delay profile (same-time bursts, zero-delay
    /// cascades, 50 ms hops, jitter, multi-second and long-horizon timers)
    /// with pops interleaved one at a time or the way `run_until` drains to
    /// an arbitrary stop.
    #[test]
    fn interleaved_push_pop_matches_model() {
        let mut rng = Rng::seed_from_u64(0x57ee1);
        let mut checked = Checked::default();
        let mut now = 0u64;
        for _ in 0..8_000 {
            let delay = match rng.gen_range(0u64..100) {
                0..=24 => 0,
                25..=69 => 50_000,
                70..=84 => rng.gen_range(0u64..200_000),
                85..=94 => rng.gen_range(1u64..30) * 1_000_000,
                95..=98 => rng.gen_range(300u64..4_000) * 1_000_000,
                _ => rng.gen_range(0u64..2_000_000_000_000),
            };
            let burst = rng.gen_range(1usize..5);
            checked.push(std::iter::repeat_n(now + delay, burst));
            match rng.gen_range(0u32..3) {
                0 => {
                    checked.peek();
                    now = time_of(checked.pop().expect("a push preceded the pop"));
                }
                1 => {
                    let until = now + rng.gen_range(0u64..300_000);
                    while checked.peek().is_some_and(|k| time_of(k) <= until) {
                        now = time_of(checked.pop().expect("peeked"));
                    }
                    now = now.max(until);
                }
                _ => {}
            }
        }
        checked.drain();
    }

    #[test]
    fn lane_pushes_below_the_tail_go_to_the_heap() {
        let mut checked = Checked::default();
        checked.push_lane([50_000, 50_000, 60_000]);
        checked.push_lane([55_000]);
        checked.push([10]);
        assert_eq!((checked.queue.lane.len(), checked.queue.heap.len()), (3, 2));
        checked.drain();
    }

    /// Heap pushes (timers, local hand-backs), lane pushes one fixed hop
    /// ahead (in key order) and lane pushes with a jittered delay (often
    /// out of order), interleaved with peeks, single pops and drains to an
    /// arbitrary stop.
    #[test]
    fn lane_and_heap_interleaved_match_model() {
        let mut rng = Rng::seed_from_u64(0x1a7e);
        let mut checked = Checked::default();
        let (mut now, mut both_held, mut spilled) = (0u64, 0u32, 0u32);
        for _ in 0..8_000 {
            let burst = rng.gen_range(1usize..4);
            match rng.gen_range(0u32..10) {
                0..=3 => checked.push_lane(std::iter::repeat_n(now + 50_000, burst)),
                4..=5 => {
                    let lane = checked.queue.lane.len();
                    checked.push_lane([now + rng.gen_range(10_000u64..90_000)]);
                    spilled += u32::from(checked.queue.lane.len() == lane);
                }
                6..=7 => checked.push(std::iter::repeat_n(now, burst)),
                _ => {
                    let delay = rng.gen_range(0u64..2_000_000);
                    checked.push(std::iter::repeat_n(now + delay, burst));
                }
            }
            both_held +=
                u32::from(!checked.queue.lane.is_empty() && !checked.queue.heap.is_empty());
            match rng.gen_range(0u32..4) {
                0 => {
                    checked.peek();
                }
                1 | 2 => {
                    now = time_of(checked.pop().expect("a push preceded the pop"));
                }
                _ => {
                    let until = now + rng.gen_range(0u64..100_000);
                    while checked.peek().is_some_and(|k| time_of(k) <= until) {
                        now = time_of(checked.pop().expect("peeked"));
                    }
                    now = now.max(until);
                }
            }
        }
        assert!(
            both_held > 1_000,
            "lane and heap rarely held entries together"
        );
        assert!(spilled > 100, "only {spilled} lane pushes went to the heap");
        checked.drain();
    }
}
