//! The seeded storm workload and its execution recorder, shared by the
//! integration tests that pin a run's history in exact event-queue order
//! (`scheduler_equivalence`) and that compare two runs of one history (a
//! counting prefetch hook against the default one in `prefetch_hook`).

#![allow(dead_code)] // each test binary uses its own part

use std::cell::RefCell;
use std::rc::Rc;

use cbps_sim::{Context, NetConfig, Node, NodeIdx, SimDuration, SimTime, Simulator, TrafficClass};

/// A message that fans out until its TTL runs dry.
#[derive(Clone, Debug)]
pub struct Ping {
    pub ttl: u8,
    pub val: u64,
}

/// What a [`Log`] entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Deliver,
    Timer,
    SendFailed,
    Note,
}

/// One upcall or note: `(time, node, kind, tag)`, the tag empty except on
/// notes.
pub type Entry = (SimTime, NodeIdx, Kind, &'static str);

/// The upcall log every node of one storm appends to, so it holds the
/// global upcall order.
pub type Log = Rc<RefCell<Vec<Entry>>>;

/// Node that turns every upcall into a deterministic-but-messy mix of
/// sends, local cascades, and timer storms. All decisions come from the
/// simulator's RNG, so a single out-of-order event desyncs the run.
pub struct StormNode {
    n: usize,
    checksum: u64,
    upcalls: u64,
    timers_fired: u64,
    log: Log,
}

impl StormNode {
    pub fn new(n: usize, log: Log) -> Self {
        StormNode {
            n,
            checksum: 0,
            upcalls: 0,
            timers_fired: 0,
            log,
        }
    }

    fn record(&self, ctx: &Context<'_, Ping, u64>, kind: Kind, tag: &'static str) {
        let entry = (ctx.now(), ctx.self_idx(), kind, tag);
        self.log.borrow_mut().push(entry);
    }

    fn fold(&mut self, now: SimTime, a: u64, b: u64) {
        self.upcalls += 1;
        self.checksum = self
            .checksum
            .rotate_left(9)
            .wrapping_add(now.as_micros())
            .wrapping_add(a.wrapping_mul(0x9e37_79b9))
            .wrapping_add(b);
    }
}

impl Node for StormNode {
    type Msg = Ping;
    type Timer = u64;

    fn on_message(&mut self, from: NodeIdx, msg: Ping, ctx: &mut Context<'_, Ping, u64>) {
        self.record(ctx, Kind::Deliver, "");
        self.fold(ctx.now(), from as u64, msg.val);
        if msg.ttl == 0 {
            return;
        }
        let next = Ping {
            ttl: msg.ttl - 1,
            val: msg.val.wrapping_add(1),
        };
        match ctx.rng().gen_range(0..6u32) {
            0 | 1 => {
                // Network hop to a pseudo-random peer.
                let to = (from + msg.val as usize) % self.n;
                ctx.send(to, TrafficClass::OTHER, next);
            }
            2 => {
                // Zero-delay local cascade: a same-timestamp burst.
                self.record(ctx, Kind::Note, "local-burst");
                for i in 0..3u64 {
                    ctx.send_local(Ping {
                        ttl: msg.ttl - 1,
                        val: msg.val.wrapping_add(i),
                    });
                }
            }
            3 => {
                // Timer storm: several timers expiring at the same instant.
                for i in 0..4u64 {
                    ctx.arm_timer(SimDuration::from_millis(250), msg.val.wrapping_add(i));
                }
            }
            4 => {
                // Long-horizon timers: past the fine wheel (>131 ms), past
                // the L1 window (>537 s), and into L2 territory.
                let secs = [1u64, 30, 400, 3_600][ctx.rng().gen_range(0..4usize)];
                ctx.arm_timer(SimDuration::from_secs(secs), msg.val);
            }
            _ => {
                // Fan out two hops at once.
                let a = (from + 1) % self.n;
                let b = (from + msg.val as usize + 1) % self.n;
                ctx.send(a, TrafficClass::OTHER, next.clone());
                ctx.send(b, TrafficClass::OTHER, next);
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Ping, u64>) {
        self.record(ctx, Kind::Timer, "");
        self.fold(ctx.now(), u64::MAX, timer);
        self.timers_fired += 1;
        if timer.is_multiple_of(3) {
            let to = timer as usize % self.n;
            ctx.send(to, TrafficClass::OTHER, Ping { ttl: 2, val: timer });
        }
    }

    fn on_send_failed(&mut self, to: NodeIdx, msg: Ping, ctx: &mut Context<'_, Ping, u64>) {
        self.record(ctx, Kind::SendFailed, "");
        self.fold(ctx.now(), to as u64, msg.val);
        self.record(ctx, Kind::Note, "send-failed");
    }
}

/// Everything observable about one run. Equality means the two runs
/// executed the same history.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub queue_peak: usize,
    pub end_time: SimTime,
    pub messages: u64,
    pub timers_fired: u64,
    pub checksums: Vec<u64>,
    pub upcalls: Vec<u64>,
    pub trace: Vec<Entry>,
}

/// A node that runs the storm: [`StormNode`] itself, or a wrapper that
/// adds something the recorder must not see.
pub trait Storm: Node<Msg = Ping, Timer = u64> + From<StormNode> {
    fn storm(&self) -> &StormNode;
}

impl Storm for StormNode {
    fn storm(&self) -> &StormNode {
        self
    }
}

impl Fingerprint {
    /// What a test pins of a run: events, queue peak, end time in µs and an
    /// FNV-1a digest of the upcall log (time, node, kind and tag of every
    /// entry, in order).
    pub fn pin(&self) -> (u64, usize, u64, u64) {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for &(at, node, kind, tag) in &self.trace {
            mix(at.as_micros());
            mix(node as u64);
            mix(kind as u64);
            tag.bytes().for_each(|b| mix(u64::from(b)));
        }
        (
            self.events,
            self.queue_peak,
            self.end_time.as_micros(),
            hash,
        )
    }
}

pub fn fingerprint<N: Storm>(sim: &Simulator<N>) -> Fingerprint {
    Fingerprint {
        events: sim.events_processed(),
        queue_peak: sim.queue_peak(),
        end_time: sim.now(),
        messages: sim.metrics().messages(TrafficClass::OTHER),
        timers_fired: sim.nodes().map(|(_, n)| n.storm().timers_fired).sum(),
        checksums: sim.nodes().map(|(_, n)| n.storm().checksum).collect(),
        upcalls: sim.nodes().map(|(_, n)| n.storm().upcalls).collect(),
        trace: sim.node(0).storm().log.borrow().clone(),
    }
}

pub const NODES: usize = 16;

pub fn build<N: Storm>(seed: u64) -> Simulator<N> {
    let mut sim = Simulator::new(NetConfig::new(seed));
    let log = Log::default();
    for _ in 0..NODES {
        sim.add_node(StormNode::new(NODES, Rc::clone(&log)).into());
    }
    sim
}

/// Seeds a same-timestamp burst (many messages injected at the exact same
/// instant) plus staggered follow-ups.
pub fn seed_workload<N: Storm>(sim: &mut Simulator<N>) {
    for i in 0..48u64 {
        sim.inject_at(
            SimTime::ZERO,
            (i as usize) % NODES,
            Ping { ttl: 10, val: i },
        );
    }
    for i in 0..16u64 {
        sim.inject_at(
            SimTime::from_millis(10 * i),
            (3 * i as usize) % NODES,
            Ping {
                ttl: 8,
                val: 1_000 + i,
            },
        );
    }
}
