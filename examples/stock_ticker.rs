//! Stock-ticker scenario: a market data stream with strong temporal
//! locality, demonstrating the notification **buffering + collecting**
//! optimizations of §4.3.2.
//!
//! Traders subscribe to price bands of specific symbols; the exchange
//! publishes a stream of ticks whose consecutive prices move in small
//! steps. The example runs the same stream twice — once with immediate
//! notifications, once with buffering + collecting — and reports the
//! notification message savings.
//!
//! ```text
//! cargo run --example stock_ticker
//! ```

use cbps::{
    AttributeDef, Event, EventSpace, MappingKind, NotifyMode, Primitive, PubSubConfig,
    PubSubNetwork, Subscription,
};
use cbps_sim::{Counter, SimDuration, TrafficClass};

/// Builds the market: attributes are (symbol, price in cents, size).
fn market_space() -> EventSpace {
    EventSpace::new(vec![
        AttributeDef::new("symbol", 1 << 16),
        AttributeDef::new("price", 1_000_000),
        AttributeDef::new("size", 100_000),
    ])
}

fn run(mode: NotifyMode) -> (u64, u64, usize) {
    let space = market_space();
    let mut net = PubSubNetwork::builder()
        .nodes(120)
        .seed(7)
        .pubsub(
            PubSubConfig::paper_default()
                .with_space(space.clone())
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_primitive(Primitive::MCast)
                .with_notify_mode(mode),
        )
        .build()
        .expect("valid network configuration");

    // Twenty traders watch ACME price bands around 500.00 (50_000 cents).
    for trader in 0..20usize {
        let lo = 45_000 + 300 * trader as u64;
        let sub = Subscription::builder(&space)
            .eq_str("symbol", "ACME")
            .range("price", lo, lo + 4_000)
            .unwrap()
            .build()
            .unwrap();
        net.subscribe(trader, sub, None).unwrap();
    }
    net.run_for_secs(30);

    // The exchange (node 100) streams 300 ticks; the price random-walks in
    // small steps — consecutive events hit the same rendezvous region.
    let symbol = space.value_of_str(0, "ACME");
    let mut price: i64 = 50_000;
    for i in 0..300u64 {
        price += ((i * 2654435761) % 401) as i64 - 200; // deterministic walk
        price = price.clamp(44_000, 56_000);
        let tick = Event::new(&space, vec![symbol, price as u64, 100 + i]).unwrap();
        net.publish(100, tick).unwrap();
        net.run_for_secs(1); // one tick per second
    }
    net.run_for_secs(300); // drain buffers

    let delivered: usize = (0..20).map(|t| net.delivered(t).len()).sum();
    let m = net.metrics();
    let notify_msgs = m.messages(TrafficClass::NOTIFICATION) + m.messages(TrafficClass::COLLECT);
    (
        notify_msgs,
        m.count(Counter::NotificationsDelivered),
        delivered,
    )
}

fn main() {
    println!("stock ticker: 20 traders, 300 ticks, price random-walk\n");
    let (base_msgs, base_notes, base_delivered) = run(NotifyMode::Immediate);
    println!(
        "immediate:        {base_msgs:>6} notification one-hop messages, {base_notes} notifications"
    );
    let period = SimDuration::from_secs(10);
    let (buf_msgs, buf_notes, buf_delivered) = run(NotifyMode::Buffered { period });
    println!(
        "buffered (10s):   {buf_msgs:>6} notification one-hop messages, {buf_notes} notifications"
    );
    let (col_msgs, col_notes, col_delivered) = run(NotifyMode::Collecting { period });
    println!(
        "buffer + collect: {col_msgs:>6} notification one-hop messages, {col_notes} notifications"
    );

    assert_eq!(
        base_delivered, buf_delivered,
        "buffering must not lose ticks"
    );
    assert_eq!(
        base_delivered, col_delivered,
        "collecting must not lose ticks"
    );
    println!(
        "\nsavings vs immediate: buffering {:.0}%, buffering+collecting {:.0}%",
        100.0 * (1.0 - buf_msgs as f64 / base_msgs as f64),
        100.0 * (1.0 - col_msgs as f64 / base_msgs as f64),
    );
    println!("every configuration delivered the same {base_delivered} matched ticks");
}
