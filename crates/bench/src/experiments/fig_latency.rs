//! **Extension — the latency cost of buffering and collecting.**
//!
//! §4.3.2 notes that the optimizations reduce traffic while "introducing
//! only a delay in the notification itself", without quantifying the
//! delay. This experiment measures it: mean and p95 publish-to-delivery
//! latency per notification mode, alongside the message savings — the full
//! traffic/latency trade-off behind Figure 9(a).

use std::collections::HashMap;

use cbps::{EventId, MappingKind, NotifyMode, Primitive};
use cbps_sim::{SimDuration, SimTime, TrafficClass};
use cbps_workload::OpKind;

use crate::runner::{paper_workload, workload_gen, Deployment, Sweep};
use crate::table::{fmt_f, Table};

fn modes() -> Vec<(&'static str, NotifyMode)> {
    let p = SimDuration::from_secs(5);
    vec![
        ("immediate", NotifyMode::Immediate),
        ("buffer-only 1x", NotifyMode::Buffered { period: p }),
        ("buf+collect 1x", NotifyMode::Collecting { period: p }),
        ("buf+collect 5x", NotifyMode::Collecting { period: p * 5 }),
    ]
}

/// Runs the experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Extension: notification latency vs traffic per dispatch mode (mapping 3, unicast)",
        &[
            "mode",
            "mean latency [s]",
            "p95 latency [s]",
            "notify msgs/pub",
            "delivered",
        ],
    );
    let nodes = sweep.profile.nodes();
    let subs = scale.ops(300);
    let pubs = scale.ops(1000);
    for (label, mode) in modes() {
        let mut deployment = Deployment::new(nodes, 941);
        deployment.mapping = MappingKind::SelectiveAttribute;
        deployment.primitive = Primitive::Unicast;
        deployment.notify = mode;
        let cfg = paper_workload(nodes, 0)
            .with_counts(subs, pubs)
            .with_matching_probability(0.8)
            .with_seed_streak(8);
        let mut gen = workload_gen(cfg, 941);
        let trace = gen.gen_trace();

        let (mut latencies, msgs) = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = deployment.build_on::<B>(sweep.profile.obs);
            let event_ids = trace.replay(&mut net).event_ids;
            net.run_until(trace.end_time() + SimDuration::from_secs(2_000));
            // The replay assigns event ids in trace order.
            let publishes = trace.ops().iter().filter(|op| matches!(op.kind, OpKind::Publish { .. }));
            let publish_time: HashMap<EventId, SimTime> =
                event_ids.into_iter().zip(publishes.map(|op| op.at)).collect();

            let mut latencies: Vec<f64> = Vec::new();
            for i in 0..net.len() {
                for note in net.delivered(i) {
                    let published = publish_time[&note.event_id];
                    latencies.push(note.at.saturating_since(published).as_secs_f64());
                }
            }
            sweep.totals().record_obs(&mut net);
            let m = net.metrics();
            let msgs = (m.messages(TrafficClass::NOTIFICATION)
                + m.messages(TrafficClass::COLLECT)) as f64
                / pubs as f64;
            (latencies, msgs)
        });
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let p95 = latencies
            .get((latencies.len() * 95 / 100).min(latencies.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        table.push_row(vec![
            label.to_owned(),
            fmt_f(mean),
            fmt_f(p95),
            fmt_f(msgs),
            latencies.len().to_string(),
        ]);
    }
    table
}
