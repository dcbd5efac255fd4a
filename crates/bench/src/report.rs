//! Structured JSON run reports (`cbps-report/v2`).
//!
//! Supersedes the flat perf records of `results/bench/BENCH_baseline.json` (implicitly
//! `cbps-report/v1`): the v1 per-experiment fields (`wall_secs`, `events`,
//! `events_per_sec`, `peak_queue_depth`) keep their names and meaning, so
//! old baselines stay comparable, and each experiment additionally carries
//! the observability distillate of the run — per-stage latency
//! percentiles, named histograms, and the hottest rendezvous nodes.
//!
//! JSON is rendered by hand (the workspace is dependency-free); values are
//! limited to numbers and the fixed stage/class vocabulary, so escaping
//! reduces to the string-literal basics.

use cbps_sim::{ObsSummary, Observability, Stage};

use crate::runner::{RunProfile, RunTotals};

/// Summary of one `(traffic class, stage)` latency histogram. Latencies
/// are microseconds of simulated time since the operation's origin stage.
#[derive(Clone, Debug)]
pub struct StageSummary {
    /// Traffic-class name (`subscription`, `publication`, ...).
    pub class: String,
    /// Stage name (`publish`, `route-hop`, `deliver`, ...).
    pub stage: String,
    /// Count/mean/percentiles of the since-origin latency in µs.
    pub summary: ObsSummary,
}

/// Summary of one named histogram (`store.size`, `rendezvous.fanout`,
/// `queue.depth`, ...). Units are those of the recorded samples.
#[derive(Clone, Debug)]
pub struct NamedSummary {
    /// Histogram name.
    pub name: String,
    /// Count/mean/percentiles of the samples.
    pub summary: ObsSummary,
}

/// One of the most-loaded rendezvous nodes of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotNode {
    /// Node index.
    pub node: usize,
    /// Peak stored-subscription count at that node (max over runs).
    pub peak_stored: u64,
}

/// Node-load balance of one experiment: how far the hottest rendezvous
/// nodes sit above the mean. Load is the per-node cumulative rendezvous work (publications processed
/// + matches produced); ratios close to 1 mean a balanced ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadReport {
    /// Max node load over mean node load.
    pub max_mean: f64,
    /// 99th-percentile node load over mean node load.
    pub p99_mean: f64,
}

impl LoadReport {
    /// Distills per-node work counts into ratio form. Returns `None` when
    /// no node recorded any work (ratios undefined).
    pub fn from_work(work: &[u64]) -> Option<LoadReport> {
        let total: u64 = work.iter().sum();
        if work.is_empty() || total == 0 {
            return None;
        }
        let mean = total as f64 / work.len() as f64;
        let max = *work.iter().max().expect("non-empty") as f64;
        let mut sorted: Vec<u64> = work.to_vec();
        sorted.sort_unstable();
        // Nearest-rank p99: 1-based rank ceil(0.99 * n).
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        let p99 = sorted[rank - 1] as f64;
        Some(LoadReport {
            max_mean: max / mean,
            p99_mean: p99 / mean,
        })
    }
}

/// The observability distillate of one experiment.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Per-(class, stage) latency summaries, in pipeline order.
    pub stages: Vec<StageSummary>,
    /// Named-histogram summaries, sorted by name.
    pub named: Vec<NamedSummary>,
    /// Top-k most-loaded rendezvous nodes, heaviest first.
    pub hot_nodes: Vec<HotNode>,
    /// Node-load balance; `None` when no work counts were recorded.
    pub load: Option<LoadReport>,
    /// Stage records retained in the trace log.
    pub trace_records: usize,
    /// Stage records dropped once the log filled.
    pub trace_dropped: u64,
}

/// How many hot nodes a report keeps.
pub const HOT_NODE_TOP_K: usize = 5;

impl ObsReport {
    /// Distills a merged observability registry (plus the per-node peak
    /// store sizes accumulated alongside it) into report form.
    pub fn distill(obs: &Observability, node_peaks: &[u64]) -> ObsReport {
        let stage_index = |s: Stage| {
            Stage::ALL
                .iter()
                .position(|&x| x == s)
                .unwrap_or(usize::MAX)
        };
        let mut stages: Vec<(u8, usize, StageSummary)> = obs
            .stage_histograms()
            .filter_map(|(class, stage, h)| {
                ObsSummary::of(h).map(|summary| {
                    (
                        class.0,
                        stage_index(stage),
                        StageSummary {
                            class: class.name().to_owned(),
                            stage: stage.name().to_owned(),
                            summary,
                        },
                    )
                })
            })
            .collect();
        stages.sort_by_key(|(c, s, _)| (*c, *s));

        let mut named: Vec<NamedSummary> = obs
            .named_histograms()
            .filter_map(|(name, h)| {
                ObsSummary::of(h).map(|summary| NamedSummary {
                    name: name.to_owned(),
                    summary,
                })
            })
            .collect();
        named.sort_by(|a, b| a.name.cmp(&b.name));

        let mut hot: Vec<HotNode> = node_peaks
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0)
            .map(|(node, &peak_stored)| HotNode { node, peak_stored })
            .collect();
        // Heaviest first; ties broken by node index so output is stable.
        hot.sort_by_key(|h| (std::cmp::Reverse(h.peak_stored), h.node));
        hot.truncate(HOT_NODE_TOP_K);

        ObsReport {
            stages: stages.into_iter().map(|(_, _, s)| s).collect(),
            named,
            hot_nodes: hot,
            load: None,
            trace_records: obs.log().len(),
            trace_dropped: obs.log().dropped(),
        }
    }

    /// Attaches the node-load balance distilled from per-node work counts.
    pub fn with_load(mut self, work: &[u64]) -> ObsReport {
        self.load = LoadReport::from_work(work);
        self
    }
}

/// One experiment's record in the report: the v1 perf fields plus the
/// optional observability distillate.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment name as passed to `run_named`.
    pub name: String,
    /// Wall-clock seconds for the whole experiment.
    pub wall_secs: f64,
    /// Simulator events processed across the experiment's runs.
    pub events: u64,
    /// Maximum event-queue depth seen by any run.
    pub peak_queue_depth: u64,
    /// Observability distillate; `None` when the run had tracing off.
    pub obs: Option<ObsReport>,
}

impl ExperimentReport {
    /// The record of experiment `name`, which ran `wall_secs` and added
    /// up to `totals`.
    pub fn new(name: String, wall_secs: f64, totals: &RunTotals) -> Self {
        ExperimentReport {
            name,
            wall_secs,
            events: totals.events,
            peak_queue_depth: totals.queue_peak,
            obs: totals.obs_report(),
        }
    }
}

/// A whole `figures` invocation's report: the run's configuration, then
/// one record per experiment.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// `quick`, `paper` or `large` (`trace` for a `cbps stats` replay).
    pub scale: String,
    /// Network-size override (`--nodes`); `None` when every experiment ran
    /// at its own sizes.
    pub nodes: Option<usize>,
    /// Worker-pool size the sweep ran with.
    pub jobs: usize,
    /// Observability mode name the sweep ran under (`off`, `stages`, `full`).
    pub observability: String,
    /// Overlay substrate the sweep deployed on (`chord` or `pastry`).
    pub overlay: String,
    /// Per-experiment records, in run order.
    pub experiments: Vec<ExperimentReport>,
}

impl RunReport {
    /// The report of a run under `profile`: every profile field, then
    /// `experiments`.
    pub fn new(profile: &RunProfile, experiments: Vec<ExperimentReport>) -> Self {
        RunReport {
            scale: profile.scale.name().to_owned(),
            nodes: profile.nodes,
            jobs: profile.jobs,
            observability: profile.obs.name().to_owned(),
            overlay: profile.overlay.name().to_owned(),
            experiments,
        }
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"cbps-report/v2\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", escape(&self.scale)));
        let nodes = self.nodes.map_or("null".to_owned(), |n| n.to_string());
        out.push_str(&format!("  \"nodes\": {nodes},\n"));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"observability\": \"{}\",\n",
            escape(&self.observability)
        ));
        out.push_str(&format!("  \"overlay\": \"{}\",\n", escape(&self.overlay)));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(&experiment_json(e, "    "));
            out.push_str(if i + 1 < self.experiments.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let total_secs: f64 = self.experiments.iter().map(|e| e.wall_secs).sum();
        let total_events: u64 = self.experiments.iter().map(|e| e.events).sum();
        out.push_str(&format!("  \"total_wall_secs\": {total_secs:.3},\n"));
        out.push_str(&format!("  \"total_events\": {total_events}\n"));
        out.push_str("}\n");
        out
    }
}

fn experiment_json(e: &ExperimentReport, indent: &str) -> String {
    let events_per_sec = if e.wall_secs > 0.0 {
        e.events as f64 / e.wall_secs
    } else {
        0.0
    };
    let mut out = format!(
        "{indent}{{\"name\": \"{}\", \"wall_secs\": {:.3}, \"events\": {}, \
         \"events_per_sec\": {:.0}, \"peak_queue_depth\": {}",
        escape(&e.name),
        e.wall_secs,
        e.events,
        events_per_sec,
        e.peak_queue_depth,
    );
    if let Some(obs) = &e.obs {
        let inner = format!("{indent}  ");
        out.push_str(",\n");
        out.push_str(&format!("{inner}\"stages\": [\n"));
        for (i, s) in obs.stages.iter().enumerate() {
            out.push_str(&format!(
                "{inner}  {{\"class\": \"{}\", \"stage\": \"{}\", \"unit\": \"us\", {}}}{}\n",
                escape(&s.class),
                escape(&s.stage),
                summary_fields(&s.summary),
                if i + 1 < obs.stages.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{inner}],\n"));
        out.push_str(&format!("{inner}\"histograms\": [\n"));
        for (i, n) in obs.named.iter().enumerate() {
            out.push_str(&format!(
                "{inner}  {{\"name\": \"{}\", {}}}{}\n",
                escape(&n.name),
                summary_fields(&n.summary),
                if i + 1 < obs.named.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{inner}],\n"));
        out.push_str(&format!("{inner}\"hot_nodes\": ["));
        for (i, h) in obs.hot_nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"node\": {}, \"peak_stored\": {}}}",
                h.node, h.peak_stored
            ));
        }
        out.push_str("],\n");
        if let Some(load) = &obs.load {
            out.push_str(&format!(
                "{inner}\"load\": {{\"max_mean\": {:.3}, \"p99_mean\": {:.3}}},\n",
                load.max_mean, load.p99_mean
            ));
        }
        out.push_str(&format!(
            "{inner}\"trace\": {{\"records\": {}, \"dropped\": {}}}\n",
            obs.trace_records, obs.trace_dropped
        ));
        out.push_str(&format!("{indent}}}"));
    } else {
        out.push('}');
    }
    out
}

fn summary_fields(s: &ObsSummary) -> String {
    format!(
        "\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}",
        s.count, s.mean, s.p50, s.p90, s.p99, s.max
    )
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use cbps_sim::{ObsMode, ObsSeries, SimTime, TraceId, TrafficClass};

    fn sample_obs() -> Observability {
        let mut obs = Observability::new();
        obs.set_mode(ObsMode::Full);
        let t = TraceId::for_publication(3, 1);
        obs.stage(
            t,
            Stage::Publish,
            TrafficClass::PUBLICATION,
            3,
            SimTime::ZERO,
        );
        obs.stage(
            t,
            Stage::Deliver,
            TrafficClass::NOTIFICATION,
            9,
            SimTime::from_millis(40),
        );
        obs.sample(ObsSeries::StoreSize, 7);
        obs.sample(ObsSeries::StoreSize, 9);
        obs
    }

    #[test]
    fn distill_orders_and_summarizes() {
        let obs = sample_obs();
        let report = ObsReport::distill(&obs, &[0, 5, 0, 12, 3]);
        // Publish has zero latency (it *is* the origin); deliver is 40ms.
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].class, "publication");
        assert_eq!(report.stages[0].stage, "publish");
        assert_eq!(report.stages[1].stage, "deliver");
        assert_eq!(report.stages[1].summary.max, 40_000);
        assert_eq!(report.named.len(), 1);
        assert_eq!(report.named[0].name, "store.size");
        assert_eq!(report.named[0].summary.count, 2);
        assert_eq!(
            report.hot_nodes,
            vec![
                HotNode {
                    node: 3,
                    peak_stored: 12
                },
                HotNode {
                    node: 1,
                    peak_stored: 5
                },
                HotNode {
                    node: 4,
                    peak_stored: 3
                },
            ]
        );
        assert_eq!(report.trace_records, 2);
        assert_eq!(report.trace_dropped, 0);
    }

    #[test]
    fn json_is_self_describing_and_backward_compatible() {
        let obs = sample_obs();
        let profile = RunProfile {
            nodes: Some(1234),
            jobs: 2,
            obs: ObsMode::Full,
            ..RunProfile::new(Scale::Large)
        };
        let report = RunReport::new(
            &profile,
            vec![
                ExperimentReport {
                    name: "fig5".into(),
                    wall_secs: 1.5,
                    events: 3000,
                    peak_queue_depth: 17,
                    obs: Some(ObsReport::distill(&obs, &[0, 4]).with_load(&[10, 30, 20])),
                },
                ExperimentReport {
                    name: "keys".into(),
                    wall_secs: 0.25,
                    events: 0,
                    peak_queue_depth: 0,
                    obs: None,
                },
            ],
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"cbps-report/v2\""));
        // The whole profile, `--nodes` included: `null` without one.
        let header = "\"scale\": \"large\",\n  \"nodes\": 1234,\n  \"jobs\": 2,\n  \
                      \"observability\": \"full\",\n  \"overlay\": \"chord\",\n";
        assert!(json.contains(header), "{json}");
        let plain = RunReport::new(&RunProfile::new(Scale::Quick), Vec::new()).to_json();
        assert!(plain.contains("\"nodes\": null,"), "{plain}");
        // v1 fields keep their names so old baselines stay comparable.
        assert!(json.contains("\"wall_secs\": 1.500"));
        assert!(json.contains("\"events_per_sec\": 2000"));
        assert!(json.contains("\"peak_queue_depth\": 17"));
        assert!(json.contains("\"total_events\": 3000"));
        // v2 additions.
        assert!(json.contains("\"stage\": \"deliver\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"hot_nodes\": [{\"node\": 1, \"peak_stored\": 4}]"));
        // max/mean = 30/20 = 1.5; p99 over 3 nodes picks the max.
        assert!(json.contains("\"load\": {\"max_mean\": 1.500, \"p99_mean\": 1.500}"));
        // Balanced braces (cheap structural sanity without a JSON parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn load_report_ratios() {
        // Uniform load: both ratios are exactly 1.
        let r = LoadReport::from_work(&[5, 5, 5, 5]).unwrap();
        assert_eq!(r.max_mean, 1.0);
        assert_eq!(r.p99_mean, 1.0);
        // A single hotspot dominates max/mean but with >=100 nodes the
        // p99 excludes it.
        let mut work = vec![10u64; 100];
        work[42] = 1010;
        let r = LoadReport::from_work(&work).unwrap();
        assert!(r.max_mean > 40.0, "max/mean {}", r.max_mean);
        assert!(r.p99_mean < 2.0, "p99/mean {}", r.p99_mean);
        // No work at all: undefined, not NaN.
        assert_eq!(LoadReport::from_work(&[0, 0]), None);
        assert_eq!(LoadReport::from_work(&[]), None);
    }
}
