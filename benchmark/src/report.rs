//! Orchestrates a run: repeats on fresh deployments, the correctness and
//! determinism gates, metric assembly and the output documents.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use cbps_sim::{ObsMode, Stage, TrafficClass};

use crate::json::{obj, Json};
use crate::layers;
use crate::probe::{HostProbe, HostSpeed, REFERENCE};
use crate::run::{run_repeat, time_setup, verify, Repeat, Verdict};
use crate::spans::{Spans, NO_OP};
use crate::stats::{median, summary, Summary};
use crate::workloads::{self, Scale, Spec};
use crate::RunArgs;

pub const SCHEMA: &str = "cbps-benchmark/v1";

/// End-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hops_per_sub", "msgs"),
    ("hops_per_pub", "msgs"),
    ("notify_hops_per_pub", "msgs"),
    ("stored_top1pct", "subs"),
    ("load_top1pct_over_mean", "ratio"),
    ("notify_latency_sim_ms_p50", "ms"),
    ("notify_latency_sim_ms_p99", "ms"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("host.core_probe_ns", "ns"),
    ("host.memory_probe_ns", "ns"),
    ("host.slowdown", "ratio"),
    ("host.ops_per_s_wall", "1/s"),
    ("workload.gen_s", "s"),
    ("workload.gen_ops_per_s", "1/s"),
    ("workload.roundtrip_s", "s"),
    ("overlay.build_s", "s"),
    ("overlay.build_us_per_node", "us"),
    ("overlay.build_kb_per_node", "KB"),
    ("overlay.lookup_ns_per_hop", "ns"),
    ("overlay.hops_per_lookup", "msgs"),
    ("overlay.mcast_ns_per_msg", "ns"),
    ("overlay.mcast_msgs_per_send", "msgs"),
    ("sim.ns_per_event", "ns"),
    ("sim.wheel_ns_per_pushpop", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_peak", "count"),
    ("mapping.sk_ns", "ns"),
    ("mapping.ek_ns", "ns"),
    ("mapping.keys_per_sub", "count"),
    ("mapping.keys_per_pub", "count"),
    ("store.insert_ns", "ns"),
    ("store.insert_ns_nocover", "ns"),
    ("store.insert_ns_warm", "ns"),
    ("store.physical_ratio", "ratio"),
    ("store.kb_per_sub", "KB"),
    ("store.match_ns", "ns"),
    ("store.hits_per_match", "count"),
    ("store.remove_ns", "ns"),
    ("store.purge_ns_per_expired", "ns"),
    ("store.inserts", "count"),
    ("store.copies_per_sub", "count"),
    ("store.stored_mean", "subs"),
    ("store.stored_max", "subs"),
    ("engine.counting.insert_ns", "ns"),
    ("engine.counting.match_ns", "ns"),
    ("engine.sorted.insert_ns", "ns"),
    ("engine.sorted.match_ns", "ns"),
    ("notify.matches", "count"),
    ("notify.msgs", "count"),
    ("notify.batch_mean", "count"),
    ("notify.delivered", "count"),
    ("notify.duplicates_dropped", "count"),
    ("notify.per_pub", "count"),
    ("notify.load_max_over_mean", "ratio"),
    ("system.build_s", "s"),
    ("system.subscribe_call_us", "us"),
    ("system.publish_call_us", "us"),
    ("system.run_until_s", "s"),
    ("system.inject_share", "ratio"),
    ("system.run_share", "ratio"),
    ("system.sub_phase_s", "s"),
    ("system.pub_phase_s", "s"),
    ("attribution.sim_share", "ratio"),
    ("attribution.overlay_share", "ratio"),
    ("attribution.mapping_share", "ratio"),
    ("attribution.store_insert_share", "ratio"),
    ("attribution.store_match_share", "ratio"),
    ("attribution.residual_share", "ratio"),
    ("obs.sub.route_hop_us_p50", "us"),
    ("obs.sub.store_us_p99", "us"),
    ("obs.pub.route_hop_us_p50", "us"),
    ("obs.pub.match_us_p99", "us"),
    ("obs.notify.route_hop_us_p50", "us"),
    ("obs.notify.deliver_us_p99", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("verify.oracle_s", "s"),
    ("verify.expected_pairs", "count"),
    ("verify.missed", "count"),
    ("verify.spurious", "count"),
    ("verify.duplicates", "count"),
];

/// Measured (untraced, warm) repeats a run makes at least.
const MIN_REPEATS: usize = 3;

/// Where output documents go: `benchmark/out` seen from the repository
/// root, `out` seen from the benchmark's own directory.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_doc(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// First line of a command's standard output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host() -> Json {
    // Outside a git checkout there is no revision to record, and asking
    // git would make it search the parent directories.
    let in_git = [".git", "../.git"]
        .iter()
        .any(|p| std::path::Path::new(p).exists());
    let git_rev = if in_git {
        tool_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    };
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("git_rev", git_rev.into()),
        ("rustc", tool_line("rustc", &["--version"]).into()),
        ("driver_threads", 1u64.into()),
    ])
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Named {
    name: &'static str,
    unit: &'static str,
    value: Summary,
}

fn named(
    table: &[(&'static str, &'static str)],
    values: Vec<(&'static str, Summary)>,
) -> Vec<Named> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            Named { name, unit, value }
        })
        .collect()
}

/// `setup_s` samples a run reports the median of, when set-up is short.
const SETUP_SAMPLES: usize = 9;
/// Host seconds spent at most on the extra set-up samples.
const SETUP_BUDGET_SECS: f64 = 1.0;

/// Set-up times of the measured repeats, at the reference host speed.
/// Where set-up is generation and build only it takes milliseconds, so
/// three samples are jittery and more are cheap: set up again until there
/// are [`SETUP_SAMPLES`].
fn setup_samples(spec: &Spec, seed: u64, repeats: &[Repeat], probe: &mut HostProbe) -> Vec<f64> {
    let mut samples: Vec<f64> = repeats.iter().map(|r| r.setup_ref_s).collect();
    let started = Instant::now();
    while !spec.installs_in_setup()
        && samples.len() < SETUP_SAMPLES
        && started.elapsed().as_secs_f64() < SETUP_BUDGET_SECS
    {
        samples.push(time_setup(spec, seed, probe));
    }
    samples
}

/// Operations of the timed section per second of its wall, as measured.
fn ops_per_s_wall(spec: &Spec, repeats: &[Repeat]) -> f64 {
    spec.timed_ops() as f64 / median(&repeats.iter().map(|r| r.timed_s).collect::<Vec<_>>())
}

/// Median reading of the host probe over the timed sections.
fn probe_reading(repeats: &[Repeat]) -> HostSpeed {
    let of = |f: fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    HostSpeed {
        core_ns: of(|r| r.host.core_ns),
        memory_ns: of(|r| r.host.memory_ns),
    }
}

fn end_to_end(spec: &Spec, seed: u64, repeats: &[Repeat], probe: &mut HostProbe) -> Vec<Named> {
    let sim = &repeats[0].sim;
    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| -> Summary {
        summary(&repeats.iter().map(f).collect::<Vec<_>>())
    };
    named(
        &END_TO_END,
        vec![
            (
                "ops_per_s",
                per_repeat(&|r| spec.timed_ops() as f64 / r.timed_ref_s),
            ),
            (
                "setup_s",
                summary(&setup_samples(spec, seed, repeats, probe)),
            ),
            (
                "peak_rss_mb",
                Summary::exact(peak_rss_mb() - HostProbe::RESIDENT_MB),
            ),
            ("hops_per_sub", Summary::exact(sim.hops_per_sub)),
            ("hops_per_pub", Summary::exact(sim.hops_per_pub)),
            (
                "notify_hops_per_pub",
                Summary::exact(sim.notify_hops_per_pub),
            ),
            ("stored_top1pct", Summary::exact(sim.stored_top1pct)),
            (
                "load_top1pct_over_mean",
                Summary::exact(sim.load_top1pct_over_mean),
            ),
            (
                "notify_latency_sim_ms_p50",
                Summary::exact(sim.notify_latency_ms_p50),
            ),
            (
                "notify_latency_sim_ms_p99",
                Summary::exact(sim.notify_latency_ms_p99),
            ),
        ],
    )
}

/// Simulated µs percentile of one `(class, stage)` histogram of the traced
/// deployment (0 when the stage never ran, e.g. no buffering).
fn obs_us(repeat: &Repeat, class: TrafficClass, stage: Stage, p: f64) -> f64 {
    repeat
        .net
        .as_ref()
        .and_then(|net| net.metrics().obs().stage_histogram(class, stage))
        .and_then(|h| h.percentile(p))
        .map_or(0.0, |us| us as f64)
}

fn per_layer(
    spec: &Spec,
    untraced: &[Repeat],
    traced: &mut Repeat,
    verdict: &Verdict,
    spans: &mut Spans,
) -> Vec<Named> {
    let timed_s = median(&untraced.iter().map(|r| r.timed_s).collect::<Vec<_>>());
    let gen_s = median(&untraced.iter().map(|r| r.gen_s).collect::<Vec<_>>());
    let first = &untraced[0];
    let (timed, total, sim) = (&first.timed, &first.total, &first.sim);
    let ops = (spec.subs + spec.pubs) as f64;
    // One pass over the spans of the traced repeat (the replays below add
    // theirs afterwards); a name that never occurred totals zero.
    let totals = spans.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();

    let timed_ref_s = median(&untraced.iter().map(|r| r.timed_ref_s).collect::<Vec<_>>());
    let host = probe_reading(untraced);
    let mut values: Vec<(&'static str, f64)> = vec![
        ("host.core_probe_ns", host.core_ns),
        ("host.memory_probe_ns", host.memory_ns),
        ("host.slowdown", host.slowdown()),
        ("host.ops_per_s_wall", ops_per_s_wall(spec, untraced)),
        ("workload.gen_s", gen_s),
        ("workload.gen_ops_per_s", ops / gen_s),
        ("sim.events", sim.events as f64),
        (
            "sim.events_per_op",
            timed.events as f64 / spec.timed_ops() as f64,
        ),
        ("sim.events_per_s", timed.events as f64 / timed_s),
        ("sim.queue_peak", sim.queue_peak as f64),
        ("store.inserts", total.store_inserts as f64),
        (
            "store.copies_per_sub",
            total.store_inserts as f64 / spec.subs as f64,
        ),
        ("store.stored_mean", sim.stored_mean),
        ("store.stored_max", sim.stored_max as f64),
        ("notify.matches", total.matches as f64),
        ("notify.msgs", total.notify_msgs as f64),
        ("notify.batch_mean", first.batch_mean),
        ("notify.delivered", total.delivered as f64),
        ("notify.duplicates_dropped", total.duplicates_dropped as f64),
        ("notify.per_pub", total.delivered as f64 / spec.pubs as f64),
        ("notify.load_max_over_mean", sim.load_max_over_mean),
        ("system.build_s", span("build").total_s()),
        ("system.subscribe_call_us", span("subscribe").mean_us()),
        ("system.publish_call_us", span("publish").mean_us()),
        ("system.run_until_s", span("run_until").total_s()),
        ("system.sub_phase_s", traced.sub_phase_s),
        ("system.pub_phase_s", traced.pub_phase_s),
        ("trace.overhead_ratio", traced.timed_ref_s / timed_ref_s),
        ("verify.oracle_s", verdict.oracle_s),
        ("verify.expected_pairs", verdict.expected_pairs as f64),
        ("verify.missed", verdict.missed as f64),
        ("verify.spurious", verdict.spurious as f64),
        ("verify.duplicates", verdict.duplicates as f64),
    ];
    // Shares of the traced repeat's own wall, all phases together.
    let replay_s = span("repeat").total_s()
        - span("gen_trace").total_s()
        - span("build").total_s()
        - span("delivered_scan").total_s()
        - span("host_probe").total_s();
    let inject_s = span("subscribe").total_s() + span("publish").total_s();
    values.push(("system.inject_share", inject_s / replay_s));
    values.push(("system.run_share", span("run_until").total_s() / replay_s));

    use Stage::{Deliver, RendezvousMatch, RouteHop, Store};
    use TrafficClass as C;
    values.extend([
        (
            "obs.sub.route_hop_us_p50",
            obs_us(traced, C::SUBSCRIPTION, RouteHop, 50.0),
        ),
        (
            "obs.sub.store_us_p99",
            obs_us(traced, C::SUBSCRIPTION, Store, 99.0),
        ),
        (
            "obs.pub.route_hop_us_p50",
            obs_us(traced, C::PUBLICATION, RouteHop, 50.0),
        ),
        (
            "obs.pub.match_us_p99",
            obs_us(traced, C::PUBLICATION, RendezvousMatch, 99.0),
        ),
        (
            "obs.notify.route_hop_us_p50",
            obs_us(traced, C::NOTIFICATION, RouteHop, 50.0),
        ),
        (
            "obs.notify.deliver_us_p99",
            obs_us(traced, C::NOTIFICATION, Deliver, 99.0),
        ),
    ]);

    // The replays build their own deployments; release this one first.
    traced.net = None;
    let inputs = layers::Inputs {
        spec,
        trace: &traced.trace,
        timed_s,
        timed,
        stored_max: sim.stored_max as usize,
        hot_arc: first.hot_arc,
        queue_peak: sim.queue_peak as usize,
    };
    spans.enter("layers", NO_OP);
    values.extend(layers::measure(&inputs, spans));
    spans.exit();
    values.push(("trace.spans", spans.len() as f64));

    named(
        &PER_LAYER,
        values
            .into_iter()
            .map(|(n, v)| (n, Summary::exact(v)))
            .collect(),
    )
}

fn metrics_json(metrics: &[Named], full: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Json::from(m.value.median)),
                    ("unit".to_owned(), Json::from(m.unit)),
                ];
                if full {
                    fields.extend([
                        ("q1".to_owned(), Json::from(m.value.q1)),
                        ("q3".to_owned(), Json::from(m.value.q3)),
                        ("n".to_owned(), Json::from(m.value.n)),
                    ]);
                }
                (m.name.to_owned(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Runs the workload and prints the result. `Ok(false)` means the run
/// completed but failed its correctness or determinism gate.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let spec = workloads::spec(&args.workload, args.scale).expect("validated by the parser");
    // The first repeat is not measured: it pays for the page faults and
    // allocator growth that every later repeat in this process reuses (on
    // `install` it runs a fifth slower than the fourth). Its delivered set
    // is as good as any, so it is the one the oracle checks — except on a
    // traced run, where the oracle runs under a span on the traced repeat.
    let mut probe = HostProbe::new();
    let log = |label: &str, r: &Repeat| {
        eprintln!(
            "{} {label}: setup {:.3} s, timed {:.3} s, probe {:.2}/{:.0} ns; at reference speed {:.3} s and {:.3} s",
            spec.name, r.setup_s, r.timed_s, r.host.core_ns, r.host.memory_ns, r.setup_ref_s, r.timed_ref_s
        );
    };
    let mut warmup = run_repeat(
        &spec,
        args.seed,
        ObsMode::Off,
        &mut Spans::disabled(),
        &mut probe,
    );
    log("warm-up", &warmup);
    if args.trace {
        warmup.drop_evidence();
    }

    // A traced run spends half its budget on the untraced repeats it is
    // compared against.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut untraced: Vec<Repeat> = Vec::new();
    loop {
        let mut repeat = run_repeat(
            &spec,
            args.seed,
            ObsMode::Off,
            &mut Spans::disabled(),
            &mut probe,
        );
        repeat.drop_evidence();
        log(&format!("repeat {}", untraced.len() + 1), &repeat);
        untraced.push(repeat);
        let done = match args.repeats {
            Some(n) => untraced.len() >= n,
            None => untraced.len() >= MIN_REPEATS && started.elapsed().as_secs_f64() >= budget,
        };
        if done {
            break;
        }
    }

    let mut spans = if args.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let mut traced = args
        .trace
        .then(|| run_repeat(&spec, args.seed, ObsMode::Full, &mut spans, &mut probe));
    let verdict = spans.scope("oracle", NO_OP, || {
        verify(traced.as_ref().unwrap_or(&warmup))
    });

    // Determinism: with a fixed seed the simulated metrics, the event
    // count and the delivered set repeat, traced or not.
    let reference = warmup.sim;
    let deterministic = untraced
        .iter()
        .chain(traced.as_ref())
        .all(|r| r.sim.repeats(&reference, spec.replays_exactly()));
    if !deterministic {
        eprintln!(
            "{}: simulated metrics differ between repeats of one seed",
            spec.name
        );
        for r in [&warmup]
            .into_iter()
            .chain(&untraced)
            .chain(traced.as_ref())
        {
            eprintln!("  {:?}", r.sim);
        }
    }
    let correct = verdict.failed() == 0 && verdict.expected_pairs > 0 && deterministic;
    if verdict.failed() > 0 {
        eprintln!(
            "{}: correctness gate failed: {} missed, {} spurious, {} duplicate of {} expected pairs",
            spec.name, verdict.missed, verdict.spurious, verdict.duplicates, verdict.expected_pairs
        );
    }

    let metrics = match traced.as_mut() {
        None => end_to_end(&spec, args.seed, &untraced, &mut probe),
        Some(traced) => {
            let metrics = per_layer(&spec, &untraced, traced, &verdict, &mut spans);
            let path = write_doc(
                &format!("spans-{}.json", spec.name),
                &spans.to_json().to_line(),
            )?;
            eprintln!("span file written to {}", path.display());
            metrics
        }
    };

    let result = obj([
        ("correct", correct.into()),
        ("attempted", verdict.expected_pairs.max(1).into()),
        ("failed", verdict.failed().into()),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    let doc = obj([
        ("schema", SCHEMA.into()),
        ("workload", spec.name.into()),
        ("why", spec.why.into()),
        ("seed", args.seed.into()),
        (
            "scale",
            if args.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            }
            .into(),
        ),
        ("traced", args.trace.into()),
        ("repeats", untraced.len().into()),
        ("host", host()),
        ("host_speed", {
            let host = probe_reading(&untraced);
            obj([
                ("core_probe_ns", host.core_ns.into()),
                ("memory_probe_ns", host.memory_ns.into()),
                ("reference_core_ns", REFERENCE.core_ns.into()),
                ("reference_memory_ns", REFERENCE.memory_ns.into()),
                ("slowdown", host.slowdown().into()),
                ("ops_per_s_wall", ops_per_s_wall(&spec, &untraced).into()),
            ])
        }),
        ("knobs", spec.knobs()),
        ("correct", correct.into()),
        ("attempted", verdict.expected_pairs.max(1).into()),
        ("failed", verdict.failed().into()),
        ("deterministic", deterministic.into()),
        (
            "delivered_fingerprint",
            format!("{:#018x}", reference.delivered_fingerprint).into(),
        ),
        ("metrics", metrics_json(&metrics, true)),
    ]);
    let kind = if args.trace { "trace" } else { "run" };
    let path = write_doc(&format!("{kind}-{}.json", spec.name), &doc.to_pretty())?;
    eprintln!("document written to {}", path.display());
    for m in &metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value.median, m.unit);
    }
    println!("{}", result.to_line());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and workloads this crate reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
