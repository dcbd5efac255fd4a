//! Command-line experiment runner.
//!
//! ```text
//! figures [--scale quick|paper|large] [--nodes N] [--overlay chord|pastry]
//!         [--jobs N] [--csv DIR] [--json FILE] [--report FILE] [EXPERIMENT...]
//! ```
//!
//! With no experiment names, runs everything. Names: route, keys, fig5,
//! fig6, fig7, fig8, fig9a, fig9b, mcast, churn, all.
//!
//! `--scale large` runs the deployment-scale presets (10^5-node networks
//! on the node-sweep experiments, paper op counts elsewhere); `--nodes N`
//! overrides the per-experiment network size outright (up to 10^6). Both
//! widen the key space automatically via `cbps::deployment_key_space` so
//! every node still owns a distinct key.
//! `--jobs N` farms independent sweep points out to `N` worker threads;
//! each simulation stays single-threaded and deterministic, so the tables
//! are byte-identical at any job count. `--overlay chord|pastry` selects
//! the routing substrate the deployment-style experiments run on (default:
//! chord; `route` and `churn` calibrate Chord-specific machinery and always
//! run on Chord, and the `overlay` comparison always runs both). `--csv DIR`
//! writes each table to `DIR/<title>.csv`; the directory must exist and be
//! writable before anything runs, and a table that cannot be written makes
//! the run exit 1. `--json FILE` and `--report FILE` both write the
//! self-describing `cbps-report/v2` document (wall time,
//! events/sec, peak queue depth per experiment — the v1 baseline fields —
//! plus, when observability is on, per-stage latency percentiles, named
//! histograms, and the hottest rendezvous nodes). `--report` additionally
//! switches observability on (`stages` mode) for every run; `--json`
//! leaves it off, matching the old flag's zero-overhead behavior.

use std::io::Write as _;
use std::time::Instant;

use cbps_bench::experiments::{run_named, EXPERIMENT_NAMES};
use cbps_bench::report::{ExperimentReport, ObsReport, RunReport};
use cbps_bench::runner;
use cbps_bench::Scale;
use cbps_sim::ObsMode;

fn main() {
    let mut scale = Scale::Quick;
    let mut csv_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();

    // Fail on unwritable output paths before running anything: a
    // paper-scale sweep can take hours, and losing the report at the end
    // wastes all of it.
    let probe_writable = |path: &str| {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        }
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref().and_then(Scale::parse) {
                Some(s) => scale = s,
                None => {
                    eprintln!("--scale expects quick|paper|large");
                    std::process::exit(2);
                }
            },
            "--nodes" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if (1..=runner::MAX_NODES).contains(&n) => runner::set_nodes_override(n),
                _ => {
                    eprintln!("--nodes expects an integer in 1..={}", runner::MAX_NODES);
                    std::process::exit(2);
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => runner::set_jobs(n),
                _ => {
                    eprintln!("--jobs expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--overlay" => match args.next().as_deref().and_then(runner::BackendKind::parse) {
                Some(kind) => runner::set_backend(kind),
                None => {
                    eprintln!("--overlay expects chord|pastry");
                    std::process::exit(2);
                }
            },
            "--csv" => match args.next() {
                Some(dir) => {
                    let probe = format!("{dir}/.figures-probe");
                    probe_writable(&probe);
                    let _ = std::fs::remove_file(&probe);
                    csv_dir = Some(dir);
                }
                None => {
                    eprintln!("--csv expects a directory");
                    std::process::exit(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => {
                    probe_writable(&path);
                    json_path = Some(path);
                }
                None => {
                    eprintln!("--json expects a file path");
                    std::process::exit(2);
                }
            },
            "--report" => match args.next() {
                Some(path) => {
                    probe_writable(&path);
                    report_path = Some(path);
                }
                None => {
                    eprintln!("--report expects a file path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale quick|paper|large] [--nodes N] \
                     [--overlay chord|pastry] [--jobs N] \
                     [--csv DIR] [--json FILE] [--report FILE] [EXPERIMENT...]\n\
                     experiments: {} (default: all)",
                    EXPERIMENT_NAMES.join(", ")
                );
                return;
            }
            name => names.push(name.to_owned()),
        }
    }
    if names.is_empty() {
        names.push("all".to_owned());
    }
    // Expand "all" so the report carries one record per experiment
    // (matching the per-name layout of results/bench/BENCH_baseline.json).
    if names.iter().any(|n| n == "all") {
        names = EXPERIMENT_NAMES.iter().map(|&n| n.to_owned()).collect();
    }
    if report_path.is_some() {
        runner::set_observability(ObsMode::Stages);
    }

    let mut records: Vec<ExperimentReport> = Vec::new();
    let mut csv_failed = false;
    for name in &names {
        let started = Instant::now();
        runner::reset_perf();
        let Some(tables) = run_named(name, scale) else {
            eprintln!(
                "unknown experiment {name:?}; known: {}",
                EXPERIMENT_NAMES.join(", ")
            );
            std::process::exit(2);
        };
        let wall_secs = started.elapsed().as_secs_f64();
        let (events, peak_queue_depth) = runner::perf_totals();
        let obs = runner::take_obs().map(|obs| {
            let hot = runner::take_hot_nodes();
            let work = runner::take_node_work();
            ObsReport::distill(&obs, &hot).with_load(&work)
        });
        records.push(ExperimentReport {
            name: name.clone(),
            wall_secs,
            events,
            peak_queue_depth,
            obs,
        });
        for table in &tables {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let slug = table
                    .title()
                    .chars()
                    .map(|c| {
                        if c.is_alphanumeric() {
                            c.to_ascii_lowercase()
                        } else {
                            '_'
                        }
                    })
                    .collect::<String>()
                    .split('_')
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>()
                    .join("_");
                let path = format!("{dir}/{slug}.csv");
                let write = std::fs::File::create(&path)
                    .and_then(|mut f| f.write_all(table.to_csv().as_bytes()));
                if let Err(e) = write {
                    eprintln!("cannot write {path}: {e}");
                    csv_failed = true;
                }
            }
        }
        eprintln!("[{name} done in {wall_secs:.1}s]\n");
    }

    let report = RunReport {
        scale: scale.name().to_owned(),
        jobs: runner::jobs(),
        observability: runner::observability().name().to_owned(),
        overlay: runner::backend().name().to_owned(),
        experiments: records,
    };
    for path in json_path.iter().chain(report_path.iter()) {
        let write =
            std::fs::File::create(path).and_then(|mut f| f.write_all(report.to_json().as_bytes()));
        match write {
            Ok(()) => eprintln!("run report written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if csv_failed {
        std::process::exit(1);
    }
}
