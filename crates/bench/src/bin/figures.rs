//! Command-line experiment runner.
//!
//! ```text
//! figures [--scale quick|paper|large] [--nodes N] [--overlay chord|pastry]
//!         [--jobs N] [--csv DIR] [--json FILE] [--report FILE] [EXPERIMENT...]
//! ```
//!
//! With no experiment names, runs everything (`all`); `--help` lists the
//! names.
//!
//! `--scale large` runs the deployment-scale presets (10^5-node networks
//! on the node-sweep experiments, paper op counts elsewhere); `--nodes N`
//! overrides the network size outright (up to 10^6) of the experiments
//! that deploy one network size — fig5, fig6, fig9a, latency, fig9b and
//! hotspot. The others fix or sweep their own sizes: naming one of them
//! with `--nodes` exits 2 before anything runs, and `all` says on stderr
//! which ones kept their sizes. Both widen the key space automatically
//! via `cbps::deployment_key_space` so every node still owns a distinct
//! key.
//! `--jobs N` farms independent sweep points out to `N` worker threads;
//! each simulation stays single-threaded and deterministic, so the tables
//! are byte-identical at any job count. `--overlay chord|pastry` selects
//! the routing substrate the deployment-style experiments run on (default:
//! chord; `route` and `churn` calibrate Chord-specific machinery and always
//! run on Chord, and the `overlay` comparison always runs both). `--csv DIR`
//! writes each table to `DIR/<title>.csv`; the directory must exist and be
//! writable before anything runs, and a table that cannot be written makes
//! the run exit 1. `--json FILE` and `--report FILE` both write the
//! self-describing `cbps-report/v2` document (the run's configuration,
//! `--nodes` included; wall time, events/sec, peak queue depth per
//! experiment — the v1 baseline fields —
//! plus, when observability is on, per-stage latency percentiles, named
//! histograms, and the hottest rendezvous nodes). `--report` additionally
//! switches observability on (`stages` mode) for every run; `--json`
//! leaves it off, matching the old flag's zero-overhead behavior.

use std::io::Write as _;
use std::time::Instant;

use cbps_bench::experiments::{self, EXPERIMENTS};
use cbps_bench::report::{ExperimentReport, RunReport};
use cbps_bench::runner::{self, BackendKind, RunProfile};
use cbps_bench::Scale;
use cbps_sim::ObsMode;

fn main() {
    let mut profile = RunProfile::new(Scale::Quick);
    let mut csv_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();

    // Fail on unwritable output paths before running anything: a
    // paper-scale sweep can take hours, and losing the report at the end
    // wastes all of it.
    let probe_writable = |path: &str| {
        if let Err(e) = std::fs::File::create(path) {
            refuse(format_args!("cannot create {path}: {e}"));
        }
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref().and_then(Scale::parse) {
                Some(s) => profile.scale = s,
                None => refuse("--scale expects quick|paper|large"),
            },
            "--nodes" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if (1..=runner::MAX_NODES).contains(&n) => profile.nodes = Some(n),
                _ => refuse(format_args!(
                    "--nodes expects an integer in 1..={}",
                    runner::MAX_NODES
                )),
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => profile.jobs = n,
                _ => refuse("--jobs expects a positive integer"),
            },
            "--overlay" => match args.next().as_deref().and_then(BackendKind::parse) {
                Some(kind) => profile.overlay = kind,
                None => refuse("--overlay expects chord|pastry"),
            },
            "--csv" => match args.next() {
                Some(dir) => {
                    let probe = format!("{dir}/.figures-probe");
                    probe_writable(&probe);
                    let _ = std::fs::remove_file(&probe);
                    csv_dir = Some(dir);
                }
                None => refuse("--csv expects a directory"),
            },
            "--json" => match args.next() {
                Some(path) => {
                    probe_writable(&path);
                    json_path = Some(path);
                }
                None => refuse("--json expects a file path"),
            },
            "--report" => match args.next() {
                Some(path) => {
                    probe_writable(&path);
                    report_path = Some(path);
                }
                None => refuse("--report expects a file path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale quick|paper|large] [--nodes N] \
                     [--overlay chord|pastry] [--jobs N] \
                     [--csv DIR] [--json FILE] [--report FILE] [EXPERIMENT...]\n\
                     experiments: {} (default: all)\n\
                     --nodes applies to: {}",
                    experiments::names(None),
                    experiments::names(Some(true))
                );
                return;
            }
            name => names.push(name.to_owned()),
        }
    }
    // Resolve every name before anything runs: a typo or a `--nodes` the
    // experiment would ignore must not surface after hours of sweeps.
    let mut runs = Vec::new();
    for name in names.iter().filter(|&n| n != "all") {
        match experiments::find(name) {
            None => refuse(format_args!(
                "unknown experiment {name:?}; known: {}",
                experiments::names(None)
            )),
            Some(e) if profile.nodes.is_some() && !e.honours_nodes => refuse(format_args!(
                "--nodes does not apply to {name}: it fixes or sweeps its own network sizes \
                 (--nodes applies to: {})",
                experiments::names(Some(true))
            )),
            Some(e) => runs.push((name.clone(), e)),
        }
    }
    // "all" (the default) runs everything, one report record per
    // experiment (the per-name layout of results/bench/BENCH_baseline.json).
    if names.is_empty() || names.iter().any(|n| n == "all") {
        runs = Vec::from(EXPERIMENTS.map(|e| (e.name.to_owned(), e)));
        if profile.nodes.is_some() {
            let (honour, keep) = (
                experiments::names(Some(true)),
                experiments::names(Some(false)),
            );
            eprintln!("--nodes applies to {honour}; {keep} keep their own sizes");
        }
    }
    if report_path.is_some() {
        profile.obs = ObsMode::Stages;
    }

    let mut records: Vec<ExperimentReport> = Vec::new();
    let mut csv_failed = false;
    for (name, experiment) in runs {
        let started = Instant::now();
        let (tables, totals) = experiment.run(&profile);
        let wall_secs = started.elapsed().as_secs_f64();
        records.push(ExperimentReport::new(name.clone(), wall_secs, &totals));
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

    let report = RunReport::new(&profile, records);
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

/// Reports an argument error and exits 2, before anything has run.
fn refuse(error: impl std::fmt::Display) -> ! {
    eprintln!("{error}");
    std::process::exit(2);
}
