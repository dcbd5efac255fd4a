//! `figures` checks its arguments before running anything. `--csv DIR`: a
//! missing directory is an argument error (exit 2, no table rendered), and
//! an existing one receives one CSV per table. `--nodes N` sizes only the
//! experiments that deploy one network size: naming another one with it
//! is an argument error naming the experiment, and a run that honours it
//! records the override in its report.

use std::process::Command;

fn figures(csv_dir: &std::path::Path) -> std::process::Output {
    let dir = csv_dir.to_str().expect("the temp directory path is UTF-8");
    run(&["--scale", "quick", "--csv", dir, "fig7"])
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn csv_directory_is_checked_before_the_sweep() {
    let dir = std::env::temp_dir().join(format!("figures-csv-{}", std::process::id()));
    let missing = figures(&dir.join("missing"));
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
    assert!(
        missing.stdout.is_empty(),
        "a table was rendered: {missing:?}"
    );

    std::fs::create_dir_all(&dir).expect("the temp directory is writable");
    let written = figures(&dir);
    assert!(written.status.success(), "{written:?}");
    let csvs = std::fs::read_dir(&dir)
        .expect("the directory reads back")
        .count();
    std::fs::remove_dir_all(&dir).expect("the directory is removed");
    assert!(csvs > 0, "no CSV was written");
}

#[test]
fn nodes_with_an_experiment_that_ignores_it_is_refused() {
    for name in ["mcast", "fig_mcast", "keys", "fig7"] {
        let out = run(&["--scale", "quick", "--nodes", "1", "fig5", name]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}: a table was rendered");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "{name}: {stderr}");
    }
    let help = run(&["--help"]);
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(
        help.contains("--nodes applies to: fig5, fig6, fig9a, latency, fig9b, hotspot"),
        "{help}"
    );
}

#[test]
fn nodes_override_reaches_the_report() {
    let path = std::env::temp_dir().join(format!("figures-nodes-{}.json", std::process::id()));
    let path = path.to_str().expect("the temp directory path is UTF-8");
    let out = run(&["--scale", "quick", "--nodes", "40", "--json", path, "fig9b"]);
    assert!(out.status.success(), "{out:?}");
    let report = std::fs::read_to_string(path).expect("the report reads back");
    std::fs::remove_file(path).expect("the report is removed");
    assert!(report.contains("\"nodes\": 40,"), "{report}");
}
