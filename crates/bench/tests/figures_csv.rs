//! `figures --csv DIR` checks its directory before running anything: a
//! missing one is an argument error (exit 2, no table rendered), and an
//! existing one receives one CSV per table.

use std::process::Command;

fn figures(csv_dir: &std::path::Path) -> std::process::Output {
    let dir = csv_dir.to_str().expect("the temp directory path is UTF-8");
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "quick", "--csv", dir, "fig7"])
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
