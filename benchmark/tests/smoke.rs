//! Runs every workload at 1/50 size through the real binary: the
//! correctness gate, the determinism check, a second seed, the traced run
//! and the output contract.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_cbps-benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary in the driver's argument form and returns the object
/// on the last line of its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke", "--repeats", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    json::parse(stdout.lines().last().unwrap()).unwrap()
}

fn check(workload: &str) {
    let contract = benchmark_json();
    for (seed, trace) in [(1, false), (2, false), (1, true)] {
        let result = run(workload, seed, trace);
        let keys: Vec<&str> = match &result {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} seed {seed}"
        );
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        let key = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(printed, listed(&contract, key), "{workload}: {key} metrics");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} is {value:?}"
            );
            if !trace {
                assert!(
                    value.unwrap() > 0.0,
                    "{workload}: end-to-end {name} must never be 0"
                );
            }
        }
    }
}

#[test]
fn install_passes_its_gates() {
    check("install");
}

#[test]
fn fanout_passes_its_gates() {
    check("fanout");
}

#[test]
fn mixed_passes_its_gates() {
    check("mixed");
}

#[test]
fn route_passes_its_gates() {
    check("route");
}

#[test]
fn a_run_document_compares_within_bounds_against_itself() {
    // A directory of its own under the ignored `out/`, so this does not
    // race the documents the tests above write.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-compare");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("run-fanout.json");
    let text = r#"{"schema":"cbps-benchmark/v1","workload":"fanout","correct":true,"metrics":{
        "ops_per_s":{"value":2700.5,"unit":"1/s","q1":2690.0,"q3":2710.0,"n":3},
        "setup_s":{"value":0.36,"unit":"s","q1":0.35,"q3":0.37,"n":3},
        "peak_rss_mb":{"value":190.0,"unit":"MB"},
        "hops_per_sub":{"value":7.8,"unit":"msgs"},
        "hops_per_pub":{"value":16.1,"unit":"msgs"},
        "notify_hops_per_pub":{"value":177.5,"unit":"msgs"},
        "stored_top1pct":{"value":1020.5,"unit":"subs"},
        "load_top1pct_over_mean":{"value":7.5,"unit":"ratio"},
        "notify_latency_sim_ms_p50":{"value":312.0,"unit":"ms"},
        "notify_latency_sim_ms_p99":{"value":487.0,"unit":"ms"}}}"#;
    std::fs::write(&doc, text).unwrap();
    let compare = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(BIN)
            .arg("compare")
            .args([a, b])
            .output()
            .unwrap()
    };
    let out = compare(&doc, &doc);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout.matches("within").count(), 10, "{stdout}");

    // Halving the throughput is a regression and a non-zero exit.
    let slower = dir.join("slower.json");
    std::fs::write(&slower, text.replace("2700.5", "1350.0")).unwrap();
    let out = compare(&doc, &slower);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("regressed"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
