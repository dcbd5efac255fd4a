//! `compare A B`: applies the bounds of `BENCHMARK.json` to two run
//! documents (or two directories of `run-<workload>.json` documents).

use std::path::{Path, PathBuf};

use crate::json::{parse, Json};
use crate::stats::Summary;
use crate::workloads::NAMES;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// The repeats of one run spread wider than the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `bound` is the share of the base by which
/// the metric may worsen before it counts as a regression.
pub fn judge(base: Summary, new: Summary, lower_is_better: bool, bound: f64) -> Verdict {
    if base.spread().max(new.spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = if base.median == 0.0 {
        0.0
    } else {
        (new.median - base.median) / base.median.abs()
    };
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Regressed
    } else if -worsening > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end bounds, from `BENCHMARK.json` in the current directory or
/// its parent (the benchmark's own directory sits one level below it).
fn read_bounds() -> Result<Vec<Bound>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in this directory or its parent")?;
    let doc = read_json(path)?;
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", m.to_line())),
            }
        })
        .collect()
}

/// A metric of a run document; quartiles default to the value itself.
fn side(doc: &Json, metric: &str) -> Option<Summary> {
    let m = doc.get("metrics")?.get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let or_median = |k| m.get(k).and_then(Json::as_f64).unwrap_or(median);
    Some(Summary {
        median,
        q1: or_median("q1"),
        q3: or_median("q3"),
        n: m.get("n").and_then(Json::as_f64).map_or(1, |n| n as usize),
    })
}

/// Compares one pair of documents; returns the number of regressions.
fn compare_docs(a: &Path, b: &Path, bounds: &[Bound]) -> Result<usize, String> {
    let (base, new) = (read_json(a)?, read_json(b)?);
    let workload = |d: &Json| d.get("workload").and_then(Json::as_str).map(str::to_owned);
    let name = workload(&base).ok_or_else(|| format!("{}: no workload field", a.display()))?;
    if workload(&new).as_deref() != Some(&name) {
        return Err(format!(
            "{} and {} ran different workloads",
            a.display(),
            b.display()
        ));
    }
    for (doc, path) in [(&base, a), (&new, b)] {
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{} failed its correctness gate", path.display()));
        }
    }
    println!("{name}: {} -> {}", a.display(), b.display());
    println!(
        "  {:<28} {:>16} {:>16} {:>8} {:>7}  verdict",
        "metric", "base", "new", "ratio", "bound"
    );
    let mut regressed = 0;
    for bound in bounds {
        let (Some(x), Some(y)) = (side(&base, &bound.name), side(&new, &bound.name)) else {
            return Err(format!(
                "metric {} missing from a document of {name}",
                bound.name
            ));
        };
        let verdict = judge(x, y, bound.lower_is_better, bound.bound);
        regressed += usize::from(verdict == Verdict::Regressed);
        println!(
            "  {:<28} {:>16.4} {:>16.4} {:>8.4} {:>7.3}  {}",
            bound.name,
            x.median,
            y.median,
            y.median / x.median,
            bound.bound,
            verdict.name()
        );
    }
    Ok(regressed)
}

/// `Ok(true)` when nothing regressed.
pub fn run(a: &str, b: &str) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let (a, b) = (PathBuf::from(a), PathBuf::from(b));
    let pairs: Vec<(PathBuf, PathBuf)> = if a.is_dir() && b.is_dir() {
        let file = |name: &str| format!("run-{name}.json");
        NAMES
            .iter()
            .map(|n| (a.join(file(n)), b.join(file(n))))
            .filter(|(x, y)| x.exists() && y.exists())
            .collect()
    } else {
        vec![(a, b)]
    };
    if pairs.is_empty() {
        return Err("the two directories share no run-<workload>.json document".to_owned());
    }
    let mut regressed = 0;
    for (x, y) in &pairs {
        regressed += compare_docs(x, y, &bounds)?;
    }
    if regressed > 0 {
        println!("{regressed} metric(s) regressed");
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Summary {
        Summary::exact(value)
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Verdict::*;
        // Lower is better, bound 10 %.
        assert_eq!(judge(exact(100.0), exact(105.0), true, 0.10), Within);
        assert_eq!(judge(exact(100.0), exact(111.0), true, 0.10), Regressed);
        assert_eq!(judge(exact(100.0), exact(89.0), true, 0.10), Improved);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(exact(100.0), exact(111.0), false, 0.10), Improved);
        assert_eq!(judge(exact(100.0), exact(89.0), false, 0.10), Regressed);
        assert_eq!(judge(exact(100.0), exact(95.0), false, 0.10), Within);
        // Exactly on the bound is still within.
        assert_eq!(judge(exact(100.0), exact(110.0), true, 0.10), Within);
    }

    #[test]
    fn wide_quartiles_make_a_pair_unresolved() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 105.0,
            n: 5,
        };
        assert_eq!(judge(noisy, exact(150.0), true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(exact(100.0), noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(noisy, exact(100.0), true, 0.20), Verdict::Within);
    }

    #[test]
    fn document_metrics_default_quartiles_to_the_value() {
        let doc = parse(
            r#"{"metrics":{"a":{"value":2.0,"unit":"s","q1":1.5,"q3":2.5,"n":5},"b":{"value":7,"unit":"count"}}}"#,
        )
        .unwrap();
        assert_eq!(
            side(&doc, "a"),
            Some(Summary {
                median: 2.0,
                q1: 1.5,
                q3: 2.5,
                n: 5
            })
        );
        assert_eq!(side(&doc, "b"), Some(exact(7.0)));
        assert_eq!(side(&doc, "c"), None);
    }
}
