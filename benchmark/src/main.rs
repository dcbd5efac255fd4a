//! `cbps-benchmark`: end-to-end and per-layer benchmark of the CBPS
//! simulator. See `README.md` in this directory.

mod alloc;
mod compare;
mod json;
mod layers;
mod probe;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::Scale;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: cbps-benchmark [run|trace] --workload <install|fanout|mixed|route> [--seed N]
                      [--seconds S | --repeats N] [--trace 0|1] [--scale full|smoke]
       cbps-benchmark compare <A.json|DIR> <B.json|DIR>";

/// Parsed `run` / `trace` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Host seconds to keep starting repeats for.
    pub seconds: f64,
    /// Fixed repeat count; overrides `seconds`.
    pub repeats: Option<usize>,
    pub trace: bool,
    pub scale: Scale,
}

/// Parses `value` as the argument of `flag`.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        repeats: None,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |value: &str| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "run" => {}
            "trace" => out.trace = true,
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = parsed(flag, value()?)?,
            "--seconds" => {
                let v = value()?;
                out.seconds = parsed(flag, v)?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err(bad(v));
                }
            }
            "--repeats" => {
                let v = value()?;
                out.repeats = Some(parsed(flag, v)?).filter(|&n: &usize| n > 0);
                if out.repeats.is_none() {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--scale" => {
                out.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads::spec(&out.workload, out.scale).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare needs two documents or two directories".to_owned()),
        }
    } else {
        parse_run(&args).and_then(|run| report::run(&run))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_run(&args)
    }

    #[test]
    fn driver_form_and_subcommand_form_parse_alike() {
        let a = parse("--workload route --seed 9 --seconds 3 --trace 1").unwrap();
        let b = parse("trace --workload route --seed 9 --seconds 3").unwrap();
        assert_eq!(a, b);
        assert!(a.trace && a.seed == 9 && a.seconds == 3.0 && a.scale == Scale::Full);
        let c = parse("run --workload mixed --repeats 2 --scale smoke").unwrap();
        assert_eq!(
            (c.repeats, c.scale, c.trace, c.seed),
            (Some(2), Scale::Smoke, false, 1)
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for line in [
            "",
            "--workload nope",
            "--workload route --seed x",
            "--workload route --seconds 0",
            "--workload route --repeats 0",
            "--workload route --trace 2",
            "--workload route --scale huge",
            "--workload route --seed",
            "--workload route extra",
        ] {
            assert!(parse(line).is_err(), "{line:?} should be rejected");
        }
    }
}
