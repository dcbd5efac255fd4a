//! `cbps` — the command-line driver of the CBPS reproduction.
//!
//! ```text
//! cbps gen-trace --out FILE [--subs N] [--pubs N] [--nodes N] [--seed S]
//!                [--selective K] [--match P] [--ttl SECS] [--streak L]
//!                [--flash-crowd N] [--flash-alpha A]
//! cbps run-trace FILE [--nodes N] [--seed S] [--overlay chord|pastry]
//!                [--mapping m1|m2|m3] [--primitive unicast|mcast|walk]
//!                [--notify immediate|buffered:S|collecting:S]
//!                [--discretization W] [--replication R]
//! cbps stats FILE [--out FILE] [run-trace deployment flags]
//! cbps ring [--nodes N] [--seed S] [--node IDX]
//! ```
//!
//! `--help` or `-h` anywhere on the line prints the usage and exits 0.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
cbps — content-based pub/sub over structured overlays (ICDCS 2005 reproduction)

usage:
  cbps gen-trace --out FILE [--subs N] [--pubs N] [--nodes N] [--seed S]
                 [--selective K] [--match P] [--ttl SECS] [--streak L]
                 [--flash-crowd N] [--flash-alpha A]
  cbps run-trace FILE [--nodes N] [--seed S] [--overlay chord|pastry]
                 [--mapping m1|m2|m3] [--primitive unicast|mcast|walk]
                 [--notify immediate|buffered:SECS|collecting:SECS]
                 [--discretization W] [--replication R]
  cbps stats FILE [--out FILE] [run-trace deployment flags]
                 (replay with observability on; emit the cbps-report/v2 JSON)
  cbps ring [--nodes N] [--seed S] [--node IDX]
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let help = args.positional().iter().any(|p| p == "--help" || p == "-h");
    let Some(command) = args.positional().first().filter(|_| !help) else {
        println!("{USAGE}");
        return;
    };
    let outcome = match command.as_str() {
        "gen-trace" => commands::gen_trace(&args),
        "run-trace" => commands::run_trace(&args),
        "stats" => commands::stats(&args),
        "ring" => commands::ring(&args),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(args::ArgError(format!("unknown command {other:?}"))),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}
