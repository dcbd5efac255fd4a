//! `cbps` — the command-line driver of the CBPS reproduction.
//!
//! ```text
//! cbps gen-trace --out FILE [--subs N] [--pubs N] [--nodes N] [--seed S]
//!                [--selective K] [--match P] [--ttl SECS] [--streak L]
//!                [--flash-crowd N] [--flash-alpha A]
//! cbps run-trace FILE [--nodes N] [--seed S] [--overlay chord|pastry]
//!                [--mapping m1|m2|m3] [--primitive unicast|mcast|walk]
//!                [--notify immediate|buffered:S|collecting:S]
//!                [--discretization W] [--replication R] [--scheduler wheel|heap]
//!                [--match-engine counting|sorted] [--pool reuse|fresh]
//!                [--rendezvous static|adaptive]
//! cbps stats FILE [--out FILE] [run-trace deployment flags]
//! cbps ring [--nodes N] [--seed S] [--node IDX]
//! cbps experiment NAME [--scale quick|paper|large] [--nodes N] [--overlay chord|pastry] [--jobs N]
//!                [--match-engine counting|sorted] [--pool reuse|fresh]
//! ```

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
                 [--discretization W] [--replication R] [--scheduler wheel|heap]
                 [--match-engine counting|sorted] [--pool reuse|fresh]
                 [--rendezvous static|adaptive]
  cbps stats FILE [--out FILE] [run-trace deployment flags]
                 (replay with observability on; emit the cbps-report/v2 JSON)
  cbps ring [--nodes N] [--seed S] [--node IDX]
  cbps experiment NAME [--scale quick|paper|large] [--nodes N] [--overlay chord|pastry] [--jobs N]
                 [--match-engine counting|sorted] [--pool reuse|fresh]
                 (NAME: route, keys, fig5 … or all)
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(command) = args.positional().first().map(String::as_str) else {
        println!("{USAGE}");
        return;
    };
    let outcome = match command {
        "gen-trace" => commands::gen_trace(&args),
        "run-trace" => commands::run_trace(&args),
        "stats" => commands::stats(&args),
        "ring" => commands::ring(&args),
        "experiment" => commands::experiment(&args),
        "help" | "--help" | "-h" => {
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
