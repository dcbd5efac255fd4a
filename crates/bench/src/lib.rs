//! # cbps-bench — the experiment harness
//!
//! Regenerates every table and figure of the ICDCS 2005 evaluation (§5)
//! plus the in-text measurements and two extensions. Run via:
//!
//! * `cargo run -p cbps-bench --release --bin figures` — all figures at
//!   quick scale; `-- --scale paper` for the full paper-scale runs (see
//!   `--help`; `--jobs N` fans independent sweep points out to a worker
//!   pool, `--json FILE` writes a perf report). The flags make one
//!   [`RunProfile`]; each experiment returns its tables and a
//!   [`RunTotals`];
//! * `cargo bench -p cbps-bench --bench micro` — dependency-free
//!   wall-clock component benchmarks (mappings, matching, m-cast
//!   splitting, SHA-1).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;
pub mod probe;
pub mod report;
pub mod runner;
pub mod table;

pub use report::{ExperimentReport, ObsReport, RunReport};
pub use runner::{Deployment, RunProfile, RunStats, RunTotals, Scale};
pub use table::Table;
