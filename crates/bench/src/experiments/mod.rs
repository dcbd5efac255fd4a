//! One module per reproduced table/figure; see DESIGN.md §5 for the index.

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod fig_churn;
pub mod fig_hotspot;
pub mod fig_keys;
pub mod fig_latency;
pub mod fig_mcast;
pub mod fig_overlay;
pub mod fig_partial;
pub mod fig_route;
pub mod fig_vnodes;

use crate::runner::{RunProfile, RunTotals, Sweep};
use crate::table::Table;

/// One experiment `figures` can run.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The name it runs under (`fig_` + the name is accepted too, for the
    /// names that do not start with `fig`).
    pub name: &'static str,
    /// Whether its network size follows `--nodes`; the others fix or
    /// sweep their own sizes, or deploy no network at all.
    pub honours_nodes: bool,
    body: fn(&Sweep) -> Vec<Table>,
}

impl Experiment {
    /// Runs the experiment under `profile`: its tables and what its runs
    /// add up to.
    pub fn run(&self, profile: &RunProfile) -> (Vec<Table>, RunTotals) {
        let sweep = Sweep {
            profile,
            totals: Default::default(),
        };
        let tables = (self.body)(&sweep);
        (tables, sweep.totals.into_inner().expect("totals poisoned"))
    }
}

const fn exp(
    name: &'static str,
    honours_nodes: bool,
    body: fn(&Sweep) -> Vec<Table>,
) -> Experiment {
    Experiment {
        name,
        honours_nodes,
        body,
    }
}

/// Every experiment, in figure order (the order `figures all` runs them).
pub const EXPERIMENTS: [Experiment; 15] = [
    exp("route", false, |s| vec![fig_route::run(s)]),
    exp("keys", false, fig_keys::run),
    exp("fig5", true, |s| vec![fig5::run(s)]),
    exp("fig6", true, fig6::run),
    exp("fig7", false, |s| vec![fig7::run(s)]),
    exp("fig8", false, fig8::run),
    exp("fig9a", true, |s| vec![fig9a::run(s)]),
    exp("latency", true, |s| vec![fig_latency::run(s)]),
    exp("fig9b", true, |s| vec![fig9b::run(s)]),
    exp("mcast", false, |s| vec![fig_mcast::run(s)]),
    exp("partial", false, |s| vec![fig_partial::run(s)]),
    exp("hotspot", true, |s| vec![fig_hotspot::run(s)]),
    exp("vnodes", false, |s| vec![fig_vnodes::run(s)]),
    exp("overlay", false, |s| vec![fig_overlay::run(s)]),
    exp("churn", false, |s| vec![fig_churn::run(s)]),
];

/// The experiment named `name` (`fig5`, `latency` or `fig_latency`, …).
pub fn find(name: &str) -> Option<Experiment> {
    EXPERIMENTS.into_iter().find(|e| {
        e.name == name || (!e.name.starts_with("fig") && name.strip_prefix("fig_") == Some(e.name))
    })
}

/// Runs one experiment by name under `profile`; `None` for an unknown name.
pub fn run_named(name: &str, profile: &RunProfile) -> Option<(Vec<Table>, RunTotals)> {
    find(name).map(|e| e.run(profile))
}

/// The names of the experiments, filtered by [`Experiment::honours_nodes`]
/// when `honouring` is `Some`, joined by `", "`.
pub fn names(honouring: Option<bool>) -> String {
    EXPERIMENTS
        .iter()
        .filter(|e| honouring.is_none_or(|h| e.honours_nodes == h))
        .map(|e| e.name)
        .collect::<Vec<_>>()
        .join(", ")
}
