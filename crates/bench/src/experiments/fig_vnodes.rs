//! **Extension — KN-level load balancing with virtual nodes.**
//!
//! §4.2 suggests fighting hotspots "(a) by corresponding techniques at the
//! level of KN-mapping; in particular, most overlay networks provide such
//! mechanisms". Chord's classic mechanism is *virtual nodes*: each
//! physical machine hosts `v` ring identities, subdividing hot arcs.
//!
//! We model a machine as `v` simulator nodes and aggregate its virtual
//! peaks; the skew (hottest machine / average machine) should fall as `v`
//! grows, under the Zipf-selective workload that produces the Figure 6/8
//! hotspot.

use cbps::MappingKind;

use crate::runner::{paper_workload, workload_gen, Deployment, Scale, Sweep};
use crate::table::{fmt_f, Table};

/// Runs the experiment and returns its table.
pub fn run(sweep: &Sweep) -> Table {
    let scale = sweep.profile.scale;
    let mut table = Table::new(
        "Extension: virtual nodes vs storage skew (mapping 3, 1 selective attr)",
        &[
            "virtual ids/machine",
            "machines",
            "max stored/machine",
            "avg stored/machine",
            "skew (max/avg)",
        ],
    );
    let machines = match scale {
        Scale::Quick => 100,
        Scale::Paper | Scale::Large => 250,
    };
    let subs = match scale {
        Scale::Quick => 3_000,
        Scale::Paper | Scale::Large => 10_000,
    };
    for v in [1usize, 2, 4, 8] {
        let sim_nodes = machines * v;
        let mut deployment = Deployment::new(sim_nodes, 981);
        deployment.mapping = MappingKind::SelectiveAttribute;
        let cfg = paper_workload(sim_nodes, 1).with_counts(subs, 0);
        let mut gen = workload_gen(cfg, 981);
        let trace = gen.gen_trace();
        let peaks = crate::with_backend!(sweep.profile.overlay, B => {
            let mut net = deployment.build_on::<B>(sweep.profile.obs);
            let _ = sweep.run_trace(&mut net, &trace, 60);
            net.peak_stored_counts()
        });
        // Aggregate virtual identities onto machines: virtual id `i`
        // belongs to machine `i % machines`.
        let mut per_machine = vec![0usize; machines];
        for (i, p) in peaks.iter().enumerate() {
            per_machine[i % machines] += p;
        }
        let max = *per_machine.iter().max().unwrap_or(&0);
        let avg = per_machine.iter().sum::<usize>() as f64 / machines as f64;
        table.push_row(vec![
            v.to_string(),
            machines.to_string(),
            max.to_string(),
            fmt_f(avg),
            fmt_f(max as f64 / avg.max(1e-9)),
        ]);
    }
    table
}
