//! The paper's qualitative claims, held at quick scale on Chord and on
//! Pastry.
//!
//! A change may legitimately move a table — matching each pair once at its
//! source moved Fig. 5's Mapping 3 notification cells and Fig. 9(a) — but
//! the shape the paper reports must survive it:
//! - Fig. 5 (§4.3.1): under Mapping 3, m-cast needs fewer messages per
//!   subscription than unicast.
//! - Fig. 9(a) (§4.3.2): at every matching probability, immediate
//!   notification costs more hops per publication than any buffered mode;
//!   collecting over a longer period costs fewer (1× > 2× > 5×); and every
//!   mode's cost grows with the matching probability.

use cbps_bench::experiments::run_named;
use cbps_bench::runner::BackendKind;
use cbps_bench::{RunProfile, Scale, Table};

const OVERLAYS: [BackendKind; 2] = [BackendKind::Chord, BackendKind::Pastry];

/// The one table experiment `name` renders at quick scale on `overlay`.
fn table(name: &str, overlay: BackendKind) -> Table {
    let profile = RunProfile {
        overlay,
        jobs: 2,
        ..RunProfile::new(Scale::Quick)
    };
    let (mut tables, _) = run_named(name, &profile).expect("a known experiment");
    assert_eq!(tables.len(), 1, "{name} renders one table");
    tables.remove(0)
}

fn number(t: &Table, row: usize, col: usize) -> f64 {
    let cell = t.cell(row, col);
    cell.parse()
        .unwrap_or_else(|_| panic!("{}: cell ({row}, {col}) = {cell:?}", t.title()))
}

/// The row whose first cells read `labels`.
fn row(t: &Table, labels: &[&str]) -> usize {
    (0..t.len())
        .find(|&r| labels.iter().enumerate().all(|(c, l)| t.cell(r, c) == *l))
        .unwrap_or_else(|| panic!("{}: no row {labels:?}", t.title()))
}

#[test]
fn fig5_mcast_needs_fewer_subscription_messages_under_mapping_3() {
    const HOPS_PER_SUB: usize = 2;
    for overlay in OVERLAYS {
        let t = table("fig5", overlay);
        let unicast = number(&t, row(&t, &["M3 selective", "unicast"]), HOPS_PER_SUB);
        let mcast = number(&t, row(&t, &["M3 selective", "mcast"]), HOPS_PER_SUB);
        assert!(
            mcast < unicast,
            "{overlay:?}: M3 m-cast {mcast} hops/sub, unicast {unicast}"
        );
    }
}

#[test]
fn fig9a_buffering_and_collecting_cut_notification_hops() {
    // Columns after the matching probability: immediate, buf+collect 1×,
    // 2×, 5×, buffer-only 1×.
    const IMMEDIATE: usize = 1;
    const COLLECT: [usize; 3] = [2, 3, 4];
    const BUFFER_ONLY: usize = 5;
    for overlay in OVERLAYS {
        let t = table("fig9a", overlay);
        assert!(t.len() >= 2, "{overlay:?}: one matching probability only");
        for r in 0..t.len() {
            let p = t.cell(r, 0);
            let immediate = number(&t, r, IMMEDIATE);
            for col in COLLECT.into_iter().chain([BUFFER_ONLY]) {
                let buffered = number(&t, r, col);
                assert!(
                    immediate > buffered,
                    "{overlay:?}, p = {p}: immediate {immediate}, column {col} {buffered}"
                );
            }
            for pair in COLLECT.windows(2) {
                let (shorter, longer) = (number(&t, r, pair[0]), number(&t, r, pair[1]));
                assert!(
                    shorter > longer,
                    "{overlay:?}, p = {p}: collecting {shorter} then {longer} as the period grows"
                );
            }
        }
        for col in IMMEDIATE..=BUFFER_ONLY {
            for r in 1..t.len() {
                let (lower, higher) = (number(&t, r - 1, col), number(&t, r, col));
                assert!(
                    lower < higher,
                    "{overlay:?}, column {col}: {lower} at p = {}, {higher} at p = {}",
                    t.cell(r - 1, 0),
                    t.cell(r, 0)
                );
            }
        }
    }
}
