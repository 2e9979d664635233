//! Structural smoke tests: every entry of the figure table runs end-to-end
//! on the tiny test profile and produces well-formed series.

use ddbm_experiments::figures::FIGURES;
use ddbm_experiments::{Profile, Runner};
use std::collections::HashSet;

/// The figures the table produces, in table order: the paper's 21
/// (fig02–fig17, E17–E19), then the extensions' 15 (E20–E28).
const FIGURE_RESULT_IDS: &str = "\
    fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 \
    fig16 fig17 e17-tput-4node e17-resp-4node e18 e19-think0 e19-think8 \
    e20 e21-rt e21-aborts e22 e23-tput e23-aborts e24-tput e24-aborts e25-tput e25-aborts \
    e26-phases e27-tput e27-resp e28-tput e28-aborts";

#[test]
fn table_ids_are_unique() {
    let ids: HashSet<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids.len(), FIGURES.len(), "duplicate id in FIGURES");
}

#[test]
fn every_table_entry_builds_and_is_well_formed() {
    let runner = Runner::new(0);
    let profile = Profile::test();
    let mut figs = Vec::new();
    for (id, build) in FIGURES {
        let built = build(&runner, &profile);
        assert!(!built.is_empty(), "{id} built no figure");
        figs.extend(built);
    }
    let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
    let expected: Vec<&str> = FIGURE_RESULT_IDS.split_whitespace().collect();
    assert_eq!(expected.len(), 36);
    assert_eq!(ids, expected);

    for fig in &figs {
        assert!(!fig.series.is_empty(), "{} has no series", fig.id);
        for s in &fig.series {
            assert_eq!(
                s.ys.len(),
                fig.xs.len(),
                "{}/{} length mismatch",
                fig.id,
                s.name
            );
            for (x, y) in fig.xs.iter().zip(&s.ys) {
                assert!(
                    y.is_finite(),
                    "{}/{} at x={x} is not finite: {y}",
                    fig.id,
                    s.name
                );
            }
        }
        // The table renderer must not panic and must include every series.
        let table = fig.to_table();
        for s in &fig.series {
            assert!(
                table.contains(&s.name),
                "{} table missing {}",
                fig.id,
                s.name
            );
        }
    }

    let by_id = |id: &str| figs.iter().find(|f| f.id == id).unwrap();
    // Figure-specific shape checks.
    assert_eq!(by_id("fig02").series.len(), 10, "5 algos × 2 machine sizes");
    assert_eq!(by_id("fig04").series.len(), 5);
    assert_eq!(by_id("fig10").series.len(), 4, "NO_DC excluded");
    assert_eq!(by_id("fig12").series.len(), 4);
    assert_eq!(by_id("fig14").xs, vec![1.0, 2.0, 4.0, 8.0]);
    assert_eq!(by_id("e18").series.len(), 2);

    // Speedup sanity: every speedup at degree 1 relative to itself is 1.
    for id in ["fig14", "fig15", "fig16", "fig17"] {
        for s in &by_id(id).series {
            assert!(
                (s.ys[0] - 1.0).abs() < 1e-9,
                "{id}/{}: speedup vs self must be 1, got {}",
                s.name,
                s.ys[0]
            );
        }
    }

    // NO_DC abort ratio is always zero, hence excluded from fig12/13; the
    // real algorithms' ratios must be non-negative.
    for id in ["fig12", "fig13"] {
        for s in &by_id(id).series {
            assert!(s.ys.iter().all(|y| *y >= 0.0), "{id}/{}", s.name);
        }
    }

    // e25: no fault-induced aborts without crashes; some at the top rate.
    let e25 = by_id("e25-aborts");
    assert_eq!(e25.xs[0], 0.0);
    for s in &e25.series {
        assert_eq!(s.ys[0], 0.0, "crash-free {} run aborted on faults", s.name);
    }
    let last = e25.xs.len() - 1;
    let total_at_top: f64 = e25.series.iter().map(|s| s.ys[last]).sum();
    assert!(
        total_at_top > 0.0,
        "the top crash rate must induce fault aborts somewhere"
    );

    // e26: the phase means for each (algorithm, crash rate) must sum to a
    // positive response time, and commit/prepare must stay small relative
    // to the whole at the top crash rate.
    let e26 = by_id("e26-phases");
    assert_eq!(e26.series.len(), 12, "2 algorithms x 6 phases");
    let last = e26.xs.len() - 1;
    for algo in ["2PL", "OPT"] {
        let total: f64 = e26
            .series
            .iter()
            .filter(|s| s.name.starts_with(algo))
            .map(|s| s.ys[last])
            .sum();
        assert!(total > 0.0, "{algo}: phase means must sum positive");
    }
    let opt_lock_wait = e26
        .series
        .iter()
        .find(|s| s.name == "OPT lock_wait")
        .unwrap();
    assert!(
        opt_lock_wait.ys.iter().all(|y| *y == 0.0),
        "OPT never blocks on locks"
    );

    // e27: 10 series (5 algorithms × 2 replica controls) over factors
    // 1..3; the factor-1 points of the rowa and quorum variants are the
    // same single-copy run, so each pair must agree exactly there.
    let e27 = by_id("e27-tput");
    assert_eq!(e27.series.len(), 10, "5 algos × 2 replica controls");
    assert_eq!(e27.xs, vec![1.0, 2.0, 3.0]);
    for algo in ["2PL", "BTO", "WW", "OPT", "NO_DC"] {
        let rowa = e27.series(&format!("{algo} rowa")).unwrap();
        let quorum = e27.series(&format!("{algo} quorum")).unwrap();
        assert_eq!(
            rowa.ys[0], quorum.ys[0],
            "{algo}: factor 1 is the shared single-copy baseline"
        );
        assert!(rowa.ys.iter().all(|y| *y > 0.0), "{algo} rowa stalled");
    }

    // e28: the availability win. Wherever the single-copy run accumulates
    // fault-induced aborts, the 3-way replicated run must still be
    // committing (its goodput stays positive), and crash-free goodput must
    // be positive everywhere.
    let e28_tp = by_id("e28-tput");
    let e28_ab = by_id("e28-aborts");
    assert_eq!(e28_tp.series.len(), 4, "2 algorithms × 2 factors");
    for algo in ["2PL", "OPT"] {
        let single_ab = e28_ab.series(&format!("{algo} factor 1")).unwrap();
        let replicated_tp = e28_tp.series(&format!("{algo} factor 3")).unwrap();
        let single_tp = e28_tp.series(&format!("{algo} factor 1")).unwrap();
        assert!(single_tp.ys[0] > 0.0 && replicated_tp.ys[0] > 0.0);
        let mut stressed = 0;
        for (i, &aborts) in single_ab.ys.iter().enumerate() {
            if aborts > 0.0 {
                stressed += 1;
                assert!(
                    replicated_tp.ys[i] > 0.0,
                    "{algo}: replicated goodput must survive crash rate {}",
                    e28_tp.xs[i]
                );
            }
        }
        assert!(
            stressed > 0,
            "{algo}: the crash grid must stress the single-copy machine"
        );
    }

    // e20: sequential must not be faster than parallel at the light point.
    let e20 = by_id("e20");
    let par = e20.series("NO_DC parallel").unwrap();
    let seq = e20.series("NO_DC sequential").unwrap();
    let last = e20.xs.len() - 1;
    assert!(
        seq.ys[last] >= par.ys[last],
        "sequential {} must be no faster than parallel {}",
        seq.ys[last],
        par.ys[last]
    );
}
