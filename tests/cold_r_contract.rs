//! The gang solver solves every `R` cold.
//!
//! Sweep points warm-start only their effective-quantum fixed point; no
//! `R` solve is seeded from a neighbouring point or an earlier pass. This
//! file holds one test because the `gsched_obs` recorder it reads is
//! process-global.

use gang_scheduling::solver::{solve, SolverOptions};
use gang_scheduling::workload::figures::Figure;
use gsched_engine::{run_sweep, SweepOptions};
use gsched_obs::names;

#[test]
fn warm_sweeps_seed_no_r_solve_and_match_cold_solves() {
    let req = Figure::Fig2.request(true);
    let classes = req.points[0].model.num_classes();
    let recorder = gsched_obs::install_memory();
    let report = run_sweep(&req, &SweepOptions::default().with_jobs(1));
    gsched_obs::uninstall();
    let snap = recorder.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    assert_eq!(report.failures(), 0);
    assert!(
        report.stats.warm_hits > 0,
        "the sweep must warm-start points"
    );
    assert!(
        counter(names::QBD_RMATRIX_SOLVES) > 0,
        "no R solve recorded"
    );
    assert_eq!(counter(names::QBD_RMATRIX_WARM_HITS), 0);
    assert_eq!(counter(names::QBD_RMATRIX_WARM_MISSES), 0);

    // Warm starting changes the fixed-point path, not the answer: the same
    // tolerance as the engine's warm-vs-cold parity check.
    let opts = SolverOptions::default();
    for (pt, got) in req.points.iter().zip(&report.points) {
        let cold = solve(&pt.model, &opts).unwrap();
        for (rw, c) in got.mean_responses(classes).iter().zip(&cold.classes) {
            let rel = (rw - c.mean_response).abs() / c.mean_response.abs().max(1e-12);
            assert!(
                rel < 1e-3,
                "x={}: warm {rw} vs cold {} (rel {rel:.3e})",
                pt.x,
                c.mean_response
            );
        }
    }
}
