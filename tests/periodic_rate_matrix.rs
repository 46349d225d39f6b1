//! A stable QBD whose rate matrix `R` is periodic must solve as stable.
//!
//! Every level-up and level-down move flips the phase, and phases change
//! inside a level only at level 0. Above level 0 the chain therefore
//! returns to a level only after an even number of moves, always in the
//! opposite phase to the one it left in: `R` has a zero diagonal, and with
//! unequal off-diagonal entries the power iteration for `sp(R)` alternates
//! between two estimates instead of converging. Stability must then be
//! decided from `(I − R)⁻¹ ≥ 0`, never reported as `Unstable`.

use gang_scheduling::linalg::Matrix;
use gang_scheduling::markov::Ctmc;
use gang_scheduling::qbd::{QbdProcess, SolveOptions};

/// Up rates `lambda`, down rates `mu` per phase; phase switches at level 0
/// at rate `alpha`.
fn phase_flipping_qbd(lambda: [f64; 2], mu: [f64; 2], alpha: f64) -> QbdProcess {
    let flip = |r: [f64; 2]| Matrix::from_rows(&[&[0.0, r[0]], &[r[1], 0.0]]);
    QbdProcess::new(
        vec![],
        vec![Matrix::from_rows(&[
            &[-(lambda[0] + alpha), alpha],
            &[alpha, -(lambda[1] + alpha)],
        ])],
        vec![],
        flip(lambda),
        Matrix::from_rows(&[&[-(lambda[0] + mu[0]), 0.0], &[0.0, -(lambda[1] + mu[1])]]),
        flip(mu),
    )
    .unwrap()
}

#[test]
fn period_two_rate_matrix_solves_as_stable() {
    let q = phase_flipping_qbd([0.3, 0.5], [1.0, 1.5], 0.7);
    assert!(q.is_irreducible());
    let sol = q
        .solve(&SolveOptions::default())
        .expect("a stable chain with a periodic R must not be reported Unstable");

    let r = sol.r();
    assert!(r[(0, 0)].abs() < 1e-12 && r[(1, 1)].abs() < 1e-12, "{r:?}");
    assert!(r[(0, 1)] > 0.0 && r[(1, 0)] > 0.0);
    assert!(
        (r[(0, 1)] - r[(1, 0)]).abs() > 1e-3,
        "off-diagonals must differ"
    );
    // The power iteration cannot settle on it; the solution says so.
    assert!(sol.spectral_radius().is_nan());

    // The stationary distribution agrees with a direct solve of the chain
    // truncated far out in the tail.
    let pi = Ctmc::new(q.truncated_generator(80))
        .unwrap()
        .stationary_gth()
        .unwrap();
    for (n, level) in pi.chunks(2).enumerate().take(12) {
        let (got, want) = (sol.level_prob(n), level[0] + level[1]);
        assert!((got - want).abs() < 1e-9, "level {n}: {got} vs {want}");
    }
    assert!((sol.total_mass() - 1.0).abs() < 1e-9);
}
