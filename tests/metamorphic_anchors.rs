//! Metamorphic anchors on a heterogeneous three-class machine.
//!
//! The closed forms in `special_cases.rs` only reach degenerate limits
//! (one class, huge quantum). These checks drive the multi-class vacation
//! path — every class's vacation is built from the other classes' effective
//! quanta and switch overheads — on a model with nothing symmetric about
//! it: partition sizes g = 1, 2, 4 on P = 4 processors, and distinct
//! phase-type arrivals, services, quanta and overheads per class. Two
//! relations must hold whatever the numbers are:
//!
//! * gang scheduling serves the classes in a fixed cyclic order, so
//!   rotating the class list is the same machine with relabelled classes
//!   and must rotate the per-class `N_p`;
//! * more class-0 arrivals, everything else fixed, mean more class-0 jobs
//!   in the system: `N_0` strictly increases in `λ_0`.

use gang_scheduling::model::{ClassParams, GangModel};
use gang_scheduling::phase::{erlang, exponential, hyperexponential};
use gang_scheduling::solver::{solve, GangSolution, SolverOptions};

/// The three classes, with class 0 arriving at rate `lambda0`
/// (hyperexponential interarrivals scaled to mean `1/lambda0`).
fn classes(lambda0: f64) -> Vec<ClassParams> {
    let (probs, rates) = ([0.3, 0.7], [0.5, 1.5]);
    let scale = lambda0 * (probs[0] / rates[0] + probs[1] / rates[1]);
    vec![
        ClassParams {
            partition_size: 1,
            arrival: hyperexponential(&probs, &rates.map(|r| r * scale)).unwrap(),
            service: exponential(1.0),
            quantum: erlang(2, 2.0),
            switch_overhead: exponential(50.0),
        },
        ClassParams {
            partition_size: 2,
            arrival: exponential(0.4),
            service: erlang(2, 3.0),
            quantum: exponential(1.5),
            switch_overhead: erlang(2, 80.0),
        },
        ClassParams {
            partition_size: 4,
            arrival: exponential(0.15),
            service: hyperexponential(&[0.4, 0.6], &[1.0, 3.0]).unwrap(),
            quantum: erlang(3, 3.0),
            switch_overhead: exponential(100.0),
        },
    ]
}

fn solve_classes(classes: Vec<ClassParams>) -> GangSolution {
    let model = GangModel::new(4, classes).expect("valid three-class model");
    solve(&model, &SolverOptions::default()).expect("solver runs")
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

#[test]
fn rotating_the_class_order_rotates_the_mean_jobs() {
    let base = solve_classes(classes(0.5));
    assert!(base.all_stable && base.converged);
    let n = base.classes.len();
    for shift in 1..n {
        let mut rotated = classes(0.5);
        rotated.rotate_left(shift);
        let sol = solve_classes(rotated);
        assert!(sol.all_stable && sol.converged, "shift {shift}");
        for (i, class) in sol.classes.iter().enumerate() {
            let want = base.classes[(i + shift) % n].mean_jobs;
            assert!(
                rel(class.mean_jobs, want) <= 1e-9,
                "shift {shift}, position {i}: N = {} vs {want}",
                class.mean_jobs
            );
        }
    }
}

#[test]
fn class0_mean_jobs_increase_with_its_arrival_rate() {
    let mut last: Option<(f64, f64)> = None;
    let mut stable_points = 0;
    for lambda0 in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let sol = solve_classes(classes(lambda0));
        if !sol.all_stable {
            break;
        }
        stable_points += 1;
        let n0 = sol.classes[0].mean_jobs;
        assert!(
            n0.is_finite() && n0 > 0.0,
            "lambda0 = {lambda0}: N_0 = {n0}"
        );
        if let Some((l, prev)) = last {
            assert!(
                n0 > prev,
                "N_0 fell from {prev} at lambda0 = {l} to {n0} at lambda0 = {lambda0}"
            );
        }
        last = Some((lambda0, n0));
    }
    assert!(
        stable_points >= 4,
        "only {stable_points} stable points on the lambda0 grid"
    );
}
