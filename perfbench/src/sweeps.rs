//! `paper_sweeps` and `large_p`: registry sweeps through
//! `gsched_engine::run_sweep` with one worker, warm-started, as
//! `gsched sweep` runs them.

use crate::metrics::{peak_rss_mb, Metrics, Tally};
use crate::reference::{pin_lines, Reference};
use crate::replay::{large_p_options, replay_solve, replay_sweep, SubSteps};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Run;
use gsched_core::{solve, solve_asymptotic, GangModel, GangSolution, SolverOptions};
use gsched_engine::{run_sweep, SweepOptions, SweepReport, SweepRequest};
use gsched_linalg::WorkCounters;
use gsched_scenario::{registry, Scenario};
use std::time::Instant;

/// Relative slack on Little's law `λ_p·E[R_p] = N_p`, where `E[R_p]` is the
/// mean of the class's response-time distribution (a tagged-job absorption
/// chain) and `N_p` the stationary mean level: two computations that share
/// only the solved chain. The distribution folds the ahead-count tail past
/// `tail_eps`, hence the slack.
const LITTLE_TOL: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figures 2–5 of the paper: 55 points on the 8-processor, 4-class machine.
    Paper,
    /// `p_sweep`: P = 8 … 4096 under certified level truncation.
    LargeP,
}

impl Kind {
    fn sweep_names(self) -> &'static [&'static str] {
        match self {
            Kind::Paper => &["fig2", "fig3", "fig4", "fig5"],
            Kind::LargeP => &["p_sweep"],
        }
    }

    /// Points of each sweep whose response-time distribution is checked
    /// against Little's law after the timed passes.
    fn little_points(self, len: usize) -> Vec<usize> {
        match self {
            Kind::Paper => vec![0, len / 2, len - 1],
            Kind::LargeP => vec![0, 1],
        }
    }

    /// Points of each sweep solved cold during set-up.
    fn warm_up_points(self) -> usize {
        match self {
            Kind::Paper => 1,
            Kind::LargeP => 2,
        }
    }
}

/// The workload's inputs: one request per registry sweep.
struct Inputs {
    scenarios: Vec<Scenario>,
    requests: Vec<SweepRequest>,
    solver: SolverOptions,
}

impl Inputs {
    fn build(kind: Kind) -> Result<Inputs, String> {
        let mut scenarios = Vec::new();
        let mut requests = Vec::new();
        for name in kind.sweep_names() {
            let sc =
                registry::lookup(name).ok_or_else(|| format!("{name}: not in the registry"))?;
            requests.push(
                sc.sweep_request(false)
                    .map_err(|e| format!("{name}: {e}"))?,
            );
            scenarios.push(sc);
        }
        let solver = match kind {
            Kind::Paper => SolverOptions::default(),
            Kind::LargeP => large_p_options(scenarios[0].tolerance.certified_tail.unwrap_or(1e-8)),
        };
        Ok(Inputs {
            scenarios,
            requests,
            solver,
        })
    }

    fn sweep_options(&self) -> SweepOptions {
        SweepOptions::default()
            .with_jobs(1)
            .with_solver(self.solver.clone())
    }

    fn points(&self) -> usize {
        self.requests.iter().map(SweepRequest::len).sum()
    }
}

/// Checks every solved point must pass.
struct Checker {
    reference: Reference,
}

impl Checker {
    fn check_point(&self, sc: &Scenario, idx: usize, mean_jobs: &[f64]) -> Result<(), String> {
        self.reference.check(&sc.name, idx, mean_jobs)
    }

    fn check_solution(&self, sc: &Scenario, idx: usize, sol: &GangSolution) -> Result<(), String> {
        let n: Vec<f64> = sol.classes.iter().map(|c| c.mean_jobs).collect();
        self.check_point(sc, idx, &n)?;
        if let Some(ceiling) = sc.tolerance.certified_tail {
            let health = sol
                .health
                .as_ref()
                .ok_or_else(|| format!("{}[{idx}]: no health report", sc.name))?;
            for h in &health.classes {
                // An unstable class reports NaN, which fails too.
                if h.certified_tail.is_nan() || h.certified_tail > ceiling {
                    return Err(format!(
                        "{}[{idx}] class {}: certified tail {:e} above {ceiling:e}",
                        sc.name, h.class, h.certified_tail
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_report(
        &self,
        sc: &Scenario,
        req: &SweepRequest,
        rep: &SweepReport,
        tally: &mut Tally,
    ) {
        if rep.points.len() != req.points.len() {
            tally.record(Err(format!(
                "{}: {} of {} points reported",
                sc.name,
                rep.points.len(),
                req.points.len()
            )));
        }
        for (idx, pr) in rep.points.iter().enumerate() {
            tally.record(match (&pr.solution, &pr.error) {
                (Some(sol), _) => self.check_solution(sc, idx, sol),
                (None, e) => Err(format!(
                    "{}[{idx}]: {}",
                    sc.name,
                    e.as_deref().unwrap_or("no solution")
                )),
            });
        }
    }
}

/// Little's law on a few points of each sweep: `λ_p` times the mean of
/// each class's response-time distribution against `N_p`, both from one
/// cold replayed solve with response quantiles on.
fn check_littles_law(kind: Kind, inputs: &Inputs, tally: &mut Tally) {
    let mut worst = 0.0_f64;
    for (sc, req) in inputs.scenarios.iter().zip(&inputs.requests) {
        for idx in kind.little_points(req.len()) {
            tally.record(
                littles_gap(&req.points[idx].model, &inputs.solver)
                    .map(|gap| worst = worst.max(gap))
                    .map_err(|e| format!("{}[{idx}] {e}", sc.name)),
            );
        }
    }
    eprintln!("Little's law from the response-time distribution: largest gap {worst:.2e}");
}

/// The largest relative gap `|λ_p·E[R_p] − N_p| / N_p` over the stable
/// classes of `model`; an error past [`LITTLE_TOL`].
fn littles_gap(model: &GangModel, solver: &SolverOptions) -> Result<f64, String> {
    let mut opts = solver.clone();
    opts.response_quantiles = true;
    let r = replay_solve(
        &mut Tracer::new(),
        &mut SubSteps::default(),
        model,
        &opts,
        None,
        None,
    )?;
    let mut worst = 0.0_f64;
    for (p, (&n, &rt)) in r.mean_jobs.iter().zip(&r.response_mean).enumerate() {
        let lt = model.class(p).arrival_rate() * rt;
        littles_law_holds(n, lt)
            .then_some(())
            .ok_or_else(|| format!("class {p}: λ·E[R] = {lt:e} but N = {n:e}"))?;
        if n.is_finite() {
            worst = worst.max((lt - n).abs() / n.abs());
        }
    }
    Ok(worst)
}

/// `λ·E[R] = N` to [`LITTLE_TOL`]; an unstable class (`N = ∞`) needs `∞`.
fn littles_law_holds(n: f64, lt: f64) -> bool {
    if n.is_finite() {
        (lt - n).abs() <= LITTLE_TOL * n.abs()
    } else {
        lt.is_infinite()
    }
}

/// The zero-queueing cross-check at the largest machine size.
fn check_asymptotic(sc: &Scenario, rep: &SweepReport) -> Result<(), String> {
    let Some(tol) = sc.tolerance.asymptotic_rel else {
        return Ok(());
    };
    let last = rep.points.last().ok_or("empty sweep")?;
    let sol = last
        .solution
        .as_ref()
        .ok_or("largest point did not solve")?;
    let model = sc.model_at(last.x).map_err(|e| e.to_string())?;
    let asym = solve_asymptotic(&model).map_err(|e| e.to_string())?;
    for (p, (full, lim)) in sol.classes.iter().zip(&asym.classes).enumerate() {
        let gap = (full.mean_response - lim.mean_response).abs() / lim.mean_response;
        if gap.is_nan() || gap > tol {
            return Err(format!(
                "{} at P = {}: class {p} is {:.2}% from the zero-queueing limit (tolerance {:.0}%)",
                sc.name,
                last.x,
                gap * 100.0,
                tol * 100.0
            ));
        }
    }
    Ok(())
}

/// Build the inputs and warm up (cold solves of each sweep's first
/// points), `reps` times; returns the inputs, the median set-up seconds and
/// the median build-only milliseconds.
fn set_up(kind: Kind, reps: usize) -> Result<(Inputs, f64, f64), String> {
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut inputs = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let inp = Inputs::build(kind)?;
        builds.push(t0.elapsed().as_secs_f64() * 1e3);
        for req in &inp.requests {
            for pt in req.points.iter().take(kind.warm_up_points()) {
                solve(&pt.model, &inp.solver).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some(inp);
    }
    let inputs = inputs.ok_or("no set-up repetitions")?;
    Ok((
        inputs,
        median(&setups).unwrap_or(0.0),
        median(&builds).unwrap_or(0.0),
    ))
}

pub fn run(kind: Kind, run: &Run, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    let (inputs, setup_s, build_ms) = set_up(kind, 3)?;
    let checker = Checker {
        reference: Reference::pinned(),
    };
    let mut rng = Rng::new(run.seed);
    if run.trace {
        return traced(
            kind, run, &inputs, &checker, build_ms, &mut rng, tally, metrics,
        );
    }
    metrics.set("setup_s", setup_s);
    let opts = inputs.sweep_options();
    let mut order: Vec<usize> = (0..inputs.requests.len()).collect();
    let mut pass_rates = Vec::new();
    let mut point_ms = Vec::new();
    let mut largest_ms = Vec::new();
    let start = Instant::now();
    while pass_rates.len() < 2 || start.elapsed().as_secs_f64() < run.seconds {
        rng.shuffle(&mut order);
        let mut pass_s = 0.0;
        for &i in &order {
            let t0 = Instant::now();
            let rep = run_sweep(&inputs.requests[i], &opts);
            pass_s += t0.elapsed().as_secs_f64();
            // Each report is checked before the next sweep starts, as
            // `gsched sweep` checks the large-P contract and prints each
            // sweep before the next. Back to back, the next sweep's worker
            // can start before the last one has exited; glibc then gives
            // it a new arena, and peak RSS rises by one arena's heap.
            checker.check_report(&inputs.scenarios[i], &inputs.requests[i], &rep, tally);
            point_ms.extend(rep.points.iter().map(|p| p.wall_ms));
            if kind == Kind::LargeP {
                largest_ms.extend(rep.points.last().map(|p| p.wall_ms));
                tally.record(check_asymptotic(&inputs.scenarios[i], &rep));
            }
        }
        pass_rates.push(inputs.points() as f64 / pass_s);
    }
    eprintln!(
        "{} passes, {} point solves, pass throughput {:?} points/s",
        pass_rates.len(),
        point_ms.len(),
        pass_rates
            .iter()
            .map(|r| (r * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    metrics.require(tally, "work_per_s", median(&pass_rates));
    metrics.require(tally, "op_p50_ms", median(&point_ms));
    let tail = match kind {
        Kind::Paper => percentile(&point_ms, 0.90),
        Kind::LargeP => median(&largest_ms),
    };
    metrics.require(tally, "op_tail_ms", tail);
    metrics.require(tally, "peak_rss_mb", peak_rss_mb());
    // After the peak RSS is read: the response-time chains are large.
    check_littles_law(kind, &inputs, tally);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced(
    kind: Kind,
    run: &Run,
    inputs: &Inputs,
    checker: &Checker,
    build_ms: f64,
    rng: &mut Rng,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // The counting, untraced and traced passes share the run's time.
    let start = Instant::now();
    let opts = inputs.sweep_options();
    let n = inputs.requests.len();
    metrics.set("scenario.build_ms", build_ms);

    // Counting pass: the program's recorder on, its counters read back.
    let mut reports: Vec<SweepReport> = Vec::new();
    count_work(metrics, || {
        reports = inputs
            .requests
            .iter()
            .map(|r| run_sweep(r, &opts))
            .collect();
    });
    for (i, rep) in reports.iter().enumerate() {
        checker.check_report(&inputs.scenarios[i], &inputs.requests[i], rep, tally);
    }

    // Untraced pass: the engine's own wall against its points' walls.
    let (mut wall_ms, mut overhead_ms, mut hits, mut misses) = (0.0, 0.0, 0u64, 0u64);
    for (i, req) in inputs.requests.iter().enumerate() {
        let rep = run_sweep(req, &opts);
        wall_ms += rep.stats.wall_ms;
        overhead_ms += rep.stats.wall_ms - rep.points.iter().map(|p| p.wall_ms).sum::<f64>();
        hits += rep.stats.warm_hits;
        misses += rep.stats.warm_misses;
        checker.check_report(&inputs.scenarios[i], req, &rep, tally);
    }
    metrics.set("engine.overhead_ms", overhead_ms);
    metrics.set(
        "engine.warm_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // Traced passes: the same sweeps replayed through the layers under spans.
    let mut tr = Tracer::new();
    let mut st = SubSteps::default();
    let mut order: Vec<usize> = (0..n).collect();
    let mut passes = 0usize;
    let mut traced_ns = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < run.seconds {
        rng.shuffle(&mut order);
        let t0 = tr.now_ns();
        for &i in &order {
            let req = &inputs.requests[i];
            let results = replay_sweep(&mut tr, &mut st, req, &inputs.solver, (i * 1000) as u64);
            let sc = &inputs.scenarios[i];
            for (idx, res) in results.into_iter().enumerate() {
                tally.record(res.and_then(|r| checker.check_point(sc, idx, &r.mean_jobs)));
            }
        }
        traced_ns += tr.now_ns() - t0;
        passes += 1;
    }
    let traced_ms = traced_ns as f64 / 1e6;
    report_layers(&tr, &st, passes as f64, metrics);
    metrics.set(
        "trace.overhead_share",
        traced_ms / passes as f64 / wall_ms - 1.0,
    );
    metrics.set("trace.coverage", tr.covered_ms() / traced_ms);
    if kind == Kind::LargeP {
        tally.record(check_asymptotic(&inputs.scenarios[0], &reports[0]));
    }
    check_littles_law(kind, inputs, tally);
    print!("{}", tr.layer_table(run.workload, passes as f64, traced_ms));
    print_substeps(&tr, &st, passes as f64);
    println!(
        "  {:<10} {:>12.3}  (run_sweep wall minus point walls, untraced)",
        "engine", overhead_ms
    );
    println!(
        "  {:<10} {:>12.3}  (request build, untraced)",
        "scenario", build_ms
    );
    crate::write_trace(&tr, run);
    Ok(())
}

/// Run `f` once with the program's recorder installed and report the
/// solver's iteration counters and the kernel work counters it moved.
pub fn count_work(metrics: &mut Metrics, f: impl FnOnce()) {
    let recorder = gsched_obs::install_memory();
    let work0 = WorkCounters::snapshot();
    f();
    let work = work0.delta_since();
    let snap = recorder.snapshot();
    gsched_obs::uninstall();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    };
    metrics.set(
        "qbd.rmatrix_iterations",
        counter(gsched_obs::names::QBD_RMATRIX_ITERATIONS),
    );
    metrics.set(
        "core.fp_iterations",
        counter(gsched_obs::names::CORE_SOLVER_FP_ITERATIONS),
    );
    metrics.set("linalg.matmul_calls", work.matmul_calls as f64);
    metrics.set("linalg.matmul_flops", work.matmul_flops as f64);
    metrics.set("linalg.lu_factorizations", work.lu_factorizations as f64);
    metrics.set("linalg.lu_flops", work.lu_flops as f64);
    metrics.set("linalg.triangular_solves", work.triangular_solves as f64);
    metrics.set("linalg.triangular_flops", work.triangular_flops as f64);
}

/// The replayed split of `QbdProcess::solve` and the phase moments, per
/// pass, as rows under the layer table.
pub fn print_substeps(tr: &Tracer, st: &SubSteps, passes: f64) {
    let solve = tr.ms("qbd.solve");
    let rows = [
        ("qbd.solve_r (cold)", st.solve_r_ms),
        ("qbd.solve_r_warm", st.solve_r_warm_ms),
        ("qbd.spectral_radius", st.spectral_ms),
        ("qbd.drift", st.drift_ms),
        ("qbd.irreducible", st.irreducible_ms),
        ("qbd.other", (solve - st.qbd_replayed_ms()).max(0.0)),
        ("phase.moments", st.moments_ms),
    ];
    println!(
        "  replayed off the clock (per pass; qbd rows split qbd.solve = {:.3} ms):",
        solve / passes
    );
    for (name, ms) in rows {
        println!("    {name:<22} {:>12.3}", ms / passes);
    }
}

/// Per-pass layer metrics from a traced run over `passes` passes.
pub fn report_layers(tr: &Tracer, st: &SubSteps, passes: f64, metrics: &mut Metrics) {
    let per = |ms: f64| ms / passes;
    metrics.set("core.solve_ms", per(tr.ms("core.solve")));
    metrics.set("core.vacation_ms", per(tr.ms("core.vacation")));
    metrics.set("core.generator_ms", per(tr.ms("core.generator")));
    metrics.set(
        "core.effective_ms",
        per(tr.ms("core.effective") - tr.ms("core.compress")),
    );
    metrics.set("core.compress_ms", per(tr.ms("core.compress")));
    metrics.set("core.measures_ms", per(tr.ms("core.measures")));
    metrics.set("phase.moments_ms", per(st.moments_ms));
    metrics.set(
        "phase.effective_order",
        st.effective_order as f64 / st.effective_quanta.max(1) as f64,
    );
    metrics.set("qbd.solve_ms", per(tr.ms("qbd.solve")));
    metrics.set("qbd.solve_r_ms", per(st.solve_r_ms));
    metrics.set("qbd.solve_r_warm_ms", per(st.solve_r_warm_ms));
    metrics.set("qbd.spectral_radius_ms", per(st.spectral_ms));
    metrics.set("qbd.drift_ms", per(st.drift_ms));
    metrics.set("qbd.irreducible_ms", per(st.irreducible_ms));
    metrics.set(
        "qbd.solve_other_ms",
        per((tr.ms("qbd.solve") - st.qbd_replayed_ms()).max(0.0)),
    );
    metrics.set(
        "qbd.boundary_states",
        st.boundary_states as f64 / st.qbd_solves.max(1) as f64,
    );
    metrics.set("qbd.truncation_level", st.truncation_level_max as f64);
    metrics.set("qbd.certified_tail_max", st.certified_tail_max);
}

/// Print the reference lines for every point of both sweep workloads.
pub fn pin_reference() -> Result<String, String> {
    let mut out = String::from(
        "# Per-class mean jobs N_p for every sweep point of paper_sweeps and large_p.\n\
         # <sweep> <point index> <x> <class> <N_p>; written by `perfbench --pin-reference`.\n",
    );
    for kind in [Kind::Paper, Kind::LargeP] {
        let inputs = Inputs::build(kind)?;
        let opts = inputs.sweep_options();
        for (sc, req) in inputs.scenarios.iter().zip(&inputs.requests) {
            let rep = run_sweep(req, &opts);
            for (idx, p) in rep.points.iter().enumerate() {
                let sol = p
                    .solution
                    .as_ref()
                    .ok_or_else(|| format!("{}[{idx}] failed", sc.name))?;
                let n: Vec<f64> = sol.classes.iter().map(|c| c.mean_jobs).collect();
                out.push_str(&pin_lines(&sc.name, idx, p.x, &n));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn littles_law_from_the_response_distribution() {
        let inputs = Inputs::build(Kind::Paper).unwrap();
        let gap = littles_gap(&inputs.requests[0].points[0].model, &inputs.solver).unwrap();
        assert!(gap < LITTLE_TOL, "gap {gap:e}");
        assert!(littles_law_holds(2.0, 2.0 * (1.0 + LITTLE_TOL / 2.0)));
        assert!(!littles_law_holds(2.0, 2.0 * (1.0 + 2.0 * LITTLE_TOL)));
        assert!(littles_law_holds(f64::INFINITY, f64::INFINITY));
        assert!(!littles_law_holds(f64::INFINITY, 3.0));
        assert!(!littles_law_holds(2.0, f64::NAN));
    }
}
