//! Traced replay of the solver pipeline through the layers' public
//! functions.
//!
//! [`replay_solve`] walks the same steps as `gsched_core::solve_warm`
//! (serial class loop): vacation composition, generator assembly, the QBD
//! solve, effective-quantum extraction and compression, then the measures.
//! Each call into a layer sits in a benchmark span. The QBD solve's public
//! sub-steps (irreducibility, drift, the `R` solve, `sp(R)`) and the phase
//! moments of each effective quantum are replayed on the same inputs off
//! the span clock, so they split the solve without inflating it.
//! [`replay_sweep`] chains points the way `gsched_engine::run_sweep` does.

use crate::trace::Tracer;
use gsched_core::effective::{compress, effective_quantum};
use gsched_core::generator::{build_class_chain, ClassChain};
use gsched_core::measures::class_measures;
use gsched_core::qbd::rmatrix::{solve_r_warm_with, solve_r_with};
use gsched_core::qbd::{
    drift_condition, r_residual_with, LevelTruncation, QbdError, QbdProcess, QbdSolution,
};
use gsched_core::response::response_time_distribution;
use gsched_core::{GangModel, SolverOptions, VacationCache, VacationMode, WarmStart};
use gsched_engine::{SweepRequest, DEFAULT_CHUNK_SIZE};
use gsched_linalg::Matrix;
use gsched_phase::PhaseType;

/// Per-class results of one replayed solve, plus its warm-start export.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub mean_jobs: Vec<f64>,
    pub mean_response: Vec<f64>,
    /// Mean of each class's response-time distribution, when the options
    /// ask for response quantiles (NaN otherwise; ∞ for an unstable class).
    pub response_mean: Vec<f64>,
    pub warm: WarmStart,
}

/// Sub-step timings and work shapes accumulated over replays.
#[derive(Debug, Clone, Default)]
pub struct SubSteps {
    pub irreducible_ms: f64,
    pub drift_ms: f64,
    pub solve_r_ms: f64,
    pub solve_r_warm_ms: f64,
    pub spectral_ms: f64,
    pub moments_ms: f64,
    pub qbd_solves: u64,
    pub boundary_states: u64,
    pub effective_order: u64,
    pub effective_quanta: u64,
    pub truncation_level_max: usize,
    pub certified_tail_max: f64,
}

impl SubSteps {
    /// The replayed share of `QbdProcess::solve`.
    pub fn qbd_replayed_ms(&self) -> f64 {
        self.irreducible_ms
            + self.drift_ms
            + self.solve_r_ms
            + self.solve_r_warm_ms
            + self.spectral_ms
    }
}

enum ClassIterate {
    Stable(Box<(ClassChain, QbdSolution)>),
    Unstable,
}

/// The process a `QbdProcess::solve` call actually solved last: the
/// certified truncation when one is attached, the full chain otherwise.
fn solved_process(chain: &ClassChain, sol: &QbdSolution) -> Option<QbdProcess> {
    match sol.truncation() {
        Some(t) if t.level < chain.qbd.c() => chain.qbd.truncated(t.level).ok(),
        _ => None,
    }
}

/// Replay the public sub-steps of one `QbdProcess::solve` on its blocks.
fn replay_qbd_steps(
    chain: &ClassChain,
    sol: &QbdSolution,
    opts: &gsched_core::qbd::SolveOptions,
    st: &mut SubSteps,
) {
    let truncated = solved_process(chain, sol);
    let q = truncated.as_ref().unwrap_or(&chain.qbd);
    let timed = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    if opts.check_irreducible {
        st.irreducible_ms += timed(&mut || {
            std::hint::black_box(q.is_irreducible());
        });
    }
    st.drift_ms += timed(&mut || {
        std::hint::black_box(drift_condition(&q.a0, &q.a1, &q.a2).ok());
    });
    let d = q.repeating_dim();
    let cold = |q: &QbdProcess| {
        solve_r_with(
            &q.a0,
            &q.a1,
            &q.a2,
            opts.method,
            opts.tol,
            opts.max_iter,
            opts.backend,
        )
    };
    let mut r: Option<Matrix> = None;
    match opts
        .initial_r
        .as_ref()
        .filter(|r0| r0.rows() == d && r0.cols() == d)
    {
        Some(r0) => {
            let budget = opts.warm_max_iter.min(opts.max_iter).max(1);
            st.solve_r_warm_ms += timed(&mut || {
                r = solve_r_warm_with(
                    &q.a0,
                    &q.a1,
                    &q.a2,
                    r0,
                    opts.method,
                    opts.tol,
                    budget,
                    1e-8,
                    opts.backend,
                )
                .ok();
            });
            if r.is_none() {
                st.solve_r_ms += timed(&mut || r = cold(q).ok());
            }
        }
        None => st.solve_r_ms += timed(&mut || r = cold(q).ok()),
    }
    if let Some(r) = r {
        let be = opts.backend.instance();
        st.spectral_ms += timed(&mut || {
            std::hint::black_box(be.spectral_radius(&r, 1e-12, 200_000).ok());
        });
    }
    st.qbd_solves += 1;
    st.boundary_states += (0..=q.c()).map(|i| q.level_dim(i) as u64).sum::<u64>();
    if let Some(t) = sol.truncation() {
        st.truncation_level_max = st.truncation_level_max.max(t.level);
        st.certified_tail_max = st.certified_tail_max.max(t.tail_mass);
    }
}

#[allow(clippy::too_many_arguments)]
fn solve_class(
    tr: &mut Tracer,
    st: &mut SubSteps,
    model: &GangModel,
    opts: &SolverOptions,
    p: usize,
    quanta: &[PhaseType],
    initial_r: Option<&Matrix>,
    cache: Option<&VacationCache>,
) -> Result<ClassIterate, String> {
    let vac = tr.span("core.vacation", |_| match cache {
        Some(c) => c.compose(model, p, quanta),
        None => gsched_core::vacation::compose_vacation(model, p, quanta),
    });
    let chain = tr
        .span("core.generator", |_| build_class_chain(model, p, &vac))
        .map_err(|e| e.to_string())?;
    let mut qopts = opts.qbd.clone();
    if let Some(r0) = initial_r {
        qopts.initial_r = Some(r0.clone());
    }
    match tr.span("qbd.solve", |_| chain.qbd.solve(&qopts)) {
        Ok(sol) => {
            tr.excluded(|| replay_qbd_steps(&chain, &sol, &qopts, st));
            Ok(ClassIterate::Stable(Box::new((chain, sol))))
        }
        Err(QbdError::Unstable(_)) => Ok(ClassIterate::Unstable),
        Err(e) => Err(format!("class {p}: {e}")),
    }
}

/// Replay `solve_warm(model, opts, warm, cache)` under spans.
pub fn replay_solve(
    tr: &mut Tracer,
    st: &mut SubSteps,
    model: &GangModel,
    opts: &SolverOptions,
    warm: Option<&WarmStart>,
    cache: Option<&VacationCache>,
) -> Result<Replayed, String> {
    tr.span("core.solve", |tr| {
        replay_inner(tr, st, model, opts, warm, cache)
    })
}

fn replay_inner(
    tr: &mut Tracer,
    st: &mut SubSteps,
    model: &GangModel,
    opts: &SolverOptions,
    warm: Option<&WarmStart>,
    cache: Option<&VacationCache>,
) -> Result<Replayed, String> {
    let l = model.num_classes();
    let continuation = warm.is_some();
    let mut quanta: Vec<PhaseType> = model.classes().iter().map(|c| c.quantum.clone()).collect();
    let mut r_state: Vec<Option<Matrix>> = vec![None; l];
    if let Some(w) = warm {
        if opts.mode != VacationMode::HeavyTraffic {
            if let Some(q) = w.quanta.as_ref().filter(|q| q.len() == l) {
                quanta = q.clone();
            }
        }
        if w.r_matrices.len() == l {
            r_state = w.r_matrices.clone();
        }
    }
    let mut prev_n = vec![f64::NAN; l];
    let mut iterations = 0usize;
    let mut last_change;
    let mut pass: Vec<ClassIterate>;
    loop {
        iterations += 1;
        pass = Vec::with_capacity(l);
        let mut n_now = Vec::with_capacity(l);
        for (p, r0) in r_state.iter().enumerate() {
            let item = solve_class(tr, st, model, opts, p, &quanta, r0.as_ref(), cache)?;
            n_now.push(match &item {
                ClassIterate::Stable(cs) => cs.1.mean_level(),
                ClassIterate::Unstable => f64::INFINITY,
            });
            pass.push(item);
        }
        if continuation {
            for (p, item) in pass.iter().enumerate() {
                if let ClassIterate::Stable(cs) = item {
                    r_state[p] = Some(cs.1.r().clone());
                }
            }
        }
        last_change = n_now
            .iter()
            .zip(&prev_n)
            .map(|(&a, &b)| {
                if a.is_infinite() && b.is_infinite() {
                    0.0
                } else if a.is_finite() && b.is_finite() {
                    (a - b).abs() / b.abs().max(1.0)
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0_f64, f64::max);
        prev_n = n_now;
        if opts.mode == VacationMode::HeavyTraffic
            || (iterations > 1 && last_change < opts.fp_tol)
            || iterations >= opts.fp_max_iter
        {
            break;
        }
        tr.span("core.effective", |tr| -> Result<(), String> {
            let theta = opts.damping.clamp(1e-3, 1.0);
            for p in 0..l {
                let raw = match &pass[p] {
                    ClassIterate::Stable(cs) => {
                        let (chain, sol) = cs.as_ref();
                        let eff =
                            effective_quantum(chain, sol, opts.tail_eps, opts.max_extra_levels)
                                .map_err(|e| e.to_string())?;
                        st.effective_order += eff.distribution.order() as u64;
                        st.effective_quanta += 1;
                        let ((), ms) = tr.excluded(|| {
                            for k in 1..=3 {
                                std::hint::black_box(eff.distribution.moment(k));
                            }
                        });
                        st.moments_ms += ms;
                        match &opts.mode {
                            VacationMode::MomentMatched { moments } => {
                                tr.span("core.compress", |_| compress(&eff.distribution, *moments))
                            }
                            _ => eff.distribution,
                        }
                    }
                    ClassIterate::Unstable => model.class(p).quantum.clone(),
                };
                quanta[p] = if theta >= 1.0 {
                    raw
                } else if let VacationMode::MomentMatched { moments } = &opts.mode {
                    let mixed =
                        gsched_phase::mixture(&[theta, 1.0 - theta], &[raw, quanta[p].clone()])
                            .map_err(|e| e.to_string())?;
                    tr.span("core.compress", |_| compress(&mixed, *moments))
                } else {
                    raw
                };
            }
            Ok(())
        })?;
    }
    let converged = opts.mode == VacationMode::HeavyTraffic || last_change < opts.fp_tol;
    if !converged && (last_change.is_nan() || last_change >= 1e-2) {
        return Err(format!(
            "fixed point did not converge after {iterations} iterations"
        ));
    }
    tr.span("core.measures", |_| -> Result<Replayed, String> {
        let mut mean_jobs = Vec::with_capacity(l);
        let mut mean_response = Vec::with_capacity(l);
        let mut response_mean = Vec::with_capacity(l);
        for (p, item) in pass.iter().enumerate() {
            match item {
                ClassIterate::Stable(cs) => {
                    let (chain, sol) = cs.as_ref();
                    let m = class_measures(model, p, chain, sol);
                    // `solve_warm` extracts the final effective quantum here
                    // too, and checks the drift and residual for its health report.
                    effective_quantum(chain, sol, opts.tail_eps, opts.max_extra_levels)
                        .map_err(|e| e.to_string())?;
                    if opts.collect_health {
                        let q = &chain.qbd;
                        drift_condition(&q.a0, &q.a1, &q.a2).map_err(|e| e.to_string())?;
                        std::hint::black_box(r_residual_with(
                            &q.a0,
                            &q.a1,
                            &q.a2,
                            sol.r(),
                            opts.qbd.backend,
                        ));
                    }
                    // ... and the response-time distribution when asked for.
                    response_mean.push(if opts.response_quantiles {
                        response_time_distribution(chain, sol, opts.tail_eps, opts.max_extra_levels)
                            .map_err(|e| e.to_string())?
                            .distribution
                            .mean()
                    } else {
                        f64::NAN
                    });
                    mean_jobs.push(m.mean_jobs);
                    mean_response.push(m.mean_response);
                }
                ClassIterate::Unstable => {
                    mean_jobs.push(f64::INFINITY);
                    mean_response.push(f64::INFINITY);
                    response_mean.push(f64::INFINITY);
                }
            }
        }
        let r_matrices = pass
            .iter()
            .map(|item| match item {
                ClassIterate::Stable(cs) => Some(cs.1.r().clone()),
                ClassIterate::Unstable => None,
            })
            .collect();
        Ok(Replayed {
            mean_jobs,
            mean_response,
            response_mean,
            warm: WarmStart {
                quanta: Some(quanta.clone()),
                r_matrices,
            },
        })
    })
}

/// Replay `run_sweep` with one worker: points in chunks of
/// [`DEFAULT_CHUNK_SIZE`], warm-chained within a chunk, one vacation cache
/// per sweep. `op_base` numbers the points' spans.
pub fn replay_sweep(
    tr: &mut Tracer,
    st: &mut SubSteps,
    req: &SweepRequest,
    opts: &SolverOptions,
    op_base: u64,
) -> Vec<Result<Replayed, String>> {
    let cache = VacationCache::new();
    let mut out = Vec::with_capacity(req.points.len());
    for (ci, chunk) in req.points.chunks(DEFAULT_CHUNK_SIZE).enumerate() {
        let mut carry: Option<WarmStart> = None;
        for (k, pt) in chunk.iter().enumerate() {
            tr.set_op(op_base + (ci * DEFAULT_CHUNK_SIZE + k) as u64);
            let res = replay_solve(tr, st, &pt.model, opts, carry.as_ref(), Some(&cache));
            carry = res.as_ref().ok().map(|r| r.warm.clone());
            out.push(res);
        }
    }
    out
}

/// The solver options `gsched sweep` uses on a processors-axis sweep:
/// certified level truncation at the scenario's ceiling, health collected.
pub fn large_p_options(target_tail: f64) -> SolverOptions {
    let mut solver = SolverOptions::default();
    solver.qbd.truncation = LevelTruncation::Auto {
        target_tail,
        min_levels: 4,
    };
    solver.collect_health = true;
    solver
}
