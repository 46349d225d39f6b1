//! `xval_sim`: the gang-scheduling simulator (`gsched_sim::simulate`, Gang
//! policy) on seeded variants of the paper's machine, each replication
//! checked against the analytic solution of the same model.

use crate::metrics::{peak_rss_mb, Metrics, Tally};
use crate::replay::{replay_solve, SubSteps};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::sweeps::{count_work, print_substeps, report_layers};
use crate::trace::Tracer;
use crate::Run;
use gsched_core::{solve, GangModel, SolverOptions};
use gsched_scenario::{registry, Policy, Scenario, Tolerance};
use gsched_sim::{simulate, SimConfig, SimResult};
use std::time::Instant;

/// Distinct machine variants per run; replications cycle through them.
const VARIANTS: usize = 6;
/// Simulated time per replication, of which the first tenth is warm-up.
const HORIZON: f64 = 20_000.0;
const BATCHES: usize = 10;
/// Response-time floor of the tolerance band, as in `gsched_scenario::xval`
/// (which keeps its band computation private).
const RESPONSE_FLOOR: f64 = 0.1;

/// One seeded variant of the paper machine.
pub struct Variant {
    pub scenario: Scenario,
    pub model: GangModel,
}

/// Quantum shape of each variant: Erlang stages and quantum mean. Fixed, so
/// that every seed simulates the same mix of event rates.
const SHAPES: [(usize, f64); VARIANTS] =
    [(1, 0.5), (2, 1.0), (3, 2.0), (1, 2.0), (2, 0.5), (3, 1.0)];

/// The workload's machine variants for `seed`: the paper machine with the
/// [`SHAPES`] quanta and a seeded λ in [0.40, 0.45].
pub fn variants(seed: u64) -> Result<Vec<Variant>, String> {
    let mut rng = Rng::new(seed).fork(0x5e);
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(stages, quantum))| {
            let lambda = rng.range(0.40, 0.45);
            let scenario = Scenario::builder(
                format!("xval_{i}"),
                registry::paper_machine(lambda, quantum, stages),
            )
            .policy(Policy::Gang)
            .build()
            .map_err(|e| e.to_string())?;
            let model = scenario.build_model().map_err(|e| e.to_string())?;
            Ok(Variant { scenario, model })
        })
        .collect()
}

fn config(seed: u64) -> SimConfig {
    SimConfig {
        horizon: HORIZON,
        warmup: HORIZON / 10.0,
        seed,
        batches: BATCHES,
    }
}

/// Simulated mean response of every class within the scenario's tolerance
/// of the analytic value (band: `rel·max(T_sim, floor) + ci_sigmas·ci95`).
fn check(
    tol: &Tolerance,
    model: &GangModel,
    analytic: &[f64],
    sim: &SimResult,
) -> Result<(), String> {
    for (p, (&a, s)) in analytic.iter().zip(&sim.classes).enumerate() {
        let lambda = model.class(p).arrival_rate();
        let ci95 = s.mean_jobs_ci95 / lambda;
        let band = tol.rel * s.mean_response.max(RESPONSE_FLOOR) + tol.ci_sigmas * ci95;
        let gap = (a - s.mean_response).abs();
        if gap.is_nan() || gap > band {
            return Err(format!(
                "class {p}: simulated T = {:.4}, analytic {a:.4}, gap {gap:.4} > {band:.4}",
                s.mean_response
            ));
        }
    }
    Ok(())
}

struct Replication {
    variant: usize,
    wall_ms: f64,
    completions: u64,
    result: SimResult,
}

pub fn run(run: &Run, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    // Set-up: generate and build the variants, then warm the simulator up
    // with one short run of each; three times, reporting the median.
    let mut setups = Vec::new();
    let mut built = Vec::new();
    let mut vs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        vs = variants(run.seed)?;
        built.push(t0.elapsed().as_secs_f64() * 1e3);
        for (i, v) in vs.iter().enumerate() {
            let cfg = SimConfig {
                horizon: HORIZON / 4.0,
                warmup: HORIZON / 40.0,
                seed: i as u64,
                batches: BATCHES,
            };
            std::hint::black_box(simulate(&v.model, Policy::Gang, cfg));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rng = Rng::new(run.seed).fork(0x51);
    let mut tr = Tracer::new();
    let mut reps: Vec<Replication> = Vec::new();
    let start = Instant::now();
    while reps.len() < 100 || start.elapsed().as_secs_f64() < run.seconds {
        let variant = reps.len() % vs.len();
        let cfg = config(rng.next_u64());
        let model = &vs[variant].model;
        let t0 = Instant::now();
        let result = if run.trace {
            tr.span("sim.run", |_| simulate(model, Policy::Gang, cfg))
        } else {
            simulate(model, Policy::Gang, cfg)
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let completions = result.classes.iter().map(|c| c.completions).sum();
        reps.push(Replication {
            variant,
            wall_ms,
            completions,
            result,
        });
    }
    let sim_ms: f64 = reps.iter().map(|r| r.wall_ms).sum();

    // The analytic side of the check, untraced.
    let opts = SolverOptions::default();
    let t0 = Instant::now();
    let analytic: Vec<Vec<f64>> = vs
        .iter()
        .map(|v| {
            solve(&v.model, &opts)
                .map(|s| s.classes.iter().map(|c| c.mean_response).collect())
                .map_err(|e| format!("{}: {e}", v.scenario.name))
        })
        .collect::<Result<_, _>>()?;
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    for r in &reps {
        let v = &vs[r.variant];
        tally.record(
            check(
                &v.scenario.tolerance,
                &v.model,
                &analytic[r.variant],
                &r.result,
            )
            .map_err(|e| format!("{}: {e}", v.scenario.name)),
        );
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ms).collect();
    eprintln!(
        "{} replications over {} variants, simulate {:.0} ms, analytic solves {:.0} ms",
        reps.len(),
        vs.len(),
        sim_ms,
        solve_ms
    );
    if run.trace {
        count_work(metrics, || {
            for v in &vs {
                std::hint::black_box(solve(&v.model, &opts).ok());
            }
        });
        let mut st = SubSteps::default();
        let t0 = tr.now_ns();
        for (i, v) in vs.iter().enumerate() {
            tr.set_op(i as u64);
            let got = replay_solve(&mut tr, &mut st, &v.model, &opts, None, None)?;
            if got.mean_response != analytic[i] {
                tally.problem(format!(
                    "{}: traced replay differs from solve",
                    v.scenario.name
                ));
            }
        }
        let replay_ms = (tr.now_ns() - t0) as f64 / 1e6;
        report_layers(&tr, &st, 1.0, metrics);
        metrics.set("scenario.build_ms", median(&built).unwrap_or(0.0));
        metrics.set("sim.run_ms", median(&walls).unwrap_or(0.0));
        metrics.set(
            "sim.completions",
            reps.iter().map(|r| r.completions as f64).sum::<f64>() / reps.len() as f64,
        );
        let gap = reps
            .iter()
            .flat_map(|r| (0..r.result.classes.len()).map(|p| r.result.littles_law_gap(p)))
            .filter(|g| g.is_finite())
            .fold(0.0_f64, f64::max);
        metrics.set("sim.littles_gap_max", gap);
        metrics.set("trace.overhead_share", replay_ms / solve_ms - 1.0);
        let traced_ms = sim_ms + replay_ms;
        metrics.set("trace.coverage", tr.covered_ms() / traced_ms);
        print!("{}", tr.layer_table(run.workload, 1.0, traced_ms));
        print_substeps(&tr, &st, 1.0);
        crate::write_trace(&tr, run);
        return Ok(());
    }
    metrics.set("setup_s", median(&setups).unwrap_or(0.0));
    // Throughput per cycle through all variants, so that every sample
    // weighs the variants alike.
    let rates: Vec<f64> = reps
        .chunks_exact(vs.len())
        .map(|c| {
            let done: u64 = c.iter().map(|r| r.completions).sum();
            let ms: f64 = c.iter().map(|r| r.wall_ms).sum();
            done as f64 / (ms / 1e3)
        })
        .collect();
    metrics.require(tally, "work_per_s", median(&rates));
    metrics.require(tally, "op_p50_ms", median(&walls));
    metrics.require(tally, "op_tail_ms", percentile(&walls, 0.90));
    metrics.require(tally, "peak_rss_mb", peak_rss_mb());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_variants() {
        let json = |seed| -> Vec<String> {
            variants(seed)
                .unwrap()
                .iter()
                .map(|v| v.scenario.to_json())
                .collect()
        };
        assert_eq!(json(3), json(3));
        assert_ne!(json(3), json(4));
    }
}
