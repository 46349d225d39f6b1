//! The metric catalogue and the one-line JSON result.
//!
//! End-to-end metrics are reported on every workload, each under the
//! workload's own reading (see `perfbench/README.md`); per-layer metrics
//! are reported by the traced run, as 0 where the workload does not run
//! the layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.build_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.warm_hit_share", "share"),
    ("core.fp_iterations", "count"),
    ("core.solve_ms", "ms"),
    ("core.vacation_ms", "ms"),
    ("core.generator_ms", "ms"),
    ("core.effective_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.measures_ms", "ms"),
    ("phase.moments_ms", "ms"),
    ("phase.effective_order", "phases"),
    ("qbd.solve_ms", "ms"),
    ("qbd.solve_r_ms", "ms"),
    ("qbd.solve_r_warm_ms", "ms"),
    ("qbd.rmatrix_iterations", "count"),
    ("qbd.spectral_radius_ms", "ms"),
    ("qbd.drift_ms", "ms"),
    ("qbd.irreducible_ms", "ms"),
    ("qbd.solve_other_ms", "ms"),
    ("qbd.boundary_states", "states"),
    ("qbd.truncation_level", "levels"),
    ("qbd.certified_tail_max", "prob"),
    ("linalg.matmul_calls", "count"),
    ("linalg.matmul_flops", "flop"),
    ("linalg.lu_factorizations", "count"),
    ("linalg.lu_flops", "flop"),
    ("linalg.triangular_solves", "count"),
    ("linalg.triangular_flops", "flop"),
    ("service.cache_hit_share", "share"),
    ("service.coalesced", "count"),
    ("service.batch_merged", "count"),
    ("service.shed", "count"),
    ("service.errors", "count"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.solve_p50_ms", "ms"),
    ("service.parse_us", "us"),
    ("service.render_us", "us"),
    ("service.cache_get_us", "us"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.light_p50_ms", "ms"),
    ("loadgen.heavy_p50_ms", "ms"),
    ("loadgen.heavy_p95_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.completions", "count"),
    ("sim.littles_gap_max", "share"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
];

/// Values measured by one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Set a metric the run must report; `None` (too few samples to form
    /// it) makes the run incorrect.
    pub fn require(&mut self, tally: &mut Tally, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => tally.problem(format!("{name}: could not be measured")),
        }
    }
}

/// Outcome counts and verdict of one run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that make the run's figures unusable even when no single
    /// operation failed (a check that could not run, a generator that fell
    /// behind, a metric that could not be formed).
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed and keeps the first few reasons.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// The result line: every metric of the chosen set, in catalogue order.
/// A metric the run could not form is reported as 0 and makes the run
/// incorrect.
pub fn result_line(tally: &mut Tally, metrics: &Metrics, traced: bool) -> String {
    let set = if traced { PER_LAYER } else { END_TO_END };
    let mut body = String::new();
    for (i, (name, unit)) in set.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                tally.problem(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None if traced => 0.0,
            None => {
                tally.problem(format!("metric {name} was not measured"));
                0.0
            }
        };
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, r#""{name}":{{"value":{value},"unit":"{unit}"}}"#);
    }
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{body}}}}}"#,
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_set() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let mut t = Tally::default();
        t.record(Ok(()));
        let line = result_line(&mut t, &m, false);
        assert!(t.correct(), "{:?}", t.problems);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(r#""{name}":{{"value":1.5,"unit":"{unit}"}}"#)));
        }
        assert!(line.starts_with(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"#));
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut t = Tally::default();
        t.record(Ok(()));
        let line = result_line(&mut t, &Metrics::default(), false);
        assert!(line.starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
