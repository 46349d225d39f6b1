//! Per-class mean populations N_p pinned for every sweep point the
//! benchmark solves, and the comparison that gates each point on them.
//!
//! `reference/n_p.txt` was written by `perfbench --pin-reference` from the
//! solver as it stood when the benchmark was defined. Lines read
//! `<sweep> <point index> <x> <class> <N_p>`; `inf` marks an unstable class.

use std::collections::HashMap;

/// Largest relative difference from the pinned value a point may show.
pub const REL_TOL: f64 = 1e-6;

const PINNED: &str = include_str!("../reference/n_p.txt");

/// Pinned values keyed by `(sweep, point index)`, one entry per class.
pub struct Reference {
    points: HashMap<(String, usize), Vec<f64>>,
}

impl Reference {
    pub fn pinned() -> Self {
        Self::parse(PINNED).expect("the pinned reference parses")
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut points: HashMap<(String, usize), Vec<f64>> = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [sweep, idx, _x, class, n] = f[..] else {
                return Err(format!("malformed reference line: {line}"));
            };
            let idx: usize = idx.parse().map_err(|_| format!("bad index in: {line}"))?;
            let class: usize = class.parse().map_err(|_| format!("bad class in: {line}"))?;
            let n: f64 = n.parse().map_err(|_| format!("bad value in: {line}"))?;
            let v = points.entry((sweep.to_string(), idx)).or_default();
            if v.len() != class {
                return Err(format!("classes out of order at: {line}"));
            }
            v.push(n);
        }
        Ok(Reference { points })
    }

    /// Check one point's per-class N_p; `Err` names the first mismatch.
    pub fn check(&self, sweep: &str, idx: usize, mean_jobs: &[f64]) -> Result<(), String> {
        let want = self
            .points
            .get(&(sweep.to_string(), idx))
            .ok_or_else(|| format!("{sweep}[{idx}]: no pinned reference"))?;
        if want.len() != mean_jobs.len() {
            return Err(format!(
                "{sweep}[{idx}]: {} classes, pinned {}",
                mean_jobs.len(),
                want.len()
            ));
        }
        for (p, (&got, &pinned)) in mean_jobs.iter().zip(want).enumerate() {
            if !matches_pinned(got, pinned) {
                return Err(format!(
                    "{sweep}[{idx}] class {p}: N = {got:e}, pinned {pinned:e}"
                ));
            }
        }
        Ok(())
    }
}

/// `got` equals `pinned` to within [`REL_TOL`], with ∞ matching only ∞.
pub fn matches_pinned(got: f64, pinned: f64) -> bool {
    if pinned.is_infinite() || got.is_infinite() {
        return got == pinned;
    }
    (got - pinned).abs() <= REL_TOL * pinned.abs().max(got.abs())
}

/// One reference line per class of one solved point.
pub fn pin_lines(sweep: &str, idx: usize, x: f64, mean_jobs: &[f64]) -> String {
    mean_jobs
        .iter()
        .enumerate()
        .map(|(p, n)| format!("{sweep} {idx} {x} {p} {n:e}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_rejects_a_perturbed_value() {
        let r = Reference::parse("s 0 1 0 2.5e0\ns 0 1 1 inf\n").unwrap();
        assert!(r.check("s", 0, &[2.5, f64::INFINITY]).is_ok());
        assert!(r
            .check("s", 0, &[2.5 * (1.0 + 5e-7), f64::INFINITY])
            .is_ok());
        assert!(r
            .check("s", 0, &[2.5 * (1.0 + 2e-6), f64::INFINITY])
            .is_err());
        assert!(r.check("s", 0, &[2.5, 1e300]).is_err());
        assert!(r.check("s", 0, &[f64::INFINITY, f64::INFINITY]).is_err());
        assert!(r.check("s", 1, &[2.5, f64::INFINITY]).is_err());
        assert!(r.check("s", 0, &[2.5]).is_err());
    }

    #[test]
    fn pinned_lines_round_trip() {
        let text = pin_lines("fig2", 3, 0.2, &[0.1 + 0.2, f64::INFINITY, 7.0]);
        let r = Reference::parse(&text).unwrap();
        assert_eq!(
            r.points[&("fig2".to_string(), 3)],
            vec![0.1 + 0.2, f64::INFINITY, 7.0]
        );
    }

    #[test]
    fn pinned_reference_covers_every_benchmark_point() {
        let r = Reference::pinned();
        let count = |s: &str| r.points.keys().filter(|(n, _)| n == s).count();
        assert_eq!(
            ["fig2", "fig3", "fig4", "fig5"].map(count),
            [18, 18, 10, 9],
            "paper_sweeps has 55 points"
        );
        assert_eq!(count("p_sweep"), 10);
    }
}
