//! Canonical span names of the solver pipeline and their phase labels.
//!
//! Fixed span names live here as constants, so `gsched profile` labels a
//! phase from the same string the solver opens it with. Spans whose name
//! carries an index (`core.class3`) are built by a helper and labelled by
//! their canonical `*` form (`core.class*`, see
//! [`crate::canonical_span_name`]).

/// One whole gang-model solve: the fixed-point loop (span).
pub const CORE_SOLVE: &str = "core.solve";
/// Vacation composition of one class (span).
pub const CORE_VACATION: &str = "core.vacation";
/// Generator assembly of one class's QBD chain (span).
pub const CORE_GENERATOR: &str = "core.generator";
/// Effective-quantum update between fixed-point passes (span).
pub const CORE_EFFECTIVE: &str = "core.effective";
/// Stationary measures of the converged pass (span).
pub const CORE_MEASURES: &str = "core.measures";
/// One `QbdProcess::solve` call (span).
pub const QBD_SOLVE: &str = "qbd.solve";
/// The §4.4 strong-connectivity check (span).
pub const QBD_IRREDUCIBLE: &str = "qbd.irreducible";
/// Theorem 4.4's drift test (span).
pub const QBD_DRIFT: &str = "qbd.drift";
/// The `R` iteration of eq. (23) (span).
pub const QBD_SOLVE_R: &str = "qbd.solve_r";
/// Power iteration for `sp(R)` (span).
pub const QBD_SPECTRAL_RADIUS: &str = "qbd.spectral_radius";
/// The `(I − R)⁻¹` factorization (span).
pub const QBD_I_MINUS_R_INVERSE: &str = "qbd.i_minus_r_inverse";
/// The boundary system, eqs. (21)/(24) (span).
pub const QBD_BOUNDARY_SOLVE: &str = "qbd.boundary_solve";
/// One level-truncation attempt: build the truncated chain and solve it
/// (span).
pub const QBD_TRUNCATION_ATTEMPT: &str = "qbd.truncation_attempt";

/// Canonical name of the per-class spans (`core.class{p}`).
pub const CORE_CLASS_CANONICAL: &str = "core.class*";

/// Span of class `p`'s solve inside one fixed-point pass.
pub fn core_class(p: usize) -> String {
    format!("core.class{p}")
}

/// Human phase label of every canonical span name above.
pub const LABELS: &[(&str, &str)] = &[
    (CORE_SOLVE, "fixed-point orchestration"),
    (CORE_CLASS_CANONICAL, "class orchestration"),
    (CORE_VACATION, "vacation analysis"),
    (CORE_GENERATOR, "generator build"),
    (CORE_EFFECTIVE, "effective quanta"),
    (CORE_MEASURES, "stationary measures"),
    (QBD_SOLVE, "QBD solve (rest)"),
    (QBD_IRREDUCIBLE, "irreducibility check"),
    (QBD_DRIFT, "drift test"),
    (QBD_SOLVE_R, "R iteration"),
    (QBD_SPECTRAL_RADIUS, "spectral radius sp(R)"),
    (QBD_I_MINUS_R_INVERSE, "(I-R) inverse"),
    (QBD_BOUNDARY_SOLVE, "boundary solve"),
    (QBD_TRUNCATION_ATTEMPT, "truncation attempt (rest)"),
];

/// The phase label of a canonical span name, if it is one of [`LABELS`].
pub fn label(canonical: &str) -> Option<&'static str> {
    LABELS
        .iter()
        .find(|(name, _)| *name == canonical)
        .map(|(_, label)| *label)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every span constant declared in this file has a label — counted from
    /// the source text, so a new span without a label fails here.
    #[test]
    fn every_span_has_a_label() {
        let declared = include_str!("spans.rs")
            .lines()
            .filter(|l| l.starts_with("pub const ") && l.contains(": &str ="))
            .count();
        assert_eq!(declared, LABELS.len());
        let mut seen = std::collections::BTreeSet::new();
        for (name, label) in LABELS {
            assert!(seen.insert(*name), "duplicate span `{name}`");
            assert!(!label.is_empty());
        }
    }

    #[test]
    fn class_spans_canonicalize_to_their_label() {
        let name = crate::canonical_span_name(&core_class(12));
        assert_eq!(name, CORE_CLASS_CANONICAL);
        assert_eq!(label(&name), Some("class orchestration"));
        assert_eq!(label("engine.sweep.chunk*"), None);
    }
}
