//! Dense linear-algebra kernels used by the gang-scheduling analytic solver.
//!
//! The matrices that arise in the SPAA 1996 gang-scheduling model (generator
//! blocks of quasi-birth-death processes, phase-type representations) are
//! small and dense — typically a few hundred rows at most — so this crate
//! implements straightforward dense algorithms rather than pulling in an
//! external linear-algebra stack:
//!
//! * [`Matrix`]: row-major dense matrix with the usual arithmetic,
//!   including the product [`Matrix::matmul`].
//! * [`lu::Lu`]: LU decomposition with partial pivoting, linear solves and
//!   inverses.
//! * [`kron`]: Kronecker products and sums (used for min/max of phase-type
//!   distributions and for building composite generators).
//! * [`spectral`]: power iteration for the spectral radius of a nonnegative
//!   matrix (stability checks on the rate matrix `R`).
//! * [`stationary`]: solving `x M = 0`, `x e = 1` systems that arise for
//!   stationary probability vectors and QBD boundary equations.
//! * [`counters`]: process-global work counters (kernel calls and nominal
//!   flops) behind the `gsched_obs::enabled()` guard, feeding the
//!   `gsched profile` GFLOP/s attribution.
//!
//! This is the solver's one kernel set: every QBD and fixed-point solve
//! calls [`Matrix::matmul`], [`Lu`] and [`spectral_radius`] directly, and
//! those kernels record the work counters themselves.
//!
//! All computations are `f64`. The crate's only dependency is the
//! workspace instrumentation layer `gsched-obs`, used solely as the on/off
//! guard for the work counters.

pub mod counters;
pub mod kron;
pub mod lu;
pub mod matrix;
pub mod spectral;
pub mod stationary;
pub mod vecops;

pub use counters::WorkCounters;
pub use kron::{kron_product, kron_sum};
pub use lu::Lu;
pub use matrix::Matrix;
pub use spectral::spectral_radius;
pub use stationary::solve_left_nullspace;

/// Default numerical tolerance used across the crate for convergence tests
/// and singularity detection.
pub const EPS: f64 = 1e-12;

/// Compatibility token left from the removed kernel-backend selection.
///
/// There is one dense kernel set, so this is a unit type: [`instance`]
/// returns it unchanged and [`spectral_radius`] forwards to the crate's
/// free function. It keeps older call sites that still pass a backend
/// compiling, and goes away together with `solve_r_warm`.
///
/// [`instance`]: BackendKind::instance
/// [`spectral_radius`]: BackendKind::spectral_radius
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BackendKind;

impl BackendKind {
    /// The kernel set itself (this token).
    pub fn instance(self) -> BackendKind {
        self
    }

    /// Spectral radius of a nonnegative matrix; see [`spectral_radius`].
    pub fn spectral_radius(self, a: &Matrix, tol: f64, max_iter: usize) -> Result<f64> {
        spectral_radius(a, tol, max_iter)
    }
}

/// Error type for linear-algebra failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be factored.
    Singular,
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which method failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NoConvergence {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
