//! # rms-solver — ODE solvers and dense linear algebra
//!
//! The runtime substrate replacing the IMSL libraries of the paper's §4:
//!
//! * [`bdf`]: Gear-type BDF(1–5) stiff solver with modified Newton — the
//!   `imsl_f_ode_adams_gear` replacement used for chemistry (reactions
//!   reach equilibria in different epochs, so the ODEs are stiff);
//! * [`adams`]: Adams–Bashforth–Moulton PECE (the Adams side of
//!   Adams-Gear) for non-stiff problems;
//! * [`rk45`]: Dormand–Prince 5(4), standing in for IMSL's
//!   Runge–Kutta–Verner 5(6) (`imsl_f_ode_runge_kutta`);
//! * [`linalg`]: dense LU with partial pivoting for the Newton iteration
//!   matrices;
//! * [`jacobian`]: forward-difference dense Jacobians.

#![warn(missing_docs)]
// The numerical kernels index several parallel arrays per loop (stencil
// coefficients against state vectors); explicit indices keep them in the
// shape of the literature they implement.
#![allow(clippy::needless_range_loop)]

pub mod adams;
pub mod bdf;
pub mod coloring;
pub mod jacobian;
pub mod linalg;
pub mod problem;
pub mod rk45;
pub mod sparse;

pub use adams::{solve_adams, Adams};
pub use bdf::{
    solve_bdf, solve_bdf_sensitivities, solve_bdf_with_jacobian, Bdf, JacobianSource, MAX_ORDER,
};
pub use coloring::{
    fd_jacobian_colored, fd_jacobian_colored_into, ColoredPattern, SparsityPattern,
};
pub use jacobian::{fd_jacobian, fd_jacobian_into, fd_step, AnalyticJacobian, FdWorkspace};
pub use linalg::{CsrMatrix, LinalgError, Lu, Matrix};
pub use problem::{
    error_norm, CancelToken, FnRhs, LinearSolver, OdeRhs, SensitivityRhs, SolveStats, SolverError,
    SolverOptions,
};
pub use rk45::{solve_rk45, Rk45};
pub use sparse::{
    is_permutation, iteration_matrix_pattern, orderings_computed_on_this_thread, CscMatrix,
    NewtonPlan, PlannedPattern, SparseLu, SparseNewton, SymbolicLu, SPARSE_COST_PER_MAC,
};
