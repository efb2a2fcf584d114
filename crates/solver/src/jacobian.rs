//! Jacobians for the implicit solvers: finite differences, and the
//! interface through which compiler-emitted analytic Jacobians plug in.

use std::sync::Arc;

use crate::coloring::SparsityPattern;
use crate::linalg::Matrix;
use crate::problem::OdeRhs;
use crate::sparse::NewtonPlan;

/// Forward-difference perturbation step for state value `y_j`.
///
/// The floor applies to the *step*, not the magnitude: `(√ε·|y|).max(√ε)`.
/// The old form `√ε · |y|.max(1e-8)` collapses to ~1.5e-16 when `y_j = 0`
/// — below one ulp of the other state values, so the perturbed RHS is
/// bitwise unchanged (or pure rounding noise) and the Jacobian column
/// comes out O(1) wrong. Zero concentrations are ubiquitous at t = 0 in
/// chemistry runs, which made every initial Jacobian noise-dominated.
pub fn fd_step(y_j: f64) -> f64 {
    let sqrt_eps = f64::EPSILON.sqrt();
    (sqrt_eps * y_j.abs()).max(sqrt_eps)
}

/// An exact Jacobian provider — typically a compiler-emitted analytic
/// tape pair (`rms-core`'s `JacobianTapes`), kept abstract here so the
/// solver crate stays independent of the compiler IR.
pub trait AnalyticJacobian {
    /// The exact structural sparsity of the Jacobian.
    fn pattern(&self) -> &SparsityPattern;

    /// Evaluate the structural nonzeros at `(t, y)` into `vals`, in
    /// row-major order matching [`pattern`](AnalyticJacobian::pattern)
    /// (`vals.len()` equals the pattern's nnz).
    fn eval_values(&self, t: f64, y: &[f64], vals: &mut [f64]);

    /// The sparse-Newton analysis of [`pattern`](AnalyticJacobian::pattern),
    /// when the provider's owner keeps one to share between solves. Asked
    /// for once per solve unless the linear solver is
    /// [`Dense`](crate::LinearSolver::Dense) — `Auto` decides from it;
    /// with `None` (the default) the solver analyzes the pattern itself,
    /// once per solve.
    fn plan(&self) -> Option<Arc<NewtonPlan>> {
        None
    }
}

/// Reusable scratch for the finite-difference Jacobians: stacked
/// perturbed states, their stacked RHS values, and the per-column steps.
/// Holding one of these across Newton iterations makes repeated Jacobian
/// refreshes allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FdWorkspace {
    /// Perturbed states, row-major (one state per column sweep).
    pub(crate) ys: Vec<f64>,
    /// RHS values for `ys`, same layout.
    pub(crate) fs: Vec<f64>,
    /// Actual (exactly representable) perturbation step per column.
    pub(crate) steps: Vec<f64>,
}

impl FdWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> FdWorkspace {
        FdWorkspace::default()
    }
}

/// Dense forward-difference Jacobian `J[i][j] = df_i/dy_j` at `(t, y)`.
/// `f_at_y` is the already-computed `f(t, y)` (saves one evaluation);
/// returns the Jacobian and the number of RHS evaluations used.
pub fn fd_jacobian<R: OdeRhs>(rhs: &R, t: f64, y: &[f64], f_at_y: &[f64]) -> (Matrix, usize) {
    let n = y.len();
    let mut jac = Matrix::zeros(n, n);
    let mut ws = FdWorkspace::new();
    let evals = fd_jacobian_into(rhs, t, y, f_at_y, &mut jac, &mut ws);
    (jac, evals)
}

/// [`fd_jacobian`] into caller-owned storage: `jac` (an `n × n` matrix)
/// is overwritten, `ws` provides the scratch. All `n` perturbed states
/// are evaluated in one [`OdeRhs::eval_batch`] call. Returns the number
/// of RHS evaluations.
pub fn fd_jacobian_into<R: OdeRhs>(
    rhs: &R,
    t: f64,
    y: &[f64],
    f_at_y: &[f64],
    jac: &mut Matrix,
    ws: &mut FdWorkspace,
) -> usize {
    let n = y.len();
    assert_eq!(jac.rows(), n, "jacobian row count mismatch");
    assert_eq!(jac.cols(), n, "jacobian column count mismatch");
    ws.ys.clear();
    ws.ys.reserve(n * n);
    ws.steps.clear();
    ws.steps.resize(n, 0.0);
    for j in 0..n {
        let start = ws.ys.len();
        ws.ys.extend_from_slice(y);
        let h = fd_step(y[j]);
        ws.ys[start + j] = y[j] + h;
        ws.steps[j] = ws.ys[start + j] - y[j]; // exact representable step
    }
    ws.fs.clear();
    ws.fs.resize(n * n, 0.0);
    rhs.eval_batch(t, &ws.ys, &mut ws.fs);
    for j in 0..n {
        let f_pert = &ws.fs[j * n..(j + 1) * n];
        for i in 0..n {
            jac[(i, j)] = (f_pert[i] - f_at_y[i]) / ws.steps[j];
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnRhs;

    #[test]
    fn linear_system_exact() {
        // f = A y with A = [[-2, 1], [0.5, -3]]: J == A everywhere.
        let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -2.0 * y[0] + y[1];
            ydot[1] = 0.5 * y[0] - 3.0 * y[1];
        });
        let y = [1.3, -0.7];
        let mut f = vec![0.0; 2];
        rhs.eval(0.0, &y, &mut f);
        let (jac, fevals) = fd_jacobian(&rhs, 0.0, &y, &f);
        assert_eq!(fevals, 2);
        assert!((jac[(0, 0)] + 2.0).abs() < 1e-6);
        assert!((jac[(0, 1)] - 1.0).abs() < 1e-6);
        assert!((jac[(1, 0)] - 0.5).abs() < 1e-6);
        assert!((jac[(1, 1)] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn quadratic_mass_action() {
        // f0 = -k*y0*y1 : df0/dy0 = -k*y1, df0/dy1 = -k*y0
        let k = 2.5;
        let rhs = FnRhs::new(2, move |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -k * y[0] * y[1];
            ydot[1] = k * y[0] * y[1];
        });
        let y = [0.8, 0.4];
        let mut f = vec![0.0; 2];
        rhs.eval(0.0, &y, &mut f);
        let (jac, _) = fd_jacobian(&rhs, 0.0, &y, &f);
        assert!((jac[(0, 0)] + k * y[1]).abs() < 1e-5);
        assert!((jac[(0, 1)] + k * y[0]).abs() < 1e-5);
        assert!((jac[(1, 0)] - k * y[1]).abs() < 1e-5);
    }

    #[test]
    fn handles_zero_state() {
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -y[0];
        });
        let y = [0.0];
        let mut f = vec![0.0; 1];
        rhs.eval(0.0, &y, &mut f);
        let (jac, _) = fd_jacobian(&rhs, 0.0, &y, &f);
        assert!((jac[(0, 0)] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn step_floor_applies_to_step_not_magnitude() {
        let sqrt_eps = f64::EPSILON.sqrt();
        assert_eq!(fd_step(0.0), sqrt_eps);
        assert_eq!(fd_step(1e-12), sqrt_eps); // tiny values still get a usable step
        assert_eq!(fd_step(2.0), 2.0 * sqrt_eps);
        assert_eq!(fd_step(-2.0), 2.0 * sqrt_eps);
    }

    /// Regression for the underflow bug: with `h = √ε·|y|.max(1e-8)`, a
    /// zero-concentration column gets h ≈ 1.5e-16 — below one ulp of the
    /// O(1) state entries, so `y + h == y` there and the difference
    /// quotient is O(1) wrong. The fixed step recovers O(√ε) accuracy.
    #[test]
    fn zero_concentration_column_regression() {
        // f0 = y0 + y1 at y = [0.77, 0.0]: ∂f0/∂y1 = 1 exactly.
        let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = y[0] + y[1];
            ydot[1] = -y[1];
        });
        let y = [0.77, 0.0];
        let mut f = vec![0.0; 2];
        rhs.eval(0.0, &y, &mut f);

        // The buggy step, reproduced inline: h ≈ 1.49e-16 is near one ulp
        // of y0 = 0.77, so y0 + y1 moves by whatever rounding decides —
        // the difference quotient is dominated by that noise.
        let sqrt_eps = f64::EPSILON.sqrt();
        let h_old = sqrt_eps * y[1].abs().max(1e-8);
        let mut y_pert = y.to_vec();
        y_pert[1] += h_old;
        let mut f_pert = vec![0.0; 2];
        rhs.eval(0.0, &y_pert, &mut f_pert);
        let entry_old = (f_pert[0] - f[0]) / h_old;
        let err_old = (entry_old - 1.0).abs();
        assert!(err_old > 0.1, "old step: error {err_old} should be O(1)");

        // The fixed path.
        let (jac, _) = fd_jacobian(&rhs, 0.0, &y, &f);
        let err_new = (jac[(0, 1)] - 1.0).abs();
        assert!(
            err_new <= 10.0 * sqrt_eps,
            "new step: error {err_new} should be O(√ε)"
        );
    }
}
