//! Colored finite-difference Jacobians (Curtis–Powell–Reid).
//!
//! A dense FD Jacobian costs one RHS evaluation per state variable —
//! prohibitive at the paper's 250 000-equation scale. Chemistry Jacobians
//! are sparse: `∂f_i/∂y_j ≠ 0` only when species `j` appears in
//! equation `i`. Columns that share no row are *structurally orthogonal*
//! and can be perturbed together, so the evaluation count drops from `n`
//! to the number of colors — typically a small constant for reaction
//! networks.

use crate::jacobian::{fd_step, FdWorkspace};
use crate::linalg::Matrix;
use crate::problem::OdeRhs;
use crate::sparse::PlannedPattern;

/// The Jacobian sparsity pattern: `rows[i]` lists the columns (species)
/// with possibly-nonzero entries in row `i`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    rows: Vec<Vec<u32>>,
    n_cols: usize,
}

impl SparsityPattern {
    /// Build from per-row column lists (each sorted ascending).
    pub fn new(rows: Vec<Vec<u32>>, n_cols: usize) -> SparsityPattern {
        debug_assert!(
            rows.iter()
                .all(|r| r.windows(2).all(|w| w[0] < w[1])
                    && r.iter().all(|&c| (c as usize) < n_cols))
        );
        SparsityPattern { rows, n_cols }
    }

    /// Number of rows (equations).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (state variables).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Columns of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.rows[i]
    }

    /// Total number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Greedy distance-2 coloring of the columns: two columns sharing any
    /// row get different colors. Returns `(color_of_column, n_colors)`.
    pub fn color_columns(&self) -> (Vec<u32>, usize) {
        let n = self.n_cols;
        // Column -> rows index for conflict lookup.
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, row) in self.rows.iter().enumerate() {
            for &c in row {
                cols[c as usize].push(i as u32);
            }
        }
        let mut color = vec![u32::MAX; n];
        let mut n_colors = 0usize;
        // Forbidden scratch, reset per column via stamping.
        let mut forbidden: Vec<u64> = vec![u64::MAX; 0];
        let mut stamp: u64 = 0;
        forbidden.resize(n + 1, 0);
        // Order columns by degree (most constrained first) for fewer colors.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(cols[c].len()));
        for &c in &order {
            stamp += 1;
            for &r in &cols[c] {
                for &other in &self.rows[r as usize] {
                    let oc = color[other as usize];
                    if oc != u32::MAX {
                        forbidden[oc as usize] = stamp;
                    }
                }
            }
            let mut pick = 0u32;
            while forbidden[pick as usize] == stamp {
                pick += 1;
            }
            color[c] = pick;
            n_colors = n_colors.max(pick as usize + 1);
        }
        (color, n_colors)
    }
}

/// A sparsity pattern with what the solver derives from it alone: the
/// column coloring colored finite differences perturb by, and the
/// sparse-Newton analysis of `I − γJ` over it. Colored once by whoever
/// owns the pattern, analyzed on first request, and shared with every
/// solve over it
/// ([`JacobianSource::FdColored`](crate::JacobianSource::FdColored)).
#[derive(Debug, Clone)]
pub struct ColoredPattern {
    /// The Jacobian sparsity, and the plan over it once a solve asked.
    pub pattern: PlannedPattern,
    /// Color of each column.
    pub colors: Vec<u32>,
    /// Number of colors (= RHS evaluations per Jacobian).
    pub n_colors: usize,
}

impl ColoredPattern {
    /// Color `pattern`'s columns ([`SparsityPattern::color_columns`]).
    pub fn new(pattern: SparsityPattern) -> ColoredPattern {
        let (colors, n_colors) = pattern.color_columns();
        ColoredPattern {
            pattern: PlannedPattern::new(pattern),
            colors,
            n_colors,
        }
    }
}

/// Colored forward-difference Jacobian: perturb all same-colored columns
/// at once and attribute each row's difference to that row's unique
/// column of the color. Returns the (dense-storage) Jacobian and the
/// number of RHS evaluations used (= number of colors).
pub fn fd_jacobian_colored<R: OdeRhs>(
    rhs: &R,
    t: f64,
    y: &[f64],
    f_at_y: &[f64],
    pattern: &SparsityPattern,
    colors: &[u32],
    n_colors: usize,
) -> (Matrix, usize) {
    let mut jac = Matrix::zeros(pattern.n_rows(), y.len());
    let mut ws = FdWorkspace::new();
    let evals = fd_jacobian_colored_into(
        rhs, t, y, f_at_y, pattern, colors, n_colors, &mut jac, &mut ws,
    );
    (jac, evals)
}

/// [`fd_jacobian_colored`] into caller-owned storage: `jac` is
/// overwritten, `ws` provides the scratch. All `n_colors` perturbed
/// states are built up front and evaluated in a **single**
/// [`OdeRhs::eval_batch`] call, so a batched evaluator (an `ExecTape` in
/// structure-of-arrays mode) runs every color sweep of the Jacobian in
/// one SIMD pass instead of `n_colors` scalar interpreter walks. Returns
/// the number of RHS evaluations (= `n_colors`).
#[allow(clippy::too_many_arguments)] // mirrors fd_jacobian_colored + outputs
pub fn fd_jacobian_colored_into<R: OdeRhs>(
    rhs: &R,
    t: f64,
    y: &[f64],
    f_at_y: &[f64],
    pattern: &SparsityPattern,
    colors: &[u32],
    n_colors: usize,
    jac: &mut Matrix,
    ws: &mut FdWorkspace,
) -> usize {
    let n = y.len();
    let n_rows = pattern.n_rows();
    debug_assert_eq!(pattern.n_cols(), n);
    assert_eq!(jac.rows(), n_rows, "jacobian row count mismatch");
    assert_eq!(jac.cols(), n, "jacobian column count mismatch");
    debug_assert_eq!(
        n_rows,
        rhs.dim(),
        "batched layout needs one RHS output per pattern row"
    );
    // Stack one perturbed copy of `y` per color.
    ws.ys.clear();
    ws.ys.reserve(n_colors * n);
    for _ in 0..n_colors {
        ws.ys.extend_from_slice(y);
    }
    ws.steps.clear();
    ws.steps.resize(n, 0.0);
    for j in 0..n {
        let c = colors[j] as usize;
        let slot = c * n + j;
        let h = fd_step(y[j]);
        ws.ys[slot] = y[j] + h;
        ws.steps[j] = ws.ys[slot] - y[j]; // exact representable step
    }
    ws.fs.clear();
    ws.fs.resize(n_colors * n_rows, 0.0);
    rhs.eval_batch(t, &ws.ys, &mut ws.fs);
    // Each row has at most one perturbed column per color.
    jac.data_mut().fill(0.0);
    for i in 0..n_rows {
        for &jc in pattern.row(i) {
            let j = jc as usize;
            let f_pert = ws.fs[colors[j] as usize * n_rows + i];
            jac[(i, j)] = (f_pert - f_at_y[i]) / ws.steps[j];
        }
    }
    n_colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::fd_jacobian;
    use crate::problem::FnRhs;

    /// Tridiagonal decay chain: y_i' = y_{i-1} - y_i.
    fn chain_pattern(n: usize) -> SparsityPattern {
        let rows = (0..n)
            .map(|i| {
                if i == 0 {
                    vec![0u32]
                } else {
                    vec![i as u32 - 1, i as u32]
                }
            })
            .collect();
        SparsityPattern::new(rows, n)
    }

    #[test]
    fn chain_colors_constant() {
        for n in [2usize, 10, 100, 1000] {
            let p = chain_pattern(n);
            let (colors, n_colors) = p.color_columns();
            assert!(n_colors <= 3, "chain needed {n_colors} colors at n={n}");
            // Validity: no two columns in one row share a color.
            for i in 0..p.n_rows() {
                let row = p.row(i);
                for a in 0..row.len() {
                    for b in (a + 1)..row.len() {
                        assert_ne!(colors[row[a] as usize], colors[row[b] as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_row_forces_n_colors() {
        // One row touching every column: all columns conflict.
        let n = 8;
        let mut rows = vec![(0..n as u32).collect::<Vec<_>>()];
        rows.extend((1..n).map(|i| vec![i as u32]));
        let p = SparsityPattern::new(rows, n);
        let (_, n_colors) = p.color_columns();
        assert_eq!(n_colors, n);
    }

    #[test]
    fn colored_matches_dense_fd() {
        let n = 30;
        let rhs = FnRhs::new(n, move |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -y[0];
            for i in 1..y.len() {
                ydot[i] = y[i - 1] * y[i - 1] - 0.5 * y[i];
            }
        });
        let y: Vec<f64> = (0..n).map(|i| 0.3 + 0.05 * i as f64).collect();
        let mut f = vec![0.0; n];
        rhs.eval(0.0, &y, &mut f);
        let (dense, dense_evals) = fd_jacobian(&rhs, 0.0, &y, &f);
        let pattern = chain_pattern(n);
        let (colors, n_colors) = pattern.color_columns();
        let (colored, evals) = fd_jacobian_colored(&rhs, 0.0, &y, &f, &pattern, &colors, n_colors);
        assert!(evals < dense_evals, "{evals} vs {dense_evals}");
        for i in 0..n {
            for &j in pattern.row(i) {
                let (a, b) = (dense[(i, j as usize)], colored[(i, j as usize)]);
                assert!(
                    (a - b).abs() < 1e-6 * a.abs().max(1.0),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn nnz_and_accessors() {
        let p = chain_pattern(4);
        assert_eq!(p.n_rows(), 4);
        assert_eq!(p.n_cols(), 4);
        assert_eq!(p.nnz(), 1 + 2 + 2 + 2);
        assert_eq!(p.row(2), &[1, 2]);
    }
}
