//! Sparse direct LU for the Newton iteration matrix.
//!
//! The compiler knows the exact sparsity of the analytic Jacobian, and
//! the BDF iteration matrix `I − hβJ` inherits it (plus a guaranteed
//! diagonal). At the paper's scale — networks of ~10 000 ODEs with a few
//! entries per row — dense LU is O(n³) time and O(n²) memory per Newton
//! refactorization, while the factors of a fill-reduced sparse LU stay
//! within a small multiple of nnz(J). This module supplies that path:
//!
//! * [`CscMatrix`]: compressed-sparse-column storage with a fixed
//!   structure and mutable values (column access is what left-looking LU
//!   and triangular solves consume);
//! * a Markowitz/Tinney-style minimum-degree ordering on the symmetrized
//!   pattern, chosen once from the static sparsity;
//! * [`SymbolicLu`]: the symbolic half of the factorization — permutation
//!   plus the fill patterns of L and U — computed **once** per sparsity
//!   and reused across every numeric refactorization as `h` and `β`
//!   change during integration, and across solves;
//! * [`SparseLu`]: the numeric half — a left-looking refactorization over
//!   the fixed pattern and column-oriented triangular solves, both
//!   allocation-free after construction;
//! * [`NewtonPlan`]: everything about `I − scale·J` that depends on the
//!   Jacobian's sparsity alone (assembly structure + [`SymbolicLu`]),
//!   analyzed once per compiled model and shared by every solve over it;
//! * [`PlannedPattern`]: a pattern with its plan, built on first request;
//! * [`SparseNewton`]: the solver-facing bundle, one solve's value arrays
//!   over a plan, that assembles `I − scale·J` directly into CSC slots
//!   from either a CSR Jacobian (analytic tapes) or a dense store
//!   (colored finite differences).
//!
//! Pivoting is *structural*: elimination proceeds along the diagonal of
//! the symmetrically permuted matrix `PAPᵀ`. The iteration matrix always
//! has a full structural diagonal and equals `I` in the small-`hβ` limit,
//! so diagonal pivots are the stable choice in the regime the solver
//! operates in; an exactly zero (or non-finite) pivot is reported as
//! [`LinalgError::Singular`] just like the dense path.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use crate::coloring::SparsityPattern;
use crate::linalg::{CsrMatrix, LinalgError, Matrix};

/// Where a [`CscMatrix`]'s entries sit. Shared, so that every matrix
/// over one sparsity (each solver's assembly buffer under a
/// [`NewtonPlan`]) owns nothing but its values.
#[derive(Debug, PartialEq)]
struct CscStructure {
    n_rows: usize,
    n_cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column j's entries.
    col_ptr: Vec<usize>,
    /// Row of each entry, ascending within a column.
    row_idx: Vec<u32>,
}

/// Compressed-sparse-column matrix with a fixed structure and mutable
/// values — the assembly target for the sparse iteration matrix and the
/// input format of [`SparseLu::refactor`].
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    structure: Arc<CscStructure>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Build the structure from per-column row lists (rows ascending);
    /// all values start at zero.
    pub fn from_columns<'a, I>(cols: I, n_rows: usize) -> Result<CscMatrix, LinalgError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for col in cols {
            if !col.windows(2).all(|w| w[0] < w[1]) {
                return Err(LinalgError::MalformedPattern);
            }
            row_idx.extend_from_slice(col);
            col_ptr.push(row_idx.len());
        }
        if row_idx.iter().any(|&r| (r as usize) >= n_rows) {
            return Err(LinalgError::MalformedPattern);
        }
        Ok(CscMatrix::zeros(Arc::new(CscStructure {
            n_rows,
            n_cols: col_ptr.len() - 1,
            col_ptr,
            row_idx,
        })))
    }

    /// All-zero values over a shared structure.
    fn zeros(structure: Arc<CscStructure>) -> CscMatrix {
        let vals = vec![0.0; structure.row_idx.len()];
        CscMatrix { structure, vals }
    }

    /// Build from a row-oriented [`SparsityPattern`] (values zero).
    pub fn from_pattern(pattern: &SparsityPattern) -> CscMatrix {
        let n_rows = pattern.n_rows();
        let n_cols = pattern.n_cols();
        let mut counts = vec![0usize; n_cols];
        for i in 0..n_rows {
            for &j in pattern.row(i) {
                counts[j as usize] += 1;
            }
        }
        let mut col_ptr = vec![0usize; n_cols + 1];
        for j in 0..n_cols {
            col_ptr[j + 1] = col_ptr[j] + counts[j];
        }
        let nnz = col_ptr[n_cols];
        let mut row_idx = vec![0u32; nnz];
        let mut next = col_ptr.clone();
        // Row-major traversal writes each column's rows in ascending order.
        for i in 0..n_rows {
            for &j in pattern.row(i) {
                row_idx[next[j as usize]] = i as u32;
                next[j as usize] += 1;
            }
        }
        CscMatrix::zeros(Arc::new(CscStructure {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
        }))
    }

    /// Capture the nonzeros of a dense matrix (tests and adapters).
    pub fn from_dense(m: &Matrix) -> CscMatrix {
        let (r, c) = (m.rows(), m.cols());
        let mut col_ptr = vec![0usize; c + 1];
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        for j in 0..c {
            for i in 0..r {
                let v = m[(i, j)];
                if v != 0.0 {
                    row_idx.push(i as u32);
                    vals.push(v);
                }
            }
            col_ptr[j + 1] = row_idx.len();
        }
        let structure = Arc::new(CscStructure {
            n_rows: r,
            n_cols: c,
            col_ptr,
            row_idx,
        });
        CscMatrix { structure, vals }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.structure.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.structure.n_cols
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Values in column-major entry order.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values, for in-place refresh.
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Rows and values of column `j`.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let s = &self.structure;
        let span = s.col_ptr[j]..s.col_ptr[j + 1];
        (&s.row_idx[span.clone()], &self.vals[span])
    }

    /// Value-slot index of entry `(i, j)`, if structurally present.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let s = &self.structure;
        let span = s.col_ptr[j]..s.col_ptr[j + 1];
        s.row_idx[span.clone()]
            .binary_search(&(i as u32))
            .ok()
            .map(|k| span.start + k)
    }

    /// The row-oriented sparsity of this matrix's structure.
    pub fn pattern(&self) -> SparsityPattern {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.n_rows()];
        for j in 0..self.n_cols() {
            for &i in self.col(j).0 {
                rows[i as usize].push(j as u32);
            }
        }
        // Column-major traversal appends each row's columns in ascending
        // order already.
        SparsityPattern::new(rows, self.n_cols())
    }

    /// Densify (tests and fallbacks).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows(), self.n_cols());
        for j in 0..self.n_cols() {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                m[(i as usize, j)] = v;
            }
        }
        m
    }
}

/// Pattern of the iteration matrix `I − scale·J`: the Jacobian pattern
/// with a guaranteed diagonal.
pub fn iteration_matrix_pattern(jac: &SparsityPattern) -> SparsityPattern {
    let n = jac.n_rows();
    let rows = (0..n)
        .map(|i| {
            let mut r = jac.row(i).to_vec();
            if let Err(pos) = r.binary_search(&(i as u32)) {
                r.insert(pos, i as u32);
            }
            r
        })
        .collect();
    SparsityPattern::new(rows, jac.n_cols())
}

thread_local! {
    /// Minimum-degree orderings computed on this thread.
    static ORDERINGS: Cell<usize> = const { Cell::new(0) };
}

/// How many minimum-degree orderings the calling thread has computed so
/// far. For tests that assert a path runs none (a plan rebuilt from a
/// stored order); per thread, so concurrent tests do not disturb it.
#[doc(hidden)]
pub fn orderings_computed_on_this_thread() -> usize {
    ORDERINGS.with(Cell::get)
}

/// Whether `order` lists every index of `0..n` exactly once — what
/// [`SymbolicLu::with_order`] accepts as an elimination order.
pub fn is_permutation(order: &[u32], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order.iter().all(|&v| {
            seen.get_mut(v as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        })
}

/// Minimum-degree ordering (Markowitz criterion specialized to the
/// symmetrized pattern, Tinney scheme 2): repeatedly eliminate the
/// vertex of least degree in the elimination graph of `A + Aᵀ`, turning
/// its neighborhood into a clique. Ties break on the lower index, so the
/// ordering is deterministic.
fn minimum_degree(pattern: &SparsityPattern) -> Vec<u32> {
    ORDERINGS.with(|c| c.set(c.get() + 1));
    let n = pattern.n_rows();
    debug_assert_eq!(n, pattern.n_cols());
    // Symmetrized adjacency, no self-loops.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for &j in pattern.row(i) {
            let j = j as usize;
            if i != j {
                adj[i].push(j as u32);
                adj[j].push(i as u32);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    // Lazy heap: stale (degree, vertex) entries are skipped when popped.
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = adj
        .iter()
        .enumerate()
        .map(|(v, list)| Reverse((list.len() as u32, v as u32)))
        .collect();
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut mark = vec![0u64; n];
    let mut stamp = 0u64;
    let mut nbrs: Vec<u32> = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        let v = v as usize;
        if !alive[v] || adj[v].len() as u32 != deg {
            continue;
        }
        alive[v] = false;
        order.push(v as u32);
        nbrs.clear();
        nbrs.extend(adj[v].iter().copied().filter(|&u| alive[u as usize]));
        // Eliminating v joins its surviving neighbors into a clique.
        let old = std::mem::take(&mut adj[v]);
        for &u in &nbrs {
            let u = u as usize;
            stamp += 1;
            mark[u] = stamp; // excludes u itself from its own list
            let mut merged = Vec::with_capacity(adj[u].len() + nbrs.len());
            for &w in adj[u].iter().chain(nbrs.iter()) {
                let wi = w as usize;
                if alive[wi] && mark[wi] != stamp {
                    mark[wi] = stamp;
                    merged.push(w);
                }
            }
            adj[u] = merged;
            heap.push(Reverse((adj[u].len() as u32, u as u32)));
        }
        drop(old);
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// The symbolic half of a sparse LU: the fill-reducing permutation and
/// the complete fill patterns of `L` (strictly lower, unit diagonal
/// implied) and `U` (upper, diagonal stored last per column), both in
/// CSC over the *permuted* index space. Computed once per sparsity and
/// shared (via `Arc`) by every numeric factorization of matrices with
/// that sparsity.
#[derive(Debug)]
pub struct SymbolicLu {
    n: usize,
    /// `perm[k]` = original index eliminated at step k.
    perm: Vec<u32>,
    /// Inverse: `perm_inv[original] = k`.
    perm_inv: Vec<u32>,
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    /// [`factor_macs`](SymbolicLu::factor_macs), counted once here.
    factor_macs: u64,
}

impl SymbolicLu {
    /// Analyze a square sparsity pattern: choose the minimum-degree
    /// ordering and compute the fill patterns of L and U by left-looking
    /// reachability. A structural diagonal is assumed present (it always
    /// is for iteration matrices; [`iteration_matrix_pattern`] adds it);
    /// missing diagonals are filled in structurally and simply factor to
    /// zero pivots at numeric time.
    pub fn analyze(pattern: &SparsityPattern) -> Result<SymbolicLu, LinalgError> {
        if pattern.n_rows() != pattern.n_cols() {
            return Err(LinalgError::DimensionMismatch);
        }
        SymbolicLu::with_order(pattern, minimum_degree(pattern))
    }

    /// [`analyze`](SymbolicLu::analyze) under an elimination order chosen
    /// earlier (the [`order`](SymbolicLu::order) of a previous analysis of
    /// this pattern, typically read back from a cache): the fill patterns
    /// alone, no ordering pass. Any permutation of `0..n` is a valid order
    /// — a poor one only costs fill — and anything else is refused.
    pub fn with_order(
        pattern: &SparsityPattern,
        perm: Vec<u32>,
    ) -> Result<SymbolicLu, LinalgError> {
        let n = pattern.n_rows();
        if n != pattern.n_cols() {
            return Err(LinalgError::DimensionMismatch);
        }
        if !is_permutation(&perm, n) {
            return Err(LinalgError::MalformedPattern);
        }
        let mut perm_inv = vec![0u32; n];
        for (k, &p) in perm.iter().enumerate() {
            perm_inv[p as usize] = k as u32;
        }
        // Columns of B = PAPᵀ, each with a structural diagonal.
        let mut bcols: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            let ip = perm_inv[i];
            for &j in pattern.row(i) {
                bcols[perm_inv[j as usize] as usize].push(ip);
            }
        }
        for (jp, col) in bcols.iter_mut().enumerate() {
            col.push(jp as u32);
            col.sort_unstable();
            col.dedup();
        }
        // Left-looking symbolic: the pattern of column j of the factors is
        // the pattern of B(:,j) plus, for every upper entry k reached, the
        // strictly-lower pattern of L(:,k). Rows reached above the
        // diagonal feed back into the worklist; rows below join L.
        let mut l_ptr = vec![0usize];
        let mut l_idx: Vec<u32> = Vec::new();
        let mut u_ptr = vec![0usize];
        let mut u_idx: Vec<u32> = Vec::new();
        let mut in_col = vec![false; n];
        let mut uppers: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut lowers: Vec<u32> = Vec::new();
        for jp in 0..n {
            for &ip in &bcols[jp] {
                in_col[ip as usize] = true;
                if (ip as usize) < jp {
                    uppers.push(Reverse(ip));
                } else {
                    lowers.push(ip);
                }
            }
            // Popped ascending: any row unioned in from L(:,k) is > k, so
            // the heap yields U's rows in order.
            while let Some(Reverse(k)) = uppers.pop() {
                u_idx.push(k);
                let span = l_ptr[k as usize]..l_ptr[k as usize + 1];
                for idx in span {
                    let r = l_idx[idx];
                    if !in_col[r as usize] {
                        in_col[r as usize] = true;
                        if (r as usize) < jp {
                            uppers.push(Reverse(r));
                        } else {
                            lowers.push(r);
                        }
                    }
                }
            }
            u_idx.push(jp as u32); // diagonal, stored last
            u_ptr.push(u_idx.len());
            lowers.sort_unstable();
            for &r in &lowers {
                in_col[r as usize] = false;
                if r as usize > jp {
                    l_idx.push(r);
                }
            }
            l_ptr.push(l_idx.len());
            // `uppers` left `in_col` marks on U rows; clear them.
            let uspan = u_ptr[jp]..u_ptr[jp + 1];
            for idx in uspan {
                in_col[u_idx[idx] as usize] = false;
            }
            lowers.clear();
        }
        // One left-looking refactorization over this fill: column j takes
        // an axpy over L(:,k) for every strictly-upper entry k of U(:,j)
        // (the diagonal is stored last), then divides L(:,j) by the pivot.
        let l_len = |k: usize| (l_ptr[k + 1] - l_ptr[k]) as u64;
        let factor_macs = (0..n)
            .map(|j| {
                let uppers = &u_idx[u_ptr[j]..u_ptr[j + 1] - 1];
                uppers.iter().map(|&k| l_len(k as usize)).sum::<u64>() + l_len(j)
            })
            .sum();
        Ok(SymbolicLu {
            n,
            perm,
            perm_inv,
            l_ptr,
            l_idx,
            u_ptr,
            u_idx,
            factor_macs,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The elimination order: entry `k` is the original index pivoted on
    /// at step `k`.
    pub fn order(&self) -> &[u32] {
        &self.perm
    }

    /// Structural nonzeros of `L + U` (fill-in included; the unit
    /// diagonal of L is not stored and not counted).
    pub fn fill_nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len()
    }

    /// Multiply-adds of one numeric refactorization over this structure:
    /// `Σ_j (Σ_{k ∈ U(:,j), k < j} |L(:,k)| + |L(:,j)|)`, the pivot
    /// divisions counted as one each. `≈ n³/3` when the fill is complete.
    pub fn factor_macs(&self) -> u64 {
        self.factor_macs
    }
}

/// The numeric half of a sparse LU: values of L and U over a shared
/// [`SymbolicLu`] structure, refreshed in place by
/// [`refactor`](SparseLu::refactor) and consumed by column-oriented
/// triangular [`solve_in_place`](SparseLu::solve_in_place). Both are
/// allocation-free after construction.
#[derive(Debug)]
pub struct SparseLu {
    symbolic: Arc<SymbolicLu>,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    /// Dense scatter column; zero outside `refactor`.
    work: Vec<f64>,
    /// Permuted right-hand side for `solve_in_place(&self, ..)`.
    solve_scratch: RefCell<Vec<f64>>,
}

impl SparseLu {
    /// Allocate numeric storage over a symbolic structure.
    pub fn new(symbolic: Arc<SymbolicLu>) -> SparseLu {
        let (lnz, unz, n) = (symbolic.l_idx.len(), symbolic.u_idx.len(), symbolic.n);
        SparseLu {
            symbolic,
            l_vals: vec![0.0; lnz],
            u_vals: vec![0.0; unz],
            work: vec![0.0; n],
            solve_scratch: RefCell::new(vec![0.0; n]),
        }
    }

    /// The shared symbolic structure.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.symbolic
    }

    /// Numerically refactor `a`, whose sparsity must be contained in the
    /// analyzed pattern (entries outside it would corrupt the scatter
    /// column; debug builds assert containment). Left-looking: for each
    /// column of `PAPᵀ`, scatter it dense, subtract the contributions of
    /// the already-computed L columns its upper entries reach, then
    /// divide out the diagonal pivot.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), LinalgError> {
        let s = &self.symbolic;
        let n = s.n;
        if a.n_rows() != n || a.n_cols() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let work = &mut self.work;
        for jp in 0..n {
            let (rows, vals) = a.col(s.perm[jp] as usize);
            for (&i, &v) in rows.iter().zip(vals) {
                let ip = s.perm_inv[i as usize] as usize;
                debug_assert!(
                    in_factor_column(s, jp, ip),
                    "entry ({ip}, {jp}) outside the analyzed pattern"
                );
                work[ip] = v;
            }
            let uspan = s.u_ptr[jp]..s.u_ptr[jp + 1];
            for idx in uspan.start..uspan.end - 1 {
                let k = s.u_idx[idx] as usize;
                let ukj = work[k];
                self.u_vals[idx] = ukj;
                if ukj != 0.0 {
                    for li in s.l_ptr[k]..s.l_ptr[k + 1] {
                        work[s.l_idx[li] as usize] -= ukj * self.l_vals[li];
                    }
                }
            }
            let diag = work[jp];
            self.u_vals[uspan.end - 1] = diag;
            for idx in uspan {
                work[s.u_idx[idx] as usize] = 0.0;
            }
            let lspan = s.l_ptr[jp]..s.l_ptr[jp + 1];
            if diag == 0.0 || !diag.is_finite() {
                // Leave `work` clean before reporting the singular pivot.
                for li in lspan {
                    work[s.l_idx[li] as usize] = 0.0;
                }
                return Err(LinalgError::Singular(s.perm[jp] as usize));
            }
            for li in lspan {
                let r = s.l_idx[li] as usize;
                self.l_vals[li] = work[r] / diag;
                work[r] = 0.0;
            }
        }
        Ok(())
    }

    /// Solve `A x = b` using the last successful [`refactor`], overwriting
    /// `b` with the solution.
    ///
    /// [`refactor`]: SparseLu::refactor
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let s = &self.symbolic;
        let n = s.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut x = self.solve_scratch.borrow_mut();
        debug_assert_eq!(x.len(), n);
        for k in 0..n {
            x[k] = b[s.perm[k] as usize];
        }
        // Forward: L z = Pb, columns of unit-lower L.
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                for li in s.l_ptr[j]..s.l_ptr[j + 1] {
                    x[s.l_idx[li] as usize] -= xj * self.l_vals[li];
                }
            }
        }
        // Backward: U w = z, columns of U with the diagonal stored last.
        for j in (0..n).rev() {
            let uspan = s.u_ptr[j]..s.u_ptr[j + 1];
            let xj = x[j] / self.u_vals[uspan.end - 1];
            x[j] = xj;
            if xj != 0.0 {
                for idx in uspan.start..uspan.end - 1 {
                    x[s.u_idx[idx] as usize] -= xj * self.u_vals[idx];
                }
            }
        }
        // Un-permute: x_original[perm[k]] = w[k].
        for k in 0..n {
            b[s.perm[k] as usize] = x[k];
        }
        Ok(())
    }

    /// Solve `A X = B` for `ncols` right-hand sides at once, overwriting
    /// `bs` with the solutions. `bs` is row-major `n × ncols` (row `i`
    /// occupies `bs[i*ncols..(i+1)*ncols]`), so each factor entry is
    /// loaded once and applied to every column over contiguous memory —
    /// much cheaper than `ncols` separate single-vector solves.
    pub fn solve_multi_in_place(&self, bs: &mut [f64], ncols: usize) -> Result<(), LinalgError> {
        let s = &self.symbolic;
        let n = s.n;
        if ncols == 0 || bs.len() != n * ncols {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut scratch = self.solve_scratch.borrow_mut();
        scratch.resize(n * ncols, 0.0);
        let x = &mut scratch[..n * ncols];
        for k in 0..n {
            let src = s.perm[k] as usize;
            x[k * ncols..(k + 1) * ncols].copy_from_slice(&bs[src * ncols..(src + 1) * ncols]);
        }
        // Forward: L Z = PB, columns of unit-lower L.
        for j in 0..n {
            for li in s.l_ptr[j]..s.l_ptr[j + 1] {
                let l = self.l_vals[li];
                let r = s.l_idx[li] as usize;
                let (head, tail) = x.split_at_mut(r * ncols);
                let row_j = &head[j * ncols..(j + 1) * ncols];
                let row_r = &mut tail[..ncols];
                for c in 0..ncols {
                    row_r[c] -= l * row_j[c];
                }
            }
        }
        // Backward: U W = Z, columns of U with the diagonal stored last.
        for j in (0..n).rev() {
            let uspan = s.u_ptr[j]..s.u_ptr[j + 1];
            let d = self.u_vals[uspan.end - 1];
            for c in 0..ncols {
                x[j * ncols + c] /= d;
            }
            for idx in uspan.start..uspan.end - 1 {
                let u = self.u_vals[idx];
                let r = s.u_idx[idx] as usize;
                let (head, tail) = x.split_at_mut(j * ncols);
                let row_r = &mut head[r * ncols..(r + 1) * ncols];
                let row_j = &tail[..ncols];
                for c in 0..ncols {
                    row_r[c] -= u * row_j[c];
                }
            }
        }
        // Un-permute and restore the scratch invariant (zero, length n)
        // for the single-vector path.
        for k in 0..n {
            bs[s.perm[k] as usize * ncols..][..ncols]
                .copy_from_slice(&x[k * ncols..(k + 1) * ncols]);
        }
        scratch.clear();
        scratch.resize(n, 0.0);
        Ok(())
    }
}

/// Debug-only membership test: is permuted row `ip` structurally present
/// in factor column `jp`?
#[cfg(debug_assertions)]
fn in_factor_column(s: &SymbolicLu, jp: usize, ip: usize) -> bool {
    if ip >= jp {
        ip == jp
            || s.l_idx[s.l_ptr[jp]..s.l_ptr[jp + 1]]
                .binary_search(&(ip as u32))
                .is_ok()
    } else {
        s.u_idx[s.u_ptr[jp]..s.u_ptr[jp + 1] - 1]
            .binary_search(&(ip as u32))
            .is_ok()
    }
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn in_factor_column(_s: &SymbolicLu, _jp: usize, _ip: usize) -> bool {
    true
}

/// Per-multiply-add cost of [`SparseLu::refactor`] relative to the dense
/// [`Lu::factor`](crate::linalg::Lu::factor): the sparse kernel scatters
/// through index arrays where the dense one streams rows. Measured, not
/// derived: `cargo test --release -p rms-solver -- --ignored calibrate
/// --nocapture` prints ns/MAC of both kernels on the repository's models
/// and their ratio (EXPERIMENTS.md, "PR 20", has the recorded run). The
/// one constant behind [`NewtonPlan::prefers_sparse`].
pub const SPARSE_COST_PER_MAC: f64 = 3.8;

/// Everything about factoring `I − γJ` that depends only on the
/// Jacobian's sparsity: the iteration matrix's CSC structure, the scatter
/// maps into it, the CSR structure of the Jacobian store and the symbolic
/// factorization (ordering + fill). Immutable; whoever owns the pattern
/// analyzes once and shares the plan with every solve over it, so a plan
/// always belongs to the pattern it is used with and needs no validation.
#[derive(Debug)]
pub struct NewtonPlan {
    /// Structure of `I − γJ`: the Jacobian pattern ∪ the diagonal.
    iter: Arc<CscStructure>,
    /// CSC value slot of each Jacobian entry, in row-major entry order
    /// (the order CSR values and pattern traversal produce).
    jac_slots: Vec<u32>,
    /// CSC value slot of each diagonal entry.
    diag_slots: Vec<u32>,
    /// The Jacobian store over the analyzed pattern, values zero.
    jac: CsrMatrix,
    symbolic: Arc<SymbolicLu>,
}

impl NewtonPlan {
    /// Analyze a (square) Jacobian sparsity: minimum-degree ordering and
    /// symbolic fill of `I − γJ`, plus the assembly structure around it.
    pub fn analyze(jac_pattern: &SparsityPattern) -> Result<NewtonPlan, LinalgError> {
        NewtonPlan::build(jac_pattern, SymbolicLu::analyze)
    }

    /// The plan [`analyze`](NewtonPlan::analyze) builds, under the
    /// [`order`](NewtonPlan::order) an earlier analysis of this pattern
    /// chose: symbolic fill and assembly structure, no ordering pass.
    /// Refuses an `order` that is not a permutation of `0..n`.
    pub fn with_order(
        jac_pattern: &SparsityPattern,
        order: &[u32],
    ) -> Result<NewtonPlan, LinalgError> {
        NewtonPlan::build(jac_pattern, |iter| {
            SymbolicLu::with_order(iter, order.to_vec())
        })
    }

    fn build(
        jac_pattern: &SparsityPattern,
        symbolic: impl FnOnce(&SparsityPattern) -> Result<SymbolicLu, LinalgError>,
    ) -> Result<NewtonPlan, LinalgError> {
        let n = jac_pattern.n_rows();
        if n != jac_pattern.n_cols() {
            return Err(LinalgError::DimensionMismatch);
        }
        let iter_pattern = iteration_matrix_pattern(jac_pattern);
        let symbolic = Arc::new(symbolic(&iter_pattern)?);
        let iter = CscMatrix::from_pattern(&iter_pattern);
        let mut jac_slots = Vec::with_capacity(jac_pattern.nnz());
        for i in 0..n {
            for &j in jac_pattern.row(i) {
                let slot = iter
                    .slot(i, j as usize)
                    .expect("iteration pattern contains the Jacobian pattern");
                jac_slots.push(slot as u32);
            }
        }
        let diag_slots = (0..n)
            .map(|i| iter.slot(i, i).expect("diagonal ensured") as u32)
            .collect();
        Ok(NewtonPlan {
            iter: iter.structure,
            jac_slots,
            diag_slots,
            jac: CsrMatrix::from_rows((0..n).map(|i| jac_pattern.row(i)), n)?,
            symbolic,
        })
    }

    /// The elimination order the plan factors under
    /// ([`SymbolicLu::order`]): with the pattern, all it takes to rebuild
    /// this plan through [`with_order`](NewtonPlan::with_order).
    pub fn order(&self) -> &[u32] {
        self.symbolic.order()
    }

    /// Structural nonzeros of the iteration matrix `I − γJ`.
    pub fn iter_nnz(&self) -> usize {
        self.iter.row_idx.len()
    }

    /// nnz(L+U) of a factorization under this plan.
    pub fn fill_nnz(&self) -> usize {
        self.symbolic.fill_nnz()
    }

    /// Multiply-adds of one numeric refactorization under this plan
    /// ([`SymbolicLu::factor_macs`]).
    pub fn factor_macs(&self) -> u64 {
        self.symbolic.factor_macs()
    }

    /// Multiply-adds of the dense LU of the same matrix, `n³/3`.
    pub fn dense_factor_macs(&self) -> f64 {
        (self.symbolic.n as f64).powi(3) / 3.0
    }

    /// What [`LinearSolver::Auto`](crate::LinearSolver::Auto) decides
    /// from: does refactoring over this plan's fill cost less than a dense
    /// LU, at [`SPARSE_COST_PER_MAC`] dense multiply-adds per sparse one?
    pub fn prefers_sparse(&self) -> bool {
        SPARSE_COST_PER_MAC * (self.factor_macs() as f64) < self.dense_factor_macs()
    }

    /// A zero-valued Jacobian store over the analyzed pattern, for
    /// [`SparseNewton::factor_from_csr`].
    pub fn jacobian_store(&self) -> CsrMatrix {
        self.jac.clone()
    }
}

/// A Jacobian sparsity pattern and the sparse-Newton analysis of
/// `I − γJ` over it: analyzed by the first solve that asks, while the
/// others wait for it, and shared with every solve over the pattern from
/// then on.
#[derive(Debug, Clone)]
pub struct PlannedPattern {
    pattern: SparsityPattern,
    /// `None` inside: the analysis refused the pattern (it is not square).
    plan: OnceLock<Option<Arc<NewtonPlan>>>,
}

impl PlannedPattern {
    /// `pattern`, not analyzed yet.
    pub fn new(pattern: SparsityPattern) -> PlannedPattern {
        PlannedPattern {
            pattern,
            plan: OnceLock::new(),
        }
    }

    /// The Jacobian sparsity.
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// The plan, through [`NewtonPlan::analyze`] when there is none yet.
    pub fn plan(&self) -> Option<Arc<NewtonPlan>> {
        self.plan_with(NewtonPlan::analyze)
    }

    /// The plan, through `analyze` when there is none yet — for an owner
    /// that knows a cheaper way to the same plan, such as the elimination
    /// order of an earlier analysis ([`NewtonPlan::with_order`]).
    pub fn plan_with(
        &self,
        analyze: impl FnOnce(&SparsityPattern) -> Result<NewtonPlan, LinalgError>,
    ) -> Option<Arc<NewtonPlan>> {
        self.plan
            .get_or_init(|| analyze(&self.pattern).ok().map(Arc::new))
            .clone()
    }

    /// The plan if one exists already; never runs the analysis.
    pub fn built_plan(&self) -> Option<&Arc<NewtonPlan>> {
        self.plan.get()?.as_ref()
    }
}

/// Solver-facing sparse Newton kernel: the value arrays of one solve —
/// the CSC iteration-matrix buffer `I − scale·J` and the numeric
/// factorization — over a shared [`NewtonPlan`]. Created once per solver
/// and reused for every refactorization.
#[derive(Debug)]
pub struct SparseNewton {
    plan: Arc<NewtonPlan>,
    /// `I − scale·J` assembly buffer.
    iter: CscMatrix,
    lu: SparseLu,
}

impl SparseNewton {
    /// Build for a Jacobian sparsity, running the analysis here.
    pub fn new(jac_pattern: &SparsityPattern) -> Result<SparseNewton, LinalgError> {
        NewtonPlan::analyze(jac_pattern).map(|plan| SparseNewton::from_plan(Arc::new(plan)))
    }

    /// Allocate the value arrays of one solver over a shared plan.
    pub fn from_plan(plan: Arc<NewtonPlan>) -> SparseNewton {
        SparseNewton {
            iter: CscMatrix::zeros(plan.iter.clone()),
            lu: SparseLu::new(plan.symbolic.clone()),
            plan,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.iter.n_rows()
    }

    /// nnz(L+U) of the factorization this kernel maintains.
    pub fn fill_nnz(&self) -> usize {
        self.plan.fill_nnz()
    }

    /// Assemble `I − scale·J` from a CSR Jacobian (values in row-major
    /// entry order, as analytic tapes emit) and refactor.
    pub fn factor_from_csr(&mut self, jac: &CsrMatrix, scale: f64) -> Result<(), LinalgError> {
        let plan = &self.plan;
        if jac.nnz() != plan.jac_slots.len() || jac.n_rows() != self.n() {
            return Err(LinalgError::DimensionMismatch);
        }
        let vals = self.iter.vals_mut();
        vals.fill(0.0);
        for (&slot, &v) in plan.jac_slots.iter().zip(jac.vals()) {
            vals[slot as usize] = -scale * v;
        }
        for &slot in &plan.diag_slots {
            vals[slot as usize] += 1.0;
        }
        self.lu.refactor(&self.iter)
    }

    /// Assemble `I − scale·J` by gathering the pattern's entries from a
    /// dense Jacobian store (the colored finite-difference path writes
    /// dense) and refactor.
    pub fn factor_from_dense(
        &mut self,
        jac: &Matrix,
        pattern: &SparsityPattern,
        scale: f64,
    ) -> Result<(), LinalgError> {
        let plan = &self.plan;
        if pattern.nnz() != plan.jac_slots.len() || jac.rows() != self.n() {
            return Err(LinalgError::DimensionMismatch);
        }
        let vals = self.iter.vals_mut();
        vals.fill(0.0);
        let mut k = 0;
        for i in 0..pattern.n_rows() {
            for &j in pattern.row(i) {
                vals[plan.jac_slots[k] as usize] = -scale * jac[(i, j as usize)];
                k += 1;
            }
        }
        for &slot in &plan.diag_slots {
            vals[slot as usize] += 1.0;
        }
        self.lu.refactor(&self.iter)
    }

    /// Solve with the last successful factorization.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        self.lu.solve_in_place(b)
    }

    /// Blocked multi-right-hand-side solve with the last successful
    /// factorization; `bs` is row-major `n × ncols`.
    pub fn solve_multi_in_place(&self, bs: &mut [f64], ncols: usize) -> Result<(), LinalgError> {
        self.lu.solve_multi_in_place(bs, ncols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Lu;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn pattern_of_dense(m: &Matrix) -> SparsityPattern {
        let rows = (0..m.rows())
            .map(|i| {
                (0..m.cols())
                    .filter(|&j| m[(i, j)] != 0.0)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        SparsityPattern::new(rows, m.cols())
    }

    fn factor_and_solve(m: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let pattern = pattern_of_dense(m);
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern)?);
        let mut lu = SparseLu::new(symbolic);
        lu.refactor(&CscMatrix::from_dense(m))?;
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x)?;
        Ok(x)
    }

    #[test]
    fn csc_round_trip_and_slots() {
        let m = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[0.0, 5.0, 4.0]]);
        let c = CscMatrix::from_dense(&m);
        assert_eq!((c.n_rows(), c.n_cols(), c.nnz()), (3, 3, 5));
        assert_eq!(c.to_dense(), m);
        assert!(c.slot(0, 2).is_some());
        assert_eq!(c.slot(1, 0), None);
        let p = c.pattern();
        assert_eq!(p.row(2), &[1, 2]);
        // from_columns rejects malformed input.
        assert_eq!(
            CscMatrix::from_columns([&[1u32, 1][..]], 3).unwrap_err(),
            LinalgError::MalformedPattern
        );
        assert_eq!(
            CscMatrix::from_columns([&[5u32][..]], 3).unwrap_err(),
            LinalgError::MalformedPattern
        );
    }

    #[test]
    fn minimum_degree_is_a_permutation() {
        // Arrow matrix: dense first row/column + diagonal. Natural order
        // fills completely; minimum degree eliminates the hub last.
        let n = 8;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if i == 0 {
                    (0..n as u32).collect()
                } else {
                    vec![0, i as u32]
                }
            })
            .collect();
        let pattern = SparsityPattern::new(rows, n);
        let order = minimum_degree(&pattern);
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        // The hub must survive until the tail of the elimination: it may
        // be picked once its degree drops to a tie with the last spoke
        // (ties break on index, and the hub is vertex 0), but no earlier.
        let hub_at = order.iter().position(|&v| v == 0).unwrap();
        assert!(hub_at >= n - 2, "hub eliminated at position {hub_at}");
        // And the factorization over that ordering has no fill at all:
        // nnz(L+U) equals the arrow's own nonzero count.
        let sym = SymbolicLu::analyze(&pattern).unwrap();
        assert_eq!(sym.fill_nnz(), pattern.nnz());
    }

    #[test]
    fn natural_order_arrow_fills_dense() {
        // Sanity check of the symbolic phase itself: force the bad
        // ordering by spelling the arrow with the hub first under an
        // identity-like pattern where every vertex has the same degree
        // is not possible, so instead verify fill is counted: a dense
        // pattern's fill equals n².
        let n = 5;
        let rows: Vec<Vec<u32>> = (0..n).map(|_| (0..n as u32).collect()).collect();
        let sym = SymbolicLu::analyze(&SparsityPattern::new(rows, n)).unwrap();
        assert_eq!(sym.fill_nnz(), n * n);
    }

    #[test]
    fn sparse_solve_matches_dense_lu() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 17, 40] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i == j || rng.gen_range(0.0..1.0) < 0.2 {
                        a[(i, j)] = rng.gen_range(-1.0..1.0);
                    }
                }
                a[(i, i)] += 4.0; // diagonally dominant
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let dense = Lu::factor(&a).unwrap().solve(&b).unwrap();
            let sparse = factor_and_solve(&a, &b).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                assert!((d - s).abs() < 1e-12, "n={n}: {d} vs {s}");
            }
        }
    }

    #[test]
    fn refactor_reuses_structure_with_new_values() {
        // Same pattern, different values (the h·β sweep the solver does).
        let p = SparsityPattern::new(vec![vec![0, 1], vec![0, 1, 2], vec![1, 2]], 3);
        let symbolic = Arc::new(SymbolicLu::analyze(&p).unwrap());
        let mut lu = SparseLu::new(Arc::clone(&symbolic));
        let mut csc = CscMatrix::from_pattern(&p);
        for (scale, b) in [(1.0, [1.0, 2.0, 3.0]), (0.125, [3.0, -1.0, 0.5])] {
            // A = I + scale * M for a fixed M.
            let m = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[-1.0, 3.0, 1.0], &[0.0, 0.5, 2.0]]);
            let mut a = Matrix::identity(3);
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] += scale * m[(i, j)];
                }
            }
            for i in 0..3 {
                for &j in p.row(i) {
                    let slot = csc.slot(i, j as usize).unwrap();
                    csc.vals_mut()[slot] = a[(i, j as usize)];
                }
            }
            lu.refactor(&csc).unwrap();
            let mut x = b.to_vec();
            lu.solve_in_place(&mut x).unwrap();
            let expect = Lu::factor(&a).unwrap().solve(&b).unwrap();
            for (e, g) in expect.iter().zip(&x) {
                assert!((e - g).abs() < 1e-13, "{e} vs {g}");
            }
        }
        assert!(Arc::ptr_eq(lu.symbolic(), &symbolic));
    }

    #[test]
    fn singular_matrix_reported() {
        // Structurally singular: an empty row.
        let mut a = Matrix::identity(3);
        a[(1, 1)] = 0.0;
        let pattern = SparsityPattern::new(vec![vec![0], vec![1], vec![2]], 3);
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let mut lu = SparseLu::new(symbolic);
        let mut csc = CscMatrix::from_pattern(&pattern);
        csc.vals_mut().copy_from_slice(&[1.0, 0.0, 1.0]);
        assert!(matches!(lu.refactor(&csc), Err(LinalgError::Singular(_))));
        // A later refactor with good values still succeeds (work vector
        // stayed clean through the error path).
        csc.vals_mut().copy_from_slice(&[1.0, 2.0, 1.0]);
        lu.refactor(&csc).unwrap();
        let mut x = vec![2.0, 4.0, 6.0];
        lu.solve_in_place(&mut x).unwrap();
        assert_eq!(x, vec![2.0, 2.0, 6.0]);
    }

    #[test]
    fn sparse_newton_assembles_from_csr_and_dense() {
        let n = 4;
        let rows: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 1, 2], vec![1, 2], vec![3]];
        let pattern = SparsityPattern::new(rows.clone(), n);
        let mut csr = CsrMatrix::from_rows(rows.iter().map(Vec::as_slice), n).unwrap();
        let jac_vals = [2.0, -1.0, 0.5, 3.0, 1.0, -2.0, 0.25, 4.0];
        csr.vals_mut().copy_from_slice(&jac_vals);
        let scale = 0.3;
        let mut newton = SparseNewton::new(&pattern).unwrap();
        newton.factor_from_csr(&csr, scale).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut x_sparse = b.to_vec();
        newton.solve_in_place(&mut x_sparse).unwrap();
        let dense_iter = csr.assemble_iteration_matrix(scale);
        let x_dense = Lu::factor(&dense_iter).unwrap().solve(&b).unwrap();
        for (d, s) in x_dense.iter().zip(&x_sparse) {
            assert!((d - s).abs() < 1e-13, "{d} vs {s}");
        }
        // The dense-store path produces the same factorization.
        let mut newton2 = SparseNewton::new(&pattern).unwrap();
        newton2
            .factor_from_dense(&csr.to_dense(), &pattern, scale)
            .unwrap();
        let mut x2 = b.to_vec();
        newton2.solve_in_place(&mut x2).unwrap();
        for (a, b) in x_sparse.iter().zip(&x2) {
            assert_eq!(a, b, "CSR and dense assembly must agree bitwise");
        }
        assert!(newton.fill_nnz() <= n * n);
    }

    #[test]
    fn from_plan_is_new_on_values_fill_and_solution_bits() {
        // A random sparse Jacobian, factored by a kernel that analyzed for
        // itself and by two kernels sharing one plan.
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 30;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..n as u32)
                    .filter(|&j| j as usize == i || rng.gen_range(0.0..1.0) < 0.1)
                    .collect()
            })
            .collect();
        let pattern = SparsityPattern::new(rows.clone(), n);
        let mut jac = CsrMatrix::from_rows(rows.iter().map(Vec::as_slice), n).unwrap();
        for v in jac.vals_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();

        let plan = Arc::new(NewtonPlan::analyze(&pattern).unwrap());
        assert_eq!(plan.jacobian_store().nnz(), pattern.nnz());
        assert_eq!(
            plan.iter_nnz(),
            iteration_matrix_pattern(&pattern).nnz(),
            "the plan's structure is the iteration matrix's"
        );
        let mut own = SparseNewton::new(&pattern).unwrap();
        let mut shared = [
            SparseNewton::from_plan(plan.clone()),
            SparseNewton::from_plan(plan.clone()),
        ];
        assert!(Arc::ptr_eq(
            &shared[0].iter.structure,
            &shared[1].iter.structure
        ));
        assert!(Arc::ptr_eq(
            shared[0].lu.symbolic(),
            shared[1].lu.symbolic()
        ));
        for scale in [0.4, 0.01] {
            own.factor_from_csr(&jac, scale).unwrap();
            let mut x_own = b.clone();
            own.solve_in_place(&mut x_own).unwrap();
            for kernel in &mut shared {
                kernel.factor_from_csr(&jac, scale).unwrap();
                assert_eq!(kernel.iter, own.iter, "assembled values");
                assert_eq!(kernel.fill_nnz(), own.fill_nnz());
                let mut x = b.clone();
                kernel.solve_in_place(&mut x).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&x_own), "solution bits at scale {scale}");
            }
        }
        // Not square: nothing to plan.
        let wide = SparsityPattern::new(vec![vec![0, 1]], 2);
        assert_eq!(
            NewtonPlan::analyze(&wide).unwrap_err(),
            LinalgError::DimensionMismatch
        );
    }

    #[test]
    fn a_plan_rebuilt_from_its_order_is_the_analyzed_plan_without_an_ordering_pass() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 40;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..n as u32)
                    .filter(|&j| j as usize == i || rng.gen_range(0.0..1.0) < 0.08)
                    .collect()
            })
            .collect();
        let pattern = SparsityPattern::new(rows, n);
        let analyzed = NewtonPlan::analyze(&pattern).unwrap();
        let before = orderings_computed_on_this_thread();
        let rebuilt = NewtonPlan::with_order(&pattern, analyzed.order()).unwrap();
        assert_eq!(orderings_computed_on_this_thread(), before);
        let s = |p: &NewtonPlan| {
            let s = &p.symbolic;
            (
                s.perm.clone(),
                s.perm_inv.clone(),
                s.l_ptr.clone(),
                s.l_idx.clone(),
                s.u_ptr.clone(),
                s.u_idx.clone(),
                s.factor_macs,
            )
        };
        assert_eq!(s(&rebuilt), s(&analyzed));
        assert_eq!(rebuilt.iter, analyzed.iter);
        assert_eq!(rebuilt.jac_slots, analyzed.jac_slots);
        assert_eq!(rebuilt.diag_slots, analyzed.diag_slots);
        // Any permutation factors (the natural order, with more fill) …
        let natural: Vec<u32> = (0..n as u32).collect();
        let worse = NewtonPlan::with_order(&pattern, &natural).unwrap();
        assert!(worse.fill_nnz() >= analyzed.fill_nnz());
        // … and nothing else is an order.
        for bad in [
            &natural[1..],
            &[natural.as_slice(), &[0]].concat(),
            &vec![0; n],
            &(1..=n as u32).collect::<Vec<_>>(),
        ] {
            assert!(!is_permutation(bad, n));
            assert_eq!(
                NewtonPlan::with_order(&pattern, bad).unwrap_err(),
                LinalgError::MalformedPattern
            );
        }
        assert!(is_permutation(&[], 0));
    }

    #[test]
    fn fill_in_small_on_banded_system() {
        // Tridiagonal: minimum degree keeps nnz(L+U) = nnz(A) (no fill).
        let n = 50;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let i = i as u32;
                let mut r = vec![i];
                if i > 0 {
                    r.insert(0, i - 1);
                }
                if (i as usize) < n - 1 {
                    r.push(i + 1);
                }
                r
            })
            .collect();
        let pattern = SparsityPattern::new(rows, n);
        let sym = SymbolicLu::analyze(&pattern).unwrap();
        assert_eq!(sym.fill_nnz(), pattern.nnz());
        assert!(sym.fill_nnz() < n * n / 8);
    }
}
