//! The Jacobian sparsity pattern: which species each equation reads.
//!
//! Chemistry Jacobians are sparse — `∂f_i/∂y_j ≠ 0` only when species
//! `j` appears in equation `i` — and the compiler knows the exact
//! pattern of the analytic Jacobian it emits. The sparse Newton path
//! ([`crate::sparse`]) plans its factorization over it once per model.

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn nnz_and_accessors() {
        let p = chain_pattern(4);
        assert_eq!(p.n_rows(), 4);
        assert_eq!(p.n_cols(), 4);
        assert_eq!(p.nnz(), 1 + 2 + 2 + 2);
        assert_eq!(p.row(2), &[1, 2]);
    }
}
