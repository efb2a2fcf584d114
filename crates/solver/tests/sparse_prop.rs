//! Property tests: the fill-reducing sparse LU agrees with the dense
//! LU baseline on random sparse systems across the density range the
//! auto decision spans (1–50% occupancy), the two paths agree on
//! singularity, and the multiply-add count that decision reads off the
//! symbolic factorization is the count of a dense elimination's
//! structurally nonzero operations.

use proptest::prelude::*;
use std::sync::Arc;

use rms_solver::{CscMatrix, LinalgError, Lu, Matrix, SparseLu, SymbolicLu};

/// A random sparse matrix as dense rows: full structural diagonal (the
/// kernel pivots on the diagonal, like the iteration matrix I − hβJ it
/// exists for), off-diagonals kept with probability `density`, and the
/// diagonal boosted so the system is comfortably non-singular.
fn random_system(n: usize, density: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = proptest::TestRng::new(seed);
    let mut rows = vec![vec![0.0; n]; n];
    for (i, row) in rows.iter_mut().enumerate() {
        let mut off_sum = 0.0;
        for (j, v) in row.iter_mut().enumerate() {
            if i != j && (rng.next_u64() as f64 / u64::MAX as f64) < density {
                *v = (rng.next_u64() as f64 / u64::MAX as f64) * 4.0 - 2.0;
                off_sum += v.abs();
            }
        }
        // Diagonally dominant: conditioning stays benign at every
        // density, so 1e-12 agreement tests the algebra, not luck.
        row[i] = off_sum + 1.0 + (rng.next_u64() as f64 / u64::MAX as f64);
    }
    rows
}

/// Factor `rows` with the sparse kernel and solve for `b`.
fn sparse_solve(rows: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let dense = Matrix::from_rows(&refs);
    let csc = CscMatrix::from_dense(&dense);
    let symbolic = Arc::new(SymbolicLu::analyze(&csc.pattern())?);
    let mut lu = SparseLu::new(symbolic);
    lu.refactor(&csc)?;
    let mut x = b.to_vec();
    lu.solve_in_place(&mut x)?;
    Ok(x)
}

/// Factor `rows` with the dense baseline and solve for `b`.
fn dense_solve(rows: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let lu = Lu::factor(&Matrix::from_rows(&refs))?;
    let mut x = b.to_vec();
    lu.solve_in_place(&mut x)?;
    Ok(x)
}

/// Multiply-adds of a right-looking dense elimination of `rows` along
/// `order`, counting only operations on structural nonzeros (fill
/// included): one division per entry below each pivot, one update per
/// (below-pivot, right-of-pivot) pair.
fn brute_force_macs(rows: &[Vec<f64>], order: &[u32]) -> u64 {
    let n = rows.len();
    let mut nz: Vec<Vec<bool>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| i == j || rows[order[i] as usize][order[j] as usize] != 0.0)
                .collect()
        })
        .collect();
    let mut macs = 0;
    for k in 0..n {
        let (pivot_rows, below) = nz.split_at_mut(k + 1);
        let right: Vec<usize> = (k + 1..n).filter(|&j| pivot_rows[k][j]).collect();
        for row in below.iter_mut().filter(|row| row[k]) {
            macs += 1 + right.len() as u64;
            for &j in &right {
                row[j] = true;
            }
        }
    }
    macs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `factor_macs` is a walk over the fill's index arrays; it must count
    /// what an elimination in the same order actually performs.
    #[test]
    fn factor_macs_counts_the_structural_operations(
        (n, density, seed) in (1usize..40, 0.01f64..0.50, 0u64..u64::MAX),
    ) {
        let rows = random_system(n, density, seed);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let pattern = CscMatrix::from_dense(&Matrix::from_rows(&refs)).pattern();
        let symbolic = SymbolicLu::analyze(&pattern).expect("square pattern");
        prop_assert_eq!(
            symbolic.factor_macs(),
            brute_force_macs(&rows, symbolic.order()),
            "n={}, density={:.2}", n, density
        );
    }

    /// Sparse and dense solutions agree to 1e-12 relative across the
    /// 1–50% density range.
    #[test]
    fn sparse_lu_matches_dense_lu(
        (n, density, seed) in (4usize..40, 0.01f64..0.50, 0u64..u64::MAX),
    ) {
        let rows = random_system(n, density, seed);
        let b: Vec<f64> = (0..n).map(|i| 0.3 + (i % 5) as f64 * 0.2).collect();

        let xs = sparse_solve(&rows, &b).expect("well-conditioned system");
        let xd = dense_solve(&rows, &b).expect("well-conditioned system");

        let norm = xd.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        for (i, (a, d)) in xs.iter().zip(&xd).enumerate() {
            let rel = (a - d).abs() / norm;
            prop_assert!(
                rel <= 1e-12,
                "component {i} disagrees: sparse {a}, dense {d}, rel {rel:.3e} \
                 (n={n}, density={density:.2})"
            );
        }
    }

    /// A structurally present but numerically zero row is singular to
    /// both kernels — the sparse path must report the same error the
    /// dense path does, not produce garbage.
    #[test]
    fn sparse_and_dense_agree_on_singularity(
        (n, density, seed, dead) in (4usize..24, 0.05f64..0.40, 0u64..u64::MAX, 0usize..24),
    ) {
        let mut rows = random_system(n, density, seed);
        let dead = dead % n;
        for v in &mut rows[dead] {
            *v = 0.0;
        }
        let b = vec![1.0; n];

        let sparse = sparse_solve(&rows, &b);
        let dense = dense_solve(&rows, &b);
        prop_assert!(
            matches!(sparse, Err(LinalgError::Singular(_))),
            "sparse kernel accepted a singular matrix: {sparse:?}"
        );
        prop_assert!(
            matches!(dense, Err(LinalgError::Singular(_))),
            "dense kernel accepted a singular matrix: {dense:?}"
        );
    }
}
