//! The paper's five benchmark test cases and their reference numbers.

use crate::vulcanization::{generate_model, VulcanizationModel, VulcanizationSpec};

/// Paper Table 1 reference data for one test case.
#[derive(Debug, Clone, Copy)]
pub struct Table1Reference {
    /// Test case id (1–5).
    pub case: usize,
    /// "Number of Equations".
    pub equations: usize,
    /// "Number of *" without algebraic/CSE optimizations.
    pub mults_unopt: usize,
    /// "Number of (+ and -)" without optimizations.
    pub adds_unopt: usize,
    /// Execution time (s) without optimizations (None = compiler error).
    pub time_unopt: Option<f64>,
    /// Execution time (s) with C compiler optimizations only.
    pub time_ccomp: Option<f64>,
    /// "Number of *" with algebraic/CSE optimizations.
    pub mults_opt: usize,
    /// "Number of (+ and -)" with optimizations.
    pub adds_opt: usize,
    /// Execution time (s) with our optimizations.
    pub time_opt: f64,
}

/// Table 1 of the paper, verbatim.
pub const TABLE1: [Table1Reference; 5] = [
    Table1Reference {
        case: 1,
        equations: 450,
        mults_unopt: 2_670,
        adds_unopt: 1_770,
        time_unopt: Some(924.0),
        time_ccomp: Some(920.0),
        mults_opt: 629,
        adds_opt: 761,
        time_opt: 824.0,
    },
    Table1Reference {
        case: 2,
        equations: 10_000,
        mults_unopt: 85_500,
        adds_unopt: 36_600,
        time_unopt: Some(4_290.0),
        time_ccomp: Some(3_530.0),
        mults_opt: 7_450,
        adds_opt: 22_800,
        time_opt: 2_500.0,
    },
    Table1Reference {
        case: 3,
        equations: 24_500,
        mults_unopt: 229_000,
        adds_unopt: 94_800,
        time_unopt: Some(7_480.0),
        time_ccomp: None,
        mults_opt: 11_800,
        adds_opt: 56_800,
        time_opt: 4_240.0,
    },
    Table1Reference {
        case: 4,
        equations: 125_000,
        mults_unopt: 1_320_000,
        adds_unopt: 520_000,
        time_unopt: Some(42_800.0),
        time_ccomp: None,
        mults_opt: 22_000,
        adds_opt: 125_000,
        time_opt: 8_130.0,
    },
    Table1Reference {
        case: 5,
        equations: 250_000,
        mults_unopt: 2_400_000,
        adds_unopt: 974_000,
        time_unopt: None,
        time_ccomp: None,
        mults_opt: 32_400,
        adds_opt: 201_000,
        time_opt: 15_459.0,
    },
];

/// Paper Table 2 reference (MPI scaling over 16 data files).
#[derive(Debug, Clone, Copy)]
pub struct Table2Reference {
    /// Number of nodes.
    pub nodes: usize,
    /// Total time (s) without dynamic load balancing.
    pub time_block: f64,
    /// Speedup without dynamic load balancing.
    pub speedup_block: f64,
    /// Total time (s) with dynamic load balancing.
    pub time_lb: f64,
    /// Speedup with dynamic load balancing.
    pub speedup_lb: f64,
}

/// Table 2 of the paper, verbatim.
pub const TABLE2: [Table2Reference; 5] = [
    Table2Reference {
        nodes: 1,
        time_block: 15_459.0,
        speedup_block: 1.0,
        time_lb: 15_459.0,
        speedup_lb: 1.0,
    },
    Table2Reference {
        nodes: 2,
        time_block: 7_619.0,
        speedup_block: 1.99,
        time_lb: 7_784.0,
        speedup_lb: 2.03,
    },
    Table2Reference {
        nodes: 4,
        time_block: 3_874.0,
        speedup_block: 3.91,
        time_lb: 3_598.0,
        speedup_lb: 3.99,
    },
    Table2Reference {
        nodes: 8,
        time_block: 1_935.0,
        speedup_block: 7.08,
        time_lb: 2_183.0,
        speedup_lb: 7.99,
    },
    Table2Reference {
        nodes: 16,
        time_block: 1_210.0,
        speedup_block: 12.78,
        time_lb: 1_210.0,
        speedup_lb: 12.78,
    },
];

/// Build the test case at full paper scale (symbolic work only — solving
/// a 250 000-equation system end-to-end is a supercomputer job, but
/// operation counting and compilation are laptop-feasible).
pub fn paper_case(case: usize) -> VulcanizationModel {
    let reference = TABLE1[case - 1];
    generate_model(VulcanizationSpec::for_equation_count(reference.equations))
}

/// Build the test case scaled down by `factor` (≥ 1) for timed runs.
pub fn scaled_case(case: usize, factor: usize) -> VulcanizationModel {
    let reference = TABLE1[case - 1];
    let target = (reference.equations / factor.max(1)).max(60);
    generate_model(VulcanizationSpec::for_equation_count(target))
}

/// A linear stiff problem beside the compiled ones: `n` (≥ 2) species
/// decaying into one another, rate constants spread over five decades,
/// all mass on the first. Returns the right-hand side and `y(0)`.
pub fn decay_chain(n: usize) -> (impl rms_solver::OdeRhs, Vec<f64>) {
    let rate = move |i: usize| 10f64.powf(5.0 * i as f64 / (n - 1) as f64 - 1.0);
    let rhs = rms_solver::FnRhs::new(n, move |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = -rate(0) * y[0];
        for i in 1..y.len() {
            ydot[i] = rate(i - 1) * y[i - 1] - rate(i) * y[i];
        }
    });
    let mut y0 = vec![0.0; n];
    y0[0] = 1.0;
    (rhs, y0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_paper_headlines() {
        // Case 5: ops reduced to 6.9 % overall, 1.35 % of multiplies.
        let c5 = TABLE1[4];
        let total_unopt = (c5.mults_unopt + c5.adds_unopt) as f64;
        let total_opt = (c5.mults_opt + c5.adds_opt) as f64;
        let fraction = total_opt / total_unopt;
        assert!((fraction - 0.069).abs() < 0.001, "{fraction}");
        let mult_fraction = c5.mults_opt as f64 / c5.mults_unopt as f64;
        assert!((mult_fraction - 0.0135).abs() < 0.001, "{mult_fraction}");
        // Case 4 speedup 5.26x.
        let c4 = TABLE1[3];
        let speedup = c4.time_unopt.unwrap() / c4.time_opt;
        assert!((speedup - 5.26).abs() < 0.01, "{speedup}");
    }

    #[test]
    fn paper_case_sizes() {
        for (i, reference) in TABLE1.iter().enumerate().take(2) {
            let model = paper_case(i + 1);
            let got = model.network.species_count();
            let err = (got as f64 - reference.equations as f64).abs() / reference.equations as f64;
            assert!(
                err < 0.05,
                "case {}: {} vs {}",
                i + 1,
                got,
                reference.equations
            );
        }
    }

    #[test]
    fn scaled_case_shrinks() {
        let full = paper_case(1);
        let small = scaled_case(1, 4);
        assert!(small.network.species_count() < full.network.species_count());
        assert!(small.network.species_count() >= 60);
    }

    #[test]
    fn table2_internally_consistent() {
        for row in TABLE2 {
            let implied = 15_459.0 / row.time_block;
            // The paper's 8-node row swaps its columns; tolerate ~15 %.
            assert!(
                (implied - row.speedup_block).abs() / row.speedup_block < 0.15,
                "nodes {}: implied {implied} vs {}",
                row.nodes,
                row.speedup_block
            );
        }
    }
}
