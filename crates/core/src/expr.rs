//! The optimizer's expression IR.
//!
//! The equation generator hands the optimizer flat sums of products; the
//! distributive optimization introduces nesting (`k*(B*(C+D) + E*F)`), and
//! CSE introduces temporaries. [`Expr`] represents all of these with a
//! canonical ordering (the paper keeps "the terms of each sub-expression
//! … in a canonical lexicographical order — this allows an easy matching
//! of expressions").

use std::cmp::Ordering;
use std::fmt;

use rms_odegen::{OdeEquation, OdeSystem, OpCounts, ProductTerm};

/// Total-ordered, hashable wrapper for coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coeff(pub f64);

impl Eq for Coeff {}

impl PartialOrd for Coeff {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coeff {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for Coeff {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// Identifier of a CSE-generated temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TempId(pub u32);

/// An expression over rate constants, species concentrations and
/// temporaries.
///
/// Invariants maintained by the smart constructors [`Expr::sum`] and
/// [`Expr::prod`]:
/// * `Sum`/`Prod` children are flattened (no Sum directly under Sum);
/// * `Prod` holds its constant coefficient separately; factors are sorted;
/// * neither node has fewer than two "payload" entries (single-entry sums
///   collapse; single-factor unit-coefficient products collapse).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Literal constant.
    Const(Coeff),
    /// Kinetic rate constant (canonical id from the RCIP).
    Rate(u32),
    /// Species concentration.
    Species(u32),
    /// CSE temporary.
    Temp(TempId),
    /// Product: `coeff * factors[0] * factors[1] * …`, factors sorted.
    Prod(Coeff, Vec<Expr>),
    /// Sum of children, sorted canonically.
    Sum(Vec<Expr>),
}

impl PartialOrd for Expr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Canonical lexicographical order (paper §3.3): atoms by kind then index;
/// products by their *factor sequence* first and coefficient second, so
/// `-k1*A*B` and `+k1*A*B` are adjacent and sums order by structure, not
/// by sign.
impl Ord for Expr {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(e: &Expr) -> u8 {
            match e {
                Expr::Const(_) => 0,
                Expr::Rate(_) => 1,
                Expr::Species(_) => 2,
                Expr::Temp(_) => 3,
                Expr::Prod(..) => 4,
                Expr::Sum(_) => 5,
            }
        }
        rank(self)
            .cmp(&rank(other))
            .then_with(|| match (self, other) {
                (Expr::Const(a), Expr::Const(b)) => a.cmp(b),
                (Expr::Rate(a), Expr::Rate(b)) => a.cmp(b),
                (Expr::Species(a), Expr::Species(b)) => a.cmp(b),
                (Expr::Temp(a), Expr::Temp(b)) => a.cmp(b),
                (Expr::Prod(ca, fa), Expr::Prod(cb, fb)) => fa.cmp(fb).then_with(|| ca.cmp(cb)),
                (Expr::Sum(a), Expr::Sum(b)) => a.cmp(b),
                _ => unreachable!("ranks matched"),
            })
    }
}

impl Expr {
    /// Constant expression.
    pub fn constant(v: f64) -> Expr {
        Expr::Const(Coeff(v))
    }

    /// Smart product constructor: flattens nested products, folds constants
    /// into the coefficient, sorts factors, and collapses trivial shapes.
    pub fn prod(coeff: f64, factors: Vec<Expr>) -> Expr {
        let mut c = coeff;
        let mut flat: Vec<Expr> = Vec::with_capacity(factors.len());
        for f in factors {
            match f {
                Expr::Const(Coeff(v)) => c *= v,
                Expr::Prod(Coeff(v), inner) => {
                    c *= v;
                    flat.extend(inner);
                }
                other => flat.push(other),
            }
        }
        if c == 0.0 {
            return Expr::constant(0.0);
        }
        flat.sort();
        match (c, flat.len()) {
            (_, 0) => Expr::constant(c),
            (1.0, 1) => flat.pop().unwrap(),
            _ => Expr::Prod(Coeff(c), flat),
        }
    }

    /// Smart sum constructor: flattens nested sums, folds constants, drops
    /// zero terms, and collapses trivial shapes. Does **not** merge
    /// like terms — that is the §3.1 simplification pass's job.
    pub fn sum(children: Vec<Expr>) -> Expr {
        let mut flat: Vec<Expr> = Vec::with_capacity(children.len());
        let mut const_acc = 0.0;
        let mut saw_const = false;
        for ch in children {
            match ch {
                Expr::Sum(inner) => flat.extend(inner),
                Expr::Const(Coeff(v)) => {
                    const_acc += v;
                    saw_const = true;
                }
                other => flat.push(other),
            }
        }
        if saw_const && const_acc != 0.0 {
            flat.push(Expr::constant(const_acc));
        }
        flat.sort();
        match flat.len() {
            0 => Expr::constant(0.0),
            1 => flat.pop().unwrap(),
            _ => Expr::Sum(flat),
        }
    }

    /// Whether this is an atomic expression (leaf).
    pub fn is_atom(&self) -> bool {
        matches!(
            self,
            Expr::Const(_) | Expr::Rate(_) | Expr::Species(_) | Expr::Temp(_)
        )
    }

    /// Evaluate against rate values, concentrations and temporary values.
    pub fn eval(&self, rates: &[f64], y: &[f64], temps: &[f64]) -> f64 {
        match self {
            Expr::Const(Coeff(v)) => *v,
            Expr::Rate(i) => rates[*i as usize],
            Expr::Species(i) => y[*i as usize],
            Expr::Temp(t) => temps[t.0 as usize],
            Expr::Prod(Coeff(c), factors) => factors
                .iter()
                .fold(*c, |acc, f| acc * f.eval(rates, y, temps)),
            Expr::Sum(children) => children.iter().map(|c| c.eval(rates, y, temps)).sum(),
        }
    }

    /// Arithmetic operation counts of the tree, mirroring the evaluation
    /// cost model of `rms-odegen` (±1 coefficients cost nothing, other
    /// coefficients one multiply; each sum of n terms costs n−1 add/subs).
    pub fn op_counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        self.count_ops(&mut counts);
        counts
    }

    fn count_ops(&self, counts: &mut OpCounts) {
        match self {
            Expr::Const(_) | Expr::Rate(_) | Expr::Species(_) | Expr::Temp(_) => {}
            Expr::Prod(Coeff(c), factors) => {
                let coeff_factor = usize::from(c.abs() != 1.0);
                counts.mults += factors.len() + coeff_factor - 1;
                for f in factors {
                    f.count_ops(counts);
                }
            }
            Expr::Sum(children) => {
                counts.adds += children.len() - 1;
                for c in children {
                    c.count_ops(counts);
                }
            }
        }
    }

    /// Number of nodes in the tree (IR size metric for the generic
    /// compiler's memory model).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Prod(_, factors) => 1 + factors.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Sum(children) => 1 + children.iter().map(Expr::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    /// Convert a flat product term from the equation generator.
    pub fn from_term(term: &ProductTerm) -> Expr {
        let mut factors: Vec<Expr> = Vec::with_capacity(term.species.len() + 1);
        factors.push(Expr::Rate(term.rate.0));
        factors.extend(term.species.iter().map(|s| Expr::Species(s.0)));
        Expr::prod(term.coeff, factors)
    }

    /// Convert a whole equation's right-hand side.
    pub fn from_equation(eq: &OdeEquation) -> Expr {
        Expr::sum(eq.terms.iter().map(Expr::from_term).collect())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(Coeff(v)) => write!(f, "{v}"),
            Expr::Rate(i) => write!(f, "k{i}"),
            Expr::Species(i) => write!(f, "y{i}"),
            Expr::Temp(t) => write!(f, "t{}", t.0),
            Expr::Prod(Coeff(c), factors) => {
                let mut first = true;
                if *c != 1.0 {
                    write!(f, "{c}")?;
                    first = false;
                }
                for factor in factors {
                    if !first {
                        write!(f, "*")?;
                    }
                    first = false;
                    if matches!(factor, Expr::Sum(_)) {
                        write!(f, "({factor})")?;
                    } else {
                        write!(f, "{factor}")?;
                    }
                }
                Ok(())
            }
            Expr::Sum(children) => {
                for (i, ch) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{ch}")?;
                }
                Ok(())
            }
        }
    }
}

/// An expression forest: the whole ODE system in optimizer IR, with
/// temporary definitions in emission order (shorter/earlier temps never
/// reference later ones).
#[derive(Debug, Clone)]
pub struct ExprForest {
    /// `temps[i]` defines `Temp(i)`.
    pub temps: Vec<Expr>,
    /// One right-hand side per species.
    pub rhs: Vec<Expr>,
    /// Number of species (== rhs.len(), kept for clarity).
    pub n_species: usize,
    /// Number of distinct rate constants.
    pub n_rates: usize,
}

impl ExprForest {
    /// Convert an ODE system (no temporaries, flat sums of products).
    pub fn from_system(system: &OdeSystem) -> ExprForest {
        ExprForest {
            temps: Vec::new(),
            rhs: system.equations.iter().map(Expr::from_equation).collect(),
            n_species: system.len(),
            n_rates: system.n_rates,
        }
    }

    /// Evaluate all right-hand sides into `ydot` (reference interpreter;
    /// the tape is the fast path).
    pub fn eval_into(&self, rates: &[f64], y: &[f64], ydot: &mut [f64]) {
        let mut temps = Vec::with_capacity(self.temps.len());
        for t in &self.temps {
            let v = t.eval(rates, y, &temps);
            temps.push(v);
        }
        for (rhs, out) in self.rhs.iter().zip(ydot.iter_mut()) {
            *out = rhs.eval(rates, y, &temps);
        }
    }

    /// Total operation counts, temporaries included.
    pub fn op_counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        for e in self.temps.iter().chain(self.rhs.iter()) {
            let c = e.op_counts();
            counts.mults += c.mults;
            counts.adds += c.adds;
        }
        counts
    }

    /// Total IR node count (memory metric).
    pub fn node_count(&self) -> usize {
        self.temps
            .iter()
            .chain(self.rhs.iter())
            .map(Expr::node_count)
            .sum()
    }
}

/// Human-readable IR listing: one `tN = …` line per temporary followed by
/// one `dyN/dt = …` line per species (the `--dump-ir` format).
impl fmt::Display for ExprForest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.temps.iter().enumerate() {
            writeln!(f, "t{i} = {t}")?;
        }
        for (i, rhs) in self.rhs.iter().enumerate() {
            writeln!(f, "dy{i}/dt = {rhs}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_rcip::RateId;
    use rms_rdl::SpeciesId;

    #[test]
    fn prod_folds_constants_and_sorts() {
        let e = Expr::prod(
            2.0,
            vec![Expr::Species(3), Expr::constant(3.0), Expr::Species(1)],
        );
        let Expr::Prod(Coeff(c), factors) = &e else {
            panic!("{e:?}")
        };
        assert_eq!(*c, 6.0);
        assert_eq!(factors, &vec![Expr::Species(1), Expr::Species(3)]);
    }

    #[test]
    fn prod_flattens_nested() {
        let inner = Expr::prod(2.0, vec![Expr::Species(0)]);
        let outer = Expr::prod(3.0, vec![inner, Expr::Rate(0)]);
        let Expr::Prod(Coeff(c), factors) = &outer else {
            panic!()
        };
        assert_eq!(*c, 6.0);
        assert_eq!(factors.len(), 2);
    }

    #[test]
    fn unit_single_factor_collapses() {
        assert_eq!(Expr::prod(1.0, vec![Expr::Species(5)]), Expr::Species(5));
        assert_eq!(Expr::prod(2.0, vec![]), Expr::constant(2.0));
        assert_eq!(Expr::prod(0.0, vec![Expr::Species(1)]), Expr::constant(0.0));
    }

    #[test]
    fn sum_flattens_and_collapses() {
        let s = Expr::sum(vec![
            Expr::sum(vec![Expr::Species(0), Expr::Species(1)]),
            Expr::Species(2),
        ]);
        let Expr::Sum(children) = &s else { panic!() };
        assert_eq!(children.len(), 3);
        assert_eq!(Expr::sum(vec![Expr::Species(7)]), Expr::Species(7));
        assert_eq!(Expr::sum(vec![]), Expr::constant(0.0));
    }

    #[test]
    fn sum_folds_constants_and_drops_zero() {
        let s = Expr::sum(vec![
            Expr::constant(1.0),
            Expr::Species(0),
            Expr::constant(-1.0),
        ]);
        assert_eq!(s, Expr::Species(0));
    }

    #[test]
    fn eval_nested() {
        // 2 * k0 * (y0 + y1)
        let e = Expr::prod(
            2.0,
            vec![
                Expr::Rate(0),
                Expr::sum(vec![Expr::Species(0), Expr::Species(1)]),
            ],
        );
        assert_eq!(e.eval(&[3.0], &[4.0, 5.0], &[]), 54.0);
    }

    #[test]
    fn op_counts_match_paper_example() {
        // k1*B*C + k1*B*D + k1*E*F : 6 mults, 2 adds (paper §3.2)
        let term = |a: u32, b: u32| {
            Expr::prod(1.0, vec![Expr::Rate(1), Expr::Species(a), Expr::Species(b)])
        };
        let flat = Expr::sum(vec![term(1, 2), term(1, 3), term(4, 5)]);
        assert_eq!(flat.op_counts(), OpCounts { mults: 6, adds: 2 });

        // k1*(B*(C+D) + E*F) : 3 mults, 2 adds
        let factored = Expr::prod(
            1.0,
            vec![
                Expr::Rate(1),
                Expr::sum(vec![
                    Expr::prod(
                        1.0,
                        vec![
                            Expr::Species(1),
                            Expr::sum(vec![Expr::Species(2), Expr::Species(3)]),
                        ],
                    ),
                    Expr::prod(1.0, vec![Expr::Species(4), Expr::Species(5)]),
                ]),
            ],
        );
        assert_eq!(factored.op_counts(), OpCounts { mults: 3, adds: 2 });
    }

    #[test]
    fn from_term_matches_odegen_count() {
        let t = ProductTerm::new(-2.0, RateId(0), vec![SpeciesId(1), SpeciesId(2)]);
        let e = Expr::from_term(&t);
        assert_eq!(e.op_counts().mults, t.multiplication_count());
        assert_eq!(e.eval(&[3.0], &[0.0, 2.0, 5.0], &[]), -60.0);
    }

    #[test]
    fn display_readable() {
        let e = Expr::prod(
            -2.0,
            vec![
                Expr::Rate(0),
                Expr::sum(vec![Expr::Species(1), Expr::Species(2)]),
            ],
        );
        assert_eq!(e.to_string(), "-2*k0*(y1 + y2)");
    }

    #[test]
    fn canonical_order_is_deterministic() {
        let mut v = vec![
            Expr::Species(2),
            Expr::Rate(1),
            Expr::constant(2.0),
            Expr::Species(0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Expr::constant(2.0),
                Expr::Rate(1),
                Expr::Species(0),
                Expr::Species(2),
            ]
        );
    }
}
