//! The rate-constant table: evaluation, value-based renaming, bounds.
//!
//! The paper (§3.3) notes that "those variables with different names most
//! likely to have the same value, i.e. the rate constants, have been
//! renamed based on common values by the rate constant information
//! processor". [`RateTable`] performs that renaming: constants that
//! evaluate to the same value share one *canonical id*, so the downstream
//! equation generator and CSE see a single symbol per distinct value.

use std::collections::HashMap;

use crate::error::{RcipError, Result};
use crate::parser::{parse_rcip, RateExpr, Statement};

/// Dense identifier of a *distinct-valued* rate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RateId(pub u32);

/// Inclusive bounds on a kinetic parameter, set by the chemist and enforced
/// by the nonlinear optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Bounds {
    /// Clamp a value into the bounds.
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.lo, self.hi)
    }

    /// Whether the value lies inside the bounds.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// Evaluated and deduplicated rate constants.
#[derive(Debug, Clone, Default)]
pub struct RateTable {
    /// name → evaluated value.
    values: HashMap<String, f64>,
    /// name → canonical id (shared when values coincide).
    ids: HashMap<String, RateId>,
    /// canonical id → representative name (first defined with that value).
    canonical_names: Vec<String>,
    /// canonical id → value.
    canonical_values: Vec<f64>,
    /// canonical id → bounds, if the chemist set any.
    bounds: Vec<Option<Bounds>>,
    /// definition order of names (for reporting).
    order: Vec<String>,
}

impl RateTable {
    /// Parse and evaluate a definition file.
    pub fn parse(src: &str) -> Result<RateTable> {
        let stmts = parse_rcip(src)?;
        RateTable::from_statements(&stmts)
    }

    /// Build from pre-parsed statements.
    pub fn from_statements(stmts: &[Statement]) -> Result<RateTable> {
        let mut defs: HashMap<&str, &RateExpr> = HashMap::new();
        let mut order: Vec<&str> = Vec::new();
        for stmt in stmts {
            if let Statement::Definition { name, expr } = stmt {
                if defs.insert(name, expr).is_some() {
                    return Err(RcipError::Redefined(name.clone()));
                }
                order.push(name);
            }
        }

        // Evaluate with memoization + cycle detection (DFS coloring).
        let mut table = RateTable::default();
        let mut state: HashMap<&str, u8> = HashMap::new(); // 1 = in progress, 2 = done
        let mut values: HashMap<&str, f64> = HashMap::new();
        for &name in &order {
            let mut path = Vec::new();
            eval_name(name, &defs, &mut state, &mut values, &mut path, 0)?;
        }

        // Assign canonical ids by value, first-definition-first. Values are
        // compared by bit pattern: the paper dedupes constants defined to be
        // literally equal, not merely numerically close.
        let mut by_value: HashMap<u64, RateId> = HashMap::new();
        for &name in &order {
            let value = values[name];
            let id = *by_value.entry(value.to_bits()).or_insert_with(|| {
                let id = RateId(table.canonical_names.len() as u32);
                table.canonical_names.push(name.to_string());
                table.canonical_values.push(value);
                table.bounds.push(None);
                id
            });
            table.values.insert(name.to_string(), value);
            table.ids.insert(name.to_string(), id);
            table.order.push(name.to_string());
        }

        // Apply bounds, addressed by name but stored per canonical id.
        for stmt in stmts {
            if let Statement::Bound { name, lo, hi } = stmt {
                let id = table
                    .ids
                    .get(name)
                    .copied()
                    .ok_or_else(|| RcipError::BoundForUnknown(name.clone()))?;
                if lo > hi {
                    return Err(RcipError::EmptyBound {
                        name: name.clone(),
                        lo: *lo,
                        hi: *hi,
                    });
                }
                table.bounds[id.0 as usize] = Some(Bounds { lo: *lo, hi: *hi });
            }
        }
        Ok(table)
    }

    /// Value of a named constant.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Canonical id of a named constant.
    pub fn id(&self, name: &str) -> Option<RateId> {
        self.ids.get(name).copied()
    }

    /// Representative name of a canonical id.
    pub fn canonical_name(&self, id: RateId) -> &str {
        &self.canonical_names[id.0 as usize]
    }

    /// Value of a canonical id.
    pub fn value(&self, id: RateId) -> f64 {
        self.canonical_values[id.0 as usize]
    }

    /// Bounds of a canonical id, if set.
    pub fn bounds(&self, id: RateId) -> Option<Bounds> {
        self.bounds[id.0 as usize]
    }

    /// Number of *distinct-valued* constants (the paper's test cases use
    /// "the same 10 distinct kinetic parameters" across all five models).
    pub fn distinct_count(&self) -> usize {
        self.canonical_names.len()
    }

    /// Number of defined names (before value dedup).
    pub fn name_count(&self) -> usize {
        self.order.len()
    }

    /// All canonical values, indexed by `RateId`.
    pub fn canonical_value_vec(&self) -> Vec<f64> {
        self.canonical_values.clone()
    }

    /// Bounds per canonical id as `(lo, hi)` vectors, defaulting unset
    /// bounds to `(0, +inf)` (rate constants are nonnegative).
    pub fn bounds_vectors(&self) -> (Vec<f64>, Vec<f64>) {
        let lo = self
            .bounds
            .iter()
            .map(|b| b.map_or(0.0, |b| b.lo))
            .collect();
        let hi = self
            .bounds
            .iter()
            .map(|b| b.map_or(f64::INFINITY, |b| b.hi))
            .collect();
        (lo, hi)
    }

    /// Names in definition order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// Directly register a constant (used by programmatic model builders
    /// that bypass the text format). Returns its canonical id.
    pub fn define(&mut self, name: &str, value: f64) -> Result<RateId> {
        if self.values.contains_key(name) {
            return Err(RcipError::Redefined(name.to_string()));
        }
        let existing = self
            .canonical_values
            .iter()
            .position(|v| v.to_bits() == value.to_bits());
        let id = match existing {
            Some(pos) => RateId(pos as u32),
            None => {
                let id = RateId(self.canonical_names.len() as u32);
                self.canonical_names.push(name.to_string());
                self.canonical_values.push(value);
                self.bounds.push(None);
                id
            }
        };
        self.values.insert(name.to_string(), value);
        self.ids.insert(name.to_string(), id);
        self.order.push(name.to_string());
        Ok(id)
    }

    /// Set bounds for a canonical id.
    pub fn set_bounds(&mut self, id: RateId, lo: f64, hi: f64) -> Result<()> {
        if lo > hi {
            return Err(RcipError::EmptyBound {
                name: self.canonical_name(id).to_string(),
                lo,
                hi,
            });
        }
        self.bounds[id.0 as usize] = Some(Bounds { lo, hi });
        Ok(())
    }
}

/// Deepest recursion evaluating one definition may take, through its
/// expression and the definitions it references: a chain of one-line
/// definitions is otherwise as deep as the file is long.
const MAX_EVAL_DEPTH: usize = 128;

fn eval_name<'a>(
    name: &'a str,
    defs: &HashMap<&'a str, &'a RateExpr>,
    state: &mut HashMap<&'a str, u8>,
    values: &mut HashMap<&'a str, f64>,
    path: &mut Vec<&'a str>,
    depth: usize,
) -> Result<f64> {
    if let Some(&v) = values.get(name) {
        return Ok(v);
    }
    if state.get(name) == Some(&1) {
        let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        cycle.push(name.to_string());
        return Err(RcipError::Cycle(cycle));
    }
    let expr = defs
        .get(name)
        .copied()
        .ok_or_else(|| RcipError::Undefined {
            name: name.to_string(),
            referenced_by: path.last().unwrap_or(&name).to_string(),
        })?;
    state.insert(name, 1);
    path.push(name);
    let v = eval_expr(name, expr, defs, state, values, path, depth)?;
    if !v.is_finite() {
        return Err(RcipError::NotFinite {
            name: name.to_string(),
            value: v,
        });
    }
    path.pop();
    state.insert(name, 2);
    values.insert(name, v);
    Ok(v)
}

fn eval_expr<'a>(
    owner: &'a str,
    expr: &'a RateExpr,
    defs: &HashMap<&'a str, &'a RateExpr>,
    state: &mut HashMap<&'a str, u8>,
    values: &mut HashMap<&'a str, f64>,
    path: &mut Vec<&'a str>,
    depth: usize,
) -> Result<f64> {
    if depth > MAX_EVAL_DEPTH {
        return Err(RcipError::TooDeep(
            path.first().unwrap_or(&owner).to_string(),
        ));
    }
    let depth = depth + 1;
    Ok(match expr {
        RateExpr::Number(v) => *v,
        RateExpr::Ref(name) => eval_name(name, defs, state, values, path, depth)?,
        RateExpr::Add(a, b) => {
            eval_expr(owner, a, defs, state, values, path, depth)?
                + eval_expr(owner, b, defs, state, values, path, depth)?
        }
        RateExpr::Sub(a, b) => {
            eval_expr(owner, a, defs, state, values, path, depth)?
                - eval_expr(owner, b, defs, state, values, path, depth)?
        }
        RateExpr::Mul(a, b) => {
            eval_expr(owner, a, defs, state, values, path, depth)?
                * eval_expr(owner, b, defs, state, values, path, depth)?
        }
        RateExpr::Div(a, b) => {
            let denom = eval_expr(owner, b, defs, state, values, path, depth)?;
            if denom == 0.0 {
                return Err(RcipError::DivisionByZero(owner.to_string()));
            }
            eval_expr(owner, a, defs, state, values, path, depth)? / denom
        }
        RateExpr::Neg(a) => -eval_expr(owner, a, defs, state, values, path, depth)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_dependent_definitions() {
        let t = RateTable::parse("rate K_A = 2; rate K_CD = K_A * 3;").unwrap();
        assert_eq!(t.get("K_A"), Some(2.0));
        assert_eq!(t.get("K_CD"), Some(6.0));
    }

    #[test]
    fn forward_references_allowed() {
        let t = RateTable::parse("rate K_B = K_A + 1; rate K_A = 1;").unwrap();
        assert_eq!(t.get("K_B"), Some(2.0));
    }

    #[test]
    fn equal_values_share_canonical_id() {
        let t = RateTable::parse("rate K1 = 2; rate K2 = 1 + 1; rate K3 = 3;").unwrap();
        assert_eq!(t.id("K1"), t.id("K2"));
        assert_ne!(t.id("K1"), t.id("K3"));
        assert_eq!(t.distinct_count(), 2);
        assert_eq!(t.name_count(), 3);
        // representative is the first-defined name
        assert_eq!(t.canonical_name(t.id("K2").unwrap()), "K1");
    }

    #[test]
    fn cycle_detected() {
        let err = RateTable::parse("rate A = B; rate B = A;").unwrap_err();
        assert!(matches!(err, RcipError::Cycle(_)));
    }

    #[test]
    fn self_cycle_detected() {
        let err = RateTable::parse("rate A = A + 1;").unwrap_err();
        assert!(matches!(err, RcipError::Cycle(_)));
    }

    #[test]
    fn undefined_reference() {
        let err = RateTable::parse("rate A = Missing * 2;").unwrap_err();
        assert!(
            matches!(err, RcipError::Undefined { ref name, .. } if name == "Missing"),
            "{err:?}"
        );
    }

    #[test]
    fn redefinition_rejected() {
        let err = RateTable::parse("rate A = 1; rate A = 2;").unwrap_err();
        assert_eq!(err, RcipError::Redefined("A".to_string()));
    }

    #[test]
    fn division_by_zero() {
        let err = RateTable::parse("rate A = 1 / 0;").unwrap_err();
        assert_eq!(err, RcipError::DivisionByZero("A".to_string()));
    }

    #[test]
    fn bounds_resolved_per_canonical_id() {
        let t = RateTable::parse("rate K = 2; bound K in [0.5, 8];").unwrap();
        let id = t.id("K").unwrap();
        let b = t.bounds(id).unwrap();
        assert_eq!((b.lo, b.hi), (0.5, 8.0));
        assert!(b.contains(2.0));
        assert!(!b.contains(10.0));
        assert_eq!(b.clamp(100.0), 8.0);
    }

    #[test]
    fn bound_for_unknown_name() {
        let err = RateTable::parse("bound K in [0, 1];").unwrap_err();
        assert_eq!(err, RcipError::BoundForUnknown("K".to_string()));
    }

    #[test]
    fn empty_bound_rejected() {
        let err = RateTable::parse("rate K = 1; bound K in [2, 1];").unwrap_err();
        assert!(matches!(err, RcipError::EmptyBound { .. }));
    }

    #[test]
    fn bounds_vectors_default() {
        let t = RateTable::parse("rate A = 1; rate B = 2; bound B in [0.1, 5];").unwrap();
        let (lo, hi) = t.bounds_vectors();
        assert_eq!(lo, vec![0.0, 0.1]);
        assert_eq!(hi[0], f64::INFINITY);
        assert_eq!(hi[1], 5.0);
    }

    #[test]
    fn programmatic_define() {
        let mut t = RateTable::default();
        let a = t.define("K_A", 2.0).unwrap();
        let b = t.define("K_B", 2.0).unwrap();
        let c = t.define("K_C", 3.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(t.define("K_A", 9.0).is_err());
        t.set_bounds(c, 0.0, 10.0).unwrap();
        assert!(t.bounds(c).is_some());
    }

    #[test]
    fn paper_style_ten_distinct_parameters() {
        // Mirror the benchmark setup: many reaction-specific names mapping
        // onto 10 distinct values.
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!("rate BASE{i} = {};\n", i + 1));
        }
        for i in 0..50 {
            src.push_str(&format!("rate K{i} = BASE{};\n", i % 10));
        }
        let t = RateTable::parse(&src).unwrap();
        assert_eq!(t.distinct_count(), 10);
        assert_eq!(t.name_count(), 60);
    }
}
