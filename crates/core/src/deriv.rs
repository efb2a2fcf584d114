//! Symbolic differentiation: the compiler emits the Jacobian, too.
//!
//! The paper's backend generates the one function an explicit solver
//! needs — the right-hand side. An *implicit* solver needs a second
//! function, `J = ∂f/∂y`, and computing it numerically at runtime is
//! both the dominant per-step cost and an accuracy trap. Since the
//! optimizer already holds every right-hand side symbolically (§3), it
//! can differentiate the forest exactly and reuse the whole pass
//! pipeline: the derivative expressions run through the same
//! canonical-order CSE as the RHS, so products shared between `f` and
//! `J` (mass-action terms and their cofactors) are computed once, and
//! the Jacobian's structural sparsity falls directly out of the
//! expression structure — no runtime dependency scan, no heuristics.
//!
//! Differentiation is forward-mode over the forest *without* inlining
//! temporaries: each CSE temporary `t_k` gets derivative temporaries
//! `∂t_k/∂y_j` for the species in its support, and the chain rule
//! threads through `Temp` references. This keeps the derivative IR
//! proportional to the optimized — not the flattened — RHS size.
//!
//! It is also *sparse* forward mode: one bottom-up walk of an
//! expression returns every nonzero partial at once (`Wrt::gradient`),
//! so differentiating costs O(nodes in + nodes out) — what it emits —
//! instead of one walk of the whole tree per variable it depends on.

use std::sync::Arc;
use std::time::Instant;

use crate::cse::{cse_forest, CseOptions};
use crate::expr::{Coeff, Expr, ExprForest, TempId};
use crate::tape::{compact_registers_multi, lower_split_multi, Tape};

/// The compiler's full output for an implicit solver: the RHS tape plus
/// a CSE-shared analytic Jacobian tape over one register file.
#[derive(Debug, Clone)]
pub struct JacobianTapes {
    /// RHS program: `ydot[i] = f_i(y)`.
    pub rhs: Tape,
    /// Jacobian program: output `e` is `∂f_i/∂y_j` for
    /// `entries[e] = (i, j)`. Reads registers computed by [`rhs`], so it
    /// must run immediately after it on the same scratch file.
    ///
    /// [`rhs`]: JacobianTapes::rhs
    pub jac: Tape,
    /// `(row, column)` of each Jacobian output, row-major with columns
    /// ascending within a row — the exact structural sparsity.
    pub entries: Vec<(u32, u32)>,
    /// State dimension (rows = columns of the Jacobian).
    pub n_species: usize,
}

impl JacobianTapes {
    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Per-row column lists (the shape `SparsityPattern::new` takes).
    pub fn pattern_rows(&self) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); self.n_species];
        for &(i, j) in &self.entries {
            rows[i as usize].push(j);
        }
        rows
    }

    /// Evaluate both tapes: `ydot` receives the RHS, `vals` the Jacobian
    /// nonzeros (length [`nnz`](JacobianTapes::nnz), in `entries` order).
    /// The shared `regs` scratch is what lets the Jacobian tape read
    /// every subexpression the RHS tape already computed.
    pub fn eval_with_scratch(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        vals: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        self.rhs.eval_with_scratch(rates, y, ydot, regs);
        self.jac.eval_with_scratch(rates, y, vals, regs);
    }
}

/// `(row, column)` index of each output of one derivative group.
type Entries = Vec<(u32, u32)>;

/// The atom kind a derivative group differentiates with respect to. The
/// other kind is a constant of that group: states do not depend on the
/// rate constants here (that coupling is the `J·s` term the sensitivity
/// ODE adds back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wrt {
    /// `∂/∂y_j`: the state Jacobian.
    Species,
    /// `∂/∂p_k` with the rate constants as the parameters.
    Rate,
}

/// Nonzero partials of one expression as `(variable, ∂expr/∂variable)`,
/// ascending by variable — exactly the variables the expression
/// structurally depends on.
type Gradient = Vec<(u32, Expr)>;

impl Wrt {
    /// Sparse forward-mode gradient of `expr` in one bottom-up walk.
    ///
    /// `expr` is in the input temp-id space and the partials in the
    /// output space: value temps go through `temp_map`, and the partials
    /// of `Temp(t)` are the derivative temporaries already emitted for
    /// it, `dtemps[t]` (ascending variable; absent = identically zero).
    ///
    /// Every partial is built by the smart constructors from the same
    /// terms in the same order as a per-variable walk of the tree would
    /// hand them: a `Sum` contributes its children's partials in child
    /// order, a `Prod` one product-rule term `c · f_k' · Π_{l≠k} f_l` per
    /// factor in factor order, and the terms it skips are exactly the
    /// identically-zero ones, which `Expr::sum` folds away anyway. So
    /// term order, constant folding and the structural-sparsity test do
    /// not depend on how the walk is scheduled.
    fn gradient(self, expr: &Expr, temp_map: &[TempId], dtemps: &[Vec<(u32, TempId)>]) -> Gradient {
        visit();
        match (self, expr) {
            (Wrt::Species, Expr::Species(i)) | (Wrt::Rate, Expr::Rate(i)) => {
                vec![(*i, Expr::constant(1.0))]
            }
            (_, Expr::Const(_) | Expr::Species(_) | Expr::Rate(_)) => Vec::new(),
            (_, Expr::Temp(t)) => dtemps[t.0 as usize]
                .iter()
                .map(|&(j, d)| (j, Expr::Temp(d)))
                .collect(),
            (_, Expr::Sum(children)) => bucket_by_variable(
                children
                    .iter()
                    .flat_map(|c| self.gradient(c, temp_map, dtemps))
                    .collect(),
            ),
            (_, Expr::Prod(Coeff(c), factors)) => {
                let partials: Vec<Gradient> = factors
                    .iter()
                    .map(|f| self.gradient(f, temp_map, dtemps))
                    .collect();
                if partials.iter().all(Vec::is_empty) {
                    return Vec::new();
                }
                let values: Vec<Expr> = factors
                    .iter()
                    .map(|f| remap_temp_ids(f, temp_map))
                    .collect();
                let mut terms = Vec::new();
                for (k, dfk) in partials.into_iter().enumerate() {
                    for (j, dk) in dfk {
                        let mut fs = Vec::with_capacity(factors.len());
                        fs.push(dk);
                        fs.extend(values[..k].iter().cloned());
                        fs.extend(values[k + 1..].iter().cloned());
                        terms.push((j, Expr::prod(*c, fs)));
                    }
                }
                bucket_by_variable(terms)
            }
        }
    }
}

/// Close a node's gradient: `(variable, term)` contributions in
/// emission order become one `Expr::sum` per variable, ascending. The
/// sort is stable, so each variable's terms keep the order they were
/// pushed in; sums that fold to zero (a zero coefficient, constants
/// that cancel) are structural zeros and drop out.
fn bucket_by_variable(mut terms: Vec<(u32, Expr)>) -> Gradient {
    terms.sort_by_key(|&(j, _)| j);
    let mut out = Vec::new();
    let mut terms = terms.into_iter().peekable();
    while let Some((j, first)) = terms.next() {
        let mut bucket = vec![first];
        while let Some((_, term)) = terms.next_if(|&(k, _)| k == j) {
            bucket.push(term);
        }
        let d = Expr::sum(bucket);
        if !is_zero(&d) {
            out.push((j, d));
        }
    }
    out
}

/// Differentiate a forest once per group of `groups`: returns a combined
/// forest whose outputs are, in order, the (temp-renumbered) right-hand
/// sides and then each group's structurally nonzero entries, plus each
/// group's `(row, variable)` index list.
///
/// Entries are emitted row-major, variables ascending. An entry appears
/// iff the derivative is not *identically* zero after constant folding —
/// exact structural sparsity, conservative against value cancellation.
fn differentiate(forest: &ExprForest, groups: &[Wrt]) -> (ExprForest, Vec<Entries>) {
    let m = forest.temps.len();
    // Output-space temps: each input temp, immediately followed by its
    // derivative temps group by group, so write-before-read order is
    // preserved (temps are in emission order: bodies only reference
    // earlier temps).
    let mut new_temps: Vec<Expr> = Vec::new();
    let mut temp_map: Vec<TempId> = Vec::with_capacity(m);
    // `dtemps[g][k]`: the derivative temps emitted for input temp `k` in
    // group `g`, ascending by variable.
    let mut dtemps: Vec<Vec<Vec<(u32, TempId)>>> = vec![Vec::with_capacity(m); groups.len()];
    for body in &forest.temps {
        let id = TempId(new_temps.len() as u32);
        new_temps.push(remap_temp_ids(body, &temp_map));
        temp_map.push(id);
        for (wrt, dtemps) in groups.iter().zip(&mut dtemps) {
            let emitted = wrt
                .gradient(body, &temp_map, dtemps)
                .into_iter()
                .map(|(j, d)| {
                    let did = TempId(new_temps.len() as u32);
                    new_temps.push(d);
                    (j, did)
                })
                .collect();
            dtemps.push(emitted);
        }
    }
    let mut rhs: Vec<Expr> = forest
        .rhs
        .iter()
        .map(|e| remap_temp_ids(e, &temp_map))
        .collect();
    let mut entries: Vec<Entries> = Vec::with_capacity(groups.len());
    for (wrt, dtemps) in groups.iter().zip(&dtemps) {
        let mut group = Vec::new();
        for (i, e) in forest.rhs.iter().enumerate() {
            for (j, d) in wrt.gradient(e, &temp_map, dtemps) {
                group.push((i as u32, j));
                rhs.push(d);
            }
        }
        entries.push(group);
    }
    (
        ExprForest {
            temps: new_temps,
            rhs,
            n_species: forest.n_species,
            n_rates: forest.n_rates,
        },
        entries,
    )
}

/// Differentiate a forest with respect to the state: returns a combined
/// forest whose first `n_species` outputs are the (temp-renumbered)
/// right-hand sides and whose remaining outputs are the structurally
/// nonzero Jacobian entries, plus the `(row, col)` index of each entry.
pub fn differentiate_forest(forest: &ExprForest) -> (ExprForest, Entries) {
    let (combined, entries) = differentiate(forest, &[Wrt::Species]);
    let [entries]: [Entries; 1] = entries.try_into().expect("one list per group");
    (combined, entries)
}

/// Differentiate a forest with respect to both the state *and* the rate
/// constants: returns a combined forest whose outputs are, in order, the
/// (temp-renumbered) right-hand sides, the structurally nonzero state-
/// Jacobian entries, and the structurally nonzero `∂f/∂p` entries, plus
/// the index lists of both entry groups.
pub fn differentiate_forest_sensitivity(forest: &ExprForest) -> (ExprForest, Entries, Entries) {
    let (combined, entries) = differentiate(forest, &[Wrt::Species, Wrt::Rate]);
    let [jac_entries, dfdp_entries]: [Entries; 2] = entries.try_into().expect("one list per group");
    (combined, jac_entries, dfdp_entries)
}

/// Where one or more `compile_*_timed` calls spent their wall time,
/// accumulated across calls: the *Deriv* stage record's split.
#[derive(Debug, Default, Clone, Copy)]
pub struct DerivTimes {
    /// Symbolic differentiation of the forest.
    pub diff_seconds: f64,
    /// Re-CSE of the combined RHS + derivative forest.
    pub cse_seconds: f64,
    /// Split lowering and joint register compaction.
    pub lower_seconds: f64,
    /// Differentiate → CSE → lower passes timed: one per group compiled.
    pub passes: usize,
}

/// Differentiate, re-CSE and lower `forest` into one register-sharing
/// tape per output group: the RHS tape, then one per entry of `groups`.
fn compile_groups(
    forest: &ExprForest,
    cse: Option<CseOptions>,
    groups: &[Wrt],
    times: &mut DerivTimes,
) -> (Vec<Tape>, Vec<Entries>) {
    let mut clock = Instant::now();
    let mut lap = |seconds: &mut f64| {
        *seconds += clock.elapsed().as_secs_f64();
        clock = Instant::now();
    };
    times.passes += 1;
    let (mut combined, entries) = differentiate(forest, groups);
    lap(&mut times.diff_seconds);
    if let Some(options) = cse {
        // The assignment frees the pre-CSE forest — by far the largest
        // value of the stage — before any tape is built.
        combined = cse_forest(&combined, options);
    }
    lap(&mut times.cse_seconds);
    let counts: Vec<usize> = std::iter::once(forest.n_species)
        .chain(entries.iter().map(Vec::len))
        .collect();
    let tapes = lower_split_multi(&combined, &counts);
    drop(combined);
    let tapes = compact_registers_multi(&tapes.iter().collect::<Vec<_>>());
    lap(&mut times.lower_seconds);
    (tapes, entries)
}

/// Compile a forest into RHS + analytic-Jacobian tapes.
///
/// With `cse` set, the combined forest is re-CSE'd so subexpressions are
/// shared *across* the RHS/Jacobian boundary; the split lowering then
/// places each temporary on the first tape that needs it and compacts
/// one register file across both.
pub fn compile_jacobian(forest: &ExprForest, cse: Option<CseOptions>) -> JacobianTapes {
    compile_jacobian_timed(forest, cse, &mut DerivTimes::default())
}

/// [`compile_jacobian`], adding the time of each phase to `times`.
pub fn compile_jacobian_timed(
    forest: &ExprForest,
    cse: Option<CseOptions>,
    times: &mut DerivTimes,
) -> JacobianTapes {
    let (tapes, entries) = compile_groups(forest, cse, &[Wrt::Species], times);
    let [rhs, jac]: [Tape; 2] = tapes.try_into().expect("RHS tape + one per group");
    let [entries]: [Entries; 1] = entries.try_into().expect("one list per group");
    JacobianTapes {
        rhs,
        jac,
        entries,
        n_species: forest.n_species,
    }
}

/// The compiler's full output for a forward-sensitivity solver: the
/// Jacobian pair extended by the parameter gradient `∂f/∂p` (with the
/// kinetic rate constants as the parameters), three tapes over one
/// register file. The parameter tape runs *last*, so a solve that only
/// wants a Jacobian refresh runs [`state`](SensitivityTapes::state) and
/// stops there — it is the artifact's one analytic Jacobian, whether or
/// not a solve goes on to the tail.
#[derive(Debug, Clone)]
pub struct SensitivityTapes {
    /// RHS + state Jacobian `∂f/∂y`, the head of the group.
    pub state: Arc<JacobianTapes>,
    /// Parameter-gradient program; output `e` is `∂f_i/∂p_k` for
    /// `dfdp_entries[e] = (i, k)` with `p_k` the `k`-th rate constant.
    /// Runs right after [`state`](SensitivityTapes::state) on the same
    /// scratch file.
    pub dfdp: Tape,
    /// `(species row, rate index)` of each parameter-gradient output,
    /// row-major with rate indices ascending within a row.
    pub dfdp_entries: Vec<(u32, u32)>,
    /// Parameter count (rate constants).
    pub n_rates: usize,
}

impl SensitivityTapes {
    /// Structural nonzeros of the state Jacobian.
    pub fn jac_nnz(&self) -> usize {
        self.state.nnz()
    }

    /// Structural nonzeros of `∂f/∂p`.
    pub fn dfdp_nnz(&self) -> usize {
        self.dfdp_entries.len()
    }

    /// Evaluate the RHS and state-Jacobian tapes only (what an implicit
    /// solver's Jacobian refresh needs): `ydot` receives the RHS,
    /// `jac_vals` the Jacobian nonzeros in entry order.
    pub fn eval_rhs_jac(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        jac_vals: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        self.state.eval_with_scratch(rates, y, ydot, jac_vals, regs);
    }

    /// Evaluate all three tapes: additionally fills `dfdp_vals` with the
    /// `∂f/∂p` nonzeros (length [`dfdp_nnz`](SensitivityTapes::dfdp_nnz),
    /// in `dfdp_entries` order). The shared `regs` scratch is what lets
    /// each later tape read every subexpression already computed.
    pub fn eval_all(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        jac_vals: &mut [f64],
        dfdp_vals: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        self.eval_rhs_jac(rates, y, ydot, jac_vals, regs);
        self.eval_dfdp_resumed(rates, y, dfdp_vals, regs);
    }

    /// Resume an [`eval_rhs_jac`](SensitivityTapes::eval_rhs_jac) pass:
    /// evaluate only the `dfdp` tape over the register file that pass
    /// filled. The caller must guarantee `regs` comes from an
    /// `eval_rhs_jac`/`eval_all` call at the same `(rates, y)` — the
    /// dfdp tape reads subexpressions the head of the group computed.
    pub fn eval_dfdp_resumed(
        &self,
        rates: &[f64],
        y: &[f64],
        dfdp_vals: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        self.dfdp.eval_with_scratch(rates, y, dfdp_vals, regs);
    }
}

/// Compile a forest into RHS + state-Jacobian + `∂f/∂p` tapes for
/// forward sensitivity analysis.
///
/// With `cse` set, the combined forest is re-CSE'd so subexpressions are
/// shared across all three output groups; the split lowering then places
/// each temporary on the first tape that needs it and compacts one
/// register file across the triple.
pub fn compile_sensitivity(forest: &ExprForest, cse: Option<CseOptions>) -> SensitivityTapes {
    compile_sensitivity_timed(forest, cse, &mut DerivTimes::default())
}

/// [`compile_sensitivity`], adding the time of each phase to `times`.
pub fn compile_sensitivity_timed(
    forest: &ExprForest,
    cse: Option<CseOptions>,
    times: &mut DerivTimes,
) -> SensitivityTapes {
    let (tapes, entries) = compile_groups(forest, cse, &[Wrt::Species, Wrt::Rate], times);
    let [rhs, jac, dfdp]: [Tape; 3] = tapes.try_into().expect("RHS tape + one per group");
    let [entries, dfdp_entries]: [Entries; 2] = entries.try_into().expect("one list per group");
    SensitivityTapes {
        state: Arc::new(JacobianTapes {
            rhs,
            jac,
            entries,
            n_species: forest.n_species,
        }),
        dfdp,
        dfdp_entries,
        n_rates: forest.n_rates,
    }
}

/// The Deriv stage's output for one artifact: one register-sharing tape
/// group, with or without the `∂f/∂p` tail.
#[derive(Debug, Clone)]
pub enum DerivTapes {
    /// RHS + `∂f/∂y`.
    Jacobian(Arc<JacobianTapes>),
    /// RHS + `∂f/∂y` + `∂f/∂p`.
    Sensitivity(Arc<SensitivityTapes>),
}

impl DerivTapes {
    /// The RHS + `∂f/∂y` pair every group starts with.
    pub fn state(&self) -> &Arc<JacobianTapes> {
        match self {
            DerivTapes::Jacobian(tapes) => tapes,
            DerivTapes::Sensitivity(tapes) => &tapes.state,
        }
    }

    /// The group with its `∂f/∂p` tail, when it was compiled with one.
    pub fn sensitivity(&self) -> Option<&Arc<SensitivityTapes>> {
        match self {
            DerivTapes::Jacobian(_) => None,
            DerivTapes::Sensitivity(tapes) => Some(tapes),
        }
    }
}

fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::Const(Coeff(v)) if *v == 0.0)
}

#[cfg(test)]
thread_local! {
    /// Nodes visited by [`Wrt::gradient`] and [`remap_temp_ids`] on this
    /// thread: the work measure of the linear-work test.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one node visit (test builds only).
#[inline(always)]
fn visit() {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + 1));
}

/// Renumber `Temp` references from the input forest's id space to the
/// output's. The map is monotone, so canonical child ordering survives a
/// structural rebuild.
fn remap_temp_ids(expr: &Expr, temp_map: &[TempId]) -> Expr {
    visit();
    match expr {
        Expr::Temp(t) => Expr::Temp(temp_map[t.0 as usize]),
        Expr::Prod(c, factors) => Expr::Prod(
            *c,
            factors
                .iter()
                .map(|f| remap_temp_ids(f, temp_map))
                .collect(),
        ),
        Expr::Sum(children) => Expr::Sum(
            children
                .iter()
                .map(|c| remap_temp_ids(c, temp_map))
                .collect(),
        ),
        atom => atom.clone(),
    }
}

/// The per-variable walkers the sparse gradient replaced, kept verbatim
/// as the reference the property test compares it against: one full walk
/// of an expression per variable in its support.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    use super::{is_zero, remap_temp_ids};
    use crate::expr::{Coeff, Expr, ExprForest, TempId};

    pub fn differentiate_forest(forest: &ExprForest) -> (ExprForest, Vec<(u32, u32)>) {
        let m = forest.temps.len();
        // Species support of every temp, transitively through temp refs
        // (temps are in emission order: bodies only reference earlier temps).
        let mut temp_support: Vec<BTreeSet<u32>> = Vec::with_capacity(m);
        for body in &forest.temps {
            let s = support(body, &temp_support);
            temp_support.push(s);
        }
        // Output-space temps: each input temp, immediately followed by its
        // derivative temps, so write-before-read order is preserved.
        let mut new_temps: Vec<Expr> = Vec::new();
        let mut temp_map: Vec<TempId> = Vec::with_capacity(m);
        let mut dmap: HashMap<(u32, u32), TempId> = HashMap::new();
        for (k, body) in forest.temps.iter().enumerate() {
            let id = TempId(new_temps.len() as u32);
            new_temps.push(remap_temp_ids(body, &temp_map));
            temp_map.push(id);
            for &j in &temp_support[k] {
                let d = diff(body, j, &temp_map, &dmap);
                if !is_zero(&d) {
                    let did = TempId(new_temps.len() as u32);
                    new_temps.push(d);
                    dmap.insert((k as u32, j), did);
                }
            }
        }
        let mut rhs: Vec<Expr> = forest
            .rhs
            .iter()
            .map(|e| remap_temp_ids(e, &temp_map))
            .collect();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for (i, e) in forest.rhs.iter().enumerate() {
            for j in support(e, &temp_support) {
                let d = diff(e, j, &temp_map, &dmap);
                if !is_zero(&d) {
                    entries.push((i as u32, j));
                    rhs.push(d);
                }
            }
        }
        (
            ExprForest {
                temps: new_temps,
                rhs,
                n_species: forest.n_species,
                n_rates: forest.n_rates,
            },
            entries,
        )
    }

    #[allow(clippy::type_complexity)]
    pub fn differentiate_forest_sensitivity(
        forest: &ExprForest,
    ) -> (ExprForest, Vec<(u32, u32)>, Vec<(u32, u32)>) {
        let m = forest.temps.len();
        // Species and rate support of every temp, transitively.
        let mut temp_support: Vec<BTreeSet<u32>> = Vec::with_capacity(m);
        let mut temp_rates: Vec<BTreeSet<u32>> = Vec::with_capacity(m);
        for body in &forest.temps {
            temp_support.push(support(body, &temp_support));
            temp_rates.push(rate_support(body, &temp_rates));
        }
        // Output-space temps: each input temp, immediately followed by its
        // state-derivative temps, then its rate-derivative temps, so
        // write-before-read order is preserved.
        let mut new_temps: Vec<Expr> = Vec::new();
        let mut temp_map: Vec<TempId> = Vec::with_capacity(m);
        let mut dmap: HashMap<(u32, u32), TempId> = HashMap::new();
        let mut pmap: HashMap<(u32, u32), TempId> = HashMap::new();
        for (k, body) in forest.temps.iter().enumerate() {
            let id = TempId(new_temps.len() as u32);
            new_temps.push(remap_temp_ids(body, &temp_map));
            temp_map.push(id);
            for &j in &temp_support[k] {
                let d = diff(body, j, &temp_map, &dmap);
                if !is_zero(&d) {
                    let did = TempId(new_temps.len() as u32);
                    new_temps.push(d);
                    dmap.insert((k as u32, j), did);
                }
            }
            for &r in &temp_rates[k] {
                let d = diff_rate(body, r, &temp_map, &pmap);
                if !is_zero(&d) {
                    let did = TempId(new_temps.len() as u32);
                    new_temps.push(d);
                    pmap.insert((k as u32, r), did);
                }
            }
        }
        let mut rhs: Vec<Expr> = forest
            .rhs
            .iter()
            .map(|e| remap_temp_ids(e, &temp_map))
            .collect();
        let mut jac_entries: Vec<(u32, u32)> = Vec::new();
        for (i, e) in forest.rhs.iter().enumerate() {
            for j in support(e, &temp_support) {
                let d = diff(e, j, &temp_map, &dmap);
                if !is_zero(&d) {
                    jac_entries.push((i as u32, j));
                    rhs.push(d);
                }
            }
        }
        let mut dfdp_entries: Vec<(u32, u32)> = Vec::new();
        for (i, e) in forest.rhs.iter().enumerate() {
            for r in rate_support(e, &temp_rates) {
                let d = diff_rate(e, r, &temp_map, &pmap);
                if !is_zero(&d) {
                    dfdp_entries.push((i as u32, r));
                    rhs.push(d);
                }
            }
        }
        (
            ExprForest {
                temps: new_temps,
                rhs,
                n_species: forest.n_species,
                n_rates: forest.n_rates,
            },
            jac_entries,
            dfdp_entries,
        )
    }

    /// Species a value depends on (through temp references).
    fn support(expr: &Expr, temp_support: &[BTreeSet<u32>]) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        collect_support(expr, temp_support, &mut out);
        out
    }

    fn collect_support(expr: &Expr, temp_support: &[BTreeSet<u32>], out: &mut BTreeSet<u32>) {
        match expr {
            Expr::Species(i) => {
                out.insert(*i);
            }
            Expr::Temp(t) => out.extend(temp_support[t.0 as usize].iter().copied()),
            Expr::Prod(_, factors) => {
                for f in factors {
                    collect_support(f, temp_support, out);
                }
            }
            Expr::Sum(children) => {
                for c in children {
                    collect_support(c, temp_support, out);
                }
            }
            Expr::Const(_) | Expr::Rate(_) => {}
        }
    }

    /// Rate constants a value depends on (through temp references).
    fn rate_support(expr: &Expr, temp_rates: &[BTreeSet<u32>]) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        collect_rate_support(expr, temp_rates, &mut out);
        out
    }

    fn collect_rate_support(expr: &Expr, temp_rates: &[BTreeSet<u32>], out: &mut BTreeSet<u32>) {
        match expr {
            Expr::Rate(r) => {
                out.insert(*r);
            }
            Expr::Temp(t) => out.extend(temp_rates[t.0 as usize].iter().copied()),
            Expr::Prod(_, factors) => {
                for f in factors {
                    collect_rate_support(f, temp_rates, out);
                }
            }
            Expr::Sum(children) => {
                for c in children {
                    collect_rate_support(c, temp_rates, out);
                }
            }
            Expr::Const(_) | Expr::Species(_) => {}
        }
    }

    /// `∂expr/∂y_j` with `expr` in the input temp-id space and the result in
    /// the output space: value temps go through `temp_map`, derivatives of
    /// temps resolve to the already-emitted temporaries in `dmap` (absent =
    /// identically zero).
    fn diff(expr: &Expr, j: u32, temp_map: &[TempId], dmap: &HashMap<(u32, u32), TempId>) -> Expr {
        match expr {
            Expr::Const(_) | Expr::Rate(_) => Expr::constant(0.0),
            Expr::Species(i) => Expr::constant(if *i == j { 1.0 } else { 0.0 }),
            Expr::Temp(t) => match dmap.get(&(t.0, j)) {
                Some(&d) => Expr::Temp(d),
                None => Expr::constant(0.0),
            },
            Expr::Prod(Coeff(c), factors) => {
                // Product rule: Σ_k c · f_k' · Π_{l≠k} f_l.
                let mut terms = Vec::new();
                for (k, fk) in factors.iter().enumerate() {
                    let dk = diff(fk, j, temp_map, dmap);
                    if is_zero(&dk) {
                        continue;
                    }
                    let mut fs = Vec::with_capacity(factors.len());
                    fs.push(dk);
                    for (l, fl) in factors.iter().enumerate() {
                        if l != k {
                            fs.push(remap_temp_ids(fl, temp_map));
                        }
                    }
                    terms.push(Expr::prod(*c, fs));
                }
                Expr::sum(terms)
            }
            Expr::Sum(children) => Expr::sum(
                children
                    .iter()
                    .map(|c| diff(c, j, temp_map, dmap))
                    .collect(),
            ),
        }
    }

    /// `∂expr/∂p_r` (rate constant `r`) with `expr` in the input temp-id
    /// space and the result in the output space: value temps go through
    /// `temp_map`, derivatives of temps resolve through `pmap` (absent =
    /// identically zero). Mirrors [`diff`] with the roles of `Species` and
    /// `Rate` atoms exchanged: states do not depend on the parameters here
    /// (that coupling is the `J·s` term the sensitivity ODE adds back).
    fn diff_rate(
        expr: &Expr,
        r: u32,
        temp_map: &[TempId],
        pmap: &HashMap<(u32, u32), TempId>,
    ) -> Expr {
        match expr {
            Expr::Const(_) | Expr::Species(_) => Expr::constant(0.0),
            Expr::Rate(i) => Expr::constant(if *i == r { 1.0 } else { 0.0 }),
            Expr::Temp(t) => match pmap.get(&(t.0, r)) {
                Some(&d) => Expr::Temp(d),
                None => Expr::constant(0.0),
            },
            Expr::Prod(Coeff(c), factors) => {
                let mut terms = Vec::new();
                for (k, fk) in factors.iter().enumerate() {
                    let dk = diff_rate(fk, r, temp_map, pmap);
                    if is_zero(&dk) {
                        continue;
                    }
                    let mut fs = Vec::with_capacity(factors.len());
                    fs.push(dk);
                    for (l, fl) in factors.iter().enumerate() {
                        if l != k {
                            fs.push(remap_temp_ids(fl, temp_map));
                        }
                    }
                    terms.push(Expr::prod(*c, fs));
                }
                Expr::sum(terms)
            }
            Expr::Sum(children) => Expr::sum(
                children
                    .iter()
                    .map(|c| diff_rate(c, r, temp_map, pmap))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{lower, reroll, RerollOptions};

    fn term(c: f64, rate: u32, species: &[u32]) -> Expr {
        let mut f = vec![Expr::Rate(rate)];
        f.extend(species.iter().map(|&s| Expr::Species(s)));
        Expr::prod(c, f)
    }

    fn forest(rhs: Vec<Expr>, n_species: usize) -> ExprForest {
        ExprForest {
            temps: vec![],
            rhs,
            n_species,
            n_rates: 8,
        }
    }

    /// Dense Jacobian by naive interpretation of the combined forest.
    fn dense_jacobian(tapes: &JacobianTapes, rates: &[f64], y: &[f64]) -> Vec<Vec<f64>> {
        let n = tapes.n_species;
        let mut ydot = vec![0.0; n];
        let mut vals = vec![0.0; tapes.nnz()];
        let mut regs = Vec::new();
        tapes.eval_with_scratch(rates, y, &mut ydot, &mut vals, &mut regs);
        let mut jac = vec![vec![0.0; n]; n];
        for (e, &(i, j)) in tapes.entries.iter().enumerate() {
            jac[i as usize][j as usize] = vals[e];
        }
        jac
    }

    /// Central finite difference of the forest itself.
    fn fd_entry(f: &ExprForest, rates: &[f64], y: &[f64], i: usize, j: usize) -> f64 {
        let h = 1e-6 * y[j].abs().max(1.0);
        let mut yp = y.to_vec();
        let mut ym = y.to_vec();
        yp[j] += h;
        ym[j] -= h;
        let mut fp = vec![0.0; f.rhs.len()];
        let mut fm = vec![0.0; f.rhs.len()];
        f.eval_into(rates, &yp, &mut fp);
        f.eval_into(rates, &ym, &mut fm);
        (fp[i] - fm[i]) / (2.0 * h)
    }

    #[test]
    fn mass_action_derivatives_exact() {
        // f0 = -k0*y0*y1, f1 = k0*y0*y1 - k1*y1
        let f = forest(
            vec![
                term(-1.0, 0, &[0, 1]),
                Expr::sum(vec![term(1.0, 0, &[0, 1]), term(-1.0, 1, &[1])]),
            ],
            2,
        );
        let tapes = compile_jacobian(&f, None);
        assert_eq!(tapes.entries, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        let rates = [2.0, 3.0];
        let y = [5.0, 7.0];
        let jac = dense_jacobian(&tapes, &rates, &y);
        // ∂f0/∂y0 = -k0*y1, ∂f0/∂y1 = -k0*y0
        assert_eq!(jac[0][0], -2.0 * 7.0);
        assert_eq!(jac[0][1], -2.0 * 5.0);
        // ∂f1/∂y0 = k0*y1, ∂f1/∂y1 = k0*y0 - k1
        assert_eq!(jac[1][0], 2.0 * 7.0);
        assert_eq!(jac[1][1], 2.0 * 5.0 - 3.0);
    }

    #[test]
    fn squared_species_uses_power_rule() {
        // f0 = k0*y0^2 → ∂/∂y0 = 2*k0*y0
        let f = forest(vec![term(1.0, 0, &[0, 0])], 1);
        let tapes = compile_jacobian(&f, None);
        assert_eq!(tapes.entries, vec![(0, 0)]);
        let jac = dense_jacobian(&tapes, &[3.0], &[4.0]);
        assert_eq!(jac[0][0], 2.0 * 3.0 * 4.0);
    }

    #[test]
    fn sparsity_is_exact_not_dense() {
        // f0 depends only on y0, f1 only on y2: 2 entries, not 6.
        let f = forest(
            vec![term(-1.0, 0, &[0]), term(1.0, 1, &[2]), Expr::constant(0.0)],
            3,
        );
        let (_, entries) = differentiate_forest(&f);
        assert_eq!(entries, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn chain_rule_through_temps() {
        // t0 = k0*y0*y1; f0 = t0, f1 = -2*t0 + k1*y1
        let f = ExprForest {
            temps: vec![term(1.0, 0, &[0, 1])],
            rhs: vec![
                Expr::Temp(TempId(0)),
                Expr::sum(vec![
                    Expr::prod(-2.0, vec![Expr::Temp(TempId(0))]),
                    term(1.0, 1, &[1]),
                ]),
            ],
            n_species: 2,
            n_rates: 2,
        };
        let tapes = compile_jacobian(&f, None);
        let rates = [2.0, 3.0];
        let y = [5.0, 7.0];
        let jac = dense_jacobian(&tapes, &rates, &y);
        assert_eq!(jac[0][0], 2.0 * 7.0);
        assert_eq!(jac[0][1], 2.0 * 5.0);
        assert_eq!(jac[1][0], -2.0 * 2.0 * 7.0);
        assert_eq!(jac[1][1], -2.0 * 2.0 * 5.0 + 3.0);
    }

    #[test]
    fn combined_forest_matches_naive_eval_and_fd() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for round in 0..25 {
            let n = rng.gen_range(2..6);
            let f = forest(
                (0..n)
                    .map(|_| {
                        Expr::sum(
                            (0..rng.gen_range(1..6))
                                .map(|_| {
                                    let sp: Vec<u32> = (0..rng.gen_range(1..4))
                                        .map(|_| rng.gen_range(0..n as u32))
                                        .collect();
                                    let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                                    term(
                                        sign * rng.gen_range(1..3) as f64,
                                        rng.gen_range(0..4),
                                        &sp,
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                n,
            );
            // Optimize first so the input forest has temps to chain through.
            let optimized = cse_forest(
                &crate::distopt::distribute_forest(&f),
                CseOptions::default(),
            );
            let (combined, entries) = differentiate_forest(&optimized);
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
            // Naive interpretation of the combined forest...
            let mut naive = vec![0.0; combined.rhs.len()];
            combined.eval_into(&rates, &y, &mut naive);
            // ...must match the monolithic lowering...
            let tape = lower(&combined);
            let mut via_tape = vec![0.0; combined.rhs.len()];
            tape.eval(&rates, &y, &mut via_tape);
            // ...and the split/compacted pair.
            let tapes = compile_jacobian(&optimized, Some(CseOptions::default()));
            assert_eq!(tapes.entries, entries, "round {round}: entry mismatch");
            let mut ydot = vec![0.0; n];
            let mut vals = vec![0.0; tapes.nnz()];
            let mut regs = Vec::new();
            tapes.eval_with_scratch(&rates, &y, &mut ydot, &mut vals, &mut regs);
            for i in 0..combined.rhs.len() {
                let got = if i < n { ydot[i] } else { vals[i - n] };
                assert!(
                    (naive[i] - via_tape[i]).abs() <= 1e-9 * naive[i].abs().max(1.0)
                        && (naive[i] - got).abs() <= 1e-9 * naive[i].abs().max(1.0),
                    "round {round} output {i}: naive {} tape {} split {}",
                    naive[i],
                    via_tape[i],
                    got
                );
            }
            // And the entries must be true derivatives (FD cross-check).
            for &(i, j) in entries.iter().take(12) {
                let analytic = naive[n + entries.iter().position(|e| *e == (i, j)).unwrap()];
                let fd = fd_entry(&f, &rates, &y, i as usize, j as usize);
                assert!(
                    (analytic - fd).abs() <= 1e-5 * fd.abs().max(1.0),
                    "round {round} ∂f{i}/∂y{j}: analytic {analytic} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn cse_shares_work_between_rhs_and_jacobian() {
        // A chain of bimolecular reactions: the Jacobian entries are the
        // cofactors of the RHS products, so sharing must make the joint
        // tape much cheaper than RHS + independent Jacobian lowering.
        let n = 8usize;
        let mut rhs: Vec<Expr> = (0..n).map(|_| Expr::constant(0.0)).collect();
        for i in 0..n - 1 {
            let t = term(1.0, i as u32 % 4, &[i as u32, i as u32 + 1]);
            rhs[i] = Expr::sum(vec![rhs[i].clone(), Expr::prod(-1.0, vec![t.clone()])]);
            rhs[i + 1] = Expr::sum(vec![rhs[i + 1].clone(), t]);
        }
        let f = forest(rhs, n);
        let shared = compile_jacobian(&f, Some(CseOptions::default()));
        let unshared = compile_jacobian(&f, None);
        let shared_total = shared.rhs.op_counts().total() + shared.jac.op_counts().total();
        let unshared_total = unshared.rhs.op_counts().total() + unshared.jac.op_counts().total();
        assert!(
            shared_total < unshared_total,
            "sharing did not pay: {shared_total} vs {unshared_total}"
        );
        // Both register files are shared between the tape pair.
        assert_eq!(shared.rhs.n_regs, shared.jac.n_regs);
    }

    /// Central finite difference of the forest w.r.t. a rate constant.
    fn fd_rate_entry(f: &ExprForest, rates: &[f64], y: &[f64], i: usize, r: usize) -> f64 {
        let h = 1e-6 * rates[r].abs().max(1.0);
        let mut rp = rates.to_vec();
        let mut rm = rates.to_vec();
        rp[r] += h;
        rm[r] -= h;
        let mut fp = vec![0.0; f.rhs.len()];
        let mut fm = vec![0.0; f.rhs.len()];
        f.eval_into(&rp, y, &mut fp);
        f.eval_into(&rm, y, &mut fm);
        (fp[i] - fm[i]) / (2.0 * h)
    }

    #[test]
    fn rate_derivatives_exact() {
        // f0 = -k0*y0*y1, f1 = k0*y0*y1 - k1*y1
        let f = forest(
            vec![
                term(-1.0, 0, &[0, 1]),
                Expr::sum(vec![term(1.0, 0, &[0, 1]), term(-1.0, 1, &[1])]),
            ],
            2,
        );
        let tapes = compile_sensitivity(&f, None);
        assert_eq!(tapes.state.entries, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(tapes.dfdp_entries, vec![(0, 0), (1, 0), (1, 1)]);
        let rates = [2.0, 3.0];
        let y = [5.0, 7.0];
        let mut ydot = vec![0.0; 2];
        let mut jac_vals = vec![0.0; tapes.jac_nnz()];
        let mut dfdp_vals = vec![0.0; tapes.dfdp_nnz()];
        let mut regs = Vec::new();
        tapes.eval_all(
            &rates,
            &y,
            &mut ydot,
            &mut jac_vals,
            &mut dfdp_vals,
            &mut regs,
        );
        // ∂f0/∂k0 = -y0*y1; ∂f1/∂k0 = y0*y1; ∂f1/∂k1 = -y1.
        assert_eq!(dfdp_vals[0], -5.0 * 7.0);
        assert_eq!(dfdp_vals[1], 5.0 * 7.0);
        assert_eq!(dfdp_vals[2], -7.0);
        // The RHS and Jacobian outputs agree with the jacobian-only compile.
        let jt = compile_jacobian(&f, None);
        let mut ydot2 = vec![0.0; 2];
        let mut vals2 = vec![0.0; jt.nnz()];
        let mut regs2 = Vec::new();
        jt.eval_with_scratch(&rates, &y, &mut ydot2, &mut vals2, &mut regs2);
        assert_eq!(ydot, ydot2);
        assert_eq!(jac_vals, vals2);
    }

    #[test]
    fn sensitivity_tapes_match_fd_on_random_forests() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for round in 0..20 {
            let n = rng.gen_range(2..6);
            let f = forest(
                (0..n)
                    .map(|_| {
                        Expr::sum(
                            (0..rng.gen_range(1..5))
                                .map(|_| {
                                    let sp: Vec<u32> = (0..rng.gen_range(1..4))
                                        .map(|_| rng.gen_range(0..n as u32))
                                        .collect();
                                    let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                                    term(
                                        sign * rng.gen_range(1..3) as f64,
                                        rng.gen_range(0..4),
                                        &sp,
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                n,
            );
            // Optimize first so the input forest has temps to chain through.
            let optimized = cse_forest(
                &crate::distopt::distribute_forest(&f),
                CseOptions::default(),
            );
            let tapes = compile_sensitivity(&optimized, Some(CseOptions::default()));
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
            let mut ydot = vec![0.0; n];
            let mut jac_vals = vec![0.0; tapes.jac_nnz()];
            let mut dfdp_vals = vec![0.0; tapes.dfdp_nnz()];
            let mut regs = Vec::new();
            tapes.eval_all(
                &rates,
                &y,
                &mut ydot,
                &mut jac_vals,
                &mut dfdp_vals,
                &mut regs,
            );
            for (e, &(i, r)) in tapes.dfdp_entries.iter().enumerate() {
                let fd = fd_rate_entry(&f, &rates, &y, i as usize, r as usize);
                assert!(
                    (dfdp_vals[e] - fd).abs() <= 1e-5 * fd.abs().max(1.0),
                    "round {round} ∂f{i}/∂k{r}: analytic {} vs fd {fd}",
                    dfdp_vals[e]
                );
            }
            // Shared register file across the triple.
            assert_eq!(tapes.state.rhs.n_regs, tapes.state.jac.n_regs);
            assert_eq!(tapes.state.rhs.n_regs, tapes.dfdp.n_regs);
        }
    }

    /// Aggressive thresholds so even short stanzas roll.
    fn loose() -> RerollOptions {
        RerollOptions {
            max_body: 64,
            min_trips: 2,
            min_savings: 1,
        }
    }

    /// Walk a register-sharing tape group through its rolled views, in
    /// order over one register file; returns the loop regions walked.
    fn eval_group_rolled(
        group: &mut [(&Tape, &mut [f64])],
        rates: &[f64],
        y: &[f64],
        regs: &mut Vec<f64>,
    ) -> usize {
        let mut loops = 0;
        for (tape, out) in group.iter_mut() {
            let view = reroll(tape, &loose());
            assert_eq!(view.validate(tape), Ok(()));
            loops += view.loop_count();
            tape.eval_rolled_with_scratch(&view, rates, y, out, regs);
        }
        loops
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rolled_jacobian_group_is_bit_identical() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for round in 0..15 {
            let n = rng.gen_range(3..7);
            let f = forest(
                (0..n)
                    .map(|i| {
                        let i = i as u32;
                        Expr::sum(vec![
                            term(1.0, i % 4, &[i % n as u32, (i + 1) % n as u32]),
                            term(-1.0, (i + 1) % 4, &[(i + 2) % n as u32]),
                        ])
                    })
                    .collect(),
                n,
            );
            let tapes = compile_jacobian(&f, Some(CseOptions::default()));
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
            let mut ydot = vec![0.0; n];
            let mut vals = vec![0.0; tapes.nnz()];
            let mut regs = Vec::new();
            tapes.eval_with_scratch(&rates, &y, &mut ydot, &mut vals, &mut regs);
            let mut ydot_r = vec![0.0; n];
            let mut vals_r = vec![0.0; tapes.nnz()];
            eval_group_rolled(
                &mut [(&tapes.rhs, &mut ydot_r), (&tapes.jac, &mut vals_r)],
                &rates,
                &y,
                &mut Vec::new(),
            );
            assert_eq!(bits(&ydot), bits(&ydot_r), "round {round}: rhs diverged");
            assert_eq!(bits(&vals), bits(&vals_r), "round {round}: jac diverged");
        }
    }

    #[test]
    fn rolled_sensitivity_group_is_bit_identical_and_compresses() {
        // A regular chain: every stanza has the same shape, so the group
        // should actually produce loops, not just validate trivially.
        let n = 12usize;
        let f = forest(
            (0..n)
                .map(|i| {
                    let i = i as u32;
                    Expr::sum(vec![
                        term(1.0, i % 4, &[i % n as u32, (i + 1) % n as u32]),
                        term(-1.0, (i + 1) % 4, &[(i + 2) % n as u32]),
                    ])
                })
                .collect(),
            n,
        );
        let tapes = compile_sensitivity(&f, Some(CseOptions::default()));
        let rates: Vec<f64> = (0..8).map(|k| 0.2 + 0.1 * k as f64).collect();
        let y: Vec<f64> = (0..n).map(|s| 0.4 + 0.05 * s as f64).collect();
        let mut ydot = vec![0.0; n];
        let mut jac_vals = vec![0.0; tapes.jac_nnz()];
        let mut dfdp_vals = vec![0.0; tapes.dfdp_nnz()];
        let mut regs = Vec::new();
        tapes.eval_all(
            &rates,
            &y,
            &mut ydot,
            &mut jac_vals,
            &mut dfdp_vals,
            &mut regs,
        );
        let mut ydot_r = vec![0.0; n];
        let mut jac_r = vec![0.0; tapes.jac_nnz()];
        let mut dfdp_r = vec![0.0; tapes.dfdp_nnz()];
        let loops = eval_group_rolled(
            &mut [
                (&tapes.state.rhs, &mut ydot_r),
                (&tapes.state.jac, &mut jac_r),
                (&tapes.dfdp, &mut dfdp_r),
            ],
            &rates,
            &y,
            &mut Vec::new(),
        );
        assert!(loops > 0, "regular sensitivity group should reroll");
        assert_eq!(bits(&ydot), bits(&ydot_r));
        assert_eq!(bits(&jac_vals), bits(&jac_r));
        assert_eq!(bits(&dfdp_vals), bits(&dfdp_r));
    }

    /// A random tree over `n` species, 4 rates and the first `temps`
    /// temporaries — half the nodes through the smart constructors, half
    /// raw, so non-canonical shapes (a `Sum` under a `Sum`, constants as
    /// factors, zero and negative-zero coefficients) occur too.
    fn random_expr(rng: &mut rand::rngs::SmallRng, depth: u32, n: u32, temps: u32) -> Expr {
        use rand::Rng;
        // Mostly inexact in binary, so the order constants fold in shows.
        const COEFFS: [f64; 8] = [1.0, -1.0, 0.1, 1.7, -0.3, 0.0, -0.0, 1e-3];
        let pick = if depth == 0 {
            rng.gen_range(0..4)
        } else {
            rng.gen_range(0..8)
        };
        let children = |rng: &mut rand::rngs::SmallRng| -> Vec<Expr> {
            (0..rng.gen_range(2..5))
                .map(|_| random_expr(rng, depth - 1, n, temps))
                .collect()
        };
        match pick {
            0 => Expr::constant(COEFFS[rng.gen_range(0..COEFFS.len())]),
            1 => Expr::Rate(rng.gen_range(0..4)),
            3 if temps > 0 => Expr::Temp(TempId(rng.gen_range(0..temps))),
            2 | 3 => Expr::Species(rng.gen_range(0..n)),
            4 | 5 => {
                let c = COEFFS[rng.gen_range(0..COEFFS.len())];
                let mut factors = children(rng);
                // Repeated species: the power rule.
                if rng.gen_bool(0.3) {
                    factors.push(factors[0].clone());
                }
                if pick == 4 {
                    Expr::prod(c, factors)
                } else {
                    Expr::Prod(Coeff(c), factors)
                }
            }
            6 => Expr::sum(children(rng)),
            _ => Expr::Sum(children(rng)),
        }
    }

    #[test]
    fn sparse_gradient_equals_the_per_variable_walkers() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(22);
        let mut entries_seen = 0;
        for round in 0..400 {
            let n = rng.gen_range(2..7);
            // Temps reference earlier temps.
            let temps: Vec<Expr> = (0..rng.gen_range(0..6))
                .map(|k| random_expr(&mut rng, 2, n, k))
                .collect();
            let mut rhs: Vec<Expr> = (0..n)
                .map(|_| random_expr(&mut rng, 3, n, temps.len() as u32))
                .collect();
            // Like terms: their partials are constants, folded in child order.
            let (j, r) = (rng.gen_range(0..n), rng.gen_range(0..4));
            let like_terms = [0.1, 1.7, -0.3, 1e-3]
                .iter()
                .flat_map(|&c| [Expr::Species(j), Expr::Rate(r)].map(|v| Expr::prod(c, vec![v])))
                .chain(rhs.pop())
                .collect();
            rhs.push(Expr::Sum(like_terms));
            let f = ExprForest {
                temps,
                rhs,
                n_species: n as usize,
                n_rates: 4,
            };
            // `Debug` rather than `==`: it tells `-0.0` from `0.0`.
            assert_eq!(
                format!("{:?}", differentiate_forest(&f)),
                format!("{:?}", oracle::differentiate_forest(&f)),
                "round {round}: state group differs on {f:?}"
            );
            let both = differentiate_forest_sensitivity(&f);
            assert_eq!(
                format!("{both:?}"),
                format!("{:?}", oracle::differentiate_forest_sensitivity(&f)),
                "round {round}: sensitivity groups differ on {f:?}"
            );
            entries_seen += both.1.len() + both.2.len();
        }
        assert!(
            entries_seen > 2_000,
            "generator went degenerate: {entries_seen}"
        );
    }

    /// A radical hub at family size `n`: the temp `t0 = Σ y_i` over the
    /// family, every family member consumed by the hub species `y_n`, and
    /// the hub's own equation — `n` bimolecular products over the family
    /// plus one over the temp, so its support is all `n + 1` species
    /// while each species appears in O(1) of its terms. (With the temp as
    /// a factor of every product the *output* would be Θ(n²) nodes, for
    /// any differentiator.)
    fn hub_forest(n: u32) -> ExprForest {
        let family_sum = Expr::sum((0..n).map(Expr::Species).collect());
        let mut rhs: Vec<Expr> = (0..n).map(|i| term(-1.0, i % 8, &[i, n])).collect();
        let mut hub: Vec<Expr> = (0..n)
            .map(|i| term(1.0, i % 8, &[i, (i + 1) % n]))
            .collect();
        hub.push(Expr::prod(
            -1.0,
            vec![Expr::Rate(0), Expr::Species(n), Expr::Temp(TempId(0))],
        ));
        rhs.push(Expr::sum(hub));
        ExprForest {
            temps: vec![family_sum],
            rhs,
            n_species: n as usize + 1,
            n_rates: 8,
        }
    }

    #[test]
    fn differentiation_work_is_linear_in_input_plus_output() {
        for n in [2_000, 4_000] {
            let f = hub_forest(n);
            VISITS.with(|v| v.set(0));
            let (combined, jac_entries, dfdp_entries) = differentiate_forest_sensitivity(&f);
            let visits = VISITS.with(|v| v.get());
            // The hub row is dense, every other row has two entries.
            assert_eq!(jac_entries.len(), 3 * n as usize + 1);
            assert_eq!(dfdp_entries.len(), n as usize + 8);
            let nodes = (f.node_count() + combined.node_count()) as u64;
            assert!(
                visits <= 4 * nodes,
                "n = {n}: {visits} node visits for {nodes} nodes in + out"
            );
        }
    }

    #[test]
    fn pattern_rows_round_trip() {
        let f = forest(vec![term(-1.0, 0, &[0, 1]), term(1.0, 0, &[0, 1])], 2);
        let tapes = compile_jacobian(&f, None);
        let rows = tapes.pattern_rows();
        assert_eq!(rows, vec![vec![0, 1], vec![0, 1]]);
        assert_eq!(tapes.nnz(), 4);
    }
}
