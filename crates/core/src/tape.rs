//! The evaluation tape: a linear, register-based program computing every
//! ODE right-hand side.
//!
//! This is our analog of the C function the paper's backend emits — the
//! form in which the system is actually executed by the ODE solver. The
//! tape's operation counts are the numbers reported in Table 1. One
//! lowering builds every tape: [`lower_split_multi`] lowers a forest into
//! back-to-back tapes over one register file, and [`lower`] is its case
//! of one tape. Solves run a tape decoded by [`crate::exec`] or rendered
//! by [`crate::emit_c::emit_kernel`]; the interpreter here is the
//! reference both are tested against.

use rms_odegen::OpCounts;

use crate::expr::{Coeff, Expr, ExprForest};

/// Register index.
pub type Reg = u32;

/// Operand source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A previously computed register.
    Reg(Reg),
    /// Species concentration `y[i]`.
    Species(u32),
    /// Rate constant `k[i]`.
    Rate(u32),
    /// Literal constant.
    Const(f64),
}

/// One tape instruction. Loads are folded into operands; only arithmetic
/// occupies tape slots, so instruction counts equal flop counts.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field meanings are given by each variant's formula
pub enum Instr {
    /// `regs[dst] = a + b`
    Add { dst: Reg, a: Operand, b: Operand },
    /// `regs[dst] = a - b`
    Sub { dst: Reg, a: Operand, b: Operand },
    /// `regs[dst] = a * b`
    Mul { dst: Reg, a: Operand, b: Operand },
    /// `regs[dst] = -a`
    Neg { dst: Reg, a: Operand },
    /// `regs[dst] = a` (operand materialization; also emitted when value
    /// numbering replaces a redundant operation)
    Copy { dst: Reg, a: Operand },
    /// `ydot[idx] = a`
    Store { idx: u32, a: Operand },
}

/// A compiled tape.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// Register file size.
    pub n_regs: usize,
    /// Number of species (outputs).
    pub n_species: usize,
    /// Number of rate constants (inputs).
    pub n_rates: usize,
}

impl Instr {
    /// The instruction's input operands (destination registers and store
    /// indices excluded).
    pub fn operands(&self) -> impl Iterator<Item = Operand> {
        let (a, b) = match *self {
            Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } | Instr::Mul { a, b, .. } => {
                (a, Some(b))
            }
            Instr::Neg { a, .. } | Instr::Copy { a, .. } | Instr::Store { a, .. } => (a, None),
        };
        std::iter::once(a).chain(b)
    }

    /// The destination register, when the instruction writes one
    /// (`Store` writes an output slot instead).
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instr::Add { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::Copy { dst, .. } => Some(dst),
            Instr::Store { .. } => None,
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Species(i) => write!(f, "y{i}"),
            Operand::Rate(i) => write!(f, "k{i}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::Add { dst, a, b } => write!(f, "r{dst} = {a} + {b}"),
            Instr::Sub { dst, a, b } => write!(f, "r{dst} = {a} - {b}"),
            Instr::Mul { dst, a, b } => write!(f, "r{dst} = {a} * {b}"),
            Instr::Neg { dst, a } => write!(f, "r{dst} = -{a}"),
            Instr::Copy { dst, a } => write!(f, "r{dst} = {a}"),
            Instr::Store { idx, a } => write!(f, "ydot[{idx}] = {a}"),
        }
    }
}

/// Disassembly listing: a header line then one instruction per line (the
/// `--dump-ir=lower` format).
impl std::fmt::Display for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "; tape: {} instrs, {} regs, {} species, {} rates",
            self.instrs.len(),
            self.n_regs,
            self.n_species,
            self.n_rates
        )?;
        for i in &self.instrs {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

/// Execute one instruction against the register file: the operand fetch
/// and opcode dispatch shared by the flat and the loop-walking evaluator.
#[inline(always)]
fn step(instr: &Instr, rates: &[f64], y: &[f64], ydot: &mut [f64], regs: &mut [f64]) {
    let fetch = |regs: &[f64], op: Operand| -> f64 {
        match op {
            Operand::Reg(r) => regs[r as usize],
            Operand::Species(i) => y[i as usize],
            Operand::Rate(i) => rates[i as usize],
            Operand::Const(v) => v,
        }
    };
    match *instr {
        Instr::Add { dst, a, b } => regs[dst as usize] = fetch(regs, a) + fetch(regs, b),
        Instr::Sub { dst, a, b } => regs[dst as usize] = fetch(regs, a) - fetch(regs, b),
        Instr::Mul { dst, a, b } => regs[dst as usize] = fetch(regs, a) * fetch(regs, b),
        Instr::Neg { dst, a } => regs[dst as usize] = -fetch(regs, a),
        Instr::Copy { dst, a } => regs[dst as usize] = fetch(regs, a),
        Instr::Store { idx, a } => ydot[idx as usize] = fetch(regs, a),
    }
}

impl Tape {
    /// Evaluate the tape: reads `rates` and `y`, writes `ydot`, using the
    /// caller-provided scratch register file (resized as needed so the
    /// solver loop allocates once).
    pub fn eval_with_scratch(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        if regs.len() < self.n_regs {
            regs.resize(self.n_regs, 0.0);
        }
        for instr in &self.instrs {
            step(instr, rates, y, ydot, regs);
        }
    }

    /// Evaluate with a fresh register file.
    pub fn eval(&self, rates: &[f64], y: &[f64], ydot: &mut [f64]) {
        let mut regs = vec![0.0; self.n_regs];
        self.eval_with_scratch(rates, y, ydot, &mut regs);
    }

    /// Arithmetic operation counts (Table 1's "Number of *" and
    /// "Number of (+ and -)"). `Neg` counts as an add-class operation;
    /// `Copy`/`Store` are free.
    pub fn op_counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        for instr in &self.instrs {
            match instr {
                Instr::Mul { .. } => counts.mults += 1,
                Instr::Add { .. } | Instr::Sub { .. } | Instr::Neg { .. } => counts.adds += 1,
                Instr::Copy { .. } | Instr::Store { .. } => {}
            }
        }
        counts
    }

    /// Number of instructions (IR size metric).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Check the tape's structural invariants: every operand index in
    /// bounds, no register read before it is written, every `Store` index
    /// below `n_species`, and no dead `Copy` (a copy whose destination is
    /// never read). Returns a description of the first violation.
    ///
    /// For [`lower_split_multi`] tapes sharing one register file, use
    /// [`validate_program`], which carries the written-register set across
    /// tapes and checks each tape against its own output arity.
    pub fn validate(&self) -> Result<(), String> {
        validate_program(&[(self, self.n_species)])
    }
}

/// Validate tapes that execute back-to-back on one shared register file
/// (the [`lower_split_multi`] contract). Each entry pairs a tape with its
/// output arity (the exclusive upper bound on its `Store` indices — a
/// secondary Jacobian tape stores one slot per nonzero, not per species).
/// Register writes in earlier tapes satisfy reads in later ones.
pub fn validate_program(tapes: &[(&Tape, usize)]) -> Result<(), String> {
    let Some(&(first, _)) = tapes.first() else {
        return Ok(());
    };
    for (t, &(tape, _)) in tapes.iter().enumerate() {
        if tape.n_regs != first.n_regs
            || tape.n_species != first.n_species
            || tape.n_rates != first.n_rates
        {
            return Err(format!(
                "tape {t} disagrees with tape 0 on file sizes \
                 (n_regs {} vs {}, n_species {} vs {}, n_rates {} vs {})",
                tape.n_regs,
                first.n_regs,
                tape.n_species,
                first.n_species,
                tape.n_rates,
                first.n_rates
            ));
        }
    }
    let mut written = vec![false; first.n_regs];
    // Pending `Copy` destination -> location of the copy, cleared when the
    // register is read; a redefinition or program end while still pending
    // means the copy was dead.
    let mut pending_copy: Vec<Option<(usize, usize)>> = vec![None; first.n_regs];
    for (t, &(tape, n_outputs)) in tapes.iter().enumerate() {
        for (p, instr) in tape.instrs.iter().enumerate() {
            let at = |what: &str| format!("tape {t}, instruction {p}: {what}");
            let mut read = |op: Operand| -> Result<(), String> {
                match op {
                    Operand::Reg(r) => {
                        let r = r as usize;
                        if r >= first.n_regs {
                            return Err(at(&format!(
                                "register operand r{r} out of bounds (n_regs = {})",
                                first.n_regs
                            )));
                        }
                        if !written[r] {
                            return Err(at(&format!("register r{r} read before write")));
                        }
                        pending_copy[r] = None;
                        Ok(())
                    }
                    Operand::Species(i) if (i as usize) >= first.n_species => Err(at(&format!(
                        "species operand y[{i}] out of bounds (n_species = {})",
                        first.n_species
                    ))),
                    Operand::Rate(i) if (i as usize) >= first.n_rates => Err(at(&format!(
                        "rate operand k[{i}] out of bounds (n_rates = {})",
                        first.n_rates
                    ))),
                    _ => Ok(()),
                }
            };
            match *instr {
                Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } | Instr::Mul { a, b, .. } => {
                    read(a)?;
                    read(b)?;
                }
                Instr::Neg { a, .. } | Instr::Copy { a, .. } | Instr::Store { a, .. } => read(a)?,
            }
            match *instr {
                Instr::Store { idx, .. } => {
                    if (idx as usize) >= n_outputs {
                        return Err(at(&format!(
                            "store index {idx} out of bounds (n_outputs = {n_outputs})"
                        )));
                    }
                }
                Instr::Add { dst, .. }
                | Instr::Sub { dst, .. }
                | Instr::Mul { dst, .. }
                | Instr::Neg { dst, .. }
                | Instr::Copy { dst, .. } => {
                    let d = dst as usize;
                    if d >= first.n_regs {
                        return Err(at(&format!(
                            "destination r{d} out of bounds (n_regs = {})",
                            first.n_regs
                        )));
                    }
                    if let Some((ct, cp)) = pending_copy[d] {
                        return Err(format!(
                            "tape {ct}, instruction {cp}: dead copy into r{d} \
                             (overwritten at tape {t}, instruction {p} without a read)"
                        ));
                    }
                    written[d] = true;
                    pending_copy[d] = matches!(instr, Instr::Copy { .. }).then_some((t, p));
                }
            }
        }
    }
    if let Some((ct, cp)) = pending_copy.iter().flatten().next() {
        return Err(format!(
            "tape {ct}, instruction {cp}: dead copy (destination never read)"
        ));
    }
    Ok(())
}

/// Reassign registers by linear scan so slots are reused after their
/// last read. SSA lowering gives every instruction a fresh register —
/// harmless for small systems but a multi-megabyte register file at
/// paper scale (the 250 000-equation case would otherwise carry one slot
/// per instruction). Temporaries (multi-use registers) live until their
/// final reader; single-use values free immediately.
///
/// On single-assignment input, register-to-register `Copy` instructions
/// are propagated away instead of allocated: the destination aliases the
/// source's slot (reference-counted so the slot frees only after *both*
/// names die). Value numbering emits such copies for every redundant
/// operation it eliminates, and leaving them on the tape inflates `len()`
/// — the Table 1 IR-size metric. When any register is written more than
/// once, aliasing would be unsound and copies are materialized as before.
pub fn compact_registers(tape: &Tape) -> Tape {
    let n = tape.n_regs;
    // Last read position of each register.
    let mut last_read = vec![usize::MAX; n];
    let mark = |last_read: &mut [usize], op: Operand, pos: usize| {
        if let Operand::Reg(r) = op {
            last_read[r as usize] = pos;
        }
    };
    // Copy aliasing is only sound when no register is reassigned.
    let mut writes = vec![0u32; n];
    for (pos, instr) in tape.instrs.iter().enumerate() {
        match *instr {
            Instr::Add { dst, a, b } | Instr::Sub { dst, a, b } | Instr::Mul { dst, a, b } => {
                mark(&mut last_read, a, pos);
                mark(&mut last_read, b, pos);
                writes[dst as usize] += 1;
            }
            Instr::Neg { dst, a } | Instr::Copy { dst, a } => {
                mark(&mut last_read, a, pos);
                writes[dst as usize] += 1;
            }
            Instr::Store { a, .. } => {
                mark(&mut last_read, a, pos);
            }
        }
    }
    let ssa = writes.iter().all(|&w| w <= 1);
    // Linear scan with a free list. `refcount[slot]` counts the live
    // source registers mapped to each slot (> 1 only via copy aliasing).
    let mut mapping = vec![u32::MAX; n];
    let mut free: Vec<u32> = Vec::new();
    let mut refcount: Vec<u32> = Vec::new();
    let mut next_slot: u32 = 0;
    let mut out = Tape {
        instrs: Vec::with_capacity(tape.instrs.len()),
        n_regs: 0,
        n_species: tape.n_species,
        n_rates: tape.n_rates,
    };
    let remap = |mapping: &[u32], op: Operand| -> Operand {
        match op {
            Operand::Reg(r) => Operand::Reg(mapping[r as usize]),
            other => other,
        }
    };
    for (pos, instr) in tape.instrs.iter().enumerate() {
        // Remap sources first, releasing registers whose last read is now.
        let release =
            |mapping: &mut [u32], free: &mut Vec<u32>, refcount: &mut [u32], op: Operand| {
                if let Operand::Reg(r) = op {
                    // The u32::MAX guard prevents double-release when both
                    // operands are the same register (e.g. x*x).
                    if last_read[r as usize] == pos && mapping[r as usize] != u32::MAX {
                        let slot = mapping[r as usize];
                        mapping[r as usize] = u32::MAX;
                        refcount[slot as usize] -= 1;
                        if refcount[slot as usize] == 0 {
                            free.push(slot);
                        }
                    }
                }
            };
        let mut alloc =
            |mapping: &mut [u32], free: &mut Vec<u32>, refcount: &mut Vec<u32>, dst: Reg| -> u32 {
                let slot = free.pop().unwrap_or_else(|| {
                    let s = next_slot;
                    next_slot += 1;
                    refcount.push(0);
                    s
                });
                refcount[slot as usize] = 1;
                mapping[dst as usize] = slot;
                slot
            };
        if ssa {
            if let Instr::Copy {
                dst,
                a: Operand::Reg(r),
            } = *instr
            {
                // Propagate: the copy's destination shares the source's
                // slot; no instruction is emitted.
                let slot = mapping[r as usize];
                debug_assert_ne!(slot, u32::MAX, "copy of a dead register");
                refcount[slot as usize] += 1;
                mapping[dst as usize] = slot;
                release(&mut mapping, &mut free, &mut refcount, Operand::Reg(r));
                continue;
            }
        }
        let new_instr = match *instr {
            Instr::Add { dst, a, b } => {
                let (ra, rb) = (remap(&mapping, a), remap(&mapping, b));
                release(&mut mapping, &mut free, &mut refcount, a);
                release(&mut mapping, &mut free, &mut refcount, b);
                Instr::Add {
                    dst: alloc(&mut mapping, &mut free, &mut refcount, dst),
                    a: ra,
                    b: rb,
                }
            }
            Instr::Sub { dst, a, b } => {
                let (ra, rb) = (remap(&mapping, a), remap(&mapping, b));
                release(&mut mapping, &mut free, &mut refcount, a);
                release(&mut mapping, &mut free, &mut refcount, b);
                Instr::Sub {
                    dst: alloc(&mut mapping, &mut free, &mut refcount, dst),
                    a: ra,
                    b: rb,
                }
            }
            Instr::Mul { dst, a, b } => {
                let (ra, rb) = (remap(&mapping, a), remap(&mapping, b));
                release(&mut mapping, &mut free, &mut refcount, a);
                release(&mut mapping, &mut free, &mut refcount, b);
                Instr::Mul {
                    dst: alloc(&mut mapping, &mut free, &mut refcount, dst),
                    a: ra,
                    b: rb,
                }
            }
            Instr::Neg { dst, a } => {
                let ra = remap(&mapping, a);
                release(&mut mapping, &mut free, &mut refcount, a);
                Instr::Neg {
                    dst: alloc(&mut mapping, &mut free, &mut refcount, dst),
                    a: ra,
                }
            }
            Instr::Copy { dst, a } => {
                let ra = remap(&mapping, a);
                release(&mut mapping, &mut free, &mut refcount, a);
                Instr::Copy {
                    dst: alloc(&mut mapping, &mut free, &mut refcount, dst),
                    a: ra,
                }
            }
            Instr::Store { idx, a } => {
                let ra = remap(&mapping, a);
                release(&mut mapping, &mut free, &mut refcount, a);
                Instr::Store { idx, a: ra }
            }
        };
        out.instrs.push(new_instr);
    }
    out.n_regs = next_slot as usize;
    out
}

/// Forward `Copy` chains and drop the copies: reads of a copied register
/// go straight to the source.
///
/// **Requires single-assignment input** (each register written at most
/// once — true of [`lower`]'s output and of [`crate::generic_compile`]
/// run on such a tape). On register-reused tapes forwarding would be
/// unsound; run it before [`compact_registers`], never after.
pub fn forward_copies(tape: &Tape) -> Tape {
    let mut source: Vec<Option<Operand>> = vec![None; tape.n_regs];
    let resolve = |source: &[Option<Operand>], op: Operand| -> Operand {
        match op {
            Operand::Reg(r) => match source[r as usize] {
                Some(fwd) => fwd,
                None => op,
            },
            other => other,
        }
    };
    let mut out = Tape {
        instrs: Vec::with_capacity(tape.instrs.len()),
        n_regs: tape.n_regs,
        n_species: tape.n_species,
        n_rates: tape.n_rates,
    };
    for instr in &tape.instrs {
        match *instr {
            Instr::Copy { dst, a } => {
                // Chain-resolve so copies of copies flatten.
                source[dst as usize] = Some(resolve(&source, a));
            }
            Instr::Add { dst, a, b } => out.instrs.push(Instr::Add {
                dst,
                a: resolve(&source, a),
                b: resolve(&source, b),
            }),
            Instr::Sub { dst, a, b } => out.instrs.push(Instr::Sub {
                dst,
                a: resolve(&source, a),
                b: resolve(&source, b),
            }),
            Instr::Mul { dst, a, b } => out.instrs.push(Instr::Mul {
                dst,
                a: resolve(&source, a),
                b: resolve(&source, b),
            }),
            Instr::Neg { dst, a } => out.instrs.push(Instr::Neg {
                dst,
                a: resolve(&source, a),
            }),
            Instr::Store { idx, a } => out.instrs.push(Instr::Store {
                idx,
                a: resolve(&source, a),
            }),
        }
    }
    out
}

/// Lower an expression forest to a tape: [`lower_split_multi`] with every
/// output in one group.
///
/// Sign-aware sum lowering keeps the cost model of the symbolic layers:
/// negative-coefficient terms combine with `Sub` instead of paying a
/// multiply by −1, and ±1 coefficients never multiply.
pub fn lower(forest: &ExprForest) -> Tape {
    let mut tapes = lower_split_multi(forest, &[forest.rhs.len()]);
    tapes.pop().expect("one group lowers to one tape")
}

/// Lower a combined forest into back-to-back tapes over one register
/// file: `counts[g]` outputs go to group `g` (store indices rebased to 0
/// within each group). Temporaries are placed on the earliest tape whose
/// outputs reach them, so every later tape reads the registers of
/// everything that ran before it — this is how the Jacobian tape reuses
/// the RHS tape's subexpressions, and the sensitivity tape `∂f/∂p` those
/// of both. Temporaries referenced by no output are skipped entirely.
pub fn lower_split_multi(forest: &ExprForest, counts: &[usize]) -> Vec<Tape> {
    assert_eq!(
        counts.iter().sum::<usize>(),
        forest.rhs.len(),
        "group counts must cover every forest output"
    );
    let m = forest.temps.len();
    // Transitive temp reachability from each output group.
    let reach = |roots: &[Expr]| -> Vec<bool> {
        let mut seen = vec![false; m];
        let mut stack = Vec::new();
        for e in roots {
            collect_temp_refs(e, &mut stack);
        }
        while let Some(t) = stack.pop() {
            let t = t as usize;
            if !seen[t] {
                seen[t] = true;
                collect_temp_refs(&forest.temps[t], &mut stack);
            }
        }
        seen
    };
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    offsets.push(0usize);
    for &c in counts {
        offsets.push(offsets.last().expect("non-empty") + c);
    }
    let mut b = Builder {
        tape: Tape {
            instrs: Vec::new(),
            n_regs: 0,
            n_species: forest.n_species,
            n_rates: forest.n_rates,
        },
        // Placeholder slots; a NaN leaking into results marks a
        // temp lowered out of dependency order.
        temp_slots: vec![Operand::Const(f64::NAN); m],
    };
    let mut lowered = vec![false; m];
    let mut boundaries = Vec::with_capacity(counts.len());
    for g in 0..counts.len() {
        let group = &forest.rhs[offsets[g]..offsets[g + 1]];
        let wanted = reach(group);
        for (k, temp) in forest.temps.iter().enumerate() {
            if wanted[k] && !lowered[k] {
                let op = b.lower_expr(temp);
                b.temp_slots[k] = op;
                lowered[k] = true;
            }
        }
        for (i, e) in group.iter().enumerate() {
            let op = b.lower_expr(e);
            b.tape.instrs.push(Instr::Store {
                idx: i as u32,
                a: op,
            });
        }
        boundaries.push(b.tape.instrs.len());
    }
    let tapes = split_at_ends(b.tape, &boundaries);
    #[cfg(debug_assertions)]
    {
        let program: Vec<(&Tape, usize)> = tapes.iter().zip(counts.iter().copied()).collect();
        if let Err(e) = validate_program(&program) {
            panic!("lower_split_multi produced an invalid tape sequence: {e}");
        }
    }
    tapes
}

fn collect_temp_refs(expr: &Expr, out: &mut Vec<u32>) {
    match expr {
        Expr::Temp(t) => out.push(t.0),
        Expr::Prod(_, factors) => {
            for f in factors {
                collect_temp_refs(f, out);
            }
        }
        Expr::Sum(children) => {
            for c in children {
                collect_temp_refs(c, out);
            }
        }
        _ => {}
    }
}

/// Jointly compact the registers of tapes executing back-to-back on one
/// scratch file ([`lower_split_multi`] output): liveness flows across
/// every boundary, so values a later tape still needs keep their slots
/// while everything else is reused.
///
/// Requires copy-free input (true of [`lower_split_multi`]) so the
/// instruction counts — and with them the split points — are preserved.
pub fn compact_registers_multi(tapes: &[&Tape]) -> Vec<Tape> {
    debug_assert!(
        tapes
            .iter()
            .flat_map(|t| &t.instrs)
            .all(|i| !matches!(i, Instr::Copy { .. })),
        "joint compaction expects copy-free tapes"
    );
    let first = tapes.first().expect("at least one tape");
    let mut merged = (*first).clone();
    merged.n_regs = tapes.iter().map(|t| t.n_regs).max().unwrap_or(0);
    for t in &tapes[1..] {
        merged.instrs.extend_from_slice(&t.instrs);
    }
    let ends: Vec<usize> = tapes
        .iter()
        .scan(0, |end, t| {
            *end += t.instrs.len();
            Some(*end)
        })
        .collect();
    split_at_ends(compact_registers(&merged), &ends)
}

/// Split `tape` into back-to-back tapes over its register file, the `g`-th
/// ending at instruction `ends[g]`.
fn split_at_ends(tape: Tape, ends: &[usize]) -> Vec<Tape> {
    let mut instrs = tape.instrs.into_iter();
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let part = instrs.by_ref().take(end - start).collect();
            start = end;
            Tape {
                instrs: part,
                ..tape
            }
        })
        .collect()
}

struct Builder {
    tape: Tape,
    temp_slots: Vec<Operand>,
}

impl Builder {
    fn fresh(&mut self) -> Reg {
        let r = self.tape.n_regs as Reg;
        self.tape.n_regs += 1;
        r
    }

    /// Lower an expression, returning the operand holding its value.
    fn lower_expr(&mut self, expr: &Expr) -> Operand {
        let (negated, op) = self.lower_signed(expr);
        if negated {
            let dst = self.fresh();
            self.tape.instrs.push(Instr::Neg { dst, a: op });
            Operand::Reg(dst)
        } else {
            op
        }
    }

    /// Lower an expression, allowing the sign to be returned separately
    /// (so enclosing sums can absorb it into a `Sub`). Returns
    /// `(negated, operand)` where the value is `operand` negated if
    /// `negated`.
    fn lower_signed(&mut self, expr: &Expr) -> (bool, Operand) {
        match expr {
            Expr::Const(Coeff(v)) => (false, Operand::Const(*v)),
            Expr::Rate(i) => (false, Operand::Rate(*i)),
            Expr::Species(i) => (false, Operand::Species(*i)),
            Expr::Temp(t) => (false, self.temp_slots[t.0 as usize]),
            Expr::Prod(Coeff(c), factors) => {
                let negated = *c < 0.0;
                let mag = c.abs();
                let mut acc: Option<Operand> = if mag != 1.0 {
                    Some(Operand::Const(mag))
                } else {
                    None
                };
                for f in factors {
                    let f_op = self.lower_expr(f);
                    acc = Some(match acc {
                        None => f_op,
                        Some(prev) => {
                            let dst = self.fresh();
                            self.tape.instrs.push(Instr::Mul {
                                dst,
                                a: prev,
                                b: f_op,
                            });
                            Operand::Reg(dst)
                        }
                    });
                }
                (negated, acc.unwrap_or(Operand::Const(1.0)))
            }
            Expr::Sum(children) => {
                let mut acc: Option<(bool, Operand)> = None;
                for ch in children {
                    let (neg, op) = self.lower_signed(ch);
                    acc = Some(match acc {
                        None => (neg, op),
                        Some((acc_neg, acc_op)) => {
                            let dst = self.fresh();
                            // acc ± term, tracking the accumulated sign.
                            // (±a) + (±b): emit in terms of the accumulator
                            // sign so only one flag survives.
                            if acc_neg == neg {
                                self.tape.instrs.push(Instr::Add {
                                    dst,
                                    a: acc_op,
                                    b: op,
                                });
                                (acc_neg, Operand::Reg(dst))
                            } else {
                                self.tape.instrs.push(Instr::Sub {
                                    dst,
                                    a: acc_op,
                                    b: op,
                                });
                                (acc_neg, Operand::Reg(dst))
                            }
                        }
                    });
                }
                acc.unwrap_or((false, Operand::Const(0.0)))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loop-structured tape IR (the reroll pass).
//
// The rate-law generator emits thousands of structurally identical stanzas
// — same opcode/operand-kind pattern, differing only in species, rate,
// register or constant payloads. The reroll pass detects maximal runs of
// such stanzas and describes them as `Loop { trip_count, body }` regions
// over the flat tape; per-slot payloads become fixed values, affine
// `base + stride * trip` sequences, or explicit per-trip index tables.
// The flat tape stays the single source of truth (a rolled view never
// reorders or rewrites an instruction), so the degenerate case — no loops
// found — is exactly the old flat form, and every consumer that replays
// the loops trip-by-trip reproduces the flat execution bit for bit.
// ---------------------------------------------------------------------------

/// Tuning knobs for the reroll pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerollOptions {
    /// Longest candidate loop body, in instructions. Large mechanisms
    /// repeat whole per-species stanzas, so this is deliberately generous.
    pub max_body: usize,
    /// Minimum trip count for a run to become a loop.
    pub min_trips: usize,
    /// Minimum instructions saved (`(trips - 1) * body_len`) for a run to
    /// become a loop; filters out tiny loops whose index tables would cost
    /// more than the straight-line code they replace.
    pub min_savings: usize,
}

impl Default for RerollOptions {
    fn default() -> RerollOptions {
        RerollOptions {
            max_body: 256,
            min_trips: 2,
            min_savings: 8,
        }
    }
}

/// One rerolled region: `trips` consecutive stanzas of `body_len`
/// instructions starting at flat index `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeLoop {
    /// Flat index of the first instruction of trip 0 (the template).
    pub start: usize,
    /// Instructions per trip.
    pub body_len: usize,
    /// Number of trips (≥ 2).
    pub trips: usize,
}

impl TapeLoop {
    /// One past the last flat instruction covered by the loop.
    pub fn end(&self) -> usize {
        self.start + self.body_len * self.trips
    }

    /// Instructions this loop removes from the rolled form.
    pub fn savings(&self) -> usize {
        (self.trips - 1) * self.body_len
    }
}

/// A loop-structured view over a flat [`Tape`]: sorted, disjoint
/// [`TapeLoop`] regions; everything between them is straight-line code.
/// An empty `loops` vector is the degenerate (fully straight) case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RolledTape {
    /// Flat instruction count of the tape this view was built for.
    pub len: usize,
    /// Rerolled regions, sorted by `start`, pairwise disjoint.
    pub loops: Vec<TapeLoop>,
}

/// One element of a rolled walk: a straight range or a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolledSegment {
    /// Straight-line instructions `start .. start + len`.
    Straight {
        /// First flat index.
        start: usize,
        /// Instruction count.
        len: usize,
    },
    /// A rerolled loop region.
    Loop(TapeLoop),
}

impl RolledTape {
    /// Number of loop regions.
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Flat instructions eliminated by rerolling (bodies beyond trip 0).
    pub fn rerolled_instrs(&self) -> usize {
        self.loops.iter().map(TapeLoop::savings).sum()
    }

    /// Instruction count of the rolled form: straight instructions plus
    /// one body per loop. This is what the native backend actually emits.
    pub fn rolled_len(&self) -> usize {
        self.len - self.rerolled_instrs()
    }

    /// The walk order: straight ranges interleaved with loops, covering
    /// `0 .. self.len` exactly once.
    pub fn segments(&self) -> Vec<RolledSegment> {
        let mut out = Vec::with_capacity(2 * self.loops.len() + 1);
        let mut at = 0usize;
        for lp in &self.loops {
            if lp.start > at {
                out.push(RolledSegment::Straight {
                    start: at,
                    len: lp.start - at,
                });
            }
            out.push(RolledSegment::Loop(*lp));
            at = lp.end();
        }
        if at < self.len {
            out.push(RolledSegment::Straight {
                start: at,
                len: self.len - at,
            });
        }
        out
    }

    /// Check the view against its tape: loops sorted and disjoint, in
    /// bounds, trip counts ≥ 2, and every trip shape-identical to the
    /// template (same opcodes and operand kinds). A view that validates
    /// replays the flat tape exactly when walked trip by trip.
    pub fn validate(&self, tape: &Tape) -> Result<(), String> {
        if self.len != tape.len() {
            return Err(format!(
                "rolled view built for {} instrs, tape has {}",
                self.len,
                tape.len()
            ));
        }
        let mut at = 0usize;
        for (i, lp) in self.loops.iter().enumerate() {
            if lp.body_len == 0 || lp.trips < 2 {
                return Err(format!(
                    "loop {i}: degenerate shape (body_len {}, trips {})",
                    lp.body_len, lp.trips
                ));
            }
            if lp.start < at {
                return Err(format!(
                    "loop {i}: starts at {} inside the previous region (ends {at})",
                    lp.start
                ));
            }
            if lp.end() > self.len {
                return Err(format!(
                    "loop {i}: ends at {} past the tape ({} instrs)",
                    lp.end(),
                    self.len
                ));
            }
            for t in 1..lp.trips {
                for p in 0..lp.body_len {
                    let a = &tape.instrs[lp.start + p];
                    let b = &tape.instrs[lp.start + t * lp.body_len + p];
                    if a.shape_key() != b.shape_key() {
                        return Err(format!(
                            "loop {i}: trip {t} position {p} ({b}) does not match \
                             the template ({a})"
                        ));
                    }
                }
            }
            at = lp.end();
        }
        Ok(())
    }
}

impl Instr {
    /// Structural shape key: opcode plus operand kinds, payloads ignored.
    /// Two instructions with equal keys differ only in species/rate/
    /// register/constant payloads — the reroll equivalence.
    pub(crate) fn shape_key(&self) -> u64 {
        let kind = |o: &Operand| -> u64 {
            match o {
                Operand::Reg(_) => 0,
                Operand::Species(_) => 1,
                Operand::Rate(_) => 2,
                Operand::Const(_) => 3,
            }
        };
        match self {
            Instr::Add { a, b, .. } => (1 << 8) | (kind(a) << 4) | kind(b),
            Instr::Sub { a, b, .. } => (2 << 8) | (kind(a) << 4) | kind(b),
            Instr::Mul { a, b, .. } => (3 << 8) | (kind(a) << 4) | kind(b),
            Instr::Neg { a, .. } => (4 << 8) | kind(a),
            Instr::Copy { a, .. } => (5 << 8) | kind(a),
            Instr::Store { a, .. } => (6 << 8) | kind(a),
        }
    }

    /// Number of payload slots (destination/store-index plus operands).
    pub(crate) fn slot_count(&self) -> usize {
        match self {
            Instr::Add { .. } | Instr::Sub { .. } | Instr::Mul { .. } => 3,
            Instr::Neg { .. } | Instr::Copy { .. } | Instr::Store { .. } => 2,
        }
    }

    /// Payload of slot `s`: slot 0 is the destination register (or store
    /// index), later slots are operand payloads in order. Constants are
    /// returned as their bit pattern.
    pub(crate) fn slot(&self, s: usize) -> u64 {
        let op = |o: &Operand| -> u64 {
            match o {
                Operand::Reg(r) => *r as u64,
                Operand::Species(i) => *i as u64,
                Operand::Rate(i) => *i as u64,
                Operand::Const(c) => c.to_bits(),
            }
        };
        match (self, s) {
            (Instr::Add { dst, .. } | Instr::Sub { dst, .. } | Instr::Mul { dst, .. }, 0) => {
                *dst as u64
            }
            (Instr::Neg { dst, .. } | Instr::Copy { dst, .. }, 0) => *dst as u64,
            (Instr::Store { idx, .. }, 0) => *idx as u64,
            (Instr::Add { a, .. } | Instr::Sub { a, .. } | Instr::Mul { a, .. }, 1) => op(a),
            (Instr::Add { b, .. } | Instr::Sub { b, .. } | Instr::Mul { b, .. }, 2) => op(b),
            (Instr::Neg { a, .. } | Instr::Copy { a, .. } | Instr::Store { a, .. }, 1) => op(a),
            _ => unreachable!("slot index out of range"),
        }
    }

    /// Rewrite slot `s`'s payload, preserving the operand kind.
    pub(crate) fn set_slot(&mut self, s: usize, v: u64) {
        let patch = |o: &mut Operand| match o {
            Operand::Reg(r) => *r = v as u32,
            Operand::Species(i) => *i = v as u32,
            Operand::Rate(i) => *i = v as u32,
            Operand::Const(c) => *c = f64::from_bits(v),
        };
        match (self, s) {
            (Instr::Add { dst, .. } | Instr::Sub { dst, .. } | Instr::Mul { dst, .. }, 0) => {
                *dst = v as u32
            }
            (Instr::Neg { dst, .. } | Instr::Copy { dst, .. }, 0) => *dst = v as u32,
            (Instr::Store { idx, .. }, 0) => *idx = v as u32,
            (Instr::Add { a, .. } | Instr::Sub { a, .. } | Instr::Mul { a, .. }, 1) => patch(a),
            (Instr::Add { b, .. } | Instr::Sub { b, .. } | Instr::Mul { b, .. }, 2) => patch(b),
            (Instr::Neg { a, .. } | Instr::Copy { a, .. } | Instr::Store { a, .. }, 1) => patch(a),
            _ => unreachable!("slot index out of range"),
        }
    }
}

/// How one payload slot of a loop body varies across trips.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotPattern {
    /// Identical in every trip (rendered once, hoisted out of the loop).
    Fixed,
    /// `template + stride * trip` — rendered inline, no table needed.
    Affine {
        /// Per-trip index increment (may be negative).
        stride: i64,
    },
    /// Arbitrary per-trip indices; consumers intern these tables.
    Table(Vec<u32>),
    /// Arbitrary per-trip constants (bit-exact values).
    ConstTable(Vec<f64>),
}

/// Classify every payload slot of `lp`'s body: for each body position,
/// one [`SlotPattern`] per slot. The loop must shape-validate first.
pub fn loop_slot_patterns(tape: &Tape, lp: &TapeLoop) -> Vec<Vec<SlotPattern>> {
    let mut out = Vec::with_capacity(lp.body_len);
    for p in 0..lp.body_len {
        let template = &tape.instrs[lp.start + p];
        // Slot 0 is the destination/store index; slot s > 0 is operand s-1.
        let ops: Vec<Operand> = template.operands().collect();
        let is_const = |s: usize| s > 0 && matches!(ops[s - 1], Operand::Const(_));
        let mut slots = Vec::with_capacity(template.slot_count());
        for s in 0..template.slot_count() {
            let vals: Vec<u64> = (0..lp.trips)
                .map(|t| tape.instrs[lp.start + t * lp.body_len + p].slot(s))
                .collect();
            let fixed = vals.iter().all(|&v| v == vals[0]);
            if fixed {
                slots.push(SlotPattern::Fixed);
            } else if is_const(s) {
                slots.push(SlotPattern::ConstTable(
                    vals.iter().map(|&v| f64::from_bits(v)).collect(),
                ));
            } else {
                let stride = vals[1] as i64 - vals[0] as i64;
                let affine = vals.windows(2).all(|w| w[1] as i64 - w[0] as i64 == stride);
                if affine {
                    slots.push(SlotPattern::Affine { stride });
                } else {
                    slots.push(SlotPattern::Table(vals.iter().map(|&v| v as u32).collect()));
                }
            }
        }
        out.push(slots);
    }
    out
}

/// Materialize trip `t` of a loop body instruction from its template and
/// slot patterns — the inverse of [`loop_slot_patterns`].
pub fn resolve_instr(template: &Instr, patterns: &[SlotPattern], t: usize) -> Instr {
    let mut instr = *template;
    for (s, pat) in patterns.iter().enumerate() {
        match pat {
            SlotPattern::Fixed => {}
            SlotPattern::Affine { stride } => {
                let base = template.slot(s) as i64;
                instr.set_slot(s, (base + stride * t as i64) as u64);
            }
            SlotPattern::Table(tab) => instr.set_slot(s, tab[t] as u64),
            SlotPattern::ConstTable(tab) => instr.set_slot(s, tab[t].to_bits()),
        }
    }
    instr
}

/// Greedy run detection over a shape-key sequence. At each position the
/// candidate body lengths `1..=max_body` compete on savings
/// (`(trips - 1) * body_len`); the winner becomes a loop and the scan
/// resumes past it.
fn detect_runs(shapes: &[u64], opts: &RerollOptions) -> Vec<TapeLoop> {
    let n = shapes.len();
    let mut loops = Vec::new();
    let mut s = 0usize;
    while s < n {
        let mut best: Option<TapeLoop> = None;
        let max_body = opts.max_body.min((n - s) / 2);
        for body in 1..=max_body {
            // Trip 1 must open like trip 0 — cheap rejection before the
            // full stanza comparison.
            if shapes[s + body] != shapes[s] {
                continue;
            }
            let mut trips = 1usize;
            while s + (trips + 1) * body <= n
                && (0..body).all(|p| shapes[s + trips * body + p] == shapes[s + p])
            {
                trips += 1;
            }
            let cand = TapeLoop {
                start: s,
                body_len: body,
                trips,
            };
            if trips >= opts.min_trips
                && cand.savings() >= opts.min_savings
                && best.is_none_or(|b| cand.savings() > b.savings())
            {
                best = Some(cand);
            }
        }
        match best {
            Some(lp) => {
                s = lp.end();
                loops.push(lp);
            }
            None => s += 1,
        }
    }
    loops
}

/// The reroll pass: detect runs of shape-identical stanzas in `tape` and
/// return the loop-structured view. Pure structure recovery — the tape
/// itself is untouched, so rolled and flat execution are bit-identical
/// by construction.
pub fn reroll(tape: &Tape, opts: &RerollOptions) -> RolledTape {
    let shapes: Vec<u64> = tape.instrs.iter().map(Instr::shape_key).collect();
    let rolled = RolledTape {
        len: tape.len(),
        loops: detect_runs(&shapes, opts),
    };
    debug_assert_eq!(rolled.validate(tape), Ok(()));
    rolled
}

impl Tape {
    /// Evaluate through a rolled view: straight segments interpret as
    /// usual; loop segments execute the *template* trip by trip with
    /// payloads resolved from the slot patterns. Exercises the genuine
    /// loop walk (not a flat replay), and must be bit-identical to
    /// [`Tape::eval_with_scratch`].
    pub fn eval_rolled_with_scratch(
        &self,
        rolled: &RolledTape,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        regs: &mut Vec<f64>,
    ) {
        if regs.len() < self.n_regs {
            regs.resize(self.n_regs, 0.0);
        }
        for seg in rolled.segments() {
            match seg {
                RolledSegment::Straight { start, len } => {
                    for instr in &self.instrs[start..start + len] {
                        step(instr, rates, y, ydot, regs);
                    }
                }
                RolledSegment::Loop(lp) => {
                    let patterns = loop_slot_patterns(self, &lp);
                    for t in 0..lp.trips {
                        for (p, pats) in patterns.iter().enumerate() {
                            let instr = resolve_instr(&self.instrs[lp.start + p], pats, t);
                            step(&instr, rates, y, ydot, regs);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cse::{cse_forest, CseOptions};
    use crate::distopt::distribute_forest;

    fn term(c: f64, rate: u32, species: &[u32]) -> Expr {
        let mut f = vec![Expr::Rate(rate)];
        f.extend(species.iter().map(|&s| Expr::Species(s)));
        Expr::prod(c, f)
    }

    /// A minimal well-formed tape to mutate in the validate tests:
    /// r0 = y0*k0; r1 = r0 + y1; store both outputs.
    fn valid_tape() -> Tape {
        Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Add {
                    dst: 1,
                    a: Operand::Reg(0),
                    b: Operand::Species(1),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(1),
                },
                Instr::Store {
                    idx: 1,
                    a: Operand::Reg(0),
                },
            ],
            n_regs: 2,
            n_species: 2,
            n_rates: 1,
        }
    }

    #[test]
    fn validate_accepts_well_formed_tapes() {
        assert_eq!(valid_tape().validate(), Ok(()));
        // Lowered + compacted production tapes validate too.
        let f = forest(vec![
            Expr::sum(vec![term(2.0, 0, &[0, 1]), term(-1.0, 1, &[1])]),
            term(-2.0, 0, &[0, 1]),
        ]);
        let tape = compact_registers(&lower(&f));
        assert_eq!(tape.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_bounds_operands() {
        let mut t = valid_tape();
        t.instrs[1] = Instr::Add {
            dst: 1,
            a: Operand::Reg(0),
            b: Operand::Species(9),
        };
        assert!(t.validate().unwrap_err().contains("y[9] out of bounds"));

        let mut t = valid_tape();
        t.instrs[0] = Instr::Mul {
            dst: 0,
            a: Operand::Species(0),
            b: Operand::Rate(7),
        };
        assert!(t.validate().unwrap_err().contains("k[7] out of bounds"));

        let mut t = valid_tape();
        t.instrs[1] = Instr::Add {
            dst: 5,
            a: Operand::Reg(0),
            b: Operand::Species(1),
        };
        assert!(t.validate().unwrap_err().contains("r5 out of bounds"));
    }

    #[test]
    fn validate_rejects_read_before_write() {
        let mut t = valid_tape();
        t.instrs[1] = Instr::Add {
            dst: 1,
            a: Operand::Reg(1),
            b: Operand::Species(1),
        };
        assert!(t.validate().unwrap_err().contains("r1 read before write"));
    }

    #[test]
    fn validate_rejects_store_out_of_range() {
        let mut t = valid_tape();
        t.instrs[2] = Instr::Store {
            idx: 2,
            a: Operand::Reg(1),
        };
        assert!(t
            .validate()
            .unwrap_err()
            .contains("store index 2 out of bounds"));
    }

    #[test]
    fn validate_rejects_dead_copy() {
        // The copy into r1 is overwritten by the Add without ever being
        // read.
        let t = Tape {
            instrs: vec![
                Instr::Copy {
                    dst: 1,
                    a: Operand::Species(0),
                },
                Instr::Add {
                    dst: 1,
                    a: Operand::Species(0),
                    b: Operand::Species(1),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(1),
                },
                Instr::Store {
                    idx: 1,
                    a: Operand::Species(0),
                },
            ],
            n_regs: 2,
            n_species: 2,
            n_rates: 1,
        };
        assert!(t.validate().unwrap_err().contains("dead copy"));

        // A trailing copy that nothing reads is dead too.
        let t = Tape {
            instrs: vec![
                Instr::Store {
                    idx: 0,
                    a: Operand::Species(0),
                },
                Instr::Copy {
                    dst: 0,
                    a: Operand::Species(0),
                },
            ],
            n_regs: 1,
            n_species: 1,
            n_rates: 0,
        };
        assert!(t.validate().unwrap_err().contains("dead copy"));
    }

    #[test]
    fn validate_program_tracks_writes_across_tapes() {
        let mut pair0 = valid_tape();
        pair0.instrs.truncate(3); // keep: r0, r1 defined; store idx 0
        let pair1 = Tape {
            // Reads r0 written by the first tape; stores its single
            // output at rebased index 0.
            instrs: vec![Instr::Store {
                idx: 0,
                a: Operand::Reg(0),
            }],
            n_regs: 2,
            n_species: 2,
            n_rates: 1,
        };
        assert_eq!(validate_program(&[(&pair0, 2), (&pair1, 1)]), Ok(()));
        // Alone, the second tape reads an unwritten register.
        assert!(validate_program(&[(&pair1, 1)])
            .unwrap_err()
            .contains("read before write"));
    }

    fn forest(rhs: Vec<Expr>) -> ExprForest {
        // Fixtures freely reference species beyond the output count as
        // pure inputs, so size the species space to cover them.
        let mut n = rhs.len();
        for e in &rhs {
            max_species_bound(e, &mut n);
        }
        ExprForest {
            temps: vec![],
            rhs,
            n_species: n,
            n_rates: 8,
        }
    }

    fn max_species_bound(e: &Expr, n: &mut usize) {
        match e {
            Expr::Species(i) => *n = (*n).max(*i as usize + 1),
            Expr::Prod(_, fs) => fs.iter().for_each(|f| max_species_bound(f, n)),
            Expr::Sum(cs) => cs.iter().for_each(|c| max_species_bound(c, n)),
            _ => {}
        }
    }

    fn check_tape_matches_forest(f: &ExprForest, rates: &[f64], y: &[f64]) {
        let tape = lower(f);
        let mut expect = vec![0.0; f.rhs.len()];
        f.eval_into(rates, y, &mut expect);
        let mut got = vec![0.0; f.rhs.len()];
        tape.eval(rates, y, &mut got);
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "eq {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn simple_decay() {
        // dA/dt = -k0*A
        let f = forest(vec![term(-1.0, 0, &[0])]);
        let tape = lower(&f);
        // one Mul + one Neg + Store
        assert_eq!(tape.op_counts(), OpCounts { mults: 1, adds: 1 });
        let mut ydot = vec![0.0];
        tape.eval(&[2.0], &[3.0], &mut ydot);
        assert_eq!(ydot[0], -6.0);
    }

    #[test]
    fn sub_absorbs_signs() {
        // k0*A - k1*B: 2 muls, 1 sub, no negs
        let f = forest(vec![Expr::sum(vec![
            term(1.0, 0, &[0]),
            term(-1.0, 1, &[0]),
        ])]);
        let tape = lower(&f);
        assert_eq!(tape.op_counts(), OpCounts { mults: 2, adds: 1 });
        assert!(tape.instrs.iter().any(|i| matches!(i, Instr::Sub { .. })));
        assert!(!tape.instrs.iter().any(|i| matches!(i, Instr::Neg { .. })));
        check_tape_matches_forest(&f, &[2.0, 5.0], &[3.0]);
    }

    #[test]
    fn all_negative_sum() {
        // -k0*A - k1*B = -(k0*A + k1*B): adds then one neg
        let f = forest(vec![Expr::sum(vec![
            term(-1.0, 0, &[0]),
            term(-1.0, 1, &[0]),
        ])]);
        let tape = lower(&f);
        assert_eq!(tape.op_counts(), OpCounts { mults: 2, adds: 2 });
        check_tape_matches_forest(&f, &[2.0, 5.0], &[3.0]);
    }

    #[test]
    fn tape_op_counts_match_forest_cost_model() {
        let f = forest(vec![
            Expr::sum(vec![term(2.0, 0, &[0, 1]), term(1.0, 1, &[2])]),
            term(-3.0, 2, &[1, 1]),
        ]);
        let tape = lower(&f);
        let fc = f.op_counts();
        let tc = tape.op_counts();
        assert_eq!(tc.mults, fc.mults);
        // Neg for the leading -3 coeff product counts as one extra add-op.
        assert!(tc.adds >= fc.adds);
        check_tape_matches_forest(&f, &[1.1, 2.2, 3.3], &[0.5, 0.7, 0.9]);
    }

    #[test]
    fn temps_computed_once() {
        let f = forest(vec![
            term(-1.0, 0, &[0, 1]),
            term(-1.0, 0, &[0, 1]),
            term(1.0, 0, &[0, 1]),
        ]);
        let optimized = cse_forest(&f, CseOptions::default());
        let tape = lower(&optimized);
        assert_eq!(tape.op_counts().mults, 2);
        check_tape_matches_forest(&optimized, &[2.0], &[3.0, 5.0, 0.0]);
    }

    #[test]
    fn zero_rhs_stores_constant() {
        let f = forest(vec![Expr::constant(0.0)]);
        let tape = lower(&f);
        let mut ydot = vec![99.0];
        tape.eval(&[], &[0.0], &mut ydot);
        assert_eq!(ydot[0], 0.0);
        assert_eq!(tape.op_counts(), OpCounts::default());
    }

    #[test]
    fn scratch_reuse() {
        let f = forest(vec![term(1.0, 0, &[0])]);
        let tape = lower(&f);
        let mut regs = Vec::new();
        let mut ydot = vec![0.0];
        tape.eval_with_scratch(&[2.0], &[3.0], &mut ydot, &mut regs);
        assert_eq!(ydot[0], 6.0);
        tape.eval_with_scratch(&[2.0], &[4.0], &mut ydot, &mut regs);
        assert_eq!(ydot[0], 8.0);
    }

    #[test]
    fn register_compaction_preserves_semantics_and_shrinks() {
        use crate::cse::{cse_forest, CseOptions};
        use crate::distopt::distribute_forest;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..20 {
            let n_eq = rng.gen_range(2..6);
            let f = forest(
                (0..n_eq)
                    .map(|_| {
                        Expr::sum(
                            (0..rng.gen_range(1..7))
                                .map(|_| {
                                    let sp: Vec<u32> = (0..rng.gen_range(1..4))
                                        .map(|_| rng.gen_range(0..6))
                                        .collect();
                                    term(rng.gen_range(1..3) as f64, rng.gen_range(0..3), &sp)
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            );
            let optimized = cse_forest(&distribute_forest(&f), CseOptions::default());
            let tape = lower(&optimized);
            let compact = compact_registers(&tape);
            assert!(compact.n_regs <= tape.n_regs);
            assert_eq!(compact.len(), tape.len());
            assert_eq!(compact.op_counts(), tape.op_counts());
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..6).map(|_| rng.gen_range(0.1..2.0)).collect();
            let mut a = vec![0.0; n_eq];
            let mut b = vec![0.0; n_eq];
            tape.eval(&rates, &y, &mut a);
            compact.eval(&rates, &y, &mut b);
            assert_eq!(a, b, "compaction changed results");
        }
    }

    #[test]
    fn compaction_handles_squared_operands() {
        // x*x reads the same register twice at its last use; the slot must
        // be released exactly once.
        let f = forest(vec![Expr::prod(
            1.0,
            vec![
                Expr::sum(vec![Expr::Species(0), Expr::Species(1)]),
                Expr::sum(vec![Expr::Species(0), Expr::Species(1)]),
            ],
        )]);
        let tape = lower(&f);
        let compact = compact_registers(&tape);
        let mut a = vec![0.0];
        let mut b = vec![0.0];
        tape.eval(&[], &[2.0, 3.0], &mut a);
        compact.eval(&[], &[2.0, 3.0], &mut b);
        assert_eq!(a, b);
        assert_eq!(a[0], 25.0);
    }

    #[test]
    fn compaction_reuses_slots_in_long_chains() {
        // A long sum: SSA takes ~n registers, compaction needs O(1).
        let f = forest(vec![Expr::sum(
            (0..64).map(|i| term(1.0, 0, &[i])).collect(),
        )]);
        let tape = lower(&f);
        assert!(tape.n_regs >= 64);
        let compact = compact_registers(&tape);
        assert!(
            compact.n_regs <= 4,
            "expected O(1) slots, got {}",
            compact.n_regs
        );
    }

    #[test]
    fn copy_forwarding_drops_vn_copies() {
        use crate::generic::{generic_compile, GenericOptions};
        // Duplicate products inside one equation -> VN emits Copies ->
        // forwarding removes them. (Direct Sum construction keeps the
        // duplicates; no store intervenes, so the alias barrier does not
        // block the match.)
        let f = forest(vec![Expr::Sum(vec![
            term(1.0, 0, &[0, 1]),
            term(1.0, 0, &[0, 1]),
            term(2.0, 0, &[0, 1]),
        ])]);
        let ssa = lower(&f);
        let vn = generic_compile(
            &ssa,
            GenericOptions {
                opt_level: 4,
                memory_budget: usize::MAX,
            },
        )
        .unwrap();
        assert!(vn
            .tape
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Copy { .. })));
        let fwd = forward_copies(&vn.tape);
        assert!(!fwd.instrs.iter().any(|i| matches!(i, Instr::Copy { .. })));
        assert!(fwd.len() < vn.tape.len());
        let mut a = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        ssa.eval(&[2.0], &[3.0, 5.0], &mut a);
        compact_registers(&fwd).eval(&[2.0], &[3.0, 5.0], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn compaction_propagates_vn_copies() {
        use crate::generic::{generic_compile, GenericOptions};
        let f = forest(vec![Expr::Sum(vec![
            term(1.0, 0, &[0, 1]),
            term(1.0, 0, &[0, 1]),
            term(2.0, 0, &[0, 1]),
        ])]);
        let ssa = lower(&f);
        let vn = generic_compile(
            &ssa,
            GenericOptions {
                opt_level: 4,
                memory_budget: usize::MAX,
            },
        )
        .unwrap();
        assert!(vn.tape.instrs.iter().any(|i| matches!(
            i,
            Instr::Copy {
                a: Operand::Reg(_),
                ..
            }
        )));
        // compact_registers alone (no forward_copies pre-pass) must now
        // absorb the register-to-register copies via slot aliasing.
        let compact = compact_registers(&vn.tape);
        assert!(!compact.instrs.iter().any(|i| matches!(
            i,
            Instr::Copy {
                a: Operand::Reg(_),
                ..
            }
        )));
        assert!(compact.len() < vn.tape.len());
        let mut a = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        ssa.eval(&[2.0], &[3.0, 5.0], &mut a);
        compact.eval(&[2.0], &[3.0, 5.0], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn compaction_keeps_copies_on_register_reuse() {
        // Register 0 is written twice: aliasing the copy would read the
        // *second* value, so the copy must be materialized.
        let tape = Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Copy {
                    dst: 1,
                    a: Operand::Reg(0),
                },
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(1),
                    b: Operand::Rate(0),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(1),
                },
                Instr::Store {
                    idx: 1,
                    a: Operand::Reg(0),
                },
            ],
            n_regs: 2,
            n_species: 2,
            n_rates: 1,
        };
        let compact = compact_registers(&tape);
        assert!(compact
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Copy { .. })));
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        tape.eval(&[2.0], &[3.0, 5.0], &mut a);
        compact.eval(&[2.0], &[3.0, 5.0], &mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![6.0, 10.0]);
    }

    #[test]
    fn split_lowering_matches_monolithic() {
        // t0 shared by a primary and a secondary output; t1 secondary-only.
        let f = ExprForest {
            temps: vec![
                Expr::prod(1.0, vec![Expr::Rate(0), Expr::Species(0), Expr::Species(1)]),
                Expr::prod(1.0, vec![Expr::Rate(1), Expr::Species(1)]),
            ],
            rhs: vec![
                Expr::prod(-1.0, vec![Expr::Temp(crate::expr::TempId(0))]),
                Expr::Temp(crate::expr::TempId(0)),
                // secondary outputs
                Expr::sum(vec![
                    Expr::Temp(crate::expr::TempId(0)),
                    Expr::Temp(crate::expr::TempId(1)),
                ]),
                Expr::Temp(crate::expr::TempId(1)),
            ],
            n_species: 2,
            n_rates: 2,
        };
        let mono = lower(&f);
        let tapes = lower_split_multi(&f, &[2, 2]);
        let tapes = compact_registers_multi(&[&tapes[0], &tapes[1]]);
        let (first, second) = (&tapes[0], &tapes[1]);
        assert_eq!(first.n_regs, second.n_regs);
        // t0's product must not be recomputed by the secondary tape.
        assert_eq!(
            first.op_counts().total() + second.op_counts().total(),
            mono.op_counts().total()
        );
        let rates = [2.0, 3.0];
        let y = [5.0, 7.0];
        let mut expect = vec![0.0; 4];
        mono.eval(&rates, &y, &mut expect);
        let mut out1 = vec![0.0; 2];
        let mut out2 = vec![0.0; 2];
        let mut regs = Vec::new();
        first.eval_with_scratch(&rates, &y, &mut out1, &mut regs);
        second.eval_with_scratch(&rates, &y, &mut out2, &mut regs);
        assert_eq!(out1, expect[..2].to_vec());
        assert_eq!(out2, expect[2..].to_vec());
    }

    #[test]
    fn split_lowering_skips_unreferenced_temps() {
        let f = ExprForest {
            temps: vec![
                Expr::prod(1.0, vec![Expr::Rate(0), Expr::Species(0), Expr::Species(1)]),
                // Dead temp: referenced by nothing.
                Expr::prod(1.0, vec![Expr::Rate(1), Expr::Species(0), Expr::Species(1)]),
            ],
            rhs: vec![
                Expr::Temp(crate::expr::TempId(0)),
                Expr::prod(2.0, vec![Expr::Temp(crate::expr::TempId(0))]),
            ],
            n_species: 2,
            n_rates: 2,
        };
        let total: usize = lower_split_multi(&f, &[1, 1])
            .iter()
            .map(|tape| tape.op_counts().total())
            .sum();
        // 2 muls for t0, 1 mul for the 2* scaling; the dead temp's 2 muls
        // must not appear.
        assert_eq!(total, 3);
    }

    #[test]
    fn copy_chains_flatten() {
        use crate::tape::{Instr, Operand, Tape};
        let tape = Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Copy {
                    dst: 1,
                    a: Operand::Reg(0),
                },
                Instr::Copy {
                    dst: 2,
                    a: Operand::Reg(1),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(2),
                },
            ],
            n_regs: 3,
            n_species: 1,
            n_rates: 1,
        };
        let fwd = forward_copies(&tape);
        assert_eq!(fwd.len(), 2);
        let mut out = vec![0.0];
        fwd.eval(&[3.0], &[4.0], &mut out);
        assert_eq!(out[0], 12.0);
    }

    #[test]
    fn full_pipeline_tape_semantics() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            let n_eq = rng.gen_range(2..6);
            let f = forest(
                (0..n_eq)
                    .map(|_| {
                        Expr::sum(
                            (0..rng.gen_range(1..6))
                                .map(|_| {
                                    let sp: Vec<u32> = (0..rng.gen_range(1..4))
                                        .map(|_| rng.gen_range(0..6))
                                        .collect();
                                    term(rng.gen_range(1..3) as f64, rng.gen_range(0..3), &sp)
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            );
            let optimized = cse_forest(&distribute_forest(&f), CseOptions::default());
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..6).map(|_| rng.gen_range(0.1..2.0)).collect();
            let tape = lower(&optimized);
            let mut expect = vec![0.0; n_eq];
            f.eval_into(&rates, &y, &mut expect);
            let mut got = vec![0.0; n_eq];
            tape.eval(&rates, &y, &mut got);
            for (a, b) in expect.iter().zip(&got) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    // --- reroll -----------------------------------------------------------

    /// A hand-built tape with an obvious rerollable run: 6 stanzas of
    /// `r0 = k[j] * y[a]; ydot[j] = r0` with irregular species indices.
    fn stanza_tape() -> Tape {
        let species = [0u32, 3, 1, 7, 2, 5];
        let mut instrs = Vec::new();
        for (j, &sp) in species.iter().enumerate() {
            instrs.push(Instr::Mul {
                dst: 0,
                a: Operand::Rate(j as u32),
                b: Operand::Species(sp),
            });
            instrs.push(Instr::Store {
                idx: j as u32,
                a: Operand::Reg(0),
            });
        }
        Tape {
            instrs,
            n_regs: 1,
            n_species: 8,
            n_rates: 6,
        }
    }

    fn loose() -> RerollOptions {
        RerollOptions {
            max_body: 64,
            min_trips: 2,
            min_savings: 1,
        }
    }

    #[test]
    fn reroll_detects_stanza_runs() {
        let tape = stanza_tape();
        let rolled = reroll(&tape, &loose());
        assert_eq!(rolled.validate(&tape), Ok(()));
        assert_eq!(rolled.loop_count(), 1);
        let lp = rolled.loops[0];
        assert_eq!((lp.start, lp.body_len, lp.trips), (0, 2, 6));
        assert_eq!(rolled.rerolled_instrs(), 10);
        assert_eq!(rolled.rolled_len(), 2);
    }

    #[test]
    fn reroll_slot_patterns_classify_fixed_affine_table() {
        let tape = stanza_tape();
        let rolled = reroll(&tape, &loose());
        let patterns = loop_slot_patterns(&tape, &rolled.loops[0]);
        // Mul: dst fixed, rate affine (+1), species a table.
        assert_eq!(patterns[0][0], SlotPattern::Fixed);
        assert_eq!(patterns[0][1], SlotPattern::Affine { stride: 1 });
        assert_eq!(patterns[0][2], SlotPattern::Table(vec![0, 3, 1, 7, 2, 5]));
        // Store: idx affine, source register fixed.
        assert_eq!(patterns[1][0], SlotPattern::Affine { stride: 1 });
        assert_eq!(patterns[1][1], SlotPattern::Fixed);
        // Round trip: resolving every trip reproduces the flat instrs.
        let lp = rolled.loops[0];
        for t in 0..lp.trips {
            for (p, pats) in patterns.iter().enumerate() {
                assert_eq!(
                    resolve_instr(&tape.instrs[lp.start + p], pats, t),
                    tape.instrs[lp.start + t * lp.body_len + p]
                );
            }
        }
    }

    #[test]
    fn reroll_const_payloads_get_const_tables() {
        let mut instrs = Vec::new();
        for (j, c) in [2.0f64, 3.5, -1.25, 0.75].iter().enumerate() {
            instrs.push(Instr::Mul {
                dst: 0,
                a: Operand::Species(j as u32),
                b: Operand::Const(*c),
            });
            instrs.push(Instr::Store {
                idx: j as u32,
                a: Operand::Reg(0),
            });
        }
        let tape = Tape {
            instrs,
            n_regs: 1,
            n_species: 4,
            n_rates: 0,
        };
        let rolled = reroll(&tape, &loose());
        assert_eq!(rolled.loop_count(), 1);
        let patterns = loop_slot_patterns(&tape, &rolled.loops[0]);
        assert_eq!(
            patterns[0][2],
            SlotPattern::ConstTable(vec![2.0, 3.5, -1.25, 0.75])
        );
    }

    #[test]
    fn reroll_degenerate_and_thresholds() {
        // No repetition: the degenerate straight view.
        let tape = valid_tape();
        let rolled = reroll(&tape, &RerollOptions::default());
        assert_eq!(rolled.loops, Vec::new());
        assert_eq!(rolled.rolled_len(), tape.len());
        assert_eq!(rolled.validate(&tape), Ok(()));
        // min_savings filters small runs out.
        let tape = stanza_tape();
        let strict = RerollOptions {
            min_savings: 50,
            ..RerollOptions::default()
        };
        assert_eq!(reroll(&tape, &strict).loop_count(), 0);
    }

    #[test]
    fn rolled_validate_rejects_bad_views() {
        let tape = stanza_tape();
        let mut rolled = reroll(&tape, &loose());
        rolled.loops[0].trips += 10; // runs past the end
        assert!(rolled
            .validate(&tape)
            .unwrap_err()
            .contains("past the tape"));

        let bad = RolledTape {
            len: tape.len(),
            loops: vec![TapeLoop {
                start: 0, // wrong period: trip 1 opens with a Store
                body_len: 3,
                trips: 2,
            }],
        };
        assert!(bad.validate(&tape).unwrap_err().contains("does not match"));

        let stale = RolledTape {
            len: 3,
            loops: Vec::new(),
        };
        assert!(stale.validate(&tape).unwrap_err().contains("built for"));
    }

    #[test]
    fn eval_rolled_is_bit_identical_on_production_tapes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..30 {
            let n_eq = 4 + (trial % 5);
            let f = forest(
                (0..n_eq)
                    .map(|_| {
                        Expr::sum(
                            (0..rng.gen_range(1..6))
                                .map(|_| {
                                    let sp: Vec<u32> = (0..rng.gen_range(1..4))
                                        .map(|_| rng.gen_range(0..6))
                                        .collect();
                                    term(rng.gen_range(1..3) as f64, rng.gen_range(0..3), &sp)
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            );
            let tape = compact_registers(&lower(&f));
            let rolled = reroll(&tape, &loose());
            assert_eq!(rolled.validate(&tape), Ok(()));
            let rates: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..2.0)).collect();
            let y: Vec<f64> = (0..6).map(|_| rng.gen_range(0.1..2.0)).collect();
            let mut flat = vec![0.0; n_eq];
            tape.eval(&rates, &y, &mut flat);
            let mut rolled_out = vec![0.0; n_eq];
            let mut regs = Vec::new();
            tape.eval_rolled_with_scratch(&rolled, &rates, &y, &mut rolled_out, &mut regs);
            assert_eq!(
                flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rolled_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "rolled interpreter diverged on trial {trial}"
            );
        }
    }
}
