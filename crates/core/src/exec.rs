//! Pre-decoded fused execution engine for compiled tapes.
//!
//! [`Tape`]'s interpreter re-dispatches on operand kind
//! (register/species/rate/constant) for every operand of every
//! instruction — four-way branches in the innermost loop of the whole
//! runtime. This module removes that cost with a one-time decode pass:
//!
//! * **Unified frame.** Every operand becomes an absolute index into one
//!   flat buffer laid out `[rates | species | constants | registers]`.
//!   Rate constants and the state vector are copied into the frame prefix
//!   at evaluation start; literal constants are deduplicated into a pool
//!   written once at decode time. Operand fetch is then a single indexed
//!   load with no branch.
//! * **Superinstruction fusion.** A peephole pass fuses a `Mul` whose
//!   result feeds exactly one adjacent `Add`/`Sub` into a single
//!   multiply-accumulate instruction, and folds `Neg` into the `Store`
//!   that consumes it. Fused multiply-adds use the hardware FMA only when
//!   the build enables it (`target_feature = "fma"`); otherwise they
//!   compute `a * b + c` with two roundings, bit-identical to the
//!   interpreter. See [`FMA_CONTRACTS`].
//! * **Derivative groups.** [`ExecGroup`] decodes the tapes of one
//!   derivative group (RHS → `∂f/∂y` → optional `∂f/∂p`, one register
//!   file) into one instruction stream over one frame — one constant
//!   pool, one layout, one identity — with one segment per tape. Fusion
//!   counts reads across the whole group, so a register one tape defines
//!   and a later one reads is never fused away, and it never pairs
//!   instructions of two tapes, so each segment can run on its own:
//!   [`ExecGroup::resume`] runs the `∂f/∂p` segment over the frame an
//!   earlier [`ExecGroup::eval`] of the head filled. An [`ExecTape`] is
//!   a group of one segment: the RHS tape alone.
//!
//! [`ExecTape::op_counts`] reports the same totals as the source tape
//! (each fused multiply-add counts as one multiply plus one add, a fused
//! negating store as one add), so Table 1 reproduction numbers are
//! engine-independent.

use std::sync::atomic::{AtomicU64, Ordering};

use rms_odegen::OpCounts;

use crate::tape::{Instr, Operand, Tape};

/// A decoded instruction. All operands are absolute frame indices; the
/// frame layout is `[rates | species | constants | registers]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given by each variant's formula
pub enum ExecInstr {
    /// `frame[dst] = frame[a] + frame[b]`
    Add { dst: u32, a: u32, b: u32 },
    /// `frame[dst] = frame[a] - frame[b]`
    Sub { dst: u32, a: u32, b: u32 },
    /// `frame[dst] = frame[a] * frame[b]`
    Mul { dst: u32, a: u32, b: u32 },
    /// `frame[dst] = frame[a] * frame[b] + frame[c]` (fused Mul+Add)
    MulAdd { dst: u32, a: u32, b: u32, c: u32 },
    /// `frame[dst] = frame[a] * frame[b] - frame[c]` (fused Mul+Sub,
    /// product on the left)
    MulSub { dst: u32, a: u32, b: u32, c: u32 },
    /// `frame[dst] = frame[c] - frame[a] * frame[b]` (fused Mul+Sub,
    /// product on the right)
    SubMul { dst: u32, a: u32, b: u32, c: u32 },
    /// `frame[dst] = -frame[a]`
    Neg { dst: u32, a: u32 },
    /// `frame[dst] = frame[a]`
    Copy { dst: u32, a: u32 },
    /// `ydot[idx] = frame[a]`
    Store { idx: u32, a: u32 },
    /// `ydot[idx] = -frame[a]` (fused Neg+Store)
    StoreNeg { idx: u32, a: u32 },
}

/// Fused multiply-add as executed by the engine.
///
/// When the build enables hardware FMA (`-C target-feature=+fma`) this is
/// a single-rounding `mul_add` — results may differ from the interpreter
/// by up to 1 ulp per fused pair. Without the feature, `mul_add` would
/// fall back to a slow libm routine, so we compute `a * b + c` with two
/// roundings instead — bit-identical to the unfused interpreter.
#[inline(always)]
fn fma(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Whether fused multiply-adds contract to a single rounding (hardware
/// FMA enabled at compile time). When `false`, [`ExecTape`] evaluation is
/// bit-identical to the [`Tape`] interpreter.
pub const FMA_CONTRACTS: bool = cfg!(target_feature = "fma");

static NEXT_TAPE_ID: AtomicU64 = AtomicU64::new(1);

/// A [`Tape`] decoded for execution: an [`ExecGroup`] of one segment,
/// the tape with its output arity `n_species`.
#[derive(Debug, Clone)]
pub struct ExecTape {
    group: ExecGroup,
}

impl ExecTape {
    /// Decode `tape` (with superinstruction fusion). The tape's `Store`
    /// indices must address `0..tape.n_species`.
    pub fn compile(tape: &Tape) -> ExecTape {
        ExecTape {
            group: ExecGroup::compile(&[(tape, tape.n_species)]),
        }
    }

    /// Instructions executed per evaluation. Fusion shrinks this below
    /// the source tape's length.
    pub fn len(&self) -> usize {
        self.instrs().len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs().is_empty()
    }

    /// The decoded instruction stream.
    pub fn instrs(&self) -> &[ExecInstr] {
        self.group.segment(0)
    }

    /// Number of distinct pooled constants.
    pub fn n_consts(&self) -> usize {
        self.group.n_consts()
    }

    /// Number of species (state variables read as inputs).
    pub fn n_species(&self) -> usize {
        self.group.n_species
    }

    /// Number of rate constants.
    pub fn n_rates(&self) -> usize {
        self.group.n_rates
    }

    /// Arithmetic operation counts, matching the source [`Tape`]:
    /// each fused multiply-add/sub counts as one multiply plus one add,
    /// a fused negating store as one add (`Neg` is add-class), and
    /// `Copy`/`Store` are free.
    pub fn op_counts(&self) -> OpCounts {
        self.group.op_counts(0)
    }

    /// Evaluate one state: reads `rates` and `y`, writes `ydot`. The
    /// frame is bound on first use and reused allocation-free after.
    pub fn eval(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], frame: &mut ExecFrame) {
        self.group.eval(rates, y, &mut [ydot], frame);
    }

    /// [`eval`](ExecTape::eval) over stacked states: `ys` holds them
    /// row-major (`n_states * n_species` long) and `ydots` receives the
    /// outputs in the same layout. Only the benchmark's per-layer probe
    /// calls this.
    pub fn eval_batch(&self, rates: &[f64], ys: &[f64], ydots: &mut [f64], frame: &mut ExecFrame) {
        assert_eq!(ys.len(), ydots.len(), "ydots length mismatch");
        let n = self.n_species();
        for (y, ydot) in ys.chunks(n).zip(ydots.chunks_mut(n)) {
            self.eval(rates, y, ydot, frame);
        }
    }
}

/// The tapes of one derivative group decoded for execution: RHS →
/// `∂f/∂y` → optional `∂f/∂p`, which run back to back on one register
/// file, as one fused instruction stream over one frame with one segment
/// per tape. Segment `k` stores into its own output (the tape's arity:
/// species, Jacobian nonzeros, `∂f/∂p` nonzeros).
#[derive(Debug, Clone)]
pub struct ExecGroup {
    instrs: Vec<ExecInstr>,
    /// End of each segment in `instrs`; segment `k` starts where `k - 1`
    /// ends.
    ends: Vec<usize>,
    /// Output arity of each segment.
    n_outputs: Vec<usize>,
    consts: Vec<f64>,
    frame_len: usize,
    n_species: usize,
    n_rates: usize,
    id: u64,
}

impl ExecGroup {
    /// Decode tapes that run in order on one register file, each paired
    /// with its output arity (the [`validate_program`] contract). Fusion
    /// counts reads across the whole group and never pairs instructions
    /// of two tapes.
    ///
    /// [`validate_program`]: crate::tape::validate_program
    pub fn compile(tapes: &[(&Tape, usize)]) -> ExecGroup {
        let (first, _) = tapes.first().expect("a group has at least one tape");
        let decoded = decode(&tapes.iter().map(|&(t, _)| t).collect::<Vec<_>>());
        let (instrs, ends) = fuse(&decoded.instrs, &decoded.ends, decoded.frame_len);
        ExecGroup {
            instrs,
            ends,
            n_outputs: tapes.iter().map(|&(_, n)| n).collect(),
            consts: decoded.consts,
            frame_len: decoded.frame_len,
            n_species: first.n_species,
            n_rates: first.n_rates,
            id: NEXT_TAPE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The decoded instructions of segment `k`.
    pub fn segment(&self, k: usize) -> &[ExecInstr] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.instrs[start..self.ends[k]]
    }

    /// Number of distinct pooled constants, across all segments.
    pub fn n_consts(&self) -> usize {
        self.consts.len()
    }

    /// Arithmetic operation counts of segment `k`, matching its source
    /// tape's as [`ExecTape::op_counts`] does.
    pub fn op_counts(&self, k: usize) -> OpCounts {
        count_ops(self.segment(k))
    }

    /// Load `rates` and `y` into `frame` and run the first `outs.len()`
    /// segments in order, segment `k` writing `outs[k]`.
    pub fn eval(&self, rates: &[f64], y: &[f64], outs: &mut [&mut [f64]], frame: &mut ExecFrame) {
        assert_eq!(y.len(), self.n_species, "state length mismatch");
        assert_eq!(rates.len(), self.n_rates, "rates length mismatch");
        let const_base = self.n_rates + self.n_species;
        frame.bind(self.id, self.frame_len, const_base, &self.consts);
        let f = &mut frame.data[..];
        f[..self.n_rates].copy_from_slice(rates);
        f[self.n_rates..const_base].copy_from_slice(y);
        for (k, out) in outs.iter_mut().enumerate() {
            self.run(k, f, out);
        }
    }

    /// Run segment `k` alone over `frame`, which an [`eval`](ExecGroup::eval)
    /// at the same `(rates, y)` filled through segment `k - 1`: the
    /// segment reads registers the earlier ones wrote.
    pub fn resume(&self, k: usize, out: &mut [f64], frame: &mut ExecFrame) {
        assert!(
            frame.tape_id == self.id && frame.data.len() == self.frame_len,
            "resumed over a frame this group did not fill"
        );
        self.run(k, &mut frame.data, out);
    }

    fn run(&self, k: usize, f: &mut [f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_outputs[k], "output length mismatch");
        for instr in self.segment(k) {
            step_scalar(*instr, f, out);
        }
    }
}

/// Arithmetic operation counts of a decoded stream, as the source
/// [`Tape`] counts them: each fused multiply-add/sub is one multiply
/// plus one add, a fused negating store one add.
fn count_ops(instrs: &[ExecInstr]) -> OpCounts {
    let mut counts = OpCounts::default();
    for instr in instrs {
        match instr {
            ExecInstr::Mul { .. } => counts.mults += 1,
            ExecInstr::Add { .. } | ExecInstr::Sub { .. } | ExecInstr::Neg { .. } => {
                counts.adds += 1
            }
            ExecInstr::MulAdd { .. } | ExecInstr::MulSub { .. } | ExecInstr::SubMul { .. } => {
                counts.mults += 1;
                counts.adds += 1;
            }
            ExecInstr::StoreNeg { .. } => counts.adds += 1,
            ExecInstr::Copy { .. } | ExecInstr::Store { .. } => {}
        }
    }
    counts
}

/// Execute one instruction against the scalar frame.
#[inline(always)]
fn step_scalar(instr: ExecInstr, f: &mut [f64], ydot: &mut [f64]) {
    match instr {
        ExecInstr::Add { dst, a, b } => f[dst as usize] = f[a as usize] + f[b as usize],
        ExecInstr::Sub { dst, a, b } => f[dst as usize] = f[a as usize] - f[b as usize],
        ExecInstr::Mul { dst, a, b } => f[dst as usize] = f[a as usize] * f[b as usize],
        ExecInstr::MulAdd { dst, a, b, c } => {
            f[dst as usize] = fma(f[a as usize], f[b as usize], f[c as usize])
        }
        ExecInstr::MulSub { dst, a, b, c } => {
            f[dst as usize] = fma(f[a as usize], f[b as usize], -f[c as usize])
        }
        ExecInstr::SubMul { dst, a, b, c } => {
            f[dst as usize] = f[c as usize] - f[a as usize] * f[b as usize]
        }
        ExecInstr::Neg { dst, a } => f[dst as usize] = -f[a as usize],
        ExecInstr::Copy { dst, a } => f[dst as usize] = f[a as usize],
        ExecInstr::Store { idx, a } => ydot[idx as usize] = f[a as usize],
        ExecInstr::StoreNeg { idx, a } => ydot[idx as usize] = -f[a as usize],
    }
}

/// Reusable evaluation scratch for an [`ExecTape`] or [`ExecGroup`]: the
/// unified scalar frame. Binding is lazy and keyed by program identity,
/// so one frame can serve different programs over its lifetime
/// (rebinding reinitializes it) while repeated evaluation of one program
/// allocates nothing.
#[derive(Debug, Default)]
pub struct ExecFrame {
    tape_id: u64,
    data: Vec<f64>,
}

impl ExecFrame {
    /// An empty frame; sized on first use.
    pub fn new() -> ExecFrame {
        ExecFrame::default()
    }

    /// Bind the scalar buffer to the program with identity `id`: size it
    /// and write the constant pool into its slots. Cheap when the frame
    /// is already bound to that program.
    fn bind(&mut self, id: u64, frame_len: usize, const_base: usize, consts: &[f64]) {
        if self.tape_id == id && self.data.len() == frame_len {
            return;
        }
        self.data.clear();
        self.data.resize(frame_len, 0.0);
        self.data[const_base..const_base + consts.len()].copy_from_slice(consts);
        self.tape_id = id;
    }
}

/// Tapes decoded into one instruction stream over one frame.
struct Decoded {
    instrs: Vec<ExecInstr>,
    /// End of each tape's instructions in `instrs`.
    ends: Vec<usize>,
    consts: Vec<f64>,
    frame_len: usize,
}

/// Decode pass over tapes that run in order on one register file (one
/// tape, or a derivative group): resolve every operand to an absolute
/// frame index, pooling the literal constants of all of them
/// (deduplicated by bit pattern).
fn decode(tapes: &[&Tape]) -> Decoded {
    let tape = tapes[0];
    assert!(
        tapes
            .iter()
            .all(|t| (t.n_species, t.n_rates, t.n_regs)
                == (tape.n_species, tape.n_rates, tape.n_regs)),
        "the tapes of one program share one register file"
    );
    let rate_base = 0u32;
    let species_base = tape.n_rates as u32;
    let const_base = species_base + tape.n_species as u32;
    let mut consts: Vec<f64> = Vec::new();
    let mut const_index: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    // The register section starts after the constants; constants are
    // interned first so register indices can be assigned in one pass.
    // Two sweeps: intern constants, then resolve.
    for instr in tapes.iter().flat_map(|t| &t.instrs) {
        let mut intern = |op: Operand| {
            if let Operand::Const(v) = op {
                const_index.entry(v.to_bits()).or_insert_with(|| {
                    consts.push(v);
                    (consts.len() - 1) as u32
                });
            }
        };
        match *instr {
            Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } | Instr::Mul { a, b, .. } => {
                intern(a);
                intern(b);
            }
            Instr::Neg { a, .. } | Instr::Copy { a, .. } | Instr::Store { a, .. } => intern(a),
        }
    }
    let reg_base = const_base + consts.len() as u32;
    let resolve = |op: Operand| -> u32 {
        match op {
            Operand::Reg(r) => reg_base + r,
            Operand::Species(i) => species_base + i,
            Operand::Rate(i) => rate_base + i,
            Operand::Const(v) => const_base + const_index[&v.to_bits()],
        }
    };
    let lower = |instr: &Instr| match *instr {
        Instr::Add { dst, a, b } => ExecInstr::Add {
            dst: reg_base + dst,
            a: resolve(a),
            b: resolve(b),
        },
        Instr::Sub { dst, a, b } => ExecInstr::Sub {
            dst: reg_base + dst,
            a: resolve(a),
            b: resolve(b),
        },
        Instr::Mul { dst, a, b } => ExecInstr::Mul {
            dst: reg_base + dst,
            a: resolve(a),
            b: resolve(b),
        },
        Instr::Neg { dst, a } => ExecInstr::Neg {
            dst: reg_base + dst,
            a: resolve(a),
        },
        Instr::Copy { dst, a } => ExecInstr::Copy {
            dst: reg_base + dst,
            a: resolve(a),
        },
        Instr::Store { idx, a } => ExecInstr::Store { idx, a: resolve(a) },
    };
    let mut instrs = Vec::with_capacity(tapes.iter().map(|t| t.instrs.len()).sum());
    let mut ends = Vec::with_capacity(tapes.len());
    for t in tapes {
        instrs.extend(t.instrs.iter().map(lower));
        ends.push(instrs.len());
    }
    Decoded {
        instrs,
        ends,
        frame_len: reg_base as usize + tape.n_regs,
        consts,
    }
}

/// Destination slot of an instruction, if it writes the frame.
fn dst_of(i: &ExecInstr) -> Option<u32> {
    match *i {
        ExecInstr::Add { dst, .. }
        | ExecInstr::Sub { dst, .. }
        | ExecInstr::Mul { dst, .. }
        | ExecInstr::MulAdd { dst, .. }
        | ExecInstr::MulSub { dst, .. }
        | ExecInstr::SubMul { dst, .. }
        | ExecInstr::Neg { dst, .. }
        | ExecInstr::Copy { dst, .. } => Some(dst),
        ExecInstr::Store { .. } | ExecInstr::StoreNeg { .. } => None,
    }
}

/// Source slots of an instruction.
fn srcs_of(i: &ExecInstr, out: &mut Vec<u32>) {
    out.clear();
    match *i {
        ExecInstr::Add { a, b, .. } | ExecInstr::Sub { a, b, .. } | ExecInstr::Mul { a, b, .. } => {
            out.push(a);
            out.push(b);
        }
        ExecInstr::MulAdd { a, b, c, .. }
        | ExecInstr::MulSub { a, b, c, .. }
        | ExecInstr::SubMul { a, b, c, .. } => {
            out.push(a);
            out.push(b);
            out.push(c);
        }
        ExecInstr::Neg { a, .. }
        | ExecInstr::Copy { a, .. }
        | ExecInstr::Store { a, .. }
        | ExecInstr::StoreNeg { a, .. } => out.push(a),
    }
}

/// Peephole fusion over a decoded stream of segments (`ends[k]` is the
/// end of segment `k`). A `Mul` at position `p` fuses into the
/// instruction at `p + 1` when that instruction is the *only* reader of
/// the `Mul`'s destination (before any redefinition, in any segment) and
/// reads it exactly once — so the fused pair is observationally identical
/// to the sequence. `Neg` folds into an adjacent sole-consumer `Store`
/// the same way. A pair never spans two segments, so each can run on its
/// own. Returns the fused stream and its segment ends.
fn fuse(instrs: &[ExecInstr], ends: &[usize], frame_len: usize) -> (Vec<ExecInstr>, Vec<usize>) {
    let n = instrs.len();
    // For each defining instruction position: how many times its value is
    // read before the destination is redefined, and whether any of those
    // reads happen beyond the immediately following instruction.
    let mut reads = vec![0u32; n];
    let mut far_read = vec![false; n];
    let mut last_def: Vec<usize> = vec![usize::MAX; frame_len];
    let mut srcs = Vec::with_capacity(3);
    for (q, instr) in instrs.iter().enumerate() {
        srcs_of(instr, &mut srcs);
        for &s in &srcs {
            let p = last_def[s as usize];
            if p != usize::MAX {
                reads[p] += 1;
                if q != p + 1 {
                    far_read[p] = true;
                }
            }
        }
        if let Some(d) = dst_of(instr) {
            last_def[d as usize] = q;
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut fused_ends = Vec::with_capacity(ends.len());
    let mut p = 0;
    for &end in ends {
        while p < end {
            let sole_adjacent_use = reads[p] == 1 && !far_read[p];
            let fused = if sole_adjacent_use && p + 1 < end {
                fuse_pair(instrs[p], instrs[p + 1])
            } else {
                None
            };
            match fused {
                Some(instr) => {
                    out.push(instr);
                    p += 2;
                }
                None => {
                    out.push(instrs[p]);
                    p += 1;
                }
            }
        }
        fused_ends.push(out.len());
    }
    (out, fused_ends)
}

/// The superinstruction for `first` followed by `second`, when `second`
/// consumes `first`'s result in a shape one instruction can express.
fn fuse_pair(first: ExecInstr, second: ExecInstr) -> Option<ExecInstr> {
    match (first, second) {
        (ExecInstr::Mul { dst: t, a, b }, ExecInstr::Add { dst, a: x, b: y })
            if (x == t) != (y == t) =>
        {
            let c = if x == t { y } else { x };
            Some(ExecInstr::MulAdd { dst, a, b, c })
        }
        (ExecInstr::Mul { dst: t, a, b }, ExecInstr::Sub { dst, a: x, b: y })
            if x == t && y != t =>
        {
            Some(ExecInstr::MulSub { dst, a, b, c: y })
        }
        (ExecInstr::Mul { dst: t, a, b }, ExecInstr::Sub { dst, a: x, b: y })
            if y == t && x != t =>
        {
            Some(ExecInstr::SubMul { dst, a, b, c: x })
        }
        (ExecInstr::Neg { dst: t, a }, ExecInstr::Store { idx, a: x }) if x == t => {
            Some(ExecInstr::StoreNeg { idx, a })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, ExprForest};
    use crate::tape::lower;

    fn term(c: f64, rate: u32, species: &[u32]) -> Expr {
        let mut f = vec![Expr::Rate(rate)];
        f.extend(species.iter().map(|&s| Expr::Species(s)));
        Expr::prod(c, f)
    }

    fn forest(rhs: Vec<Expr>) -> ExprForest {
        let n = rhs.len();
        ExprForest {
            temps: vec![],
            rhs,
            n_species: n,
            n_rates: 8,
        }
    }

    fn assert_engines_agree(tape: &Tape, rates: &[f64], y: &[f64]) {
        let exec = ExecTape::compile(tape);
        let mut frame = ExecFrame::new();
        let mut want = vec![0.0; tape.n_species];
        tape.eval(rates, y, &mut want);
        let mut got = vec![0.0; tape.n_species];
        exec.eval(rates, y, &mut got, &mut frame);
        assert_eq!(want, got, "scalar exec diverged");
        // Batched: every stacked state evaluates like the single one.
        let n_states = 11;
        let ys: Vec<f64> = (0..n_states).flat_map(|_| y.iter().copied()).collect();
        let mut ydots = vec![0.0; n_states * tape.n_species];
        exec.eval_batch(rates, &ys, &mut ydots, &mut frame);
        for s in 0..n_states {
            let row = &ydots[s * tape.n_species..(s + 1) * tape.n_species];
            assert_eq!(want.as_slice(), row, "batched exec diverged at state {s}");
        }
    }

    #[test]
    fn decode_matches_interpreter() {
        let f = forest(vec![
            Expr::sum(vec![term(2.0, 0, &[0, 1]), term(-1.0, 1, &[2])]),
            term(-3.0, 2, &[1, 1]),
            term(1.0, 0, &[0]),
        ]);
        let tape = lower(&f);
        assert_engines_agree(
            &tape,
            &[1.1, 2.2, 3.3, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.5, 0.7, 0.9],
        );
    }

    #[test]
    fn constants_are_pooled() {
        // 2.0 appears in two products but occupies one pool slot.
        let f = forest(vec![term(2.0, 0, &[0]), term(2.0, 1, &[1])]);
        let tape = lower(&f);
        let exec = ExecTape::compile(&tape);
        assert_eq!(exec.n_consts(), 1);
        assert_engines_agree(
            &tape,
            &[1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.4, 0.6],
        );
    }

    #[test]
    fn mul_add_fuses() {
        // k0*y0 + k1*y1: Mul, Mul, Add -> Mul, MulAdd.
        let f = forest(vec![Expr::sum(vec![
            term(1.0, 0, &[0]),
            term(1.0, 1, &[0]),
        ])]);
        let tape = lower(&f);
        let exec = ExecTape::compile(&tape);
        assert!(exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::MulAdd { .. })));
        assert!(exec.len() < tape.len());
        assert_eq!(exec.op_counts(), tape.op_counts());
        assert_engines_agree(&tape, &[2.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &[3.0]);
    }

    #[test]
    fn mul_sub_fuses_both_orientations() {
        // k0*y0 - k1*y1 lowers to Mul, Mul, Sub where the second Mul
        // feeds the Sub's right operand -> SubMul.
        let f = forest(vec![Expr::sum(vec![
            term(1.0, 0, &[0]),
            term(-1.0, 1, &[0]),
        ])]);
        let tape = lower(&f);
        let exec = ExecTape::compile(&tape);
        assert!(exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::SubMul { .. })));
        assert_eq!(exec.op_counts(), tape.op_counts());
        assert_engines_agree(&tape, &[2.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &[3.0]);

        // Hand-built MulSub orientation: r1 = y0*k0; store r1 - y1.
        let tape = Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Sub {
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
                    a: Operand::Species(0),
                },
            ],
            n_regs: 2,
            n_species: 2,
            n_rates: 1,
        };
        let exec = ExecTape::compile(&tape);
        assert!(exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::MulSub { .. })));
        assert_eq!(exec.op_counts(), tape.op_counts());
        assert_engines_agree(&tape, &[2.0], &[3.0, 5.0]);
    }

    #[test]
    fn neg_folds_into_store() {
        // dA/dt = -k0*A: Mul, Neg, Store -> Mul, StoreNeg.
        let f = forest(vec![term(-1.0, 0, &[0])]);
        let tape = lower(&f);
        let exec = ExecTape::compile(&tape);
        assert!(exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::StoreNeg { .. })));
        assert!(!exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::Neg { .. })));
        assert_eq!(exec.op_counts(), tape.op_counts());
        assert_engines_agree(&tape, &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &[3.0]);
    }

    #[test]
    fn multi_use_mul_does_not_fuse() {
        // r0 = y0*k0 is read by the Add AND a Store: fusing would lose
        // the stored value.
        let tape = Tape {
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
        };
        let exec = ExecTape::compile(&tape);
        assert!(!exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::MulAdd { .. })));
        assert_engines_agree(&tape, &[2.0], &[3.0, 5.0]);
    }

    #[test]
    fn squared_sum_operand_does_not_fuse() {
        // Add reads the Mul's destination twice ((a*b) + (a*b)): a single
        // FMA cannot express it.
        let tape = Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Add {
                    dst: 1,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(1),
                },
            ],
            n_regs: 2,
            n_species: 1,
            n_rates: 1,
        };
        let exec = ExecTape::compile(&tape);
        assert!(!exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::MulAdd { .. })));
        assert_engines_agree(&tape, &[2.0], &[3.0]);
    }

    #[test]
    fn register_reuse_blocks_unsound_fusion() {
        // r0 is redefined between its definition and a later read; the
        // read-count analysis is per-definition, so the first Mul (read
        // only by the adjacent Add) fuses while the value stays correct.
        let tape = Tape {
            instrs: vec![
                Instr::Mul {
                    dst: 0,
                    a: Operand::Species(0),
                    b: Operand::Rate(0),
                },
                Instr::Add {
                    dst: 0,
                    a: Operand::Reg(0),
                    b: Operand::Species(1),
                },
                Instr::Store {
                    idx: 0,
                    a: Operand::Reg(0),
                },
                Instr::Store {
                    idx: 1,
                    a: Operand::Species(1),
                },
            ],
            n_regs: 1,
            n_species: 2,
            n_rates: 1,
        };
        let exec = ExecTape::compile(&tape);
        assert!(exec
            .instrs()
            .iter()
            .any(|i| matches!(i, ExecInstr::MulAdd { .. })));
        assert_engines_agree(&tape, &[2.0], &[3.0, 5.0]);
    }

    #[test]
    fn frame_rebinds_across_tapes() {
        let fa = forest(vec![term(2.0, 0, &[0])]);
        let fb = forest(vec![term(5.0, 0, &[0])]);
        let (ta, tb) = (lower(&fa), lower(&fb));
        let (ea, eb) = (ExecTape::compile(&ta), ExecTape::compile(&tb));
        let mut frame = ExecFrame::new();
        let rates = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut out = vec![0.0];
        ea.eval(&rates, &[3.0], &mut out, &mut frame);
        assert_eq!(out[0], 6.0);
        // Same frame, different tape with a different constant pool.
        eb.eval(&rates, &[3.0], &mut out, &mut frame);
        assert_eq!(out[0], 15.0);
        ea.eval(&rates, &[3.0], &mut out, &mut frame);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn batch_handles_odd_state_counts() {
        let f = forest(vec![Expr::sum(vec![
            term(1.0, 0, &[0]),
            term(-0.5, 1, &[0]),
        ])]);
        let tape = lower(&f);
        let exec = ExecTape::compile(&tape);
        let rates = [2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut frame = ExecFrame::new();
        for n_states in [1usize, 2, 7, 8, 9, 29] {
            let ys: Vec<f64> = (0..n_states).map(|s| 0.1 + s as f64).collect();
            let mut ydots = vec![0.0; n_states];
            exec.eval_batch(&rates, &ys, &mut ydots, &mut frame);
            for s in 0..n_states {
                let mut want = vec![0.0];
                tape.eval(&rates, &[ys[s]], &mut want);
                assert_eq!(want[0], ydots[s], "state {s} of {n_states}");
            }
        }
    }

    #[test]
    fn op_counts_parity_through_optimizer_passes() {
        use crate::cse::{cse_forest, CseOptions};
        use crate::distopt::distribute_forest;
        use crate::simplify::simplify_forest;
        use crate::tape::compact_registers;
        // A small redundant system through each optimizer stage: parity
        // must hold after simplification, distribution, CSE and register
        // compaction alike.
        let f = forest(vec![
            Expr::sum(vec![
                term(2.0, 0, &[0, 1]),
                term(-1.0, 1, &[2]),
                term(1.0, 2, &[0, 2]),
            ]),
            Expr::sum(vec![term(-2.0, 0, &[0, 1]), term(1.0, 1, &[2])]),
            term(-3.0, 2, &[1, 1]),
        ]);
        let simplified = simplify_forest(&f);
        let distributed = distribute_forest(&simplified);
        let csed = cse_forest(&distributed, CseOptions::default());
        for (name, forest) in [
            ("input", &f),
            ("simplify", &simplified),
            ("distopt", &distributed),
            ("cse", &csed),
        ] {
            let tape = compact_registers(&lower(forest));
            let exec = ExecTape::compile(&tape);
            assert_eq!(
                exec.op_counts(),
                tape.op_counts(),
                "op_counts diverged after {name}"
            );
        }
    }

    fn mul(dst: u32, a: Operand, b: Operand) -> Instr {
        Instr::Mul { dst, a, b }
    }

    fn store(idx: u32, a: Operand) -> Instr {
        Instr::Store { idx, a }
    }

    /// Tapes over one two-species, two-rate, `n_regs`-register file.
    fn file(n_regs: usize, instrs: Vec<Instr>) -> Tape {
        Tape {
            instrs,
            n_regs,
            n_species: 2,
            n_rates: 2,
        }
    }

    fn fused(instrs: &[ExecInstr]) -> bool {
        instrs.iter().any(|i| {
            matches!(
                i,
                ExecInstr::MulAdd { .. }
                    | ExecInstr::MulSub { .. }
                    | ExecInstr::SubMul { .. }
                    | ExecInstr::StoreNeg { .. }
            )
        })
    }

    #[test]
    fn group_fusion_never_spans_a_tape_boundary() {
        use Operand::{Rate, Reg, Species};
        // r0 = y0*k0 ends tape 0; tape 1's first instruction is the only
        // reader. As one tape the pair fuses; as two it must not, or
        // tape 1 could not run on its own.
        let head = vec![store(0, Species(0)), mul(0, Species(0), Rate(0))];
        let tail = vec![
            Instr::Add {
                dst: 1,
                a: Reg(0),
                b: Species(1),
            },
            store(0, Reg(1)),
        ];
        let whole = file(2, head.iter().chain(&tail).copied().collect());
        assert!(fused(ExecTape::compile(&whole).instrs()), "vacuous");
        let (t0, t1) = (file(2, head), file(2, tail));
        let group = ExecGroup::compile(&[(&t0, 2), (&t1, 1)]);
        assert_eq!(group.segment(0), ExecGroup::compile(&[(&t0, 2)]).segment(0));
        assert!(matches!(
            group.segment(0).last(),
            Some(ExecInstr::Mul { .. })
        ));
        assert!(matches!(group.segment(1)[0], ExecInstr::Add { .. }));
        assert!(!fused(group.segment(1)));
    }

    #[test]
    fn group_fusion_counts_reads_in_later_tapes() {
        use Operand::{Rate, Reg, Species};
        // Tape 0 alone fuses r0 = y0*k0 into the Add; tape 1 also reads
        // r0, so in the group it must stay written.
        let t0 = file(
            2,
            vec![
                mul(0, Species(0), Rate(0)),
                Instr::Add {
                    dst: 1,
                    a: Reg(0),
                    b: Species(1),
                },
                store(0, Reg(1)),
                store(1, Reg(1)),
            ],
        );
        let t1 = file(2, vec![store(0, Reg(0))]);
        assert!(fused(ExecTape::compile(&t0).instrs()), "vacuous");
        let group = ExecGroup::compile(&[(&t0, 2), (&t1, 1)]);
        assert!(!fused(group.segment(0)));
        let (rates, y) = ([3.0, 0.0], [2.0, 5.0]);
        let (mut ydot, mut out) = ([0.0; 2], [0.0; 1]);
        group.eval(
            &rates,
            &y,
            &mut [&mut ydot, &mut out],
            &mut ExecFrame::new(),
        );
        assert_eq!((ydot, out), ([11.0, 11.0], [6.0]));
    }

    #[test]
    fn a_constant_two_tapes_use_takes_one_pool_slot() {
        use Operand::{Const, Reg, Species};
        let t0 = file(1, vec![mul(0, Species(0), Const(2.5)), store(0, Reg(0))]);
        let t1 = file(1, vec![mul(0, Species(1), Const(2.5)), store(0, Reg(0))]);
        let group = ExecGroup::compile(&[(&t0, 2), (&t1, 1)]);
        assert_eq!(group.n_consts(), 1);
        let (mut ydot, mut out) = ([0.0; 2], [0.0; 1]);
        group.eval(
            &[0.0; 2],
            &[2.0, 4.0],
            &mut [&mut ydot, &mut out],
            &mut ExecFrame::new(),
        );
        assert_eq!((ydot, out), ([5.0, 0.0], [10.0]));
    }

    #[test]
    fn each_segment_counts_the_ops_of_its_tape() {
        use crate::deriv::compile_sensitivity;
        let f = forest(vec![
            Expr::sum(vec![term(2.0, 0, &[0, 1]), term(-1.0, 1, &[2])]),
            Expr::sum(vec![term(-2.0, 0, &[0, 1]), term(1.0, 2, &[2, 2])]),
            term(-3.0, 2, &[1, 1]),
        ]);
        for cse in [None, Some(crate::cse::CseOptions::default())] {
            let sens = compile_sensitivity(&f, cse);
            let state = &sens.state;
            let tapes = [&state.rhs, &state.jac, &sens.dfdp];
            let group = ExecGroup::compile(&[
                (tapes[0], state.n_species),
                (tapes[1], state.nnz()),
                (tapes[2], sens.dfdp_nnz()),
            ]);
            for (k, tape) in tapes.iter().enumerate() {
                assert_eq!(group.op_counts(k), tape.op_counts(), "segment {k}");
            }
        }
    }

    /// A hand-built sensitivity group whose `∂f/∂p` tape reads `r0`,
    /// which only the RHS tape writes.
    fn three_tape_group() -> crate::deriv::SensitivityTapes {
        use crate::deriv::{JacobianTapes, SensitivityTapes};
        use Operand::{Const, Rate, Reg, Species};
        let rhs = file(
            3,
            vec![
                mul(0, Species(0), Rate(0)),
                mul(1, Species(1), Rate(1)),
                Instr::Sub {
                    dst: 2,
                    a: Reg(0),
                    b: Reg(1),
                },
                store(0, Reg(2)),
                Instr::Neg { dst: 1, a: Reg(2) },
                store(1, Reg(1)),
            ],
        );
        let jac = file(
            3,
            vec![
                mul(1, Rate(0), Const(2.0)),
                store(0, Reg(1)),
                store(1, Rate(1)),
            ],
        );
        let dfdp = file(
            3,
            vec![
                mul(2, Reg(0), Const(3.0)),
                store(0, Reg(2)),
                Instr::Add {
                    dst: 1,
                    a: Reg(0),
                    b: Species(1),
                },
                store(1, Reg(1)),
            ],
        );
        crate::tape::validate_program(&[(&rhs, 2), (&jac, 2), (&dfdp, 2)]).unwrap();
        SensitivityTapes {
            state: std::sync::Arc::new(JacobianTapes {
                rhs,
                jac,
                entries: vec![(0, 0), (1, 1)],
                n_species: 2,
            }),
            dfdp,
            dfdp_entries: vec![(0, 0), (1, 1)],
            n_rates: 2,
        }
    }

    #[test]
    fn a_decoded_group_runs_like_the_interpreter_cold_and_resumed() {
        let sens = three_tape_group();
        let state = &sens.state;
        let group = ExecGroup::compile(&[(&state.rhs, 2), (&state.jac, 2), (&sens.dfdp, 2)]);
        assert!(fused(group.segment(0)), "vacuous: nothing fused");
        // Integer-valued inputs keep every product and sum exact, so the
        // comparison is bitwise with and without contracted multiply-adds.
        let (rates, y) = ([3.0, 2.0], [5.0, 7.0]);
        let mut want = ([0.0; 2], [0.0; 2], [0.0; 2]);
        sens.eval_all(
            &rates,
            &y,
            &mut want.0,
            &mut want.1,
            &mut want.2,
            &mut Vec::new(),
        );
        assert_eq!(want.2, [45.0, 22.0]);

        let mut frame = ExecFrame::new();
        let mut cold = ([0.0; 2], [0.0; 2], [0.0; 2]);
        group.eval(
            &rates,
            &y,
            &mut [&mut cold.0, &mut cold.1, &mut cold.2],
            &mut frame,
        );
        assert_eq!(cold, want);

        // Head only on a fresh frame, then the tail resumed over it.
        let mut frame = ExecFrame::new();
        let mut head = ([0.0; 2], [0.0; 2]);
        group.eval(&rates, &y, &mut [&mut head.0, &mut head.1], &mut frame);
        let mut resumed = [0.0; 2];
        group.resume(2, &mut resumed, &mut frame);
        assert_eq!((head.0, head.1, resumed), want);
    }
}
