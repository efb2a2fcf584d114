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
//!   interpreter. See [`fma`].
//! * **Batched evaluation.** [`ExecTape::eval_batch`] runs up to
//!   [`LANES`] states per instruction dispatch in structure-of-arrays
//!   layout (lane-major frame, fixed-width inner loops the
//!   autovectorizer turns into SIMD). The colored finite-difference
//!   Jacobian evaluates all color-perturbed states in one batched pass
//!   this way.
//!
//! [`ExecTape::op_counts`] reports the same totals as the source tape
//! (each fused multiply-add counts as one multiply plus one add, a fused
//! negating store as one add), so Table 1 reproduction numbers are
//! engine-independent.

use std::sync::atomic::{AtomicU64, Ordering};

use rms_odegen::OpCounts;

use crate::tape::{Instr, Operand, Tape};

/// Batch width of [`ExecTape::eval_batch`]: states evaluated per
/// instruction dispatch. Eight `f64` lanes fill an AVX-512 register and
/// two AVX2 registers; the inner loops are fixed-length so the
/// autovectorizer can emit packed arithmetic either way.
pub const LANES: usize = 8;

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

/// A [`Tape`] decoded for execution: branch-free operand fetch, fused
/// superinstructions, and a batched structure-of-arrays evaluator.
#[derive(Debug, Clone)]
pub struct ExecTape {
    /// The decoded, fused instruction stream.
    instrs: Vec<ExecInstr>,
    /// Pooled literal constants, in frame order.
    consts: Vec<f64>,
    /// Total frame length: `n_rates + n_species + consts.len() + n_regs`.
    frame_len: usize,
    n_species: usize,
    n_rates: usize,
    n_outputs: usize,
    /// Identity for frame reuse: a frame initialized for one tape must
    /// not be reused verbatim for another (different constant pool).
    id: u64,
}

impl ExecTape {
    /// Decode `tape` (with superinstruction fusion). The tape's `Store`
    /// indices must address `0..tape.n_species`; use
    /// [`compile_with_outputs`](ExecTape::compile_with_outputs) for tapes
    /// with a different output arity.
    pub fn compile(tape: &Tape) -> ExecTape {
        ExecTape::compile_with_outputs(tape, tape.n_species)
    }

    /// Decode a tape whose `Store` indices address `0..n_outputs`
    /// (e.g. the secondary tape of a Jacobian pair).
    pub fn compile_with_outputs(tape: &Tape, n_outputs: usize) -> ExecTape {
        let decoded = decode(tape, n_outputs);
        fuse(decoded)
    }

    /// Instructions executed per evaluation. Fusion shrinks this below
    /// the source tape's length.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The decoded instruction stream.
    pub fn instrs(&self) -> &[ExecInstr] {
        &self.instrs
    }

    /// Number of distinct pooled constants.
    pub fn n_consts(&self) -> usize {
        self.consts.len()
    }

    /// Number of species (state variables read as inputs).
    pub fn n_species(&self) -> usize {
        self.n_species
    }

    /// Number of rate constants.
    pub fn n_rates(&self) -> usize {
        self.n_rates
    }

    /// Number of outputs written by `Store`/`StoreNeg`.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Arithmetic operation counts, matching the source [`Tape`]:
    /// each fused multiply-add/sub counts as one multiply plus one add,
    /// a fused negating store as one add (`Neg` is add-class), and
    /// `Copy`/`Store` are free.
    pub fn op_counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        for instr in &self.instrs {
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

    /// Prepare `frame` for this tape: size the scalar buffer and write
    /// the constant pool into its slots. Cheap when the frame is already
    /// bound to this tape.
    fn bind(&self, frame: &mut ExecFrame) {
        if frame.tape_id == self.id && frame.data.len() == self.frame_len {
            return;
        }
        frame.data.clear();
        frame.data.resize(self.frame_len, 0.0);
        let const_base = self.n_rates + self.n_species;
        frame.data[const_base..const_base + self.consts.len()].copy_from_slice(&self.consts);
        frame.tape_id = self.id;
        frame.batch_bound = false;
    }

    /// Prepare the batched (lane-major) buffers of `frame`.
    fn bind_batch(&self, frame: &mut ExecFrame) {
        self.bind(frame);
        if frame.batch_bound && frame.batch.len() == self.frame_len * LANES {
            return;
        }
        frame.batch.clear();
        frame.batch.resize(self.frame_len * LANES, 0.0);
        let const_base = self.n_rates + self.n_species;
        for (k, &c) in self.consts.iter().enumerate() {
            let o = (const_base + k) * LANES;
            frame.batch[o..o + LANES].fill(c);
        }
        frame.out.clear();
        frame.out.resize(self.n_outputs * LANES, 0.0);
        frame.batch_bound = true;
    }

    /// Evaluate one state: reads `rates` and `y`, writes `ydot`. The
    /// frame is bound on first use and reused allocation-free after.
    pub fn eval(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], frame: &mut ExecFrame) {
        assert_eq!(y.len(), self.n_species, "state length mismatch");
        assert_eq!(rates.len(), self.n_rates, "rates length mismatch");
        assert_eq!(ydot.len(), self.n_outputs, "output length mismatch");
        self.bind(frame);
        let f = &mut frame.data[..];
        f[..self.n_rates].copy_from_slice(rates);
        f[self.n_rates..self.n_rates + self.n_species].copy_from_slice(y);
        for instr in &self.instrs {
            step_scalar(*instr, f, ydot);
        }
    }

    /// Evaluate `n_states` stacked states in one pass: `ys` holds the
    /// states row-major (`n_states * n_species` long) and `ydots`
    /// receives the outputs in the same layout. States are processed
    /// [`LANES`] at a time in a lane-major structure-of-arrays frame; a
    /// trailing partial chunk pads with copies of its first state (the
    /// padded lanes' outputs are discarded).
    pub fn eval_batch(&self, rates: &[f64], ys: &[f64], ydots: &mut [f64], frame: &mut ExecFrame) {
        let n = self.n_species;
        assert_eq!(rates.len(), self.n_rates, "rates length mismatch");
        assert!(n > 0, "batched evaluation needs at least one species");
        assert_eq!(ys.len() % n, 0, "ys length must be a multiple of n_species");
        let n_states = ys.len() / n;
        assert_eq!(
            ydots.len(),
            n_states * self.n_outputs,
            "ydots length mismatch"
        );
        self.bind_batch(frame);
        // Broadcast the rate constants once; they are shared by every
        // state in the batch.
        for (i, &k) in rates.iter().enumerate() {
            let o = i * LANES;
            frame.batch[o..o + LANES].fill(k);
        }
        let species_base = self.n_rates;
        let mut s0 = 0;
        while s0 < n_states {
            let lanes_used = LANES.min(n_states - s0);
            // Transpose the chunk's states into lane-major layout,
            // padding short chunks with the first state of the chunk.
            for i in 0..n {
                let o = (species_base + i) * LANES;
                let row = &mut frame.batch[o..o + LANES];
                for (l, slot) in row.iter_mut().enumerate() {
                    let s = if l < lanes_used { s0 + l } else { s0 };
                    *slot = ys[s * n + i];
                }
            }
            self.run_lanes(&mut frame.batch, &mut frame.out);
            for i in 0..self.n_outputs {
                let o = i * LANES;
                for l in 0..lanes_used {
                    ydots[(s0 + l) * self.n_outputs + i] = frame.out[o + l];
                }
            }
            s0 += lanes_used;
        }
    }

    /// Execute the instruction stream over all [`LANES`] lanes of a bound
    /// batch frame. The fixed-width inner loops are the autovectorization
    /// target: every operation is a straight-line map over `[f64; LANES]`.
    fn run_lanes(&self, batch: &mut [f64], out: &mut [f64]) {
        for instr in &self.instrs {
            step_lanes(*instr, batch, out);
        }
    }
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

/// Execute one instruction over all [`LANES`] lanes of a batch frame.
#[inline(always)]
fn step_lanes(instr: ExecInstr, batch: &mut [f64], out: &mut [f64]) {
    #[inline(always)]
    fn load(buf: &[f64], slot: u32) -> [f64; LANES] {
        let o = slot as usize * LANES;
        let mut v = [0.0; LANES];
        v.copy_from_slice(&buf[o..o + LANES]);
        v
    }
    #[inline(always)]
    fn store(buf: &mut [f64], slot: u32, v: [f64; LANES]) {
        let o = slot as usize * LANES;
        buf[o..o + LANES].copy_from_slice(&v);
    }
    match instr {
        ExecInstr::Add { dst, a, b } => {
            let (va, vb) = (load(batch, a), load(batch, b));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = va[l] + vb[l];
            }
            store(batch, dst, r);
        }
        ExecInstr::Sub { dst, a, b } => {
            let (va, vb) = (load(batch, a), load(batch, b));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = va[l] - vb[l];
            }
            store(batch, dst, r);
        }
        ExecInstr::Mul { dst, a, b } => {
            let (va, vb) = (load(batch, a), load(batch, b));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = va[l] * vb[l];
            }
            store(batch, dst, r);
        }
        ExecInstr::MulAdd { dst, a, b, c } => {
            let (va, vb, vc) = (load(batch, a), load(batch, b), load(batch, c));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = fma(va[l], vb[l], vc[l]);
            }
            store(batch, dst, r);
        }
        ExecInstr::MulSub { dst, a, b, c } => {
            let (va, vb, vc) = (load(batch, a), load(batch, b), load(batch, c));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = fma(va[l], vb[l], -vc[l]);
            }
            store(batch, dst, r);
        }
        ExecInstr::SubMul { dst, a, b, c } => {
            let (va, vb, vc) = (load(batch, a), load(batch, b), load(batch, c));
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = vc[l] - va[l] * vb[l];
            }
            store(batch, dst, r);
        }
        ExecInstr::Neg { dst, a } => {
            let va = load(batch, a);
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = -va[l];
            }
            store(batch, dst, r);
        }
        ExecInstr::Copy { dst, a } => {
            let va = load(batch, a);
            store(batch, dst, va);
        }
        ExecInstr::Store { idx, a } => {
            let va = load(batch, a);
            let o = idx as usize * LANES;
            out[o..o + LANES].copy_from_slice(&va);
        }
        ExecInstr::StoreNeg { idx, a } => {
            let va = load(batch, a);
            let o = idx as usize * LANES;
            let row = &mut out[o..o + LANES];
            for l in 0..LANES {
                row[l] = -va[l];
            }
        }
    }
}

/// Reusable evaluation scratch for an [`ExecTape`]: the unified scalar
/// frame, the lane-major batch frame, and the batched output staging
/// buffer. Binding is lazy and keyed by tape identity, so one frame can
/// serve different tapes over its lifetime (rebinding reinitializes it)
/// while repeated evaluation of one tape allocates nothing.
#[derive(Debug, Default)]
pub struct ExecFrame {
    tape_id: u64,
    data: Vec<f64>,
    batch: Vec<f64>,
    out: Vec<f64>,
    batch_bound: bool,
}

impl ExecFrame {
    /// An empty frame; sized on first use.
    pub fn new() -> ExecFrame {
        ExecFrame::default()
    }
}

/// Decode pass: resolve every operand to an absolute frame index,
/// pooling literal constants (deduplicated by bit pattern).
fn decode(tape: &Tape, n_outputs: usize) -> ExecTape {
    let rate_base = 0u32;
    let species_base = tape.n_rates as u32;
    let const_base = species_base + tape.n_species as u32;
    let mut consts: Vec<f64> = Vec::new();
    let mut const_index: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    // The register section starts after the constants; constants are
    // interned first so register indices can be assigned in one pass.
    // Two sweeps: intern constants, then resolve.
    for instr in &tape.instrs {
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
    let instrs: Vec<ExecInstr> = tape
        .instrs
        .iter()
        .map(|instr| match *instr {
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
        })
        .collect();
    ExecTape {
        instrs,
        frame_len: reg_base as usize + tape.n_regs,
        consts,
        n_species: tape.n_species,
        n_rates: tape.n_rates,
        n_outputs,
        id: NEXT_TAPE_ID.fetch_add(1, Ordering::Relaxed),
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

/// Peephole fusion over the decoded stream. A `Mul` at position `p`
/// fuses into the instruction at `p + 1` when that instruction is the
/// *only* reader of the `Mul`'s destination (before any redefinition) and
/// reads it exactly once — so the fused pair is observationally identical
/// to the sequence. `Neg` folds into an adjacent sole-consumer `Store`
/// the same way.
fn fuse(tape: ExecTape) -> ExecTape {
    let n = tape.instrs.len();
    // For each defining instruction position: how many times its value is
    // read before the destination is redefined, and whether any of those
    // reads happen beyond the immediately following instruction.
    let mut reads = vec![0u32; n];
    let mut far_read = vec![false; n];
    let mut last_def: Vec<usize> = vec![usize::MAX; tape.frame_len];
    let mut srcs = Vec::with_capacity(3);
    for (q, instr) in tape.instrs.iter().enumerate() {
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
    let mut p = 0;
    while p < n {
        let sole_adjacent_use = reads[p] == 1 && !far_read[p];
        let fused = if sole_adjacent_use && p + 1 < n {
            match (tape.instrs[p], tape.instrs[p + 1]) {
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
        } else {
            None
        };
        match fused {
            Some(instr) => {
                out.push(instr);
                p += 2;
            }
            None => {
                out.push(tape.instrs[p]);
                p += 1;
            }
        }
    }
    ExecTape {
        instrs: out,
        ..tape
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
        // Batched: replicate the state across more than LANES states so
        // both full and partial chunks are exercised.
        let n_states = LANES + 3;
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
        for n_states in [1usize, 2, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
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
}
