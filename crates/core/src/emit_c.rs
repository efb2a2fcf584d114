//! C code emission.
//!
//! The paper's domain-specific language "produces as output a program in
//! another relatively high-level language (C, in our case)". This module
//! renders C for two readers:
//!
//! * [`emit_c`] renders the optimized *expression forest* as a readable C
//!   function — temporaries first (assignments before any read), then one
//!   assignment per ODE right-hand side. This is the human-facing view of
//!   the optimizer's output.
//! * [`emit_kernel`] is the one kernel emitter: it renders a complete
//!   native *kernel source* from the lowered register [`Tape`]s — the
//!   RHS and, when the corresponding tape groups are supplied, the
//!   analytic Jacobian and `∂f/∂p` sensitivity functions: what a solve
//!   calls, nothing else. Rerolling is a pass of this emitter, not a
//!   mode: each tape is rerolled on the way in and rendered in one form,
//!   chunk functions over a register array with C `for` loops where
//!   stanzas repeat. The source is handed to the platform C compiler
//!   (`cc -O2 -fPIC -shared -ffp-contract=off`) and `dlopen`ed back as
//!   the artifact's native kernel.
//!
//! Because the kernel replays the exact instruction sequence of the tape
//! interpreter — same association order, contraction disabled — its results
//! are bit-identical to the interpreted and pre-decoded engines on builds
//! where [`FMA_CONTRACTS`](crate::exec::FMA_CONTRACTS) is false. Float
//! constants are rendered as C99 hexadecimal literals, which round-trip
//! every `f64` (including negative zero and subnormals) exactly.

use std::collections::HashMap;
use std::fmt::Write;

use crate::deriv::DerivTapes;
use crate::expr::{Coeff, Expr, ExprForest};
use crate::tape::{
    loop_slot_patterns, reroll, Instr, Operand, RerollOptions, RolledSegment, RolledTape,
    SlotPattern, Tape, TapeLoop,
};

/// Emit a complete C function `void <name>(const double* k, const double*
/// y, double* ydot)` evaluating the forest.
pub fn emit_c(forest: &ExprForest, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* generated by the Reaction Modeling Suite chemical compiler */"
    );
    let _ = writeln!(
        out,
        "void {name}(const double* k, const double* y, double* ydot) {{"
    );
    for (i, temp) in forest.temps.iter().enumerate() {
        let _ = writeln!(out, "    const double t{i} = {};", render(temp));
    }
    for (i, rhs) in forest.rhs.iter().enumerate() {
        let _ = writeln!(out, "    ydot[{i}] = {};", render(rhs));
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render one expression as a C expression.
pub fn render(expr: &Expr) -> String {
    let mut s = String::new();
    render_into(expr, &mut s, false);
    s
}

fn render_into(expr: &Expr, out: &mut String, parenthesize_sum: bool) {
    match expr {
        Expr::Const(Coeff(v)) => {
            if v.is_sign_negative() {
                let _ = write!(out, "({v:?})");
            } else {
                let _ = write!(out, "{v:?}");
            }
        }
        Expr::Rate(i) => {
            let _ = write!(out, "k[{i}]");
        }
        Expr::Species(i) => {
            let _ = write!(out, "y[{i}]");
        }
        Expr::Temp(t) => {
            let _ = write!(out, "t{}", t.0);
        }
        Expr::Prod(Coeff(c), factors) => {
            let mut first = true;
            if *c == -1.0 {
                out.push('-');
            } else if *c != 1.0 {
                let _ = write!(out, "{c:?}");
                first = false;
            }
            for f in factors {
                if !first {
                    out.push('*');
                }
                first = false;
                render_into(f, out, true);
            }
        }
        Expr::Sum(children) => {
            if parenthesize_sum {
                out.push('(');
            }
            for (i, ch) in children.iter().enumerate() {
                // Fold leading negative signs into subtraction. Negative
                // zero keeps its sign inline (subtracting 0.0 would also be
                // value-correct, but rendering the stored constant keeps the
                // literal bit-exact on read-back).
                let (neg, body): (bool, &Expr) = match ch {
                    Expr::Prod(Coeff(c), _) if *c < 0.0 => (true, ch),
                    Expr::Const(Coeff(v)) if *v < 0.0 => (true, ch),
                    other => (false, other),
                };
                if i > 0 {
                    out.push_str(if neg { " - " } else { " + " });
                } else if neg {
                    // leading term keeps its sign inline
                }
                if i > 0 && neg {
                    // Render the magnitude.
                    match body {
                        Expr::Prod(Coeff(c), factors) => {
                            render_into(&Expr::Prod(Coeff(-c), factors.clone()), out, true)
                        }
                        Expr::Const(Coeff(v)) => {
                            let _ = write!(out, "{:?}", -v);
                        }
                        _ => unreachable!(),
                    }
                } else {
                    render_into(body, out, true);
                }
            }
            if parenthesize_sum {
                out.push(')');
            }
        }
    }
}

/// Render an `f64` as a C literal that parses back to the identical bit
/// pattern under any conforming C99 compiler.
///
/// Small integral values keep the readable decimal form (`2.0`, `-3.0`),
/// which is exact; everything else becomes a hexadecimal float literal
/// (`0x1.999999999999ap-4`). Negative zero renders as `-0.0` and
/// subnormals use the integer-mantissa form `0x{bits}p-1074`.
pub fn c_f64(v: f64) -> String {
    if v.is_nan() {
        return "(0.0/0.0)".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "(1.0/0.0)" } else { "(-1.0/0.0)" }.to_string();
    }
    if v == 0.0 {
        return if v.is_sign_negative() { "-0.0" } else { "0.0" }.to_string();
    }
    // Integral values below 2^53 are exactly representable in decimal.
    if v.fract() == 0.0 && v.abs() < 9007199254740992.0 {
        return format!("{v:?}");
    }
    let bits = v.to_bits();
    let sign = if bits >> 63 == 1 { "-" } else { "" };
    let exp_bits = ((bits >> 52) & 0x7ff) as i32;
    let mantissa = bits & ((1u64 << 52) - 1);
    if exp_bits == 0 {
        // Subnormal: value = mantissa * 2^-1074.
        return format!("{sign}0x{mantissa:x}p-1074");
    }
    let e = exp_bits - 1023;
    if mantissa == 0 {
        format!("{sign}0x1p{e}")
    } else {
        let frac = format!("{mantissa:013x}");
        let frac = frac.trim_end_matches('0');
        format!("{sign}0x1.{frac}p{e}")
    }
}

/// Everything [`emit_kernel`] needs to render a native kernel source.
pub struct KernelSpec<'a> {
    /// Model label written into the header comment.
    pub name: &'a str,
    /// The lowered, register-compacted RHS tape.
    pub rhs: &'a Tape,
    /// The register-sharing derivative group, when the analytic Jacobian
    /// should be emitted (`ode_jac`: RHS + Jacobian) — and, for a group
    /// with a `∂f/∂p` tail, the sensitivity kernel (`ode_sens`: the same
    /// chunks, then the tail's).
    pub derivs: Option<&'a DerivTapes>,
    /// Content-addressed artifact fingerprint, baked into the object as
    /// `rms_key` so a stale `.so` can be detected at load time.
    pub key: u128,
}

/// ABI version stamped into every emitted kernel (`rms_abi_version`).
/// Bump when the exported symbol set or signatures change.
///
/// Version 2 added the `rms_loop_count` / `rms_rolled_instrs` metadata
/// exports; version 3 dropped `rms_sens_jac_nnz` (`ode_sens` writes the
/// Jacobian `ode_jac` writes); version 4 dropped the batched and
/// lane-wise RHS entry points and `rms_lanes`. Objects of another
/// version fail the check on load and are quarantined and rebuilt.
pub const KERNEL_ABI_VERSION: i32 = 4;

/// Statements per chunk function. C compilers have superlinear
/// per-function passes (register allocation in particular), so a
/// 10⁵-instruction function takes hours at `-O2` while the same code split
/// into ~256-statement chunks compiles in seconds.
const CHUNK: usize = 256;

/// Result of [`emit_kernel`]: one or more C sources plus the emission
/// metrics the driver reports.
#[derive(Debug, Clone)]
pub struct EmittedKernel {
    /// Translation units; unit 0 holds metadata, pools and entry points.
    /// Compile each to an object and link them into one shared object.
    pub units: Vec<String>,
    /// Loop regions rendered across all tape groups.
    pub loop_count: usize,
    /// Flat instructions absorbed into rendered loops.
    pub rolled_instrs: usize,
    /// Total source bytes across units.
    pub source_bytes: usize,
    /// Entries in the deduplicated index-table pool.
    pub table_entries: usize,
    /// Entries in the deduplicated float-constant pool.
    pub pooled_consts: usize,
}

/// Kernel-wide constant pools, deduplicated across every chunk and loop:
/// index runs land in `rms_tab`, float runs (and pooled scalar
/// constants) in `rms_cpool`, each emitted once.
#[derive(Default)]
struct Pools {
    tab: Vec<u32>,
    tab_map: HashMap<Vec<u32>, u32>,
    cpool: Vec<f64>,
    cpool_map: HashMap<Vec<u64>, u32>,
}

impl Pools {
    fn intern_tab(&mut self, vals: &[u32]) -> u32 {
        if let Some(&off) = self.tab_map.get(vals) {
            return off;
        }
        let off = self.tab.len() as u32;
        self.tab.extend_from_slice(vals);
        self.tab_map.insert(vals.to_vec(), off);
        off
    }

    fn intern_consts(&mut self, vals: &[f64]) -> u32 {
        let key: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        if let Some(&off) = self.cpool_map.get(&key) {
            return off;
        }
        let off = self.cpool.len() as u32;
        self.cpool.extend_from_slice(vals);
        self.cpool_map.insert(key, off);
        off
    }
}

/// A generated C function and where it may live.
struct CFn {
    /// Prototype (no trailing semicolon).
    proto: String,
    /// Full definition text.
    text: String,
    /// Entry points must stay in unit 0; chunk functions may be
    /// distributed across units.
    entry: bool,
    /// Stored statement count, used to balance units.
    weight: usize,
}

impl CFn {
    /// An entry point: `body` between the braces of `proto`.
    fn entry(proto: &str, body: &str) -> CFn {
        CFn {
            proto: proto.to_string(),
            text: format!("{proto} {{\n{body}}}\n\n"),
            entry: true,
            weight: 1,
        }
    }
}

/// Render the index expression of one slot at trip `t`.
fn slot_expr(base: u64, pat: &SlotPattern, pools: &mut Pools) -> String {
    match pat {
        SlotPattern::Fixed => format!("{base}"),
        SlotPattern::Affine { stride } => format!("{base} + {stride}*t"),
        SlotPattern::Table(vals) => {
            let off = pools.intern_tab(vals);
            format!("rms_tab[{off} + t]")
        }
        SlotPattern::ConstTable(_) => unreachable!("const slot rendered via cpool"),
    }
}

/// Render one operand of a statement. `pat` is `None` for straight-line
/// statements (every slot fixed). Constants always go through the shared
/// pool so identical values across chunks and loops are emitted once.
fn rolled_operand(op: &Operand, pat: Option<&SlotPattern>, pools: &mut Pools) -> String {
    let fixed = SlotPattern::Fixed;
    let pat = pat.unwrap_or(&fixed);
    match op {
        Operand::Const(v) => {
            let idx = match pat {
                SlotPattern::ConstTable(vals) => {
                    let off = pools.intern_consts(vals);
                    format!("{off} + t")
                }
                _ => format!("{}", pools.intern_consts(&[*v])),
            };
            format!("rms_cpool[{idx}]")
        }
        Operand::Reg(r) => format!("r[{}]", slot_expr(*r as u64, pat, pools)),
        Operand::Species(i) => format!("y[{}]", slot_expr(*i as u64, pat, pools)),
        Operand::Rate(i) => format!("k[{}]", slot_expr(*i as u64, pat, pools)),
    }
}

/// Render one statement over the register array `r`. `pats` carries the per-slot patterns of a loop body instruction
/// (slot 0 = destination); `None` means a straight-line statement. The
/// statement order is exactly the interpreter's, so the rounding sequence
/// is identical.
fn rolled_stmt(
    out: &mut String,
    instr: &Instr,
    pats: Option<&[SlotPattern]>,
    indent: &str,
    pools: &mut Pools,
) {
    let dst_pat = pats.map(|p| &p[0]);
    let op_pat = |s: usize| pats.map(|p| &p[s + 1]);
    let fixed = SlotPattern::Fixed;
    match instr {
        Instr::Add { dst, a, b } | Instr::Sub { dst, a, b } | Instr::Mul { dst, a, b } => {
            let sym = match instr {
                Instr::Add { .. } => " + ",
                Instr::Sub { .. } => " - ",
                _ => "*",
            };
            let d = slot_expr(*dst as u64, dst_pat.unwrap_or(&fixed), pools);
            let ea = rolled_operand(a, op_pat(0), pools);
            let eb = rolled_operand(b, op_pat(1), pools);
            let _ = writeln!(out, "{indent}r[{d}] = {ea}{sym}{eb};");
        }
        Instr::Neg { dst, a } => {
            let d = slot_expr(*dst as u64, dst_pat.unwrap_or(&fixed), pools);
            let ea = rolled_operand(a, op_pat(0), pools);
            let _ = writeln!(out, "{indent}r[{d}] = -{ea};");
        }
        Instr::Copy { dst, a } => {
            let d = slot_expr(*dst as u64, dst_pat.unwrap_or(&fixed), pools);
            let ea = rolled_operand(a, op_pat(0), pools);
            let _ = writeln!(out, "{indent}r[{d}] = {ea};");
        }
        Instr::Store { idx, a } => {
            let d = slot_expr(*idx as u64, dst_pat.unwrap_or(&fixed), pools);
            let ea = rolled_operand(a, op_pat(0), pools);
            let _ = writeln!(out, "{indent}o[{d}] = {ea};");
        }
    }
}

/// One schedulable piece of a member tape.
enum RolledItem {
    Straight(std::ops::Range<usize>),
    Loop(TapeLoop),
}

impl RolledItem {
    fn weight(&self) -> usize {
        match self {
            RolledItem::Straight(r) => r.len(),
            RolledItem::Loop(lp) => lp.body_len + 1,
        }
    }
}

/// Flatten a rolled view into chunkable items, splitting long straight
/// runs at [`CHUNK`]. A view without loops is straight items only.
fn rolled_items(view: &RolledTape) -> Vec<RolledItem> {
    let mut items = Vec::new();
    for seg in view.segments() {
        match seg {
            RolledSegment::Straight { start, len } => {
                let mut at = start;
                while at < start + len {
                    let end = (at + CHUNK).min(start + len);
                    items.push(RolledItem::Straight(at..end));
                    at = end;
                }
            }
            RolledSegment::Loop(lp) => items.push(RolledItem::Loop(lp)),
        }
    }
    items
}

/// Emit one item (straight run or loop) of a member tape.
fn emit_rolled_item(out: &mut String, tape: &Tape, item: &RolledItem, pools: &mut Pools) {
    match item {
        RolledItem::Straight(range) => {
            for instr in &tape.instrs[range.clone()] {
                rolled_stmt(out, instr, None, "    ", pools);
            }
        }
        RolledItem::Loop(lp) => {
            let patterns = loop_slot_patterns(tape, lp);
            let _ = writeln!(out, "    for (int t = 0; t < {}; ++t) {{", lp.trips);
            for (p, pats) in patterns.iter().enumerate() {
                rolled_stmt(
                    out,
                    &tape.instrs[lp.start + p],
                    Some(pats),
                    "        ",
                    pools,
                );
            }
            out.push_str("    }\n");
        }
    }
}

/// Emit the chunk functions of one member tape, named `{stem}{g}` with
/// `g` counting on from the group's earlier members, and return their
/// names in call order. Registers live in a caller-provided array (`r`),
/// so chunk boundaries need no liveness planning and loops can index
/// registers dynamically.
fn emit_chunks(
    fns: &mut Vec<CFn>,
    stem: &str,
    g: &mut usize,
    tape: &Tape,
    view: &RolledTape,
    pools: &mut Pools,
) -> Vec<String> {
    let mut names = Vec::new();
    let mut pending: Vec<RolledItem> = Vec::new();
    let mut weight = 0usize;
    let items = rolled_items(view);
    let n = items.len();
    for (i, item) in items.into_iter().enumerate() {
        weight += item.weight();
        pending.push(item);
        if weight >= CHUNK || i + 1 == n {
            let fn_name = format!("{stem}{g}");
            let proto = format!(
                "void {fn_name}(const double* restrict k, const double* restrict y,\n\
                 \x20       double* restrict o, double* restrict r)"
            );
            let mut text = proto.clone();
            text.push_str(" {\n");
            for item in pending.drain(..) {
                emit_rolled_item(&mut text, tape, &item, pools);
            }
            text.push_str("}\n\n");
            fns.push(CFn {
                proto,
                text,
                entry: false,
                weight,
            });
            names.push(fn_name);
            weight = 0;
            *g += 1;
        }
    }
    names
}

/// One tape of a function group, rerolled, and the output array its
/// stores write.
struct Member<'a> {
    tape: &'a Tape,
    view: RolledTape,
    arr: &'static str,
}

/// Emit the native kernel for a compiled model as one or more translation
/// units (at most `max_units`).
///
/// Every member tape is rerolled here ([`reroll`] under
/// [`RerollOptions::default`]): runs of structurally identical stanzas
/// render as data-driven C `for` loops over the shared index-table and
/// constant pools, everything else as straight statements, all of it in
/// ~256-statement chunk functions over one thread-local register array
/// (heap-backed dynamic TLS under `dlopen`, so large models neither blow
/// the stack nor break re-entrancy). A tape in which nothing repeats is
/// the same form with no `for`.
///
/// Unit 0 holds the metadata exports, pools, scratch arrays and entry
/// points; chunk functions are balanced across the remaining units so
/// they can be compiled concurrently and linked once.
///
/// Exported symbols:
///
/// * `rms_key[2]`, `rms_abi_version`, `rms_n_species`, `rms_n_rates`,
///   `rms_jac_nnz`, `rms_dfdp_nnz`, `rms_loop_count`, `rms_rolled_instrs`
///   — metadata the loader validates before trusting the object (`-1`
///   marks an absent function's nnz).
/// * `void ode_rhs(const double* restrict k, const double* restrict y,
///   double* restrict ydot)` — the RHS.
/// * `void ode_jac(k, y, ydot, jac)` — RHS + analytic Jacobian values in
///   tape entry order (when [`KernelSpec::derivs`] is given).
/// * `void ode_sens(k, y, ydot, jac, dfdp)` — `ode_jac`'s chunk calls,
///   then the `∂f/∂p` tail's over the same registers (when the group has
///   the tail).
pub fn emit_kernel(spec: &KernelSpec, max_units: usize) -> EmittedKernel {
    let n_species = spec.rhs.n_species;
    let n_rates = spec.rhs.n_rates;

    let member = |tape, arr| Member {
        tape,
        view: reroll(tape, &RerollOptions::default()),
        arr,
    };

    let mut pools = Pools::default();
    let mut fns: Vec<CFn> = Vec::new();
    let mut loop_count = 0usize;
    let mut rolled_instrs = 0usize;
    let mut n_regs = 1usize;
    // One entry point: render `members` as chunk functions and run
    // them after the calls already in `body`, adding their output arrays
    // to `args`. Every member tape is rendered exactly once; an entry
    // point that continues another (`ode_sens` after `ode_jac`, over the
    // same register array) is handed that one's `args` and `body`.
    let mut entry = |name: &str, members: &[Member], args: &mut String, body: &mut String| {
        let stem = format!("rms_{name}_k");
        let mut g = 0usize;
        for Member { tape, view, arr } in members {
            let _ = write!(args, ",\n        double* restrict {arr}");
            loop_count += view.loop_count();
            rolled_instrs += view.rerolled_instrs();
            n_regs = n_regs.max(tape.n_regs);
            for chunk in emit_chunks(&mut fns, &stem, &mut g, tape, view, &mut pools) {
                let _ = writeln!(body, "    {chunk}(k, y, {arr}, rms_regs);");
            }
        }
        let proto =
            format!("void {name}(const double* restrict k, const double* restrict y{args})");
        fns.push(CFn::entry(&proto, body));
    };
    entry(
        "ode_rhs",
        &[member(spec.rhs, "ydot")],
        &mut String::new(),
        &mut String::new(),
    );
    if let Some(derivs) = spec.derivs {
        let (mut args, mut body) = (String::new(), String::new());
        let state = derivs.state();
        let pair = [member(&state.rhs, "ydot"), member(&state.jac, "jac")];
        entry("ode_jac", &pair, &mut args, &mut body);
        if let Some(st) = derivs.sensitivity() {
            entry(
                "ode_sens",
                &[member(&st.dfdp, "dfdp")],
                &mut args,
                &mut body,
            );
        }
    }

    // --- distribute chunk functions over units ---------------------------
    let n_units = max_units.clamp(1, fns.iter().filter(|f| !f.entry).count().max(1));
    let mut assignment: Vec<usize> = vec![0; fns.len()];
    if n_units > 1 {
        let mut load = vec![0usize; n_units];
        let mut order: Vec<usize> = (0..fns.len()).filter(|&i| !fns[i].entry).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(fns[i].weight));
        for i in order {
            let u = (0..n_units).min_by_key(|&u| load[u]).unwrap();
            assignment[i] = u;
            load[u] += fns[i].weight;
        }
    }

    // --- assemble units ---------------------------------------------------
    let jac_nnz = spec.derivs.map_or(-1i64, |d| d.state().nnz() as i64);
    let dfdp_nnz = spec
        .derivs
        .and_then(DerivTapes::sensitivity)
        .map_or(-1i64, |s| s.dfdp_nnz() as i64);
    let tab_ty = if pools.tab.iter().all(|&v| v < 65536) {
        "unsigned short"
    } else {
        "unsigned int"
    };
    let mut units: Vec<String> = Vec::with_capacity(n_units);
    for u in 0..n_units {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "/* generated by the Reaction Modeling Suite chemical compiler */"
        );
        if n_units == 1 {
            let _ = writeln!(out, "/* model: {} */", spec.name);
        } else {
            let _ = writeln!(out, "/* model: {} (unit {u} of {n_units}) */", spec.name);
        }
        let _ = writeln!(out, "/* fingerprint: {:032x} */", spec.key);
        out.push_str(
            "/* Compile with -ffp-contract=off for bit-identical agreement with\n \
             * the tape interpreter (no fused multiply-add contraction). */\n\n",
        );
        let _ = writeln!(out, "#define RMS_N_SPECIES {n_species}");
        let _ = writeln!(out, "#define RMS_N_RATES {n_rates}");
        out.push_str(
            "#if defined(__GNUC__)\n\
             #define RMS_TLS __thread\n\
             #else\n\
             #define RMS_TLS _Thread_local\n\
             #endif\n\n",
        );
        if u == 0 {
            let _ = writeln!(
                out,
                "const unsigned long long rms_key[2] = {{0x{:016x}ull, 0x{:016x}ull}};",
                spec.key as u64,
                (spec.key >> 64) as u64
            );
            let _ = writeln!(out, "const int rms_abi_version = {KERNEL_ABI_VERSION};");
            let _ = writeln!(out, "const int rms_n_species = RMS_N_SPECIES;");
            let _ = writeln!(out, "const int rms_n_rates = RMS_N_RATES;");
            let _ = writeln!(out, "const long long rms_jac_nnz = {jac_nnz}ll;");
            let _ = writeln!(out, "const long long rms_dfdp_nnz = {dfdp_nnz}ll;");
            let _ = writeln!(out, "const long long rms_loop_count = {loop_count}ll;");
            let _ = writeln!(
                out,
                "const long long rms_rolled_instrs = {rolled_instrs}ll;"
            );
            out.push('\n');
            if !pools.tab.is_empty() {
                let _ = write!(out, "const {tab_ty} rms_tab[{}] = {{", pools.tab.len());
                for (i, v) in pools.tab.iter().enumerate() {
                    if i % 16 == 0 {
                        out.push_str("\n    ");
                    }
                    let _ = write!(out, "{v},");
                }
                out.push_str("\n};\n");
            }
            if !pools.cpool.is_empty() {
                let _ = write!(out, "const double rms_cpool[{}] = {{", pools.cpool.len());
                for (i, v) in pools.cpool.iter().enumerate() {
                    if i % 4 == 0 {
                        out.push_str("\n    ");
                    }
                    let _ = write!(out, "{},", c_f64(*v));
                }
                out.push_str("\n};\n");
            }
            let _ = writeln!(out, "static RMS_TLS double rms_regs[{n_regs}];\n");
        } else {
            if !pools.tab.is_empty() {
                let _ = writeln!(out, "extern const {tab_ty} rms_tab[];");
            }
            if !pools.cpool.is_empty() {
                out.push_str("extern const double rms_cpool[];\n");
            }
            out.push('\n');
        }
        // Prototypes for every chunk function not defined in this unit
        // (entry functions only call chunks, and only unit 0 holds them).
        if u == 0 {
            for (i, f) in fns.iter().enumerate() {
                if f.entry || assignment[i] == 0 {
                    continue;
                }
                let _ = writeln!(out, "{};", f.proto);
            }
            out.push('\n');
        }
        for (i, f) in fns.iter().enumerate() {
            let here = if f.entry { u == 0 } else { assignment[i] == u };
            if here {
                out.push_str(&f.text);
            }
        }
        units.push(out);
    }
    EmittedKernel {
        source_bytes: units.iter().map(|s| s.len()).sum(),
        units,
        loop_count,
        rolled_instrs,
        table_entries: pools.tab.len(),
        pooled_consts: pools.cpool.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TempId;
    use crate::tape::lower;

    fn term(c: f64, rate: u32, species: &[u32]) -> Expr {
        let mut f = vec![Expr::Rate(rate)];
        f.extend(species.iter().map(|&s| Expr::Species(s)));
        Expr::prod(c, f)
    }

    #[test]
    fn renders_products_and_sums() {
        let e = Expr::sum(vec![term(1.0, 0, &[0]), term(-2.0, 1, &[1, 2])]);
        assert_eq!(render(&e), "k[0]*y[0] - 2.0*k[1]*y[1]*y[2]");
    }

    #[test]
    fn nested_sum_parenthesized() {
        let e = Expr::prod(
            1.0,
            vec![
                Expr::Rate(0),
                Expr::sum(vec![Expr::Species(1), Expr::Species(2)]),
            ],
        );
        assert_eq!(render(&e), "k[0]*(y[1] + y[2])");
    }

    #[test]
    fn unary_minus() {
        assert_eq!(render(&term(-1.0, 0, &[0])), "-k[0]*y[0]");
    }

    #[test]
    fn function_shape() {
        let forest = ExprForest {
            temps: vec![Expr::sum(vec![Expr::Species(0), Expr::Species(1)])],
            rhs: vec![
                Expr::prod(1.0, vec![Expr::Rate(0), Expr::Temp(TempId(0))]),
                Expr::constant(0.0),
            ],
            n_species: 2,
            n_rates: 1,
        };
        let code = emit_c(&forest, "ode_rhs");
        assert!(code.contains("void ode_rhs(const double* k, const double* y, double* ydot) {"));
        assert!(code.contains("const double t0 = y[0] + y[1];"), "{code}");
        assert!(code.contains("ydot[0] = k[0]*t0;"), "{code}");
        assert!(code.contains("ydot[1] = 0.0;"), "{code}");
        // temp defined before use
        assert!(code.find("t0 =").unwrap() < code.find("ydot[0]").unwrap());
    }

    #[test]
    fn negative_constant_parenthesized() {
        let e = Expr::prod(
            1.0,
            vec![
                Expr::Rate(0),
                Expr::sum(vec![Expr::Species(0), Expr::constant(-2.0)]),
            ],
        );
        let s = render(&e);
        assert_eq!(s, "k[0]*((-2.0) + y[0])");
    }

    #[test]
    fn negative_zero_parenthesized() {
        // `*v < 0.0` is false for -0.0; the sign-bit check must still
        // parenthesize so `k[0]*(-0.0)` stays well-formed and exact.
        let e = Expr::Prod(Coeff(1.0), vec![Expr::Rate(0), Expr::Const(Coeff(-0.0))]);
        assert_eq!(render(&e), "k[0]*(-0.0)");
    }

    #[test]
    fn debug_rendering_round_trips_exactly() {
        // The forest printer uses `{:?}` (shortest round-trip decimal);
        // verify the guarantee holds for the values we care about.
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            -2.5e-17,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4096.0, // subnormal
            5e-324,                     // smallest subnormal
            f64::MAX,
            -1.2345678987654321e300,
        ] {
            let parsed: f64 = format!("{v:?}").parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v:?}");
        }
    }

    /// Parse a C99 float literal as produced by [`c_f64`], independently of
    /// the encoder (so the test is a real round-trip, not an inverse of the
    /// same bit twiddling).
    fn parse_c_literal(s: &str) -> f64 {
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let mag = if let Some(hex) = s.strip_prefix("0x") {
            let (mant_str, exp_str) = hex.split_once('p').expect("hex literal needs p-exponent");
            let (int_part, frac_part) = match mant_str.split_once('.') {
                Some((i, f)) => (i, f),
                None => (mant_str, ""),
            };
            let mut mant: u128 = u128::from_str_radix(int_part, 16).unwrap();
            let mut exp: i32 = exp_str.parse().unwrap();
            for c in frac_part.chars() {
                mant = mant * 16 + c.to_digit(16).unwrap() as u128;
                exp -= 4;
            }
            // mant * 2^exp via exact power-of-two scaling (two steps keep
            // each factor in range; the final step performs at most one
            // correct rounding).
            let mut x = mant as f64;
            while exp > 0 {
                let step = exp.min(512);
                x *= 2f64.powi(step);
                exp -= step;
            }
            while exp < 0 {
                let step = (-exp).min(512);
                x /= 2f64.powi(step);
                exp += step;
            }
            x
        } else {
            s.parse::<f64>().unwrap()
        };
        if neg {
            -mag
        } else {
            mag
        }
    }

    #[test]
    fn c_literals_round_trip_exactly() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -2.0,
            0.1,
            -0.3,
            1.0 / 3.0,
            2.0f64.powi(-1022),         // smallest normal
            f64::MIN_POSITIVE / 2.0,    // subnormal
            f64::MIN_POSITIVE / 4096.0, // deeper subnormal
            5e-324,                     // smallest subnormal
            -5e-324,
            f64::MAX,
            f64::MIN,
            6.02214076e23,
            -1.602176634e-19,
            std::f64::consts::PI,
            2.0f64.powi(60),
            1.5e300,
        ];
        for v in cases {
            let lit = c_f64(v);
            let parsed = parse_c_literal(&lit);
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v:e} rendered as {lit}");
        }
        // Sweep a deterministic pseudo-random sample of finite bit patterns.
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            if !v.is_finite() {
                continue;
            }
            let lit = c_f64(v);
            let parsed = parse_c_literal(&lit);
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v:e} rendered as {lit}");
        }
    }

    #[test]
    fn kernel_source_shape() {
        let forest = ExprForest {
            temps: vec![],
            rhs: vec![
                Expr::sum(vec![term(1.0, 0, &[1]), term(-0.5, 0, &[0])]),
                Expr::constant(0.0),
            ],
            n_species: 2,
            n_rates: 1,
        };
        let tape = lower(&forest);
        let st = crate::deriv::compile_sensitivity(&forest, None);
        let jac_nnz = st.jac_nnz() as i64;
        let emitted = emit_kernel(
            &KernelSpec {
                name: "tiny",
                rhs: &tape,
                derivs: Some(&DerivTapes::Sensitivity(st.into())),
                key: 0xdeadbeef_00000000_00000000_0000cafe,
            },
            1,
        );
        assert_eq!(emitted.units.len(), 1);
        let src = &emitted.units[0];
        for needle in [
            "/* model: tiny */",
            "void ode_rhs(const double* restrict k",
            "void ode_jac(",
            "void ode_sens(",
            "rms_key[2]",
            "0x000000000000cafeull",
            "0xdeadbeef00000000ull",
            "const int rms_n_species = RMS_N_SPECIES;",
            "#define RMS_N_SPECIES 2",
        ] {
            assert!(src.contains(needle), "missing {needle:?} in:\n{src}");
        }
        assert!(src.contains(&format!("rms_jac_nnz = {jac_nnz}ll")), "{src}");
        // Each member tape is rendered once: `ode_sens` is `ode_jac`'s
        // chunk calls, then the tail's, over the same registers.
        for chunk in [
            "rms_ode_rhs_k0",
            "rms_ode_jac_k0",
            "rms_ode_jac_k1",
            "rms_ode_sens_k0",
        ] {
            let defs = src.matches(&format!("void {chunk}(")).count();
            assert_eq!(defs, 1, "{chunk} defined {defs} times in:\n{src}");
        }
        let body = |name: &str| {
            let from = src.find(&format!("void {name}(")).expect("entry point");
            let open = from + src[from..].find("{\n").expect("body") + 2;
            &src[open..open + src[open..].find("}\n").expect("end of body")]
        };
        let sens = body("ode_sens");
        let tail = sens
            .strip_prefix(body("ode_jac"))
            .expect("ode_sens continues ode_jac");
        assert_eq!(tail, "    rms_ode_sens_k0(k, y, dfdp, rms_regs);\n");
        // Nothing repeats in a two-equation model: the same form, no loop.
        assert_eq!(emitted.loop_count, 0);
        assert!(!src.contains("for (int t"), "{src}");
        assert!(src.contains("const long long rms_loop_count = 0ll;"));
        assert!(src.contains("const long long rms_rolled_instrs = 0ll;"));
        assert_eq!(emitted.source_bytes, src.len());
    }

    /// A forest of structurally identical reaction stanzas: the shape the
    /// reroll pass is built for.
    fn stanza_forest(n_eq: usize) -> ExprForest {
        let rhs = (0..n_eq)
            .map(|i| {
                let i = i as u32;
                Expr::sum(vec![
                    term(3.25, i % 8, &[i % 5, (i + 1) % 5]),
                    term(-3.25, (i + 3) % 8, &[(i + 2) % 5]),
                ])
            })
            .collect();
        ExprForest {
            temps: vec![],
            rhs,
            n_species: n_eq.max(5),
            n_rates: 8,
        }
    }

    #[test]
    fn rolled_kernel_renders_loops_and_shared_pools() {
        let tape = lower(&stanza_forest(48));
        let emitted = emit_kernel(
            &KernelSpec {
                name: "stanzas",
                rhs: &tape,
                derivs: None,
                key: 7,
            },
            1,
        );
        assert_eq!(emitted.units.len(), 1);
        let src = &emitted.units[0];
        for needle in [
            "for (int t = 0; t <",
            "rms_tab[",
            "const double rms_cpool[",
            "rms_regs",
            "void ode_rhs(",
        ] {
            assert!(src.contains(needle), "missing {needle:?} in:\n{src}");
        }
        assert!(emitted.loop_count > 0, "stanza forest must reroll");
        assert!(emitted.rolled_instrs > 0);
        assert!(
            src.contains(&format!("rms_loop_count = {}ll", emitted.loop_count)),
            "metadata must export the rendered loop count"
        );
        // The identical stanza constant 3.25 must be pooled once, not per use.
        assert!(
            emitted.pooled_consts <= 4,
            "pool kept {} consts",
            emitted.pooled_consts
        );
        // 3.25 and -3.25 each pooled once ("-3.25," also matches "3.25,").
        assert!(
            src.matches("3.25,").count() <= 2,
            "constant pool must dedup"
        );
        // The loops carry the stanzas: far fewer statements than instructions.
        assert!(
            src.matches(";\n").count() < tape.len(),
            "rolled source must be smaller than one statement per instruction"
        );
    }

    #[test]
    fn multi_unit_split_distributes_chunks_with_extern_pools() {
        let forest = stanza_forest(600);
        let tape = lower(&forest);
        let jt = crate::deriv::compile_jacobian(&forest, None);
        let emitted = emit_kernel(
            &KernelSpec {
                name: "big",
                rhs: &tape,
                derivs: Some(&DerivTapes::Jacobian(jt.into())),
                key: 9,
            },
            3,
        );
        assert!(emitted.units.len() > 1, "expected a multi-unit split");
        assert!(emitted.loop_count > 0, "stanza forest must reroll");
        // Entry points and metadata live only in unit 0.
        assert!(emitted.units[0].contains("void ode_rhs("));
        assert!(emitted.units[0].contains("rms_abi_version"));
        assert!(emitted.units[0].contains("/* model: big (unit 0 of "));
        for unit in &emitted.units[1..] {
            assert!(
                !unit.contains("void ode_rhs("),
                "entries must stay in unit 0"
            );
            assert!(!unit.contains("rms_abi_version"));
            if emitted.table_entries > 0 {
                assert!(
                    unit.contains("extern const"),
                    "pools must be extern in later units"
                );
            }
        }
        // Every chunk function is defined exactly once across all units.
        let all: String = emitted.units.concat();
        for g in 0.. {
            let name = format!("rms_ode_rhs_k{g}(");
            let defs = emitted
                .units
                .iter()
                .filter(|u| u.contains(&format!("void {name}")))
                .count();
            if !all.contains(&format!("void {name}")) {
                assert!(g > 0, "expected at least one rhs chunk");
                break;
            }
            assert_eq!(defs, 1, "chunk {name} defined {defs} times");
        }
    }
}
